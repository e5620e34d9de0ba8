//! The gate behind "a serving binary links only what a request can
//! reach": the comparison systems and the scorer live in
//! `dwqa-baselines`, and nothing on the way from `dwqa-server` down may
//! depend on it.
//!
//! The dependency graph is read from the workspace's own manifests (no
//! cargo is spawned): a package's normal dependencies are the keys of its
//! `[dependencies]` tables, target-specific ones included; dev- and
//! build-dependencies are not followed. CI checks the same property a
//! second way, with `cargo tree -e normal`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

const BASELINES: &str = "dwqa-baselines";

/// Package name and normal dependency names of one manifest.
fn parse_manifest(text: &str) -> Option<(String, BTreeSet<String>)> {
    let mut section = String::new();
    let mut name = None;
    let mut deps = BTreeSet::new();
    for line in text.lines().map(str::trim) {
        if let Some(header) = line.strip_prefix('[') {
            section = header.trim_matches(|c| c == '[' || c == ']').to_owned();
            // `[dependencies.foo]` declares `foo` by its header alone.
            if let Some(dep) = section.strip_prefix("dependencies.") {
                deps.insert(dep.to_owned());
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if section == "package" && key == "name" {
            name = Some(value.trim().trim_matches('"').to_owned());
        } else if section == "dependencies" || section.ends_with(".dependencies") {
            // `foo = …` or the dotted `foo.workspace = true`.
            deps.insert(key.split('.').next().unwrap_or(key).to_owned());
        }
    }
    Some((name?, deps))
}

/// Every workspace member (`crates/*`, `vendor/*`) with its normal
/// dependencies.
fn workspace_graph() -> BTreeMap<String, BTreeSet<String>> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut graph = BTreeMap::new();
    for members in ["crates", "vendor"] {
        for entry in std::fs::read_dir(root.join(members)).expect("workspace member directory") {
            let manifest = entry.expect("directory entry").path().join("Cargo.toml");
            let Ok(text) = std::fs::read_to_string(&manifest) else {
                continue; // a plain file such as vendor/README.md
            };
            let (name, deps) =
                parse_manifest(&text).unwrap_or_else(|| panic!("no package name in {manifest:?}"));
            graph.insert(name, deps);
        }
    }
    graph
}

fn closure(graph: &BTreeMap<String, BTreeSet<String>>, root: &str) -> BTreeSet<String> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![root.to_owned()];
    while let Some(package) = stack.pop() {
        for dep in graph.get(&package).into_iter().flatten() {
            if seen.insert(dep.clone()) {
                stack.push(dep.clone());
            }
        }
    }
    seen
}

#[test]
fn the_server_links_no_baseline() {
    let graph = workspace_graph();
    let serving = closure(&graph, "dwqa-server");
    // The walk is not vacuous: it reaches the bottom of the stack.
    for expected in [
        "dwqa-engine",
        "dwqa-core",
        "dwqa-qa",
        "dwqa-ir",
        "dwqa-warehouse",
    ] {
        assert!(
            serving.contains(expected),
            "{expected} missing from {serving:?}"
        );
    }
    assert!(
        !serving.contains(BASELINES),
        "dwqa-server reaches {BASELINES} through normal dependencies: {serving:?}"
    );
}

#[test]
fn only_the_bench_crate_depends_on_the_baselines() {
    let graph = workspace_graph();
    assert!(graph.contains_key(BASELINES), "{:?}", graph.keys());
    let dependants: Vec<&str> = graph
        .iter()
        .filter(|(_, deps)| deps.contains(BASELINES))
        .map(|(name, _)| name.as_str())
        .collect();
    assert_eq!(dependants, ["dwqa-bench"]);
}

#[test]
fn manifests_are_read_the_way_cargo_reads_them() {
    let (name, deps) = parse_manifest(
        "[package]\nname = \"p\"\n\n[dependencies]\na = { workspace = true }\nb.workspace = true\n\
         # c = \"1\"\n\n[dependencies.d]\npath = \"../d\"\n\n[target.'cfg(unix)'.dependencies]\n\
         e = \"1\"\n\n[dev-dependencies]\nf = \"1\"\n\n[build-dependencies]\ng = \"1\"\n\n\
         [[test]]\nname = \"t\"\n",
    )
    .expect("a package name");
    assert_eq!(name, "p");
    assert_eq!(deps.into_iter().collect::<Vec<_>>(), ["a", "b", "d", "e"]);
}
