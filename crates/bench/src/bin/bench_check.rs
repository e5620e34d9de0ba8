//! Validates `BENCH_*.json` artifacts against the schema each
//! experiment binary promises, so CI fails on schema drift (a renamed
//! field, a dropped self-gate) instead of silently archiving junk.
//!
//! Usage: `bench_check [FILES...]` — with no arguments, checks every
//! `BENCH_*.json` in the current directory. Exits non-zero when any
//! file is missing a required field, carries a wrong type, reports an
//! unknown experiment, or when no file is found at all.

use serde::Content;

/// The JSON shape a required field must have.
#[derive(Clone, Copy)]
enum Kind {
    Str,
    Bool,
    Number,
    NonEmptySeq,
    Map,
}

fn has_kind(v: &Content, kind: Kind) -> bool {
    match kind {
        Kind::Str => matches!(v, Content::Str(_)),
        Kind::Bool => matches!(v, Content::Bool(_)),
        Kind::Number => matches!(v, Content::I64(_) | Content::U64(_) | Content::F64(_)),
        Kind::NonEmptySeq => matches!(v, Content::Seq(items) if !items.is_empty()),
        Kind::Map => matches!(v, Content::Map(_)),
    }
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Str => "string",
        Kind::Bool => "bool",
        Kind::Number => "number",
        Kind::NonEmptySeq => "non-empty array",
        Kind::Map => "object",
    }
}

fn as_f64(v: &Content) -> Option<f64> {
    match v {
        Content::I64(n) => Some(*n as f64),
        Content::U64(n) => Some(*n as f64),
        Content::F64(n) => Some(*n),
        _ => None,
    }
}

fn require(root: &Content, name: &str, kind: Kind, out: &mut Vec<String>) {
    if !root.get(name).is_some_and(|v| has_kind(v, kind)) {
        out.push(format!(
            "missing or mistyped `{name}` ({})",
            kind_name(kind)
        ));
    }
}

/// Every element of array `name` must carry numeric field `inner`.
fn require_each(root: &Content, name: &str, inner: &str, out: &mut Vec<String>) {
    if let Some(Content::Seq(items)) = root.get(name) {
        for (i, item) in items.iter().enumerate() {
            if !item.get(inner).is_some_and(|v| has_kind(v, Kind::Number)) {
                out.push(format!("`{name}[{i}]` lacks numeric `{inner}`"));
            }
        }
    }
}

/// The per-experiment schema: common envelope plus the fields the
/// matching binary's `BenchReport` writes — including the self-gate
/// fields CI relies on.
fn check_report(root: &Content) -> Vec<String> {
    let mut out = Vec::new();
    require(root, "experiment", Kind::Str, &mut out);
    require(root, "quick", Kind::Bool, &mut out);
    let experiment = match root.get("experiment") {
        Some(Content::Str(s)) => s.as_str(),
        _ => "",
    };
    match experiment {
        "retrieval_bench" => {
            require(root, "query", Kind::NonEmptySeq, &mut out);
            require(root, "passages_k", Kind::Number, &mut out);
            require(root, "dated_query", Kind::NonEmptySeq, &mut out);
            require(root, "measurements", Kind::NonEmptySeq, &mut out);
            for f in [
                "months",
                "docs_candidate",
                "docs_scored",
                "windows_scored",
                "speedup",
            ] {
                require_each(root, "measurements", f, &mut out);
            }
        }
        "trace_overhead" => {
            for f in [
                "untraced_mean_us",
                "traced_mean_us",
                "overhead_pct",
                "budget_pct",
            ] {
                require(root, f, Kind::Number, &mut out);
            }
        }
        "warehouse_bench" => {
            require(root, "rollups", Kind::NonEmptySeq, &mut out);
            require(root, "cache", Kind::NonEmptySeq, &mut out);
            require_each(root, "rollups", "speedup", &mut out);
            require_each(root, "cache", "ops_per_sec", &mut out);
        }
        "incremental" => {
            for f in ["base_rows", "delta_rows", "cycles", "queries"] {
                require(root, f, Kind::Number, &mut out);
            }
            for lane in ["incremental", "purge"] {
                require(root, lane, Kind::Map, &mut out);
                if let Some(obj) = root.get(lane) {
                    if !obj
                        .get("cycle_us")
                        .is_some_and(|v| has_kind(v, Kind::Number))
                    {
                        out.push(format!("`{lane}` lane lacks numeric `cycle_us`"));
                    }
                }
            }
            require(root, "speedup", Kind::Number, &mut out);
            require(root, "speedup_floor", Kind::Number, &mut out);
            if let (Some(speedup), Some(floor)) = (
                root.get("speedup").and_then(as_f64),
                root.get("speedup_floor").and_then(as_f64),
            ) {
                if speedup < floor {
                    out.push(format!(
                        "self-gate violated: speedup {speedup:.2} < floor {floor:.2}"
                    ));
                }
            }
        }
        "service_saturation" => {
            require(root, "sweep", Kind::NonEmptySeq, &mut out);
            require(root, "drain", Kind::Map, &mut out);
            require(root, "shed_under_overload", Kind::Bool, &mut out);
            require(root, "p50_within_2x", Kind::Bool, &mut out);
        }
        "crash_recovery" => {
            require(root, "seed", Kind::Number, &mut out);
            require(root, "fsync", Kind::NonEmptySeq, &mut out);
            require(root, "scenarios", Kind::NonEmptySeq, &mut out);
            require(root, "chaos", Kind::Map, &mut out);
        }
        "failover" => {
            require(root, "seed", Kind::Number, &mut out);
            require(root, "link_chaos_rate", Kind::Number, &mut out);
            require(root, "scenarios", Kind::NonEmptySeq, &mut out);
            require_each(root, "scenarios", "promotion_ms", &mut out);
            require(root, "async_mode", Kind::Map, &mut out);
            require(root, "zero_loss_all", Kind::Bool, &mut out);
            require(root, "max_promotion_ms", Kind::Number, &mut out);
            require(root, "promotion_budget_ms", Kind::Number, &mut out);
            if matches!(root.get("zero_loss_all"), Some(Content::Bool(false))) {
                out.push("self-gate violated: zero_loss_all is false".to_owned());
            }
            if let (Some(max), Some(budget)) = (
                root.get("max_promotion_ms").and_then(as_f64),
                root.get("promotion_budget_ms").and_then(as_f64),
            ) {
                if max > budget {
                    out.push(format!(
                        "self-gate violated: max_promotion_ms {max:.1} > budget {budget:.1}"
                    ));
                }
            }
        }
        other => out.push(format!("unknown experiment `{other}`")),
    }
    out
}

fn main() {
    let mut files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        if let Ok(entries) = std::fs::read_dir(".") {
            for entry in entries.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if name.starts_with("BENCH_") && name.ends_with(".json") {
                    files.push(name);
                }
            }
        }
        files.sort();
    }
    if files.is_empty() {
        eprintln!("bench_check: no BENCH_*.json artifacts found");
        std::process::exit(1);
    }

    let mut failures = 0usize;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("{path}: unreadable: {err}");
                failures += 1;
                continue;
            }
        };
        let root: Content = match serde_json::from_str(&text) {
            Ok(root) => root,
            Err(err) => {
                eprintln!("{path}: invalid JSON: {err}");
                failures += 1;
                continue;
            }
        };
        let violations = check_report(&root);
        if violations.is_empty() {
            let experiment = match root.get("experiment") {
                Some(Content::Str(s)) => s.as_str(),
                _ => "?",
            };
            println!("{path}: ok ({experiment})");
        } else {
            for v in &violations {
                eprintln!("{path}: {v}");
            }
            failures += violations.len();
        }
    }
    if failures > 0 {
        eprintln!(
            "bench_check: {failures} violation(s) across {} file(s)",
            files.len()
        );
        std::process::exit(1);
    }
}
