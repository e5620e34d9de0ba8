//! The metric tables `BENCHMARK.json` names, the host block, and the
//! result line the driver reads.

use crate::fixture::{Sizes, CHECKPOINT_EVERY, FSYNC_POLICY};
use crate::Args;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload reports every one.
/// Timings and the rate are at the reference host's speed
/// (`hostspeed`). The closed loop's p95 is printed by every run but not
/// listed: two closed-loop clients, two workers and their connection
/// threads on two cores make it a figure of the scheduler's, which does
/// not repeat within a quarter between runs of the same binary.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("read_p50_ms", "ms", "lower", 0.25),
    e2e("read_p95_ms", "ms", "lower", 0.25),
    e2e("closed_p50_ms", "ms", "lower", 0.25),
    e2e("closed_ops_s", "1/s", "higher", 0.25),
    e2e("answer_accuracy", "ratio", "higher", 0.05),
    e2e("recovery_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// Single layers, from the traced run. A layer a workload bypasses
/// reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("server.wire.decode_us", "us", "lower"),
    layer("server.wire.encode_us", "us", "lower"),
    layer("client.wire_us", "us", "lower"),
    layer("server.overhead_us", "us", "lower"),
    layer("server.pipelining_penalty_us", "us", "lower"),
    layer("server.queue.wait_mean_us", "us", "lower"),
    layer("server.shed", "count", "lower"),
    layer("server.rate_limited", "count", "lower"),
    layer("engine.answer_us", "us", "lower"),
    layer("engine.cache.hit_ratio", "ratio", "higher"),
    layer("engine.cache.hit_us", "us", "lower"),
    layer("nlp.question_us", "us", "lower"),
    layer("qa.analyze_us", "us", "lower"),
    layer("qa.extract_us", "us", "lower"),
    layer("qa.answered_ratio", "ratio", "higher"),
    layer("ir.passages_us", "us", "lower"),
    layer("ir.docs_candidate_per_q", "count", "lower"),
    layer("ir.windows_scored_per_q", "count", "lower"),
    layer("ir.docs_pruned_ratio", "ratio", "higher"),
    layer("core.feed_txn_us", "us", "lower"),
    layer("core.txn_snapshot_us", "us", "lower"),
    layer("core.dedup_skipped", "count", "lower"),
    layer("core.rollup.fold_us", "us", "lower"),
    layer("core.rollup.hit_ratio", "ratio", "higher"),
    layer("warehouse.load_us_per_row", "us", "lower"),
    layer("warehouse.scan_us", "us", "lower"),
    layer("warehouse.rows_scanned_per_read", "count", "lower"),
    layer("warehouse.plan.reuse_ratio", "ratio", "higher"),
    layer("warehouse.delta.demoted", "count", "lower"),
    layer("store.append_p50_us", "us", "lower"),
    layer("store.append_p95_us", "us", "lower"),
    layer("store.fsyncs_per_txn", "count", "lower"),
    layer("store.wal_bytes_per_txn", "B", "lower"),
    layer("store.wal_bytes_per_tuple", "B", "lower"),
    layer("store.checkpoint_us", "us", "lower"),
    layer("store.checkpoints", "count", "lower"),
    layer("store.recovery_us", "us", "lower"),
    layer("repl.quorum_wait_us", "us", "lower"),
    layer("repl.frames.shipped", "count", "lower"),
    layer("repl.acks", "count", "lower"),
    layer("repl.quorum.timeouts", "count", "lower"),
    layer("repl.lag.max_frames", "count", "lower"),
    layer("corpus.generate_s", "s", "lower"),
    layer("ontology.merge_s", "s", "lower"),
    layer("qa.index_build_s", "s", "lower"),
    layer("warehouse.initial_load_s", "s", "lower"),
    layer("store.attach_s", "s", "lower"),
    layer("repl.subscribe_s", "s", "lower"),
    layer("gen.late_p99_us", "us", "lower"),
    layer("gen.sent", "count", "higher"),
    layer("ladder.read.stages_us", "us", "lower"),
    layer("ladder.read.engine_us", "us", "lower"),
    layer("ladder.read.tcp_closed_us", "us", "lower"),
    layer("ladder.read.tcp_open_us", "us", "lower"),
    layer("ladder.write.volatile_us", "us", "lower"),
    layer("ladder.write.durable_us", "us", "lower"),
    layer("ladder.write.tcp_us", "us", "lower"),
    layer("ladder.write.tcp_sync_us", "us", "lower"),
    layer("ledger.client_p50_us", "us", "lower"),
    layer("ledger.attributed_us", "us", "lower"),
    layer("ledger.unattributed_us", "us", "lower"),
    layer("ledger.trace_overhead_us", "us", "lower"),
    layer("host.probe_us", "us", "lower"),
];

/// Named values of one run, checked against a metric table.
pub struct Metrics {
    table: &'static [MetricDef],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    pub fn new(table: &'static [MetricDef]) -> Metrics {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|m| m.name == name),
            "metric `{name}` is not in the table BENCHMARK.json lists"
        );
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `(definition, value)` for every metric of the table; an unset
    /// metric reads 0.
    pub fn rows(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.table.iter().map(|m| (m, self.get(m.name)))
    }

    /// Names of the table that were never set.
    pub fn unset(&self) -> Vec<&'static str> {
        self.table
            .iter()
            .map(|m| m.name)
            .filter(|n| !self.values.contains_key(n))
            .collect()
    }
}

/// Prints where and on what the numbers are taken: the host block every
/// output carries.
pub fn print_host(workload: &str, args: &Args, sizes: Sizes) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    println!("host: nproc={nproc} profile=release {rustc}");
    println!(
        "run: commit={} workload={workload} seed={} seconds={} traced={}",
        git_commit().unwrap_or_else(|| "unknown".to_owned()),
        args.seed,
        args.seconds,
        args.traced
    );
    println!(
        "fixture: documents={} sales_rows={} questions={} fsync={FSYNC_POLICY} checkpoint_every={CHECKPOINT_EVERY}",
        sizes.documents, sizes.sales_rows, sizes.questions
    );
}

/// The checked-out commit, read from `.git` without running git (the
/// driver's checkout is not a repository, so this is often unknown).
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .map(|s| s.trim().to_owned()),
        None => Some(head.to_owned()),
    }
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a run hands back to `main`.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks that did not hold; empty means correct.
    pub violations: Vec<String>,
}

/// Prints the metric table, then — as the last line — the result object
/// the driver parses.
pub fn print_result(outcome: &Outcome) {
    println!();
    println!(
        "{:<34} {:>16}  {:<6} {:<7} may worsen by",
        "metric", "value", "unit", "better"
    );
    for (def, value) in outcome.metrics.rows() {
        let bound = if def.bound > 0.0 {
            format!("{:.0} %", def.bound * 100.0)
        } else {
            "-".to_owned()
        };
        println!(
            "{:<34} {:>16.4}  {:<6} {:<7} {bound}",
            def.name, value, def.unit, def.better
        );
    }
    println!(
        "attempted={} failed={} failed_ratio={}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for v in &outcome.violations {
        println!("CHECK FAILED: {v}");
    }
    let metrics: Vec<String> = outcome
        .metrics
        .rows()
        .map(|(def, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name, value, def.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    fn names(root: &Content, key: &str) -> Vec<(String, String, String)> {
        let Some(Content::Seq(items)) = root.get(key) else {
            panic!("BENCHMARK.json lacks `{key}`");
        };
        items
            .iter()
            .map(|item| {
                let field = |k: &str| match item.get(k) {
                    Some(Content::Str(s)) => s.clone(),
                    other => panic!("`{key}` entry lacks string `{k}`: {other:?}"),
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    /// `BENCHMARK.json` and the tables here must name the same metrics,
    /// in the same order, with the same units.
    #[test]
    fn manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let root: Content = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = names(&root, key);
            let ours: Vec<(String, String, String)> = table
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned(), m.better.to_owned()))
                .collect();
            assert_eq!(listed, ours, "`{key}` drifted from report.rs");
        }
        let Some(Content::Seq(items)) = root.get("end_to_end") else {
            unreachable!()
        };
        for (item, def) in items.iter().zip(END_TO_END) {
            let bound = match item.get("bound") {
                Some(Content::F64(b)) => *b,
                other => panic!("{} lacks a numeric bound: {other:?}", def.name),
            };
            assert_eq!(bound, def.bound, "bound of {}", def.name);
        }
    }

    #[test]
    fn metric_names_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(def.better, "lower" | "higher"));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn unset_metrics_read_zero_and_unknown_names_are_refused() {
        let mut m = Metrics::new(PER_LAYER);
        m.set("gen.sent", 12.0);
        assert_eq!(m.get("gen.sent"), 12.0);
        assert_eq!(m.get("repl.acks"), 0.0);
        assert!(m.unset().contains(&"repl.acks"));
        assert_eq!(m.rows().count(), PER_LAYER.len());
        let refused = std::panic::catch_unwind(move || m.set("no.such.metric", 1.0));
        assert!(refused.is_err());
    }
}
