//! Golden-trace snapshots: the span-tree *shape* (names, nesting,
//! field names, event names — never timings) of three canonical
//! asks is pinned against checked-in snapshots under
//! `tests/golden/`. Regenerate with `DWQA_BLESS=1 cargo test -p
//! dwqa-engine --test golden_trace`.

use dwqa_bench::{build_fixture, FixtureConfig};
use dwqa_corpus::PageStyle;
use dwqa_engine::QaEngine;
use dwqa_obs::Trace;
use std::path::PathBuf;
use std::time::Instant;

const QUESTION: &str = "What is the temperature on January 15, 2004 in Barcelona?";

/// Renders the structural shape of a trace: one line per span,
/// depth-indented, with sorted field names and in-order event names.
/// Timings, values and labels are omitted — they vary run to run.
fn shape(trace: &Trace) -> String {
    fn walk(trace: &Trace, idx: usize, depth: usize, out: &mut String) {
        let span = &trace.spans[idx];
        let mut fields: Vec<&str> = span.fields.iter().map(|(k, _)| *k).collect();
        fields.sort_unstable();
        fields.dedup();
        let events: Vec<&str> = span.events.iter().map(|e| e.name).collect();
        out.push_str(&format!(
            "{}{} fields=[{}] events=[{}]\n",
            "  ".repeat(depth),
            span.name,
            fields.join(","),
            events.join(","),
        ));
        for (i, s) in trace.spans.iter().enumerate() {
            if s.parent == Some(idx) {
                walk(trace, i, depth + 1, out);
            }
        }
    }
    let mut out = String::new();
    if !trace.spans.is_empty() {
        walk(trace, 0, 0, &mut out);
    }
    out
}

fn snap_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.snap"))
}

fn check(name: &str, trace: &Trace) {
    let got = shape(trace);
    let path = snap_path(name);
    if std::env::var("DWQA_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().expect("snap dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &got).expect("write blessed snapshot");
        eprintln!("blessed {name}: {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); run with DWQA_BLESS=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "span-tree shape of {name:?} drifted from {} — \
         intentional? re-bless with DWQA_BLESS=1",
        path.display()
    );
}

#[test]
fn golden_trace_shapes() {
    let fx = build_fixture(FixtureConfig {
        styles: vec![PageStyle::Prose],
        ..FixtureConfig::default()
    });

    // 1. Answered: the first ask misses the cache, so the trace shows
    //    every stage — analysis, passage retrieval, extraction.
    let engine = QaEngine::new(&fx.pipeline)
        .with_workers(1)
        .with_tracing(true);
    let first = engine.answer_checked(QUESTION);
    assert!(first.outcome.is_ok(), "fixture answers the question");
    let answered = engine.flight_recorder().last().expect("trace recorded");
    assert_eq!(
        answered.root_field("cache").and_then(|v| v.as_str()),
        Some("miss")
    );
    check("answered", &answered);

    // 2. A cache hit: second ask of the same question — the trace is a
    //    bare root stamped `cache=hit`, proving hits skip every stage.
    let _ = engine.answer_checked(QUESTION);
    let cached = engine.flight_recorder().last().expect("trace recorded");
    assert_eq!(
        cached.root_field("cache").and_then(|v| v.as_str()),
        Some("hit")
    );
    check("cached", &cached);

    // 3. Timed out: a deadline of now expires right after analysis.
    let engine = QaEngine::new(&fx.pipeline)
        .with_workers(1)
        .with_tracing(true);
    let report = engine.answer_checked_by(QUESTION, Some(Instant::now()));
    assert_eq!(report.outcome, dwqa_engine::AnswerOutcome::TimedOut);
    let timed_out = engine.flight_recorder().last().expect("trace recorded");
    check("timed_out", &timed_out);
}
