//! Records the passage-retrieval performance baseline.
//!
//! Times the exhaustive reference scan against the served path (query
//! compiled and retrieved, as the QA engine does per question) across
//! window sizes and corpus sizes — one month of weather pages with a
//! growing number of distractors, then 12 and 48 months at 200
//! distractors, the end-to-end benchmark's shape — checks that both
//! return identical passages, and writes the measurements to
//! `BENCH_retrieval.json` so future changes have a recorded trajectory
//! to compare against.
//!
//! Usage: `exp_retrieval_bench [--quick] [--out PATH]`
//!
//! `--quick` shrinks corpora and iteration counts for CI smoke runs.

use dwqa_bench::{build_corpus, section, FixtureConfig};
use dwqa_common::Month;
use dwqa_ir::testing::retrieve_weighted_exhaustive;
use dwqa_ir::PassageRetriever;
use dwqa_nlp::Lexicon;
use serde::Serialize;
use std::time::Instant;

/// One measured configuration.
#[derive(Serialize)]
struct Measurement {
    /// Months of weather pages (7 cities × 2 styles each), from January
    /// 2004 on. More than one month is asked the dated query.
    months: usize,
    distractors: usize,
    corpus_docs: usize,
    window: usize,
    iterations: u32,
    /// Documents holding at least one query term.
    docs_candidate: usize,
    /// Documents holding none: never touched.
    docs_pruned: usize,
    /// Candidates whose windows were scored; the score bound cut the rest.
    docs_scored: usize,
    /// Windows whose score was computed.
    windows_scored: usize,
    exhaustive_us: f64,
    /// Query compiled and retrieved, per call.
    pruned_us: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    experiment: &'static str,
    quick: bool,
    /// Asked of the one-month corpora.
    query: Vec<(String, f64)>,
    /// Asked of the multi-month corpora.
    dated_query: Vec<(String, f64)>,
    passages_k: usize,
    measurements: Vec<Measurement>,
}

/// Mean wall-clock microseconds per call of `f` over `iters` calls (after
/// a small warm-up).
fn time_us<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..iters.div_ceil(10).max(1) {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

/// The weighted terms of a typical dated question after Module 1 (the day
/// number carries the temporal boost).
fn query_terms() -> Vec<(String, f64)> {
    vec![
        ("temperature".to_owned(), 1.0),
        ("january".to_owned(), 1.0),
        ("15".to_owned(), 3.0),
        ("barcelona".to_owned(), 1.0),
    ]
}

/// What Module 1 makes of "What is the temperature on January 15, 2004
/// in Barcelona?": the day number is the heaviest term, and every
/// weather page of every city and month holds it.
fn dated_query_terms() -> Vec<(String, f64)> {
    vec![
        ("january".to_owned(), 1.0),
        ("15".to_owned(), 3.0),
        ("2004".to_owned(), 1.0),
        ("barcelona".to_owned(), 1.0),
    ]
}

const K: usize = 5;

fn measure(months: usize, distractors: usize, window: usize, iters: u32) -> Measurement {
    let lexicon = Lexicon::english();
    let (store, _) = build_corpus(&FixtureConfig {
        months: (0..months)
            .map(|m| {
                let month = Month::from_number(m as u32 % 12 + 1).expect("1..=12 is a month");
                (2004 + (m / 12) as i32, month)
            })
            .collect(),
        distractors,
        ..FixtureConfig::default()
    });
    let retriever = PassageRetriever::build(&lexicon, &store, window);
    let terms = if months > 1 {
        dated_query_terms()
    } else {
        query_terms()
    };
    let query = retriever.compile_query(terms.iter().map(|(t, w)| (t.as_str(), *w)));

    // Sanity: the served path must return exactly the reference results.
    let (pruned, stats) = retriever.retrieve_query(&query, K);
    let exhaustive = retrieve_weighted_exhaustive(&retriever, &terms, K);
    assert_eq!(
        pruned, exhaustive,
        "pruned retrieval diverged from the exhaustive reference"
    );

    let exhaustive_us = time_us(iters, || {
        retrieve_weighted_exhaustive(&retriever, &terms, K)
    });
    let pruned_us = time_us(iters, || retriever.retrieve_weighted(&terms, K));

    Measurement {
        months,
        distractors,
        corpus_docs: store.len(),
        window,
        iterations: iters,
        docs_candidate: stats.docs_candidate,
        docs_pruned: stats.docs_pruned,
        docs_scored: stats.docs_scored,
        windows_scored: stats.windows_scored,
        exhaustive_us,
        pruned_us,
        speedup: exhaustive_us / pruned_us.max(1e-9),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_retrieval.json", String::as_str);

    let (distractor_steps, iters): (&[usize], u32) = if quick {
        (&[0, 50], 30)
    } else {
        (&[0, 50, 200], 200)
    };
    let windows: &[usize] = if quick { &[8] } else { &[4, 8, 16] };
    // (months, distractors, window): one month over the distractor and
    // window sweeps, then the end-to-end benchmark's shape.
    let mut rows: Vec<(usize, usize, usize)> = Vec::new();
    for &d in distractor_steps {
        rows.extend(windows.iter().map(|&w| (1, d, w)));
    }
    let month_steps: &[usize] = if quick { &[3] } else { &[12, 48] };
    rows.extend(
        month_steps
            .iter()
            .map(|&m| (m, 200, PassageRetriever::DEFAULT_WINDOW)),
    );

    section("retrieval bench: exhaustive reference vs score-bounded postings path");
    let mut measurements = Vec::new();
    for (months, distractors, window) in rows {
        let m = measure(months, distractors, window, iters);
        println!(
            "{:>2} months  corpus {:>3} docs  window {:>2}  candidates {:>3}  scored {:>3}  \
             windows {:>5}  exhaustive {:>9.1} µs  pruned {:>8.1} µs ({:>5.1}×)",
            m.months,
            m.corpus_docs,
            m.window,
            m.docs_candidate,
            m.docs_scored,
            m.windows_scored,
            m.exhaustive_us,
            m.pruned_us,
            m.speedup,
        );
        measurements.push(m);
    }

    let report = BenchReport {
        experiment: "retrieval_bench",
        quick,
        query: query_terms(),
        dated_query: dated_query_terms(),
        passages_k: K,
        measurements,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(out_path, format!("{json}\n")).expect("write bench report");
    println!("\nwrote {out_path}");
}
