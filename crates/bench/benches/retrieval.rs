//! Criterion benchmarks for index-driven passage retrieval.
//!
//! Compares the score-bounded postings-driven path against the
//! exhaustive reference scan (the pre-postings implementation, kept in
//! `dwqa_ir::testing` precisely for this comparison), separates query
//! compilation cost (cold) from the compiled hot path (warm), sweeps the
//! paper's window parameter, and scales the corpus with distractor
//! documents, which hold no query term and cost the pruned path nothing
//! while the exhaustive scan grows linearly. `exp_retrieval_bench`
//! records the same comparison, plus multi-month corpora, as
//! `BENCH_retrieval.json` for the tracked perf trajectory.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dwqa_bench::{build_corpus, FixtureConfig};
use dwqa_ir::testing::retrieve_weighted_exhaustive;
use dwqa_ir::PassageRetriever;
use dwqa_nlp::Lexicon;

/// The weighted terms of a typical dated question ("What is the
/// temperature on January 15, 2004 in Barcelona?") after Module 1: the
/// day number carries the paper-style temporal boost.
fn query_terms() -> Vec<(String, f64)> {
    vec![
        ("temperature".to_owned(), 1.0),
        ("january".to_owned(), 1.0),
        ("15".to_owned(), 3.0),
        ("barcelona".to_owned(), 1.0),
    ]
}

fn corpus_with_distractors(distractors: usize) -> PassageRetriever {
    let lexicon = Lexicon::english();
    let (store, _) = build_corpus(&FixtureConfig {
        distractors,
        ..FixtureConfig::default()
    });
    PassageRetriever::build(&lexicon, &store, PassageRetriever::DEFAULT_WINDOW)
}

fn bench_pruned_vs_exhaustive(c: &mut Criterion) {
    let retriever = corpus_with_distractors(100);
    let terms = query_terms();
    let mut group = c.benchmark_group("retrieval");
    group.sample_size(20);
    group.bench_function("exhaustive_reference", |b| {
        b.iter(|| retrieve_weighted_exhaustive(&retriever, std::hint::black_box(&terms), 5))
    });
    // Cold: compile the query (vocabulary lookups + idf) every call.
    group.bench_function("pruned_cold", |b| {
        b.iter(|| retriever.retrieve_weighted(std::hint::black_box(&terms), 5))
    });
    // Warm: the compiled-query hot path on its own.
    let query = retriever.compile_query(terms.iter().map(|(t, w)| (t.as_str(), *w)));
    group.bench_function("pruned_warm", |b| {
        b.iter(|| retriever.retrieve_query(std::hint::black_box(&query), 5))
    });
    group.finish();
}

fn bench_window_sweep(c: &mut Criterion) {
    let lexicon = Lexicon::english();
    let (store, _) = build_corpus(&FixtureConfig {
        distractors: 100,
        ..FixtureConfig::default()
    });
    let terms = query_terms();
    let mut group = c.benchmark_group("retrieval_window");
    group.sample_size(20);
    for window in [4usize, 8, 16] {
        let retriever = PassageRetriever::build(&lexicon, &store, window);
        group.bench_with_input(BenchmarkId::new("pruned", window), &window, |b, _| {
            b.iter(|| retriever.retrieve_weighted(std::hint::black_box(&terms), 5))
        });
        group.bench_with_input(BenchmarkId::new("exhaustive", window), &window, |b, _| {
            b.iter(|| retrieve_weighted_exhaustive(&retriever, std::hint::black_box(&terms), 5))
        });
    }
    group.finish();
}

fn bench_corpus_sweep(c: &mut Criterion) {
    let terms = query_terms();
    let mut group = c.benchmark_group("retrieval_corpus");
    group.sample_size(20);
    for distractors in [0usize, 50, 200] {
        let retriever = corpus_with_distractors(distractors);
        group.bench_with_input(
            BenchmarkId::new("pruned", distractors),
            &distractors,
            |b, _| b.iter(|| retriever.retrieve_weighted(std::hint::black_box(&terms), 5)),
        );
        group.bench_with_input(
            BenchmarkId::new("exhaustive", distractors),
            &distractors,
            |b, _| {
                b.iter(|| retrieve_weighted_exhaustive(&retriever, std::hint::black_box(&terms), 5))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pruned_vs_exhaustive,
    bench_window_sweep,
    bench_corpus_sweep
);
criterion_main!(benches);
