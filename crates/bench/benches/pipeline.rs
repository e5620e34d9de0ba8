//! End-to-end benchmarks: pipeline construction (Steps 1–4 + indexation),
//! per-question latency for QA vs the IR and IE baselines — the paper's
//! "IR is extremely quick but its precision is quite low" / "time of
//! analysis spent by users is highly decreased" trade-off, measured —
//! and the batch engine: a 64-question batch answered sequentially vs on
//! a 4-thread worker pool vs from a warm answer cache.
//!
//! The worker-pool comparison needs ≥4 hardware threads to show its
//! near-linear speedup; on a single-core host the pooled run degenerates
//! to sequential (±scheduling noise) while the warm-cache run still
//! shows the ≥2.5× batch speedup on any machine.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dwqa_baselines::{IeBaseline, IeTemplate, IrBaseline};
use dwqa_bench::{build_corpus, build_fixture, daily_questions, monthly_question, FixtureConfig};
use dwqa_common::Month;
use dwqa_core::{integrated_schema, IntegrationPipeline, PipelineOptions};
use dwqa_engine::QaEngine;
use dwqa_ir::DocumentStore;
use dwqa_warehouse::Warehouse;

fn clone_store(store: &DocumentStore) -> DocumentStore {
    let mut out = DocumentStore::new();
    for (_, d) in store.iter() {
        out.add(d.clone());
    }
    out
}

fn bench_pipeline(c: &mut Criterion) {
    let (store, _) = build_corpus(&FixtureConfig::default());
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("build_steps_1_to_4_plus_indexation", |b| {
        b.iter_batched(
            || clone_store(&store),
            |store| {
                IntegrationPipeline::build(
                    Warehouse::new(integrated_schema()),
                    store,
                    PipelineOptions::default(),
                )
            },
            criterion::BatchSize::SmallInput,
        )
    });

    // QA indexation on its own (one pass: analyses + passage postings).
    let lexicon = dwqa_nlp::Lexicon::english();
    group.bench_function("qa_indexation_sequential", |b| {
        b.iter(|| dwqa_qa::QaIndex::build(&lexicon, &store, 8))
    });

    let pipeline = IntegrationPipeline::build(
        Warehouse::new(integrated_schema()),
        clone_store(&store),
        PipelineOptions::default(),
    );
    let read = pipeline.read_path();
    let question = monthly_question("El Prat", 2004, Month::January);
    group.bench_function("qa_question_latency", |b| {
        b.iter(|| read.answer(std::hint::black_box(&question)))
    });

    let ir = IrBaseline::build(&store);
    group.bench_function("ir_baseline_passage_latency", |b| {
        b.iter(|| ir.search_passages(std::hint::black_box(&question), 1))
    });

    let ie = IeBaseline::new(vec![IeTemplate::Temperature]);
    group.bench_function("ie_baseline_full_corpus_scan", |b| {
        b.iter(|| ie.scan(std::hint::black_box(&store)))
    });
    group.finish();
}

/// The acceptance benchmark for the batch engine: 64 per-day questions,
/// answered (a) sequentially on one worker, (b) on a 4-thread worker
/// pool (both with the cache disabled so every answer is computed), and
/// (c) on the pool with a warm answer cache.
fn bench_batch_engine(c: &mut Criterion) {
    let fx = build_fixture(FixtureConfig {
        styles: vec![dwqa_corpus::PageStyle::Prose],
        ..FixtureConfig::default()
    });
    let mut questions: Vec<String> = Vec::new();
    for city in ["Barcelona", "Madrid", "New York"] {
        questions.extend(daily_questions(city, 2004, Month::January));
    }
    questions.truncate(64);
    assert_eq!(questions.len(), 64);

    let mut group = c.benchmark_group("batch_64_questions");
    group.sample_size(10);

    let sequential = QaEngine::new(&fx.pipeline)
        .with_workers(1)
        .with_cache_capacity(0);
    group.bench_function("sequential_1_worker", |b| {
        b.iter(|| sequential.answer_batch(black_box(&questions)))
    });

    let pooled = QaEngine::new(&fx.pipeline)
        .with_workers(4)
        .with_cache_capacity(0);
    group.bench_function("pool_4_workers", |b| {
        b.iter(|| pooled.answer_batch(black_box(&questions)))
    });

    let cached = QaEngine::new(&fx.pipeline).with_workers(4);
    cached.warm(&questions);
    group.bench_function("pool_4_workers_warm_cache", |b| {
        b.iter(|| cached.answer_batch(black_box(&questions)))
    });

    // The observability tax (E13): the same pooled uncached batch with
    // a full span tree collected per question. Compare against
    // pool_4_workers — the gap is the enabled-tracing overhead and must
    // stay within a few percent.
    let traced = QaEngine::new(&fx.pipeline)
        .with_workers(4)
        .with_cache_capacity(0)
        .with_tracing(true)
        .with_trace_capacity(questions.len());
    group.bench_function("pool_4_workers_traced", |b| {
        b.iter(|| traced.answer_batch(black_box(&questions)))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_batch_engine);
criterion_main!(benches);
