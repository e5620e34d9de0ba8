//! Concurrency tests for the batch engine: batch submission must be
//! indistinguishable from a sequential answer-then-feed loop over the
//! read path — same answers, same warehouse — for any subset and order
//! of questions, and the answer cache must keep serving across feedback,
//! which mutates only the warehouse.

use dwqa_bench::{
    build_fixture, cached_rollup, daily_questions, monthly_question, weather_by_city, FixtureConfig,
};
use dwqa_common::{Date, Month};
use dwqa_core::{FeedFault, IntegrationPipeline};
use dwqa_corpus::PageStyle;
use dwqa_engine::{QaEngine, QaSession, SubmitBatch};
use dwqa_warehouse::{AggFn, CubeQuery};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::BTreeMap;

fn small_fixture() -> IntegrationPipeline {
    build_fixture(FixtureConfig {
        styles: vec![PageStyle::Prose],
        distractors: 4,
        ..FixtureConfig::default()
    })
    .pipeline
}

/// The pool of questions the properties draw from: per-day and monthly
/// questions over three cities, plus duplicates in different spellings
/// to exercise the cache key normalization.
fn question_pool() -> Vec<String> {
    let mut pool = Vec::new();
    for city in ["Barcelona", "Madrid", "New York"] {
        pool.extend(
            daily_questions(city, 2004, Month::January)
                .into_iter()
                .take(4),
        );
        pool.push(monthly_question(city, 2004, Month::January));
    }
    pool.push("what is the weather like in january of 2004 in barcelona".to_owned());
    pool
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// The warehouse's observable weather state: (city, date) → mean °C,
/// order-independent. City names are case-folded: the dedup key already
/// folds them, so "Barcelona" and "barcelona" are one point — but the
/// *display* member stored is whichever spelling fed first, which is the
/// one piece of state that legitimately depends on feed order.
fn weather_state(pipeline: &IntegrationPipeline) -> BTreeMap<(String, Date), i64> {
    let rs = CubeQuery::on("City Weather")
        .group_by("City", "City")
        .group_by("Date", "Date")
        .aggregate("temperature_c", AggFn::Avg)
        .run(&pipeline.warehouse)
        .unwrap();
    rs.rows
        .iter()
        .map(|row| {
            let city = dwqa_common::text::fold(row[0].as_text().unwrap());
            let date = row[1].as_date().unwrap();
            // Scaled-integer key so float representation can't differ.
            let c = (row[2].as_f64().unwrap() * 100.0).round() as i64;
            ((city, date), c)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `submit_batch(qs)` leaves the warehouse in the same state and
    /// returns the same answers as the sequential answer-then-feed loop
    /// over the read path, for any subset of the pool and any order.
    #[test]
    fn submit_batch_equals_sequential_answer_then_feed(
        subset in proptest::sample::subsequence(question_pool(), 1..=8),
        seed in 0u64..1_000_000,
    ) {
        let order = permutation(subset.len(), seed);
        let batch: Vec<String> = order.iter().map(|&i| subset[i].clone()).collect();

        // Concurrent path: 4 workers over the read path, serialized feed.
        let mut concurrent = small_fixture();
        let engine = QaEngine::new(&concurrent).with_workers(4);
        let report = concurrent.submit_batch_with(&engine, &batch);

        // Sequential reference path: one question at a time through the
        // read path, each answer set fed before the next question runs.
        let mut sequential = small_fixture();
        let read = sequential.read_path();
        let expected: Vec<Vec<dwqa_qa::Answer>> = batch
            .iter()
            .map(|q| {
                let answers = read.answer(q);
                sequential.apply_feedback(&answers);
                answers
            })
            .collect();

        prop_assert_eq!(&report.answers, &expected);
        prop_assert_eq!(weather_state(&concurrent), weather_state(&sequential));
        prop_assert_eq!(
            concurrent.warehouse.fact("City Weather").unwrap().len(),
            sequential.warehouse.fact("City Weather").unwrap().len()
        );
    }

    /// The warehouse state is permutation-invariant: feeding the same
    /// batch in two different orders converges to the same weather star.
    #[test]
    fn warehouse_state_is_permutation_invariant(
        seed in 0u64..1_000_000,
    ) {
        let pool = question_pool();
        let forward: Vec<String> = pool.clone();
        let shuffled: Vec<String> = permutation(pool.len(), seed)
            .into_iter()
            .map(|i| pool[i].clone())
            .collect();

        let mut a = small_fixture();
        a.submit_batch(&forward);
        let mut b = small_fixture();
        b.submit_batch(&shuffled);
        prop_assert_eq!(weather_state(&a), weather_state(&b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A rolled-back feed leaves the warehouse fact counts and a cached
    /// roll-up identical to the pre-feed snapshot, for any fault seed.
    #[test]
    fn rolled_back_feed_restores_the_snapshot(seed in 0u64..1_000_000) {
        let mut pipeline = small_fixture();
        let engine = QaEngine::new(&pipeline).with_workers(2);
        let questions = question_pool();

        pipeline.set_feed_fault(Some(FeedFault { seed, rate: 1.0 }));
        let snapshot_before = pipeline.warehouse.snapshot();
        let facts_before = pipeline
            .warehouse
            .fact("City Weather")
            .expect("schema has the weather star")
            .len();
        let by_city = weather_by_city();
        let cached = pipeline.rollup(&by_city).expect("roll-up runs");

        let report = pipeline.submit_batch_with(&engine, &questions);
        prop_assert!(report.rolled_back);
        prop_assert!(report.feed_error.is_some());
        prop_assert_eq!(report.feed.loaded, 0, "a rolled-back feed reports no loads");
        prop_assert_eq!(
            pipeline.warehouse.fact("City Weather").expect("weather star").len(),
            facts_before
        );
        prop_assert_eq!(&cached_rollup(&pipeline, &by_city), &cached, "rollback kept it");
        prop_assert_eq!(pipeline.warehouse.snapshot(), snapshot_before);
        prop_assert_eq!(engine.stats().rollbacks(), 1);

        // The same batch commits once the fault lifts: nothing was
        // corrupted by the failed attempt.
        pipeline.set_feed_fault(None);
        let report = pipeline.submit_batch_with(&engine, &questions);
        prop_assert!(!report.rolled_back);
        prop_assert!(report.feed.loaded > 0);
        prop_assert_ne!(&cached_rollup(&pipeline, &by_city), &cached, "commit folded in");
    }
}

/// A traced batch reports its worst-latency question trace: rooted at
/// `question`, spanning retrieval with its pruning counts, and carrying
/// the batch's feed disposition back-annotated onto the root.
#[test]
fn traced_batch_reports_its_worst_question_trace() {
    let mut pipeline = small_fixture();
    let questions = question_pool();
    let engine = QaEngine::new(&pipeline)
        .with_workers(4)
        .with_cache_capacity(0)
        .with_tracing(true)
        .with_trace_capacity(questions.len() + 1);
    let report = pipeline.submit_batch_with(&engine, &questions);
    assert!(!report.rolled_back);
    let trace = report
        .worst_trace
        .expect("traced batches report a worst trace");
    assert_eq!(trace.root().map(|r| r.name), Some("question"));
    let retrieve = trace.find("retrieve").expect("the trace spans retrieval");
    assert!(
        retrieve.field("docs_candidate").is_some() && retrieve.field("docs_pruned").is_some(),
        "retrieval span carries candidate/pruned counts"
    );
    assert_eq!(
        trace.root_field("feed").and_then(|v| v.as_str()),
        Some("committed"),
        "feed disposition is back-annotated onto the question trace"
    );
}

#[test]
fn batch_answers_are_input_ordered_and_worker_count_independent() {
    let pipeline = small_fixture();
    let questions = question_pool();
    let single = QaEngine::new(&pipeline)
        .with_workers(1)
        .with_cache_capacity(0);
    let pooled = QaEngine::new(&pipeline)
        .with_workers(4)
        .with_cache_capacity(0);
    let expected: Vec<_> = questions.iter().map(|q| single.answer(q)).collect();
    assert_eq!(single.answer_batch(&questions), expected);
    assert_eq!(pooled.answer_batch(&questions), expected);
}

#[test]
fn cache_serves_repeats_and_survives_feedback() {
    let mut pipeline = small_fixture();
    let engine = QaEngine::new(&pipeline);
    let q = monthly_question("Barcelona", 2004, Month::January);

    let first = engine.answer(&q);
    assert_eq!(engine.stats().cache_misses(), 1);
    assert_eq!(engine.stats().cache_hits(), 0);

    // Identical answers from the cache — including for a differently
    // spelled variant of the same question.
    assert_eq!(engine.answer(&q), first);
    assert_eq!(
        engine.answer("what is the WEATHER like in January of 2004 in Barcelona"),
        first
    );
    assert_eq!(engine.stats().cache_hits(), 2);

    // Feedback ETL writes into the warehouse, which no answer reads:
    // the entry keeps being served.
    assert!(pipeline.apply_feedback(&first).loaded > 0);
    assert_eq!(engine.answer(&q), first);
    assert_eq!(engine.stats().cache_misses(), 1, "the re-ask was a hit");
    assert_eq!(engine.stats().cache_hits(), 3);
}

#[test]
fn submitting_through_one_engine_reuses_the_cache_within_a_batch() {
    let mut pipeline = small_fixture();
    let engine = QaEngine::new(&pipeline).with_workers(2);
    let q = monthly_question("Madrid", 2004, Month::January);
    // The same question four times: one miss, three hits, one answer set.
    let batch = vec![q.clone(), q.clone(), q.clone(), q];
    let report = pipeline.submit_batch_with(&engine, &batch);
    // Two workers may race to a benign double-miss on the same key, but
    // never more, and every question is accounted for.
    let misses = engine.stats().cache_misses();
    assert!((1..=2).contains(&misses), "misses: {misses}");
    assert_eq!(engine.stats().cache_hits() + misses, 4);
    assert!(report.answers.windows(2).all(|w| w[0] == w[1]));
    // Feeding the duplicates loaded each (city, date) point exactly once;
    // the repeats only skipped duplicates.
    assert!(report.feed.loaded > 0);
    assert!(report.feed.duplicates_skipped >= report.feed.loaded);
    assert_eq!(
        pipeline.warehouse.fact("City Weather").unwrap().len(),
        report.feed.loaded
    );
}

#[test]
fn session_records_history_and_renders_stats() {
    let pipeline = small_fixture();
    let mut session = QaSession::new(&pipeline);
    let q1 = monthly_question("Barcelona", 2004, Month::January);
    let answers = session.ask(&q1);
    assert!(!answers.is_empty());
    let batch = daily_questions("Madrid", 2004, Month::January)[..3].to_vec();
    session.ask_batch(&batch);
    assert_eq!(session.history().len(), 4);
    assert_eq!(session.stats().questions(), 4);
    let rendered = session.stats().render();
    assert!(rendered.contains("analyze"));
    assert!(rendered.contains("hit rate"));
}
