//! Chaos experiment: fault-injected document acquisition vs answer
//! accuracy and warehouse load rate.
//!
//! Three sections:
//!
//! 1. A sweep over transient-fault rates ([`FaultPlan::chaos`]: transient
//!    errors plus truncated/garbled/duplicated bodies and latency spikes)
//!    with the default [`RetryPolicy`]. Accuracy (recall of the ground
//!    truth from warehouse contents) must stay within 5 points of the
//!    fault-free run at a 20% rate, with zero worker deaths.
//! 2. A transactional-feed demonstration: an injected mid-batch ETL fault
//!    rolls the warehouse back all-or-nothing; the retry commits cleanly.
//! 3. A total-outage run (100% permanent 404s): every question resolves
//!    to `SourceUnavailable` within its deadline — no hangs, no panics,
//!    no partial loads.
//!
//! Every engine runs with tracing enabled: each sweep prints its
//! batch's worst-latency span tree, the first degraded question's full
//! trace is rendered, and `--trace-out <file>` dumps the flight
//! recorders as JSON lines for offline inspection.
//!
//! Override the fault seed with `DWQA_CHAOS_SEED` (CI derives one from
//! the run number). Run with:
//! `cargo run --release -p dwqa-bench --bin exp_chaos [--trace-out FILE]`

use dwqa_baselines::ExtractionEval;
use dwqa_bench::{
    build_fixture, cached_rollup, daily_questions, expected_points, section, weather_by_city,
    FixtureConfig,
};
use dwqa_common::Month;
use dwqa_core::{FeedFault, IntegrationPipeline};
use dwqa_corpus::{GroundTruth, PageStyle};
use dwqa_engine::{AnswerOutcome, QaEngine, SubmitBatch};
use dwqa_faults::{
    CorpusSource, DocumentSource, FaultInjector, FaultPlan, ResilientSource, RetryPolicy,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn chaos_seed() -> u64 {
    match std::env::var("DWQA_CHAOS_SEED") {
        Ok(v) => v.parse().unwrap_or(0xC4A05),
        Err(_) => 0xC4A05,
    }
}

fn fixture() -> dwqa_bench::Fixture {
    build_fixture(FixtureConfig {
        styles: vec![PageStyle::Prose],
        distractors: 4,
        ..FixtureConfig::default()
    })
}

fn questions() -> Vec<String> {
    let cities = dwqa_corpus::default_cities();
    let mut distinct: Vec<&str> = Vec::new();
    for c in &cities {
        if !distinct.contains(&c.city) {
            distinct.push(c.city);
        }
    }
    let mut qs = Vec::new();
    for city in distinct {
        qs.extend(daily_questions(city, 2004, Month::January));
    }
    qs
}

fn resilient_source(pipeline: &IntegrationPipeline, plan: FaultPlan) -> Arc<dyn DocumentSource> {
    let store = pipeline.qa.store().expect("fixture indexes a corpus");
    Arc::new(ResilientSource::new(
        FaultInjector::new(CorpusSource::new(store), plan),
        RetryPolicy::default(),
    ))
}

/// Recall/precision of the warehouse's weather star against the truth.
fn evaluate(pipeline: &IntegrationPipeline, truth: &GroundTruth) -> (ExtractionEval, usize) {
    let rs = dwqa_warehouse::CubeQuery::on("City Weather")
        .group_by("City", "City")
        .group_by("Date", "Date")
        .aggregate("temperature_c", dwqa_warehouse::AggFn::Avg)
        .run(&pipeline.warehouse)
        .expect("weather star is queryable");
    let mut eval = ExtractionEval::default();
    let mut found = Vec::new();
    for row in &rs.rows {
        let city = row[0].as_text().expect("city is text").to_owned();
        let date = row[1].as_date().expect("date is a date");
        let got = row[2].as_f64().expect("temperature is numeric");
        match truth.temperature(&city, date) {
            Some(want) if (want - got).abs() < 0.51 => {
                eval.true_positives += 1;
                found.push((dwqa_common::text::fold(&city), date));
            }
            _ => eval.false_positives += 1,
        }
    }
    for (city, date) in expected_points(&dwqa_corpus::default_cities(), 2004, Month::January) {
        if !found.contains(&(dwqa_common::text::fold(&city), date)) {
            eval.false_negatives += 1;
        }
    }
    (eval, rs.rows.len())
}

fn outcome_histogram(outcomes: &[AnswerOutcome]) -> String {
    let count = |want: AnswerOutcome| outcomes.iter().filter(|o| **o == want).count();
    format!(
        "{}ok/{}dg/{}to/{}su/{}pa",
        count(AnswerOutcome::Ok),
        count(AnswerOutcome::Degraded),
        count(AnswerOutcome::TimedOut),
        count(AnswerOutcome::SourceUnavailable),
        count(AnswerOutcome::Panicked),
    )
}

fn main() {
    let seed = chaos_seed();
    println!("chaos seed: {seed}");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let mut trace_dump = String::new();

    section("Fault-rate sweep: chaos plan, default retry policy, 5s deadline");
    println!(" rate | outcomes (ok/dg/to/su/pa) | retries | trips | recall | precision | fed rows");
    println!("------+---------------------------+---------+-------+--------+-----------+---------");
    let qs = questions();
    let mut baseline_recall = None;
    let mut recall_at_20 = None;
    let mut worst_trace = None;
    let mut degraded_trace = None;
    for rate in [0.0f64, 0.1, 0.2, 0.5] {
        let mut fx = fixture();
        let source = resilient_source(&fx.pipeline, FaultPlan::chaos(seed, rate));
        let engine = QaEngine::new(&fx.pipeline)
            .with_workers(4)
            .with_source(source)
            .with_deadline(Duration::from_secs(5))
            .with_tracing(true)
            .with_trace_capacity(qs.len() + 1);
        let report = fx.pipeline.submit_batch_with(&engine, &qs);
        if report.worst_trace.is_some() {
            worst_trace = report.worst_trace.clone();
        }
        if degraded_trace.is_none() {
            degraded_trace = engine
                .flight_recorder()
                .recent()
                .into_iter()
                .find(|t| t.root_field("outcome").and_then(|v| v.as_str()) == Some("degraded"));
        }
        if trace_out.is_some() {
            trace_dump.push_str(&engine.flight_recorder().dump_jsonl());
        }
        let (eval, fed) = evaluate(&fx.pipeline, &fx.truth);
        assert_eq!(
            engine.stats().worker_deaths(),
            0,
            "the worker pool must survive every fault rate"
        );
        assert!(!report.rolled_back, "source faults never poison the feed");
        if rate == 0.0 {
            baseline_recall = Some(eval.recall());
        }
        if rate == 0.2 {
            recall_at_20 = Some(eval.recall());
        }
        println!(
            "{rate:>5.2} | {:>25} | {:>7} | {:>5} | {:>6.3} | {:>9.3} | {fed:>7}",
            outcome_histogram(&report.outcomes),
            engine.stats().source_retries(),
            engine.stats().breaker_trips(),
            eval.recall(),
            eval.precision(),
        );
    }
    let baseline = baseline_recall.expect("rate 0.0 ran") * 100.0;
    let at_20 = recall_at_20.expect("rate 0.2 ran") * 100.0;
    println!(
        "accuracy at 20% faults: {at_20:.1} vs fault-free {baseline:.1} \
         (delta {:.1} points, budget 5.0)",
        baseline - at_20
    );
    assert!(
        baseline - at_20 <= 5.0,
        "retry/backoff must hold accuracy within 5 points at a 20% fault rate"
    );

    section("Worst-latency trace of the sweep (from the flight recorder)");
    match &worst_trace {
        Some(trace) => print!("{}", trace.render_tree()),
        None => println!("(tracing produced no batch trace — unexpected)"),
    }
    assert!(worst_trace.is_some(), "traced batches report a worst trace");

    section("First degraded question, full span tree");
    match &degraded_trace {
        Some(trace) => {
            print!("{}", trace.render_tree());
            let retrieve = trace
                .find("retrieve")
                .expect("degraded trace spans retrieval");
            assert!(
                retrieve.field("docs_candidate").is_some()
                    && retrieve.field("docs_pruned").is_some(),
                "retrieval span carries candidate/pruned counts"
            );
            assert!(
                trace.root_field("feed").is_some(),
                "feed disposition is back-annotated onto the question trace"
            );
        }
        None => println!("(no degraded question this seed — rerun with another DWQA_CHAOS_SEED)"),
    }

    section("Transactional feedback: injected mid-batch ETL fault");
    let mut fx = fixture();
    let engine = QaEngine::new(&fx.pipeline).with_workers(4);
    let facts_before = fx
        .pipeline
        .warehouse
        .fact("City Weather")
        .expect("weather star exists")
        .len();
    let by_city = weather_by_city();
    let cached = fx.pipeline.rollup(&by_city).expect("roll-up runs");
    fx.pipeline
        .set_feed_fault(Some(FeedFault { seed, rate: 1.0 }));
    let report = fx.pipeline.submit_batch_with(&engine, &qs);
    println!(
        "faulted feed: rolled_back={} loaded={} error={:?}",
        report.rolled_back, report.feed.loaded, report.feed_error
    );
    assert!(report.rolled_back);
    assert_eq!(report.feed.loaded, 0, "all-or-nothing: no partial load");
    assert_eq!(
        fx.pipeline
            .warehouse
            .fact("City Weather")
            .expect("weather star exists")
            .len(),
        facts_before,
        "rollback restored the fact table"
    );
    let after_rollback = cached_rollup(&fx.pipeline, &by_city);
    assert_eq!(after_rollback, cached, "the rollback left it alone");
    fx.pipeline.set_feed_fault(None);
    let report = fx.pipeline.submit_batch_with(&engine, &qs);
    println!(
        "retried feed: rolled_back={} loaded={} rollbacks so far={}",
        report.rolled_back,
        report.feed.loaded,
        fx.pipeline.rollbacks()
    );
    assert!(!report.rolled_back && report.feed.loaded > 0);
    let after_commit = cached_rollup(&fx.pipeline, &by_city);
    assert_ne!(after_commit, cached, "the commit folded its rows in");

    section("Total outage: 100% permanent 404s");
    let mut fx = fixture();
    let deadline = Duration::from_secs(5);
    let source = resilient_source(&fx.pipeline, FaultPlan::new(seed).with_not_found(1.0));
    let engine = QaEngine::new(&fx.pipeline)
        .with_workers(4)
        .with_source(source)
        .with_deadline(deadline);
    let start = Instant::now();
    let report = fx.pipeline.submit_batch_with(&engine, &qs);
    let wall = start.elapsed();
    let unavailable = report
        .outcomes
        .iter()
        .filter(|o| **o == AnswerOutcome::SourceUnavailable)
        .count();
    println!(
        "{} questions -> {} source-unavailable in {wall:.2?} (deadline {deadline:?} each), \
         {} loaded, {} worker deaths",
        qs.len(),
        unavailable,
        report.feed.loaded,
        engine.stats().worker_deaths()
    );
    assert_eq!(unavailable, qs.len(), "every question degrades explicitly");
    assert!(report.answers.iter().all(|a| a.is_empty()));
    assert_eq!(report.feed.loaded, 0);
    assert_eq!(engine.stats().worker_deaths(), 0);
    assert!(
        wall < deadline * (qs.len() as u32),
        "no hangs: the outage resolves inside the deadline budget"
    );

    if let Some(path) = &trace_out {
        std::fs::write(path, &trace_dump).expect("write trace dump");
        println!(
            "\nwrote {} trace(s) as JSON lines to {path}",
            trace_dump.lines().count()
        );
    }

    section("Shape check");
    println!("Transient faults cost recall only at extreme rates: bounded retries with");
    println!("exponential backoff re-fetch clean copies, corruption is detected by");
    println!("re-validation (answers are dropped, never altered, so precision holds), and");
    println!("the circuit breaker plus per-question deadline turn a dead source into");
    println!("explicit source-unavailable outcomes instead of hangs. ETL faults roll the");
    println!("warehouse back atomically; the retried batch commits into the cached roll-ups.");
}
