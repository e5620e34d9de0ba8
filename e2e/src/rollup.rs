//! `rollup_mix`: BI reads beside feedback commits, in-process.
//!
//! Roll-ups have no wire verb, so this workload drives a durable
//! `IntegrationPipeline` directly (a finding in itself: the analyst's
//! half of the paper's loop cannot be reached through the service).
//! Each cycle commits one transaction of four pre-answered questions via
//! `feed_batch`, then makes seven timed reads: two standing roll-ups on
//! `City Weather` that the commit must fold, three on `Last Minute Sales`
//! that must survive the revision bump, the paper's headline
//! `sales_by_temperature_band(5.0)`, and one ad-hoc roll-up from a
//! family of 96 distinct queries that always misses the 64-entry result
//! cache and scans every sales row. The median read is the maintained
//! path, the p95 read is the cold scan or the drill-across.

use crate::feed::{score_fed_tuples, TXN_QUESTIONS, WINDOWS};
use crate::fixture::{
    attach_store, build_pipeline, generate_inputs, recover, reference_warehouse, repeat_setup,
    shuffled_pool, Inputs, Question, RunDir, RECOVERIES,
};
use crate::ladder::{self, cross_check};
use crate::report::{peak_rss_mb, print_host, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::spans::SpanLog;
use crate::stats::{median, shuffle, windowed, windowed_rate, Rng, Summary};
use crate::Args;
use dwqa_common::Date;
use dwqa_core::{sales_by_temperature_band_with, IntegrationPipeline};
use dwqa_engine::QaEngine;
use dwqa_obs::{names, MetricsRegistry};
use dwqa_qa::Answer;
use dwqa_warehouse::{AggFn, CubeQuery, Predicate, Value};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cycles are bounded by count, so that both sides of a comparison
/// commit the same transactions and read the same warehouse states: this
/// many per second of `--seconds` (about what the seed commit sustains on
/// the 2-core authoring host) ...
const CYCLES_PER_SECOND: f64 = 30.0;
/// ... and by time only as a guard, at this multiple of `--seconds`.
const TIME_CAP: f64 = 1.5;
/// Distinct ad-hoc queries, visited in a seeded rotation: more than the
/// result cache holds, so each has been evicted before its turn returns.
const ADHOC_FAMILY: usize = 96;
/// Every this many cycles the cycle's reads are compared with the
/// row-at-a-time reference executor.
const VERIFY_EVERY: usize = 50;
const BAND_WIDTH_C: f64 = 5.0;
/// Transactions per write-ladder rung.
const RUNG_TXNS: usize = 150;

/// The roll-ups a dashboard keeps open: two the commits must fold, three
/// they must leave alone. Four of the five return a handful of rows and
/// cost microseconds once maintained; with them, more than half of a
/// cycle's seven reads are on the maintained path, so the pooled median
/// sits inside that group and not on the edge between two.
fn standing_queries() -> Vec<CubeQuery> {
    vec![
        CubeQuery::on("City Weather")
            .group_by("City", "City")
            .group_by("Date", "Month")
            .aggregate("temperature_c", AggFn::Avg),
        CubeQuery::on("City Weather")
            .group_by("City", "Country")
            .aggregate("temperature_c", AggFn::Count),
        CubeQuery::on("Last Minute Sales")
            .group_by("Destination", "Country")
            .aggregate("price", AggFn::Sum),
        CubeQuery::on("Last Minute Sales")
            .aggregate("price", AggFn::Sum)
            .aggregate("miles", AggFn::Avg),
        CubeQuery::on("Last Minute Sales")
            .group_by("Destination", "City")
            .aggregate("price", AggFn::Count),
    ]
}

/// The ad-hoc family: revenue by destination city over a seeded date
/// window. Every window is distinct, so every query has its own cache
/// key, and no filter is selective enough to spare the scan.
fn adhoc_family(rng: &mut Rng) -> Vec<CubeQuery> {
    let first = Date::from_ymd(crate::fixture::FIRST_YEAR, 1, 1)
        .unwrap_or_else(|| panic!("fixture start date"));
    let mut queries: Vec<CubeQuery> = (0..ADHOC_FAMILY)
        .map(|i| {
            let from = first.add_days(i as i64 * 7);
            let to = from.add_days(180 + rng.below(360) as i64);
            CubeQuery::on("Last Minute Sales")
                .filter(
                    "Date",
                    "Date",
                    Predicate::Between(Value::Date(from), Value::Date(to)),
                )
                .group_by("Destination", "City")
                .aggregate("price", AggFn::Sum)
                .aggregate("price", AggFn::Count)
        })
        .collect();
    shuffle(&mut queries, rng);
    queries
}

struct Node {
    inputs: Inputs,
    pipeline: IntegrationPipeline,
    store_dir: PathBuf,
    /// generate, initial load, pipeline build, attach.
    stage_s: [f64; 4],
}

fn start(args: &Args, run_dir: &RunDir) -> Node {
    let inputs = generate_inputs(args.seed);
    let mut built = build_pipeline(&inputs);
    let store_dir = run_dir.sub("primary");
    let attach_s = attach_store(&mut built.pipeline, &store_dir);
    Node {
        stage_s: [
            inputs.generate_s,
            built.initial_load_s,
            built.pipeline_build_s,
            attach_s,
        ],
        inputs,
        pipeline: built.pipeline,
        store_dir,
    }
}

/// Answers `questions` four at a time through the product's engine, the
/// way a `feedback` request would: the transactions the cycles commit.
fn pre_answer(pipeline: &IntegrationPipeline, questions: &[Question]) -> Vec<Vec<Vec<Answer>>> {
    let engine = QaEngine::new(pipeline).with_workers(2);
    questions
        .chunks(TXN_QUESTIONS)
        .map(|chunk| {
            let texts: Vec<String> = chunk.iter().map(|q| q.text.clone()).collect();
            engine
                .answer_batch_checked(&texts)
                .into_iter()
                .map(|r| r.answers)
                .collect()
        })
        .collect()
}

/// What a run of cycles observed.
#[derive(Default)]
struct Cycles {
    commit_ns: Vec<u64>,
    /// When each cycle ended, on a clock that starts with the run of
    /// cycles and runs at the reference host's speed.
    done_ns: Vec<u64>,
    /// All seven reads of every cycle, pooled.
    read_ns: Vec<u64>,
    adhoc_ns: Vec<u64>,
    standing_ns: Vec<u64>,
    bands_ns: Vec<u64>,
    loaded: u64,
    duplicates: u64,
    failed: u64,
    committed: usize,
    mismatches: Vec<String>,
    elapsed_s: f64,
}

struct Driver<'a> {
    standing: Vec<CubeQuery>,
    adhoc: Vec<CubeQuery>,
    transactions: &'a [Vec<Vec<Answer>>],
    /// Transactions committed so far, across slices.
    cursor: usize,
}

impl<'a> Driver<'a> {
    /// The next `n` transactions, for a ladder rung.
    fn take(&mut self, n: usize) -> &'a [Vec<Vec<Answer>>] {
        let from = self.cursor.min(self.transactions.len());
        let to = (from + n).min(self.transactions.len());
        self.cursor = to;
        &self.transactions[from..to]
    }

    /// Compares one cycle's reads with the reference executor.
    fn verify(&self, pipeline: &IntegrationPipeline, adhoc: &CubeQuery, out: &mut Cycles) {
        for query in self.standing.iter().chain(std::iter::once(adhoc)) {
            let got = pipeline.rollup(query).map(|r| r.to_csv());
            let want = query
                .execute_reference(&pipeline.warehouse)
                .map(|r| r.to_csv());
            if got.as_ref().ok() != want.as_ref().ok() || got.is_err() {
                out.mismatches.push(format!(
                    "cycle {}: roll-up differs from execute_reference: {query:?}",
                    self.cursor
                ));
            }
        }
        let got = pipeline.sales_by_temperature_band(BAND_WIDTH_C);
        let want = sales_by_temperature_band_with(
            |q| q.execute_reference(&pipeline.warehouse),
            BAND_WIDTH_C,
        );
        if got.as_ref().ok() != want.as_ref().ok() || got.is_err() {
            out.mismatches.push(format!(
                "cycle {}: temperature bands differ from the reference",
                self.cursor
            ));
        }
    }

    /// Runs up to `max_cycles` cycles, stopping early when `duration`
    /// elapses or the transactions run out.
    fn run(
        &mut self,
        pipeline: &mut IntegrationPipeline,
        duration: Duration,
        max_cycles: usize,
        spans: &mut SpanLog,
    ) -> Cycles {
        let mut out = Cycles::default();
        crate::hostspeed::burst();
        let start = Instant::now();
        let (mut last_done, mut clock_ns) = (start, 0u64);
        while start.elapsed() < duration && out.done_ns.len() < max_cycles {
            let Some(batches) = self.transactions.get(self.cursor) else {
                break;
            };
            let op = self.cursor as u64 + 1;
            let slices: Vec<&[Answer]> = batches.iter().map(Vec::as_slice).collect();
            let (result, ns) =
                spans.time("core.feed_batch", op, None, || pipeline.feed_batch(&slices));
            self.cursor += 1;
            match result {
                Ok(report) => {
                    out.commit_ns.push(ns);
                    out.loaded += report.loaded as u64;
                    out.duplicates += report.duplicates_skipped as u64;
                    out.committed += 1;
                }
                Err(_) => out.failed += 1,
            }
            for query in &self.standing {
                let (result, ns) =
                    spans.time("core.rollup.standing", op, None, || pipeline.rollup(query));
                out.failed += u64::from(result.is_err());
                out.read_ns.push(ns);
                out.standing_ns.push(ns);
            }
            let (result, ns) = spans.time("core.bands", op, None, || {
                pipeline.sales_by_temperature_band(BAND_WIDTH_C)
            });
            out.failed += u64::from(result.is_err());
            out.read_ns.push(ns);
            out.bands_ns.push(ns);
            let adhoc = &self.adhoc[self.cursor % self.adhoc.len()];
            let (result, ns) = spans.time("warehouse.rollup.adhoc", op, None, || {
                pipeline.rollup(adhoc)
            });
            out.failed += u64::from(result.is_err());
            out.read_ns.push(ns);
            out.adhoc_ns.push(ns);
            clock_ns += crate::hostspeed::scale(last_done.elapsed().as_nanos() as u64);
            out.done_ns.push(clock_ns);
            // `is_multiple_of` is newer than the workspace's rust-version.
            #[allow(clippy::manual_is_multiple_of)]
            if self.cursor % VERIFY_EVERY == 0 {
                self.verify(pipeline, adhoc, &mut out);
            }
            // The cycles run on this one thread, so its core's speed is
            // sampled here, between cycles. Neither the sample nor the
            // check above is the system's work: the clock skips them.
            crate::hostspeed::sample();
            last_done = Instant::now();
        }
        out.elapsed_s = start.elapsed().as_secs_f64();
        out
    }
}

pub fn run(args: &Args) -> Outcome {
    let run_dir = RunDir::create();
    let (node, setup_s) = repeat_setup(args.setup_repeats(), || start(args, &run_dir), drop);
    print_host("rollup_mix", args, node.inputs.sizes());
    // The cycles run on a thread of their own, as a feed runs on one of
    // the server's workers and never on the thread that built the
    // warehouse (see `ladder::on_worker`).
    ladder::on_worker(|| cycles_on_worker(args, node, &run_dir, setup_s))
}

fn cycles_on_worker(args: &Args, node: Node, run_dir: &RunDir, setup_s: f64) -> Outcome {
    let rng = Rng::new(args.seed);
    // Input preparation, not set-up of the system: the answers the cycles
    // will commit. The traced run also needs transactions for its rungs.
    let cycles = (args.seconds * CYCLES_PER_SECOND) as usize
        + if args.traced {
            3 * args.scaled(RUNG_TXNS)
        } else {
            0
        };
    let mut to_answer = shuffled_pool(&node.inputs, args.seed);
    to_answer.truncate(cycles * TXN_QUESTIONS);
    let t = Instant::now();
    let transactions = pre_answer(&node.pipeline, &to_answer);
    println!(
        "prepared {} transactions of {TXN_QUESTIONS} answered questions in {:.2} s (not part of setup_s)",
        transactions.len(),
        t.elapsed().as_secs_f64()
    );
    let driver = Driver {
        standing: standing_queries(),
        adhoc: adhoc_family(&mut rng.fork(0xAD0C)),
        transactions: &transactions,
        cursor: 0,
    };
    // Store and warehouse count into the registry the thread observes
    // under, as they do under the engine in production.
    let registry = Arc::new(MetricsRegistry::new());
    let _observing = dwqa_obs::observe(Some(Arc::clone(&registry)), None, "e2e", "rollup_mix");
    if args.traced {
        traced(args, node, driver, &registry, run_dir)
    } else {
        untraced(args, node, driver, &registry, setup_s)
    }
}

fn print_cycles(label: &str, cycles: &Cycles) {
    println!(
        "{label}: {} cycles in {:.2} s; commit {}",
        cycles.committed,
        cycles.elapsed_s,
        Summary::of(&cycles.commit_ns).render_ms()
    );
    println!(
        "  reads (all seven pooled): {}",
        Summary::of(&cycles.read_ns).render_ms()
    );
    println!(
        "  standing p50 {:.1} us | bands p50 {:.1} us | ad-hoc p50 {:.1} us",
        Summary::of(&cycles.standing_ns).p50_us(),
        Summary::of(&cycles.bands_ns).p50_us(),
        Summary::of(&cycles.adhoc_ns).p50_us()
    );
    println!(
        "  {} tuples loaded, {} duplicates skipped",
        cycles.loaded, cycles.duplicates
    );
}

/// Recovers the store, compares it with the live warehouse and with the
/// committed transactions replayed on a reference; returns the
/// violations, the recovery times and the fed-tuple score.
fn durability(
    node: &Node,
    committed: &[Vec<Vec<Answer>>],
    repeats: usize,
) -> (Vec<String>, Vec<f64>, (u64, u64)) {
    let mut violations = Vec::new();
    let (recovered, recovery_ms) = recover(&node.store_dir, repeats);
    let live = node.pipeline.warehouse.snapshot();
    if recovered.warehouse.snapshot() != live {
        violations.push("the recovered warehouse differs from the live one".to_owned());
    }
    if reference_warehouse(&node.inputs, committed).snapshot() != live {
        violations.push("the live warehouse differs from the committed transactions".to_owned());
    }
    let score = score_fed_tuples(&recovered.warehouse, &node.inputs.truth);
    (violations, recovery_ms, score)
}

fn untraced(
    args: &Args,
    mut node: Node,
    mut driver: Driver<'_>,
    registry: &MetricsRegistry,
    setup_s: f64,
) -> Outcome {
    let mut spans = SpanLog::new(false);
    let cycles = driver.run(
        &mut node.pipeline,
        Duration::from_secs_f64(args.seconds * TIME_CAP),
        (args.seconds * CYCLES_PER_SECOND) as usize,
        &mut spans,
    );
    print_cycles("cycles", &cycles);
    let (commit_p50, commit_p95) = windowed(&cycles.commit_ns, WINDOWS);
    let (read_p50, read_p95) = windowed(&cycles.read_ns, WINDOWS);
    let cycles_per_s = windowed_rate(&cycles.done_ns, WINDOWS);
    println!(
        "  median of {WINDOWS} windows: commit p50 {:.3} ms p95 {:.3} ms | read p50 {:.3} ms p95 {:.3} ms | {cycles_per_s:.2} cycles/s",
        commit_p50 / 1e6,
        commit_p95 / 1e6,
        read_p50 / 1e6,
        read_p95 / 1e6
    );
    let wal_bytes = registry.counter_value(names::STORE_WAL_BYTES);
    println!(
        "wal: {wal_bytes} bytes = {:.1} B/tuple; result cache {} hits {} misses",
        wal_bytes as f64 / cycles.loaded.max(1) as f64,
        node.pipeline.rollup_cache().hits(),
        node.pipeline.rollup_cache().misses()
    );
    let mut violations = cycles.mismatches.clone();
    let committed = &driver.transactions[..driver.cursor];
    let (more, recovery_ms, (right, scored)) =
        durability(&node, committed, args.scaled(RECOVERIES));
    violations.extend(more);
    if scored != cycles.loaded {
        violations.push(format!(
            "{} tuples reported loaded but {scored} in the recovered warehouse",
            cycles.loaded
        ));
    }
    println!(
        "fed tuples: {right} of {scored} within {} C of the ground truth",
        crate::fixture::TOLERANCE_C
    );
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", setup_s);
    metrics.set("read_p50_ms", read_p50 / 1e6);
    metrics.set("read_p95_ms", read_p95 / 1e6);
    metrics.set("closed_p50_ms", commit_p50 / 1e6);
    metrics.set("closed_ops_s", cycles_per_s);
    metrics.set("answer_accuracy", right as f64 / scored.max(1) as f64);
    metrics.set("recovery_ms", median(&recovery_ms));
    metrics.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        metrics,
        attempted: (cycles.committed as u64 + cycles.failed) + cycles.read_ns.len() as u64,
        failed: cycles.failed,
        violations,
    }
}

fn traced(
    args: &Args,
    mut node: Node,
    mut driver: Driver<'_>,
    registry: &MetricsRegistry,
    run_dir: &RunDir,
) -> Outcome {
    let mut off = SpanLog::new(false);
    let mut spans = SpanLog::new(true);
    let mut metrics = Metrics::new(PER_LAYER);
    let slice = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let rung_txns = args.scaled(RUNG_TXNS);

    let plain = driver.run(&mut node.pipeline, slice(0.15), usize::MAX, &mut off);
    let window = ladder::CounterWindow::open(
        registry,
        &[
            names::STORE_WAL_APPENDS,
            names::STORE_WAL_BYTES,
            names::STORE_WAL_FSYNCS,
            names::STORE_CHECKPOINTS,
            names::WAREHOUSE_ROWS_SCANNED,
            names::WAREHOUSE_PLANS_COMPILED,
            names::WAREHOUSE_PLANS_REUSED,
            names::WAREHOUSE_ROLLUP_HITS,
            names::WAREHOUSE_ROLLUP_MISSES,
            names::WAREHOUSE_DELTA_DEMOTED,
        ],
    );
    let cycles = driver.run(&mut node.pipeline, slice(0.25), usize::MAX, &mut spans);
    print_cycles("loaded slice (traced)", &cycles);
    let appends = window.delta(names::STORE_WAL_APPENDS).max(1.0);
    let wal_bytes = window.delta(names::STORE_WAL_BYTES);
    // Eight roll-ups per cycle reach the result cache: five standing, the
    // ad-hoc one, the two under the band analysis — and the verifier's.
    let lookups =
        window.delta(names::WAREHOUSE_ROLLUP_HITS) + window.delta(names::WAREHOUSE_ROLLUP_MISSES);
    let plans =
        window.delta(names::WAREHOUSE_PLANS_COMPILED) + window.delta(names::WAREHOUSE_PLANS_REUSED);
    metrics.set(
        "store.fsyncs_per_txn",
        window.delta(names::STORE_WAL_FSYNCS) / appends,
    );
    metrics.set("store.wal_bytes_per_txn", wal_bytes / appends);
    metrics.set(
        "store.wal_bytes_per_tuple",
        wal_bytes / cycles.loaded.max(1) as f64,
    );
    metrics.set("store.checkpoints", window.delta(names::STORE_CHECKPOINTS));
    metrics.set(
        "warehouse.rows_scanned_per_read",
        window.delta(names::WAREHOUSE_ROWS_SCANNED) / lookups.max(1.0),
    );
    metrics.set(
        "warehouse.plan.reuse_ratio",
        window.delta(names::WAREHOUSE_PLANS_REUSED) / plans.max(1.0),
    );
    metrics.set(
        "core.rollup.hit_ratio",
        window.delta(names::WAREHOUSE_ROLLUP_HITS) / lookups.max(1.0),
    );
    metrics.set(
        "warehouse.delta.demoted",
        window.delta(names::WAREHOUSE_DELTA_DEMOTED),
    );
    metrics.set("core.dedup_skipped", cycles.duplicates as f64);
    metrics.set("warehouse.scan_us", Summary::of(&cycles.adhoc_ns).p50_us());

    // Durability of everything committed so far, before the rungs detach
    // the store.
    let mut violations = plain.mismatches.clone();
    violations.extend(cycles.mismatches.iter().cloned());

    // Write ladder. Rung A: durable, roll-ups live (the workload's own
    // commit). Rung B: durable, result cache emptied, so nothing is
    // folded. Rung C: store detached as well.
    let txns_a = driver.take(rung_txns);
    let rung_a = ladder::feed_rung(
        &mut node.pipeline,
        txns_a,
        "core.feed_batch.live_rollups",
        &mut spans,
    );
    node.pipeline.rollup_cache().clear();
    let txns_b = driver.take(rung_txns);
    let rung_b = ladder::feed_rung(
        &mut node.pipeline,
        txns_b,
        "core.feed_batch.durable",
        &mut spans,
    );
    let committed = &driver.transactions[..driver.cursor];
    let (more, recovery_ms, _) = durability(&node, committed, 3);
    violations.extend(more);
    drop(node.pipeline.detach_store());
    let txns_c = driver.take(rung_txns);
    let rung_c = ladder::feed_rung(
        &mut node.pipeline,
        txns_c,
        "core.feed_batch.volatile",
        &mut spans,
    );
    let store = ladder::store_rung(&run_dir.sub("scratch-store"), &node.pipeline, txns_b);
    let (a, b, c) = (
        ladder::p50_us(&rung_a),
        ladder::p50_us(&rung_b),
        ladder::p50_us(&rung_c),
    );
    let snapshot_us = ladder::snapshot_us(&node.pipeline.warehouse);
    let load_sample: Vec<&Question> = node.inputs.pool.iter().rev().take(4 * rung_txns).collect();
    let load_us = ladder::load_us_per_row(&node.pipeline.warehouse, &load_sample, TXN_QUESTIONS);
    let rows_per_txn = cycles.loaded as f64 / cycles.committed.max(1) as f64;

    metrics.set("core.feed_txn_us", c);
    metrics.set("core.txn_snapshot_us", snapshot_us);
    metrics.set("core.rollup.fold_us", a - b);
    metrics.set("warehouse.load_us_per_row", load_us);
    metrics.set("store.append_p50_us", store.append_p50_us);
    metrics.set("store.append_p95_us", store.append_p95_us);
    metrics.set("store.checkpoint_us", store.checkpoint_us);
    metrics.set("store.recovery_us", median(&recovery_ms) * 1e3);
    metrics.set("corpus.generate_s", node.stage_s[0]);
    metrics.set("warehouse.initial_load_s", node.stage_s[1]);
    let merge_s = crate::fixture::ontology_merge_s(&node.pipeline.warehouse);
    metrics.set("ontology.merge_s", merge_s);
    metrics.set("qa.index_build_s", (node.stage_s[2] - merge_s).max(0.0));
    metrics.set("store.attach_s", node.stage_s[3]);
    metrics.set("ladder.write.volatile_us", c);
    metrics.set("ladder.write.durable_us", b);

    let client_us = Summary::of(&cycles.commit_ns).p50_us();
    let attributed = snapshot_us + load_us * rows_per_txn + (a - b) + store.append_p50_us;
    metrics.set("ledger.client_p50_us", client_us);
    metrics.set("ledger.attributed_us", attributed);
    metrics.set("ledger.unattributed_us", client_us - attributed);
    metrics.set(
        "ledger.trace_overhead_us",
        client_us - Summary::of(&plain.commit_ns).p50_us(),
    );

    println!(
        "write ladder (p50 us over {} txns): feed_batch volatile {c:.1} -> durable {b:.1} -> durable with live roll-ups {a:.1}",
        rung_c.len()
    );
    println!(
        "reconciliation: commit p50 {client_us:.1} us = Warehouse::snapshot {snapshot_us:.1} + load {:.1} ({rows_per_txn:.1} rows x {load_us:.2}) + roll-up fold {:.1} + wal append {:.1} + unattributed {:.1} us{}",
        load_us * rows_per_txn,
        a - b,
        store.append_p50_us,
        client_us - attributed,
        ladder::unattributed_note(client_us - attributed, client_us)
    );
    println!(
        "tracing overhead: commit p50 {client_us:.1} us traced vs {:.1} us untraced",
        Summary::of(&plain.commit_ns).p50_us()
    );
    cross_check(
        "store.append_p50_us",
        store.append_p50_us,
        registry,
        names::STORE_WAL_APPEND_TIME,
    );
    println!(
        "checkpoint: serialise the warehouse {:.0} us (core), write it {:.0} us (store)",
        store.checkpoint_encode_us, store.checkpoint_us
    );
    cross_check(
        "store.checkpoint_us",
        store.checkpoint_us,
        registry,
        names::STORE_CHECKPOINT_TIME,
    );

    spans.write_if_asked(args.trace_out.as_deref());
    let committed =
        (plain.committed + cycles.committed + rung_a.len() + rung_b.len() + rung_c.len()) as u64;
    let failed = plain.failed + cycles.failed;
    Outcome {
        metrics,
        attempted: committed + failed + (plain.read_ns.len() + cycles.read_ns.len()) as u64,
        failed,
        violations,
    }
}
