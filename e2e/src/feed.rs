//! `feed_sync`: the paper's Step 5 as a service.
//!
//! A durable primary (fsync on every append, a checkpoint every 256 WAL
//! records) with one warm standby in `Sync { quorum: 1 }`. The writer is
//! one closed-loop connection — the ETL job waits for each ack — sending
//! `feedback` transactions of four questions from a seeded shuffle of
//! the pool. Beside it a reader asks 200 questions a second from the
//! `ask_hot` working set, which shows what commits (revision bump →
//! answer-cache purge) cost reads. Most of the work is in the `core`
//! feed transaction, the `store` fsync and the `server::repl` quorum
//! wait.

use crate::ask::HOT_SET;
use crate::fixture::{
    attach_store, build_pipeline, generate_inputs, recover, reference_warehouse, repeat_setup,
    shuffled_pool, Inputs, Question, RunDir, RECOVERIES,
};
use crate::hostspeed;
use crate::ladder::{self, cross_check};
use crate::load::{open_loop, server_config, Arrivals, InFlight, Mix, OpenLoop, Tally, Wait};
use crate::report::{peak_rss_mb, print_host, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::spans::SpanLog;
use crate::stats::{median, windowed, windowed_rate, Rng, Summary, Zipf};
use crate::Args;
use dwqa_core::IntegrationPipeline;
use dwqa_corpus::GroundTruth;
use dwqa_engine::QaEngine;
use dwqa_obs::{names, MetricsRegistry};
use dwqa_qa::Answer;
use dwqa_server::{
    QaClient, QaServer, ReplicationConfig, ReplicationMode, Request, Response, Status,
};
use dwqa_warehouse::{AggFn, CubeQuery, Value, Warehouse};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Questions per `feedback` transaction.
pub const TXN_QUESTIONS: usize = 4;
/// The reader's arrival rate.
const READER_RATE: f64 = 200.0;
/// Transactions per write-ladder rung.
const RUNG_TXNS: usize = 150;
/// The writer's work is bounded by count, so that both sides of a
/// comparison commit the same transactions into the same warehouse
/// states: this many per second of `--seconds` (about what the seed
/// commit sustains on the 2-core authoring host) ...
const TXNS_PER_SECOND: f64 = 35.0;
/// ... and by time only as a guard, at this multiple of `--seconds`.
const TIME_CAP: f64 = 1.5;
/// Parts a run's time-ordered samples are cut into (`stats::windowed`).
pub const WINDOWS: usize = 10;

fn repl_config() -> ReplicationConfig {
    ReplicationConfig::builder()
        .mode(ReplicationMode::Sync { quorum: 1 })
        .build()
        .unwrap_or_else(|e| panic!("replication config: {e}"))
}

struct Cluster {
    inputs: Inputs,
    primary: QaServer,
    standby: QaServer,
    primary_dir: PathBuf,
    /// generate, initial load, pipeline build, attach, subscribe.
    stage_s: [f64; 5],
}

/// Polls the primary's `replicas` report until the standby is connected
/// and has applied everything shipped so far.
fn await_caught_up(client: &mut QaClient) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let report = client
            .replicas()
            .unwrap_or_else(|e| panic!("replicas: {e}"))
            .replicas
            .unwrap_or_else(|| panic!("no replicas report"));
        if report.peers.iter().any(|p| p.connected && p.lag == 0) {
            return;
        }
        assert!(Instant::now() < deadline, "standby never caught up");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn start(args: &Args, run_dir: &RunDir) -> Cluster {
    let inputs = generate_inputs(args.seed);
    let mut primary = build_pipeline(&inputs);
    let primary_dir = run_dir.sub("primary");
    let attach_s = attach_store(&mut primary.pipeline, &primary_dir);
    let standby_built = build_pipeline(&inputs);
    let primary_server = QaServer::start_primary(
        primary.pipeline,
        server_config(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        repl_config(),
    )
    .unwrap_or_else(|e| panic!("start primary: {e}"));
    let repl_addr = primary_server
        .replication_addr()
        .unwrap_or_else(|| panic!("primary has no replication address"));
    let t = Instant::now();
    let standby_server = QaServer::start_standby(
        standby_built.pipeline,
        server_config(),
        "127.0.0.1:0",
        &repl_addr.to_string(),
        repl_config(),
    )
    .unwrap_or_else(|e| panic!("start standby: {e}"));
    let mut client = QaClient::connect(primary_server.local_addr())
        .unwrap_or_else(|e| panic!("connect primary: {e}"));
    await_caught_up(&mut client);
    let subscribe_s = t.elapsed().as_secs_f64();
    Cluster {
        stage_s: [
            inputs.generate_s,
            primary.initial_load_s,
            primary.pipeline_build_s,
            attach_s,
            subscribe_s,
        ],
        inputs,
        primary: primary_server,
        standby: standby_server,
        primary_dir,
    }
}

fn stop(cluster: Cluster) {
    drop(cluster.primary.join());
    drop(cluster.standby.join());
}

/// What the writer observed.
#[derive(Default)]
struct Writer {
    /// `feedback` sent → `ok` read, per acknowledged transaction.
    latencies_ns: Vec<u64>,
    /// When each was acknowledged, on a clock that starts with the
    /// writer and runs at the reference host's speed.
    done_ns: Vec<u64>,
    /// The answers of every acknowledged transaction, in commit order.
    acked: Vec<Vec<Vec<Answer>>>,
    tally: Tally,
    loaded: u64,
    duplicates: u64,
    max_lag_frames: u64,
    elapsed_s: f64,
}

/// When a writer stops: after `txns` acknowledged transactions or when
/// `time` has elapsed, whichever comes first.
#[derive(Clone, Copy)]
struct Bound {
    time: Duration,
    txns: usize,
}

impl Bound {
    /// A ladder rung: a fixed count, with a generous time guard.
    fn rung(txns: usize) -> Bound {
        Bound {
            time: Duration::from_secs(60),
            txns,
        }
    }

    /// A slice of the traced run: a fixed time.
    fn time(time: Duration) -> Bound {
        Bound {
            time,
            txns: usize::MAX,
        }
    }
}

/// Sends `feedback` transactions one at a time until `bound` is reached
/// or the questions run out. A `busy` is counted as a failed attempt,
/// waited out per its hint, and retried.
fn write_loop(
    addr: SocketAddr,
    registry: &MetricsRegistry,
    questions: &mut std::slice::Chunks<'_, Question>,
    bound: Bound,
    span_name: &'static str,
    spans: &mut SpanLog,
) -> Writer {
    let mut client = QaClient::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    let mut out = Writer::default();
    let start = Instant::now();
    let (mut last_ack, mut clock_ns) = (start, 0u64);
    'txns: while start.elapsed() < bound.time && out.acked.len() < bound.txns {
        let Some(chunk) = questions.next() else {
            break;
        };
        let texts: Vec<String> = chunk.iter().map(|q| q.text.clone()).collect();
        loop {
            out.tally.attempted += 1;
            let sent = Instant::now();
            let response = match client.feedback(&texts) {
                Ok(response) => response,
                Err(_) => {
                    out.tally.io += 1;
                    break 'txns;
                }
            };
            let got = Instant::now();
            match response.status {
                Status::Ok
                    if response.detail.as_deref() == Some("feed transaction rolled back") =>
                {
                    out.tally.errors += 1;
                    break;
                }
                Status::Ok => {
                    out.latencies_ns
                        .push(hostspeed::scale((got - sent).as_nanos() as u64));
                    clock_ns += hostspeed::scale((got - last_ack).as_nanos() as u64);
                    last_ack = got;
                    out.done_ns.push(clock_ns);
                    spans.record(span_name, out.acked.len() as u64 + 1, None, sent, got);
                    out.loaded += response.loaded.unwrap_or(0);
                    out.duplicates += response.duplicates.unwrap_or(0);
                    out.acked.push(response.answers.unwrap_or_default());
                    break;
                }
                Status::Busy => {
                    out.tally.busy += 1;
                    let hint = response.retry_after_ms.unwrap_or(20).min(250);
                    std::thread::sleep(Duration::from_millis(hint));
                }
                Status::Error => {
                    out.tally.errors += 1;
                    break;
                }
            }
        }
        out.max_lag_frames = out
            .max_lag_frames
            .max(registry.gauge_value(names::REPL_LAG));
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Writer and reader side by side; the reader stops when the writer does.
fn loaded_slice(
    cluster_addr: SocketAddr,
    registry: &MetricsRegistry,
    questions: &mut std::slice::Chunks<'_, Question>,
    hot: Mix<'_>,
    bound: Bound,
    rng: &Rng,
    spans: &mut SpanLog,
) -> (Writer, OpenLoop) {
    let writer_done = AtomicBool::new(false);
    let mut reader_spans = SpanLog::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            open_loop(
                cluster_addr,
                Arrivals {
                    rate: READER_RATE,
                    in_flight: InFlight::One,
                    wait: Wait::Sleep,
                },
                |_| writer_done.load(Ordering::SeqCst),
                hot,
                &mut rng.fork(0x4EAD),
                &mut reader_spans,
            )
        });
        let writer = write_loop(
            cluster_addr,
            registry,
            questions,
            bound,
            "client.feedback",
            spans,
        );
        writer_done.store(true, Ordering::SeqCst);
        let reader = reader
            .join()
            .unwrap_or_else(|_| panic!("reader thread panicked"));
        (writer, reader)
    })
}

/// Scores every `(city, date)` tuple in the `City Weather` fact against
/// the ground truth: `(right, scored)`.
pub fn score_fed_tuples(warehouse: &Warehouse, truth: &GroundTruth) -> (u64, u64) {
    let per_point = CubeQuery::on("City Weather")
        .group_by("City", "City")
        .group_by("Date", "Date")
        .aggregate("temperature_c", AggFn::Avg)
        .run(warehouse)
        .unwrap_or_else(|e| panic!("fed-tuple query: {e}"));
    let (mut right, mut scored) = (0, 0);
    for row in &per_point.rows {
        let (Value::Text(city), Value::Date(date), Some(celsius)) =
            (&row[0], &row[1], row[2].as_f64())
        else {
            continue;
        };
        scored += 1;
        if truth.check(city, *date, celsius, crate::fixture::TOLERANCE_C) == Some(true) {
            right += 1;
        }
    }
    (right, scored)
}

pub fn run(args: &Args) -> Outcome {
    let run_dir = RunDir::create();
    let (cluster, setup_s) = repeat_setup(args.setup_repeats(), || start(args, &run_dir), stop);
    print_host("feed_sync", args, cluster.inputs.sizes());
    let rng = Rng::new(args.seed);
    let shuffled = shuffled_pool(&cluster.inputs, args.seed);
    // The reader's working set is the head of the shuffle (as in
    // `ask_hot`); the writer feeds the rest, four questions at a time.
    let (hot, to_feed) = shuffled.split_at(HOT_SET);
    let zipf = Zipf::new(HOT_SET, 1.0);
    let mix = Mix::Skewed(hot, &zipf);
    // A transaction hops from the primary's worker to the standby's
    // follower, on whichever cores they run.
    let sampling = hostspeed::background();
    if args.traced {
        traced(args, cluster, to_feed, mix, &rng, &run_dir, sampling)
    } else {
        untraced(args, cluster, to_feed, mix, &rng, setup_s, sampling)
    }
}

/// The three-way durability check: the killed primary's store recovered
/// into a fresh pipeline, the standby, and the acknowledged transactions
/// replayed on a reference must hold the same warehouse.
fn durability_violations(
    recovered: &IntegrationPipeline,
    standby: &IntegrationPipeline,
    reference: &Warehouse,
) -> Vec<String> {
    let mut violations = Vec::new();
    let want = reference.snapshot();
    if recovered.warehouse.snapshot() != want {
        violations.push(
            "the killed primary's recovered warehouse differs from the acknowledged transactions"
                .to_owned(),
        );
    }
    if standby.warehouse.snapshot() != want {
        violations
            .push("the standby's warehouse differs from the acknowledged transactions".to_owned());
    }
    violations
}

fn untraced(
    args: &Args,
    cluster: Cluster,
    to_feed: &[Question],
    mix: Mix<'_>,
    rng: &Rng,
    setup_s: f64,
    sampling: hostspeed::Background,
) -> Outcome {
    let addr = cluster.primary.local_addr();
    let registry = Arc::clone(cluster.primary.metrics());
    let mut spans = SpanLog::new(false);
    let mut chunks = to_feed.chunks(TXN_QUESTIONS);
    let (writer, reader) = loaded_slice(
        addr,
        &registry,
        &mut chunks,
        mix,
        Bound {
            time: Duration::from_secs_f64(args.seconds * TIME_CAP),
            txns: (args.seconds * TXNS_PER_SECOND) as usize,
        },
        rng,
        &mut spans,
    );
    let write = Summary::of(&writer.latencies_ns);
    let read = reader.latency();
    let (write_p50, write_p95) = windowed(&writer.latencies_ns, WINDOWS);
    let (read_p50, read_p95) = windowed(&reader.latencies_ns, WINDOWS);
    let txns_per_s = windowed_rate(&writer.done_ns, WINDOWS);
    println!(
        "writer closed loop: {}  {} txns in {:.2} s, {} tuples loaded ({:.1}/s), {} duplicates skipped",
        write.render_ms(),
        writer.acked.len(),
        writer.elapsed_s,
        writer.loaded,
        writer.loaded as f64 / writer.elapsed_s,
        writer.duplicates
    );
    println!(
        "  median of {WINDOWS} windows: p50 {:.3} ms  p95 {:.3} ms  {txns_per_s:.2} txns/s",
        write_p50 / 1e6,
        write_p95 / 1e6
    );
    println!(
        "reader open loop @ {READER_RATE} req/s: {}",
        read.render_ms()
    );
    println!("  {}", reader.render_generator());
    let wal_bytes = registry.counter_value(names::STORE_WAL_BYTES);
    println!(
        "wal: {} bytes over {} appends = {:.1} B/tuple; busy retries {}",
        wal_bytes,
        registry.counter_value(names::STORE_WAL_APPENDS),
        wal_bytes as f64 / writer.loaded.max(1) as f64,
        writer.tally.busy
    );

    let mut violations = Vec::new();
    if !reader.generator_ok() {
        violations.push(
            "the reader's generator ran late by more than a tenth of the latency it reports: \
             the run is invalid"
                .to_owned(),
        );
    }
    if reader.scorer.unstable > 0 {
        violations.push(format!(
            "{} reads changed a question's top answer across commits",
            reader.scorer.unstable
        ));
    }
    // Kill the primary mid-life, then compare what survives three ways.
    drop(cluster.primary.kill());
    let standby = cluster
        .standby
        .join()
        .unwrap_or_else(|| panic!("standby lost its pipeline"));
    drop(sampling);
    let (recovered, recovery_ms) = recover(&cluster.primary_dir, args.scaled(RECOVERIES));
    let reference = reference_warehouse(&cluster.inputs, &writer.acked);
    violations.extend(durability_violations(&recovered, &standby, &reference));
    let (right, scored) = score_fed_tuples(&recovered.warehouse, &cluster.inputs.truth);
    if scored != writer.loaded {
        violations.push(format!(
            "{} tuples acknowledged as loaded but {scored} in the recovered warehouse",
            writer.loaded
        ));
    }
    println!(
        "fed tuples: {right} of {scored} within {} C of the ground truth; reader answers {:.4} right",
        crate::fixture::TOLERANCE_C,
        reader.scorer.tally.accuracy()
    );

    let mut tally = writer.tally;
    tally.absorb(&reader.scorer.tally);
    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", setup_s);
    metrics.set("read_p50_ms", read_p50 / 1e6);
    metrics.set("read_p95_ms", read_p95 / 1e6);
    metrics.set("closed_p50_ms", write_p50 / 1e6);
    metrics.set("closed_ops_s", txns_per_s);
    metrics.set("answer_accuracy", right as f64 / scored.max(1) as f64);
    metrics.set("recovery_ms", median(&recovery_ms));
    metrics.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed(),
        violations,
    }
}

fn traced(
    args: &Args,
    cluster: Cluster,
    to_feed: &[Question],
    mix: Mix<'_>,
    rng: &Rng,
    run_dir: &RunDir,
    sampling: hostspeed::Background,
) -> Outcome {
    let addr = cluster.primary.local_addr();
    let registry = Arc::clone(cluster.primary.metrics());
    let mut off = SpanLog::new(false);
    let mut spans = SpanLog::new(true);
    let mut metrics = Metrics::new(PER_LAYER);
    let mut chunks = to_feed.chunks(TXN_QUESTIONS);
    let slice = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let rung_txns = args.scaled(RUNG_TXNS);

    let (plain_writer, plain_reader) = loaded_slice(
        addr,
        &registry,
        &mut chunks,
        mix,
        Bound::time(slice(0.15)),
        rng,
        &mut off,
    );
    let window = ladder::CounterWindow::open(
        &registry,
        &[
            names::STORE_WAL_APPENDS,
            names::STORE_WAL_BYTES,
            names::STORE_WAL_FSYNCS,
            names::STORE_CHECKPOINTS,
            names::REPL_FRAMES_SHIPPED,
            names::REPL_ACKS,
            names::REPL_QUORUM_TIMEOUTS,
            names::CACHE_HITS,
            names::CACHE_MISSES,
        ],
    );
    let (writer, reader) = loaded_slice(
        addr,
        &registry,
        &mut chunks,
        mix,
        Bound::time(slice(0.25)),
        rng,
        &mut spans,
    );
    let appends = window.delta(names::STORE_WAL_APPENDS).max(1.0);
    let wal_bytes = window.delta(names::STORE_WAL_BYTES);
    metrics.set(
        "store.fsyncs_per_txn",
        window.delta(names::STORE_WAL_FSYNCS) / appends,
    );
    metrics.set("store.wal_bytes_per_txn", wal_bytes / appends);
    metrics.set(
        "store.wal_bytes_per_tuple",
        wal_bytes / writer.loaded.max(1) as f64,
    );
    metrics.set("store.checkpoints", window.delta(names::STORE_CHECKPOINTS));
    metrics.set(
        "repl.frames.shipped",
        window.delta(names::REPL_FRAMES_SHIPPED),
    );
    metrics.set("repl.acks", window.delta(names::REPL_ACKS));
    metrics.set(
        "repl.quorum.timeouts",
        window.delta(names::REPL_QUORUM_TIMEOUTS),
    );
    metrics.set("repl.lag.max_frames", writer.max_lag_frames as f64);
    metrics.set("core.dedup_skipped", writer.duplicates as f64);
    let hits = window.delta(names::CACHE_HITS);
    metrics.set(
        "engine.cache.hit_ratio",
        hits / (hits + window.delta(names::CACHE_MISSES)).max(1.0),
    );
    metrics.set(
        "server.shed",
        registry.counter_value(names::SERVER_SHED) as f64,
    );
    metrics.set(
        "server.rate_limited",
        registry.counter_value(names::SERVER_RATE_LIMITED) as f64,
    );
    let queue = registry.histogram(names::SERVER_QUEUE_WAIT);
    metrics.set(
        "server.queue.wait_mean_us",
        queue.sum_us() as f64 / queue.samples().max(1) as f64,
    );
    metrics.set("gen.late_p99_us", Summary::of(&reader.late_ns).p99_us());
    metrics.set("gen.sent", reader.late_ns.len() as f64);

    // Rung 4: the replicated primary, writer alone.
    let rung4 = write_loop(
        addr,
        &registry,
        &mut chunks,
        Bound::rung(rung_txns),
        "tcp.feedback.sync",
        &mut spans,
    );
    let primary = cluster
        .primary
        .join()
        .unwrap_or_else(|| panic!("primary lost its pipeline"));
    let standby = cluster
        .standby
        .join()
        .unwrap_or_else(|| panic!("standby lost its pipeline"));
    let mut acked = plain_writer.acked;
    acked.extend(writer.acked);
    acked.extend(rung4.acked);
    let reference = reference_warehouse(&cluster.inputs, &acked);
    let mut violations = Vec::new();
    if standby.warehouse.snapshot() != reference.snapshot() {
        violations
            .push("the standby's warehouse differs from the acknowledged transactions".to_owned());
    }
    drop(standby);

    // Rung 3: the same durable pipeline behind a server with no standby.
    let solo = QaServer::start(primary, server_config(), "127.0.0.1:0")
        .unwrap_or_else(|e| panic!("start unreplicated server: {e}"));
    let solo_queue = Arc::clone(solo.metrics());
    let rung3 = write_loop(
        solo.local_addr(),
        &solo_queue,
        &mut chunks,
        Bound::rung(rung_txns),
        "tcp.feedback",
        &mut spans,
    );
    let solo_wait = solo_queue.histogram(names::SERVER_QUEUE_WAIT);
    let queue_wait_unloaded = solo_wait.sum_us() as f64 / solo_wait.samples().max(1) as f64;
    let mut pipeline = solo
        .join()
        .unwrap_or_else(|| panic!("unreplicated server lost its pipeline"));
    acked.extend(rung3.acked.iter().cloned());

    // Rungs 2 and 1 in-process: answer as the server would, then time
    // `feed_batch` alone, first durable, then with the store detached.
    let engine = QaEngine::new(&pipeline).with_workers(server_config().workers);
    let mut answer_ns = Vec::new();
    let mut answer_all = |n: usize, chunks: &mut std::slice::Chunks<'_, Question>| {
        let mut out: Vec<Vec<Vec<Answer>>> = Vec::with_capacity(n);
        for chunk in chunks.take(n) {
            let texts: Vec<String> = chunk.iter().map(|q| q.text.clone()).collect();
            let t = Instant::now();
            let reports = engine.answer_batch_checked(&texts);
            answer_ns.push(t.elapsed().as_nanos() as u64);
            out.push(reports.into_iter().map(|r| r.answers).collect());
        }
        out
    };
    let durable_txns = answer_all(rung_txns, &mut chunks);
    let volatile_txns = answer_all(rung_txns, &mut chunks);
    let rung2 = ladder::on_worker(|| {
        ladder::feed_rung(
            &mut pipeline,
            &durable_txns,
            "core.feed_batch.durable",
            &mut spans,
        )
    });
    acked.extend(durable_txns.iter().cloned());
    // Everything acknowledged so far is durable: recover it and compare.
    drop(sampling);
    let (recovered, recovery_ms) = recover(&cluster.primary_dir, 3);
    if recovered.warehouse.snapshot() != pipeline.warehouse.snapshot() {
        violations.push("the recovered warehouse differs from the live one".to_owned());
    }
    let reference = reference_warehouse(&cluster.inputs, &acked);
    if recovered.warehouse.snapshot() != reference.snapshot() {
        violations
            .push("the recovered warehouse differs from the acknowledged transactions".to_owned());
    }
    drop(pipeline.detach_store());
    let rung1 = ladder::on_worker(|| {
        ladder::feed_rung(
            &mut pipeline,
            &volatile_txns,
            "core.feed_batch.volatile",
            &mut spans,
        )
    });

    let store = ladder::store_rung(&run_dir.sub("scratch-store"), &pipeline, &durable_txns);
    // Request and response sizes are what matter to the wire rung; the
    // questions need not be the ones these answers belong to.
    let pairs: Vec<(Request, Response)> = to_feed
        .chunks(TXN_QUESTIONS)
        .zip(&rung3.acked)
        .enumerate()
        .map(|(i, (chunk, answers))| {
            let id = i as u64 + 1;
            let texts: Vec<String> = chunk.iter().map(|q| q.text.clone()).collect();
            let outcomes = vec!["ok".to_owned(); answers.len()];
            (
                Request::feedback(id, &texts),
                Response::fed(id, answers.clone(), outcomes, TXN_QUESTIONS as u64, 0),
            )
        })
        .collect();
    let wire = ladder::wire_rung(&pairs, server_config().max_batch);
    let load_sample: Vec<&Question> = to_feed.iter().rev().take(4 * rung_txns).collect();

    let (w1, w2, w3, w4) = (
        ladder::p50_us(&rung1),
        ladder::p50_us(&rung2),
        ladder::p50_us(&rung3.latencies_ns),
        ladder::p50_us(&rung4.latencies_ns),
    );
    let answer_us = ladder::p50_us(&answer_ns);
    let snapshot_us = ladder::on_worker(|| ladder::snapshot_us(&pipeline.warehouse));
    metrics.set("server.wire.decode_us", wire.decode_us);
    metrics.set("server.wire.encode_us", wire.encode_us);
    metrics.set("client.wire_us", wire.client_us);
    metrics.set("server.overhead_us", w3 - w2 - answer_us);
    metrics.set("engine.answer_us", answer_us);
    metrics.set("core.feed_txn_us", w1);
    metrics.set("core.txn_snapshot_us", snapshot_us);
    metrics.set(
        "warehouse.load_us_per_row",
        ladder::load_us_per_row(&pipeline.warehouse, &load_sample, TXN_QUESTIONS),
    );
    metrics.set("store.append_p50_us", store.append_p50_us);
    metrics.set("store.append_p95_us", store.append_p95_us);
    metrics.set("store.checkpoint_us", store.checkpoint_us);
    metrics.set("store.recovery_us", median(&recovery_ms) * 1e3);
    metrics.set("repl.quorum_wait_us", w4 - w3);
    metrics.set("corpus.generate_s", cluster.stage_s[0]);
    metrics.set("warehouse.initial_load_s", cluster.stage_s[1]);
    let merge_s = crate::fixture::ontology_merge_s(&pipeline.warehouse);
    metrics.set("ontology.merge_s", merge_s);
    metrics.set("qa.index_build_s", (cluster.stage_s[2] - merge_s).max(0.0));
    metrics.set("store.attach_s", cluster.stage_s[3]);
    metrics.set("repl.subscribe_s", cluster.stage_s[4]);
    metrics.set("ladder.write.volatile_us", w1);
    metrics.set("ladder.write.durable_us", w2);
    metrics.set("ladder.write.tcp_us", w3);
    metrics.set("ladder.write.tcp_sync_us", w4);
    metrics.set("ladder.read.tcp_open_us", reader.latency().p50_us());

    let attributed =
        answer_us + w1 + store.append_p50_us + wire.total_us() + queue_wait_unloaded + (w4 - w3);
    metrics.set("ledger.client_p50_us", w4);
    metrics.set("ledger.attributed_us", attributed);
    metrics.set("ledger.unattributed_us", w4 - attributed);
    let traced_p50 = Summary::of(&writer.latencies_ns).p50_us();
    let plain_p50 = Summary::of(&plain_writer.latencies_ns).p50_us();
    metrics.set("ledger.trace_overhead_us", traced_p50 - plain_p50);

    println!(
        "loaded slice: writer {}  reader {}",
        Summary::of(&writer.latencies_ns).render_ms(),
        reader.latency().render_ms()
    );
    println!(
        "write ladder (p50 us over {} txns of {TXN_QUESTIONS}): feed_batch volatile {w1:.1} -> durable {w2:.1} -> tcp {w3:.1} -> tcp + sync standby {w4:.1}",
        rung1.len()
    );
    println!(
        "  inside feed_batch: Warehouse::snapshot {snapshot_us:.1} us at {} rows; scratch-store append p50 {:.1} us (durable - volatile = {:.1} us)",
        pipeline.warehouse.stats().iter().map(|(_, n)| n).sum::<usize>(),
        store.append_p50_us,
        w2 - w1
    );
    println!(
        "reconciliation: client p50 {w4:.1} us = answer x{TXN_QUESTIONS} {answer_us:.1} + feed txn {w1:.1} + wal append {:.1} + wire {:.1} + queue wait {queue_wait_unloaded:.1} + quorum wait {:.1} + unattributed {:.1} us{}",
        store.append_p50_us,
        wire.total_us(),
        w4 - w3,
        w4 - attributed,
        ladder::unattributed_note(w4 - attributed, w4)
    );
    println!(
        "tracing overhead: writer p50 {traced_p50:.1} us traced vs {plain_p50:.1} us untraced"
    );
    cross_check(
        "store.append_p50_us",
        store.append_p50_us,
        &registry,
        names::STORE_WAL_APPEND_TIME,
    );
    println!(
        "checkpoint: serialise the warehouse {:.0} us (core), write it {:.0} us (store)",
        store.checkpoint_encode_us, store.checkpoint_us
    );
    cross_check(
        "store.checkpoint_us",
        store.checkpoint_us,
        &registry,
        names::STORE_CHECKPOINT_TIME,
    );
    cross_check("feed txn (durable)", w2, &registry, names::STAGE_FEED);

    if plain_reader.scorer.unstable + reader.scorer.unstable > 0 {
        violations.push("reads changed a question's top answer across commits".to_owned());
    }
    spans.write_if_asked(args.trace_out.as_deref());
    let mut tally = plain_writer.tally;
    for t in [
        &writer.tally,
        &rung4.tally,
        &rung3.tally,
        &plain_reader.scorer.tally,
        &reader.scorer.tally,
    ] {
        tally.absorb(t);
    }
    Outcome {
        metrics,
        attempted: tally.attempted,
        failed: tally.failed(),
        violations,
    }
}
