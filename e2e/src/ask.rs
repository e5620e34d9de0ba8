//! `ask_cold` and `ask_hot`: read-only `ask` over TCP.
//!
//! Phase A is an open loop on one connection at a fixed rate, one
//! request in flight; Phase B is a closed loop on two connections; they
//! alternate in short rounds. `ask_cold` draws
//! uniformly from the whole pool against the default 256-entry answer
//! cache, so nearly every request runs the QA modules; `ask_hot` draws
//! Zipf(1) from 128 questions that fit the cache, so the QA modules are
//! bypassed and wire, admission queue and cache are the whole cost.

use crate::fixture::{
    attach_store, build_pipeline, generate_inputs, recover, repeat_setup, shuffled_pool, Inputs,
    Question, RunDir, RECOVERIES,
};
use crate::hostspeed;
use crate::ladder::{self, cross_check};
use crate::load::{
    ask_each, closed_loop, open_loop, server_config, Arrivals, InFlight, Mix, OpenLoop, Scorer,
    Wait,
};
use crate::report::{peak_rss_mb, print_host, Metrics, Outcome, END_TO_END, PER_LAYER};
use crate::spans::SpanLog;
use crate::stats::{median, Rng, Summary, Zipf};
use crate::Args;
use dwqa_engine::DEFAULT_CACHE_CAPACITY;
use dwqa_obs::{names, MetricsRegistry};
use dwqa_server::{QaServer, Request, Response};
use std::path::{Path, PathBuf};
use std::time::Duration;

pub struct Spec {
    pub name: &'static str,
    /// Zipf over [`HOT_SET`] questions instead of uniform over the pool.
    pub hot: bool,
    /// Phase A arrival rate, requests per second.
    pub rate: f64,
}

impl Spec {
    /// Phase A: one request in flight, a generator with a core to itself.
    fn one_in_flight(&self) -> Arrivals {
        Arrivals {
            rate: self.rate,
            in_flight: InFlight::One,
            wait: Wait::Spin,
        }
    }
}

// The rates keep the one connection a fifth to a quarter busy. Nearer
// its capacity the tail stops describing the system: one stall of a few
// milliseconds leaves a backlog that takes dozens of requests to drain,
// and how long depends steeply on the host's speed at that moment.
pub const COLD: Spec = Spec {
    name: "ask_cold",
    hot: false,
    rate: 200.0,
};

pub const HOT: Spec = Spec {
    name: "ask_hot",
    hot: true,
    rate: 1000.0,
};

/// Working set of `ask_hot`: half the answer cache.
pub const HOT_SET: usize = 128;
/// Questions asked once, untimed, before Phase A of `ask_cold`.
const COLD_WARMUP: usize = 256;
/// `ask_hot` scores its accuracy on this many uniformly drawn questions
/// after the timed phases: 128 hot questions are too few for the share
/// of right answers to repeat between seeds.
const AUDIT: usize = 2048;
/// Operations per ladder rung.
const RUNG_OPS: usize = 200;

/// Share of `--seconds` spent in Phase A; Phase B gets the rest.
const PHASE_A_SHARE: f64 = 0.6;
/// Rounds the two phases alternate in.
const ROUNDS: usize = 20;

struct Node {
    inputs: Inputs,
    server: QaServer,
    store_dir: PathBuf,
    /// The working set (`ask_hot`) in rank order, else empty.
    hot: Vec<Question>,
    audit: Vec<Question>,
    stage_s: [f64; 4],
}

fn start(spec: &Spec, args: &Args, run_dir: &RunDir) -> Node {
    let inputs = generate_inputs(args.seed);
    let mut built = build_pipeline(&inputs);
    let store_dir = run_dir.sub("primary");
    let attach_s = attach_store(&mut built.pipeline, &store_dir);
    let server = QaServer::start(built.pipeline, server_config(), "127.0.0.1:0")
        .unwrap_or_else(|e| panic!("start server: {e}"));

    let shuffled = shuffled_pool(&inputs, args.seed);
    let take = |range: std::ops::Range<usize>| shuffled[range].to_vec();
    let hot = if spec.hot {
        take(0..HOT_SET)
    } else {
        Vec::new()
    };
    let audit = take(HOT_SET..HOT_SET + args.scaled(AUDIT));
    // Warm-up belongs to set-up: `ask_hot` fills the cache with its
    // working set, `ask_cold` only wakes threads and allocator.
    let warmup = if spec.hot {
        hot.clone()
    } else {
        take(HOT_SET..HOT_SET + args.scaled(COLD_WARMUP))
    };
    ask_each(server.local_addr(), 1, &warmup);
    let stage_s = [
        inputs.generate_s,
        built.initial_load_s,
        built.pipeline_build_s,
        attach_s,
    ];
    Node {
        inputs,
        server,
        store_dir,
        hot,
        audit,
        stage_s,
    }
}

fn stop(node: Node) {
    drop(node.server.join());
}

pub fn run(spec: &Spec, args: &Args) -> Outcome {
    let run_dir = RunDir::create();
    let (node, setup_s) = repeat_setup(args.setup_repeats(), || start(spec, args, &run_dir), stop);
    let Node {
        inputs,
        server,
        store_dir,
        hot,
        audit,
        stage_s,
    } = node;
    print_host(spec.name, args, inputs.sizes());
    let zipf = Zipf::new(HOT_SET, 1.0);
    let ctx = Ctx {
        spec,
        args,
        mix: if spec.hot {
            Mix::Skewed(&hot, &zipf)
        } else {
            Mix::Uniform(&inputs.pool)
        },
        hot: &hot,
        audit: &audit,
        store_dir: &store_dir,
        stage_s,
        run_dir: &run_dir,
    };
    // The requests hop between the server's threads on both cores.
    let sampling = hostspeed::background();
    if args.traced {
        traced(&ctx, server, sampling)
    } else {
        untraced(&ctx, server, setup_s, sampling)
    }
}

/// What both modes need besides the running server.
struct Ctx<'a> {
    spec: &'a Spec,
    args: &'a Args,
    mix: Mix<'a>,
    hot: &'a [Question],
    audit: &'a [Question],
    store_dir: &'a Path,
    stage_s: [f64; 4],
    run_dir: &'a RunDir,
}

/// Asserts the exact checks shared by both modes; returns the violations.
fn check_answers(scorer: &Scorer, node_pipeline: &dwqa_core::IntegrationPipeline) -> Vec<String> {
    let mut violations = Vec::new();
    if scorer.unstable > 0 {
        violations.push(format!(
            "{} responses changed a question's top answer between requests",
            scorer.unstable
        ));
    }
    let differing = scorer.differing_from_reference(node_pipeline.read_path().qa());
    if differing > 0 {
        violations.push(format!(
            "{differing} of {} remembered top answers differ from AliQAn::answer called directly",
            scorer.first_top.len()
        ));
    }
    if scorer.tally.scored + scorer.tally.failed() != scorer.tally.attempted {
        violations.push(format!(
            "{} requests attempted but {} scored and {} failed",
            scorer.tally.attempted,
            scorer.tally.scored,
            scorer.tally.failed()
        ));
    }
    violations
}

fn untraced(
    ctx: &Ctx<'_>,
    server: QaServer,
    setup_s: f64,
    sampling: hostspeed::Background,
) -> Outcome {
    let (spec, args, mix) = (ctx.spec, ctx.args, ctx.mix);
    let addr = server.local_addr();
    let rng = Rng::new(args.seed);
    let mut spans = SpanLog::new(false);
    // The two phases alternate in many short rounds. Both then sample
    // the whole run, and — what matters more — every round opens new
    // connections, whose threads the scheduler places anew: a cached
    // `ask` is mostly thread hand-offs, which cost half as much when the
    // two ends share a core, and a placement lasts as long as its
    // connection. Medians and the rate are the median across the rounds,
    // which sits in the placement most rounds get; the p95 figures are
    // taken over all rounds' samples, a round's own being too few.
    let slice_a = Duration::from_secs_f64(args.seconds * PHASE_A_SHARE / ROUNDS as f64);
    let slice_b = Duration::from_secs_f64(args.seconds * (1.0 - PHASE_A_SHARE) / ROUNDS as f64);
    let mut all_a = OpenLoop::default();
    let mut all_b = Vec::new();
    let mut phases = Scorer::default();
    let (mut a_p50, mut b_p50, mut b_ops) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..ROUNDS as u64 {
        // On a thread of its own, like Phase B's clients: the generator's
        // placement is then drawn anew each round too.
        let a = std::thread::scope(|scope| {
            let generator = scope.spawn(|| {
                open_loop(
                    addr,
                    spec.one_in_flight(),
                    |elapsed| elapsed >= slice_a,
                    mix,
                    &mut rng.fork(0xA00 + round),
                    &mut spans,
                )
            });
            generator
                .join()
                .unwrap_or_else(|_| panic!("open-loop generator panicked"))
        });
        let b = closed_loop(addr, 2, slice_b, mix, &rng.fork(0xB00 + round), &mut spans);
        a_p50.push(a.latency().p50_ms());
        b_p50.push(b.latency().p50_ms());
        b_ops.push(b.ops_s);
        all_b.extend(b.latencies_ns);
        all_a.absorb(a);
        phases.absorb(b.scorer);
    }
    let per_round = |v: &[f64], digits: usize| {
        v.iter()
            .map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let (a_all, b_all) = (all_a.latency(), Summary::of(&all_b));
    println!(
        "phase A open loop @ {} req/s, one in flight, {ROUNDS} rounds: {}",
        spec.rate,
        a_all.render_ms()
    );
    println!("  p50 by round (ms): {}", per_round(&a_p50, 3));
    println!("  {}", all_a.render_generator());
    println!(
        "phase B closed loop x2, {ROUNDS} rounds: {}",
        b_all.render_ms()
    );
    println!("  p50 by round (ms): {}", per_round(&b_p50, 3));
    println!("  ok/s by round: {}", per_round(&b_ops, 0));

    let mut violations = Vec::new();
    if !all_a.generator_ok() {
        violations.push(
            "open-loop generator ran late by more than a tenth of the latency it reports \
             with no request outstanding: the run is invalid"
                .to_owned(),
        );
    }
    phases.absorb(all_a.scorer);
    // `ask_hot` scores accuracy on a uniform audit sample; `ask_cold`'s
    // phases already are one.
    let accuracy = if spec.hot {
        let audit = ask_each(addr, 2, ctx.audit);
        println!(
            "accuracy: hot phases {:.4} ({} scored), audit {:.4} ({} scored)",
            phases.tally.accuracy(),
            phases.tally.scored,
            audit.tally.accuracy(),
            audit.tally.scored
        );
        let accuracy = audit.tally.accuracy();
        phases.absorb(audit);
        accuracy
    } else {
        phases.tally.accuracy()
    };

    let pipeline = server
        .join()
        .unwrap_or_else(|| panic!("drained server lost its pipeline"));
    violations.extend(check_answers(&phases, &pipeline));
    drop(sampling);
    let (recovered, recovery_ms) = recover(ctx.store_dir, args.scaled(RECOVERIES));
    if recovered.warehouse.snapshot() != pipeline.warehouse.snapshot() {
        violations.push("recovered warehouse differs from the served one".to_owned());
    }

    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", setup_s);
    metrics.set("read_p50_ms", median(&a_p50));
    metrics.set("read_p95_ms", a_all.p95_ms());
    metrics.set("closed_p50_ms", median(&b_p50));
    metrics.set("closed_ops_s", median(&b_ops));
    metrics.set("answer_accuracy", accuracy);
    metrics.set("recovery_ms", median(&recovery_ms));
    metrics.set("peak_rss_mb", peak_rss_mb());
    Outcome {
        metrics,
        attempted: phases.tally.attempted,
        failed: phases.tally.failed(),
        violations,
    }
}

/// Mean of a registry histogram over a window: `(sum, samples)` before.
fn window_mean_us(registry: &MetricsRegistry, name: &str, before: (u64, u64)) -> f64 {
    let h = registry.histogram(name);
    let samples = h.samples().saturating_sub(before.1);
    if samples == 0 {
        return 0.0;
    }
    h.sum_us().saturating_sub(before.0) as f64 / samples as f64
}

fn mark(registry: &MetricsRegistry, name: &str) -> (u64, u64) {
    let h = registry.histogram(name);
    (h.sum_us(), h.samples())
}

fn traced(ctx: &Ctx<'_>, server: QaServer, sampling: hostspeed::Background) -> Outcome {
    let (spec, args, mix) = (ctx.spec, ctx.args, ctx.mix);
    let addr = server.local_addr();
    let registry = std::sync::Arc::clone(server.metrics());
    let rng = Rng::new(args.seed);
    let mut off = SpanLog::new(false);
    let mut spans = SpanLog::new(true);
    let slice = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let mut metrics = Metrics::new(PER_LAYER);

    // Loaded slices: the workload's own phases, first without spans, then
    // with; the difference between their medians is what tracing costs.
    let untraced_a = slice(0.15);
    let plain = open_loop(
        addr,
        spec.one_in_flight(),
        |e| e >= untraced_a,
        mix,
        &mut rng.fork(0xA),
        &mut off,
    );
    let traced_a = slice(0.20);
    let a = open_loop(
        addr,
        spec.one_in_flight(),
        |e| e >= traced_a,
        mix,
        &mut rng.fork(0xA),
        &mut spans,
    );
    // The same arrivals written behind each other on the connection:
    // what pipelining costs on sockets that never set TCP_NODELAY.
    let piped_for = slice(0.10);
    let piped = open_loop(
        addr,
        Arrivals {
            in_flight: InFlight::Pipelined,
            ..spec.one_in_flight()
        },
        |e| e >= piped_for,
        mix,
        &mut rng.fork(0xA),
        &mut spans,
    );
    let queue_before = mark(&registry, names::SERVER_QUEUE_WAIT);
    let b = closed_loop(addr, 2, slice(0.10), mix, &rng.fork(0xB), &mut spans);
    let queue_wait_loaded = window_mean_us(&registry, names::SERVER_QUEUE_WAIT, queue_before);

    // Rung 3: one closed-loop connection, the unloaded TCP path.
    let ops: Vec<&Question> = {
        let mut r = rng.fork(0x1ADD);
        (0..args.scaled(RUNG_OPS))
            .map(|_| mix.pick(&mut r))
            .collect()
    };
    let queue_before = mark(&registry, names::SERVER_QUEUE_WAIT);
    let mut tcp = Vec::with_capacity(ops.len());
    {
        let mut client =
            dwqa_server::QaClient::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
        for (i, question) in ops.iter().enumerate() {
            let (response, elapsed) = spans.time("tcp.ask.closed", i as u64 + 1, None, || {
                client.ask(&question.text)
            });
            if response.is_ok_and(|r| r.is_ok()) {
                tcp.push(elapsed);
            }
        }
    }
    let queue_wait_unloaded = window_mean_us(&registry, names::SERVER_QUEUE_WAIT, queue_before);
    let tcp_closed_us = ladder::p50_us(&tcp);
    let tcp_open_us = a.latency().p50_us();

    let hits = registry.counter_value(names::CACHE_HITS) as f64;
    let misses = registry.counter_value(names::CACHE_MISSES) as f64;
    metrics.set("engine.cache.hit_ratio", hits / (hits + misses).max(1.0));
    metrics.set(
        "server.shed",
        registry.counter_value(names::SERVER_SHED) as f64,
    );
    metrics.set(
        "server.rate_limited",
        registry.counter_value(names::SERVER_RATE_LIMITED) as f64,
    );
    metrics.set("server.queue.wait_mean_us", queue_wait_loaded);
    let late = crate::stats::Summary::of(&a.late_ns);
    metrics.set("gen.late_p99_us", late.p99_us());
    metrics.set("gen.sent", a.late_ns.len() as f64);

    let pipeline = server
        .join()
        .unwrap_or_else(|| panic!("drained server lost its pipeline"));

    // Rungs 2 and 1, in-process on the pipeline the server handed back.
    let (engine_us, hit_us) =
        ladder::engine_rung(&pipeline, DEFAULT_CACHE_CAPACITY, ctx.hot, &ops, &mut spans);
    let stages = ladder::read_stages(&pipeline, &ops, &mut spans);
    let pairs: Vec<(Request, Response)> = ops
        .iter()
        .zip(&stages.answers)
        .enumerate()
        .map(|(i, (q, answers))| {
            let id = i as u64 + 1;
            (
                Request::ask(id, &q.text),
                Response::answers(id, vec![answers.clone()], vec!["ok".to_owned()], None),
            )
        })
        .collect();
    let wire = ladder::wire_rung(&pairs, server_config().max_batch);
    drop(sampling);
    let (_, recovery_ms) = recover(ctx.store_dir, 3);
    let store = ladder::store_rung(&ctx.run_dir.sub("scratch-store"), &pipeline, &[]);

    metrics.set("server.wire.decode_us", wire.decode_us);
    metrics.set("server.wire.encode_us", wire.encode_us);
    metrics.set("client.wire_us", wire.client_us);
    metrics.set("server.overhead_us", tcp_closed_us - engine_us);
    metrics.set(
        "server.pipelining_penalty_us",
        piped.latency().p50_us() - tcp_open_us,
    );
    metrics.set("engine.answer_us", engine_us);
    metrics.set("engine.cache.hit_us", hit_us);
    metrics.set("nlp.question_us", stages.nlp_us);
    metrics.set("qa.analyze_us", stages.analyze_us);
    metrics.set("qa.extract_us", stages.extract_us);
    metrics.set("qa.answered_ratio", stages.answered_ratio);
    metrics.set("ir.passages_us", stages.passages_us);
    metrics.set("ir.docs_candidate_per_q", stages.docs_candidate_per_q);
    metrics.set("ir.windows_scored_per_q", stages.windows_scored_per_q);
    metrics.set("ir.docs_pruned_ratio", stages.docs_pruned_ratio);
    metrics.set(
        "core.txn_snapshot_us",
        ladder::snapshot_us(&pipeline.warehouse),
    );
    metrics.set("store.checkpoint_us", store.checkpoint_us);
    metrics.set("store.recovery_us", median(&recovery_ms) * 1e3);
    metrics.set("corpus.generate_s", ctx.stage_s[0]);
    metrics.set("warehouse.initial_load_s", ctx.stage_s[1]);
    let merge_s = crate::fixture::ontology_merge_s(&pipeline.warehouse);
    metrics.set("ontology.merge_s", merge_s);
    metrics.set("qa.index_build_s", (ctx.stage_s[2] - merge_s).max(0.0));
    metrics.set("store.attach_s", ctx.stage_s[3]);
    metrics.set("ladder.read.stages_us", stages.total_us);
    metrics.set("ladder.read.engine_us", engine_us);
    metrics.set("ladder.read.tcp_closed_us", tcp_closed_us);
    metrics.set("ladder.read.tcp_open_us", tcp_open_us);

    // The ledger: what the closed-loop client sees against what the
    // layers on its blocking path account for.
    let attributed = engine_us + wire.total_us() + queue_wait_unloaded;
    metrics.set("ledger.client_p50_us", tcp_closed_us);
    metrics.set("ledger.attributed_us", attributed);
    metrics.set("ledger.unattributed_us", tcp_closed_us - attributed);
    metrics.set(
        "ledger.trace_overhead_us",
        a.latency().p50_us() - plain.latency().p50_us(),
    );

    println!(
        "loaded slice, open loop @ {} req/s: {}",
        spec.rate,
        a.latency().render_ms()
    );
    println!(
        "loaded slice, same arrivals pipelined: {}",
        piped.latency().render_ms()
    );
    println!("loaded slice, closed loop x2: {}", b.latency().render_ms());
    println!(
        "read ladder (p50 us over {} ops): stages {:.1} [nlp {:.1} + analyze {:.1} + passages {:.1} + extract {:.1}] -> engine {:.1} -> tcp closed {:.1} -> tcp open {:.1}",
        ops.len(),
        stages.total_us,
        stages.nlp_us,
        stages.analyze_us,
        stages.passages_us,
        stages.extract_us,
        engine_us,
        tcp_closed_us,
        tcp_open_us
    );
    println!(
        "reconciliation: client p50 {:.1} us = engine {:.1} + wire {:.1} (decode {:.1} encode {:.1} client {:.1}) + queue wait {:.1} + unattributed {:.1} us{}",
        tcp_closed_us,
        engine_us,
        wire.total_us(),
        wire.decode_us,
        wire.encode_us,
        wire.client_us,
        queue_wait_unloaded,
        tcp_closed_us - attributed,
        ladder::unattributed_note(tcp_closed_us - attributed, tcp_closed_us)
    );
    println!(
        "tracing overhead: open-loop p50 {:.1} us traced vs {:.1} us untraced",
        a.latency().p50_us(),
        plain.latency().p50_us()
    );
    cross_check(
        "ir.passages_us",
        stages.passages_us,
        &registry,
        names::STAGE_PASSAGES,
    );
    cross_check(
        "qa.extract_us",
        stages.extract_us,
        &registry,
        names::STAGE_EXTRACT,
    );
    cross_check(
        "nlp+analyze",
        stages.nlp_us + stages.analyze_us,
        &registry,
        names::STAGE_ANALYZE,
    );

    let mut scorer = plain.scorer;
    scorer.absorb(a.scorer);
    scorer.absorb(piped.scorer);
    scorer.absorb(b.scorer);
    let violations = check_answers(&scorer, &pipeline);
    spans.write_if_asked(args.trace_out.as_deref());
    Outcome {
        metrics,
        attempted: scorer.tally.attempted,
        failed: scorer.tally.failed(),
        violations,
    }
}
