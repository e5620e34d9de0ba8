//! E18 — warm-standby failover: WAL shipping under seeded link chaos,
//! lossless promotion, and fencing.
//!
//! Three sections:
//!
//! 1. **Seeded kill sweep** — a replicating primary (sync quorum 1,
//!    10% link chaos) is killed between requests at ≥5 seeded crash
//!    points; after each kill the standby is promoted (the last sweep
//!    point exercises the heartbeat failure detector instead of a
//!    manual `promote`), must serve reads *and* accept writes within
//!    the promotion budget, and — once every batch has been driven to
//!    an acknowledged commit — must hold a roll-up state
//!    byte-identical to a never-failed reference pipeline. The old
//!    primary's generation must be fenced below the promoted one.
//! 2. **Drain handoff** — the graceful path: drain the primary (which
//!    flushes replication), promote the standby, same gates.
//! 3. **Async staleness** — the same topology under `async(budget)`;
//!    every acknowledged commit must observe connected-standby lag
//!    within the budget, and the standby must converge to the
//!    primary's exact state.
//!
//! Override the fault seed with `DWQA_FAILOVER_SEED` (CI derives one
//! from the run number). Usage: `exp_failover [--quick] [--out PATH]`

use dwqa_bench::{build_fixture, daily_questions, section, FixtureConfig};
use dwqa_common::{mix64, Month};
use dwqa_core::IntegrationPipeline;
use dwqa_corpus::PageStyle;
use dwqa_qa::Answer;
use dwqa_server::repl::LinkPlan;
use dwqa_server::{
    QaClient, QaServer, ReplicasReport, ReplicationConfig, ReplicationMode, ServerConfig, Status,
};
use dwqa_warehouse::WarehouseSnapshot;
use serde::Serialize;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Link chaos rate on the replication link for the kill sweep.
const CHAOS_RATE: f64 = 0.10;
/// Failover budget: kill → promoted standby serving reads and writes.
const PROMOTION_BUDGET_MS: f64 = 1000.0;
/// Staleness budget (frames) for the async section.
const ASYNC_BUDGET: u64 = 4;

fn failover_seed() -> u64 {
    match std::env::var("DWQA_FAILOVER_SEED") {
        Ok(v) => v.parse().unwrap_or(0xFA170),
        Err(_) => 0xFA170,
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dwqa-exp-failover-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn server_config() -> ServerConfig {
    ServerConfig::builder()
        .workers(2)
        .queue_capacity(64)
        .rate_burst(4096)
        .rate_per_sec(1_000_000.0)
        .build()
        .unwrap_or_else(|e| panic!("server config: {e}"))
}

fn repl_builder(mode: ReplicationMode) -> dwqa_server::ReplicationConfigBuilder {
    ReplicationConfig::builder()
        .mode(mode)
        .heartbeat_interval(Duration::from_millis(20))
        .heartbeat_timeout(Duration::from_millis(150))
        .ack_timeout(Duration::from_secs(3))
        .reconnect_backoff(Duration::from_millis(10))
}

fn repl_config(mode: ReplicationMode) -> ReplicationConfig {
    repl_builder(mode)
        .build()
        .unwrap_or_else(|e| panic!("repl config: {e}"))
}

fn report(client: &mut QaClient) -> ReplicasReport {
    client
        .replicas()
        .unwrap_or_else(|e| panic!("replicas: {e}"))
        .replicas
        .unwrap_or_else(|| panic!("no replicas report"))
}

/// Drives one feedback batch to an acknowledged commit, counting the
/// busy-retry round trips the client needed (quorum timeouts under
/// chaos surface as `ReplicationLag` busies, never as silent loss).
fn feed_until_acked(client: &mut QaClient, batch: &[String], retries: &mut u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let response = client
            .feedback(batch)
            .unwrap_or_else(|e| panic!("feedback i/o: {e}"));
        if response.status == Status::Ok {
            return;
        }
        *retries += 1;
        assert!(
            Instant::now() < deadline,
            "batch never acknowledged: {response:?}"
        );
        let wait = response.retry_after_ms.unwrap_or(20).min(250);
        std::thread::sleep(Duration::from_millis(wait));
    }
}

fn await_subscribed(client: &mut QaClient) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while report(client).peers.is_empty() {
        assert!(Instant::now() < deadline, "standby never subscribed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[derive(Serialize)]
struct FailoverScenario {
    name: String,
    /// "kill" (hard crash, manual promote), "kill-detect" (hard crash,
    /// heartbeat failure detector auto-promotes), or "drain" (graceful
    /// handoff).
    kind: &'static str,
    kill_after: usize,
    batches: usize,
    busy_retries: u64,
    promotion_ms: f64,
    zero_loss: bool,
    fenced: bool,
    old_generation: u64,
    new_generation: u64,
}

/// One full failover round. Feeds `batches[..kill_after]` through the
/// replicating primary, fails it over per `kind`, drives the remaining
/// batches into the promoted standby, and hands both pipelines back
/// for reuse alongside the scenario outcome.
#[allow(clippy::too_many_arguments)]
fn failover_round(
    name: String,
    kind: &'static str,
    primary_pipe: IntegrationPipeline,
    standby_pipe: IntegrationPipeline,
    batches: &[Vec<String>],
    kill_after: usize,
    scenario_seed: u64,
    reference_json: &str,
) -> (FailoverScenario, IntegrationPipeline, IntegrationPipeline) {
    let primary_cfg = repl_builder(ReplicationMode::Sync { quorum: 1 })
        .link_fault(Some(LinkPlan::chaos(scenario_seed, CHAOS_RATE)))
        .build()
        .unwrap_or_else(|e| panic!("primary repl config: {e}"));
    let standby_cfg = repl_builder(ReplicationMode::Sync { quorum: 1 })
        .auto_promote(kind == "kill-detect")
        .build()
        .unwrap_or_else(|e| panic!("standby repl config: {e}"));

    let primary = QaServer::start_primary(
        primary_pipe,
        server_config(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        primary_cfg,
    )
    .unwrap_or_else(|e| panic!("start primary: {e}"));
    let repl_addr = primary
        .replication_addr()
        .unwrap_or_else(|| panic!("no repl addr"));
    let standby = QaServer::start_standby(
        standby_pipe,
        server_config(),
        "127.0.0.1:0",
        &repl_addr.to_string(),
        standby_cfg,
    )
    .unwrap_or_else(|e| panic!("start standby: {e}"));

    let mut client_p =
        QaClient::connect(primary.local_addr()).unwrap_or_else(|e| panic!("connect: {e}"));
    let mut client_s =
        QaClient::connect(standby.local_addr()).unwrap_or_else(|e| panic!("connect: {e}"));
    await_subscribed(&mut client_p);

    let mut busy_retries = 0u64;
    for batch in &batches[..kill_after] {
        feed_until_acked(&mut client_p, batch, &mut busy_retries);
    }

    // Fail over. The clock runs from the moment the primary is gone
    // (or starts draining) until the promoted standby has served a
    // read AND accepted a write — the client-visible outage window.
    let clock = Instant::now();
    let old_pipeline = match kind {
        "drain" => {
            client_p.drain().unwrap_or_else(|e| panic!("drain: {e}"));
            primary
                .serve()
                .unwrap_or_else(|| panic!("drained primary lost its pipeline"))
        }
        _ => primary
            .kill()
            .unwrap_or_else(|| panic!("killed primary lost its pipeline")),
    };
    let old_generation = old_pipeline
        .store()
        .map(dwqa_store::FeedbackStore::generation)
        .unwrap_or(0);

    if kind == "kill-detect" {
        // The seeded failure detector: sustained heartbeat silence
        // plus a failed reconnect probe promotes the standby.
        let deadline = Instant::now() + Duration::from_secs(5);
        while report(&mut client_s).role != "primary" {
            assert!(Instant::now() < deadline, "failure detector never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
    } else {
        let promoted = client_s
            .promote()
            .unwrap_or_else(|e| panic!("promote: {e}"));
        assert_eq!(promoted.status, Status::Ok, "promote refused: {promoted:?}");
    }
    let ask = client_s
        .ask(&batches[0][0])
        .unwrap_or_else(|e| panic!("promoted ask: {e}"));
    assert_eq!(ask.status, Status::Ok, "promoted standby refused a read");
    feed_until_acked(&mut client_s, &batches[kill_after], &mut busy_retries);
    let promotion_ms = clock.elapsed().as_secs_f64() * 1e3;

    for batch in &batches[kill_after + 1..] {
        feed_until_acked(&mut client_s, batch, &mut busy_retries);
    }
    let post = report(&mut client_s);
    let fenced = post.generation > old_generation;

    client_s
        .drain()
        .unwrap_or_else(|e| panic!("drain standby: {e}"));
    let promoted_pipe = standby
        .serve()
        .unwrap_or_else(|| panic!("drained standby lost its pipeline"));
    let zero_loss = promoted_pipe.warehouse.to_json() == reference_json;

    let scenario = FailoverScenario {
        name,
        kind,
        kill_after,
        batches: batches.len(),
        busy_retries,
        promotion_ms,
        zero_loss,
        fenced,
        old_generation,
        new_generation: post.generation,
    };
    (scenario, old_pipeline, promoted_pipe)
}

#[derive(Serialize)]
struct AsyncReport {
    staleness_budget: u64,
    batches: usize,
    max_observed_lag: u64,
    within_budget: bool,
    converged_byte_identical: bool,
}

fn async_phase(
    primary_pipe: IntegrationPipeline,
    standby_pipe: IntegrationPipeline,
    batches: &[Vec<String>],
) -> (AsyncReport, IntegrationPipeline, IntegrationPipeline) {
    let mode = ReplicationMode::Async {
        staleness_budget: ASYNC_BUDGET,
    };
    let primary = QaServer::start_primary(
        primary_pipe,
        server_config(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        repl_config(mode),
    )
    .unwrap_or_else(|e| panic!("start primary: {e}"));
    let repl_addr = primary
        .replication_addr()
        .unwrap_or_else(|| panic!("no repl addr"));
    let standby = QaServer::start_standby(
        standby_pipe,
        server_config(),
        "127.0.0.1:0",
        &repl_addr.to_string(),
        repl_config(mode),
    )
    .unwrap_or_else(|e| panic!("start standby: {e}"));
    let mut client_p =
        QaClient::connect(primary.local_addr()).unwrap_or_else(|e| panic!("connect: {e}"));
    let mut client_s =
        QaClient::connect(standby.local_addr()).unwrap_or_else(|e| panic!("connect: {e}"));
    await_subscribed(&mut client_p);

    let mut retries = 0u64;
    let mut max_lag = 0u64;
    for batch in batches {
        feed_until_acked(&mut client_p, batch, &mut retries);
        // Sequential feeding: nothing ships between the ack and this
        // probe, so the admission-time staleness bound is still
        // visible in the peer gauge.
        for peer in &report(&mut client_p).peers {
            if peer.connected {
                max_lag = max_lag.max(peer.lag);
            }
        }
    }
    let within_budget = max_lag <= ASYNC_BUDGET;

    // Let the standby converge, then compare exact states.
    let target = report(&mut client_p).next_seq;
    let deadline = Instant::now() + Duration::from_secs(10);
    while report(&mut client_s).next_seq < target {
        assert!(Instant::now() < deadline, "async standby never converged");
        std::thread::sleep(Duration::from_millis(10));
    }
    client_p.drain().unwrap_or_else(|e| panic!("drain: {e}"));
    let primary_pipe = primary
        .serve()
        .unwrap_or_else(|| panic!("drained primary lost its pipeline"));
    client_s.drain().unwrap_or_else(|e| panic!("drain: {e}"));
    let standby_pipe = standby
        .serve()
        .unwrap_or_else(|| panic!("drained standby lost its pipeline"));
    let converged = standby_pipe.warehouse.to_json() == primary_pipe.warehouse.to_json();

    let outcome = AsyncReport {
        staleness_budget: ASYNC_BUDGET,
        batches: batches.len(),
        max_observed_lag: max_lag,
        within_budget,
        converged_byte_identical: converged,
    };
    (outcome, primary_pipe, standby_pipe)
}

#[derive(Serialize)]
struct BenchReport {
    experiment: &'static str,
    quick: bool,
    seed: u64,
    link_chaos_rate: f64,
    promotion_budget_ms: f64,
    scenarios: Vec<FailoverScenario>,
    async_mode: AsyncReport,
    zero_loss_all: bool,
    max_promotion_ms: f64,
}

/// Resets a pipeline to the fixture seed state, dropping any store.
fn reset(pipeline: &mut IntegrationPipeline, seed_snap: &WarehouseSnapshot) {
    drop(pipeline.detach_store());
    pipeline
        .restore_warehouse(seed_snap)
        .unwrap_or_else(|e| panic!("reset: {e}"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_failover.json", String::as_str);
    let seed = failover_seed();
    println!("failover seed: {seed}");

    let fixture_cfg = FixtureConfig {
        styles: vec![PageStyle::Prose],
        distractors: 2,
        ..FixtureConfig::default()
    };
    let primary_fx = build_fixture(fixture_cfg.clone());
    let standby_fx = build_fixture(fixture_cfg.clone());
    let mut reference_fx = build_fixture(fixture_cfg);
    let seed_snap = primary_fx.pipeline.warehouse.snapshot();

    let take = if quick { 8 } else { 16 };
    let questions: Vec<Vec<String>> = daily_questions("Barcelona", 2004, Month::January)
        .into_iter()
        .take(take)
        .map(|q| vec![q])
        .collect();
    assert!(questions.len() >= 8, "fixture yielded too few batches");

    // The never-failed reference: every batch applied exactly once to
    // a standalone pipeline. Lossless failover must land on exactly
    // this roll-up state, byte for byte.
    let read = reference_fx.pipeline.read_path();
    let answers: Vec<Vec<Answer>> = questions.iter().map(|b| read.answer(&b[0])).collect();
    for batch in &answers {
        assert!(!batch.is_empty(), "fixture question yielded no answers");
        reference_fx.pipeline.apply_feedback(batch);
    }
    let reference_json = reference_fx.pipeline.warehouse.to_json();

    section("E18: seeded kill sweep (sync quorum 1, 10% link chaos)");
    // ≥5 distinct seeded crash points, killed between requests; the
    // last one exercises the heartbeat failure detector.
    let mut kill_points: Vec<usize> = Vec::new();
    let mut stream = seed;
    while kill_points.len() < 5 {
        stream = mix64(stream);
        let k = 1 + (stream as usize) % (questions.len() - 2);
        if !kill_points.contains(&k) {
            kill_points.push(k);
        }
    }
    let mut primary_pipe = primary_fx.pipeline;
    let mut standby_pipe = standby_fx.pipeline;
    let mut scenarios: Vec<FailoverScenario> = Vec::new();
    for (i, &kill_after) in kill_points.iter().enumerate() {
        let kind = if i == kill_points.len() - 1 {
            "kill-detect"
        } else {
            "kill"
        };
        reset(&mut primary_pipe, &seed_snap);
        reset(&mut standby_pipe, &seed_snap);
        let dir = scratch(&format!("kill-{kill_after}"));
        primary_pipe
            .attach_store_at(&dir)
            .unwrap_or_else(|e| panic!("attach: {e}"));
        let (outcome, old, promoted) = failover_round(
            format!("{kind}-after-{kill_after}"),
            kind,
            primary_pipe,
            standby_pipe,
            &questions,
            kill_after,
            mix64(seed ^ (i as u64)),
            &reference_json,
        );
        primary_pipe = old;
        standby_pipe = promoted;
        let _ = std::fs::remove_dir_all(&dir);
        println!(
            "  {:22} promoted in {:>6.1} ms ({} retries) | zero loss: {} | fenced: {} ({} -> {})",
            outcome.name,
            outcome.promotion_ms,
            outcome.busy_retries,
            outcome.zero_loss,
            outcome.fenced,
            outcome.old_generation,
            outcome.new_generation,
        );
        assert!(
            outcome.zero_loss,
            "{}: acknowledged feedback lost",
            outcome.name
        );
        assert!(outcome.fenced, "{}: old primary not fenced", outcome.name);
        scenarios.push(outcome);
    }

    section("E18: drain handoff (graceful promotion)");
    {
        reset(&mut primary_pipe, &seed_snap);
        reset(&mut standby_pipe, &seed_snap);
        let dir = scratch("drain");
        primary_pipe
            .attach_store_at(&dir)
            .unwrap_or_else(|e| panic!("attach: {e}"));
        let kill_after = questions.len() / 2;
        let (outcome, old, promoted) = failover_round(
            format!("drain-after-{kill_after}"),
            "drain",
            primary_pipe,
            standby_pipe,
            &questions,
            kill_after,
            mix64(seed ^ 0xD4A1),
            &reference_json,
        );
        primary_pipe = old;
        standby_pipe = promoted;
        let _ = std::fs::remove_dir_all(&dir);
        println!(
            "  {:22} promoted in {:>6.1} ms ({} retries) | zero loss: {} | fenced: {} ({} -> {})",
            outcome.name,
            outcome.promotion_ms,
            outcome.busy_retries,
            outcome.zero_loss,
            outcome.fenced,
            outcome.old_generation,
            outcome.new_generation,
        );
        assert!(
            outcome.zero_loss,
            "drain handoff lost acknowledged feedback"
        );
        assert!(outcome.fenced, "drain handoff did not fence");
        scenarios.push(outcome);
    }

    section("E18: async staleness (bounded lag)");
    let (async_mode, mut primary_pipe, _standby_pipe) = {
        reset(&mut primary_pipe, &seed_snap);
        reset(&mut standby_pipe, &seed_snap);
        let dir = scratch("async");
        primary_pipe
            .attach_store_at(&dir)
            .unwrap_or_else(|e| panic!("attach: {e}"));
        let (outcome, p, s) = async_phase(primary_pipe, standby_pipe, &questions);
        let _ = std::fs::remove_dir_all(&dir);
        (outcome, p, s)
    };
    println!(
        "  {} batches: max lag {} (budget {}) | converged byte-identical: {}",
        async_mode.batches,
        async_mode.max_observed_lag,
        async_mode.staleness_budget,
        async_mode.converged_byte_identical,
    );
    assert!(async_mode.within_budget, "async staleness exceeded budget");
    assert!(
        async_mode.converged_byte_identical,
        "async standby diverged"
    );
    drop(primary_pipe.detach_store());

    let zero_loss_all = scenarios.iter().all(|s| s.zero_loss && s.fenced);
    let max_promotion_ms = scenarios
        .iter()
        .map(|s| s.promotion_ms)
        .fold(0.0f64, f64::max);
    assert!(zero_loss_all);
    assert!(
        max_promotion_ms < PROMOTION_BUDGET_MS,
        "promotion took {max_promotion_ms:.1} ms, budget {PROMOTION_BUDGET_MS} ms"
    );

    let report = BenchReport {
        experiment: "failover",
        quick,
        seed,
        link_chaos_rate: CHAOS_RATE,
        promotion_budget_ms: PROMOTION_BUDGET_MS,
        scenarios,
        async_mode,
        zero_loss_all,
        max_promotion_ms,
    };
    let json = serde_json::to_string_pretty(&report).unwrap_or_else(|e| panic!("json: {e}"));
    std::fs::write(out_path, json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    println!("\nwrote {out_path}");
    println!(
        "E18 PASS: zero acknowledged loss at every crash point, promotion under {PROMOTION_BUDGET_MS} ms"
    );
}
