//! Failover invariants (DESIGN.md §15, issue E18's test-sized twin):
//!
//! * **sync zero loss** — after chaos-ridden shipping completes, a
//!   standby's warehouse is byte-identical to the primary's for every
//!   acknowledged batch, and promotion fences the old primary out;
//! * **async bounded staleness** — a commit acknowledged under
//!   `async(budget)` never leaves a connected standby more than
//!   `budget` frames behind at the moment of the ack;
//! * **redirects** — a standby refuses `feedback` with a typed
//!   `NotPrimary` busy carrying the primary's advertised address.
//!
//! The chaos proptest drives the *wire machinery* (tap → seeded
//! `LinkFault` → `FrameStream` → replicated apply, with resubscribes
//! and seq dedup) in-process for determinism; the live tests run real
//! primaries and standbys over TCP sockets.

#![recursion_limit = "256"]

use dwqa_bench::{build_fixture, daily_questions, FixtureConfig};
use dwqa_common::Month;
use dwqa_core::IntegrationPipeline;
use dwqa_corpus::PageStyle;
use dwqa_server::repl::{LinkAction, LinkFault, LinkPlan};
use dwqa_server::{
    BusyReason, QaClient, QaServer, ReplicasReport, ReplicationConfig, ReplicationMode,
    ServerConfig, Status,
};
use dwqa_store::{FrameKind, FrameStream};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dwqa-failover-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fixture() -> IntegrationPipeline {
    build_fixture(FixtureConfig {
        styles: vec![PageStyle::Prose],
        distractors: 2,
        ..FixtureConfig::default()
    })
    .pipeline
}

fn questions() -> Vec<String> {
    let mut pool = Vec::new();
    for city in ["Barcelona", "Madrid", "New York"] {
        pool.extend(
            daily_questions(city, 2004, Month::January)
                .into_iter()
                .take(2),
        );
    }
    pool
}

fn server_config() -> ServerConfig {
    ServerConfig::builder()
        .workers(2)
        .queue_capacity(64)
        .rate_burst(1024)
        .rate_per_sec(100_000.0)
        .build()
        .unwrap()
}

fn repl_config(mode: ReplicationMode) -> ReplicationConfig {
    ReplicationConfig::builder()
        .mode(mode)
        .heartbeat_interval(Duration::from_millis(20))
        .heartbeat_timeout(Duration::from_millis(150))
        .ack_timeout(Duration::from_secs(3))
        .reconnect_backoff(Duration::from_millis(10))
        .build()
        .unwrap()
}

fn report(client: &mut QaClient) -> ReplicasReport {
    client.replicas().unwrap().replicas.unwrap()
}

/// Polls the standby until its applied position reaches `target`.
fn await_catchup(client: &mut QaClient, target: u64, budget: Duration) -> ReplicasReport {
    let deadline = Instant::now() + budget;
    loop {
        let r = report(client);
        if r.next_seq >= target {
            return r;
        }
        assert!(
            Instant::now() < deadline,
            "standby stuck at {}/{target}",
            r.next_seq
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

// ---------------------------------------------------------------------
// In-memory chaos sim: tap → LinkFault wire → FrameStream → apply.
// ---------------------------------------------------------------------

/// Replays `shipped` frames into `standby` through a seeded chaos
/// link, with the follower's real recovery moves: resubscribe from the
/// applied offset on gaps/tears, dedup by frame seq. Returns the
/// number of sessions it took.
fn ship_through_chaos(
    shipped: &[Vec<u8>],
    standby: &mut IntegrationPipeline,
    fault: &mut LinkFault,
    target: u64,
) -> usize {
    let mut next: u64 = 0;
    let mut sessions = 0;
    while next < target {
        sessions += 1;
        assert!(
            sessions <= 10_000,
            "chaos never drained: stuck at {next}/{target}"
        );
        // "Subscribe": the primary's backlog from our applied offset.
        let mut stream = FrameStream::new(64 << 20);
        'session: for frame in shipped {
            let counter = u64::from_le_bytes(frame[20..28].try_into().unwrap());
            let is_checkpoint = frame[..4] != *b"DWA1";
            if !is_checkpoint && counter < next {
                continue; // already applied; backlog skips it
            }
            let decision = fault.decide(frame.len());
            let pushes: &[&[u8]] = match decision.action {
                LinkAction::Drop => &[],
                LinkAction::Tear(keep) => {
                    stream.push(&frame[..keep.min(frame.len())]);
                    break 'session; // torn tail ends the session
                }
                LinkAction::HalfOpen => break 'session,
                LinkAction::Deliver if decision.duplicate => &[frame, frame],
                LinkAction::Deliver => &[frame],
            };
            for bytes in pushes {
                stream.push(bytes);
            }
            loop {
                match stream.next() {
                    Ok(Some(got)) => match got.kind {
                        FrameKind::Record if got.counter == next => {
                            standby.apply_replicated_transaction(&got.payload).unwrap();
                            next += 1;
                        }
                        FrameKind::Record if got.counter < next => {} // dup: skip
                        FrameKind::Record => break 'session,          // gap: resubscribe
                        FrameKind::Checkpoint if got.counter > next => {
                            standby.apply_replicated_checkpoint(&got.payload).unwrap();
                            next = got.counter;
                        }
                        _ => {}
                    },
                    Ok(None) => break,
                    Err(_) => break 'session, // torn: resubscribe
                }
            }
        }
    }
    sessions
}

/// Body of `prop_sync_chaos_replication_is_lossless`.
fn check_sync_chaos_lossless(seed: u64, rate: f64, batch_count: usize) {
    let dir = scratch("chaos");
    let mut primary = fixture();
    let mut standby = fixture();
    primary.attach_store_at(&dir).unwrap();
    let shipped: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&shipped);
    primary
        .store_mut()
        .unwrap()
        .set_tap(Some(dwqa_store::FrameTap::new(move |_next, frame| {
            sink.lock().unwrap().push(frame.to_vec());
        })));

    let pool = questions();
    let mut batches = Vec::new();
    for q in pool.iter().take(batch_count) {
        let answers = primary.read_path().answer(q);
        let report = primary.apply_feedback(&answers);
        assert!(report.loaded > 0, "fixture question fed nothing: {q}");
        batches.push(answers);
    }
    let target = primary.store().unwrap().next_seq();
    assert_eq!(target, batch_count as u64);

    let mut fault = LinkFault::new(LinkPlan::chaos(seed, rate));
    let frames = shipped.lock().unwrap().clone();
    ship_through_chaos(&frames, &mut standby, &mut fault, target);

    // Zero acknowledged loss: byte-identical warehouse state.
    assert_eq!(standby.warehouse.to_json(), primary.warehouse.to_json());
    // And the dedup set came along: acked batches re-feed as no-ops,
    // so a client retrying into the promoted standby cannot double-add.
    for answers in &batches {
        let again = standby.apply_feedback(answers);
        assert_eq!(again.loaded, 0, "promoted standby re-loaded an acked batch");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Seeded link chaos (drops, tears, duplicates, half-opens) costs
    /// sessions, never correctness: the standby always converges to a
    /// byte-identical warehouse with the dedup set intact.
    #[test]
    fn prop_sync_chaos_replication_is_lossless(
        seed in 0u64..1_000_000,
        rate in 0.0f64..0.45,
        batch_count in 1usize..5,
    ) {
        check_sync_chaos_lossless(seed, rate, batch_count);
    }
}

// ---------------------------------------------------------------------
// Live servers over TCP.
// ---------------------------------------------------------------------

/// The tentpole, end to end: sync replication, standby catch-up,
/// primary crash, promotion, fenced generations, and zero loss of
/// every acknowledged batch.
#[test]
fn sync_failover_promotes_a_lossless_standby() {
    let primary_dir = scratch("live-p");
    let standby_dir = scratch("live-s");
    let mut primary_pipe = fixture();
    primary_pipe.attach_store_at(&primary_dir).unwrap();
    let mut standby_pipe = fixture();
    standby_pipe.attach_store_at(&standby_dir).unwrap();

    let primary = QaServer::start_primary(
        primary_pipe,
        server_config(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        repl_config(ReplicationMode::Sync { quorum: 1 }),
    )
    .unwrap();
    let repl_addr = primary.replication_addr().unwrap();
    let standby = QaServer::start_standby(
        standby_pipe,
        server_config(),
        "127.0.0.1:0",
        &repl_addr.to_string(),
        repl_config(ReplicationMode::Sync { quorum: 1 }),
    )
    .unwrap();

    let mut client_p = QaClient::connect(primary.local_addr()).unwrap();
    let mut client_s = QaClient::connect(standby.local_addr()).unwrap();

    // Feed batches through the primary until each is acknowledged.
    let pool = questions();
    let mut acked = Vec::new();
    for q in pool.iter().take(3) {
        let batch = vec![q.clone()];
        let response = client_p.feedback_with_retry(&batch, 40).unwrap();
        assert_eq!(
            response.status,
            Status::Ok,
            "feedback refused: {response:?}"
        );
        acked.push(batch);
    }
    let primary_report = report(&mut client_p);
    assert_eq!(primary_report.role, "primary");
    assert_eq!(primary_report.mode, "sync(1)");
    assert!(primary_report.next_seq >= 3);

    // A standby refuses writes with a typed redirect.
    let standby_report = await_catchup(
        &mut client_s,
        primary_report.next_seq,
        Duration::from_secs(10),
    );
    assert_eq!(standby_report.role, "standby");
    let refused = client_s.feedback(&acked[0]).unwrap();
    assert_eq!(refused.status, Status::Busy);
    assert_eq!(refused.reason, Some(BusyReason::NotPrimary));
    // Heartbeats have long since delivered the primary's address.
    assert_eq!(refused.redirect, Some(primary.local_addr().to_string()));

    // Crash the primary (no drain, no flush) and promote the standby.
    let old_pipeline = primary.kill().expect("killed primary returns its pipeline");
    let old_generation = old_pipeline.store().unwrap().generation();
    let promoted = client_s.promote().unwrap();
    assert_eq!(promoted.status, Status::Ok, "promote failed: {promoted:?}");
    let detail = promoted.detail.unwrap_or_default();
    assert!(
        detail.contains("promoted at generation"),
        "unexpected promote detail: {detail}"
    );

    // The promoted standby is a primary now: reads and writes flow.
    let post = report(&mut client_s);
    assert_eq!(post.role, "primary");
    assert!(
        post.generation > old_generation,
        "promotion did not fence: {} <= {old_generation}",
        post.generation
    );
    let write = client_s
        .feedback_with_retry(std::slice::from_ref(&pool[3]), 40)
        .unwrap();
    assert_eq!(
        write.status,
        Status::Ok,
        "promoted standby refused: {write:?}"
    );

    // Zero acknowledged loss, proven by dedup: hand the pipeline back
    // and re-feed every acknowledged batch — all must be no-ops.
    client_s.drain().unwrap();
    let mut survivor = standby.serve().expect("drained standby returns pipeline");
    for batch in &acked {
        let answers = survivor.read_path().answer(&batch[0]);
        let again = survivor.apply_feedback(&answers);
        assert_eq!(again.loaded, 0, "acknowledged batch lost: {:?}", batch);
    }
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&standby_dir);
}

/// Async mode: every acknowledged commit leaves the connected standby
/// within the staleness budget at the moment of the ack.
#[test]
fn async_staleness_stays_within_budget() {
    let primary_dir = scratch("async-p");
    let mut primary_pipe = fixture();
    primary_pipe.attach_store_at(&primary_dir).unwrap();
    let standby_pipe = fixture();

    let budget = 2u64;
    let primary = QaServer::start_primary(
        primary_pipe,
        server_config(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        repl_config(ReplicationMode::Async {
            staleness_budget: budget,
        }),
    )
    .unwrap();
    let repl_addr = primary.replication_addr().unwrap();
    let standby = QaServer::start_standby(
        standby_pipe,
        server_config(),
        "127.0.0.1:0",
        &repl_addr.to_string(),
        repl_config(ReplicationMode::Async {
            staleness_budget: budget,
        }),
    )
    .unwrap();
    let mut client_p = QaClient::connect(primary.local_addr()).unwrap();
    let mut client_s = QaClient::connect(standby.local_addr()).unwrap();

    // Wait for the standby to subscribe so the budget binds.
    let deadline = Instant::now() + Duration::from_secs(10);
    while report(&mut client_p).peers.is_empty() {
        assert!(Instant::now() < deadline, "standby never subscribed");
        std::thread::sleep(Duration::from_millis(10));
    }

    for q in questions().iter().take(4) {
        let response = client_p
            .feedback_with_retry(std::slice::from_ref(q), 40)
            .unwrap();
        assert_eq!(response.status, Status::Ok);
        // Sequential feeding: nothing ships between the ack and this
        // probe, so the policy's bound is still visible.
        let r = report(&mut client_p);
        for peer in &r.peers {
            if peer.connected {
                assert!(
                    peer.lag <= budget,
                    "acked while {} frames behind (budget {budget})",
                    peer.lag
                );
            }
        }
    }

    let target = report(&mut client_p).next_seq;
    await_catchup(&mut client_s, target, Duration::from_secs(10));
    drop(client_p);
    drop(client_s);
    let _ = primary.join();
    let _ = standby.join();
    let _ = std::fs::remove_dir_all(&primary_dir);
}

/// Sync mode with no standby connected: commits are refused with
/// `ReplicationLag` (committed locally, never acknowledged) — the
/// zero-acknowledged-loss guarantee in its purest form.
#[test]
fn sync_quorum_timeout_answers_replication_lag() {
    let primary_dir = scratch("lag-p");
    let mut primary_pipe = fixture();
    primary_pipe.attach_store_at(&primary_dir).unwrap();

    let mut cfg = repl_config(ReplicationMode::Sync { quorum: 1 });
    cfg.ack_timeout = Duration::from_millis(200);
    let primary = QaServer::start_primary(
        primary_pipe,
        server_config(),
        "127.0.0.1:0",
        "127.0.0.1:0",
        cfg,
    )
    .unwrap();
    let mut client = QaClient::connect(primary.local_addr()).unwrap();

    let q = questions().remove(0);
    let response = client.feedback(&[q]).unwrap();
    assert_eq!(response.status, Status::Busy);
    assert_eq!(response.reason, Some(BusyReason::ReplicationLag));
    assert!(response.retry_after_ms.is_some());

    drop(client);
    let _ = primary.kill();
    let _ = std::fs::remove_dir_all(&primary_dir);
}
