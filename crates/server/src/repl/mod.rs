//! Warm-standby replication: WAL shipping, failure detection, and
//! promotion (DESIGN.md §15).
//!
//! A **primary** [`crate::QaServer`] taps its feedback store's durable
//! frames (`dwqa_store::FrameTap`) and ships them verbatim over a TCP
//! replication link to N **standbys**. Each standby replays the frames
//! into its own pipeline — serving read-only `ask`/`batch`/`stats`
//! while refusing `feedback` with a typed `NotPrimary` redirect — and
//! acknowledges its applied position. Two modes:
//!
//! * **sync(quorum)** — a feedback commit is acknowledged to the
//!   client only after `quorum` standbys have applied it: zero
//!   acknowledged-feedback loss across a primary crash. A quorum
//!   timeout answers `busy`/`ReplicationLag` (committed locally, *not*
//!   acknowledged; the retry deduplicates).
//! * **async(budget)** — commits acknowledge immediately while the
//!   worst connected standby stays within `budget` frames; beyond it,
//!   commits block (backpressure) so staleness stays bounded.
//!
//! A standby is promoted by drain-handoff (the `promote` verb) or by
//! the seeded failure detector: sustained heartbeat silence *and* a
//! failed reconnect (a live primary always accepts reconnects, so link
//! chaos alone never false-promotes). Promotion bumps the store
//! generation above everything the old primary ever stamped, so a
//! resurrected old primary is fenced out by the existing
//! stale-generation logic.
//!
//! The link runs under the seeded [`LinkPlan`] chaos layer (drops,
//! delays, torn frames, duplicates, half-open stalls); followers
//! recover by resubscribing from their own applied sequence and
//! deduplicate by frame sequence number, so chaos costs latency, never
//! correctness.

pub(crate) mod follower;
pub(crate) mod hub;
mod link;

use crate::protocol::PeerStatus;
use dwqa_common::ConfigError;
use dwqa_core::IntegrationPipeline;
use dwqa_obs::{names, MetricsRegistry};
pub use link::{LinkAction, LinkDecision, LinkFault, LinkPlan};
use std::collections::VecDeque;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest frame a follower will buffer off the link (checkpoint
/// snapshots ride the link on catch-up, so this is well above the
/// store's per-record ceiling).
pub(crate) const MAX_LINK_FRAME: usize = 256 << 20;

pub(crate) fn relock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Which side of the replication link a server is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts `feedback`, ships WAL frames to standbys.
    Primary,
    /// Applies shipped frames, serves reads, refuses `feedback`.
    Standby,
}

impl Role {
    /// `primary` / `standby`.
    pub fn label(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Standby => "standby",
        }
    }
}

/// When a feedback commit is acknowledged relative to replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// Ack only after `quorum` standbys applied the commit.
    Sync {
        /// Standbys that must apply before the client sees `ok`.
        quorum: usize,
    },
    /// Ack immediately while the worst connected standby is within
    /// `staleness_budget` frames; block (backpressure) beyond it.
    Async {
        /// Maximum frames a connected standby may lag.
        staleness_budget: u64,
    },
}

impl ReplicationMode {
    /// `sync(q)` / `async(b)` for reports.
    pub fn label(&self) -> String {
        match self {
            ReplicationMode::Sync { quorum } => format!("sync({quorum})"),
            ReplicationMode::Async { staleness_budget } => format!("async({staleness_budget})"),
        }
    }
}

/// Replication knobs, validated by [`ReplicationConfig::validate`] /
/// the builder.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Sync quorum or async staleness budget.
    pub mode: ReplicationMode,
    /// How often an idle primary sends a heartbeat per peer.
    pub heartbeat_interval: Duration,
    /// Silence longer than this marks the primary suspect (and bounds
    /// a follower's blocking reads).
    pub heartbeat_timeout: Duration,
    /// How long a sync commit waits for its quorum before answering
    /// `busy`/`ReplicationLag`.
    pub ack_timeout: Duration,
    /// Pause between a follower's reconnect attempts.
    pub reconnect_backoff: Duration,
    /// Seeded chaos plan for the link (None = clean link).
    pub link_fault: Option<LinkPlan>,
    /// Whether a standby promotes itself when the failure detector
    /// fires (silence + failed reconnect).
    pub auto_promote: bool,
}

impl Default for ReplicationConfig {
    fn default() -> ReplicationConfig {
        ReplicationConfig {
            mode: ReplicationMode::Sync { quorum: 1 },
            heartbeat_interval: Duration::from_millis(40),
            heartbeat_timeout: Duration::from_millis(250),
            ack_timeout: Duration::from_secs(2),
            reconnect_backoff: Duration::from_millis(20),
            link_fault: None,
            auto_promote: false,
        }
    }
}

impl ReplicationConfig {
    /// A builder over the defaults.
    pub fn builder() -> ReplicationConfigBuilder {
        ReplicationConfigBuilder {
            cfg: ReplicationConfig::default(),
        }
    }

    /// Checks every knob, naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self.mode {
            ReplicationMode::Sync { quorum: 0 } => {
                return Err(ConfigError::new("quorum", "must be at least 1"));
            }
            ReplicationMode::Async {
                staleness_budget: 0,
            } => {
                return Err(ConfigError::new("staleness_budget", "must be at least 1"));
            }
            _ => {}
        }
        if self.heartbeat_interval.is_zero() {
            return Err(ConfigError::new("heartbeat_interval", "must be non-zero"));
        }
        if self.heartbeat_timeout <= self.heartbeat_interval {
            return Err(ConfigError::new(
                "heartbeat_timeout",
                "must exceed heartbeat_interval",
            ));
        }
        if self.ack_timeout.is_zero() {
            return Err(ConfigError::new("ack_timeout", "must be non-zero"));
        }
        if self.reconnect_backoff.is_zero() {
            return Err(ConfigError::new("reconnect_backoff", "must be non-zero"));
        }
        Ok(())
    }
}

/// Builder for [`ReplicationConfig`]; `build` validates.
#[derive(Debug, Clone)]
pub struct ReplicationConfigBuilder {
    cfg: ReplicationConfig,
}

impl ReplicationConfigBuilder {
    /// Sets the replication mode.
    pub fn mode(mut self, mode: ReplicationMode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Sets the heartbeat interval.
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.cfg.heartbeat_interval = interval;
        self
    }

    /// Sets the heartbeat (failure-suspicion) timeout.
    pub fn heartbeat_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.heartbeat_timeout = timeout;
        self
    }

    /// Sets the sync-quorum ack timeout.
    pub fn ack_timeout(mut self, timeout: Duration) -> Self {
        self.cfg.ack_timeout = timeout;
        self
    }

    /// Sets the follower reconnect backoff.
    pub fn reconnect_backoff(mut self, backoff: Duration) -> Self {
        self.cfg.reconnect_backoff = backoff;
        self
    }

    /// Arms the seeded link-chaos layer.
    pub fn link_fault(mut self, plan: Option<LinkPlan>) -> Self {
        self.cfg.link_fault = plan;
        self
    }

    /// Enables the seeded failure detector on a standby.
    pub fn auto_promote(mut self, enabled: bool) -> Self {
        self.cfg.auto_promote = enabled;
        self
    }

    /// Validates and returns the config.
    pub fn build(self) -> Result<ReplicationConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// One standby as the primary's hub tracks it: a frame queue its
/// writer thread drains, its acknowledged position, and the socket
/// (kept for shutdown).
pub(crate) struct Peer {
    pub(crate) addr: String,
    queue: Mutex<VecDeque<Vec<u8>>>,
    wake: Condvar,
    pub(crate) acked: AtomicU64,
    pub(crate) connected: AtomicBool,
    socket: TcpStream,
}

impl Peer {
    pub(crate) fn new(addr: String, backlog: Vec<Vec<u8>>, socket: TcpStream) -> Peer {
        Peer {
            addr,
            queue: Mutex::new(backlog.into()),
            wake: Condvar::new(),
            acked: AtomicU64::new(0),
            connected: AtomicBool::new(true),
            socket,
        }
    }

    pub(crate) fn push(&self, frame: Vec<u8>) {
        relock(&self.queue).push_back(frame);
        self.wake.notify_all();
    }

    /// Pops the next queued frame, waiting up to `timeout`.
    pub(crate) fn pop_wait(&self, timeout: Duration) -> Option<Vec<u8>> {
        let mut queue = relock(&self.queue);
        if let Some(frame) = queue.pop_front() {
            return Some(frame);
        }
        let (mut queue, _) = self
            .wake
            .wait_timeout(queue, timeout)
            .unwrap_or_else(|e| e.into_inner());
        queue.pop_front()
    }

    /// A second handle on the peer socket for the writer thread (the
    /// original stays with the ack reader).
    pub(crate) fn writer_clone(&self) -> Option<TcpStream> {
        self.socket.try_clone().ok()
    }

    pub(crate) fn disconnect(&self) {
        self.connected.store(false, Ordering::SeqCst);
        let _ = self.socket.shutdown(Shutdown::Both);
        self.wake.notify_all();
    }
}

/// Shared replication state: role, position, peers, and the ack
/// signal the sync write path blocks on.
pub(crate) struct ReplState {
    pub(crate) cfg: ReplicationConfig,
    role: AtomicU8,
    /// Highest store generation seen (primary: its own; standby: the
    /// max over received frames — the promotion fence floor).
    pub(crate) generation: AtomicU64,
    /// Replication position: the primary's shipped `next_seq`, or a
    /// standby's applied-from-primary `next_seq`.
    pub(crate) next_seq: AtomicU64,
    /// Standby: the primary's position from the last heartbeat.
    pub(crate) primary_next_seq: AtomicU64,
    /// Standby: the primary's advertised client address (the
    /// `NotPrimary` redirect), learned from heartbeats.
    pub(crate) primary_addr: Mutex<Option<String>>,
    /// True on a primary that runs a shipping hub (quorum enforced).
    /// A promoted standby runs standalone-durable (no hub): reads and
    /// writes flow, but no quorum is awaited — honest degraded mode.
    pub(crate) hub: bool,
    /// This server's client address (heartbeat payload).
    pub(crate) advertised: String,
    pub(crate) peers: Mutex<Vec<Arc<Peer>>>,
    ack_lock: Mutex<()>,
    ack_signal: Condvar,
    pub(crate) stop: AtomicBool,
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) threads: Mutex<Vec<JoinHandle<()>>>,
    pub(crate) link_fault: Option<Mutex<LinkFault>>,
}

impl ReplState {
    pub(crate) fn new(
        cfg: ReplicationConfig,
        role: Role,
        hub: bool,
        advertised: String,
        generation: u64,
        next_seq: u64,
        registry: Arc<MetricsRegistry>,
    ) -> ReplState {
        let link_fault = cfg.link_fault.map(|plan| Mutex::new(LinkFault::new(plan)));
        ReplState {
            cfg,
            role: AtomicU8::new(match role {
                Role::Primary => 0,
                Role::Standby => 1,
            }),
            generation: AtomicU64::new(generation),
            next_seq: AtomicU64::new(next_seq),
            primary_next_seq: AtomicU64::new(0),
            primary_addr: Mutex::new(None),
            hub,
            advertised,
            peers: Mutex::new(Vec::new()),
            ack_lock: Mutex::new(()),
            ack_signal: Condvar::new(),
            stop: AtomicBool::new(false),
            registry,
            threads: Mutex::new(Vec::new()),
            link_fault,
        }
    }

    pub(crate) fn role(&self) -> Role {
        match self.role.load(Ordering::SeqCst) {
            0 => Role::Primary,
            _ => Role::Standby,
        }
    }

    pub(crate) fn set_role(&self, role: Role) {
        self.role.store(
            match role {
                Role::Primary => 0,
                Role::Standby => 1,
            },
            Ordering::SeqCst,
        );
    }

    pub(crate) fn counter(&self, name: &'static str) {
        self.registry.counter(name).inc();
    }

    pub(crate) fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// The [`dwqa_store::FrameTap`] body: fans a durable frame out to
    /// every connected peer's queue, then advances the shipped
    /// position. Runs under the pipeline lock (the store invokes taps
    /// inside `append`/`checkpoint`), which is exactly what makes
    /// subscribe-time backlog reads race-free: a frame is either in
    /// the backlog a new peer is seeded with, or broadcast to it here
    /// — never neither, never both.
    pub(crate) fn broadcast(&self, next_seq: u64, frame: &[u8]) {
        if frame.len() >= 20 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&frame[12..20]);
            self.generation
                .fetch_max(u64::from_le_bytes(word), Ordering::SeqCst);
        }
        for peer in relock(&self.peers).iter() {
            if peer.connected.load(Ordering::SeqCst) {
                peer.push(frame.to_vec());
            }
        }
        self.next_seq.fetch_max(next_seq, Ordering::SeqCst);
    }

    /// Registers a freshly subscribed peer. Must be called under the
    /// pipeline lock, with `backlog` read under that same lock.
    pub(crate) fn register_peer(&self, peer: &Arc<Peer>) {
        relock(&self.peers).push(Arc::clone(peer));
    }

    pub(crate) fn remove_peer(&self, peer: &Arc<Peer>) {
        peer.disconnect();
        relock(&self.peers).retain(|p| !Arc::ptr_eq(p, peer));
        self.notify_acks();
        self.update_lag_gauge();
    }

    /// Records a standby's acknowledged position and wakes any commit
    /// blocked on the quorum.
    pub(crate) fn record_ack(&self, peer: &Peer, acked: u64) {
        peer.acked.fetch_max(acked, Ordering::SeqCst);
        self.counter(names::REPL_ACKS);
        self.notify_acks();
        self.update_lag_gauge();
    }

    pub(crate) fn notify_acks(&self) {
        let _guard = relock(&self.ack_lock);
        self.ack_signal.notify_all();
    }

    fn min_connected_acked(&self) -> Option<u64> {
        relock(&self.peers)
            .iter()
            .filter(|p| p.connected.load(Ordering::SeqCst))
            .map(|p| p.acked.load(Ordering::SeqCst))
            .min()
    }

    fn acked_count(&self, target: u64) -> usize {
        relock(&self.peers)
            .iter()
            .filter(|p| {
                p.connected.load(Ordering::SeqCst) && p.acked.load(Ordering::SeqCst) >= target
            })
            .count()
    }

    pub(crate) fn update_lag_gauge(&self) {
        let next = self.next_seq.load(Ordering::SeqCst);
        let lag = self
            .min_connected_acked()
            .map_or(0, |min| next.saturating_sub(min));
        self.registry.gauge(names::REPL_LAG).set(lag);
    }

    /// Blocks a committed feedback transaction until replication
    /// policy allows acknowledging it: sync — `quorum` peers applied
    /// up to `target`; async — every connected peer is within the
    /// staleness budget. Returns `false` on timeout or shutdown (the
    /// commit stands locally; the caller answers `ReplicationLag`).
    pub(crate) fn replication_wait(&self, target: u64) -> bool {
        if !self.hub {
            return true;
        }
        let deadline = Instant::now() + self.cfg.ack_timeout;
        let mut guard = relock(&self.ack_lock);
        loop {
            if self.stopping() {
                return false;
            }
            let satisfied = match self.cfg.mode {
                ReplicationMode::Sync { quorum } => self.acked_count(target) >= quorum,
                ReplicationMode::Async { staleness_budget } => {
                    match self.min_connected_acked() {
                        // Bounded staleness binds live links only: with
                        // no standby connected there is nothing to lag.
                        None => true,
                        Some(min) => target.saturating_sub(min) <= staleness_budget,
                    }
                }
            };
            if satisfied {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            // Cap each wait so peer disconnects (which change the
            // answer without an ack arriving) are noticed promptly.
            let wait = (deadline - now).min(Duration::from_millis(20));
            let (g, _) = self
                .ack_signal
                .wait_timeout(guard, wait)
                .unwrap_or_else(|e| e.into_inner());
            guard = g;
        }
    }

    /// Drain-handoff flush: waits (bounded) until every connected peer
    /// acknowledged the current shipped position, so a standby
    /// promoted right after a graceful drain has everything.
    pub(crate) fn flush(&self, timeout: Duration) {
        let target = self.next_seq.load(Ordering::SeqCst);
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline && !self.stopping() {
            let peers = relock(&self.peers);
            let connected = peers
                .iter()
                .filter(|p| p.connected.load(Ordering::SeqCst))
                .collect::<Vec<_>>();
            let all_caught_up = connected
                .iter()
                .all(|p| p.acked.load(Ordering::SeqCst) >= target);
            drop(peers);
            if all_caught_up {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Per-peer shipping status for the `replicas` report.
    pub(crate) fn peer_statuses(&self) -> Vec<PeerStatus> {
        let next = self.next_seq.load(Ordering::SeqCst);
        relock(&self.peers)
            .iter()
            .map(|p| {
                let acked = p.acked.load(Ordering::SeqCst);
                PeerStatus {
                    addr: p.addr.clone(),
                    acked_seq: acked,
                    lag: next.saturating_sub(acked),
                    connected: p.connected.load(Ordering::SeqCst),
                }
            })
            .collect()
    }

    /// Stops every replication thread: sets the stop flag, closes peer
    /// sockets, and wakes all waiters. Idempotent; joining is separate
    /// ([`ReplState::join_threads`]).
    pub(crate) fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for peer in relock(&self.peers).iter() {
            peer.disconnect();
        }
        self.notify_acks();
    }

    pub(crate) fn join_threads(&self) {
        // Subscriber threads spawn ack-reader threads, so new handles
        // can land while joining; loop until the list stays empty.
        loop {
            let handles: Vec<JoinHandle<()>> = relock(&self.threads).drain(..).collect();
            if handles.is_empty() {
                return;
            }
            for handle in handles {
                let _ = handle.join();
            }
        }
    }

    pub(crate) fn spawn(self: &Arc<Self>, f: impl FnOnce() + Send + 'static) {
        let handle = std::thread::spawn(f);
        relock(&self.threads).push(handle);
    }
}

/// Promotes a standby to primary: flips the role (so in-flight applies
/// halt), fences the generation above everything the old primary ever
/// stamped, and checkpoints the current state as the new recovery
/// base. Returns the fenced generation.
pub(crate) fn promote(
    state: &ReplState,
    pipeline: &Mutex<Option<IntegrationPipeline>>,
) -> Result<u64, String> {
    // Role first: the follower re-checks it under the pipeline lock
    // before every apply, so no old-primary frame lands after this.
    state.set_role(Role::Primary);
    let floor = state.generation.load(Ordering::SeqCst);
    let mut guard = relock(pipeline);
    let Some(p) = guard.as_mut() else {
        return Err("service stopped".to_owned());
    };
    match p.promote_generation(floor) {
        Ok(generation) => {
            state.generation.store(generation, Ordering::SeqCst);
            state.counter(names::REPL_PROMOTIONS);
            Ok(generation)
        }
        Err(e) => Err(e.to_string()),
    }
}
