//! The service itself: accept loop, connection threads, worker pool,
//! replication wiring, and the graceful drain sequence.
//!
//! Thread layout:
//!
//! * **accept loop** (one thread) — non-blocking accept, polls the
//!   drain flag; on drain it stops accepting, waits the queue idle,
//!   joins the workers, flushes and stops replication, shuts every
//!   client socket, joins the connection threads;
//! * **connection threads** (one per client) — read request lines,
//!   decide admission *inline* (drain check → token bucket → queue
//!   capacity) and answer `stats`/`drain`/`replicas`/`promote`
//!   directly, so backpressure responses never wait behind queued
//!   work;
//! * **workers** (`ServerConfig::workers` threads) — execute admitted
//!   jobs against the shared [`QaEngine`]; feedback jobs additionally
//!   take the pipeline lock for one serialized transaction, and on a
//!   replicating primary block (outside the lock) until the
//!   replication policy lets the commit be acknowledged;
//! * **replication threads** (primary: hub accept + per-peer writer
//!   and ack-reader pairs; standby: one follower) — see
//!   [`crate::repl`].
//!
//! Responses are written wherever they are produced: each client has
//! one write handle behind a mutex, every response is a single
//! `write_all` of one JSON line, so interleaving is line-atomic.

use crate::config::ServerConfig;
use crate::protocol::{
    BusyReason, Command, ProtocolError, ReplicasReport, Request, Response, ServiceStats,
};
use crate::queue::{AdmissionQueue, AdmitError, Job, Work};
use crate::repl::{self, ReplState, ReplicationConfig, Role};
use crate::TokenBucket;
use dwqa_core::IntegrationPipeline;
use dwqa_engine::{QaEngine, QuestionReport, SubmitBatch};
use dwqa_obs::{names, MetricsRegistry};
use dwqa_store::FrameTap;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the accept loop polls for new connections / drain.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

pub(crate) fn relock<'a, T>(mutex: &'a Mutex<T>) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// How a replicated server comes up (internal to the `start_*`
/// constructors).
enum ReplInit {
    /// Ship WAL frames from this server's store to subscribers on
    /// `listener`.
    Primary {
        cfg: ReplicationConfig,
        listener: TcpListener,
    },
    /// Follow the primary's replication endpoint at `primary`.
    Standby {
        cfg: ReplicationConfig,
        primary: String,
    },
}

/// State shared by every service thread.
struct Shared {
    cfg: ServerConfig,
    engine: QaEngine,
    /// Whether the pipeline had a durable store attached at start
    /// (ownership cannot change while the service runs).
    durable: bool,
    /// The write path. `None` once [`QaServer::join`] has reclaimed it.
    /// Shared with the replication threads (hub backlog reads, frame
    /// applies), hence the `Arc`.
    pipeline: Arc<Mutex<Option<IntegrationPipeline>>>,
    queue: AdmissionQueue,
    registry: Arc<MetricsRegistry>,
    /// Set by [`QaServer::drain`] or a wire `drain`; the accept loop
    /// polls it and runs the drain sequence.
    drain_flag: AtomicBool,
    /// Set by [`QaServer::kill`]: skip every grace period in the drain
    /// sequence (crash simulation for failover experiments).
    killed: AtomicBool,
    next_client: AtomicU64,
    /// Replication state, when this server is a primary or standby.
    repl: Option<Arc<ReplState>>,
    /// Per-client write handles; doubles as the connection registry
    /// the drain sequence closes.
    writers: Mutex<HashMap<u64, Arc<Mutex<TcpStream>>>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    worker_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn counter(&self, name: &'static str) {
        self.registry.counter(name).inc();
    }

    fn set_clients_gauge(&self) {
        let clients = relock(&self.writers).len() as u64;
        self.registry.gauge(names::SERVER_CLIENTS).set(clients);
    }

    /// Writes one response line to a client, if it is still connected.
    fn respond(&self, client: u64, response: &Response) {
        let writer = relock(&self.writers).get(&client).cloned();
        let Some(writer) = writer else {
            return; // client left; admitted work still counted as done
        };
        let Ok(mut line) = serde_json::to_string(response) else {
            return;
        };
        line.push('\n');
        let mut stream = relock(&writer);
        let _ = stream.write_all(line.as_bytes());
    }

    fn service_stats(&self) -> ServiceStats {
        let stats = self.engine.stats();
        ServiceStats {
            requests: self.registry.counter_value(names::SERVER_REQUESTS),
            admitted: self.registry.counter_value(names::SERVER_ADMITTED),
            shed: self.registry.counter_value(names::SERVER_SHED),
            rate_limited: self.registry.counter_value(names::SERVER_RATE_LIMITED),
            drained: self.registry.counter_value(names::SERVER_DRAINED),
            completed: self.registry.counter_value(names::SERVER_COMPLETED),
            protocol_errors: self.registry.counter_value(names::SERVER_PROTOCOL_ERRORS),
            disconnects_timeout: self
                .registry
                .counter_value(names::SERVER_DISCONNECTS_TIMEOUT),
            queue_depth: self.queue.depth() as u64,
            clients: self.registry.gauge_value(names::SERVER_CLIENTS),
            questions: stats.questions(),
            cache_hits: stats.cache_hits(),
            cache_misses: stats.cache_misses(),
            cache_entries: self.engine.cache().len() as u64,
            durable: self.durable,
            wal_appends: self.registry.counter_value(names::STORE_WAL_APPENDS),
        }
    }

    /// The `replicas` report: role, mode, position, and peer status.
    fn replicas_report(&self) -> ReplicasReport {
        let Some(state) = &self.repl else {
            return ReplicasReport {
                role: "none".to_owned(),
                mode: "none".to_owned(),
                ..ReplicasReport::default()
            };
        };
        let role = state.role();
        let next_seq = state.next_seq.load(Ordering::SeqCst);
        let lag = match role {
            Role::Standby => Some(
                state
                    .primary_next_seq
                    .load(Ordering::SeqCst)
                    .saturating_sub(next_seq),
            ),
            // A primary's lag story is per-peer; see `peers`.
            Role::Primary => None,
        };
        ReplicasReport {
            role: role.label().to_owned(),
            mode: state.cfg.mode.label(),
            generation: state.generation.load(Ordering::SeqCst),
            next_seq,
            lag,
            primary: relock(&state.primary_addr).clone(),
            peers: state.peer_statuses(),
        }
    }
}

/// The long-lived multi-client QA service. See the crate docs for the
/// protocol and the degradation model, and [`crate::repl`] for the
/// warm-standby replication layer.
pub struct QaServer {
    addr: SocketAddr,
    repl_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl QaServer {
    /// Binds `addr` (use port 0 for an ephemeral port), takes ownership
    /// of the pipeline, and starts the accept loop and worker pool.
    pub fn start(
        pipeline: IntegrationPipeline,
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
    ) -> io::Result<QaServer> {
        QaServer::start_inner(pipeline, cfg, addr, None)
    }

    /// Starts a replicating **primary**: like [`QaServer::start`], plus
    /// a replication hub on `repl_addr` that ships the store's durable
    /// WAL frames to subscribed standbys. Requires a durable pipeline.
    pub fn start_primary(
        pipeline: IntegrationPipeline,
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
        repl_addr: impl ToSocketAddrs,
        repl_cfg: ReplicationConfig,
    ) -> io::Result<QaServer> {
        let listener = TcpListener::bind(repl_addr)?;
        listener.set_nonblocking(true)?;
        let init = ReplInit::Primary {
            cfg: repl_cfg,
            listener,
        };
        QaServer::start_inner(pipeline, cfg, addr, Some(init))
    }

    /// Starts a warm **standby**: serves read-only `ask`/`batch`/`stats`
    /// from its own pipeline, refuses `feedback` with a `NotPrimary`
    /// redirect, and follows `primary` (a replication-endpoint address)
    /// to stay current. The pipeline starts empty — the first subscribe
    /// full-syncs via the primary's checkpoint + WAL backlog.
    pub fn start_standby(
        pipeline: IntegrationPipeline,
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
        primary: &str,
        repl_cfg: ReplicationConfig,
    ) -> io::Result<QaServer> {
        let init = ReplInit::Standby {
            cfg: repl_cfg,
            primary: primary.to_owned(),
        };
        QaServer::start_inner(pipeline, cfg, addr, Some(init))
    }

    fn start_inner(
        mut pipeline: IntegrationPipeline,
        cfg: ServerConfig,
        addr: impl ToSocketAddrs,
        repl_init: Option<ReplInit>,
    ) -> io::Result<QaServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        if let Some(init) = &repl_init {
            let rcfg = match init {
                ReplInit::Primary { cfg, .. } | ReplInit::Standby { cfg, .. } => cfg,
            };
            rcfg.validate()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            if matches!(init, ReplInit::Primary { .. }) && !pipeline.is_durable() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "a replication primary requires a durable pipeline (WAL frames are what ship)",
                ));
            }
        }
        let engine = QaEngine::new(&pipeline)
            .with_workers(cfg.workers)
            .with_cache_capacity(cfg.cache_capacity)
            .with_tracing(cfg.tracing);
        let registry = Arc::clone(engine.stats().registry());

        let mut repl_state = None;
        let mut repl_listener = None;
        let mut follower_primary = None;
        let mut repl_addr = None;
        match repl_init {
            None => {}
            Some(ReplInit::Primary {
                cfg: rcfg,
                listener: rlistener,
            }) => {
                repl_addr = Some(rlistener.local_addr()?);
                let (generation, next_seq) = pipeline
                    .store()
                    .map(|s| (s.generation(), s.next_seq()))
                    .unwrap_or((0, 0));
                let state = Arc::new(ReplState::new(
                    rcfg,
                    Role::Primary,
                    true,
                    addr.to_string(),
                    generation,
                    next_seq,
                    Arc::clone(&registry),
                ));
                // The tap fires inside the store's append/checkpoint,
                // i.e. under the pipeline lock — only durable frames
                // ship, and the hub's subscribe-time backlog reads are
                // race-free against it.
                let tap_state = Arc::clone(&state);
                if let Some(store) = pipeline.store_mut() {
                    store.set_tap(Some(FrameTap::new(move |next_seq, frame| {
                        tap_state.broadcast(next_seq, frame);
                    })));
                }
                repl_listener = Some(rlistener);
                repl_state = Some(state);
            }
            Some(ReplInit::Standby { cfg: rcfg, primary }) => {
                // Position 0 in the *primary's* sequence space: the
                // standby's own store seqs are unrelated, and seq 0
                // asks the primary for a full sync.
                let state = Arc::new(ReplState::new(
                    rcfg,
                    Role::Standby,
                    false,
                    addr.to_string(),
                    0,
                    0,
                    Arc::clone(&registry),
                ));
                follower_primary = Some(primary);
                repl_state = Some(state);
            }
        }

        let shared = Arc::new(Shared {
            queue: AdmissionQueue::new(cfg.queue_capacity),
            cfg,
            engine,
            durable: pipeline.is_durable(),
            pipeline: Arc::new(Mutex::new(Some(pipeline))),
            registry,
            drain_flag: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            next_client: AtomicU64::new(1),
            repl: repl_state,
            writers: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
            worker_threads: Mutex::new(Vec::new()),
        });
        if let Some(state) = &shared.repl {
            if let Some(rlistener) = repl_listener {
                let s = Arc::clone(state);
                let p = Arc::clone(&shared.pipeline);
                state.spawn(move || repl::hub::hub_loop(s, p, rlistener));
            }
            if let Some(primary) = follower_primary {
                let s = Arc::clone(state);
                let p = Arc::clone(&shared.pipeline);
                state.spawn(move || repl::follower::follower_loop(s, p, primary));
            }
        }
        {
            let mut workers = relock(&shared.worker_threads);
            for _ in 0..shared.cfg.workers {
                let shared = Arc::clone(&shared);
                workers.push(std::thread::spawn(move || worker_loop(&shared)));
            }
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, listener))
        };
        Ok(QaServer {
            addr,
            repl_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replication hub's bound address (primaries only).
    pub fn replication_addr(&self) -> Option<SocketAddr> {
        self.repl_addr
    }

    /// This server's current replication role, `None` when replication
    /// is not configured.
    pub fn role(&self) -> Option<Role> {
        self.shared.repl.as_ref().map(|s| s.role())
    }

    /// The engine's metrics registry (admission counters included).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.registry
    }

    /// The engine serving the read path (stats, cache, recorder).
    pub fn engine(&self) -> &QaEngine {
        &self.shared.engine
    }

    /// Begins graceful shutdown: stop admitting, finish every admitted
    /// question, then close sockets. Non-blocking; pair with
    /// [`QaServer::join`].
    pub fn drain(&self) {
        self.shared.drain_flag.store(true, Ordering::SeqCst);
    }

    /// Drains (if not already draining) and blocks until the service
    /// has fully stopped, handing the warehouse pipeline back. On a
    /// replicating primary the drain sequence flushes connected
    /// standbys first, so a drain-handoff promotion loses nothing.
    pub fn join(self) -> Option<IntegrationPipeline> {
        self.drain();
        self.serve()
    }

    /// Stops the service *abruptly*: no queue grace, no replication
    /// flush — the closest a test harness gets to `kill -9` without a
    /// separate process. In-flight work is abandoned mid-commit;
    /// whatever the WAL made durable (and whatever standbys already
    /// applied) is the surviving truth. Failover experiments crash
    /// primaries with this.
    pub fn kill(mut self) -> Option<IntegrationPipeline> {
        self.shared.killed.store(true, Ordering::SeqCst);
        if let Some(state) = &self.shared.repl {
            // Stop replication first so workers blocked in a quorum
            // wait wake immediately instead of timing out.
            state.shutdown();
        }
        self.shared.drain_flag.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        relock(&self.shared.pipeline).take()
    }

    /// Blocks until the service is stopped *by someone else* — a wire
    /// `drain` request or a [`QaServer::drain`] call from another
    /// thread — then hands the pipeline back. Unlike
    /// [`QaServer::join`] this does not initiate the drain itself, so
    /// it is the entry point for running as a long-lived server
    /// process (the REPL's `:serve` command uses it).
    pub fn serve(mut self) -> Option<IntegrationPipeline> {
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        relock(&self.shared.pipeline).take()
    }
}

impl Drop for QaServer {
    fn drop(&mut self) {
        self.drain();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    while !shared.drain_flag.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let client = shared.next_client.fetch_add(1, Ordering::SeqCst);
                match stream.try_clone() {
                    Ok(write_half) => {
                        relock(&shared.writers).insert(client, Arc::new(Mutex::new(write_half)));
                        shared.set_clients_gauge();
                        let shared2 = Arc::clone(shared);
                        let handle =
                            std::thread::spawn(move || connection_loop(&shared2, client, stream));
                        relock(&shared.conn_threads).push(handle);
                    }
                    Err(_) => drop(stream),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    drop(listener); // no new connections from here on

    // Drain sequence: refuse new admissions, let every admitted job
    // finish (feedback transactions commit or roll back inside the
    // jobs themselves), stop the workers, wind down replication, then
    // close client sockets. A kill() skips every grace period.
    let killed = shared.killed.load(Ordering::SeqCst);
    shared.queue.begin_drain();
    if !killed {
        let _idle = shared.queue.await_idle(shared.cfg.drain_grace);
    }
    shared.queue.shutdown();
    for handle in relock(&shared.worker_threads).drain(..) {
        let _ = handle.join();
    }
    if let Some(state) = &shared.repl {
        if !killed {
            // Drain-handoff: give connected standbys one ack_timeout
            // to confirm everything shipped, so promoting one of them
            // immediately afterwards loses nothing.
            state.flush(state.cfg.ack_timeout);
        }
        state.shutdown();
        state.join_threads();
    }
    for (_client, writer) in relock(&shared.writers).drain() {
        let _ = relock(&writer).shutdown(Shutdown::Both);
    }
    shared.registry.gauge(names::SERVER_CLIENTS).set(0);
    for handle in relock(&shared.conn_threads).drain(..) {
        let _ = handle.join();
    }
}

fn connection_loop(shared: &Arc<Shared>, client: u64, stream: TcpStream) {
    // A hung (or slow-loris) client must not pin this thread or stall
    // the drain sequence's connection join: reads carry a deadline, and
    // a read that times out before a full request line arrives breaks
    // the loop and disconnects the client (counted, so operators can
    // tell timeouts from ordinary hangups).
    let _ = stream.set_read_timeout(shared.cfg.read_timeout);
    let mut bucket = TokenBucket::new(
        shared.cfg.rate_burst,
        shared.cfg.rate_per_sec,
        Instant::now(),
    );
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => break, // EOF: client hung up
            Ok(_) => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                shared.counter(names::SERVER_DISCONNECTS_TIMEOUT);
                break;
            }
            Err(_) => break,
        }
        if line.trim().is_empty() {
            continue;
        }
        shared.counter(names::SERVER_REQUESTS);
        let request: Request = match serde_json::from_str(&line) {
            Ok(request) => request,
            Err(e) => {
                shared.counter(names::SERVER_PROTOCOL_ERRORS);
                let err = ProtocolError::Malformed(e.to_string());
                shared.respond(client, &Response::error(0, err.to_string()));
                continue;
            }
        };
        let command = match request.validate(shared.cfg.max_batch) {
            Ok(command) => command,
            Err(err) => {
                shared.counter(names::SERVER_PROTOCOL_ERRORS);
                shared.respond(client, &Response::error(request.id, err.to_string()));
                continue;
            }
        };
        // Per-request span covering the admission decision; the
        // engine's own `question` spans cover worker execution. (No
        // nesting: workers run on their own threads.)
        let label = format!("client {client} req {} {}", request.id, request.kind);
        let _span = dwqa_obs::observe(
            Some(Arc::clone(&shared.registry)),
            Some(shared.engine.tracer()),
            "request",
            &label,
        );
        match command {
            Command::Stats => {
                shared.respond(client, &Response::stats(request.id, shared.service_stats()));
            }
            Command::Replicas => {
                shared.respond(
                    client,
                    &Response::replicas(request.id, shared.replicas_report()),
                );
            }
            Command::Promote => {
                shared.respond(client, &promote_response(shared, request.id));
            }
            Command::Drain => {
                shared.respond(client, &Response::ack(request.id));
                shared.drain_flag.store(true, Ordering::SeqCst);
            }
            Command::Ask {
                question,
                deadline_ms,
            } => {
                let work = Work::Ask { question };
                admit(shared, client, &mut bucket, request.id, work, deadline_ms);
            }
            Command::Batch {
                questions,
                deadline_ms,
            } => {
                let work = Work::Batch { questions };
                admit(shared, client, &mut bucket, request.id, work, deadline_ms);
            }
            Command::Feedback { questions } => {
                // A standby owns no write path: refuse before admission
                // with the primary's address (learned from heartbeats)
                // so clients can redirect instead of retrying here.
                if let Some(state) = &shared.repl {
                    if state.role() != Role::Primary {
                        let redirect = relock(&state.primary_addr).clone();
                        shared.respond(client, &Response::not_primary(request.id, redirect));
                        continue;
                    }
                }
                let work = Work::Feedback { questions };
                admit(shared, client, &mut bucket, request.id, work, None);
            }
        }
    }
    relock(&shared.writers).remove(&client);
    shared.set_clients_gauge();
}

/// Handles a wire `promote`: flips a standby to primary (fencing the
/// old primary's generation), idempotent on an existing primary.
fn promote_response(shared: &Shared, request_id: u64) -> Response {
    let Some(state) = &shared.repl else {
        return Response::error(request_id, "replication not configured");
    };
    match state.role() {
        Role::Primary => {
            let mut response = Response::ack(request_id);
            response.detail = Some("already primary".to_owned());
            response
        }
        Role::Standby => match repl::promote(state, &shared.pipeline) {
            Ok(generation) => {
                let mut response = Response::ack(request_id);
                response.detail = Some(format!("promoted at generation {generation}"));
                response
            }
            Err(e) => Response::error(request_id, format!("promotion failed: {e}")),
        },
    }
}

/// The inline admission decision: drain check → token bucket → queue
/// capacity. Every refusal is an explicit `Busy` response.
fn admit(
    shared: &Shared,
    client: u64,
    bucket: &mut TokenBucket,
    request_id: u64,
    work: Work,
    deadline_ms: Option<u64>,
) {
    let now = Instant::now();
    if let Err(wait) = bucket.try_take(now) {
        shared.counter(names::SERVER_RATE_LIMITED);
        let hint = wait.as_millis().max(1) as u64;
        shared.respond(
            client,
            &Response::busy(request_id, BusyReason::RateLimited, Some(hint)),
        );
        return;
    }
    let deadline = deadline_ms
        .map(Duration::from_millis)
        .or(shared.cfg.default_deadline)
        .map(|budget| now + budget);
    let job = Job {
        client,
        request_id,
        work,
        admitted_at: now,
        deadline,
    };
    match shared.queue.try_admit(job) {
        Ok(depth) => {
            shared.counter(names::SERVER_ADMITTED);
            shared
                .registry
                .gauge(names::SERVER_QUEUE_DEPTH)
                .set(depth as u64);
        }
        Err(AdmitError::AtCapacity { depth }) => {
            shared.counter(names::SERVER_SHED);
            // Scale the hint by how many queue slots each worker has
            // to clear before a retry could be admitted.
            let backlog = (depth / shared.cfg.workers).max(1) as u32;
            let hint = (shared.cfg.shed_retry_after * backlog).as_millis().max(1) as u64;
            shared.respond(
                client,
                &Response::busy(request_id, BusyReason::Shed, Some(hint)),
            );
        }
        Err(AdmitError::Draining) => {
            shared.counter(names::SERVER_DRAINED);
            shared.respond(
                client,
                &Response::busy(request_id, BusyReason::Draining, None),
            );
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.next() {
        shared
            .registry
            .histogram(names::SERVER_QUEUE_WAIT)
            .record(job.admitted_at.elapsed());
        shared
            .registry
            .gauge(names::SERVER_QUEUE_DEPTH)
            .set(shared.queue.depth() as u64);
        let response = execute(shared, &job);
        shared.respond(job.client, &response);
        shared
            .registry
            .histogram(names::SERVER_SERVICE_TIME)
            .record(job.admitted_at.elapsed());
        shared.counter(names::SERVER_COMPLETED);
        shared.queue.done();
    }
}

fn unpack(
    reports: Vec<QuestionReport>,
) -> (Vec<Vec<dwqa_qa::Answer>>, Vec<String>, Option<String>) {
    let outcomes = reports
        .iter()
        .map(|r| r.outcome.label().to_owned())
        .collect();
    let detail = reports
        .iter()
        .filter_map(|r| r.detail.clone())
        .collect::<Vec<_>>()
        .join("; ");
    let answers = reports.into_iter().map(|r| r.answers).collect();
    (answers, outcomes, (!detail.is_empty()).then_some(detail))
}

fn execute(shared: &Shared, job: &Job) -> Response {
    match &job.work {
        Work::Ask { question } => {
            let report = shared.engine.answer_checked_by(question, job.deadline);
            let (answers, outcomes, detail) = unpack(vec![report]);
            Response::answers(job.request_id, answers, outcomes, detail)
        }
        Work::Batch { questions } => {
            let reports: Vec<QuestionReport> = questions
                .iter()
                .map(|q| shared.engine.answer_checked_by(q, job.deadline))
                .collect();
            let (answers, outcomes, detail) = unpack(reports);
            Response::answers(job.request_id, answers, outcomes, detail)
        }
        Work::Feedback { questions } => {
            // The commit happens under the pipeline lock; the
            // replication wait happens *outside* it, so standby
            // catch-up never blocks other workers.
            let (response, target) = {
                let mut guard = relock(&shared.pipeline);
                match guard.as_mut() {
                    Some(pipeline) => {
                        let report = pipeline.submit_batch_with(&shared.engine, questions);
                        let outcomes = report
                            .outcomes
                            .iter()
                            .map(|o| o.label().to_owned())
                            .collect();
                        let mut response = Response::fed(
                            job.request_id,
                            report.answers,
                            outcomes,
                            report.feed.loaded as u64,
                            report.feed.duplicates_skipped as u64,
                        );
                        if report.rolled_back {
                            response.detail = Some("feed transaction rolled back".to_owned());
                        }
                        let target = pipeline.store().map(|s| s.next_seq());
                        (response, target)
                    }
                    None => (Response::error(job.request_id, "service stopped"), None),
                }
            };
            if let (Some(state), Some(target)) = (&shared.repl, target) {
                if response.is_ok() && !state.replication_wait(target) {
                    // Committed locally but not replicated to policy:
                    // answer busy so the client retries — the retry
                    // deduplicates, and sync mode thus never
                    // acknowledges what a failover could lose.
                    shared.counter(names::REPL_QUORUM_TIMEOUTS);
                    return Response::busy(job.request_id, BusyReason::ReplicationLag, Some(50));
                }
            }
            response
        }
    }
}
