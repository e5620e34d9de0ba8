//! Load generators over the product's own `QaClient`: an open loop
//! (fixed arrival rate on one connection, latency timed from the due
//! time) and a closed loop (each connection waits for its reply).

use crate::fixture::Question;
use crate::hostspeed;
use crate::spans::SpanLog;
use crate::stats::{due_at, Rng, Summary, Zipf};
use dwqa_qa::Answer;
use dwqa_server::{QaClient, Request, Response, ServerConfig, Status};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The service configuration of every TCP workload: two workers on the
/// 2-core host, rate limiter wide open, a queue deep enough that nothing
/// is shed, tracing off.
pub fn server_config() -> ServerConfig {
    ServerConfig::builder()
        .workers(2)
        .queue_capacity(1024)
        .rate_burst(u32::MAX)
        .rate_per_sec(1e9)
        .tracing(false)
        .drain_grace(Duration::from_secs(30))
        .build()
        .unwrap_or_else(|e| panic!("server config: {e}"))
}

/// How a stream draws its questions.
#[derive(Clone, Copy)]
pub enum Mix<'a> {
    /// Uniform over the slice.
    Uniform(&'a [Question]),
    /// Zipf over the slice, rank 0 hottest.
    Skewed(&'a [Question], &'a Zipf),
}

impl<'a> Mix<'a> {
    pub fn pick(&self, rng: &mut Rng) -> &'a Question {
        match self {
            Mix::Uniform(pool) => &pool[rng.below(pool.len())],
            Mix::Skewed(pool, zipf) => &pool[zipf.sample(rng)],
        }
    }
}

/// Operations attempted, failed (by kind) and scored against the truth.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub busy: u64,
    pub errors: u64,
    pub io: u64,
    /// Answers compared with the ground truth, and how many were right.
    pub scored: u64,
    pub right: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.busy + self.errors + self.io
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.busy += other.busy;
        self.errors += other.errors;
        self.io += other.io;
        self.scored += other.scored;
        self.right += other.right;
    }

    pub fn accuracy(&self) -> f64 {
        self.right as f64 / self.scored.max(1) as f64
    }
}

/// How many distinct questions a stream keeps the first top answer of,
/// for the stability check and the in-process reference comparison.
const REMEMBERED: usize = 512;

/// Scores `ask` responses of one stream: against the ground truth, and
/// against each other — a question's top answer must not change between
/// a computed and a cached response.
#[derive(Debug, Default)]
pub struct Scorer {
    pub tally: Tally,
    /// First top answer seen per question (keyed by its text).
    pub first_top: HashMap<String, Option<Answer>>,
    /// Responses whose top answer differed from the first one seen.
    pub unstable: u64,
}

impl Scorer {
    /// Scores one `ask` response; returns whether it was an `ok`.
    fn score(&mut self, question: &Question, response: &Response) -> bool {
        match response.status {
            Status::Ok => {
                let answers = response
                    .answers
                    .as_ref()
                    .and_then(|per_question| per_question.first());
                self.tally.scored += 1;
                if answers.is_some_and(|a| question.top_is_right(a)) {
                    self.tally.right += 1;
                }
                let top = answers.and_then(|a| a.first());
                match self.first_top.get(&question.text) {
                    Some(first) if first.as_ref() != top => self.unstable += 1,
                    Some(_) => {}
                    None if self.first_top.len() < REMEMBERED => {
                        self.first_top.insert(question.text.clone(), top.cloned());
                    }
                    None => {}
                }
                true
            }
            Status::Busy => {
                self.tally.busy += 1;
                false
            }
            Status::Error => {
                self.tally.errors += 1;
                false
            }
        }
    }

    pub fn absorb(&mut self, other: Scorer) {
        self.tally.absorb(&other.tally);
        self.unstable += other.unstable;
        for (text, top) in other.first_top {
            match self.first_top.get(&text) {
                Some(first) => {
                    if *first != top {
                        self.unstable += 1;
                    }
                }
                None => {
                    self.first_top.insert(text, top);
                }
            }
        }
    }

    /// Compares every remembered top answer with what the QA system
    /// returns when called directly, bypassing server, engine and cache;
    /// returns how many differ.
    pub fn differing_from_reference(&self, qa: &dwqa_qa::AliQAn) -> usize {
        self.first_top
            .iter()
            .filter(|(text, top)| qa.answer(text).first() != top.as_ref())
            .count()
    }
}

/// An open-loop stream's schedule and how its generator keeps it.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals {
    /// Requests falling due per second.
    pub rate: f64,
    pub in_flight: InFlight,
    pub wait: Wait,
}

/// How an open-loop generator waits for a due time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Spins. The generator keeps one of the host's two cores, as a
    /// client on a machine of its own would, and the server's threads
    /// share the other: a generator that sleeps between requests shares
    /// cores with them, and on which core each wakes then moves a cached
    /// `ask` between 0.07 and 0.20 ms for seconds at a time.
    Spin,
    /// Sleeps until 150 µs before the due time, then spins
    /// (`thread::sleep` alone overshoots by more than a cached `ask`
    /// takes): for a generator that runs beside the load it is not.
    Sleep,
}

impl Wait {
    fn until(self, deadline: Instant) {
        const MARGIN: Duration = Duration::from_micros(150);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let left = deadline - now;
            if self == Wait::Sleep && left > MARGIN {
                std::thread::sleep(left - MARGIN);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// What one open-loop stream observed.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Due time → response read, per `ok` request.
    pub latencies_ns: Vec<u64>,
    /// Due time → request about to be written, every request.
    pub late_ns: Vec<u64>,
    /// The same, for requests written right after the generator waited
    /// for their due time: its own lateness, not time spent blocked on
    /// the server.
    pub late_idle_ns: Vec<u64>,
    pub scorer: Scorer,
    pub elapsed_s: f64,
}

impl OpenLoop {
    pub fn latency(&self) -> Summary {
        Summary::of(&self.latencies_ns)
    }

    /// Appends another stream's observations (a later round).
    pub fn absorb(&mut self, other: OpenLoop) {
        self.latencies_ns.extend(other.latencies_ns);
        self.late_ns.extend(other.late_ns);
        self.late_idle_ns.extend(other.late_idle_ns);
        self.scorer.absorb(other.scorer);
        self.elapsed_s += other.elapsed_s;
    }

    /// One line on how late the generator ran.
    pub fn render_generator(&self) -> String {
        let all = Summary::of(&self.late_ns);
        let own = Summary::of(&self.late_idle_ns);
        format!(
            "generator: sent={} late p50 {:.1} us p99 {:.1} us | woken for the due time p50 {:.1} us p95 {:.1} us (n={})",
            all.n,
            all.p50_us(),
            all.p99_us(),
            own.p50_us(),
            own.p95_us(),
            own.n
        )
    }

    /// Whether the generator kept its schedule: at the median, its own
    /// lateness (woken for a due time, nothing outstanding) must stay
    /// within a tenth of the latency it reports. Lateness is never
    /// hidden — the latency clock starts at the due time — so a late
    /// generator overstates latency; past this limit the figure says
    /// more about the generator than about the system.
    pub fn generator_ok(&self) -> bool {
        Summary::of(&self.late_idle_ns).p50_ns * 10 <= self.latency().p50_ns
    }
}

/// Requests a stream asks, untimed, on a connection it has just opened:
/// the first ones pay for the accept and the connection's thread.
const CONNECTION_WARMUP: usize = 8;

/// Asks [`CONNECTION_WARMUP`] questions and scores them, untimed; returns
/// false when the connection failed.
fn warm_connection(
    client: &mut QaClient,
    mix: Mix<'_>,
    rng: &mut Rng,
    scorer: &mut Scorer,
) -> bool {
    for _ in 0..CONNECTION_WARMUP {
        let question = mix.pick(rng);
        scorer.tally.attempted += 1;
        match client.ask(&question.text) {
            Ok(response) => {
                scorer.score(question, &response);
            }
            Err(_) => {
                scorer.tally.io += 1;
                return false;
            }
        }
    }
    true
}

/// How many requests an open-loop stream may have in flight on its one
/// connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InFlight {
    /// One: a request that falls due while another is outstanding waits
    /// in the client, its latency clock already running.
    One,
    /// Any number: due requests are written behind each other.
    Pipelined,
}

/// Sends `ask` requests as `arrivals` schedules them on one connection until
/// `done()` turns true, then collects the responses still outstanding.
/// One thread: requests that are due (and allowed in flight) are written
/// first, then one response is read if any is outstanding, else the
/// thread waits for the next due time. A read that blocks past a due
/// time makes that request late; its latency clock started at the due
/// time regardless, so a stall is charged to every request it delays.
pub fn open_loop(
    addr: SocketAddr,
    arrivals: Arrivals,
    done: impl Fn(Duration) -> bool,
    mix: Mix<'_>,
    rng: &mut Rng,
    spans: &mut SpanLog,
) -> OpenLoop {
    let Arrivals {
        rate,
        in_flight,
        wait,
    } = arrivals;
    let mut client = QaClient::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    let mut out = OpenLoop::default();
    if !warm_connection(&mut client, mix, rng, &mut out.scorer) {
        return out;
    }
    // Request ids are 1-based indices into `pending`.
    let mut pending: Vec<(Instant, &Question)> = Vec::new();
    let mut outstanding = 0usize;
    let start = Instant::now();
    let mut stopping = false;
    // Set when the thread has just waited for a due time: the lateness of
    // the next write is then the generator's own.
    let mut waited = false;
    loop {
        while !stopping && (in_flight == InFlight::Pipelined || outstanding == 0) {
            let due = start + due_at(pending.len() as u64, rate);
            let now = Instant::now();
            if due > now {
                break;
            }
            if done(now - start) {
                stopping = true;
                break;
            }
            let question = mix.pick(rng);
            pending.push((due, question));
            out.scorer.tally.attempted += 1;
            // Lateness is taken before the write: the write wakes the
            // server, which may run on this core before it returns.
            let late = hostspeed::scale((Instant::now() - due).as_nanos() as u64);
            out.late_ns.push(late);
            if std::mem::take(&mut waited) {
                out.late_idle_ns.push(late);
            }
            if client
                .send(&Request::ask(pending.len() as u64, &question.text))
                .is_err()
            {
                out.scorer.tally.io += 1;
                stopping = true;
                break;
            }
            outstanding += 1;
        }
        if outstanding > 0 {
            waited = false;
            match client.recv() {
                Ok(response) => {
                    let now = Instant::now();
                    outstanding -= 1;
                    let Some(&(due, question)) = (response.id as usize)
                        .checked_sub(1)
                        .and_then(|i| pending.get(i))
                    else {
                        out.scorer.tally.errors += 1;
                        continue;
                    };
                    if out.scorer.score(question, &response) {
                        out.latencies_ns
                            .push(hostspeed::scale((now - due).as_nanos() as u64));
                        spans.record("client.ask.open", response.id, None, due, now);
                    }
                }
                Err(_) => {
                    out.scorer.tally.io += outstanding as u64;
                    break;
                }
            }
        } else if stopping {
            break;
        } else {
            wait.until(start + due_at(pending.len() as u64, rate));
            waited = true;
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// What a set of closed-loop connections observed. Latencies and the
/// rate are at the reference host's speed (`hostspeed::scale`).
#[derive(Debug, Default)]
pub struct ClosedLoop {
    pub latencies_ns: Vec<u64>,
    pub scorer: Scorer,
    /// `ok` operations per second, summed over the connections.
    pub ops_s: f64,
}

impl ClosedLoop {
    pub fn latency(&self) -> Summary {
        Summary::of(&self.latencies_ns)
    }
}

/// `connections` clients each ask, wait for the reply, and ask again,
/// each for `duration` from the moment it has warmed its connection.
pub fn closed_loop(
    addr: SocketAddr,
    connections: usize,
    duration: Duration,
    mix: Mix<'_>,
    rng: &Rng,
    spans: &mut SpanLog,
) -> ClosedLoop {
    type PerConnection = (Vec<(Instant, Instant, u64)>, Scorer, f64);
    let per_connection: Vec<PerConnection> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let mut rng = rng.fork(c as u64 + 1);
                scope.spawn(move || {
                    let mut client =
                        QaClient::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
                    let mut times = Vec::new();
                    let mut scorer = Scorer::default();
                    let alive = warm_connection(&mut client, mix, &mut rng, &mut scorer);
                    let start = Instant::now();
                    while alive && start.elapsed() < duration {
                        let question = mix.pick(&mut rng);
                        scorer.tally.attempted += 1;
                        let sent = Instant::now();
                        match client.ask(&question.text) {
                            Ok(response) => {
                                let got = Instant::now();
                                if scorer.score(question, &response) {
                                    let ns = hostspeed::scale((got - sent).as_nanos() as u64);
                                    times.push((sent, got, ns));
                                }
                            }
                            Err(_) => {
                                scorer.tally.io += 1;
                                break;
                            }
                        }
                    }
                    let elapsed_s = hostspeed::scale_f(start.elapsed().as_secs_f64());
                    (times, scorer, elapsed_s)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| panic!("closed-loop client panicked"))
            })
            .collect()
    });
    let mut out = ClosedLoop::default();
    let mut op = 0u64;
    for (times, scorer, elapsed_s) in per_connection {
        out.scorer.absorb(scorer);
        out.ops_s += times.len() as f64 / elapsed_s;
        for (sent, got, ns) in times {
            op += 1;
            out.latencies_ns.push(ns);
            spans.record("client.ask.closed", op, None, sent, got);
        }
    }
    out
}

/// Asks every question once without timing, split over `connections`
/// closed-loop clients: cache warm-up and accuracy audits.
pub fn ask_each(addr: SocketAddr, connections: usize, questions: &[Question]) -> Scorer {
    let chunk = questions.len().div_ceil(connections.max(1)).max(1);
    let scorers: Vec<Scorer> = std::thread::scope(|scope| {
        let handles: Vec<_> = questions
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut client =
                        QaClient::connect(addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
                    let mut scorer = Scorer::default();
                    for question in part {
                        scorer.tally.attempted += 1;
                        match client.ask(&question.text) {
                            Ok(response) => {
                                scorer.score(question, &response);
                            }
                            Err(_) => {
                                scorer.tally.io += 1;
                                break;
                            }
                        }
                    }
                    scorer
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| panic!("audit client panicked")))
            .collect()
    });
    let mut out = Scorer::default();
    for scorer in scorers {
        out.absorb(scorer);
    }
    out
}
