//! The ladder: the traced run replays a workload's seeded operations on
//! one thread and times the calls into each layer's public functions,
//! each rung adding one layer to the rung below. A layer's cost is the
//! difference between two rungs' medians. Single-threaded replay omits
//! contention, so the rungs bound the unloaded path only.

use crate::fixture::{store_config, Question};
use crate::spans::SpanLog;
use crate::stats::Summary;
use dwqa_core::durability::{encode_checkpoint_payload, encode_transaction, LoggedTransaction};
use dwqa_core::IntegrationPipeline;
use dwqa_engine::QaEngine;
use dwqa_obs::{names, MetricsRegistry};
use dwqa_qa::Answer;
use dwqa_server::{Request, Response};
use dwqa_store::FeedbackStore;
use dwqa_warehouse::{FactRowBuilder, Value, Warehouse};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub fn p50_us(samples_ns: &[u64]) -> f64 {
    Summary::of(samples_ns).p50_us()
}

fn ns(from: Instant) -> u64 {
    from.elapsed().as_nanos() as u64
}

/// Rung 1 of the read ladder: the three QA modules called directly.
#[derive(Debug, Default)]
pub struct ReadStages {
    /// `dwqa_nlp::analyze_sentence` on the question text alone.
    pub nlp_us: f64,
    /// `AliQAn::analyze` minus the NLP share of it.
    pub analyze_us: f64,
    pub passages_us: f64,
    pub extract_us: f64,
    /// analyze → passages → extract, end to end.
    pub total_us: f64,
    pub answered_ratio: f64,
    pub docs_candidate_per_q: f64,
    pub windows_scored_per_q: f64,
    pub docs_pruned_ratio: f64,
    /// The answers, for the wire rung.
    pub answers: Vec<Vec<Answer>>,
}

pub fn read_stages(
    pipeline: &IntegrationPipeline,
    ops: &[&Question],
    spans: &mut SpanLog,
) -> ReadStages {
    let read = pipeline.read_path();
    let qa = read.qa();
    // The retrieval layer counts its own work into whatever registry the
    // thread observes under; give it one of ours.
    let registry = Arc::new(MetricsRegistry::new());
    let _observing = dwqa_obs::observe(Some(Arc::clone(&registry)), None, "ladder", "read");
    let (mut nlp, mut analyze, mut passages, mut extract, mut total) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut answers = Vec::with_capacity(ops.len());
    for (i, question) in ops.iter().enumerate() {
        let op = i as u64 + 1;
        let (_, nlp_ns) = spans.time("nlp.question", op, None, || {
            std::hint::black_box(dwqa_nlp::analyze_sentence(qa.lexicon(), &question.text))
        });
        let start = Instant::now();
        // The three stages are recorded before their parent, which closes
        // last: it will be the fourth span from here.
        let root = spans.len();
        let (analysis, analyze_ns) = spans.time("qa.analyze", op, Some(root + 3), || {
            qa.analyze(&question.text)
        });
        let (found, passages_ns) =
            spans.time("ir.passages", op, Some(root + 3), || qa.passages(&analysis));
        let (extracted, extract_ns) = spans.time("qa.extract", op, Some(root + 3), || {
            qa.extract(&analysis, &found)
        });
        let end = Instant::now();
        spans.record("read.stages", op, None, start, end);
        nlp.push(nlp_ns);
        analyze.push(analyze_ns.saturating_sub(nlp_ns));
        passages.push(passages_ns);
        extract.push(extract_ns);
        total.push((end - start).as_nanos() as u64);
        answers.push(extracted);
    }
    let queries = registry.counter_value(names::RETRIEVAL_COUNT).max(1) as f64;
    let candidates = registry.counter_value(names::RETRIEVAL_DOCS_CANDIDATE) as f64;
    let pruned = registry.counter_value(names::RETRIEVAL_DOCS_PRUNED) as f64;
    ReadStages {
        nlp_us: p50_us(&nlp),
        analyze_us: p50_us(&analyze),
        passages_us: p50_us(&passages),
        extract_us: p50_us(&extract),
        total_us: p50_us(&total),
        answered_ratio: answers.iter().filter(|a| !a.is_empty()).count() as f64
            / ops.len().max(1) as f64,
        docs_candidate_per_q: candidates / queries,
        windows_scored_per_q: registry.counter_value(names::RETRIEVAL_WINDOWS_SCORED) as f64
            / queries,
        docs_pruned_ratio: pruned / candidates.max(1.0),
        answers,
    }
}

/// Rung 2: `QaEngine::answer_checked` in-process, over a cache warmed
/// with `warm`. Each operation is asked twice: the first call is what the
/// workload pays (hit or miss as its mix dictates), the second is always
/// a cache hit. Returns `(answer p50, hit p50)` in µs.
pub fn engine_rung(
    pipeline: &IntegrationPipeline,
    cache_capacity: usize,
    warm: &[Question],
    ops: &[&Question],
    spans: &mut SpanLog,
) -> (f64, f64) {
    let engine = QaEngine::new(pipeline)
        .with_workers(2)
        .with_cache_capacity(cache_capacity);
    for question in warm {
        engine.answer_checked(&question.text);
    }
    let (mut first, mut second) = (Vec::new(), Vec::new());
    for (i, question) in ops.iter().enumerate() {
        let op = i as u64 + 1;
        let (_, ns1) = spans.time("engine.answer", op, None, || {
            std::hint::black_box(engine.answer_checked(&question.text))
        });
        let (_, ns2) = spans.time("engine.cache.hit", op, None, || {
            std::hint::black_box(engine.answer_checked(&question.text))
        });
        first.push(ns1);
        second.push(ns2);
    }
    (p50_us(&first), p50_us(&second))
}

/// What serialising and parsing one request/response pair costs on each
/// side of the socket, in µs (medians).
#[derive(Debug, Default, Clone, Copy)]
pub struct Wire {
    /// Server side: `Request` parse + `validate`.
    pub decode_us: f64,
    /// Server side: `Response` serialise.
    pub encode_us: f64,
    /// Client side: `Request` serialise + `Response` parse.
    pub client_us: f64,
}

impl Wire {
    pub fn total_us(&self) -> f64 {
        self.decode_us + self.encode_us + self.client_us
    }
}

pub fn wire_rung(pairs: &[(Request, Response)], max_batch: usize) -> Wire {
    let (mut decode, mut encode, mut client) = (Vec::new(), Vec::new(), Vec::new());
    for (request, response) in pairs {
        let t = Instant::now();
        let request_line = serde_json::to_string(request).unwrap_or_default();
        let client_out = ns(t);
        let t = Instant::now();
        let parsed: Result<Request, _> = serde_json::from_str(&request_line);
        let command = parsed.ok().map(|r| r.validate(max_batch));
        decode.push(ns(t));
        std::hint::black_box(command);
        let t = Instant::now();
        let response_line = serde_json::to_string(response).unwrap_or_default();
        encode.push(ns(t));
        let t = Instant::now();
        let parsed: Result<Response, _> = serde_json::from_str(&response_line);
        client.push(client_out + ns(t));
        std::hint::black_box(parsed.is_ok());
    }
    Wire {
        decode_us: p50_us(&decode),
        encode_us: p50_us(&encode),
        client_us: p50_us(&client),
    }
}

/// The store layer on its own: the WAL payloads of real transactions
/// appended to a scratch store with the workload's configuration, and
/// the warehouse checkpointed into it.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreRung {
    pub append_p50_us: f64,
    pub append_p95_us: f64,
    /// `FeedbackStore::checkpoint` alone.
    pub checkpoint_us: f64,
    /// `encode_checkpoint_payload`, which precedes it in the product.
    pub checkpoint_encode_us: f64,
}

pub fn store_rung(
    dir: &Path,
    pipeline: &IntegrationPipeline,
    transactions: &[Vec<Vec<Answer>>],
) -> StoreRung {
    let (mut store, _) = FeedbackStore::open(dir, store_config())
        .unwrap_or_else(|e| panic!("open scratch store {}: {e}", dir.display()));
    let mut appends = Vec::with_capacity(transactions.len());
    for batches in transactions {
        let payload = encode_transaction(&LoggedTransaction {
            batches: batches.clone(),
        })
        .unwrap_or_else(|e| panic!("encode transaction: {e}"));
        let t = Instant::now();
        store
            .append(&payload)
            .unwrap_or_else(|e| panic!("scratch append: {e}"));
        appends.push(ns(t));
    }
    // Serialising the warehouse is `core`'s share of a checkpoint; only
    // the write (tmp → fsync → rename → WAL truncate) is the store's.
    let fed = dwqa_core::durability::fed_points_from(&pipeline.warehouse);
    let (mut encodes, mut checkpoints) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let t = Instant::now();
        let payload = encode_checkpoint_payload(&pipeline.warehouse, &fed)
            .unwrap_or_else(|e| panic!("encode checkpoint: {e}"));
        encodes.push(ns(t));
        let t = Instant::now();
        store
            .checkpoint(&payload)
            .unwrap_or_else(|e| panic!("scratch checkpoint: {e}"));
        checkpoints.push(ns(t));
    }
    let appends = Summary::of(&appends);
    StoreRung {
        append_p50_us: appends.p50_us(),
        append_p95_us: appends.p95_us(),
        checkpoint_us: p50_us(&checkpoints),
        checkpoint_encode_us: p50_us(&encodes),
    }
}

/// `Warehouse::snapshot` at the current size — what every feed
/// transaction takes before it loads anything. Median µs.
pub fn snapshot_us(warehouse: &Warehouse) -> f64 {
    let samples: Vec<u64> = (0..15)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(warehouse.snapshot());
            ns(t)
        })
        .collect();
    p50_us(&samples)
}

/// `Warehouse::load` of weather rows into a copy of the warehouse, µs
/// per row, in transactions of `per_load` rows.
pub fn load_us_per_row(warehouse: &Warehouse, questions: &[&Question], per_load: usize) -> f64 {
    let mut copy =
        Warehouse::restore(&warehouse.snapshot()).unwrap_or_else(|e| panic!("copy warehouse: {e}"));
    let mut per_row = Vec::new();
    for chunk in questions.chunks(per_load.max(1)) {
        let rows: Vec<_> = chunk
            .iter()
            .map(|q| {
                let mut b = FactRowBuilder::new();
                b.measure("temperature_c", Value::Float(q.celsius))
                    .role_member("City", &[("City.city_name", Value::text(&q.city))])
                    .role_member("Date", &[("date", Value::Date(q.date))])
                    .role_member("Source", &[("url", Value::text("ladder://load"))]);
                b.build()
            })
            .collect();
        let n = rows.len() as u64;
        let t = Instant::now();
        copy.load("City Weather", rows)
            .unwrap_or_else(|e| panic!("ladder load: {e}"));
        per_row.push(ns(t) / n.max(1));
    }
    p50_us(&per_row)
}

/// Runs `f` on a fresh thread, as the server runs a feed on one of its
/// workers. It matters: a feed transaction makes warehouse-sized
/// allocations, and on the thread that built the warehouse (whose malloc
/// arena holds it) `Warehouse::snapshot` measures about a fifth slower
/// than on any other thread.
pub fn on_worker<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        scope
            .spawn(f)
            .join()
            .unwrap_or_else(|_| panic!("ladder worker panicked"))
    })
}

/// One in-process write rung: `feed_batch` of each transaction, timed.
/// Returns the per-transaction nanoseconds. Call it under an
/// `dwqa_obs::observe` guard if store and warehouse should count into a
/// registry, as they do under the engine in production.
pub fn feed_rung(
    pipeline: &mut IntegrationPipeline,
    transactions: &[Vec<Vec<Answer>>],
    name: &'static str,
    spans: &mut SpanLog,
) -> Vec<u64> {
    transactions
        .iter()
        .enumerate()
        .map(|(i, batches)| {
            let slices: Vec<&[Answer]> = batches.iter().map(Vec::as_slice).collect();
            let (result, elapsed) =
                spans.time(name, i as u64 + 1, None, || pipeline.feed_batch(&slices));
            result.unwrap_or_else(|e| panic!("{name}: feed_batch failed: {e}"));
            elapsed
        })
        .collect()
}

/// `(counter now) − (counter when opened)`: what a slice of the run added
/// to the product's own counters.
pub struct CounterWindow<'a> {
    registry: &'a MetricsRegistry,
    before: Vec<(&'static str, u64)>,
}

impl<'a> CounterWindow<'a> {
    pub fn open(registry: &'a MetricsRegistry, names: &[&'static str]) -> CounterWindow<'a> {
        CounterWindow {
            registry,
            before: names
                .iter()
                .map(|&n| (n, registry.counter_value(n)))
                .collect(),
        }
    }

    pub fn delta(&self, name: &str) -> f64 {
        let before = self
            .before
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v);
        self.registry.counter_value(name).saturating_sub(before) as f64
    }
}

/// The flag the reconciliation line carries when more than 15 % of what
/// the client saw is in no layer's span (or the layers claim that much
/// more than it saw).
pub fn unattributed_note(unattributed_us: f64, client_us: f64) -> &'static str {
    if unattributed_us.abs() > 0.15 * client_us {
        "  FINDING: over 15 % of the client's p50 is in no layer's span"
    } else {
        ""
    }
}

/// Prints one line of the cross-check between the ladder's median and
/// the exact mean a product histogram already holds; a disagreement over
/// a fifth is flagged as a finding.
pub fn cross_check(label: &str, ladder_us: f64, registry: &MetricsRegistry, histogram: &str) {
    let h = registry.histogram(histogram);
    if h.samples() == 0 {
        return;
    }
    let mean = h.sum_us() as f64 / h.samples() as f64;
    let gap = (ladder_us - mean).abs() / mean.max(1e-9);
    println!(
        "cross-check {label}: ladder p50 {ladder_us:.1} us vs registry `{histogram}` mean {mean:.1} us over {} samples{}",
        h.samples(),
        if gap > 0.20 {
            format!("  FINDING: differ by {:.0} %", gap * 100.0)
        } else {
            String::new()
        }
    );
}
