//! The concurrent batch engine and the session-oriented API.
//!
//! [`QaEngine`] drives the pipeline's immutable read path with a pool of
//! scoped worker threads and an LRU answer cache; [`QaSession`] wraps an
//! engine with per-session history; [`SubmitBatch`] puts
//! `pipeline.submit_batch(&questions)` on [`IntegrationPipeline`],
//! combining the concurrent read phase with the serialized write phase
//! into one deterministic [`BatchReport`].

use crate::cache::{normalize_question, AnswerCache};
use crate::outcome::{panic_message, AnswerOutcome, QuestionReport};
use crate::stats::EngineStats;
use dwqa_core::{FeedReport, IntegrationPipeline, ReadPath};
use dwqa_obs::{FlightRecorder, Trace, Tracer};
use dwqa_qa::{Answer, PipelineTrace};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Default answer-cache capacity (questions).
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Whether a deadline has passed.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Runs one question's answer path with its panic isolated: a panic
/// becomes an [`AnswerOutcome::Panicked`] report carrying the payload,
/// and the report's outcome is counted either way.
fn isolated(stats: &EngineStats, answer: impl FnOnce() -> QuestionReport) -> QuestionReport {
    let report = catch_unwind(AssertUnwindSafe(answer))
        .unwrap_or_else(|payload| QuestionReport::panicked(panic_message(payload.as_ref())));
    stats.record_outcome(report.outcome);
    report
}

/// The concurrent QA engine: a worker pool over the pipeline's immutable
/// read path, an answer cache, and per-stage statistics. Shareable across
/// threads by reference; cheap to construct from any pipeline.
///
/// A caller may give each question a wall-clock deadline
/// ([`QaEngine::answer_checked_by`]). Worker panics are always isolated
/// to the offending question.
pub struct QaEngine {
    read: ReadPath,
    cache: AnswerCache,
    stats: EngineStats,
    tracer: Tracer,
    workers: usize,
}

impl QaEngine {
    /// An engine over the pipeline's read path, with one worker per
    /// available core (at least one) and the default cache capacity.
    pub fn new(pipeline: &IntegrationPipeline) -> QaEngine {
        QaEngine::over(pipeline.read_path())
    }

    /// An engine over an explicit read path.
    pub fn over(read: ReadPath) -> QaEngine {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        QaEngine {
            read,
            cache: AnswerCache::new(DEFAULT_CACHE_CAPACITY),
            stats: EngineStats::default(),
            tracer: Tracer::default(),
            workers,
        }
    }

    /// Sets the worker-pool size (clamped to at least one).
    pub fn with_workers(mut self, workers: usize) -> QaEngine {
        self.workers = workers.max(1);
        self
    }

    /// Replaces the answer cache with one of the given capacity
    /// (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> QaEngine {
        self.cache = AnswerCache::new(capacity);
        self
    }

    /// Turns per-question trace collection on or off. Tracing also
    /// defaults on when the `DWQA_TRACE` environment variable is set.
    pub fn with_tracing(self, on: bool) -> QaEngine {
        self.tracer.set_enabled(on);
        self
    }

    /// Replaces the flight recorder with one keeping the last
    /// `capacity` question traces, preserving the enabled switch.
    pub fn with_trace_capacity(mut self, capacity: usize) -> QaEngine {
        let enabled = self.tracer.enabled();
        self.tracer = Tracer::new(capacity);
        self.tracer.set_enabled(enabled || self.tracer.enabled());
        self
    }

    /// Toggles trace collection in place (the REPL's `:trace` switch).
    pub fn set_tracing(&self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Whether per-question traces are currently being collected.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// The engine's tracer (switch + flight recorder).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The flight recorder holding the most recent question traces.
    pub fn flight_recorder(&self) -> &FlightRecorder {
        self.tracer.recorder()
    }

    /// The worker-pool size used by [`QaEngine::answer_batch`].
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The engine's statistics (live; updated by every answer).
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The engine's answer cache.
    pub fn cache(&self) -> &AnswerCache {
        &self.cache
    }

    /// Answers one question, consulting the cache first. Answers depend
    /// on the question and the immutable QA index only, so feedback ETL
    /// never invalidates an entry.
    ///
    /// Shorthand for [`QaEngine::answer_checked`] when the outcome tag is
    /// not needed.
    pub fn answer(&self, question: &str) -> Vec<Answer> {
        self.answer_checked(question).answers
    }

    /// Answers one question with its panic isolated. Never panics; the
    /// outcome tag says how the attempt ended.
    pub fn answer_checked(&self, question: &str) -> QuestionReport {
        self.answer_observed(question, None, None)
    }

    /// [`QaEngine::answer_checked`] with a wall-clock deadline for this
    /// one question (`None`: no deadline); on expiry the question
    /// reports [`AnswerOutcome::TimedOut`] instead of running on. This
    /// is how a service front end propagates a per-request deadline down
    /// to the pipeline stages of the shared engine.
    pub fn answer_checked_by(&self, question: &str, deadline: Option<Instant>) -> QuestionReport {
        self.answer_observed(question, None, deadline)
    }

    /// [`QaEngine::answer_checked`] under an observation context: the
    /// engine's registry (and, when tracing is on, a fresh trace rooted
    /// at a `question` span) is installed for the duration of the
    /// question, so every layer below records without handle threading.
    fn answer_observed(
        &self,
        question: &str,
        batch_index: Option<usize>,
        deadline: Option<Instant>,
    ) -> QuestionReport {
        self.stats.record_question();
        let obs = dwqa_obs::observe(
            Some(Arc::clone(self.stats.registry())),
            Some(&self.tracer),
            "question",
            question,
        );
        if let Some(i) = batch_index {
            obs.root_field("batch_index", i);
        }
        let report = isolated(&self.stats, || self.answer_guarded(question, deadline));
        obs.root_field("outcome", report.outcome.label());
        obs.root_field("answers", report.answers.len());
        if let Some(detail) = &report.detail {
            obs.root_field("detail", detail.as_str());
        }
        report
    }

    /// The guarded answer path (runs under `catch_unwind`).
    fn answer_guarded(&self, question: &str, deadline: Option<Instant>) -> QuestionReport {
        let key = normalize_question(question);
        if let Some(hit) = self.cache.lookup(&key) {
            self.stats.record_cache_hit();
            dwqa_obs::root_field("cache", "hit");
            return QuestionReport::ok(hit);
        }
        self.stats.record_cache_miss();
        dwqa_obs::root_field("cache", "miss");
        let qa = self.read.qa();
        let t = Instant::now();
        let analysis = {
            let _span = dwqa_obs::span!("analyze");
            qa.analyze(question)
        };
        self.stats.analyze.record(t.elapsed());
        if expired(deadline) {
            return QuestionReport::timed_out("deadline expired after question analysis");
        }
        let t = Instant::now();
        let passages = {
            let span = dwqa_obs::span!("passages");
            let passages = qa.passages(&analysis);
            span.record("returned", passages.len());
            passages
        };
        self.stats.passages.record(t.elapsed());
        if expired(deadline) {
            return QuestionReport::timed_out("deadline expired after passage selection");
        }
        let t = Instant::now();
        let answers = {
            let span = dwqa_obs::span!("extract", passages = passages.len());
            let answers = qa.extract(&analysis, &passages);
            span.record("answers", answers.len());
            answers
        };
        self.stats.extract.record(t.elapsed());
        self.cache.store(key, answers.clone());
        QuestionReport::ok(answers)
    }

    /// The Table-1 trace for a question (uncached).
    pub fn trace(&self, question: &str) -> PipelineTrace {
        self.read.trace(question)
    }

    /// Pre-seeds the cache by answering `questions` (on the calling
    /// thread), so a later batch over them is served from memory.
    pub fn warm(&self, questions: &[String]) {
        for q in questions {
            let _ = self.answer(q);
        }
    }

    /// Answers a batch concurrently on the worker pool. Results come
    /// back **in input order** regardless of which worker finished
    /// first, so merging is deterministic.
    pub fn answer_batch(&self, questions: &[String]) -> Vec<Vec<Answer>> {
        self.answer_batch_checked(questions)
            .into_iter()
            .map(|report| report.answers)
            .collect()
    }

    /// Like [`QaEngine::answer_batch`], returning the full per-question
    /// reports (answers + outcome tags), in input order. One poisoned
    /// question yields a [`AnswerOutcome::Panicked`] report for that
    /// question only — the worker pool survives.
    pub fn answer_batch_checked(&self, questions: &[String]) -> Vec<QuestionReport> {
        self.stats.record_batch();
        let n = questions.len();
        let workers = self.workers.min(n.max(1));
        if workers <= 1 {
            return questions
                .iter()
                .enumerate()
                .map(|(i, q)| self.answer_observed(q, Some(i), None))
                .collect();
        }
        let slots: Vec<Mutex<Option<QuestionReport>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| loop {
                        // Work stealing off a shared index: whichever
                        // worker is free takes the next question, but
                        // every report lands in its question's slot.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let report = self.answer_observed(&questions[i], Some(i), None);
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(report);
                    })
                })
                .collect();
            for handle in handles {
                if handle.join().is_err() {
                    // answer_observed isolates panics, so a worker death
                    // here is a bug — count it and degrade the unfilled
                    // slots instead of poisoning the whole batch.
                    self.stats.record_worker_death();
                }
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .unwrap_or_else(|| {
                        QuestionReport::panicked(
                            "batch worker died before filling this slot".to_owned(),
                        )
                    })
            })
            .collect()
    }
}

/// A session over the integrated system: an engine plus the history of
/// questions asked through it. Sessions are the unit of interaction for
/// the REPL and the experiment binaries.
pub struct QaSession {
    engine: QaEngine,
    history: Vec<String>,
}

impl QaSession {
    /// Opens a session on a pipeline with a default engine.
    pub fn new(pipeline: &IntegrationPipeline) -> QaSession {
        QaSession::with_engine(QaEngine::new(pipeline))
    }

    /// Opens a session over a pre-configured engine.
    pub fn with_engine(engine: QaEngine) -> QaSession {
        QaSession {
            engine,
            history: Vec::new(),
        }
    }

    /// Asks one question (cached, recorded in the session history).
    pub fn ask(&mut self, question: &str) -> Vec<Answer> {
        self.ask_checked(question).answers
    }

    /// Asks one question, returning the full report (answers + outcome
    /// tag), recorded in the session history.
    pub fn ask_checked(&mut self, question: &str) -> QuestionReport {
        self.history.push(question.to_owned());
        self.engine.answer_checked(question)
    }

    /// Asks a batch concurrently (recorded in the session history).
    pub fn ask_batch(&mut self, questions: &[String]) -> Vec<Vec<Answer>> {
        self.history.extend(questions.iter().cloned());
        self.engine.answer_batch(questions)
    }

    /// The Table-1 trace for a question (not recorded).
    pub fn trace(&self, question: &str) -> PipelineTrace {
        self.engine.trace(question)
    }

    /// Every question asked through this session, in order.
    pub fn history(&self) -> &[String] {
        &self.history
    }

    /// The session's engine.
    pub fn engine(&self) -> &QaEngine {
        &self.engine
    }

    /// The session's statistics.
    pub fn stats(&self) -> &EngineStats {
        self.engine.stats()
    }
}

/// The outcome of one batch submission: per-question answers and outcome
/// tags (input order), the merged feed report, and timing.
#[derive(Debug)]
pub struct BatchReport {
    /// Answers per question, aligned with the submitted slice.
    pub answers: Vec<Vec<Answer>>,
    /// How each question's attempt ended, aligned with the slice.
    pub outcomes: Vec<AnswerOutcome>,
    /// The merged Step-5 report over the whole batch. Empty when the
    /// feed transaction rolled back — Step 5 is all-or-nothing.
    pub feed: FeedReport,
    /// Whether the feed transaction failed and was rolled back.
    pub rolled_back: bool,
    /// The feed failure, when `rolled_back`.
    pub feed_error: Option<String>,
    /// True when the pipeline has a durable store attached, so a
    /// committed feed was WAL-logged before being acknowledged.
    pub durable: bool,
    /// Worker threads used for the read phase.
    pub workers: usize,
    /// Wall-clock time of the whole submission (read + write phase).
    pub wall: Duration,
    /// The worst-latency question trace of this batch, when the
    /// engine's tracer was enabled (`None` otherwise).
    pub worst_trace: Option<Trace>,
}

/// Batch submission over an [`IntegrationPipeline`]: answer concurrently,
/// feed serially, report deterministically.
pub trait SubmitBatch {
    /// Submits a batch with a default engine (no cache reuse across
    /// calls; use [`SubmitBatch::submit_batch_with`] to keep one).
    fn submit_batch(&mut self, questions: &[String]) -> BatchReport;

    /// Submits a batch through an existing engine, reusing its cache,
    /// worker configuration and statistics.
    fn submit_batch_with(&mut self, engine: &QaEngine, questions: &[String]) -> BatchReport;
}

impl SubmitBatch for IntegrationPipeline {
    fn submit_batch(&mut self, questions: &[String]) -> BatchReport {
        let engine = QaEngine::new(self);
        self.submit_batch_with(&engine, questions)
    }

    fn submit_batch_with(&mut self, engine: &QaEngine, questions: &[String]) -> BatchReport {
        let start = Instant::now();
        // Read phase: concurrent, order-preserving.
        let reports = engine.answer_batch_checked(questions);
        // Write phase: one all-or-nothing transaction, serialized in
        // input order, so on commit the warehouse ends in exactly the
        // state sequential ask-and-feed would produce — and on failure
        // it is untouched (no partial load).
        let batches: Vec<&[Answer]> = reports.iter().map(|r| r.answers.as_slice()).collect();
        let t = Instant::now();
        // The write phase gets its own observation, so the feed
        // transaction's span and commit/rollback events land in the
        // flight recorder alongside the per-question traces.
        let feed_result = {
            let _obs = dwqa_obs::observe(
                Some(Arc::clone(engine.stats().registry())),
                Some(engine.tracer()),
                "feed",
                "batch feed",
            );
            self.feed_batch(&batches)
        };
        engine.stats().feed.record(t.elapsed());
        let (feed, rolled_back, feed_error) = match feed_result {
            Ok(feed) => (feed, false, None),
            Err(err) => {
                engine.stats().record_rollback();
                (FeedReport::default(), true, Some(err.to_string()))
            }
        };
        // Back-annotate the batch-level feed disposition onto the
        // question traces (plus the feed trace itself), then pick this
        // batch's worst-latency question trace for the report.
        let disposition = if rolled_back {
            "rolled-back"
        } else if feed.loaded > 0 {
            "committed"
        } else {
            "no-op"
        };
        let recorder = engine.flight_recorder();
        recorder.annotate_last(questions.len() + 1, "feed", disposition.into());
        let worst_trace = recorder
            .recent()
            .into_iter()
            .rev()
            .take(questions.len() + 1)
            .filter(|t| t.root().map(|r| r.name == "question").unwrap_or(false))
            .max_by_key(|t| t.root().map(|r| r.elapsed_us).unwrap_or(0));
        let outcomes = reports.iter().map(|r| r.outcome).collect();
        let answers = reports.into_iter().map(|r| r.answers).collect();
        BatchReport {
            answers,
            outcomes,
            feed,
            rolled_back,
            feed_error,
            durable: self.is_durable(),
            workers: engine.workers(),
            wall: start.elapsed(),
            worst_trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_answer_is_isolated_and_counted() {
        let stats = EngineStats::default();
        let report = isolated(&stats, || panic!("boom in extraction"));
        assert_eq!(report.outcome, AnswerOutcome::Panicked);
        assert!(report.answers.is_empty());
        assert_eq!(report.detail.as_deref(), Some("boom in extraction"));
        assert_eq!(stats.outcomes_panicked(), 1);

        let report = isolated(&stats, || QuestionReport::ok(Vec::new()));
        assert_eq!(report.outcome, AnswerOutcome::Ok);
        assert_eq!(stats.outcomes_panicked(), 1);
    }
}
