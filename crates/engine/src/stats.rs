//! Per-stage counters and latency histograms for the batch engine — a
//! *view* over a [`dwqa_obs::MetricsRegistry`].
//!
//! The engine owns one registry per instance and installs it into each
//! worker's thread-local observation context for the duration of a
//! question (see [`dwqa_obs::observe`]), so the lower crates — `dwqa-ir`
//! retrieval, the fault layer — record against the same names
//! ([`dwqa_obs::names`]) without any handle threading. `EngineStats`
//! caches `Arc` handles to the hot counters and histograms, keeping the
//! record path lock-free, and renders the whole registry as the familiar
//! fixed-width table for the REPL and experiment binaries.

use crate::outcome::AnswerOutcome;
use dwqa_faults::SourceHealth;
use dwqa_obs::{names, Counter, Gauge, MetricsRegistry};
use std::sync::Arc;
use std::time::Duration;

/// The latency histogram used for stage timings: power-of-two
/// microsecond buckets, lock-free recording. Re-exported from
/// `dwqa-obs`, where it also carries an exact running sum (so means no
/// longer need a separate total counter) and a full-width
/// [`merge`](dwqa_obs::Histogram::absorb) that keeps every bucket of
/// both operands regardless of their observed ranges.
pub type LatencyHistogram = dwqa_obs::Histogram;

/// Counters for one pipeline stage: how often it ran and for how long.
/// A thin handle over the stage's registry histogram.
#[derive(Debug, Clone)]
pub struct StageStats {
    histogram: Arc<LatencyHistogram>,
}

impl StageStats {
    fn over(registry: &MetricsRegistry, name: &str) -> StageStats {
        StageStats {
            histogram: registry.histogram(name),
        }
    }

    /// Records one timed execution of the stage.
    pub fn record(&self, latency: Duration) {
        self.histogram.record(latency);
    }

    /// How many times the stage ran.
    pub fn calls(&self) -> u64 {
        self.histogram.samples()
    }

    /// Mean latency in microseconds (exact: the histogram keeps a
    /// running sum alongside its buckets).
    pub fn mean_us(&self) -> u64 {
        self.histogram.mean_us()
    }

    /// The latency distribution of the stage.
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.histogram
    }
}

/// Aggregated engine statistics: the three search-phase stages, the
/// feedback write path, the answer-cache and outcome counters — all
/// living in one [`MetricsRegistry`] shared with the instrumented
/// lower layers.
#[derive(Debug)]
pub struct EngineStats {
    registry: Arc<MetricsRegistry>,
    /// Module 1 — question analysis.
    pub analyze: StageStats,
    /// Module 2 — passage selection.
    pub passages: StageStats,
    /// Module 3 — answer extraction.
    pub extract: StageStats,
    /// Step 5 — feedback ETL (the serialized write path).
    pub feed: StageStats,
    questions: Arc<Counter>,
    batches: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    // Degraded-answer taxonomy counters.
    outcome_ok: Arc<Counter>,
    outcome_degraded: Arc<Counter>,
    outcome_timed_out: Arc<Counter>,
    outcome_unavailable: Arc<Counter>,
    outcome_panicked: Arc<Counter>,
    // Resilience gauges: mirror the *cumulative* [`SourceHealth`] of the
    // engine's source stack (set, not summed); rollbacks and worker
    // deaths are engine-local event counters.
    source_retries: Arc<Gauge>,
    source_trips: Arc<Gauge>,
    source_rejections: Arc<Gauge>,
    source_failures: Arc<Gauge>,
    rollbacks: Arc<Counter>,
    worker_deaths: Arc<Counter>,
}

impl Default for EngineStats {
    fn default() -> EngineStats {
        EngineStats::new(Arc::new(MetricsRegistry::new()))
    }
}

fn outcome_name(outcome: AnswerOutcome) -> String {
    format!("{}{}", names::OUTCOME_PREFIX, outcome.label())
}

impl EngineStats {
    /// A stats view over an existing registry (handles to the hot
    /// counters are resolved once, here).
    pub fn new(registry: Arc<MetricsRegistry>) -> EngineStats {
        EngineStats {
            analyze: StageStats::over(&registry, names::STAGE_ANALYZE),
            passages: StageStats::over(&registry, names::STAGE_PASSAGES),
            extract: StageStats::over(&registry, names::STAGE_EXTRACT),
            feed: StageStats::over(&registry, names::STAGE_FEED),
            questions: registry.counter(names::QUESTIONS),
            batches: registry.counter(names::BATCHES),
            cache_hits: registry.counter(names::CACHE_HITS),
            cache_misses: registry.counter(names::CACHE_MISSES),
            outcome_ok: registry.counter(&outcome_name(AnswerOutcome::Ok)),
            outcome_degraded: registry.counter(&outcome_name(AnswerOutcome::Degraded)),
            outcome_timed_out: registry.counter(&outcome_name(AnswerOutcome::TimedOut)),
            outcome_unavailable: registry.counter(&outcome_name(AnswerOutcome::SourceUnavailable)),
            outcome_panicked: registry.counter(&outcome_name(AnswerOutcome::Panicked)),
            source_retries: registry.gauge(names::SOURCE_RETRIES),
            source_trips: registry.gauge(names::SOURCE_BREAKER_TRIPS),
            source_rejections: registry.gauge(names::SOURCE_BREAKER_REJECTIONS),
            source_failures: registry.gauge(names::SOURCE_FAILURES),
            rollbacks: registry.counter(names::ROLLBACKS),
            worker_deaths: registry.counter(names::WORKER_DEATHS),
            registry,
        }
    }

    /// The underlying registry — what the engine installs into each
    /// worker's observation context so retrieval and fault counters land
    /// next to the stage histograms.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Merges another stats object into this one: counters and every
    /// histogram bucket are added (full-width — disjoint latency ranges
    /// lose nothing); gauges are summed, which is only meaningful when
    /// the two engines watched *different* source stacks.
    pub fn absorb(&self, other: &EngineStats) {
        self.registry.absorb(&other.registry);
    }

    pub(crate) fn record_question(&self) {
        self.questions.inc();
    }

    pub(crate) fn record_batch(&self) {
        self.batches.inc();
    }

    pub(crate) fn record_cache_hit(&self) {
        self.cache_hits.inc();
    }

    pub(crate) fn record_cache_miss(&self) {
        self.cache_misses.inc();
    }

    pub(crate) fn record_outcome(&self, outcome: AnswerOutcome) {
        let counter = match outcome {
            AnswerOutcome::Ok => &self.outcome_ok,
            AnswerOutcome::Degraded => &self.outcome_degraded,
            AnswerOutcome::TimedOut => &self.outcome_timed_out,
            AnswerOutcome::SourceUnavailable => &self.outcome_unavailable,
            AnswerOutcome::Panicked => &self.outcome_panicked,
        };
        counter.inc();
    }

    /// Mirrors the source stack's cumulative health counters (idempotent:
    /// stores the latest values rather than summing deltas).
    pub(crate) fn sync_source_health(&self, health: &SourceHealth) {
        self.source_retries.set(health.retries);
        self.source_trips.set(health.breaker_trips);
        self.source_rejections.set(health.breaker_rejections);
        self.source_failures.set(health.failures);
    }

    pub(crate) fn record_rollback(&self) {
        self.rollbacks.inc();
    }

    pub(crate) fn record_worker_death(&self) {
        self.worker_deaths.inc();
    }

    /// Questions that completed cleanly.
    pub fn outcomes_ok(&self) -> u64 {
        self.outcome_ok.value()
    }

    /// Questions answered under degraded evidence.
    pub fn outcomes_degraded(&self) -> u64 {
        self.outcome_degraded.value()
    }

    /// Questions that hit their deadline.
    pub fn outcomes_timed_out(&self) -> u64 {
        self.outcome_timed_out.value()
    }

    /// Questions whose source documents were all unavailable.
    pub fn outcomes_unavailable(&self) -> u64 {
        self.outcome_unavailable.value()
    }

    /// Questions whose worker panicked (isolated).
    pub fn outcomes_panicked(&self) -> u64 {
        self.outcome_panicked.value()
    }

    /// Source retries performed by the resilience layer.
    pub fn source_retries(&self) -> u64 {
        self.source_retries.value()
    }

    /// Circuit-breaker trips in the source stack.
    pub fn breaker_trips(&self) -> u64 {
        self.source_trips.value()
    }

    /// Fetches rejected outright by an open breaker.
    pub fn breaker_rejections(&self) -> u64 {
        self.source_rejections.value()
    }

    /// Fetches that ultimately failed (after retries).
    pub fn source_failures(&self) -> u64 {
        self.source_failures.value()
    }

    /// Feed transactions rolled back all-or-nothing.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks.value()
    }

    /// Worker-pool threads lost to an unisolated panic (should stay 0).
    pub fn worker_deaths(&self) -> u64 {
        self.worker_deaths.value()
    }

    /// Passage retrievals recorded (one per cache-miss question, two if
    /// the focus fallback fired). Written by `dwqa-ir` through the
    /// observation context.
    pub fn retrievals(&self) -> u64 {
        self.registry.counter_value(names::RETRIEVAL_COUNT)
    }

    /// Candidate documents (holding ≥ 1 query term), summed over all
    /// retrievals.
    pub fn retrieval_docs_candidate(&self) -> u64 {
        self.registry.counter_value(names::RETRIEVAL_DOCS_CANDIDATE)
    }

    /// Candidates whose windows were scored, summed over all retrievals.
    pub fn retrieval_docs_scored(&self) -> u64 {
        self.registry.counter_value(names::RETRIEVAL_DOCS_SCORED)
    }

    /// Candidates cut by the score bound, summed over all retrievals.
    pub fn retrieval_docs_bound_skipped(&self) -> u64 {
        self.registry
            .counter_value(names::RETRIEVAL_DOCS_BOUND_SKIPPED)
    }

    /// Documents skipped by index pruning, summed over all retrievals.
    pub fn retrieval_docs_pruned(&self) -> u64 {
        self.registry.counter_value(names::RETRIEVAL_DOCS_PRUNED)
    }

    /// Candidate windows scored, summed over all retrievals.
    pub fn retrieval_windows_scored(&self) -> u64 {
        self.registry.counter_value(names::RETRIEVAL_WINDOWS_SCORED)
    }

    /// Mean candidate-set size per retrieval.
    pub fn mean_candidate_docs(&self) -> f64 {
        let n = self.retrievals();
        if n == 0 {
            0.0
        } else {
            self.retrieval_docs_candidate() as f64 / n as f64
        }
    }

    /// Share of corpus documents pruned (never touched) per retrieval.
    pub fn pruned_fraction(&self) -> f64 {
        let total = self.registry.counter_value(names::RETRIEVAL_DOCS_TOTAL);
        if total == 0 {
            0.0
        } else {
            self.retrieval_docs_pruned() as f64 / total as f64
        }
    }

    /// Questions answered (cached or computed).
    pub fn questions(&self) -> u64 {
        self.questions.value()
    }

    /// Batches submitted.
    pub fn batches(&self) -> u64 {
        self.batches.value()
    }

    /// Answers served from the cache.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.value()
    }

    /// Answers computed because the cache had no (fresh) entry.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.value()
    }

    /// Cache hit rate over all answered questions.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits() + self.cache_misses();
        if total == 0 {
            0.0
        } else {
            self.cache_hits() as f64 / total as f64
        }
    }

    /// Roll-up states compiled (one per cold query or cache miss).
    pub fn warehouse_plans_compiled(&self) -> u64 {
        self.registry.counter_value(names::WAREHOUSE_PLANS_COMPILED)
    }

    /// Commit deltas absorbed by a kept roll-up state without recompiling.
    pub fn warehouse_plans_reused(&self) -> u64 {
        self.registry.counter_value(names::WAREHOUSE_PLANS_REUSED)
    }

    /// Fact rows walked by the roll-up kernel (summed).
    pub fn warehouse_rows_scanned(&self) -> u64 {
        self.registry.counter_value(names::WAREHOUSE_ROWS_SCANNED)
    }

    /// Roll-up result-cache hits recorded by the pipeline.
    pub fn warehouse_rollup_hits(&self) -> u64 {
        self.registry.counter_value(names::WAREHOUSE_ROLLUP_HITS)
    }

    /// Roll-up result-cache misses (queries actually executed).
    pub fn warehouse_rollup_misses(&self) -> u64 {
        self.registry.counter_value(names::WAREHOUSE_ROLLUP_MISSES)
    }

    /// Materialized roll-up entries that absorbed a commit's delta in
    /// place (incremental maintenance).
    pub fn warehouse_deltas_applied(&self) -> u64 {
        self.registry.counter_value(names::WAREHOUSE_DELTA_APPLIED)
    }

    /// Materialized entries demoted to recompute-on-next-read because a
    /// delta could not be absorbed.
    pub fn warehouse_deltas_demoted(&self) -> u64 {
        self.registry.counter_value(names::WAREHOUSE_DELTA_DEMOTED)
    }

    /// Fact rows folded incrementally into live materialized roll-ups
    /// (summed over entries).
    pub fn warehouse_delta_rows(&self) -> u64 {
        self.registry.counter_value(names::WAREHOUSE_DELTA_ROWS)
    }

    /// Renders the statistics as a fixed-width table.
    pub fn render(&self) -> String {
        fn us(v: u64) -> String {
            if v >= 10_000 {
                format!("{:.1} ms", v as f64 / 1e3)
            } else {
                format!("{v} µs")
            }
        }
        let mut out = String::new();
        out.push_str(&format!(
            "questions: {}   batches: {}   cache: {} hits / {} misses ({:.0}% hit rate)\n",
            self.questions(),
            self.batches(),
            self.cache_hits(),
            self.cache_misses(),
            self.cache_hit_rate() * 100.0,
        ));
        out.push_str("stage     |  calls |    mean |    ≤p50 |    ≤p95 |     max\n");
        out.push_str("----------+--------+---------+---------+---------+--------\n");
        for (name, stage) in [
            ("analyze", &self.analyze),
            ("passages", &self.passages),
            ("extract", &self.extract),
            ("feed", &self.feed),
        ] {
            out.push_str(&format!(
                "{name:<9} | {:>6} | {:>7} | {:>7} | {:>7} | {:>7}\n",
                stage.calls(),
                us(stage.mean_us()),
                us(stage.histogram().quantile_us(0.50)),
                us(stage.histogram().quantile_us(0.95)),
                us(stage.histogram().quantile_us(1.0)),
            ));
        }
        out.push_str(&format!(
            "outcomes: {} ok / {} degraded / {} timed-out / {} source-unavailable / {} panicked\n",
            self.outcomes_ok(),
            self.outcomes_degraded(),
            self.outcomes_timed_out(),
            self.outcomes_unavailable(),
            self.outcomes_panicked(),
        ));
        out.push_str(&format!(
            "retrieval: {} retrievals   {:.1} candidate docs/query ({:.0}% of corpus pruned)   {} docs scored / {} cut by the score bound   {} windows scored\n",
            self.retrievals(),
            self.mean_candidate_docs(),
            self.pruned_fraction() * 100.0,
            self.retrieval_docs_scored(),
            self.retrieval_docs_bound_skipped(),
            self.retrieval_windows_scored(),
        ));
        out.push_str(&format!(
            "warehouse: {} plans compiled / {} reused   {} rows scanned   rollup cache: {} hits / {} misses   deltas: {} applied / {} demoted ({} rows folded)\n",
            self.warehouse_plans_compiled(),
            self.warehouse_plans_reused(),
            self.warehouse_rows_scanned(),
            self.warehouse_rollup_hits(),
            self.warehouse_rollup_misses(),
            self.warehouse_deltas_applied(),
            self.warehouse_deltas_demoted(),
            self.warehouse_delta_rows(),
        ));
        out.push_str(&format!(
            "resilience: {} retries   {} breaker trips   {} breaker rejections   {} source failures   {} rollbacks   {} worker deaths\n",
            self.source_retries(),
            self.breaker_trips(),
            self.breaker_rejections(),
            self.source_failures(),
            self.rollbacks(),
            self.worker_deaths(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::new();
        for us in [1u64, 2, 3, 100, 100, 100, 100, 5000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.samples(), 8);
        // Half the samples sit at 100 µs, so p50 lands in its bucket
        // (64..128 µs → bound 128).
        assert_eq!(h.quantile_us(0.5), 128);
        assert!(h.quantile_us(1.0) >= 5000);
        assert_eq!(LatencyHistogram::new().quantile_us(0.5), 0);
    }

    #[test]
    fn stage_stats_mean() {
        let s = EngineStats::default();
        s.analyze.record(Duration::from_micros(100));
        s.analyze.record(Duration::from_micros(300));
        assert_eq!(s.analyze.calls(), 2);
        assert_eq!(s.analyze.mean_us(), 200);
    }

    #[test]
    fn render_contains_all_stages() {
        let stats = EngineStats::default();
        stats.analyze.record(Duration::from_micros(42));
        stats.record_question();
        stats.record_cache_miss();
        let table = stats.render();
        for name in [
            "analyze",
            "passages",
            "extract",
            "feed",
            "hit rate",
            "outcomes",
            "retrieval",
            "warehouse",
            "resilience",
        ] {
            assert!(table.contains(name), "missing {name} in:\n{table}");
        }
    }

    /// The retrieval getters read the registry counters that `dwqa-ir`
    /// writes through the observation context; here we write them
    /// directly, as an installed context would.
    #[test]
    fn retrieval_counters_read_the_shared_registry() {
        let stats = EngineStats::default();
        let reg = Arc::clone(stats.registry());
        for (candidate, pruned, windows) in [(4u64, 96u64, 12u64), (6, 94, 20)] {
            reg.counter(names::RETRIEVAL_COUNT).inc();
            reg.counter(names::RETRIEVAL_DOCS_TOTAL).add(100);
            reg.counter(names::RETRIEVAL_DOCS_CANDIDATE).add(candidate);
            reg.counter(names::RETRIEVAL_DOCS_PRUNED).add(pruned);
            reg.counter(names::RETRIEVAL_DOCS_SCORED).add(candidate - 3);
            reg.counter(names::RETRIEVAL_DOCS_BOUND_SKIPPED).add(3);
            reg.counter(names::RETRIEVAL_WINDOWS_SCORED).add(windows);
        }
        assert_eq!(stats.retrievals(), 2);
        assert_eq!(stats.retrieval_docs_candidate(), 10);
        assert_eq!(stats.retrieval_docs_pruned(), 190);
        assert_eq!(stats.retrieval_docs_scored(), 4);
        assert_eq!(stats.retrieval_docs_bound_skipped(), 6);
        assert_eq!(stats.retrieval_windows_scored(), 32);
        assert!((stats.mean_candidate_docs() - 5.0).abs() < 1e-12);
        assert!((stats.pruned_fraction() - 0.95).abs() < 1e-12);
        let table = stats.render();
        assert!(table.contains("95% of corpus pruned"), "{table}");
        assert!(
            table.contains("4 docs scored / 6 cut by the score bound"),
            "{table}"
        );
    }

    /// The warehouse getters read the counters that `dwqa-warehouse` and
    /// the pipeline's rollup cache write through the observation context.
    #[test]
    fn warehouse_counters_read_the_shared_registry() {
        let stats = EngineStats::default();
        let reg = Arc::clone(stats.registry());
        reg.counter(names::WAREHOUSE_PLANS_COMPILED).add(2);
        reg.counter(names::WAREHOUSE_PLANS_REUSED).add(5);
        reg.counter(names::WAREHOUSE_ROWS_SCANNED).add(1000);
        reg.counter(names::WAREHOUSE_ROLLUP_HITS).add(3);
        reg.counter(names::WAREHOUSE_ROLLUP_MISSES).add(4);
        reg.counter(names::WAREHOUSE_DELTA_APPLIED).add(6);
        reg.counter(names::WAREHOUSE_DELTA_DEMOTED).inc();
        reg.counter(names::WAREHOUSE_DELTA_ROWS).add(42);
        assert_eq!(stats.warehouse_plans_compiled(), 2);
        assert_eq!(stats.warehouse_plans_reused(), 5);
        assert_eq!(stats.warehouse_rows_scanned(), 1000);
        assert_eq!(stats.warehouse_rollup_hits(), 3);
        assert_eq!(stats.warehouse_rollup_misses(), 4);
        assert_eq!(stats.warehouse_deltas_applied(), 6);
        assert_eq!(stats.warehouse_deltas_demoted(), 1);
        assert_eq!(stats.warehouse_delta_rows(), 42);
        let table = stats.render();
        assert!(table.contains("2 plans compiled / 5 reused"), "{table}");
        assert!(table.contains("3 hits / 4 misses"), "{table}");
        assert!(
            table.contains("6 applied / 1 demoted (42 rows folded)"),
            "{table}"
        );
    }

    #[test]
    fn outcome_and_resilience_counters_accumulate() {
        let stats = EngineStats::default();
        stats.record_outcome(AnswerOutcome::Ok);
        stats.record_outcome(AnswerOutcome::Ok);
        stats.record_outcome(AnswerOutcome::Degraded);
        stats.record_outcome(AnswerOutcome::TimedOut);
        stats.record_outcome(AnswerOutcome::SourceUnavailable);
        stats.record_outcome(AnswerOutcome::Panicked);
        assert_eq!(stats.outcomes_ok(), 2);
        assert_eq!(stats.outcomes_degraded(), 1);
        assert_eq!(stats.outcomes_timed_out(), 1);
        assert_eq!(stats.outcomes_unavailable(), 1);
        assert_eq!(stats.outcomes_panicked(), 1);
        stats.record_rollback();
        assert_eq!(stats.rollbacks(), 1);
        assert_eq!(stats.worker_deaths(), 0);
        // Source health mirrors cumulative counters idempotently.
        let health = SourceHealth {
            retries: 7,
            breaker_trips: 2,
            breaker_rejections: 3,
            failures: 4,
            ..SourceHealth::default()
        };
        stats.sync_source_health(&health);
        stats.sync_source_health(&health);
        assert_eq!(stats.source_retries(), 7);
        assert_eq!(stats.breaker_trips(), 2);
        assert_eq!(stats.breaker_rejections(), 3);
        assert_eq!(stats.source_failures(), 4);
    }

    /// Regression: the old per-stage merge was bounded by the
    /// destination's highest observed bucket, silently dropping the
    /// source's tail counts when the two histograms covered different
    /// latency ranges. The registry absorb is full-width.
    #[test]
    fn absorb_merges_disjoint_histogram_ranges_without_loss() {
        let a = EngineStats::default();
        let b = EngineStats::default();
        // `a` only ever saw microsecond-scale analyze calls; `b` only
        // multi-second ones — completely disjoint bucket ranges.
        for _ in 0..10 {
            a.analyze.record(Duration::from_micros(3));
        }
        for _ in 0..4 {
            b.analyze.record(Duration::from_secs(2));
        }
        b.record_question();
        b.record_cache_hit();
        a.absorb(&b);
        assert_eq!(a.analyze.calls(), 14, "tail buckets must survive");
        assert!(a.analyze.histogram().quantile_us(1.0) >= 2_000_000);
        assert_eq!(a.analyze.histogram().sum_us(), 30 + 8_000_000);
        assert_eq!(a.questions(), 1);
        assert_eq!(a.cache_hits(), 1);
        // `b` is untouched.
        assert_eq!(b.analyze.calls(), 4);
    }
}
