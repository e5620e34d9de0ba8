//! Per-stage counters and latency histograms for the batch engine — a
//! *view* over a [`dwqa_obs::MetricsRegistry`].
//!
//! The engine owns one registry per instance and installs it into each
//! worker's thread-local observation context for the duration of a
//! question (see [`dwqa_obs::observe`]), so the lower crates — `dwqa-ir`
//! retrieval, the warehouse kernel — record against the same names
//! ([`dwqa_obs::names`]) without any handle threading. `EngineStats`
//! caches `Arc` handles to the hot counters and histograms, keeping the
//! record path lock-free, and renders the whole registry as the familiar
//! fixed-width table for the REPL and experiment binaries.

use crate::outcome::AnswerOutcome;
use dwqa_obs::{names, Counter, MetricsRegistry};
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
    // Outcome taxonomy counters.
    outcome_ok: Arc<Counter>,
    outcome_timed_out: Arc<Counter>,
    outcome_panicked: Arc<Counter>,
    // Resilience counters: engine-local events.
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
            outcome_timed_out: registry.counter(&outcome_name(AnswerOutcome::TimedOut)),
            outcome_panicked: registry.counter(&outcome_name(AnswerOutcome::Panicked)),
            rollbacks: registry.counter(names::ROLLBACKS),
            worker_deaths: registry.counter(names::WORKER_DEATHS),
            registry,
        }
    }

    /// The underlying registry — what the engine installs into each
    /// worker's observation context so retrieval and warehouse counters
    /// land next to the stage histograms.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Merges another stats object into this one: counters and every
    /// histogram bucket are added (full-width — disjoint latency ranges
    /// lose nothing).
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
            AnswerOutcome::TimedOut => &self.outcome_timed_out,
            AnswerOutcome::Panicked => &self.outcome_panicked,
        };
        counter.inc();
    }

    pub(crate) fn record_rollback(&self) {
        self.rollbacks.inc();
    }

    pub(crate) fn record_worker_death(&self) {
        self.worker_deaths.inc();
    }

    /// Questions that hit their deadline.
    pub fn outcomes_timed_out(&self) -> u64 {
        self.outcome_timed_out.value()
    }

    /// Questions whose worker panicked (isolated).
    pub fn outcomes_panicked(&self) -> u64 {
        self.outcome_panicked.value()
    }

    /// Feed transactions rolled back all-or-nothing.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks.value()
    }

    /// Worker-pool threads lost to an unisolated panic (should stay 0).
    pub fn worker_deaths(&self) -> u64 {
        self.worker_deaths.value()
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

    /// Renders the statistics as a fixed-width table. Figures no caller
    /// reads one by one — retrieval pruning, the warehouse kernel — come
    /// straight from the registry, by name.
    pub fn render(&self) -> String {
        fn us(v: u64) -> String {
            if v >= 10_000 {
                format!("{:.1} ms", v as f64 / 1e3)
            } else {
                format!("{v} µs")
            }
        }
        fn ratio(part: u64, whole: u64) -> f64 {
            if whole == 0 {
                0.0
            } else {
                part as f64 / whole as f64
            }
        }
        let count = |name: &str| self.registry.counter_value(name);
        let mut out = String::new();
        out.push_str(&format!(
            "questions: {}   batches: {}   cache: {} hits / {} misses ({:.0}% hit rate)\n",
            self.questions(),
            self.batches(),
            self.cache_hits(),
            self.cache_misses(),
            ratio(self.cache_hits(), self.cache_hits() + self.cache_misses()) * 100.0,
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
            "outcomes: {} ok / {} timed-out / {} panicked\n",
            self.outcome_ok.value(),
            self.outcome_timed_out.value(),
            self.outcome_panicked.value(),
        ));
        out.push_str(&format!(
            "retrieval: {} retrievals   {:.1} candidate docs/query ({:.0}% of corpus pruned)   {} docs scored / {} cut by the score bound   {} windows scored\n",
            count(names::RETRIEVAL_COUNT),
            ratio(count(names::RETRIEVAL_DOCS_CANDIDATE), count(names::RETRIEVAL_COUNT)),
            ratio(count(names::RETRIEVAL_DOCS_PRUNED), count(names::RETRIEVAL_DOCS_TOTAL)) * 100.0,
            count(names::RETRIEVAL_DOCS_SCORED),
            count(names::RETRIEVAL_DOCS_BOUND_SKIPPED),
            count(names::RETRIEVAL_WINDOWS_SCORED),
        ));
        out.push_str(&format!(
            "warehouse: {} plans compiled / {} reused   {} rows scanned   rollup cache: {} hits / {} misses   deltas: {} applied / {} demoted ({} rows folded)\n",
            count(names::WAREHOUSE_PLANS_COMPILED),
            count(names::WAREHOUSE_PLANS_REUSED),
            count(names::WAREHOUSE_ROWS_SCANNED),
            count(names::WAREHOUSE_ROLLUP_HITS),
            count(names::WAREHOUSE_ROLLUP_MISSES),
            count(names::WAREHOUSE_DELTA_APPLIED),
            count(names::WAREHOUSE_DELTA_DEMOTED),
            count(names::WAREHOUSE_DELTA_ROWS),
        ));
        out.push_str(&format!(
            "resilience: {} rollbacks   {} worker deaths\n",
            self.rollbacks.value(),
            self.worker_deaths.value(),
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
        // `render` reads most of its figures from the registry by name;
        // the table it prints for a registry with a distinct value
        // behind every figure, and for an empty one (every ratio's zero
        // denominator), is the one the getter-per-metric version printed.
        assert_eq!(
            fixed_registry().render(),
            "questions: 41   batches: 5   cache: 12 hits / 29 misses (29% hit rate)\n\
             stage     |  calls |    mean |    ≤p50 |    ≤p95 |     max\n\
             ----------+--------+---------+---------+---------+--------\n\
             analyze   |      4 | 5135 µs |   64 µs | 32.8 ms | 32.8 ms\n\
             passages  |      4 | 10.3 ms |  128 µs | 65.5 ms | 65.5 ms\n\
             extract   |      4 | 20.5 ms |  256 µs | 131.1 ms | 131.1 ms\n\
             feed      |      4 | 41.1 ms |  512 µs | 262.1 ms | 262.1 ms\n\
             outcomes: 1 ok / 12 timed-out / 23 panicked\n\
             retrieval: 31 retrievals   700.0 candidate docs/query (20% of corpus pruned)   \
             403 docs scored / 21297 cut by the score bound   13330 windows scored\n\
             warehouse: 80 plans compiled / 87 reused   61094 rows scanned   \
             rollup cache: 101 hits / 8 misses   \
             deltas: 115 applied / 2 demoted (1290 rows folded)\n\
             resilience: 6 rollbacks   1 worker deaths\n"
        );
        assert_eq!(
            EngineStats::default().render(),
            "questions: 0   batches: 0   cache: 0 hits / 0 misses (0% hit rate)\n\
             stage     |  calls |    mean |    ≤p50 |    ≤p95 |     max\n\
             ----------+--------+---------+---------+---------+--------\n\
             analyze   |      0 |    0 µs |    0 µs |    0 µs |    0 µs\n\
             passages  |      0 |    0 µs |    0 µs |    0 µs |    0 µs\n\
             extract   |      0 |    0 µs |    0 µs |    0 µs |    0 µs\n\
             feed      |      0 |    0 µs |    0 µs |    0 µs |    0 µs\n\
             outcomes: 0 ok / 0 timed-out / 0 panicked\n\
             retrieval: 0 retrievals   0.0 candidate docs/query (0% of corpus pruned)   \
             0 docs scored / 0 cut by the score bound   0 windows scored\n\
             warehouse: 0 plans compiled / 0 reused   0 rows scanned   \
             rollup cache: 0 hits / 0 misses   \
             deltas: 0 applied / 0 demoted (0 rows folded)\n\
             resilience: 0 rollbacks   0 worker deaths\n"
        );
    }

    /// A registry with a distinct value behind every figure `render`
    /// prints.
    fn fixed_registry() -> EngineStats {
        let stats = EngineStats::default();
        let reg = Arc::clone(stats.registry());
        for (i, stage) in [&stats.analyze, &stats.passages, &stats.extract, &stats.feed]
            .into_iter()
            .enumerate()
        {
            for us in [3u64, 40, 500, 20_000] {
                stage.record(Duration::from_micros(us << i));
            }
        }
        for (name, value) in [
            (names::QUESTIONS, 41),
            (names::BATCHES, 5),
            (names::CACHE_HITS, 12),
            (names::CACHE_MISSES, 29),
            (names::RETRIEVAL_COUNT, 31),
            (names::RETRIEVAL_DOCS_TOTAL, 27_032),
            (names::RETRIEVAL_DOCS_CANDIDATE, 21_700),
            (names::RETRIEVAL_DOCS_SCORED, 403),
            (names::RETRIEVAL_DOCS_BOUND_SKIPPED, 21_297),
            (names::RETRIEVAL_DOCS_PRUNED, 5_332),
            (names::RETRIEVAL_WINDOWS_SCORED, 13_330),
            (names::WAREHOUSE_PLANS_COMPILED, 80),
            (names::WAREHOUSE_PLANS_REUSED, 87),
            (names::WAREHOUSE_ROWS_SCANNED, 61_094),
            (names::WAREHOUSE_ROLLUP_HITS, 101),
            (names::WAREHOUSE_ROLLUP_MISSES, 8),
            (names::WAREHOUSE_DELTA_APPLIED, 115),
            (names::WAREHOUSE_DELTA_DEMOTED, 2),
            (names::WAREHOUSE_DELTA_ROWS, 1_290),
            (names::ROLLBACKS, 6),
            (names::WORKER_DEATHS, 1),
        ] {
            reg.counter(name).add(value);
        }
        for (n, outcome) in [
            AnswerOutcome::Ok,
            AnswerOutcome::TimedOut,
            AnswerOutcome::Panicked,
        ]
        .into_iter()
        .enumerate()
        {
            reg.counter(&outcome_name(outcome)).add(11 * n as u64 + 1);
        }
        stats
    }

    /// The retrieval line reads the registry counters that `dwqa-ir`
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
        let table = stats.render();
        assert!(
            table.contains(
                "retrieval: 2 retrievals   5.0 candidate docs/query (95% of corpus pruned)   \
                 4 docs scored / 6 cut by the score bound   32 windows scored\n"
            ),
            "{table}"
        );
    }

    /// The warehouse line reads the counters that `dwqa-warehouse` and
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
        let table = stats.render();
        assert!(
            table.contains(
                "warehouse: 2 plans compiled / 5 reused   1000 rows scanned   \
                 rollup cache: 3 hits / 4 misses   \
                 deltas: 6 applied / 1 demoted (42 rows folded)\n"
            ),
            "{table}"
        );
    }

    #[test]
    fn outcome_and_resilience_counters_accumulate() {
        let stats = EngineStats::default();
        stats.record_outcome(AnswerOutcome::Ok);
        stats.record_outcome(AnswerOutcome::Ok);
        stats.record_outcome(AnswerOutcome::TimedOut);
        stats.record_outcome(AnswerOutcome::Panicked);
        assert_eq!(stats.outcomes_timed_out(), 1);
        assert_eq!(stats.outcomes_panicked(), 1);
        assert!(
            stats
                .render()
                .contains("outcomes: 2 ok / 1 timed-out / 1 panicked\n"),
            "{}",
            stats.render()
        );
        stats.record_rollback();
        stats.record_worker_death();
        assert_eq!(stats.rollbacks(), 1);
        assert_eq!(stats.worker_deaths(), 1);
        assert!(
            stats
                .render()
                .contains("resilience: 1 rollbacks   1 worker deaths\n"),
            "{}",
            stats.render()
        );
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
