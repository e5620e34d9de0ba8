//! Incremental roll-up maintenance at the `dwqa-core` layer: the
//! [`RollupCache`] registry must stay byte-identical to cold reference
//! recomputes across arbitrary commit / rollback / crash-recovery /
//! query interleavings (differential proptest), and the
//! [`IntegrationPipeline`] must keep its maintained analyses exact
//! through feed faults and WAL recovery (deterministic scenarios).

use dwqa_common::Month;
use dwqa_core::{
    integrated_schema, sales_by_temperature_band, FeedFault, IntegrationPipeline, PipelineOptions,
    RollupCache,
};
use dwqa_corpus::{
    default_cities, generate_sales, generate_weather_corpus, PageStyle, SalesConfig, WeatherConfig,
};
use dwqa_warehouse::testing::{build_query, build_warehouse, execute_reference, sales_batch, Mix};
use dwqa_warehouse::{CubeQuery, Warehouse, DEFAULT_MATERIALIZED_GROUP_LIMIT};
use proptest::prelude::*;

/// Drives one decoded interleaving through a [`RollupCache`], playing
/// the pipeline's part: commits capture an append delta and fold it into
/// the registry; rollbacks and crash-recoveries replace the warehouse
/// with identical content and leave the registry untouched. Every query
/// op must match a cold [`execute_reference`] recompute
/// exactly.
fn check_cache_interleaving(init_seed: u64, op_seed: u64, query_seeds: &[u64], group_limit: usize) {
    let mut m = Mix(init_seed);
    let init_rows: Vec<u64> = (0..m.below(30)).map(|_| m.word()).collect();
    let mut wh = build_warehouse(&init_rows);
    let queries: Vec<CubeQuery> = query_seeds.iter().map(|&s| build_query(s)).collect();
    let cache = RollupCache::with_group_limit(8, group_limit);

    let mut ops = Mix(op_seed);
    let n_ops = ops.below(8) + 2;
    for op in 0..=n_ops {
        // Every interleaving ends on a query op so maintained state is
        // always checked at least once.
        let kind = if op == n_ops { 3 } else { ops.below(4) };
        match kind {
            0 => {
                // Commit: fold the append delta into every live entry.
                let tracker = wh.delta_tracker();
                let seeds: Vec<u64> = (0..ops.below(4) + 1).map(|_| ops.word()).collect();
                wh.load("Last Minute Sales", sales_batch(&seeds)).unwrap();
                let delta = wh.delta_since(&tracker).expect("load is a pure append");
                cache.apply_delta(&wh, &delta);
            }
            1 => {
                // Rollback: load, then abandon by restoring the
                // pre-load snapshot. No delta — the restored content is
                // exactly what the cache observed.
                let before = wh.snapshot();
                let seeds: Vec<u64> = (0..ops.below(4) + 1).map(|_| ops.word()).collect();
                wh.load("Last Minute Sales", sales_batch(&seeds)).unwrap();
                wh = Warehouse::restore(&before).unwrap();
            }
            2 => {
                // Crash + recovery: the in-memory warehouse is replaced
                // by a replay to identical content. Registry entries key
                // on content extents, not object identity, so they must
                // survive and keep absorbing later deltas.
                wh = Warehouse::restore(&wh.snapshot()).unwrap();
            }
            _ => {
                for q in &queries {
                    let got = cache.run(&wh, q);
                    let want = execute_reference(q, &wh);
                    match (&got, &want) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(a, b, "cache diverged from reference for {q:?}")
                        }
                        (Err(a), Err(b)) => assert_eq!(
                            format!("{a:?}"),
                            format!("{b:?}"),
                            "error mismatch for {q:?}"
                        ),
                        _ => panic!(
                            "cache/reference disagreement for {q:?}: \
                             cache={got:?} reference={want:?}"
                        ),
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The registry-level invariant: arbitrary interleavings of
    /// commit / rollback / crash-recovery / query, the cache is always
    /// byte-identical to a cold recompute.
    #[test]
    fn prop_cache_matches_cold_recompute(
        init_seed in any::<u64>(),
        op_seed in any::<u64>(),
        query_seeds in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        check_cache_interleaving(
            init_seed, op_seed, &query_seeds, DEFAULT_MATERIALIZED_GROUP_LIMIT,
        );
    }

    /// The same interleavings under a group limit so tight most grouped
    /// entries demote mid-stream and are rebuilt by the next read: the
    /// demote-and-recompute path must be just as exact.
    #[test]
    fn prop_cache_survives_forced_demotion(
        init_seed in any::<u64>(),
        op_seed in any::<u64>(),
        query_seeds in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        check_cache_interleaving(init_seed, op_seed, &query_seeds, 2);
    }
}

/// A small world for the pipeline-level scenarios: three cities, prose
/// pages only, sales seeded from the same ground truth.
fn build_world(seed: u64) -> IntegrationPipeline {
    let cities: Vec<_> = default_cities()
        .into_iter()
        .filter(|c| matches!(c.city, "Barcelona" | "Madrid" | "Paris"))
        .collect();
    let corpus = generate_weather_corpus(
        &WeatherConfig::new(seed, 2004, Month::January).with_styles(&[PageStyle::Prose]),
        &cities,
    );
    let mut warehouse = Warehouse::new(integrated_schema());
    warehouse
        .load(
            "Last Minute Sales",
            generate_sales(&SalesConfig::default(), &cities, &corpus.truth),
        )
        .unwrap();
    IntegrationPipeline::build(warehouse, corpus.store, PipelineOptions::default())
}

/// Temperature questions for `city` over the first `days` of January.
fn questions(city: &str, days: u32) -> Vec<String> {
    (1..=days)
        .map(|d| format!("What is the temperature on January {d}, 2004 in {city}?"))
        .collect()
}

fn scratch(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dwqa-incr-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Feeding through the pipeline maintains the cached analysis in place:
/// no re-scan, and the maintained result equals an uncached recompute
/// against the live warehouse after every commit and rollback.
#[test]
fn maintained_analysis_tracks_feeds_and_rollbacks_exactly() {
    let mut p = build_world(42);
    let read = p.read_path();

    // Warm the registry before any feedback.
    let cold = p.sales_by_temperature_band(5.0).unwrap();
    assert_eq!(cold, sales_by_temperature_band(&p.warehouse, 5.0).unwrap());
    let misses_after_warmup = p.rollup_cache().misses();

    for (i, q) in questions("Barcelona", 6).iter().enumerate() {
        let answers = read.answer(q);
        if i % 2 == 1 {
            // Interleave a faulted (rolled-back) transaction: the
            // maintained entries must be left exactly as they were.
            p.set_feed_fault(Some(FeedFault {
                seed: i as u64,
                rate: 1.0,
            }));
            assert!(p.try_apply_feedback(&answers).is_err());
            p.set_feed_fault(None);
        }
        p.apply_feedback(&answers);
        assert_eq!(
            p.sales_by_temperature_band(5.0).unwrap(),
            sales_by_temperature_band(&p.warehouse, 5.0).unwrap(),
            "maintained analysis diverged after feed {i}"
        );
    }
    assert!(p.rollbacks() >= 3);
    assert_eq!(
        p.rollup_cache().misses(),
        misses_after_warmup,
        "every post-warmup read was served from maintained entries"
    );
}

/// WAL recovery replays the feed history into the same materialized
/// state: a fresh process recovering from the store reproduces the exact
/// analysis the crashed process maintained incrementally.
#[test]
fn recovery_replays_to_the_same_materialized_state() {
    let dir = scratch("recover");
    let mut p = build_world(42);
    p.attach_store_at(&dir).unwrap();
    let read = p.read_path();

    // Warm, then feed — the cached entries absorb each commit's delta.
    let _ = p.sales_by_temperature_band(5.0).unwrap();
    for q in questions("Barcelona", 5)
        .iter()
        .chain(&questions("Madrid", 5))
    {
        p.apply_feedback(&read.answer(q));
    }
    let incremental = p.sales_by_temperature_band(5.0).unwrap();
    assert!(!incremental.is_empty());
    assert_eq!(
        incremental,
        sales_by_temperature_band(&p.warehouse, 5.0).unwrap()
    );

    // "Crash": a fresh process recovers checkpoint + WAL and must
    // converge to the same materialized analysis.
    let mut q = build_world(42);
    let report = q.attach_store_at(&dir).unwrap();
    assert!(report.transactions_replayed > 0 || report.rows_loaded > 0);
    assert_eq!(
        q.sales_by_temperature_band(5.0).unwrap(),
        incremental,
        "recovered analysis diverged from the pre-crash incremental state"
    );

    // And the recovered pipeline keeps maintaining incrementally.
    q.apply_feedback(
        &q.read_path()
            .answer("What is the temperature on January 20, 2004 in Paris?"),
    );
    assert_eq!(
        q.sales_by_temperature_band(5.0).unwrap(),
        sales_by_temperature_band(&q.warehouse, 5.0).unwrap()
    );
}
