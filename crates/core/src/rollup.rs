//! Registry of **live** roll-up results — the one roll-up cache.
//!
//! An entry that is present is current. The cache has one owner, the
//! one that mutates the warehouse, and that owner brings the cache
//! along synchronously with every mutation: an append is folded in
//! ([`RollupCache::apply_delta`]), anything else drops the entries
//! ([`RollupCache::clear`]). So entries carry no version tag and a read
//! never has to ask whether what it found is stale.
//!
//! Entries keep the [`Rollup`] that produced them — for a query the
//! kernel carries, the per-group accumulator state with its maintained
//! result. That state
//! is what makes commits cheap. A committed feed transaction does not
//! purge the cache; it folds its typed [`WarehouseDelta`] into every
//! live entry — appended fact rows go through the kernel's row loop
//! over just the delta, new dimension members extend the pass masks and
//! key→ordinal maps. Entries that cannot absorb a delta (a result the
//! kernel declined to carry, mismatched extents, lane or group-table
//! overflow) are **demoted**: dropped and recomputed on next read, so
//! incremental maintenance is always an optimization, never a
//! correctness risk. A rolled-back transaction restores the warehouse
//! to the state the entries describe, so it leaves them alone.

use dwqa_obs::names as obs;
use dwqa_warehouse::{
    CubeQuery, Result, ResultSet, Rollup, Warehouse, WarehouseDelta,
    DEFAULT_MATERIALIZED_GROUP_LIMIT,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Default number of cached result sets (the BI workloads reuse a
/// handful of query shapes per dashboard refresh).
pub const DEFAULT_ROLLUP_CAPACITY: usize = 64;

struct CachedResult {
    cached: Rollup,
    last_used: u64,
}

struct Inner {
    map: HashMap<String, CachedResult>,
    tick: u64,
}

/// An LRU cache of [`ResultSet`]s keyed by the query's canonical form
/// and — for materializable queries — kept consistent across commits by
/// folding deltas instead of purging.
pub struct RollupCache {
    capacity: usize,
    /// Demotion threshold for materialized entries; tests shrink it to
    /// force the demote-and-rebuild path.
    group_limit: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for RollupCache {
    fn default() -> RollupCache {
        RollupCache::new(DEFAULT_ROLLUP_CAPACITY)
    }
}

impl std::fmt::Debug for RollupCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RollupCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl RollupCache {
    /// Creates a cache holding up to `capacity` result sets. Capacity 0
    /// disables caching (every run executes).
    pub fn new(capacity: usize) -> RollupCache {
        RollupCache::with_group_limit(capacity, DEFAULT_MATERIALIZED_GROUP_LIMIT)
    }

    /// Like [`RollupCache::new`] with an explicit bound on live groups
    /// per materialized entry; entries growing past it demote to
    /// recompute-on-next-read.
    pub fn with_group_limit(capacity: usize, group_limit: usize) -> RollupCache {
        RollupCache {
            capacity,
            group_limit,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn inner(&self) -> MutexGuard<'_, Inner> {
        // A poisoned lock only means another thread panicked mid-insert;
        // the map itself is always structurally sound.
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Runs `query` against `warehouse`, serving the result from cache
    /// when there is one: whoever mutates `warehouse` must follow with
    /// [`RollupCache::apply_delta`] or [`RollupCache::clear`] before the
    /// next run. Misses build live accumulator state where the query
    /// shape permits, so later commits can maintain the entry in place.
    /// Errors are never cached (they are cheap to reproduce and carry no
    /// scan cost).
    pub fn run(&self, warehouse: &Warehouse, query: &CubeQuery) -> Result<ResultSet> {
        let Ok(key) = serde_json::to_string(query) else {
            return query.run(warehouse);
        };
        {
            let mut inner = self.inner();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                dwqa_obs::counter_add(obs::WAREHOUSE_ROLLUP_HITS, 1);
                return Ok(entry.cached.result_set().clone());
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        dwqa_obs::counter_add(obs::WAREHOUSE_ROLLUP_MISSES, 1);
        if self.capacity == 0 {
            return query.run(warehouse);
        }
        let cached = Rollup::build(query, warehouse, self.group_limit)?;
        let result = cached.result_set().clone();
        {
            let mut inner = self.inner();
            inner.tick += 1;
            let tick = inner.tick;
            inner.map.insert(
                key,
                CachedResult {
                    cached,
                    last_used: tick,
                },
            );
            while inner.map.len() > self.capacity {
                let Some(oldest) = inner
                    .map
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                else {
                    break;
                };
                inner.map.remove(&oldest);
            }
        }
        Ok(result)
    }

    /// Folds a committed transaction's pure-append delta into every
    /// live entry; entries that cannot absorb it are demoted (dropped,
    /// recomputed on next read).
    ///
    /// `warehouse` must already be at the delta's after-extents — the
    /// pipeline calls this right after a successful commit, before any
    /// further mutation.
    pub fn apply_delta(&self, warehouse: &Warehouse, delta: &WarehouseDelta) {
        let mut inner = self.inner();
        inner.map.retain(|_, entry| {
            let folded = entry.cached.apply_delta(warehouse, delta);
            match folded {
                Some(rows) => {
                    dwqa_obs::counter_add(obs::WAREHOUSE_DELTA_APPLIED, 1);
                    dwqa_obs::counter_add(obs::WAREHOUSE_DELTA_ROWS, rows as u64);
                }
                None => dwqa_obs::counter_add(obs::WAREHOUSE_DELTA_DEMOTED, 1),
            }
            folded.is_some()
        });
    }

    /// Drops everything: what follows a mutation that is not an append.
    pub fn clear(&self) {
        self.inner().map.clear();
    }

    /// Number of cached result sets.
    pub fn len(&self) -> usize {
        self.inner().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cache hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (queries actually executed) since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwqa_warehouse::{AggFn, FactRowBuilder, Value};

    fn sale(airport: &str, city: &str, day: u32, price: f64) -> dwqa_warehouse::FactRow {
        let mut b = FactRowBuilder::new();
        b.measure("price", Value::Float(price))
            .measure("miles", Value::Float(500.0))
            .measure("traveler_rate", Value::Float(0.5))
            .role_member("Origin", &[("airport_name", Value::text("Elsewhere"))])
            .role_member(
                "Destination",
                &[
                    ("airport_name", Value::text(airport)),
                    ("city_name", Value::text(city)),
                ],
            )
            .role_member("Customer", &[("customer_name", Value::text("Ann"))])
            .role_member("Date", &[("date", Value::date(2004, 1, day).unwrap())]);
        b.build()
    }

    fn loaded() -> Warehouse {
        let mut wh = Warehouse::new(crate::schema::integrated_schema());
        wh.load(
            "Last Minute Sales",
            vec![sale("El Prat", "Barcelona", 5, 100.0)],
        )
        .unwrap();
        wh
    }

    fn count_query() -> CubeQuery {
        CubeQuery::on("Last Minute Sales")
            .group_by("Destination", "City")
            .aggregate("price", AggFn::Count)
    }

    #[test]
    fn second_run_is_a_hit() {
        let wh = loaded();
        let cache = RollupCache::new(8);
        let q = count_query();
        let a = cache.run(&wh, &q).unwrap();
        let b = cache.run(&wh, &q).unwrap();
        assert_eq!(a, b);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        let wh = loaded();
        let cache = RollupCache::new(2);
        let queries: Vec<CubeQuery> = [AggFn::Count, AggFn::Min, AggFn::Max]
            .iter()
            .map(|&f| {
                CubeQuery::on("Last Minute Sales")
                    .group_by("Destination", "City")
                    .aggregate("price", f)
            })
            .collect();
        cache.run(&wh, &queries[0]).unwrap();
        cache.run(&wh, &queries[1]).unwrap();
        // Touch the first so the second is the LRU victim.
        cache.run(&wh, &queries[0]).unwrap();
        cache.run(&wh, &queries[2]).unwrap();
        assert_eq!(cache.len(), 2);
        cache.run(&wh, &queries[0]).unwrap();
        assert_eq!(cache.hits(), 2, "first query stayed cached");
        cache.run(&wh, &queries[1]).unwrap();
        assert_eq!(cache.misses(), 4, "second query was evicted");
    }

    #[test]
    fn capacity_zero_disables_caching() {
        let wh = loaded();
        let cache = RollupCache::new(0);
        let q = count_query();
        cache.run(&wh, &q).unwrap();
        cache.run(&wh, &q).unwrap();
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn errors_are_not_cached() {
        let wh = loaded();
        let cache = RollupCache::new(8);
        let q = CubeQuery::on("Ghost").aggregate("price", AggFn::Count);
        assert!(cache.run(&wh, &q).is_err());
        assert!(cache.run(&wh, &q).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn apply_delta_maintains_entries_in_place() {
        let mut wh = loaded();
        let cache = RollupCache::new(8);
        let q = count_query();
        let before = cache.run(&wh, &q).unwrap();
        assert_eq!(cache.misses(), 1);

        // Commit two more sales, one to a brand-new city.
        let tracker = wh.delta_tracker();
        wh.load(
            "Last Minute Sales",
            vec![
                sale("El Prat", "Barcelona", 6, 140.0),
                sale("JFK", "New York", 7, 320.0),
            ],
        )
        .unwrap();
        let delta = wh.delta_since(&tracker).unwrap();
        cache.apply_delta(&wh, &delta);

        // The entry survived the commit and serves the *new* answer as
        // a hit, with no re-execution.
        assert_eq!(cache.len(), 1);
        let after = cache.run(&wh, &q).unwrap();
        assert_eq!(cache.misses(), 1, "maintained entry needs no recompute");
        assert_eq!(cache.hits(), 1);
        assert_ne!(before, after);
        assert_eq!(after, q.run(&wh).unwrap(), "equals a cold run");
    }

    #[test]
    fn unabsorbable_entries_demote_on_delta() {
        let mut wh = loaded();
        // Group limit 1: the two-city roll-up below outgrows it on
        // commit, so the entry must demote rather than absorb.
        let cache = RollupCache::with_group_limit(8, 1);
        let q = count_query();
        cache.run(&wh, &q).unwrap();
        assert_eq!(cache.len(), 1);

        let tracker = wh.delta_tracker();
        wh.load("Last Minute Sales", vec![sale("JFK", "New York", 7, 320.0)])
            .unwrap();
        let delta = wh.delta_since(&tracker).unwrap();
        cache.apply_delta(&wh, &delta);
        assert!(cache.is_empty(), "overgrown entry demoted, not kept stale");

        // The next read recomputes correctly.
        let fresh = cache.run(&wh, &q).unwrap();
        assert_eq!(fresh, q.run(&wh).unwrap(), "equals a cold run");
        assert_eq!(cache.misses(), 2);
    }
}
