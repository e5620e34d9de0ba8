//! Edge cases of the one roll-up kernel as the [`RollupCache`] keeps it:
//! lanes outgrown by a dimension, the key space of size one, commits
//! that do not touch an entry's fact, and the counted fallback to the
//! reference executor. Every read is compared with a cold
//! [`execute_reference`].

use dwqa_core::{integrated_schema, RollupCache};
use dwqa_obs::{names, MetricsRegistry};
use dwqa_warehouse::testing::execute_reference;
use dwqa_warehouse::{AggFn, CubeQuery, FactRow, FactRowBuilder, Value, Warehouse};
use std::sync::Arc;

fn sale(city: &str, day: u32, price: f64) -> FactRow {
    let mut b = FactRowBuilder::new();
    b.measure("price", Value::Float(price))
        .measure("miles", Value::Float(500.0))
        .measure("traveler_rate", Value::Float(0.5))
        .role_member(
            "Origin",
            &[
                ("airport_name", Value::text("Hub Airport")),
                ("city_name", Value::text("Hub")),
            ],
        )
        .role_member(
            "Destination",
            &[
                ("airport_name", Value::text(format!("{city} Airport"))),
                ("city_name", Value::text(city)),
            ],
        )
        .role_member("Customer", &[("customer_name", Value::text("Ann"))])
        .role_member("Date", &[("date", Value::date(2004, 1, day).unwrap())]);
    b.build()
}

fn weather(city: &str, day: u32, temperature: f64) -> FactRow {
    let mut b = FactRowBuilder::new();
    b.measure("temperature_c", Value::Float(temperature))
        .role_member("City", &[("city_name", Value::text(city))])
        .role_member("Date", &[("date", Value::date(2004, 1, day).unwrap())])
        .role_member("Source", &[("url", Value::text("http://example.org/w"))]);
    b.build()
}

/// A warehouse and its cache, committing the way the pipeline
/// does, with every counter the two emit in `registry`.
struct Harness {
    wh: Warehouse,
    cache: RollupCache,
    registry: Arc<MetricsRegistry>,
}

impl Harness {
    fn new(cache: RollupCache) -> Harness {
        Harness {
            wh: Warehouse::new(integrated_schema()),
            cache,
            registry: Arc::new(MetricsRegistry::new()),
        }
    }

    fn commit(&mut self, fact: &str, rows: Vec<FactRow>) {
        let _obs = dwqa_obs::observe(Some(Arc::clone(&self.registry)), None, "test", "commit");
        let tracker = self.wh.delta_tracker();
        let report = self.wh.load(fact, rows).unwrap();
        assert!(report.rejected.is_empty());
        let delta = self.wh.delta_since(&tracker).unwrap();
        self.cache.apply_delta(&self.wh, &delta);
    }

    /// Reads through the cache and checks the answer against the oracle.
    fn read(&self, query: &CubeQuery) {
        let _obs = dwqa_obs::observe(Some(Arc::clone(&self.registry)), None, "test", "read");
        let got = self.cache.run(&self.wh, query).unwrap();
        assert_eq!(
            got,
            execute_reference(query, &self.wh).unwrap(),
            "{query:?}"
        );
    }

    fn counter(&self, name: &str) -> u64 {
        self.registry.counter_value(name)
    }
}

/// A lane is sized when the state is built (room for 16 values over an
/// empty dimension). One new city per commit stays exact while they
/// fit — the origin's "Hub" and fifteen destinations; the commit that
/// brings the seventeenth value must demote the entry — packing its
/// ordinal would spill into the date lane — and the rebuilt entry, with
/// wider lanes, absorbs the commits after it.
#[test]
fn a_coordinate_outgrowing_its_lane_demotes_and_rebuilds() {
    let mut h = Harness::new(RollupCache::new(8));
    let q = CubeQuery::on("Last Minute Sales")
        .group_by("Destination", "City")
        .group_by("Date", "Date")
        .aggregate("price", AggFn::Sum)
        .aggregate("price", AggFn::Count);
    h.read(&q);
    for n in 1..=24u32 {
        h.commit(
            "Last Minute Sales",
            vec![
                sale(&format!("City {n}"), 1 + n % 3, f64::from(n) * 1.1),
                sale("City 1", 2, 0.7),
            ],
        );
        h.read(&q);
        let demoted = h.counter(names::WAREHOUSE_DELTA_DEMOTED);
        assert_eq!(demoted, u64::from(n >= 16), "after {n} cities");
    }
    assert_eq!(h.cache.misses(), 2, "the first read and the one rebuild");
    assert_eq!(h.counter(names::WAREHOUSE_DELTA_APPLIED), 23);
}

/// A query without group-by is the key space of size one: no row while
/// nothing has passed the filters, one row from the commit that
/// delivers the first, maintained in place after that.
#[test]
fn a_zero_group_query_is_maintained_from_its_first_row() {
    let mut h = Harness::new(RollupCache::new(8));
    let q = CubeQuery::on("Last Minute Sales")
        .aggregate("price", AggFn::Sum)
        .aggregate("miles", AggFn::Avg);
    h.read(&q);
    assert!(execute_reference(&q, &h.wh).unwrap().rows.is_empty());
    for day in 1..=3 {
        h.commit("Last Minute Sales", vec![sale("Barcelona", day, 99.9)]);
        h.read(&q);
    }
    assert_eq!(execute_reference(&q, &h.wh).unwrap().rows.len(), 1);
    assert_eq!(h.cache.misses(), 1, "every read after the first is a hit");
    assert_eq!(h.counter(names::WAREHOUSE_DELTA_DEMOTED), 0);
}

/// A commit to `City Weather` leaves a `Last Minute Sales` entry as it
/// is, new member of a dimension it groups on or not: same result, a
/// hit, nothing materialised again — and
/// `warehouse.delta.rows` counts the weather entry's rows once, not once
/// per live entry.
#[test]
fn a_commit_to_another_fact_only_retags_the_entry() {
    let mut h = Harness::new(RollupCache::new(8));
    h.commit(
        "Last Minute Sales",
        vec![sale("Barcelona", 1, 100.0), sale("Madrid", 2, 80.0)],
    );
    let sales = CubeQuery::on("Last Minute Sales")
        .group_by("Destination", "City")
        .group_by("Date", "Date")
        .aggregate("price", AggFn::Sum);
    let temps = CubeQuery::on("City Weather")
        .group_by("City", "City")
        .aggregate("temperature_c", AggFn::Avg);
    h.read(&sales);
    h.read(&temps);
    let before = h.cache.run(&h.wh, &sales).unwrap();
    let (hits, misses) = (h.cache.hits(), h.cache.misses());
    let groups = h.counter(names::WAREHOUSE_GROUPS);

    // Day 9 is a new member of the Date dimension both facts share.
    h.commit(
        "City Weather",
        vec![weather("Barcelona", 9, 11.5), weather("Madrid", 9, 7.0)],
    );
    assert_eq!(h.counter(names::WAREHOUSE_DELTA_APPLIED), 2);
    assert_eq!(h.counter(names::WAREHOUSE_DELTA_ROWS), 2);
    assert_eq!(
        h.counter(names::WAREHOUSE_GROUPS),
        groups + 2,
        "only the weather entry (two cities) was materialised again"
    );
    h.read(&sales);
    h.read(&temps);
    assert_eq!(h.cache.run(&h.wh, &sales).unwrap(), before);
    assert_eq!(h.cache.hits(), hits + 3);
    assert_eq!(h.cache.misses(), misses);
}

/// A query the kernel declines (here: more groups than the limit) is
/// answered by the reference executor, and every such miss is counted.
#[test]
fn a_declined_query_is_a_counted_reference_fallback() {
    let mut h = Harness::new(RollupCache::with_group_limit(8, 1));
    h.commit(
        "Last Minute Sales",
        vec![sale("Barcelona", 1, 100.0), sale("Madrid", 2, 80.0)],
    );
    let q = CubeQuery::on("Last Minute Sales")
        .group_by("Destination", "City")
        .aggregate("price", AggFn::Count);
    h.read(&q);
    assert_eq!(h.counter(names::WAREHOUSE_REFERENCE_FALLBACKS), 1);
    h.read(&q);
    assert_eq!(h.cache.hits(), 1, "the reference result is cached too");
    assert_eq!(h.counter(names::WAREHOUSE_REFERENCE_FALLBACKS), 1);

    // It holds no state to maintain, so the next commit demotes it.
    h.commit("Last Minute Sales", vec![sale("Paris", 3, 60.0)]);
    assert_eq!(h.counter(names::WAREHOUSE_DELTA_DEMOTED), 1);
    h.read(&q);
    assert_eq!(h.counter(names::WAREHOUSE_REFERENCE_FALLBACKS), 2);
}
