//! Test support: the roll-up oracle ([`execute_reference`]) and the
//! deterministic, seed-decoded generators shared by the differential
//! test suites (`tests/compiled_parity.rs`, `tests/incremental_parity.rs`)
//! and the experiment binaries.
//!
//! The vendored proptest stand-in only offers primitive strategies, so
//! test cases are seeded from raw `u64`s and decoded into corpora and
//! query specs with a splitmix64 stream ([`Mix`]); a failing case prints
//! its seeds, which reproduce deterministically. Centralising the
//! decoders here keeps every consumer byte-compatible: the same seed
//! yields the same warehouse in a parity proptest, an incremental-
//! maintenance proptest, and a benchmark.

use crate::error::Result;
use crate::etl::{FactRow, FactRowBuilder};
use crate::query::{AggFn, CubeQuery, Predicate, ResultSet};
use crate::value::Value;
use crate::warehouse::Warehouse;

/// The semantic reference every roll-up path is held to, byte for byte:
/// `query` answered by the original row-at-a-time scan with hash
/// aggregation, whatever the kernel would have made of it. Uncounted —
/// `warehouse.reference.fallbacks` counts the product's declines, not
/// the oracle's reads.
pub fn execute_reference(query: &CubeQuery, wh: &Warehouse) -> Result<ResultSet> {
    query.row_at_a_time_fallback(wh)
}

/// City pool for synthetic airports (shared across hierarchy levels so
/// roll-up merging is exercised).
pub const CITIES: [&str; 5] = ["Barcelona", "Madrid", "Paris", "Rome", "Berlin"];
/// Country pool for synthetic airports.
pub const COUNTRIES: [&str; 3] = ["Spain", "France", "Italy"];
/// The measures of the `last_minute_sales` schema.
pub const MEASURES: [&str; 3] = ["price", "miles", "traveler_rate"];
/// Every aggregation function, including combinations that must fail
/// additivity checks when decoded onto a non-additive measure.
pub const FNS: [AggFn; 5] = [AggFn::Sum, AggFn::Avg, AggFn::Min, AggFn::Max, AggFn::Count];

/// Group-by coordinates the query decoder draws from; every hierarchy
/// depth appears so roll-up merging is exercised.
pub const COORDS: [(&str, &str); 8] = [
    ("Destination", "Airport"),
    ("Destination", "City"),
    ("Destination", "Country"),
    ("Origin", "City"),
    ("Customer", "Customer"),
    ("Date", "Date"),
    ("Date", "Month"),
    ("Date", "Year"),
];

/// Deterministic word stream (splitmix64) for decoding seeds into
/// structure.
#[derive(Debug, Clone)]
pub struct Mix(pub u64);

impl Mix {
    /// The next raw 64-bit word of the stream.
    pub fn word(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A word reduced below `n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.word() % n
    }

    /// True one time in `one_in` on average.
    pub fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }
}

/// The member spec of synthetic airport `idx`: city and country from the
/// shared pools; some cities carry a population attribute, some stay
/// Null — the attribute-filter paths must agree on both.
pub fn airport_spec(idx: usize) -> Vec<(&'static str, Value)> {
    let city = CITIES[idx % CITIES.len()];
    let country = COUNTRIES[idx % COUNTRIES.len()];
    let mut spec = vec![
        ("airport_name", Value::text(format!("AP{idx}"))),
        ("city_name", Value::text(city)),
        ("country_name", Value::text(country)),
    ];
    if idx % 3 != 0 {
        spec.push(("population", Value::Int(500_000 * (idx as i64 + 1))));
    }
    spec
}

/// One synthetic sale decoded from a seed word (the proptest corpus
/// shape: 10 airports, 4 customers, January 2004, occasional Null
/// price).
pub fn sales_row(seed: u64) -> FactRow {
    let mut m = Mix(seed);
    let origin = m.below(10) as usize;
    let dest = m.below(10) as usize;
    let customer = m.below(4);
    let day = m.below(27) as u32 + 1;
    let price = if m.chance(8) {
        Value::Null
    } else {
        Value::Float(m.below(50_000) as f64 / 100.0)
    };
    let miles = m.below(200_000) as f64 / 100.0;
    let rate = m.below(1_000) as f64 / 1_000.0;
    let mut b = FactRowBuilder::new();
    b.measure("price", price)
        .measure("miles", Value::Float(miles))
        .measure("traveler_rate", Value::Float(rate))
        .role_member("Origin", &airport_spec(origin))
        .role_member("Destination", &airport_spec(dest))
        .role_member(
            "Customer",
            &[("customer_name", Value::text(format!("C{customer}")))],
        )
        .role_member(
            "Date",
            &[("date", Value::date(2004, 1, day).unwrap_or(Value::Null))],
        );
    b.build()
}

/// A batch of [`sales_row`]s, one per seed.
pub fn sales_batch(row_seeds: &[u64]) -> Vec<FactRow> {
    row_seeds.iter().map(|&s| sales_row(s)).collect()
}

/// A `last_minute_sales` warehouse loaded with one [`sales_row`] per
/// seed.
///
/// # Panics
/// If the synthetic batch fails to load — decoded rows are well-formed
/// by construction, so a rejection is a bug worth failing loudly on.
pub fn build_warehouse(row_seeds: &[u64]) -> Warehouse {
    let mut wh = Warehouse::new(dwqa_mdmodel::last_minute_sales());
    let report = wh
        .load("Last Minute Sales", sales_batch(row_seeds))
        .expect("synthetic batch loads");
    assert!(report.rejected.is_empty(), "synthetic rows must all load");
    wh
}

/// Decodes a query spec: group-bys, aggregates (including combinations
/// that must fail additivity checks), level / attribute / date filters,
/// order-by (sometimes on an unknown column), and a limit.
pub fn build_query(seed: u64) -> CubeQuery {
    let mut m = Mix(seed);
    let mut q = CubeQuery::on("Last Minute Sales");

    // Filters first, as a caller would build them.
    if m.chance(2) {
        let p = match m.below(3) {
            0 => Predicate::Eq(Value::text(CITIES[m.below(5) as usize])),
            1 => {
                let n = m.below(3) as usize;
                Predicate::In(
                    (0..n)
                        .map(|_| Value::text(CITIES[m.below(5) as usize]))
                        .collect(),
                )
            }
            _ => {
                let a = m.below(5) as usize;
                let b = m.below(5) as usize;
                Predicate::Between(Value::text(CITIES[a.min(b)]), Value::text(CITIES[a.max(b)]))
            }
        };
        q = q.filter("Destination", "City", p);
    }
    if m.chance(3) {
        let a = m.below(6_000_000) as i64;
        let b = m.below(6_000_000) as i64;
        q = q.filter_attribute(
            "Destination",
            "population",
            Predicate::Between(Value::Int(a.min(b)), Value::Int(a.max(b))),
        );
    }
    if m.chance(3) {
        let a = m.below(27) as u32 + 1;
        let b = m.below(27) as u32 + 1;
        q = q.filter(
            "Date",
            "Date",
            Predicate::Between(
                Value::date(2004, 1, a.min(b)).unwrap_or(Value::Null),
                Value::date(2004, 1, b.max(a)).unwrap_or(Value::Null),
            ),
        );
    }
    // Occasionally an invalid level: error parity.
    if m.chance(16) {
        q = q.filter("Origin", "Galaxy", Predicate::Eq(Value::text("x")));
    }

    let mut columns: Vec<String> = Vec::new();
    let n_groups = m.below(4) as usize; // 0..=3 coordinates
    for _ in 0..n_groups {
        let (role, level) = COORDS[m.below(COORDS.len() as u64) as usize];
        q = q.group_by(role, level);
        columns.push(format!("{role}.{level}"));
    }
    let n_aggs = m.below(2) as usize + 1; // 1..=2 aggregates
    for _ in 0..n_aggs {
        let measure = MEASURES[m.below(3) as usize];
        let f = FNS[m.below(5) as usize];
        q = q.aggregate(measure, f);
        columns.push(format!("{}({measure})", f.label()));
    }

    if m.chance(16) {
        q = q.order_by("no_such_column", false);
    } else if m.chance(2) {
        let idx = m.below(columns.len() as u64) as usize;
        q = q.order_by(&columns[idx], m.chance(2));
    }
    if m.chance(3) {
        q = q.limit(m.below(6) as usize);
    }
    q
}

/// A batch of benchmark-scale sales drawn from a continuous [`Mix`]
/// stream: `airports` distinct airports, 16 customers, never-Null
/// measures (benchmarks want every row on the accumulate path).
pub fn synthetic_batch(m: &mut Mix, rows: usize, airports: usize) -> Vec<FactRow> {
    (0..rows)
        .map(|_| {
            let origin = m.below(airports as u64) as usize;
            let dest = m.below(airports as u64) as usize;
            let customer = m.below(16);
            let day = m.below(27) as u32 + 1;
            let mut b = FactRowBuilder::new();
            b.measure("price", Value::Float(m.below(50_000) as f64 / 100.0))
                .measure("miles", Value::Float(m.below(200_000) as f64 / 100.0))
                .measure(
                    "traveler_rate",
                    Value::Float(m.below(1_000) as f64 / 1_000.0),
                )
                .role_member("Origin", &airport_spec(origin))
                .role_member("Destination", &airport_spec(dest))
                .role_member(
                    "Customer",
                    &[("customer_name", Value::text(format!("C{customer}")))],
                )
                .role_member(
                    "Date",
                    &[("date", Value::date(2004, 1, day).unwrap_or(Value::Null))],
                );
            b.build()
        })
        .collect()
}

/// A warehouse with `rows` benchmark-scale sales over `airports`
/// distinct airports (deterministic — same seed, same warehouse).
///
/// # Panics
/// If the synthetic batch fails to load; see [`build_warehouse`].
pub fn synthetic_warehouse(rows: usize, airports: usize, seed: u64) -> Warehouse {
    let mut wh = Warehouse::new(dwqa_mdmodel::last_minute_sales());
    let mut m = Mix(seed);
    let report = wh
        .load("Last Minute Sales", synthetic_batch(&mut m, rows, airports))
        .expect("synthetic batch loads");
    assert!(report.rejected.is_empty(), "synthetic rows must all load");
    wh
}
