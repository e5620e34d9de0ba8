//! The cube query engine: slice/dice, roll-up/drill-down, aggregation.
//!
//! A [`CubeQuery`] names a fact, an optional set of [`Filter`]s (slice /
//! dice), a list of group-by coordinates (`(role, level)` pairs — choosing
//! a coarser level *is* roll-up, a finer one drill-down), and the
//! aggregates to compute. [`CubeQuery::run`] executes through the fold
//! kernel in `plan.rs`; the row-at-a-time scan with hash aggregation
//! that keeps the semantics obvious answers the queries the kernel
//! declines and, through [`crate::testing`], serves as its oracle.

use crate::error::{Result, WarehouseError};
use crate::plan::{Rollup, DEFAULT_MATERIALIZED_GROUP_LIMIT};
use crate::value::Value;
use crate::warehouse::Warehouse;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Aggregation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFn {
    /// Sum (requires an additive measure).
    Sum,
    /// Arithmetic mean (requires an additive or semi-additive measure).
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Count of non-null measure values.
    Count,
}

impl AggFn {
    /// The label used in result column names, e.g. `sum`.
    pub fn label(self) -> &'static str {
        match self {
            AggFn::Sum => "sum",
            AggFn::Avg => "avg",
            AggFn::Min => "min",
            AggFn::Max => "max",
            AggFn::Count => "count",
        }
    }
}

/// One requested aggregate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// The measure to aggregate.
    pub measure: String,
    /// The function.
    pub func: AggFn,
}

/// A slice/dice predicate over level-descriptor values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// Exactly equal.
    Eq(Value),
    /// Member of the set.
    In(Vec<Value>),
    /// Inclusive range (uses the total [`Value`] order; numbers compare
    /// numerically, dates chronologically).
    Between(Value, Value),
}

impl Predicate {
    /// Whether `v` satisfies the predicate.
    pub fn matches(&self, v: &Value) -> bool {
        match self {
            Predicate::Eq(x) => v == x,
            Predicate::In(xs) => xs.contains(v),
            Predicate::Between(lo, hi) => v >= lo && v <= hi,
        }
    }
}

/// What a filter tests on the dimension member.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FilterTarget {
    /// The descriptor of a hierarchy level ("City" → its `city_name`).
    Level(String),
    /// An arbitrary (possibly qualified) member attribute
    /// ("population", "City.population").
    Attribute(String),
}

/// A filter pinning a dimension role at some member property.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Filter {
    /// The fact's dimension role ("Destination").
    pub role: String,
    /// What is tested.
    pub target: FilterTarget,
    /// The predicate.
    pub predicate: Predicate,
}

/// A tabular query result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultSet {
    /// Column names: group-by descriptors first, then `func(measure)`.
    pub columns: Vec<String>,
    /// Rows, sorted by the group-by key for determinism.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Index of a column by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Numeric cell accessor.
    pub fn f64(&self, row: usize, column: &str) -> Option<f64> {
        self.rows.get(row)?.get(self.column(column)?)?.as_f64()
    }

    /// Inner-joins two result sets on pairs of key columns, producing the
    /// join keys followed by the remaining columns of both sides — the
    /// drill-across operation BI tools run over conformed dimensions
    /// (sales ⋈ weather on (city, date)).
    pub fn join(&self, other: &ResultSet, on: &[(&str, &str)]) -> Result<ResultSet> {
        let left_keys: Vec<usize> = on
            .iter()
            .map(|(l, _)| {
                self.column(l)
                    .ok_or_else(|| WarehouseError::UnknownMeasure {
                        fact: "join(left)".to_owned(),
                        measure: (*l).to_owned(),
                    })
            })
            .collect::<Result<_>>()?;
        let right_keys: Vec<usize> = on
            .iter()
            .map(|(_, r)| {
                other
                    .column(r)
                    .ok_or_else(|| WarehouseError::UnknownMeasure {
                        fact: "join(right)".to_owned(),
                        measure: (*r).to_owned(),
                    })
            })
            .collect::<Result<_>>()?;
        let left_rest: Vec<usize> = (0..self.columns.len())
            .filter(|i| !left_keys.contains(i))
            .collect();
        let right_rest: Vec<usize> = (0..other.columns.len())
            .filter(|i| !right_keys.contains(i))
            .collect();
        let mut columns: Vec<String> = left_keys.iter().map(|&i| self.columns[i].clone()).collect();
        columns.extend(left_rest.iter().map(|&i| self.columns[i].clone()));
        columns.extend(right_rest.iter().map(|&i| other.columns[i].clone()));
        // Hash the right side by key.
        let mut by_key: HashMap<Vec<Value>, Vec<&Vec<Value>>> = HashMap::new();
        for row in &other.rows {
            let key: Vec<Value> = right_keys.iter().map(|&i| row[i].clone()).collect();
            by_key.entry(key).or_default().push(row);
        }
        let mut rows = Vec::new();
        for row in &self.rows {
            let key: Vec<Value> = left_keys.iter().map(|&i| row[i].clone()).collect();
            if let Some(matches) = by_key.get(&key) {
                for m in matches {
                    let mut out: Vec<Value> = key.clone();
                    out.extend(left_rest.iter().map(|&i| row[i].clone()));
                    out.extend(right_rest.iter().map(|&i| m[i].clone()));
                    rows.push(out);
                }
            }
        }
        rows.sort();
        Ok(ResultSet { columns, rows })
    }

    /// Renders as RFC-4180-style CSV (quotes doubled, fields with commas,
    /// quotes or newlines quoted) — the classic BI export.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_owned()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| field(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.iter()
                    .map(|v| field(&v.to_string()))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        out
    }

    /// Renders as an aligned text table (for the experiment binaries).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cols: &[String], widths: &[usize]| -> String {
            cols.iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join(" | ")
        };
        out.push_str(&fmt_row(&self.columns, &widths));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &cells {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[derive(Debug, Default, Clone)]
pub(crate) struct Accumulator {
    count: u64,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Accumulator {
    pub(crate) fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    pub(crate) fn finish(&self, f: AggFn) -> Value {
        match f {
            AggFn::Sum => Value::Float(self.sum),
            AggFn::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFn::Min => self.min.map_or(Value::Null, Value::Float),
            AggFn::Max => self.max.map_or(Value::Null, Value::Float),
            AggFn::Count => Value::Int(self.count as i64),
        }
    }
}

/// A declarative OLAP query over one fact table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CubeQuery {
    pub(crate) fact: String,
    pub(crate) filters: Vec<Filter>,
    pub(crate) group_by: Vec<(String, String)>,
    pub(crate) aggregates: Vec<Aggregate>,
    pub(crate) order: Option<(String, bool)>,
    pub(crate) limit: Option<usize>,
}

impl CubeQuery {
    /// Starts a query on the named fact.
    pub fn on(fact: &str) -> CubeQuery {
        CubeQuery {
            fact: fact.to_owned(),
            filters: Vec::new(),
            group_by: Vec::new(),
            aggregates: Vec::new(),
            order: None,
            limit: None,
        }
    }

    /// Adds a slice/dice filter on a level descriptor.
    pub fn filter(mut self, role: &str, level: &str, predicate: Predicate) -> Self {
        self.filters.push(Filter {
            role: role.to_owned(),
            target: FilterTarget::Level(level.to_owned()),
            predicate,
        });
        self
    }

    /// Adds a filter on a member attribute (e.g. `population`). Qualified
    /// names (`City.population`) disambiguate when needed.
    pub fn filter_attribute(mut self, role: &str, attribute: &str, predicate: Predicate) -> Self {
        self.filters.push(Filter {
            role: role.to_owned(),
            target: FilterTarget::Attribute(attribute.to_owned()),
            predicate,
        });
        self
    }

    /// Orders the result by a column (group key or `func(measure)` name),
    /// descending when `desc`.
    pub fn order_by(mut self, column: &str, desc: bool) -> Self {
        self.order = Some((column.to_owned(), desc));
        self
    }

    /// Keeps only the first `n` rows after ordering.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Adds a group-by coordinate at `(role, level)` granularity.
    pub fn group_by(mut self, role: &str, level: &str) -> Self {
        self.group_by.push((role.to_owned(), level.to_owned()));
        self
    }

    /// Requests an aggregate.
    pub fn aggregate(mut self, measure: &str, func: AggFn) -> Self {
        self.aggregates.push(Aggregate {
            measure: measure.to_owned(),
            func,
        });
        self
    }

    /// Executes against a warehouse: compiles the roll-up state, folds
    /// every fact row through the kernel ([`crate::MaterializedRollup`])
    /// and returns the materialised result. A query the kernel declines
    /// is answered row at a time (counted by
    /// `warehouse.reference.fallbacks`); results are byte-identical
    /// either way.
    pub fn run(&self, wh: &Warehouse) -> Result<ResultSet> {
        Ok(Rollup::build(self, wh, DEFAULT_MATERIALIZED_GROUP_LIMIT)?.into_result_set())
    }

    /// Superseded by [`crate::testing::execute_reference`]; kept for the
    /// end-to-end benchmark until it switches over.
    #[doc(hidden)]
    pub fn execute_reference(&self, wh: &Warehouse) -> Result<ResultSet> {
        crate::testing::execute_reference(self, wh)
    }

    /// The original row-at-a-time executor: it re-resolves member values
    /// and hashes a `Vec<Value>` group key per fact row. The kernel must
    /// produce exactly the same rows, ordering and column names
    /// (proptest-enforced in `tests/compiled_parity.rs`, which reach
    /// this through [`crate::testing`]). The product calls it from one
    /// place, [`Rollup::build`], for a query the kernel has declined,
    /// and counts the call as `warehouse.reference.fallbacks`.
    pub(crate) fn row_at_a_time_fallback(&self, wh: &Warehouse) -> Result<ResultSet> {
        let fact = wh.fact(&self.fact)?;

        // Resolve and validate everything up front.
        let mut agg_cols = Vec::with_capacity(self.aggregates.len());
        for a in &self.aggregates {
            let idx = fact.measure_index(&a.measure)?;
            let measure = &fact.model().measures[idx];
            match a.func {
                AggFn::Sum if !measure.additivity.allows_sum() => {
                    return Err(WarehouseError::IllegalAggregate {
                        measure: a.measure.clone(),
                        reason: format!("{} measures cannot be summed", measure.additivity),
                    });
                }
                AggFn::Avg if !measure.additivity.allows_avg() => {
                    return Err(WarehouseError::IllegalAggregate {
                        measure: a.measure.clone(),
                        reason: format!("{} measures cannot be averaged", measure.additivity),
                    });
                }
                _ => {}
            }
            agg_cols.push(idx);
        }
        let mut filter_cols = Vec::with_capacity(self.filters.len());
        for f in &self.filters {
            let role_idx = fact.role_index(&f.role)?;
            let dim = wh.dimension_table_for_role(fact, role_idx);
            // Validate the target exists now, not per-row.
            match &f.target {
                FilterTarget::Level(level) => {
                    dim.model()
                        .level(level)
                        .ok_or_else(|| WarehouseError::UnknownLevel {
                            dimension: dim.model().name.clone(),
                            level: level.clone(),
                        })?;
                }
                FilterTarget::Attribute(attr) => {
                    if !dim
                        .column_names()
                        .any(|q| q == attr || q.split('.').nth(1) == Some(attr.as_str()))
                    {
                        return Err(WarehouseError::UnknownAttribute {
                            level: dim.model().name.clone(),
                            attribute: attr.clone(),
                        });
                    }
                }
            }
            filter_cols.push(role_idx);
        }
        let mut group_cols = Vec::with_capacity(self.group_by.len());
        for (role, level) in &self.group_by {
            let role_idx = fact.role_index(role)?;
            let dim = wh.dimension_table_for_role(fact, role_idx);
            dim.model()
                .level(level)
                .ok_or_else(|| WarehouseError::UnknownLevel {
                    dimension: dim.model().name.clone(),
                    level: level.clone(),
                })?;
            group_cols.push(role_idx);
        }

        // Scan.
        let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        'rows: for row in 0..fact.len() {
            for (f, &role_idx) in self.filters.iter().zip(&filter_cols) {
                let key = fact.role_key(row, role_idx);
                let dim = wh.dimension_table_for_role(fact, role_idx);
                let v = match &f.target {
                    FilterTarget::Level(level) => dim.level_value(key, level)?,
                    FilterTarget::Attribute(attr) => dim.attribute_value(key, attr)?,
                };
                if !f.predicate.matches(&v) {
                    continue 'rows;
                }
            }
            let mut group_key = Vec::with_capacity(group_cols.len());
            for ((_, level), &role_idx) in self.group_by.iter().zip(&group_cols) {
                let key = fact.role_key(row, role_idx);
                let dim = wh.dimension_table_for_role(fact, role_idx);
                group_key.push(dim.level_value(key, level)?);
            }
            let accs = groups
                .entry(group_key)
                .or_insert_with(|| vec![Accumulator::default(); self.aggregates.len()]);
            for (acc, &mi) in accs.iter_mut().zip(&agg_cols) {
                if let Some(v) = fact.measure_column(mi).get_f64(row) {
                    acc.push(v);
                }
            }
        }

        // Materialise, sorted by group key.
        let mut columns: Vec<String> = self
            .group_by
            .iter()
            .map(|(role, level)| format!("{role}.{level}"))
            .collect();
        for a in &self.aggregates {
            columns.push(format!("{}({})", a.func.label(), a.measure));
        }
        let mut rows: Vec<Vec<Value>> = groups
            .into_iter()
            .map(|(mut key, accs)| {
                key.extend(
                    accs.iter()
                        .zip(&self.aggregates)
                        .map(|(acc, a)| acc.finish(a.func)),
                );
                key
            })
            .collect();
        rows.sort();
        if let Some((column, desc)) = &self.order {
            let idx = columns.iter().position(|c| c == column).ok_or_else(|| {
                WarehouseError::UnknownMeasure {
                    fact: self.fact.clone(),
                    measure: column.clone(),
                }
            })?;
            // Stable sort on top of the deterministic base order.
            rows.sort_by(|a, b| {
                let ord = a[idx].cmp(&b[idx]);
                if *desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
        }
        if let Some(n) = self.limit {
            rows.truncate(n);
        }
        Ok(ResultSet { columns, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etl::FactRowBuilder;
    use dwqa_mdmodel::last_minute_sales;

    fn loaded_warehouse() -> Warehouse {
        let mut wh = Warehouse::new(last_minute_sales());
        let mut rows = Vec::new();
        let data = [
            // (dest airport, city, day, price)
            ("El Prat", "Barcelona", 1, 100.0),
            ("El Prat", "Barcelona", 2, 140.0),
            ("JFK", "New York", 1, 300.0),
            ("La Guardia", "New York", 3, 260.0),
        ];
        for (airport, city, day, price) in data {
            let mut b = FactRowBuilder::new();
            b.measure("price", Value::Float(price))
                .measure("miles", Value::Float(1000.0))
                .measure("traveler_rate", Value::Float(0.5))
                .role_member("Origin", &[("airport_name", Value::text("Alicante"))])
                .role_member(
                    "Destination",
                    &[
                        ("airport_name", Value::text(airport)),
                        ("city_name", Value::text(city)),
                    ],
                )
                .role_member("Customer", &[("customer_name", Value::text("Ann"))])
                .role_member("Date", &[("date", Value::date(2004, 1, day).unwrap())]);
            rows.push(b.build());
        }
        wh.load("Last Minute Sales", rows).unwrap();
        wh
    }

    #[test]
    fn group_by_city_rolls_up_airports() {
        let wh = loaded_warehouse();
        let rs = CubeQuery::on("Last Minute Sales")
            .group_by("Destination", "City")
            .aggregate("price", AggFn::Sum)
            .aggregate("price", AggFn::Count)
            .run(&wh)
            .unwrap();
        assert_eq!(
            rs.columns,
            ["Destination.City", "sum(price)", "count(price)"]
        );
        assert_eq!(rs.rows.len(), 2);
        // Sorted: Barcelona before New York.
        assert_eq!(rs.rows[0][0], Value::text("Barcelona"));
        assert_eq!(rs.f64(0, "sum(price)"), Some(240.0));
        assert_eq!(rs.rows[1][0], Value::text("New York"));
        assert_eq!(rs.f64(1, "sum(price)"), Some(560.0));
    }

    #[test]
    fn drill_down_to_airport_level() {
        let wh = loaded_warehouse();
        let rs = CubeQuery::on("Last Minute Sales")
            .filter(
                "Destination",
                "City",
                Predicate::Eq(Value::text("New York")),
            )
            .group_by("Destination", "Airport")
            .aggregate("price", AggFn::Sum)
            .run(&wh)
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert_eq!(rs.rows[0][0], Value::text("JFK"));
        assert_eq!(rs.rows[1][0], Value::text("La Guardia"));
    }

    #[test]
    fn slice_by_date_range() {
        let wh = loaded_warehouse();
        let rs = CubeQuery::on("Last Minute Sales")
            .filter(
                "Date",
                "Date",
                Predicate::Between(
                    Value::date(2004, 1, 1).unwrap(),
                    Value::date(2004, 1, 2).unwrap(),
                ),
            )
            .aggregate("price", AggFn::Count)
            .run(&wh)
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::Int(3));
    }

    #[test]
    fn global_aggregate_without_group_by() {
        let wh = loaded_warehouse();
        let rs = CubeQuery::on("Last Minute Sales")
            .aggregate("price", AggFn::Avg)
            .aggregate("price", AggFn::Min)
            .aggregate("price", AggFn::Max)
            .run(&wh)
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.f64(0, "avg(price)"), Some(200.0));
        assert_eq!(rs.f64(0, "min(price)"), Some(100.0));
        assert_eq!(rs.f64(0, "max(price)"), Some(300.0));
    }

    #[test]
    fn sum_of_non_additive_measure_is_illegal() {
        let wh = loaded_warehouse();
        let err = CubeQuery::on("Last Minute Sales")
            .aggregate("traveler_rate", AggFn::Sum)
            .run(&wh)
            .unwrap_err();
        assert!(matches!(err, WarehouseError::IllegalAggregate { .. }));
        // AVG of non-additive is also illegal; MIN/MAX/COUNT are fine.
        assert!(CubeQuery::on("Last Minute Sales")
            .aggregate("traveler_rate", AggFn::Avg)
            .run(&wh)
            .is_err());
        assert!(CubeQuery::on("Last Minute Sales")
            .aggregate("traveler_rate", AggFn::Max)
            .run(&wh)
            .is_ok());
    }

    #[test]
    fn unknown_names_are_reported() {
        let wh = loaded_warehouse();
        assert!(matches!(
            CubeQuery::on("Ghost").run(&wh),
            Err(WarehouseError::UnknownFact(_))
        ));
        assert!(matches!(
            CubeQuery::on("Last Minute Sales")
                .group_by("Destination", "Galaxy")
                .run(&wh),
            Err(WarehouseError::UnknownLevel { .. })
        ));
        assert!(matches!(
            CubeQuery::on("Last Minute Sales")
                .aggregate("profit", AggFn::Sum)
                .run(&wh),
            Err(WarehouseError::UnknownMeasure { .. })
        ));
        assert!(matches!(
            CubeQuery::on("Last Minute Sales")
                .filter("Layover", "City", Predicate::Eq(Value::text("x")))
                .run(&wh),
            Err(WarehouseError::UnknownRole { .. })
        ));
    }

    #[test]
    fn group_by_month_uses_derived_calendar() {
        let wh = loaded_warehouse();
        let rs = CubeQuery::on("Last Minute Sales")
            .group_by("Date", "Month")
            .aggregate("price", AggFn::Sum)
            .run(&wh)
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::text("2004-01"));
        assert_eq!(rs.f64(0, "sum(price)"), Some(800.0));
    }

    #[test]
    fn attribute_filters_slice_members() {
        let mut wh = loaded_warehouse();
        // Give the New York members a population; Barcelona stays Null.
        // (Re-load one row with the attribute set: the dimension member
        // already exists, so we need a fresh warehouse instead.)
        let mut wh2 = Warehouse::new(last_minute_sales());
        for (airport, city, pop, price) in [
            ("El Prat", "Barcelona", 1_600_000i64, 100.0),
            ("JFK", "New York", 8_300_000, 300.0),
            ("La Guardia", "New York", 8_300_000, 260.0),
        ] {
            let mut b = FactRowBuilder::new();
            b.measure("price", Value::Float(price))
                .measure("miles", Value::Float(1000.0))
                .measure("traveler_rate", Value::Float(0.5))
                .role_member("Origin", &[("airport_name", Value::text("Alicante"))])
                .role_member(
                    "Destination",
                    &[
                        ("airport_name", Value::text(airport)),
                        ("city_name", Value::text(city)),
                        ("population", Value::Int(pop)),
                    ],
                )
                .role_member("Customer", &[("customer_name", Value::text("Ann"))])
                .role_member("Date", &[("date", Value::date(2004, 1, 2).unwrap())]);
            wh2.load("Last Minute Sales", vec![b.build()]).unwrap();
        }
        std::mem::swap(&mut wh, &mut wh2);
        let rs = CubeQuery::on("Last Minute Sales")
            .filter_attribute(
                "Destination",
                "population",
                Predicate::Between(Value::Int(5_000_000), Value::Int(10_000_000)),
            )
            .group_by("Destination", "City")
            .aggregate("price", AggFn::Count)
            .run(&wh)
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert_eq!(rs.rows[0][0], Value::text("New York"));
        assert_eq!(rs.rows[0][1], Value::Int(2));
        // Unknown attributes are rejected up front.
        assert!(matches!(
            CubeQuery::on("Last Minute Sales")
                .filter_attribute("Destination", "altitude", Predicate::Eq(Value::Int(1)))
                .run(&wh),
            Err(WarehouseError::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn order_by_and_limit_give_top_k() {
        let wh = loaded_warehouse();
        let rs = CubeQuery::on("Last Minute Sales")
            .group_by("Destination", "Airport")
            .aggregate("price", AggFn::Sum)
            .order_by("sum(price)", true)
            .limit(2)
            .run(&wh)
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
        assert!(rs.f64(0, "sum(price)").unwrap() >= rs.f64(1, "sum(price)").unwrap());
        assert_eq!(rs.rows[0][0], Value::text("JFK"));
        // Ordering by an unknown column is an error.
        assert!(CubeQuery::on("Last Minute Sales")
            .aggregate("price", AggFn::Sum)
            .order_by("nope", false)
            .run(&wh)
            .is_err());
        // Ascending order is the reverse.
        let asc = CubeQuery::on("Last Minute Sales")
            .group_by("Destination", "Airport")
            .aggregate("price", AggFn::Sum)
            .order_by("sum(price)", false)
            .run(&wh)
            .unwrap();
        assert!(asc.f64(0, "sum(price)").unwrap() <= asc.f64(1, "sum(price)").unwrap());
    }

    #[test]
    fn join_drills_across_facts() {
        let left = ResultSet {
            columns: vec!["city".into(), "date".into(), "sales".into()],
            rows: vec![
                vec![
                    Value::text("Barcelona"),
                    Value::text("2004-01-01"),
                    Value::Int(3),
                ],
                vec![
                    Value::text("Barcelona"),
                    Value::text("2004-01-02"),
                    Value::Int(1),
                ],
                vec![
                    Value::text("Madrid"),
                    Value::text("2004-01-01"),
                    Value::Int(2),
                ],
            ],
        };
        let right = ResultSet {
            columns: vec!["c".into(), "d".into(), "temp".into()],
            rows: vec![
                vec![
                    Value::text("Barcelona"),
                    Value::text("2004-01-01"),
                    Value::Float(8.0),
                ],
                vec![
                    Value::text("Madrid"),
                    Value::text("2004-01-01"),
                    Value::Float(5.0),
                ],
                vec![
                    Value::text("Paris"),
                    Value::text("2004-01-01"),
                    Value::Float(4.0),
                ],
            ],
        };
        let joined = left.join(&right, &[("city", "c"), ("date", "d")]).unwrap();
        assert_eq!(joined.columns, ["city", "date", "sales", "temp"]);
        // Barcelona day 2 has no weather; Paris has no sales.
        assert_eq!(joined.rows.len(), 2);
        assert_eq!(
            joined.rows[0],
            vec![
                Value::text("Barcelona"),
                Value::text("2004-01-01"),
                Value::Int(3),
                Value::Float(8.0)
            ]
        );
        // Unknown join columns error out.
        assert!(left.join(&right, &[("nope", "c")]).is_err());
        assert!(left.join(&right, &[("city", "nope")]).is_err());
    }

    #[test]
    fn join_duplicates_multiply() {
        let left = ResultSet {
            columns: vec!["k".into(), "a".into()],
            rows: vec![vec![Value::Int(1), Value::text("x")]],
        };
        let right = ResultSet {
            columns: vec!["k".into(), "b".into()],
            rows: vec![
                vec![Value::Int(1), Value::text("p")],
                vec![Value::Int(1), Value::text("q")],
            ],
        };
        let joined = left.join(&right, &[("k", "k")]).unwrap();
        assert_eq!(joined.rows.len(), 2);
    }

    #[test]
    fn to_csv_quotes_correctly() {
        let rs = ResultSet {
            columns: vec!["city, name".into(), "sum(price)".into()],
            rows: vec![vec![Value::text("New \"Big\" York"), Value::Float(9.5)]],
        };
        let csv = rs.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("\"city, name\",sum(price)"));
        assert_eq!(lines.next(), Some("\"New \"\"Big\"\" York\",9.5"));
    }

    #[test]
    fn to_table_renders_all_rows() {
        let wh = loaded_warehouse();
        let rs = CubeQuery::on("Last Minute Sales")
            .group_by("Destination", "City")
            .aggregate("price", AggFn::Sum)
            .run(&wh)
            .unwrap();
        let table = rs.to_table();
        assert!(table.contains("Barcelona"));
        assert!(table.contains("New York"));
        assert!(table.contains("sum(price)"));
    }
}
