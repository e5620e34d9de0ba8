//! The warehouse: schema + materialised tables + the load path.

use crate::dimension::DimensionTable;
use crate::error::{Result, WarehouseError};
use crate::etl::{autofill_date_levels, EtlReport, FactRow, Rejection};
use crate::fact::FactTable;
use dwqa_mdmodel::Schema;
use std::collections::HashMap;

/// A data warehouse materialising one multidimensional [`Schema`].
#[derive(Debug, Clone)]
pub struct Warehouse {
    schema: Schema,
    dimensions: Vec<DimensionTable>,
    facts: Vec<FactTable>,
}

impl Warehouse {
    /// Creates an empty warehouse for the schema.
    pub fn new(schema: Schema) -> Warehouse {
        let dimensions = schema
            .dimensions()
            .iter()
            .map(DimensionTable::new)
            .collect();
        let facts = schema.facts().iter().map(FactTable::new).collect();
        Warehouse {
            schema,
            dimensions,
            facts,
        }
    }

    /// The schema this warehouse materialises.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The dimension table by name.
    pub fn dimension(&self, name: &str) -> Result<&DimensionTable> {
        let (id, _) = self
            .schema
            .dimension(name)
            .ok_or_else(|| WarehouseError::UnknownDimension(name.to_owned()))?;
        Ok(&self.dimensions[id.index()])
    }

    /// The fact table by name.
    pub fn fact(&self, name: &str) -> Result<&FactTable> {
        let (id, _) = self
            .schema
            .fact(name)
            .ok_or_else(|| WarehouseError::UnknownFact(name.to_owned()))?;
        Ok(&self.facts[id.index()])
    }

    /// Mutable table access for the restore path.
    pub(crate) fn dimension_table_mut(
        &mut self,
        id: dwqa_mdmodel::DimensionId,
    ) -> &mut DimensionTable {
        &mut self.dimensions[id.index()]
    }

    /// See [`Self::dimension_table_mut`].
    pub(crate) fn fact_table_mut(&mut self, id: dwqa_mdmodel::FactId) -> &mut FactTable {
        &mut self.facts[id.index()]
    }

    /// Captures the current table extents so a later
    /// [`Self::delta_since`] can describe what a commit appended.
    pub fn delta_tracker(&self) -> DeltaTracker {
        DeltaTracker {
            fact_rows: self.facts.iter().map(FactTable::len).collect(),
            dim_members: self.dimensions.iter().map(DimensionTable::len).collect(),
        }
    }

    /// Describes the mutations since `tracker` as a typed, pure-append
    /// [`WarehouseDelta`]: per-table row/member counts before and after.
    ///
    /// Returns `None` when the change is *not* a pure append — a table
    /// shrank or the schema arity changed (e.g. the warehouse object was
    /// replaced wholesale) — in which case callers must fall back to
    /// full invalidation.
    pub fn delta_since(&self, tracker: &DeltaTracker) -> Option<WarehouseDelta> {
        if tracker.fact_rows.len() != self.facts.len()
            || tracker.dim_members.len() != self.dimensions.len()
        {
            return None;
        }
        let fact_rows: Vec<(usize, usize)> = tracker
            .fact_rows
            .iter()
            .zip(&self.facts)
            .map(|(&before, t)| (before, t.len()))
            .collect();
        let dim_members: Vec<(usize, usize)> = tracker
            .dim_members
            .iter()
            .zip(&self.dimensions)
            .map(|(&before, t)| (before, t.len()))
            .collect();
        if fact_rows.iter().any(|&(b, a)| a < b) || dim_members.iter().any(|&(b, a)| a < b) {
            return None;
        }
        Some(WarehouseDelta {
            fact_rows,
            dim_members,
        })
    }

    pub(crate) fn dimension_table_for_role(
        &self,
        fact: &FactTable,
        role_idx: usize,
    ) -> &DimensionTable {
        let dim_id = fact.model().roles[role_idx].dimension;
        &self.dimensions[dim_id.index()]
    }

    /// A human-readable summary: facts and dimensions with their row
    /// counts (what the REPL and examples print as a health check).
    pub fn stats(&self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        for f in self.schema.facts() {
            out.push((
                format!("fact {}", f.name),
                self.fact(&f.name).map(|t| t.len()).unwrap_or(0),
            ));
        }
        for d in self.schema.dimensions() {
            out.push((
                format!("dimension {}", d.name),
                self.dimension(&d.name).map(|t| t.len()).unwrap_or(0),
            ));
        }
        out
    }

    /// Loads a batch of rows into the named fact table.
    ///
    /// Rows are processed independently: a bad row is recorded in the
    /// report's `rejected` list and the rest of the batch continues. Member
    /// specs for date dimensions get their calendar levels auto-derived
    /// (`autofill_date_levels`).
    pub fn load(&mut self, fact_name: &str, rows: Vec<FactRow>) -> Result<EtlReport> {
        let (fact_id, fact_model) = self
            .schema
            .fact(fact_name)
            .ok_or_else(|| WarehouseError::UnknownFact(fact_name.to_owned()))?;
        let fact_model = fact_model.clone();
        let mut report = EtlReport::default();
        let mut created: HashMap<String, usize> = HashMap::new();

        'rows: for (row_idx, row) in rows.into_iter().enumerate() {
            // Resolve measures in model order.
            let mut measure_values = Vec::with_capacity(fact_model.measures.len());
            for m in &fact_model.measures {
                match row.measures.iter().find(|(n, _)| n == &m.name) {
                    Some((_, v)) => measure_values.push(v.clone()),
                    None => {
                        report.rejected.push(Rejection {
                            row: row_idx,
                            reason: format!("missing measure {:?}", m.name),
                        });
                        continue 'rows;
                    }
                }
            }
            for (name, _) in &row.measures {
                if fact_model.measure(name).is_none() {
                    report.rejected.push(Rejection {
                        row: row_idx,
                        reason: format!("unknown measure {:?}", name),
                    });
                    continue 'rows;
                }
            }
            // Resolve role members in model order, creating members lazily.
            // Keys are resolved into a staging vec first; dimension inserts
            // are idempotent, so earlier member creation is harmless even
            // if a later role of the same row fails.
            let mut keys = Vec::with_capacity(fact_model.roles.len());
            for role in &fact_model.roles {
                let Some((_, spec)) = row.roles.iter().find(|(r, _)| r == &role.role) else {
                    report.rejected.push(Rejection {
                        row: row_idx,
                        reason: format!("missing role {:?}", role.role),
                    });
                    continue 'rows;
                };
                let dim_table = &mut self.dimensions[role.dimension.index()];
                let before = dim_table.len();
                let mut spec = spec.clone();
                autofill_date_levels(dim_table.model(), &mut spec);
                match dim_table.lookup_or_insert(&spec) {
                    Ok(key) => {
                        if dim_table.len() > before {
                            *created.entry(dim_table.model().name.clone()).or_insert(0) += 1;
                        }
                        keys.push(key);
                    }
                    Err(e) => {
                        report.rejected.push(Rejection {
                            row: row_idx,
                            reason: format!("role {:?}: {e}", role.role),
                        });
                        continue 'rows;
                    }
                }
            }
            match self.facts[fact_id.index()].insert(&keys, &measure_values) {
                Ok(()) => report.inserted += 1,
                Err(e) => report.rejected.push(Rejection {
                    row: row_idx,
                    reason: e.to_string(),
                }),
            }
        }

        let mut new_members: Vec<(String, usize)> = created.into_iter().collect();
        new_members.sort();
        report.new_members = new_members;
        Ok(report)
    }
}

/// Table extents captured before a mutation; see
/// [`Warehouse::delta_tracker`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaTracker {
    fact_rows: Vec<usize>,
    dim_members: Vec<usize>,
}

/// A typed description of a pure-append mutation: for each fact table the
/// `(rows_before, rows_after)` extent and for each dimension table the
/// `(members_before, members_after)` extent, in schema order.
///
/// Produced by [`Warehouse::delta_since`] and consumed by
/// [`crate::MaterializedRollup::apply_delta`], which folds exactly the
/// appended rows/members into a live materialized aggregate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarehouseDelta {
    /// `(before, after)` row counts per fact table, schema order.
    pub fact_rows: Vec<(usize, usize)>,
    /// `(before, after)` member counts per dimension table, schema order.
    pub dim_members: Vec<(usize, usize)>,
}

impl WarehouseDelta {
    /// Total fact rows appended across all fact tables.
    pub fn fact_rows_added(&self) -> usize {
        self.fact_rows.iter().map(|&(b, a)| a - b).sum()
    }

    /// Total dimension members created across all dimension tables.
    pub fn members_added(&self) -> usize {
        self.dim_members.iter().map(|&(b, a)| a - b).sum()
    }

    /// True when the delta appended nothing at all.
    pub fn is_empty(&self) -> bool {
        self.fact_rows_added() == 0 && self.members_added() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etl::FactRowBuilder;
    use crate::value::Value;
    use dwqa_mdmodel::last_minute_sales;

    fn sale(dest: &str, city: &str, date: (i32, u32, u32), price: f64) -> FactRow {
        let mut b = FactRowBuilder::new();
        b.measure("price", Value::Float(price))
            .measure("miles", Value::Float(500.0))
            .measure("traveler_rate", Value::Float(0.5))
            .role_member("Origin", &[("airport_name", Value::text("Alicante"))])
            .role_member(
                "Destination",
                &[
                    ("airport_name", Value::text(dest)),
                    ("city_name", Value::text(city)),
                ],
            )
            .role_member("Customer", &[("customer_name", Value::text("Ann"))])
            .role_member(
                "Date",
                &[("date", Value::date(date.0, date.1, date.2).unwrap())],
            );
        b.build()
    }

    #[test]
    fn load_creates_members_and_inserts_facts() {
        let mut wh = Warehouse::new(last_minute_sales());
        let report = wh
            .load(
                "Last Minute Sales",
                vec![
                    sale("El Prat", "Barcelona", (2004, 1, 30), 120.0),
                    sale("El Prat", "Barcelona", (2004, 1, 31), 140.0),
                    sale("JFK", "New York", (2004, 1, 31), 320.0),
                ],
            )
            .unwrap();
        assert_eq!(report.inserted, 3);
        assert!(report.rejected.is_empty());
        assert_eq!(wh.fact("Last Minute Sales").unwrap().len(), 3);
        // El Prat deduplicated; Alicante created once as origin.
        assert_eq!(wh.dimension("Airport").unwrap().len(), 3);
        assert_eq!(wh.dimension("Date").unwrap().len(), 2);
        assert_eq!(
            report.new_members,
            vec![
                ("Airport".to_owned(), 3),
                ("Customer".to_owned(), 1),
                ("Date".to_owned(), 2)
            ]
        );
    }

    #[test]
    fn bad_rows_are_rejected_individually() {
        let mut wh = Warehouse::new(last_minute_sales());
        let mut missing_measure = FactRowBuilder::new();
        missing_measure
            .measure("price", Value::Float(1.0))
            .role_member("Origin", &[("airport_name", Value::text("A"))]);
        let batch = vec![
            sale("El Prat", "Barcelona", (2004, 1, 30), 120.0),
            missing_measure.build(),
        ];
        let report = wh.load("Last Minute Sales", batch).unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].row, 1);
        assert!(report.rejected[0].reason.contains("missing measure"));
        assert_eq!(report.total(), 2);
    }

    #[test]
    fn stats_report_every_table() {
        let mut wh = Warehouse::new(last_minute_sales());
        wh.load(
            "Last Minute Sales",
            vec![sale("El Prat", "Barcelona", (2004, 1, 30), 120.0)],
        )
        .unwrap();
        let stats = wh.stats();
        assert!(stats.contains(&("fact Last Minute Sales".to_owned(), 1)));
        assert!(stats.contains(&("dimension Airport".to_owned(), 2)));
        assert!(stats.contains(&("dimension Date".to_owned(), 1)));
    }

    #[test]
    fn unknown_fact_is_an_error() {
        let mut wh = Warehouse::new(last_minute_sales());
        assert!(matches!(
            wh.load("Ghost", vec![]),
            Err(WarehouseError::UnknownFact(_))
        ));
    }

    #[test]
    fn unknown_measure_name_rejects_row() {
        let mut wh = Warehouse::new(last_minute_sales());
        let mut row = sale("El Prat", "Barcelona", (2004, 1, 30), 120.0);
        row.measures.push(("profit".to_owned(), Value::Float(9.9)));
        let report = wh.load("Last Minute Sales", vec![row]).unwrap();
        assert_eq!(report.inserted, 0);
        assert!(report.rejected[0].reason.contains("unknown measure"));
    }

    #[test]
    fn delta_since_describes_a_pure_append() {
        let mut wh = Warehouse::new(last_minute_sales());
        wh.load(
            "Last Minute Sales",
            vec![sale("El Prat", "Barcelona", (2004, 1, 30), 120.0)],
        )
        .unwrap();
        let tracker = wh.delta_tracker();
        wh.load(
            "Last Minute Sales",
            vec![
                sale("JFK", "New York", (2004, 1, 31), 320.0),
                sale("El Prat", "Barcelona", (2004, 2, 1), 80.0),
            ],
        )
        .unwrap();
        let delta = wh.delta_since(&tracker).unwrap();
        assert_eq!(delta.fact_rows_added(), 2);
        // JFK airport + New York-side members + one new date... at least
        // something was created, and nothing shrank.
        assert!(delta.members_added() >= 2);
        assert!(!delta.is_empty());
        // The fact extent is (1, 3) for the single fact table.
        assert_eq!(delta.fact_rows[0], (1, 3));
    }

    #[test]
    fn delta_since_rejects_non_append_histories() {
        let mut wh = Warehouse::new(last_minute_sales());
        wh.load(
            "Last Minute Sales",
            vec![sale("El Prat", "Barcelona", (2004, 1, 30), 120.0)],
        )
        .unwrap();
        let tracker = wh.delta_tracker();
        // A wholesale replacement with a *smaller* warehouse shrinks the
        // tables: not a pure append, so no delta.
        let smaller = Warehouse::new(last_minute_sales());
        assert!(smaller.delta_since(&tracker).is_none());
    }

    #[test]
    fn date_dimension_gets_calendar_levels() {
        let mut wh = Warehouse::new(last_minute_sales());
        wh.load(
            "Last Minute Sales",
            vec![sale("El Prat", "Barcelona", (2004, 1, 31), 100.0)],
        )
        .unwrap();
        let date_dim = wh.dimension("Date").unwrap();
        let key = date_dim.lookup(&Value::date(2004, 1, 31).unwrap()).unwrap();
        assert_eq!(
            date_dim.level_value(key, "Month").unwrap(),
            Value::text("2004-01")
        );
        assert_eq!(date_dim.level_value(key, "Year").unwrap(), Value::Int(2004));
    }
}
