//! Warehouse persistence: JSON snapshots.
//!
//! Step 5 accumulates fed data over many QA sessions; a warehouse must
//! outlive the process. A [`WarehouseSnapshot`] is a portable, schema-
//! checked dump: the multidimensional schema plus every dimension member
//! and fact row as typed [`Value`]s. Restoring replays the rows through
//! the normal validated paths, so a corrupted snapshot is rejected rather
//! than half-loaded.

use crate::dimension::MemberKey;
use crate::error::{Result, WarehouseError};
use crate::value::Value;
use crate::warehouse::Warehouse;
use dwqa_mdmodel::Schema;
use serde::{Deserialize, Serialize};

/// A dimension's members, row-wise.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimensionSnapshot {
    /// Dimension name.
    pub name: String,
    /// Qualified column names (`City.city_name`, …), storage order.
    pub columns: Vec<String>,
    /// One row per member, in surrogate-key order.
    pub rows: Vec<Vec<Value>>,
}

/// A fact table's rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FactSnapshot {
    /// Fact name.
    pub name: String,
    /// Per row: the surrogate keys, ordered like the fact's roles.
    pub role_keys: Vec<Vec<u32>>,
    /// Per row: the measure values, ordered like the fact's measures.
    pub measures: Vec<Vec<Value>>,
}

/// A complete, portable warehouse dump.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WarehouseSnapshot {
    /// The multidimensional schema.
    pub schema: Schema,
    /// All dimension tables.
    pub dimensions: Vec<DimensionSnapshot>,
    /// All fact tables.
    pub facts: Vec<FactSnapshot>,
}

impl Warehouse {
    /// Dumps the warehouse into a snapshot.
    pub fn snapshot(&self) -> WarehouseSnapshot {
        let schema = self.schema().clone();
        let mut dimensions = Vec::new();
        for dim in schema.dimensions() {
            let table = self.dimension(&dim.name).expect("schema dimension exists");
            let columns: Vec<String> = table.column_names().map(str::to_owned).collect();
            let rows: Vec<Vec<Value>> = table
                .keys()
                .map(|key| {
                    columns
                        .iter()
                        .map(|c| table.attribute_value(key, c).expect("column exists"))
                        .collect()
                })
                .collect();
            dimensions.push(DimensionSnapshot {
                name: dim.name.clone(),
                columns,
                rows,
            });
        }
        let mut facts = Vec::new();
        for fact in schema.facts() {
            let table = self.fact(&fact.name).expect("schema fact exists");
            let mut role_keys = Vec::with_capacity(table.len());
            let mut measures = Vec::with_capacity(table.len());
            for row in 0..table.len() {
                role_keys.push(
                    (0..fact.roles.len())
                        .map(|r| table.role_key(row, r).index() as u32)
                        .collect(),
                );
                measures.push(
                    (0..fact.measures.len())
                        .map(|m| table.measure_column(m).get(row))
                        .collect(),
                );
            }
            facts.push(FactSnapshot {
                name: fact.name.clone(),
                role_keys,
                measures,
            });
        }
        WarehouseSnapshot {
            schema,
            dimensions,
            facts,
        }
    }

    /// Restores a warehouse from a snapshot, re-validating every row.
    pub fn restore(snapshot: &WarehouseSnapshot) -> Result<Warehouse> {
        let mut wh = Warehouse::new(snapshot.schema.clone());
        // Dimensions first: members must exist before facts reference them.
        for dim_snap in &snapshot.dimensions {
            let (dim_id, _) = snapshot
                .schema
                .dimension(&dim_snap.name)
                .ok_or_else(|| WarehouseError::UnknownDimension(dim_snap.name.clone()))?;
            for (expected_key, row) in dim_snap.rows.iter().enumerate() {
                if row.len() != dim_snap.columns.len() {
                    return Err(WarehouseError::IncompleteRow(format!(
                        "dimension {:?}: row width {} vs {} columns",
                        dim_snap.name,
                        row.len(),
                        dim_snap.columns.len()
                    )));
                }
                let spec: Vec<(String, Value)> = dim_snap
                    .columns
                    .iter()
                    .cloned()
                    .zip(row.iter().cloned())
                    .filter(|(_, v)| !v.is_null())
                    .collect();
                // Replaying rows in storage order must reproduce the
                // snapshot's surrogate keys exactly — a duplicated or
                // reordered member row would silently remap every fact
                // key pointing at it, so reject the snapshot instead.
                let key = wh.dimension_table_mut(dim_id).lookup_or_insert(&spec)?;
                if key.index() != expected_key {
                    return Err(WarehouseError::IncompleteRow(format!(
                        "dimension {:?}: row {expected_key} restored as surrogate key {} \
                         (duplicated or out-of-order member row)",
                        dim_snap.name,
                        key.index()
                    )));
                }
            }
        }
        for fact_snap in &snapshot.facts {
            let (fact_id, fact_model) = snapshot
                .schema
                .fact(&fact_snap.name)
                .ok_or_else(|| WarehouseError::UnknownFact(fact_snap.name.clone()))?;
            if fact_snap.role_keys.len() != fact_snap.measures.len() {
                return Err(WarehouseError::IncompleteRow(format!(
                    "fact {:?}: {} key rows vs {} measure rows",
                    fact_snap.name,
                    fact_snap.role_keys.len(),
                    fact_snap.measures.len()
                )));
            }
            for (keys, measures) in fact_snap.role_keys.iter().zip(&fact_snap.measures) {
                // Keys must reference restored members.
                for (key, role) in keys.iter().zip(&fact_model.roles) {
                    let dim = snapshot.schema.dimension_by_id(role.dimension);
                    let table = wh.dimension(&dim.name)?;
                    if *key as usize >= table.len() {
                        return Err(WarehouseError::IncompleteRow(format!(
                            "fact {:?}: surrogate key {key} out of range for {:?}",
                            fact_snap.name, dim.name
                        )));
                    }
                }
                let keys: Vec<MemberKey> = keys.iter().map(|&k| MemberKey(k)).collect();
                wh.fact_table_mut(fact_id).insert(&keys, measures)?;
            }
        }
        Ok(wh)
    }

    /// Serialises the snapshot as JSON, with a typed error on failure.
    pub fn try_to_json(&self) -> Result<String> {
        serde_json::to_string(&self.snapshot()).map_err(|e| {
            WarehouseError::IncompleteRow(format!("snapshot failed to serialise: {e}"))
        })
    }

    /// Serialises the snapshot as JSON.
    ///
    /// # Panics
    /// Only if serialisation fails, which is impossible for well-formed
    /// snapshot types; fallible callers should use
    /// [`Warehouse::try_to_json`].
    pub fn to_json(&self) -> String {
        #[allow(clippy::expect_used)]
        self.try_to_json().expect("snapshot serialises")
    }

    /// Restores from [`Warehouse::to_json`] output.
    pub fn from_json(json: &str) -> Result<Warehouse> {
        let snapshot: WarehouseSnapshot = serde_json::from_str(json)
            .map_err(|e| WarehouseError::IncompleteRow(format!("invalid snapshot JSON: {e}")))?;
        Warehouse::restore(&snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etl::FactRowBuilder;
    use crate::query::{AggFn, CubeQuery};
    use dwqa_mdmodel::last_minute_sales;
    use proptest::prelude::*;

    fn loaded() -> Warehouse {
        let mut wh = Warehouse::new(last_minute_sales());
        for (dest, city, day, price) in [
            ("El Prat", "Barcelona", 1, 100.0),
            ("JFK", "New York", 2, 300.0),
            ("El Prat", "Barcelona", 3, 140.0),
        ] {
            let mut b = FactRowBuilder::new();
            b.measure("price", Value::Float(price))
                .measure("miles", Value::Float(1000.0))
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
                .role_member("Date", &[("date", Value::date(2004, 1, day).unwrap())]);
            wh.load("Last Minute Sales", vec![b.build()]).unwrap();
        }
        wh
    }

    fn query(wh: &Warehouse) -> crate::query::ResultSet {
        CubeQuery::on("Last Minute Sales")
            .group_by("Destination", "City")
            .group_by("Date", "Month")
            .aggregate("price", AggFn::Sum)
            .aggregate("price", AggFn::Count)
            .run(wh)
            .unwrap()
    }

    #[test]
    fn json_round_trip_preserves_query_results() {
        let wh = loaded();
        let json = wh.to_json();
        let restored = Warehouse::from_json(&json).unwrap();
        assert_eq!(query(&wh), query(&restored));
        assert_eq!(
            wh.fact("Last Minute Sales").unwrap().len(),
            restored.fact("Last Minute Sales").unwrap().len()
        );
        assert_eq!(
            wh.dimension("Airport").unwrap().len(),
            restored.dimension("Airport").unwrap().len()
        );
    }

    #[test]
    fn snapshot_preserves_surrogate_keys() {
        let wh = loaded();
        let snap = wh.snapshot();
        let fact = &snap.facts[0];
        // Rows 0 and 2 share the El Prat destination member.
        let dest_role = 1; // Origin, Destination, Customer, Date
        assert_eq!(fact.role_keys[0][dest_role], fact.role_keys[2][dest_role]);
        assert_ne!(fact.role_keys[0][dest_role], fact.role_keys[1][dest_role]);
    }

    #[test]
    fn corrupted_snapshots_are_rejected() {
        let wh = loaded();
        let mut snap = wh.snapshot();
        // Out-of-range surrogate key.
        snap.facts[0].role_keys[0][0] = 999;
        assert!(matches!(
            Warehouse::restore(&snap),
            Err(WarehouseError::IncompleteRow(_))
        ));
        // Garbage JSON.
        assert!(Warehouse::from_json("{not json").is_err());
        // Mismatched row widths.
        let mut snap = wh.snapshot();
        snap.dimensions[0].rows[0].pop();
        assert!(Warehouse::restore(&snap).is_err());
        // Truncated JSON (a torn write that cut the dump short).
        let json = wh.to_json();
        assert!(Warehouse::from_json(&json[..json.len() / 2]).is_err());
        // Schema mismatch: the tables no longer match the schema.
        let mut snap = wh.snapshot();
        snap.dimensions[0].name = "Imaginary".to_owned();
        assert!(matches!(
            Warehouse::restore(&snap),
            Err(WarehouseError::UnknownDimension(_))
        ));
        let mut snap = wh.snapshot();
        snap.facts[0].name = "Imaginary".to_owned();
        assert!(matches!(
            Warehouse::restore(&snap),
            Err(WarehouseError::UnknownFact(_))
        ));
    }

    #[test]
    fn duplicated_or_reordered_member_rows_are_rejected() {
        let wh = loaded();
        // A duplicated member row would collapse into one key on
        // replay and shift every later surrogate key down by one.
        let mut snap = wh.snapshot();
        let dup = snap.dimensions[0].rows[0].clone();
        snap.dimensions[0].rows.insert(1, dup);
        let err = Warehouse::restore(&snap).unwrap_err();
        assert!(
            matches!(err, WarehouseError::IncompleteRow(ref m) if m.contains("surrogate key")),
            "{err}"
        );
        // Appending a stray member row past the originals also breaks
        // the row-per-key correspondence once anything collides; a
        // *duplicate* of an earlier row is the detectable case.
        let mut snap = wh.snapshot();
        let last = snap.dimensions[0].rows.last().cloned().unwrap();
        snap.dimensions[0].rows.push(last);
        assert!(Warehouse::restore(&snap).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_round_trip_any_price_set(prices in proptest::collection::vec(0.0f64..500.0, 1..20)) {
            let mut wh = Warehouse::new(last_minute_sales());
            for (i, p) in prices.iter().enumerate() {
                let mut b = FactRowBuilder::new();
                b.measure("price", Value::Float(*p))
                    .measure("miles", Value::Float(1.0))
                    .measure("traveler_rate", Value::Float(0.5))
                    .role_member("Origin", &[("airport_name", Value::text("O"))])
                    .role_member(
                        "Destination",
                        &[("airport_name", Value::text(format!("D{}", i % 4)))],
                    )
                    .role_member("Customer", &[("customer_name", Value::text("Ann"))])
                    .role_member(
                        "Date",
                        &[("date", Value::date(2004, 1, (i % 28 + 1) as u32).unwrap())],
                    );
                wh.load("Last Minute Sales", vec![b.build()]).unwrap();
            }
            let restored = Warehouse::from_json(&wh.to_json()).unwrap();
            prop_assert_eq!(query(&wh), query(&restored));
        }

        /// Stronger than query equivalence: `snapshot → restore →
        /// snapshot` is byte-identical, so recovery comparisons (and
        /// the durable store's checkpoints) can use the serialized
        /// form directly.
        #[test]
        fn prop_snapshot_restore_snapshot_is_byte_identical(
            prices in proptest::collection::vec(0.0f64..500.0, 1..20),
        ) {
            let mut wh = Warehouse::new(last_minute_sales());
            for (i, p) in prices.iter().enumerate() {
                let mut b = FactRowBuilder::new();
                b.measure("price", Value::Float(*p))
                    .measure("miles", Value::Float(1.0))
                    .measure("traveler_rate", Value::Float(0.5))
                    .role_member("Origin", &[("airport_name", Value::text("O"))])
                    .role_member(
                        "Destination",
                        &[("airport_name", Value::text(format!("D{}", i % 4)))],
                    )
                    .role_member("Customer", &[("customer_name", Value::text("Ann"))])
                    .role_member(
                        "Date",
                        &[("date", Value::date(2004, 1, (i % 28 + 1) as u32).unwrap())],
                    );
                wh.load("Last Minute Sales", vec![b.build()]).unwrap();
            }
            let json = wh.to_json();
            let restored = Warehouse::from_json(&json).unwrap();
            prop_assert_eq!(json, restored.to_json());
        }
    }
}
