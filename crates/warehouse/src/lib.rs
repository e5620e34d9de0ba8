//! A small columnar OLAP data-warehouse engine.
//!
//! This crate is the structured half of the paper's architecture: the DW
//! that "stores data extracted from the various operational databases of an
//! organization" and that Step 5 of the integration model feeds with the
//! answers the QA system extracts from the Web.
//!
//! It materialises a [`dwqa_mdmodel::Schema`] as:
//!
//! * [`DimensionTable`]s — one row per member of the *base* level, carrying
//!   the descriptor and attributes of every hierarchy level (a denormalised
//!   star-schema dimension), addressed by surrogate keys;
//! * [`FactTable`]s — one typed column per measure and one surrogate-key
//!   column per dimension role;
//! * an ETL loader ([`Warehouse::load`]) that resolves or creates dimension
//!   members and appends fact rows, reporting per-row rejections;
//! * a cube query engine ([`CubeQuery`]) with slice/dice filters, group-by
//!   at any hierarchy level (roll-up / drill-down), and hash aggregation
//!   (SUM / AVG / MIN / MAX / COUNT) that respects measure additivity.
//!
//! ```
//! use dwqa_mdmodel::last_minute_sales;
//! use dwqa_warehouse::{Warehouse, FactRowBuilder, Value, CubeQuery, AggFn};
//!
//! let mut wh = Warehouse::new(last_minute_sales());
//! let mut row = FactRowBuilder::new();
//! row.measure("price", Value::Float(199.0))
//!    .measure("miles", Value::Float(300.0))
//!    .measure("traveler_rate", Value::Float(0.8))
//!    .role_member("Origin", &[("airport_name", Value::text("JFK"))])
//!    .role_member("Destination", &[("airport_name", Value::text("El Prat"))])
//!    .role_member("Customer", &[("customer_name", Value::text("Ann"))])
//!    .role_member("Date", &[("date", Value::date(2004, 1, 31).unwrap())]);
//! let report = wh.load("Last Minute Sales", vec![row.build()]).unwrap();
//! assert_eq!(report.inserted, 1);
//!
//! let rs = CubeQuery::on("Last Minute Sales")
//!     .group_by("Destination", "Airport")
//!     .aggregate("price", AggFn::Sum)
//!     .run(&wh)
//!     .unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod column;
mod dimension;
mod error;
mod etl;
mod fact;
mod plan;
mod query;
mod snapshot;
pub mod testing;
mod value;
mod warehouse;

pub use column::Column;
pub use dimension::{DimensionTable, MemberKey};
pub use error::{Result, WarehouseError};
pub use etl::{EtlReport, FactRow, FactRowBuilder, Rejection};
pub use fact::FactTable;
pub use plan::{MaterializedRollup, Rollup, DEFAULT_MATERIALIZED_GROUP_LIMIT};
pub use query::{AggFn, Aggregate, CubeQuery, Filter, FilterTarget, Predicate, ResultSet};
pub use snapshot::{DimensionSnapshot, FactSnapshot, WarehouseSnapshot};
pub use value::Value;
pub use warehouse::{DeltaTracker, Warehouse, WarehouseDelta};
