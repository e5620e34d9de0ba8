//! `dwqa-core` — the paper's contribution: ontology-mediated integration
//! of a Data Warehouse with Question Answering.
//!
//! Ferrández & Peral (EDBT 2010) propose a five-step, semi-automatic
//! model. This crate wires the workspace's substrates into exactly those
//! steps:
//!
//! 1. **Schema → ontology** ([`dwqa_ontology::schema_to_ontology`]) — the
//!    DW's UML multidimensional model becomes the domain ontology;
//! 2. **Instance enrichment** ([`dwqa_ontology::enrich_from_warehouse`]) —
//!    the DW's contents become ontology instances;
//! 3. **Merge** ([`dwqa_ontology::merge_into_upper`]) — the domain
//!    ontology is merged into the QA system's upper ontology
//!    (mini-WordNet);
//! 4. **Tuning** ([`axioms`], [`dwqa_qa::temperature_pattern`]) — the QA
//!    system learns the new question family and the domain axioms
//!    (temperature = number + °C/F, plausible ranges, C↔F conversion);
//! 5. **Feedback** ([`feedback`]) — QA answers become structured rows
//!    (temperature – date – city – web page) loaded into the DW.
//!
//! [`pipeline::IntegrationPipeline`] orchestrates all five steps;
//! [`analysis`] runs the motivating BI query ("which temperature ranges
//! increase last-minute sales?"); [`tableprep`] and [`dwquery`]
//! implement the paper's two future-work items (table pre-processing for
//! Figure-5 pages, and DW-query → NL-question generation). Scoring
//! answers against a ground truth is `dwqa_baselines::evaluate`.

//! ```
//! use dwqa_core::{TemperatureAxioms, integrated_schema};
//! use dwqa_nlp::TempUnit;
//!
//! let axioms = TemperatureAxioms::default();            // Step 4
//! assert_eq!(axioms.validate(46.4, TempUnit::Fahrenheit), Ok(8.0));
//! assert!(integrated_schema().fact("City Weather").is_some()); // Step 5 target
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod axioms;
pub mod durability;
pub mod dwquery;
pub mod error;
pub mod feedback;
pub mod pipeline;
pub mod prelude;
pub mod rollup;
pub mod schema;
pub mod tableprep;

pub use analysis::{sales_by_temperature_band, sales_by_temperature_band_with, TemperatureBand};
pub use axioms::TemperatureAxioms;
pub use durability::{DurableCheckpoint, LoggedTransaction, RecoveryReport};
pub use dwquery::{questions_for_missing_weather, questions_for_missing_weather_with};
pub use error::Error;
pub use feedback::{feed_weather, FeedError, FeedReport};
pub use pipeline::{
    FeedFault, IntegrationPipeline, PipelineOptions, PipelineOptionsBuilder, ReadPath,
};
pub use rollup::RollupCache;
pub use schema::integrated_schema;
pub use tableprep::preprocess_tables;
