//! Ontologies: the glue of the DW ⇄ QA integration.
//!
//! The paper's five-step model is ontology-mediated: the DW's
//! multidimensional schema becomes a *domain ontology* (Step 1), the DW's
//! contents become *instances* of its concepts (Step 2), and the result is
//! merged into the *upper ontology* used by the QA system — WordNet in the
//! original, a from-scratch mini-WordNet here (Step 3). This crate
//! implements all of that:
//!
//! * [`graph`] — the ontology data structure: concepts (synset-like, with
//!   synonym labels and a gloss), typed relations with maintained inverses
//!   (hypernym/hyponym, meronym/holonym, antonym, instance-of), free-form
//!   annotations (used by Step 4's axioms), and a lexical index;
//! * [`upper`] — the mini-WordNet: WordNet's 25 noun and 15 verb unique
//!   beginners plus a few hundred synsets covering the airline, weather,
//!   geography and general vocabulary the reproduction needs, including
//!   the ambiguous entries the paper discusses ("JFK" the president vs.
//!   the airport, "La Guardia" the politician vs. the airport);
//! * [`transform`] — Step 1: the ad-hoc UML → ontology transformation
//!   (classes → concepts, roll-ups → part-of relations, fact/dimension
//!   associations → related-to);
//! * [`enrich`] — Step 2: feeding the ontology with DW instances;
//! * [`merge`] — Step 3: the PROMPT-style merge into the upper ontology
//!   (exact match → head-word match → new root), with instance placement
//!   and synonym enrichment ("JFK" ≈ "Kennedy International Airport");
//! * [`owl`] — an OWL-functional-syntax serializer and parser (the paper's
//!   step 1.b: "the generation of the ontology in some of the ontology
//!   representation languages … OWL");
//! * [`senses`] — the [`dwqa_nlp::wsd::SenseInventory`] implementation, so
//!   the simplified-Lesk WSD runs over the merged ontology and Step-2
//!   enrichment measurably shifts disambiguation.

//! ```
//! use dwqa_ontology::{schema_to_ontology, upper_ontology, merge_into_upper, MergeOptions};
//! use dwqa_mdmodel::last_minute_sales;
//!
//! let domain = schema_to_ontology(&last_minute_sales());       // Step 1
//! let mut upper = upper_ontology();
//! let report = merge_into_upper(&domain, &mut upper, &MergeOptions::default()); // Step 3
//! let lms = upper.class_for("Last Minute Sales").unwrap();
//! let sale = upper.class_for("sale").unwrap();
//! assert!(upper.is_a(lms, sale));                              // head-word placement
//! # assert!(report.count(dwqa_ontology::MatchKind::Exact) > 5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod enrich;
pub mod graph;
pub mod merge;
pub mod owl;
pub mod senses;
pub mod transform;
pub mod upper;

pub use enrich::{enrich_from_warehouse, EnrichmentReport};
pub use graph::{ConceptId, ConceptKind, OntoPos, Ontology, OntologyStats, Relation};
pub use merge::{merge_into_upper, MatchKind, MergeOptions, MergeReport};
pub use owl::{parse_owl, render_owl};
pub use transform::schema_to_ontology;
pub use upper::upper_ontology;
