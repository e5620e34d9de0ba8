//! What the paper argues *against*, and the scorer that grades the
//! argument — none of it executed by any request.
//!
//! The paper's case for integrating QA with a DW is made by comparison:
//! IR "returns whole documents, in which the user has to further search",
//! IE "is limited to a set of predefined templates", and McCabe et al.'s
//! multidimensional IR filters better but still returns documents. This
//! crate holds those comparison systems, built on the serving crates'
//! own substrates (`dwqa-ir`'s documents, index terms, IDF formula and
//! passage retrieval; `dwqa-nlp`'s entity recogniser), so the experiment
//! binaries, benches and the root tests can measure the difference while
//! a serving binary links none of it:
//!
//! * [`index`] — the document-level inverted index;
//! * [`search`] — ranked document retrieval (Okapi BM25 and TF-IDF cosine);
//! * [`mdir`] — the multidimensional-IR baseline of McCabe et al.
//!   (SIGIR 2000, the paper's reference \[11\]): documents categorised along
//!   location × time dimensions, filtered OLAP-style before term search;
//! * [`ir_baseline`] — plain IR: documents, or IR-n passages alone;
//! * [`ie_baseline`] — template-filling Information Extraction over the
//!   whole corpus;
//! * [`evaluate`] — precision/recall of extracted tuples against the
//!   corpus generator's ground truth.
//!
//! Only `dwqa-bench` depends on this crate (and `dwqa-core`'s tests, as
//! a dev-dependency); `tests/serving_closure.rs` holds that.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod evaluate;
pub mod ie_baseline;
pub mod index;
pub mod ir_baseline;
pub mod mdir;
pub mod search;

pub use evaluate::{evaluate_temperatures, ExtractionEval};
pub use ie_baseline::{IeBaseline, IeTemplate};
pub use index::InvertedIndex;
pub use ir_baseline::IrBaseline;
pub use mdir::{CubeSlice, MultidimensionalIndex};
pub use search::{SearchHit, Similarity};
