//! AliQAn: the question-answering system of the reproduction.
//!
//! The paper evaluates its DW ⇄ QA model on **AliQAn**, the authors' CLEF
//! system. Figure 3 splits it into an off-line *indexation phase* (NLP
//! analysis + IR index) and a three-module *search phase*:
//!
//! 1. **Question analysis** — syntactic analysis of the question, pattern
//!    matching against syntactic-semantic question patterns, detection of
//!    the *expected answer type* (a 20-class taxonomy over WordNet
//!    based-types), and election of the question's *main Syntactic
//!    Blocks*;
//! 2. **Selection of relevant passages** — the main SBs are handed to the
//!    IR-n passage retrieval system;
//! 3. **Extraction of the answer** — syntactic-semantic answer patterns
//!    locate typed candidates inside the passages and score them.
//!
//! This crate implements the three modules over the substrates
//! (`dwqa-nlp`, `dwqa-ir`, `dwqa-ontology`), the Step-4 *tuning* hook that
//! registers new question patterns and answer axioms, and a full pipeline
//! trace that regenerates the paper's Table 1. The two comparison
//! baselines the paper argues against — plain IR and template-based
//! Information Extraction — live in `dwqa-baselines`.

//! ```
//! use dwqa_qa::{AliQAn, AliQAnConfig, temperature_pattern};
//! use dwqa_ir::{Document, DocumentStore, DocFormat};
//! use dwqa_ontology::upper_ontology;
//!
//! let mut qa = AliQAn::new(upper_ontology(), AliQAnConfig::default());
//! qa.tune(temperature_pattern());                       // Step 4
//! let mut web = DocumentStore::new();
//! web.add(Document::new("u", DocFormat::Plain, "",
//!     "Saturday, January 31, 2004\nBarcelona Weather: Temperature 8º C today"));
//! qa.index_corpus(web);                                  // indexation phase
//! let answers = qa.answer("What is the temperature in January of 2004 in Barcelona?");
//! assert!(answers[0].tuple_format().starts_with("(8ºC"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aliqan;
pub mod analysis;
pub mod extraction;
pub mod index;
pub mod patterns;
pub mod taxonomy;

pub use aliqan::{AliQAn, AliQAnConfig, AliQAnConfigBuilder, PipelineTrace};
pub use analysis::{analyze_question, MainSb, QuestionAnalysis};
pub use extraction::{Answer, AnswerValue};
pub use index::QaIndex;
pub use patterns::{default_patterns, temperature_pattern, QuestionPattern};
pub use taxonomy::AnswerType;
