//! The information-retrieval substrate.
//!
//! The paper runs IR "as a first filtering phase, and QA works on IR
//! output". AliQAn specifically uses **IR-n** (Llopis, Vicedo & Ferrández,
//! CLEF 2002), a *passage retrieval* system where each passage is a window
//! of `n` consecutive sentences (the paper's footnote 6: eight sentences).
//! This crate implements that substrate from scratch:
//!
//! * [`document`] — the document model (URL, format, text) with HTML/XML
//!   text extraction ("our approach handles any kind of unstructured data
//!   (e.g. XML, HTML or PDF)") and an append-only [`document::DocumentStore`];
//! * [`index`] — the one definition of an index term (case-folded,
//!   stopped, lemmatised: [`index::tagged_terms`]) and the document-level
//!   inverted index over it, which [`search`] and [`mdir`] rank whole
//!   documents with;
//! * [`search`] — ranked document retrieval (Okapi BM25 and TF-IDF cosine);
//! * [`passage`] — the IR-n passage retrieval used by AliQAn's Module 2,
//!   driven by interned sentence-level postings built from already-tagged
//!   sentences (its own pass over a document store, or the analyses the
//!   QA indexation keeps): queries compile once into a
//!   [`passage::PassageQuery`] weighted by the IDF the postings themselves
//!   give, candidate documents and a score bound for each come from the
//!   postings, and only documents that can still reach the top `k` are
//!   scored ([`passage::RetrievalStats`] reports the pruning);
//! * [`mdir`] — the multidimensional-IR **baseline** of McCabe et al.
//!   (SIGIR 2000, the paper's reference \[11\]): documents categorised along
//!   location × time dimensions, filtered OLAP-style before term search;
//! * [`testing`] — the exhaustive reference scan passage retrieval is
//!   tested and benchmarked against.

//! ```
//! use dwqa_ir::{Document, DocumentStore, DocFormat, PassageRetriever};
//! use dwqa_nlp::Lexicon;
//!
//! let lexicon = Lexicon::english();
//! let mut store = DocumentStore::new();
//! store.add(Document::new("u", DocFormat::Plain, "", "The temperature in Barcelona was mild."));
//! let retriever = PassageRetriever::build(&lexicon, &store, 8);
//! let passages = retriever.retrieve_text(&lexicon, "Barcelona temperature", 1);
//! assert_eq!(passages.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod document;
pub mod index;
pub mod mdir;
pub mod passage;
pub mod search;
pub mod testing;

pub use document::{DocFormat, DocId, Document, DocumentStore};
pub use index::InvertedIndex;
pub use mdir::{CubeSlice, MultidimensionalIndex};
pub use passage::{Passage, PassageQuery, PassageRetriever, RetrievalStats};
pub use search::{SearchHit, Similarity};
