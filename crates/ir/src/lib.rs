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
//!   stopped, lemmatised: [`index::tagged_terms`]) and of its weight
//!   ([`index::bm25_idf`]);
//! * [`passage`] — the IR-n passage retrieval used by AliQAn's Module 2,
//!   driven by interned sentence-level postings built from already-tagged
//!   sentences (its own pass over a document store, or the analyses the
//!   QA indexation keeps): queries compile once into a
//!   [`passage::PassageQuery`] weighted by the IDF the postings themselves
//!   give, candidate documents and a score bound for each come from the
//!   postings, and only documents that can still reach the top `k` are
//!   scored ([`passage::RetrievalStats`] reports the pruning);
//! * [`testing`] — the exhaustive reference scan passage retrieval is
//!   tested and benchmarked against.
//!
//! The document-level inverted index, ranked document search and the
//! multidimensional-IR baseline — the systems the paper compares itself
//! with — live in `dwqa-baselines`, which no serving crate depends on.

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
pub mod passage;
pub mod testing;

pub use document::{DocFormat, DocId, Document, DocumentStore};
pub use passage::{Passage, PassageQuery, PassageRetriever, RetrievalStats};
