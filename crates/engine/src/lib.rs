//! `dwqa-engine` — the concurrent batch QA engine over the integration
//! pipeline.
//!
//! `dwqa-core` splits the integrated system into an immutable **read
//! path** (question analysis → passage selection → answer extraction,
//! over `Arc`-shared index and ontology) and a serialized **write path**
//! (the Step-5 feedback ETL). This crate builds the production machinery
//! on top of that split:
//!
//! * [`QaEngine`] — a worker-thread pool (`std` scoped threads) that
//!   answers question batches in parallel and merges results in input
//!   order, so reports are deterministic no matter how work interleaves;
//! * [`AnswerCache`] — a bounded LRU cache keyed on normalized question
//!   text; answers are pure functions of the question and the immutable
//!   index, so feedback ETL never invalidates an entry;
//! * [`EngineStats`] — lock-free per-stage counters and latency
//!   histograms, rendered by the REPL and the experiment binaries;
//! * [`QaSession`] — the session-oriented user API
//!   (`QaSession::new(&pipeline)`), and [`SubmitBatch`] which adds
//!   `pipeline.submit_batch(&questions) -> BatchReport`.
//!
//! ```no_run
//! use dwqa_engine::{QaSession, SubmitBatch};
//! # fn demo(mut pipeline: dwqa_core::IntegrationPipeline, questions: Vec<String>) {
//! let mut session = QaSession::new(&pipeline);
//! let answers = session.ask("What is the temperature in January of 2004 in El Prat?");
//! let report = pipeline.submit_batch(&questions); // concurrent read, serial feed
//! println!("{}", session.stats().render());
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod outcome;
pub mod session;
pub mod stats;

pub use cache::{normalize_question, AnswerCache};
pub use outcome::{AnswerOutcome, QuestionReport};
pub use session::{BatchReport, QaEngine, QaSession, SubmitBatch, DEFAULT_CACHE_CAPACITY};
pub use stats::{EngineStats, LatencyHistogram, StageStats};
