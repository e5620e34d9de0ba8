//! # dwqa-store — durable feedback for the QA ⇄ DW pipeline
//!
//! The paper's step-5 feedback loop only pays off if enrichment
//! *persists*: a warehouse member fed in one session must still be
//! there after a crash. This crate gives the pipeline that guarantee
//! with two files in a store directory:
//!
//! * **`feedback.wal`** — an append-only write-ahead log of committed
//!   feedback transactions. Every record is length-prefixed,
//!   CRC-32-checksummed and generation-stamped, so recovery can tell a
//!   committed record from a torn tail byte-for-byte.
//! * **`checkpoint.bin`** — a periodic serialized `WarehouseSnapshot`
//!   (opaque bytes to this crate) written tmp-then-rename; a successful
//!   checkpoint bumps the generation and truncates the log.
//!
//! [`FeedbackStore::open`] is the recovery path: it loads the
//! checkpoint (rejecting a corrupt one outright — the same
//! reject-don't-half-load stance as snapshot restore), then replays the
//! WAL suffix, stopping at the first invalid record and truncating the
//! torn tail instead of guessing. Stale records from an older
//! generation (a crash between checkpoint rename and log truncation)
//! are skipped; duplicated records (a crash after a retried write) are
//! deduplicated by sequence number.
//!
//! Durability cost is a policy knob: [`FsyncPolicy::Always`] fsyncs
//! every append (the committed-prefix invariant holds across power
//! loss), `EveryN` amortizes, `Never` leaves flushing to the OS.
//!
//! The seeded [`TornWriter`] fault layer injects short writes, bit
//! flips, duplicated records and failed fsyncs so the recovery tests
//! and the `exp_crash` experiment can prove the invariant instead of
//! assuming it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod error;
pub mod store;
pub mod stream;
pub mod torn;
mod wal;

pub use config::{FsyncPolicy, StoreConfig, StoreConfigBuilder};
pub use error::StoreError;
pub use store::{FeedbackStore, FrameTap, Recovery, WalRecord};
pub use stream::{Frame, FrameKind, FrameStream, FrameStreamError};
pub use torn::{TornDecision, TornFault, TornPlan, TornWriter};
