//! `dwqa-faults` — the unreliable-source abstraction and the resilience
//! layer around it.
//!
//! The paper's Step 5 feeds the warehouse from *open* sources — the Web
//! and intranet reports — which in production are partially available,
//! slow, and occasionally corrupt. This crate models that reality over
//! the reproduction's in-memory corpus:
//!
//! * [`DocumentSource`] — the acquisition trait: fetch a document by URL,
//!   with an optional deadline. [`CorpusSource`] is the perfect oracle
//!   over a [`dwqa_ir::DocumentStore`].
//! * [`FaultInjector`] — a deterministic, seed-driven wrapper producing
//!   transient errors, latency spikes, truncated/garbled/duplicated
//!   bodies, permanent 404s, and (optionally) panics, at configurable
//!   [`FaultPlan`] rates. The same seed always produces the same fault
//!   sequence, so chaos runs are reproducible.
//! * [`ResilientSource`] — bounded retries with exponential backoff and
//!   seeded jitter, plus a per-URL circuit breaker (open after N
//!   consecutive failures, half-open probe after a cooldown). All knobs
//!   live on the [`RetryPolicy`] builder.
//! * [`LinkFault`] — the same seeded-chaos discipline for the
//!   *replication link*: drops, delays, torn frames, duplicated frames
//!   and half-open connections at [`LinkPlan`] rates, so the WAL
//!   shipping protocol can prove it survives an unreliable network.
//!
//! ```
//! use dwqa_faults::{CorpusSource, DocumentSource, FaultInjector, FaultPlan,
//!                   ResilientSource, RetryPolicy};
//! use dwqa_ir::{DocFormat, Document, DocumentStore};
//!
//! let mut store = DocumentStore::new();
//! store.add(Document::new("http://w/1", DocFormat::Plain, "", "Temperature 8º C"));
//! let flaky = FaultInjector::new(CorpusSource::new(&store), FaultPlan::chaos(42, 0.2));
//! let source = ResilientSource::new(flaky, RetryPolicy::default());
//! let fetched = source.fetch("http://w/1").unwrap();
//! assert!(fetched.doc.text.contains("8º C") || !fetched.integrity.is_intact());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod inject;
pub mod link;
pub mod retry;
pub mod source;

pub use inject::{FaultInjector, FaultPlan};
pub use link::{LinkAction, LinkDecision, LinkFault, LinkPlan};
pub use retry::{BreakerState, ResilientSource, RetryPolicy, RetryPolicyBuilder};
pub use source::{CorpusSource, DocumentSource, Fetched, Integrity, SourceError, SourceHealth};

/// A deterministic hash of a string (FNV-1a), for keying fault decisions
/// off URLs without depending on `std`'s randomized hasher.
pub(crate) fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Maps a 64-bit hash to a uniform float in `[0, 1)`.
pub(crate) fn unit_float(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwqa_common::mix64;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(42), mix64(43));
    }

    #[test]
    fn unit_float_is_in_range() {
        for i in 0..1000 {
            let f = unit_float(mix64(i));
            assert!((0.0..1.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn hash_str_distinguishes_urls() {
        assert_ne!(hash_str("http://a"), hash_str("http://b"));
        assert_eq!(hash_str("http://a"), hash_str("http://a"));
    }
}
