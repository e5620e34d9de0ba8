//! Deterministic, seed-driven fault injection over any [`DocumentSource`].

use crate::source::{DocumentSource, Fetched, Integrity, SourceError, SourceHealth};
use crate::{hash_str, unit_float};
use dwqa_common::mix64;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Fault rates and knobs for a [`FaultInjector`]. All rates are
/// probabilities in `[0, 1]`, evaluated deterministically from the seed,
/// the URL, and the per-URL attempt number — so a retry of the same URL
/// rolls fresh transient/corruption faults (as a real network would),
/// while `not_found` is rolled from the URL alone and is therefore
/// *permanent*: no number of retries ever makes a 404 succeed.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed all decisions derive from.
    pub seed: u64,
    /// Transient fetch failure rate (connection reset / 5xx).
    pub transient: f64,
    /// Fraction of URLs that permanently 404.
    pub not_found: f64,
    /// Latency-spike rate (the fetch sleeps for [`FaultPlan::spike`]).
    pub latency_spike: f64,
    /// Duration of one injected latency spike.
    pub spike: Duration,
    /// Rate of truncated bodies (tail lost in transit).
    pub truncate: f64,
    /// Rate of garbled bodies (a middle span corrupted).
    pub garble: f64,
    /// Rate of duplicated bodies (content delivered twice).
    pub duplicate: f64,
    /// Rate of injected panics — a poisoned response that crashes a naive
    /// consumer; exercises the engine's panic isolation.
    pub panic: f64,
}

impl FaultPlan {
    /// A fault-free plan with the given seed (every rate zero).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            transient: 0.0,
            not_found: 0.0,
            latency_spike: 0.0,
            spike: Duration::from_millis(1),
            truncate: 0.0,
            garble: 0.0,
            duplicate: 0.0,
            panic: 0.0,
        }
    }

    /// The standard chaos mix at a headline `rate`: transient errors at
    /// `rate`, truncation and garbling at `rate/4` each, duplication at
    /// `rate/8`, latency spikes at `rate/4`. Permanent 404s and panics
    /// stay at zero — enable them explicitly.
    pub fn chaos(seed: u64, rate: f64) -> FaultPlan {
        let rate = rate.clamp(0.0, 1.0);
        FaultPlan {
            transient: rate,
            truncate: rate / 4.0,
            garble: rate / 4.0,
            duplicate: rate / 8.0,
            latency_spike: rate / 4.0,
            ..FaultPlan::new(seed)
        }
    }

    /// Sets the transient-error rate.
    pub fn with_transient(mut self, rate: f64) -> FaultPlan {
        self.transient = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the permanent-404 rate.
    pub fn with_not_found(mut self, rate: f64) -> FaultPlan {
        self.not_found = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the latency-spike rate and duration.
    pub fn with_latency_spikes(mut self, rate: f64, spike: Duration) -> FaultPlan {
        self.latency_spike = rate.clamp(0.0, 1.0);
        self.spike = spike;
        self
    }

    /// Sets the truncation rate.
    pub fn with_truncate(mut self, rate: f64) -> FaultPlan {
        self.truncate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the garbling rate.
    pub fn with_garble(mut self, rate: f64) -> FaultPlan {
        self.garble = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the duplication rate.
    pub fn with_duplicate(mut self, rate: f64) -> FaultPlan {
        self.duplicate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the injected-panic rate.
    pub fn with_panic(mut self, rate: f64) -> FaultPlan {
        self.panic = rate.clamp(0.0, 1.0);
        self
    }
}

/// A deterministic chaos wrapper: injects the faults of a [`FaultPlan`]
/// into every fetch of the wrapped source. Identical seeds produce
/// identical fault sequences, so every chaos experiment is replayable.
pub struct FaultInjector<S> {
    inner: S,
    plan: FaultPlan,
    attempts: Mutex<HashMap<String, u64>>,
    injected: AtomicU64,
}

impl<S: DocumentSource> FaultInjector<S> {
    /// Wraps a source with a fault plan.
    pub fn new(inner: S, plan: FaultPlan) -> FaultInjector<S> {
        FaultInjector {
            inner,
            plan,
            attempts: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// A uniform roll in `[0,1)` for (url, attempt, salt).
    fn roll(&self, url: &str, attempt: u64, salt: u64) -> f64 {
        unit_float(mix64(
            self.plan
                .seed
                .wrapping_add(hash_str(url))
                .wrapping_add(attempt.wrapping_mul(0x9E37_79B9))
                .wrapping_add(salt.wrapping_mul(0x85EB_CA6B)),
        ))
    }

    fn inject(&self, kind: &'static str) {
        self.injected.fetch_add(1, Ordering::Relaxed);
        dwqa_obs::event!("fault", kind);
    }
}

/// Truncates `text` to its first half (on a char boundary).
fn truncate_body(text: &str) -> String {
    let cut = text.len() / 2;
    let mut end = cut;
    while end > 0 && !text.is_char_boundary(end) {
        end -= 1;
    }
    text[..end].to_owned()
}

/// Corrupts the middle third of `text`: alphanumeric characters in the
/// span are replaced so any sentence crossing it no longer matches the
/// canonical copy.
fn garble_body(text: &str) -> String {
    let n = text.chars().count();
    let (from, to) = (n / 3, 2 * n / 3);
    text.chars()
        .enumerate()
        .map(|(i, c)| {
            if i >= from && i < to && c.is_alphanumeric() {
                '¿'
            } else {
                c
            }
        })
        .collect()
}

impl<S: DocumentSource> DocumentSource for FaultInjector<S> {
    fn fetch(&self, url: &str) -> Result<Fetched, SourceError> {
        self.fetch_by(url, None)
    }

    fn fetch_by(&self, url: &str, deadline: Option<Instant>) -> Result<Fetched, SourceError> {
        // Permanent 404: decided from the URL alone, attempt-independent.
        if unit_float(mix64(self.plan.seed ^ hash_str(url) ^ 0x404)) < self.plan.not_found {
            self.inject("not_found");
            return Err(SourceError::NotFound(url.to_owned()));
        }
        let attempt = {
            let mut attempts = self.attempts.lock();
            let counter = attempts.entry(url.to_owned()).or_insert(0);
            *counter += 1;
            *counter
        };
        if self.roll(url, attempt, 1) < self.plan.panic {
            self.inject("panic");
            panic!("injected panic while fetching {url} (attempt {attempt})");
        }
        if self.roll(url, attempt, 2) < self.plan.latency_spike {
            self.inject("latency_spike");
            std::thread::sleep(self.plan.spike);
        }
        if self.roll(url, attempt, 3) < self.plan.transient {
            self.inject("transient");
            return Err(SourceError::Transient(format!(
                "connection reset fetching {url} (attempt {attempt})"
            )));
        }
        let mut fetched = self.inner.fetch_by(url, deadline)?;
        if self.roll(url, attempt, 4) < self.plan.truncate {
            self.inject("truncate");
            fetched.doc.text = truncate_body(&fetched.doc.text);
            fetched.integrity = Integrity::Truncated;
        } else if self.roll(url, attempt, 5) < self.plan.garble {
            self.inject("garble");
            fetched.doc.text = garble_body(&fetched.doc.text);
            fetched.integrity = Integrity::Garbled;
        } else if self.roll(url, attempt, 6) < self.plan.duplicate {
            self.inject("duplicate");
            fetched.doc.text = format!("{0}\n{0}", fetched.doc.text);
            fetched.integrity = Integrity::Duplicated;
        }
        Ok(fetched)
    }

    fn urls(&self) -> Vec<String> {
        self.inner.urls()
    }

    fn health(&self) -> SourceHealth {
        let mut h = self.inner.health();
        h.faults_injected += self.injected();
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::CorpusSource;
    use dwqa_ir::{DocFormat, Document, DocumentStore};

    fn store() -> DocumentStore {
        let mut s = DocumentStore::new();
        for i in 0..20 {
            s.add(Document::new(
                &format!("http://w/{i}"),
                DocFormat::Plain,
                "",
                "The temperature in Barcelona was 8º C. Clear skies all day long today.",
            ));
        }
        s
    }

    fn outcomes(seed: u64, plan: FaultPlan) -> Vec<String> {
        let inj = FaultInjector::new(CorpusSource::new(&store()), FaultPlan { seed, ..plan });
        (0..20)
            .map(|i| match inj.fetch(&format!("http://w/{i}")) {
                Ok(f) => format!("{:?}:{}", f.integrity, f.doc.text.len()),
                Err(e) => format!("{e}"),
            })
            .collect()
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan::chaos(0, 0.5);
        assert_eq!(outcomes(7, plan.clone()), outcomes(7, plan.clone()));
        assert_ne!(outcomes(7, plan.clone()), outcomes(8, plan));
    }

    #[test]
    fn zero_rates_inject_nothing() {
        let inj = FaultInjector::new(CorpusSource::new(&store()), FaultPlan::new(1));
        for i in 0..20 {
            let f = inj.fetch(&format!("http://w/{i}")).unwrap();
            assert!(f.integrity.is_intact());
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn transient_rate_one_fails_every_fetch_but_attempts_differ() {
        let inj = FaultInjector::new(
            CorpusSource::new(&store()),
            FaultPlan::new(1).with_transient(1.0),
        );
        let a = inj.fetch("http://w/0").unwrap_err();
        let b = inj.fetch("http://w/0").unwrap_err();
        assert!(a.is_retryable() && b.is_retryable());
        assert_ne!(a, b, "attempt number is part of the error");
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn not_found_is_permanent_across_retries() {
        let inj = FaultInjector::new(
            CorpusSource::new(&store()),
            FaultPlan::new(1).with_not_found(1.0),
        );
        for _ in 0..3 {
            assert!(matches!(
                inj.fetch("http://w/0"),
                Err(SourceError::NotFound(_))
            ));
        }
    }

    #[test]
    fn truncation_halves_and_garbling_corrupts() {
        let text = "abcdefghij klmnopqrst uvwxyz0123";
        let cut = truncate_body(text);
        assert!(cut.len() <= text.len() / 2);
        assert!(text.starts_with(&cut));
        let garbled = garble_body(text);
        assert_eq!(garbled.chars().count(), text.chars().count());
        assert_ne!(garbled, text);
        assert!(garbled.contains('¿'));
        // The first third survives.
        assert!(garbled.starts_with("abcdefghij"));
    }

    #[test]
    fn corruption_sets_the_integrity_verdict() {
        let inj = FaultInjector::new(
            CorpusSource::new(&store()),
            FaultPlan::new(1).with_truncate(1.0),
        );
        let f = inj.fetch("http://w/0").unwrap();
        assert_eq!(f.integrity, Integrity::Truncated);
        let inj = FaultInjector::new(
            CorpusSource::new(&store()),
            FaultPlan::new(1).with_duplicate(1.0),
        );
        let f = inj.fetch("http://w/0").unwrap();
        assert_eq!(f.integrity, Integrity::Duplicated);
        assert!(f.doc.text.len() > 100);
    }

    #[test]
    fn injected_panics_panic() {
        let inj = FaultInjector::new(
            CorpusSource::new(&store()),
            FaultPlan::new(1).with_panic(1.0),
        );
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = inj.fetch("http://w/0");
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("injected panic"), "{msg}");
    }

    #[test]
    fn health_reports_injected_faults() {
        let inj = FaultInjector::new(
            CorpusSource::new(&store()),
            FaultPlan::new(1).with_transient(1.0),
        );
        let _ = inj.fetch("http://w/0");
        assert_eq!(inj.health().faults_injected, 1);
        assert_eq!(inj.urls().len(), 20);
        assert!(inj.plan().transient > 0.99);
    }
}
