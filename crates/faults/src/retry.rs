//! Bounded retries with exponential backoff + seeded jitter, and a
//! per-URL circuit breaker.

use crate::source::{DocumentSource, Fetched, SourceError, SourceHealth};
use crate::{hash_str, unit_float};
use dwqa_common::{mix64, ConfigError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Retry and circuit-breaker policy for a [`ResilientSource`].
///
/// Defaults: 4 attempts, 1 ms base backoff doubling to a 50 ms cap with
/// ±50% seeded jitter; breaker opens after 5 consecutive failures and
/// half-opens after a 100 ms cooldown. Tune via [`RetryPolicy::builder`];
/// ranges are validated at `build()` (the workspace builder convention).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per fetch (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff sleep.
    pub max_backoff: Duration,
    /// Multiplier applied to the backoff after each retry.
    pub multiplier: f64,
    /// Jitter fraction in `[0, 1]`: each sleep is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
    /// Consecutive failures on one URL that trip its breaker open.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects fetches before half-opening.
    pub breaker_cooldown: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            multiplier: 2.0,
            jitter: 0.5,
            jitter_seed: 0x5eed,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_millis(100),
        }
    }
}

impl RetryPolicy {
    /// Starts a builder from the defaults.
    pub fn builder() -> RetryPolicyBuilder {
        RetryPolicyBuilder {
            policy: RetryPolicy::default(),
        }
    }

    /// Checks every knob's range (the workspace builder convention:
    /// validation happens once at `build()`, not at first use).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_attempts == 0 {
            return Err(ConfigError::new(
                "max_attempts",
                "must attempt at least once (got 0)",
            ));
        }
        if self.multiplier < 1.0 || !self.multiplier.is_finite() {
            return Err(ConfigError::new(
                "multiplier",
                format!(
                    "backoff growth must be a finite factor >= 1.0 (got {})",
                    self.multiplier
                ),
            ));
        }
        if !(0.0..=1.0).contains(&self.jitter) {
            return Err(ConfigError::new(
                "jitter",
                format!("jitter fraction must lie in [0, 1] (got {})", self.jitter),
            ));
        }
        if self.max_backoff < self.base_backoff {
            return Err(ConfigError::new(
                "max_backoff",
                format!(
                    "cap ({:?}) must be at least the base backoff ({:?})",
                    self.max_backoff, self.base_backoff
                ),
            ));
        }
        if self.breaker_threshold == 0 {
            return Err(ConfigError::new(
                "breaker_threshold",
                "must tolerate at least 1 failure before tripping (got 0)",
            ));
        }
        Ok(())
    }

    /// The backoff before retry number `retry` (1-based), jittered and
    /// capped. Deterministic in (seed, url, retry).
    fn backoff(&self, url: &str, retry: u32) -> Duration {
        let exp = self.multiplier.powi(retry.saturating_sub(1) as i32);
        let raw = self.base_backoff.as_secs_f64() * exp;
        let capped = raw.min(self.max_backoff.as_secs_f64());
        let roll = unit_float(mix64(
            self.jitter_seed
                .wrapping_add(hash_str(url))
                .wrapping_add(u64::from(retry).wrapping_mul(0xC2B2_AE35)),
        ));
        let factor = 1.0 + self.jitter.clamp(0.0, 1.0) * (2.0 * roll - 1.0);
        Duration::from_secs_f64((capped * factor).max(0.0))
    }
}

/// Fluent builder for [`RetryPolicy`].
#[derive(Debug, Clone)]
pub struct RetryPolicyBuilder {
    policy: RetryPolicy,
}

impl RetryPolicyBuilder {
    /// Total attempts per fetch (must be at least 1).
    pub fn max_attempts(mut self, n: u32) -> Self {
        self.policy.max_attempts = n;
        self
    }

    /// Backoff before the first retry.
    pub fn base_backoff(mut self, d: Duration) -> Self {
        self.policy.base_backoff = d;
        self
    }

    /// Cap on any single backoff sleep.
    pub fn max_backoff(mut self, d: Duration) -> Self {
        self.policy.max_backoff = d;
        self
    }

    /// Backoff growth factor (must be at least 1.0).
    pub fn multiplier(mut self, m: f64) -> Self {
        self.policy.multiplier = m;
        self
    }

    /// Jitter fraction in `[0, 1]` and the seed of its stream.
    pub fn jitter(mut self, fraction: f64, seed: u64) -> Self {
        self.policy.jitter = fraction;
        self.policy.jitter_seed = seed;
        self
    }

    /// Consecutive failures that trip a URL's breaker open (must be at
    /// least 1).
    pub fn breaker_threshold(mut self, n: u32) -> Self {
        self.policy.breaker_threshold = n;
        self
    }

    /// Cooldown before an open breaker half-opens.
    pub fn breaker_cooldown(mut self, d: Duration) -> Self {
        self.policy.breaker_cooldown = d;
        self
    }

    /// Finishes the build, validating every knob's range.
    pub fn build(self) -> Result<RetryPolicy, ConfigError> {
        self.policy.validate()?;
        Ok(self.policy)
    }
}

/// Lifecycle of one URL's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: fetches flow through.
    Closed,
    /// Tripped: fetches are rejected until the cooldown expires.
    Open,
    /// Cooled down: exactly one probe fetch is allowed through.
    HalfOpen,
}

#[derive(Debug, Clone, Copy)]
struct Breaker {
    consecutive: u32,
    state: BreakerLife,
}

#[derive(Debug, Clone, Copy)]
enum BreakerLife {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            consecutive: 0,
            state: BreakerLife::Closed,
        }
    }
}

/// A resilience wrapper: bounded retries with exponential backoff and
/// seeded jitter, plus a per-URL circuit breaker. Deadline-aware — it
/// stops retrying (and never sleeps past) a [`DocumentSource::fetch_by`]
/// deadline.
pub struct ResilientSource<S> {
    inner: S,
    policy: RetryPolicy,
    breakers: Mutex<HashMap<String, Breaker>>,
    fetches: AtomicU64,
    retries: AtomicU64,
    trips: AtomicU64,
    rejections: AtomicU64,
    failures: AtomicU64,
}

impl<S: DocumentSource> ResilientSource<S> {
    /// Wraps a source with a retry/breaker policy.
    pub fn new(inner: S, policy: RetryPolicy) -> ResilientSource<S> {
        ResilientSource {
            inner,
            policy,
            breakers: Mutex::new(HashMap::new()),
            fetches: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            trips: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The breaker state of one URL right now.
    pub fn breaker_state(&self, url: &str) -> BreakerState {
        let breakers = self.breakers.lock();
        match breakers.get(url).map(|b| b.state) {
            None | Some(BreakerLife::Closed) => BreakerState::Closed,
            Some(BreakerLife::HalfOpen) => BreakerState::HalfOpen,
            Some(BreakerLife::Open { until }) => {
                if Instant::now() >= until {
                    BreakerState::HalfOpen
                } else {
                    BreakerState::Open
                }
            }
        }
    }

    /// Checks the URL's breaker; returns `Err(CircuitOpen)` if it is
    /// rejecting, otherwise notes a (possibly half-open) pass-through.
    fn admit(&self, url: &str) -> Result<(), SourceError> {
        let mut breakers = self.breakers.lock();
        let breaker = breakers.entry(url.to_owned()).or_insert_with(Breaker::new);
        match breaker.state {
            BreakerLife::Closed | BreakerLife::HalfOpen => Ok(()),
            BreakerLife::Open { until } => {
                if Instant::now() >= until {
                    breaker.state = BreakerLife::HalfOpen;
                    dwqa_obs::event!("breaker.half_open");
                    Ok(())
                } else {
                    self.rejections.fetch_add(1, Ordering::Relaxed);
                    dwqa_obs::event!("breaker.rejected");
                    Err(SourceError::CircuitOpen(url.to_owned()))
                }
            }
        }
    }

    fn record_success(&self, url: &str) {
        let mut breakers = self.breakers.lock();
        if let Some(b) = breakers.get_mut(url) {
            b.consecutive = 0;
            b.state = BreakerLife::Closed;
        }
    }

    fn record_failure(&self, url: &str) {
        let mut breakers = self.breakers.lock();
        let breaker = breakers.entry(url.to_owned()).or_insert_with(Breaker::new);
        breaker.consecutive = breaker.consecutive.saturating_add(1);
        let reopen = matches!(breaker.state, BreakerLife::HalfOpen);
        if reopen || breaker.consecutive >= self.policy.breaker_threshold {
            if !matches!(breaker.state, BreakerLife::Open { .. }) {
                self.trips.fetch_add(1, Ordering::Relaxed);
                dwqa_obs::event!("breaker.open", reopen);
            }
            breaker.state = BreakerLife::Open {
                until: Instant::now() + self.policy.breaker_cooldown,
            };
        }
    }
}

impl<S: DocumentSource> DocumentSource for ResilientSource<S> {
    fn fetch(&self, url: &str) -> Result<Fetched, SourceError> {
        self.fetch_by(url, None)
    }

    fn fetch_by(&self, url: &str, deadline: Option<Instant>) -> Result<Fetched, SourceError> {
        let span = dwqa_obs::span!("fetch", url);
        self.admit(url)?;
        let mut last = None;
        for attempt in 1..=self.policy.max_attempts {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    self.failures.fetch_add(1, Ordering::Relaxed);
                    self.record_failure(url);
                    span.record("ok", false);
                    return Err(SourceError::Timeout(format!(
                        "deadline hit before attempt {attempt} on {url}"
                    )));
                }
            }
            self.fetches.fetch_add(1, Ordering::Relaxed);
            match self.inner.fetch_by(url, deadline) {
                Ok(fetched) => {
                    self.record_success(url);
                    span.record("attempts", attempt);
                    span.record("ok", true);
                    return Ok(fetched);
                }
                Err(err) => {
                    let retryable = err.is_retryable();
                    last = Some(err);
                    if !retryable || attempt == self.policy.max_attempts {
                        break;
                    }
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    let mut sleep = self.policy.backoff(url, attempt);
                    if let Some(d) = deadline {
                        let left = d.saturating_duration_since(Instant::now());
                        sleep = sleep.min(left);
                    }
                    dwqa_obs::event!(
                        "retry",
                        attempt,
                        backoff_us = sleep.as_micros().min(u128::from(u64::MAX)) as u64
                    );
                    if !sleep.is_zero() {
                        std::thread::sleep(sleep);
                    }
                }
            }
        }
        self.failures.fetch_add(1, Ordering::Relaxed);
        self.record_failure(url);
        span.record("ok", false);
        Err(last.unwrap_or_else(|| SourceError::Transient(format!("no attempts made on {url}"))))
    }

    fn urls(&self) -> Vec<String> {
        self.inner.urls()
    }

    fn health(&self) -> SourceHealth {
        let mut h = self.inner.health();
        h.fetches += self.fetches.load(Ordering::Relaxed);
        h.retries += self.retries.load(Ordering::Relaxed);
        h.breaker_trips += self.trips.load(Ordering::Relaxed);
        h.breaker_rejections += self.rejections.load(Ordering::Relaxed);
        h.failures += self.failures.load(Ordering::Relaxed);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Integrity;
    use dwqa_ir::{DocFormat, Document};
    use std::sync::atomic::AtomicU32;

    /// Fails the first `fail_first` fetches of every URL, then succeeds.
    struct Flaky {
        fail_first: u32,
        calls: AtomicU32,
    }

    impl Flaky {
        fn new(fail_first: u32) -> Flaky {
            Flaky {
                fail_first,
                calls: AtomicU32::new(0),
            }
        }
    }

    impl DocumentSource for Flaky {
        fn fetch(&self, url: &str) -> Result<Fetched, SourceError> {
            let n = self.calls.fetch_add(1, Ordering::Relaxed);
            if n < self.fail_first {
                Err(SourceError::Transient(format!("flake {n} on {url}")))
            } else {
                Ok(Fetched {
                    doc: Document::new(url, DocFormat::Plain, "", "body"),
                    integrity: Integrity::Intact,
                })
            }
        }

        fn urls(&self) -> Vec<String> {
            vec!["http://flaky".into()]
        }
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy::builder()
            .max_attempts(4)
            .base_backoff(Duration::ZERO)
            .max_backoff(Duration::ZERO)
            .breaker_threshold(2)
            .breaker_cooldown(Duration::from_millis(20))
            .build()
            .unwrap()
    }

    #[test]
    fn retries_until_success_and_counts() {
        let src = ResilientSource::new(Flaky::new(2), fast_policy());
        let f = src.fetch("http://flaky").unwrap();
        assert_eq!(f.doc.text, "body");
        let h = src.health();
        assert_eq!(h.fetches, 3);
        assert_eq!(h.retries, 2);
        assert_eq!(h.failures, 0);
        assert_eq!(src.breaker_state("http://flaky"), BreakerState::Closed);
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let src = ResilientSource::new(Flaky::new(100), fast_policy());
        let err = src.fetch("http://flaky").unwrap_err();
        assert!(err.is_retryable(), "last error is surfaced: {err}");
        let h = src.health();
        assert_eq!(h.fetches, 4);
        assert_eq!(h.retries, 3);
        assert_eq!(h.failures, 1);
    }

    #[test]
    fn not_found_is_never_retried() {
        struct Gone;
        impl DocumentSource for Gone {
            fn fetch(&self, url: &str) -> Result<Fetched, SourceError> {
                Err(SourceError::NotFound(url.to_owned()))
            }
            fn urls(&self) -> Vec<String> {
                Vec::new()
            }
        }
        let src = ResilientSource::new(Gone, fast_policy());
        assert!(matches!(
            src.fetch("http://gone"),
            Err(SourceError::NotFound(_))
        ));
        assert_eq!(src.health().fetches, 1);
        assert_eq!(src.health().retries, 0);
    }

    #[test]
    fn breaker_opens_rejects_then_half_opens_and_recovers() {
        let src = ResilientSource::new(Flaky::new(8), fast_policy());
        // Two failed fetches (threshold 2) trip the breaker.
        assert!(src.fetch("http://flaky").is_err());
        assert!(src.fetch("http://flaky").is_err());
        assert_eq!(src.breaker_state("http://flaky"), BreakerState::Open);
        assert!(matches!(
            src.fetch("http://flaky"),
            Err(SourceError::CircuitOpen(_))
        ));
        let h = src.health();
        assert!(h.breaker_trips >= 1, "tripped: {h:?}");
        assert_eq!(h.breaker_rejections, 1);
        // After the cooldown the half-open probe succeeds (8 flakes are
        // spent) and the breaker closes again.
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(src.breaker_state("http://flaky"), BreakerState::HalfOpen);
        assert!(src.fetch("http://flaky").is_ok());
        assert_eq!(src.breaker_state("http://flaky"), BreakerState::Closed);
    }

    #[test]
    fn half_open_probe_failure_retrips_immediately_with_fresh_cooldown() {
        // Flaky::new(100) never succeeds, so the half-open probe fails.
        let src = ResilientSource::new(Flaky::new(100), fast_policy());
        assert!(src.fetch("http://flaky").is_err());
        assert!(src.fetch("http://flaky").is_err()); // threshold 2 → open
        assert_eq!(src.breaker_state("http://flaky"), BreakerState::Open);
        let trips_after_first_open = src.health().breaker_trips;

        // Cool down into half-open, then let the single probe fail: the
        // breaker must re-trip on that ONE failure (no second grace
        // period of `threshold` failures) and must count a fresh trip.
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(src.breaker_state("http://flaky"), BreakerState::HalfOpen);
        let probe_started = Instant::now();
        assert!(src.fetch("http://flaky").is_err());
        assert_eq!(
            src.breaker_state("http://flaky"),
            BreakerState::Open,
            "one failed half-open probe re-trips the breaker"
        );
        assert_eq!(src.health().breaker_trips, trips_after_first_open + 1);

        // The re-trip starts a FULL cooldown from the probe failure:
        // still rejecting well before the 20 ms cooldown elapses...
        assert!(matches!(
            src.fetch("http://flaky"),
            Err(SourceError::CircuitOpen(_))
        ));
        assert!(
            probe_started.elapsed() < Duration::from_millis(20),
            "rejection observed inside the fresh cooldown window"
        );
        // ...and half-open again only after it has fully elapsed.
        std::thread::sleep(Duration::from_millis(25));
        assert_eq!(src.breaker_state("http://flaky"), BreakerState::HalfOpen);
    }

    #[test]
    fn fetch_spans_carry_retry_and_breaker_events() {
        let tracer = dwqa_obs::Tracer::new(4);
        tracer.set_enabled(true);
        let src = ResilientSource::new(Flaky::new(100), fast_policy());
        {
            let _obs = dwqa_obs::observe(None, Some(&tracer), "question", "q");
            let _ = src.fetch("http://flaky"); // 4 attempts, 3 retries
            let _ = src.fetch("http://flaky"); // trips the breaker
            let _ = src.fetch("http://flaky"); // rejected while open
        }
        let trace = tracer.recorder().last().unwrap_or_default();
        let fetches = trace.find_all("fetch");
        assert_eq!(fetches.len(), 3, "one fetch span per source call");
        assert_eq!(
            fetches[0].field("url").and_then(|v| v.as_str()),
            Some("http://flaky")
        );
        let retries: Vec<_> = fetches[0]
            .events
            .iter()
            .filter(|e| e.name == "retry")
            .collect();
        assert_eq!(retries.len(), 3);
        assert!(fetches[1].events.iter().any(|e| e.name == "breaker.open"));
        assert!(fetches[2]
            .events
            .iter()
            .any(|e| e.name == "breaker.rejected"));
    }

    #[test]
    fn deadline_caps_retries_with_timeout() {
        struct Slow;
        impl DocumentSource for Slow {
            fn fetch(&self, url: &str) -> Result<Fetched, SourceError> {
                std::thread::sleep(Duration::from_millis(5));
                Err(SourceError::Transient(format!("slow {url}")))
            }
            fn urls(&self) -> Vec<String> {
                Vec::new()
            }
        }
        let policy = RetryPolicy::builder()
            .max_attempts(1000)
            .base_backoff(Duration::from_millis(1))
            .build()
            .unwrap();
        let src = ResilientSource::new(Slow, policy);
        let deadline = Instant::now() + Duration::from_millis(30);
        let start = Instant::now();
        let err = src.fetch_by("http://slow", Some(deadline)).unwrap_err();
        assert!(
            matches!(err, SourceError::Timeout(_)),
            "deadline surfaces as Timeout: {err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "no runaway retrying"
        );
    }

    #[test]
    fn backoff_grows_is_jittered_and_capped() {
        let policy = RetryPolicy::builder()
            .base_backoff(Duration::from_millis(4))
            .max_backoff(Duration::from_millis(20))
            .multiplier(2.0)
            .jitter(0.5, 99)
            .build()
            .unwrap();
        let b1 = policy.backoff("u", 1);
        let b2 = policy.backoff("u", 2);
        let b5 = policy.backoff("u", 5);
        // Jitter keeps each sleep within ±50% of the nominal value.
        assert!(b1 >= Duration::from_millis(2) && b1 <= Duration::from_millis(6));
        assert!(b2 >= Duration::from_millis(4) && b2 <= Duration::from_millis(12));
        assert!(b5 <= Duration::from_millis(30), "capped at max_backoff×1.5");
        // Deterministic per (seed, url, retry); different across URLs.
        assert_eq!(policy.backoff("u", 1), b1);
        assert_ne!(policy.backoff("v", 1), b1);
    }

    #[test]
    fn builder_rejects_degenerate_knobs_at_build() {
        let cases: Vec<(&str, Result<RetryPolicy, dwqa_common::ConfigError>)> = vec![
            (
                "max_attempts",
                RetryPolicy::builder().max_attempts(0).build(),
            ),
            ("multiplier", RetryPolicy::builder().multiplier(0.1).build()),
            ("jitter", RetryPolicy::builder().jitter(7.0, 1).build()),
            (
                "breaker_threshold",
                RetryPolicy::builder().breaker_threshold(0).build(),
            ),
            (
                "max_backoff",
                RetryPolicy::builder()
                    .base_backoff(Duration::from_millis(100))
                    .max_backoff(Duration::from_millis(1))
                    .build(),
            ),
        ];
        for (field, result) in cases {
            let err = result.expect_err(field);
            assert_eq!(err.field, field, "{err}");
        }
        // The defaults themselves pass validation.
        assert!(RetryPolicy::default().validate().is_ok());
        assert!(RetryPolicy::builder().build().is_ok());
    }
}
