//! Seeded randomness, samplers, percentiles and the open-loop send
//! schedule. Everything here is deterministic from its inputs.

use std::time::Duration;

/// SplitMix64 — the workspace's standard deterministic stream mixer.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// An independent stream for a named purpose, so adding a consumer
    /// never shifts the values another consumer sees.
    pub fn fork(&self, tag: u64) -> Rng {
        let mut child = Rng(self.0 ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        child.next_u64();
        child
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// Zipf sampler over ranks `0..n` with exponent `s`: rank `k` is drawn
/// with probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut total = 0.0;
        let mut cumulative: Vec<f64> = (1..=n)
            .map(|k| {
                total += 1.0 / (k as f64).powf(s);
                total
            })
            .collect();
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// Nearest-rank percentile of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median of unsorted floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A latency distribution in nanoseconds, reported in the unit the
/// caller asks for.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    pub n: usize,
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
}

impl Summary {
    pub fn of(samples_ns: &[u64]) -> Summary {
        let mut sorted = samples_ns.to_vec();
        sorted.sort_unstable();
        Summary {
            n: sorted.len(),
            p50_ns: percentile(&sorted, 0.50),
            p95_ns: percentile(&sorted, 0.95),
            p99_ns: percentile(&sorted, 0.99),
        }
    }

    pub fn p50_ms(&self) -> f64 {
        self.p50_ns as f64 / 1e6
    }

    pub fn p95_ms(&self) -> f64 {
        self.p95_ns as f64 / 1e6
    }

    pub fn p50_us(&self) -> f64 {
        self.p50_ns as f64 / 1e3
    }

    pub fn p95_us(&self) -> f64 {
        self.p95_ns as f64 / 1e3
    }

    pub fn p99_us(&self) -> f64 {
        self.p99_ns as f64 / 1e3
    }

    /// `p50 / p95 / p99 (n)` in milliseconds, for the human report.
    pub fn render_ms(&self) -> String {
        format!(
            "p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  (n={})",
            self.p50_ms(),
            self.p95_ms(),
            self.p99_ns as f64 / 1e6,
            self.n
        )
    }
}

/// A run's latency figures, steadied against a host whose speed wanders
/// over seconds: the time-ordered samples are cut into `windows` equal
/// parts and the median across the parts of each part's p50 and p95 is
/// reported, in nanoseconds. A burst that slows one part cannot move the
/// figure; a change to the system moves every part. Too few samples for
/// twenty a part fall back to the whole series.
pub fn windowed(samples_ns: &[u64], windows: usize) -> (f64, f64) {
    let per_window = samples_ns.len() / windows.max(1);
    if per_window < 20 {
        let whole = Summary::of(samples_ns);
        return (whole.p50_ns as f64, whole.p95_ns as f64);
    }
    let parts: Vec<Summary> = samples_ns
        .chunks_exact(per_window)
        .map(Summary::of)
        .collect();
    let p50s: Vec<f64> = parts.iter().map(|s| s.p50_ns as f64).collect();
    let p95s: Vec<f64> = parts.iter().map(|s| s.p95_ns as f64).collect();
    (median(&p50s), median(&p95s))
}

/// The same for a rate: `done_ns` are completion times since the stream
/// started, ascending; returns the median across the parts of each
/// part's completions per second.
pub fn windowed_rate(done_ns: &[u64], windows: usize) -> f64 {
    let per_window = done_ns.len() / windows.max(1);
    if per_window < 20 {
        let span = done_ns.last().copied().unwrap_or(0) as f64 / 1e9;
        return if span > 0.0 {
            done_ns.len() as f64 / span
        } else {
            0.0
        };
    }
    let mut from = 0u64;
    let rates: Vec<f64> = done_ns
        .chunks_exact(per_window)
        .map(|part| {
            let to = part[per_window - 1];
            let rate = per_window as f64 / ((to - from).max(1) as f64 / 1e9);
            from = to;
            rate
        })
        .collect();
    median(&rates)
}

/// The open-loop schedule: request `i` of a fixed-rate stream is due
/// this long after the stream starts, whatever happened to the requests
/// before it.
pub fn due_at(i: u64, rate_per_sec: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate_per_sec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.50), 51);
        assert_eq!(percentile(&v, 0.95), 95);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn summary_orders_its_percentiles() {
        let s = Summary::of(&[5_000, 1_000, 9_000, 3_000, 7_000]);
        assert_eq!(s.n, 5);
        assert_eq!(s.p50_ns, 5_000);
        assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns);
        assert_eq!(Summary::of(&[]).p50_ns, 0);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_figures_ignore_a_burst_but_follow_a_shift() {
        // Five windows of 100 samples at 1000 ns, one of them disturbed.
        let mut samples = vec![1_000u64; 500];
        for s in &mut samples[200..300] {
            *s = 9_000;
        }
        assert_eq!(windowed(&samples, 5), (1_000.0, 1_000.0));
        assert_eq!(
            Summary::of(&samples).p95_ns,
            9_000,
            "the plain p95 is moved"
        );
        let shifted: Vec<u64> = samples.iter().map(|s| s * 2).collect();
        assert_eq!(windowed(&shifted, 5), (2_000.0, 2_000.0));
        // Too few samples: the whole series.
        assert_eq!(windowed(&[5, 1, 3], 5), (3.0, 5.0));

        // 100 completions a second, except a stalled third window.
        let mut done = Vec::new();
        let mut t = 0u64;
        for i in 0..500 {
            t += if (200..300).contains(&i) {
                40_000_000
            } else {
                10_000_000
            };
            done.push(t);
        }
        assert!((windowed_rate(&done, 5) - 100.0).abs() < 1e-6);
        assert_eq!(windowed_rate(&[], 5), 0.0);
    }

    #[test]
    fn rng_is_deterministic_and_forks_are_independent() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let base = Rng::new(42);
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
        assert_eq!(base.fork(1).next_u64(), base.fork(1).next_u64());
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(13) < 13);
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..100).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut Rng::new(9));
        shuffle(&mut b, &mut Rng::new(9));
        assert_eq!(a, b, "same seed, same order");
        let mut c: Vec<u32> = (0..100).collect();
        shuffle(&mut c, &mut Rng::new(10));
        assert_ne!(a, c, "another seed, another order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn zipf_favours_low_ranks_in_proportion() {
        let zipf = Zipf::new(128, 1.0);
        let mut rng = Rng::new(3);
        let mut counts = [0usize; 128];
        let draws = 200_000;
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // H_128 ≈ 5.433: rank 0 gets 1/H of the draws, rank 1 half that.
        let h: f64 = (1..=128).map(|k| 1.0 / k as f64).sum();
        let p0 = counts[0] as f64 / draws as f64;
        let p1 = counts[1] as f64 / draws as f64;
        assert!((p0 - 1.0 / h).abs() < 0.01, "p0 = {p0}");
        assert!((p1 - 0.5 / h).abs() < 0.01, "p1 = {p1}");
        assert!(counts.iter().all(|&c| c > 0), "every rank is reachable");
        assert_eq!(Zipf::new(1, 1.0).sample(&mut rng), 0);
    }

    #[test]
    fn schedule_is_fixed_rate_from_the_stream_start() {
        assert_eq!(due_at(0, 400.0), Duration::ZERO);
        assert_eq!(due_at(400, 400.0), Duration::from_secs(1));
        assert_eq!(due_at(1, 400.0), Duration::from_micros(2500));
        // Due times never depend on earlier completions: strictly
        // increasing by one interval.
        let gaps: Vec<Duration> = (0..5)
            .map(|i| due_at(i + 1, 3000.0) - due_at(i, 3000.0))
            .collect();
        for g in gaps {
            assert!((g.as_secs_f64() - 1.0 / 3000.0).abs() < 1e-9);
        }
    }
}
