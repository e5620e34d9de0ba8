//! The host-speed probe every end-to-end timing is normalised by.
//!
//! The benchmark runs on a few cores of a shared machine. Its speed is
//! not constant: for spells of seconds to minutes everything CPU-bound on
//! a core runs up to half slower (a neighbour on the sibling
//! hyperthread), and whole runs fall into such spells, so no statistic
//! taken inside a run can repeat between runs — measured on the authoring
//! host, the median of a single-threaded in-process commit moved by 40 %
//! between runs of the same binary on the same seed.
//!
//! The benchmark therefore times a fixed kernel — sort, format, hash and
//! allocate, the product's own mix — next to the work it measures, and
//! every timing of the untraced run is multiplied by
//! `REFERENCE_NS / (mean of the last TRAILING kernel times)` at the
//! moment it is taken. What the run reports is the time the operation
//! would have taken on the reference host at its undisturbed speed. Both
//! sides of a comparison are scaled by the same rule, so the constant
//! cancels; the kernel's own distribution is printed with every run so
//! the raw times can be had back. The traced run takes the same samples
//! but only observes them (`host.probe_us`) and reports raw times.
//!
//! The slowdown is per core and comes and goes within a second — the
//! kernel's times fall into two groups, about 140 and about 225 µs — so
//! the factor is a mean, which moves smoothly with the share of slow
//! samples where a median jumps from one group to the other; and the
//! samples are taken where the work runs: work on one thread (set-up, recovery, the `rollup_mix` cycles)
//! samples on that thread between operations; work that hops between the
//! server's threads on both cores is accompanied by a [`Background`]
//! thread that samples twenty times a second wherever the scheduler puts
//! it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The kernel's time on the authoring host (2 vCPUs of a Firecracker
/// guest) when nothing contends with it.
pub const REFERENCE_NS: f64 = 140_000.0;
/// Pause between samples of a [`Background`] thread.
const PERIOD: Duration = Duration::from_millis(50);
/// Samples the current factor is the mean of: the last second of a
/// background thread, the last half second of `rollup_mix` cycles.
const TRAILING: usize = 20;

/// `f64` bits of the factor timings are multiplied by; 0 reads as 1.
static FACTOR_BITS: AtomicU64 = AtomicU64::new(0);
static NORMALISE: AtomicBool = AtomicBool::new(false);

#[derive(Default)]
struct Samples {
    recent: VecDeque<u64>,
    all: Vec<u64>,
}

static SAMPLES: Mutex<Option<Samples>> = Mutex::new(None);

/// Turns normalising on: from here on [`scale`] follows the samples.
pub fn normalise() {
    NORMALISE.store(true, Ordering::Relaxed);
}

fn factor() -> f64 {
    match FACTOR_BITS.load(Ordering::Relaxed) {
        0 => 1.0,
        bits => f64::from_bits(bits),
    }
}

/// A duration just measured, in nanoseconds, at the reference host's
/// speed. The identity unless [`normalise`] was called.
pub fn scale(ns: u64) -> u64 {
    (ns as f64 * factor()).round() as u64
}

/// The same for seconds or milliseconds held as a float.
pub fn scale_f(t: f64) -> f64 {
    t * factor()
}

/// One run of the kernel, in nanoseconds.
fn kernel(salt: u64) -> u64 {
    let t = Instant::now();
    let mut keys: Vec<u64> = (0..8192u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
        .collect();
    keys.sort_unstable();
    let texts: Vec<String> = keys.iter().step_by(16).map(u64::to_string).collect();
    let mut index = std::collections::HashMap::new();
    for (i, text) in texts.iter().enumerate() {
        index.insert(text.as_str(), i);
    }
    std::hint::black_box((&keys, &index));
    t.elapsed().as_nanos() as u64
}

/// Takes one sample on the calling thread — the fastest of three kernel
/// runs, because one that was preempted says nothing about the host's
/// speed — and brings the factor up to date.
pub fn sample() {
    let ns = (0..3u64).map(kernel).min().unwrap_or(0);
    let mut guard = SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
    let samples = guard.get_or_insert_with(Samples::default);
    samples.all.push(ns);
    samples.recent.push_back(ns);
    if samples.recent.len() > TRAILING {
        samples.recent.pop_front();
    }
    if NORMALISE.load(Ordering::Relaxed) {
        let factor = REFERENCE_NS / mean(samples.recent.iter()).max(1.0);
        FACTOR_BITS.store(factor.to_bits(), Ordering::Relaxed);
    }
}

fn mean<'a>(ns: impl ExactSizeIterator<Item = &'a u64>) -> f64 {
    let n = ns.len().max(1) as f64;
    ns.map(|&ns| ns as f64).sum::<f64>() / n
}

/// Half a trailing window of samples on the calling thread, for work that
/// starts on a thread the recent samples were not taken on.
pub fn burst() {
    (0..TRAILING / 2).for_each(|_| sample());
}

/// Times `work` on the calling thread between two bursts of samples
/// taken on it; returns its result and its seconds at the reference
/// host's speed: scaled by the mean of those bursts and of every sample
/// `work` itself took in between. For work long enough to leave the
/// trailing window behind: set-up and recovery.
pub fn timed_s<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let taken = || {
        let guard = SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
        guard.as_ref().map_or(0, |s| s.all.len())
    };
    let from = taken();
    burst();
    let t = Instant::now();
    let out = work();
    let raw_s = t.elapsed().as_secs_f64();
    burst();
    if !NORMALISE.load(Ordering::Relaxed) {
        return (out, raw_s);
    }
    let guard = SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
    let around = guard.as_ref().map_or(&[][..], |s| &s.all[from..]);
    (out, raw_s * REFERENCE_NS / mean(around.iter()).max(1.0))
}

/// A thread that samples every [`PERIOD`] until dropped.
pub struct Background {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

pub fn background() -> Background {
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let thread = std::thread::spawn(move || {
        while !stopped.load(Ordering::Relaxed) {
            sample();
            std::thread::sleep(PERIOD);
        }
    });
    Background {
        stop,
        thread: Some(thread),
    }
}

impl Drop for Background {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Prints what the samples of this run saw and returns the median kernel
/// time in microseconds.
pub fn report() -> f64 {
    let guard = SAMPLES.lock().unwrap_or_else(|e| e.into_inner());
    let mut sorted = guard.as_ref().map_or(Vec::new(), |s| s.all.clone());
    sorted.sort_unstable();
    let at = |p: f64| crate::stats::percentile(&sorted, p) as f64 / 1e3;
    println!(
        "host speed: probe kernel p5 {:.1} us  p50 {:.1} us  p95 {:.1} us over {} samples; \
         reference {:.1} us; timings {}",
        at(0.05),
        at(0.50),
        at(0.95),
        sorted.len(),
        REFERENCE_NS / 1e3,
        if NORMALISE.load(Ordering::Relaxed) {
            format!(
                "are at the reference speed (on average a raw time is the reported x {:.3})",
                mean(sorted.iter()) / REFERENCE_NS
            )
        } else {
            "are raw".to_owned()
        }
    );
    at(0.50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_the_identity_until_normalising_and_then_follows_the_samples() {
        // One test, because the factor is process-wide.
        sample();
        assert_eq!(scale(12_345), 12_345);
        assert_eq!(scale_f(1.5), 1.5);
        normalise();
        let ((), scaled_s) = timed_s(|| std::thread::sleep(Duration::from_millis(20)));
        let f = factor();
        assert!(f > 0.05 && f < 20.0, "factor {f}");
        assert!(scaled_s >= 0.020 * f * 0.99, "{scaled_s} s at factor {f}");
        assert_eq!(scale(1_000_000), (1e6 * f).round() as u64);
        {
            let _sampling = background();
            std::thread::sleep(Duration::from_millis(120));
        }
        let taken = SAMPLES.lock().unwrap().as_ref().map_or(0, |s| s.all.len());
        assert!(taken > TRAILING, "{taken} samples");
        assert!(report() > 0.0);
    }
}
