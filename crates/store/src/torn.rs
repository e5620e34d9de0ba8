//! Seeded torn-write fault injection for the WAL: deterministic
//! per-sequence rolls from a SplitMix64 hash, so a given `(seed, seq)`
//! always injects the same fault — tests and `exp_crash` can replay a
//! failure exactly.
//!
//! Faults model a process (or disk) dying mid-append:
//!
//! * **short write** — only a prefix of the record reaches the file;
//! * **bit flip** — the record lands whole but one bit is wrong;
//! * **failed fsync** — the write is undone (never reached the platter)
//!   and the store wedges;
//! * **duplicated record** — the frame is written twice (a retried
//!   write that actually landed both times); this one is *benign*:
//!   the append succeeds and recovery deduplicates by sequence number.
//!
//! Any non-benign fault leaves the file torn exactly as a crash would
//! and *wedges* the store: further appends are refused until the store
//! is reopened (recovered), mirroring how a real process would have to
//! restart.

use dwqa_common::mix64;

/// Rates for each torn-write fault, rolled independently per append.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TornPlan {
    /// Seed for the deterministic per-sequence rolls.
    pub seed: u64,
    /// Probability a record is cut short mid-write (wedges).
    pub short_write: f64,
    /// Probability one bit of the written record is flipped (wedges).
    pub bit_flip: f64,
    /// Probability the post-write fsync "fails": the append is undone
    /// and the store wedges.
    pub fsync_fail: f64,
    /// Probability the record is written twice (benign; recovery
    /// deduplicates).
    pub duplicate: f64,
}

impl TornPlan {
    /// A fault-free plan under `seed` (rates all zero).
    pub fn new(seed: u64) -> TornPlan {
        TornPlan {
            seed,
            short_write: 0.0,
            bit_flip: 0.0,
            fsync_fail: 0.0,
            duplicate: 0.0,
        }
    }

    /// The standard chaos mix: `rate` (clamped to `[0, 1]`) spread over
    /// the four faults — 30% short writes, 20% bit flips, 20% failed
    /// fsyncs, 30% duplicated records.
    pub fn chaos(seed: u64, rate: f64) -> TornPlan {
        let rate = rate.clamp(0.0, 1.0);
        TornPlan {
            seed,
            short_write: 0.3 * rate,
            bit_flip: 0.2 * rate,
            fsync_fail: 0.2 * rate,
            duplicate: 0.3 * rate,
        }
    }

    /// Sets the short-write rate (clamped to `[0, 1]`).
    pub fn with_short_write(mut self, rate: f64) -> TornPlan {
        self.short_write = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the bit-flip rate (clamped to `[0, 1]`).
    pub fn with_bit_flip(mut self, rate: f64) -> TornPlan {
        self.bit_flip = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the failed-fsync rate (clamped to `[0, 1]`).
    pub fn with_fsync_fail(mut self, rate: f64) -> TornPlan {
        self.fsync_fail = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the duplicated-record rate (clamped to `[0, 1]`).
    pub fn with_duplicate(mut self, rate: f64) -> TornPlan {
        self.duplicate = rate.clamp(0.0, 1.0);
        self
    }
}

/// What happens to one record frame: a process-killing fault, a benign
/// duplicated write, or nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornFault {
    /// Write only this many bytes of the frame, then die.
    ShortWrite(usize),
    /// Write the whole frame with this bit (index into the frame's
    /// bits) inverted, then die.
    BitFlip(usize),
    /// Write the whole frame, fail the fsync: undo the append and die.
    FsyncFail,
}

/// Per-append decision from [`TornWriter::decide`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TornDecision {
    /// Write the frame twice (benign; deduplicated on recovery).
    pub duplicate: bool,
    /// The process-killing fault to inject, if any.
    pub fault: Option<TornFault>,
}

/// The fault layer itself: owns a [`TornPlan`] and turns `(seq, frame
/// length)` into a deterministic [`TornDecision`].
#[derive(Debug, Clone)]
pub struct TornWriter {
    plan: TornPlan,
}

const SALT_SHORT: u64 = 0x5348;
const SALT_FLIP: u64 = 0x464C;
const SALT_FSYNC: u64 = 0x4653;
const SALT_DUP: u64 = 0x4455;
const SALT_POINT: u64 = 0x5054;

impl TornWriter {
    /// Wraps a plan.
    pub fn new(plan: TornPlan) -> TornWriter {
        TornWriter { plan }
    }

    /// The plan in force.
    pub fn plan(&self) -> &TornPlan {
        &self.plan
    }

    fn unit(&self, seq: u64, salt: u64) -> f64 {
        let h = mix64(self.plan.seed ^ mix64(seq.wrapping_mul(0x9E37).wrapping_add(salt)));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn point(&self, seq: u64, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            mix64(self.plan.seed ^ mix64(seq.wrapping_add(SALT_POINT))) % bound
        }
    }

    /// Decides the fate of the frame about to be appended as `seq`,
    /// `frame_len` bytes long. Deterministic in `(seed, seq)`.
    pub fn decide(&self, seq: u64, frame_len: usize) -> TornDecision {
        let fault = if self.unit(seq, SALT_SHORT) < self.plan.short_write {
            // Cut somewhere strictly inside the frame: at least one
            // byte written, at least one byte missing.
            let cut = 1 + self.point(seq, frame_len.saturating_sub(1).max(1) as u64) as usize;
            Some(TornFault::ShortWrite(
                cut.min(frame_len.saturating_sub(1)).max(1),
            ))
        } else if self.unit(seq, SALT_FLIP) < self.plan.bit_flip {
            Some(TornFault::BitFlip(
                self.point(seq, (frame_len as u64) * 8) as usize
            ))
        } else if self.unit(seq, SALT_FSYNC) < self.plan.fsync_fail {
            Some(TornFault::FsyncFail)
        } else {
            None
        };
        let duplicate = fault.is_none() && self.unit(seq, SALT_DUP) < self.plan.duplicate;
        TornDecision { duplicate, fault }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_per_seed_and_seq() {
        let writer = TornWriter::new(TornPlan::chaos(42, 0.5));
        for seq in 0..64 {
            assert_eq!(writer.decide(seq, 100), writer.decide(seq, 100));
        }
        let other = TornWriter::new(TornPlan::chaos(43, 0.5));
        assert!(
            (0..64).any(|seq| writer.decide(seq, 100) != other.decide(seq, 100)),
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn zero_rates_never_fault_and_certain_rates_always_do() {
        let quiet = TornWriter::new(TornPlan::new(7));
        assert!((0..256).all(|seq| quiet.decide(seq, 64) == TornDecision::default()));

        let shorts = TornWriter::new(TornPlan::new(7).with_short_write(1.0));
        for seq in 0..256 {
            match shorts.decide(seq, 64).fault {
                Some(TornFault::ShortWrite(cut)) => {
                    assert!((1..64).contains(&cut), "cut {cut} outside the frame");
                }
                other => panic!("expected a short write, got {other:?}"),
            }
        }

        let dups = TornWriter::new(TornPlan::new(7).with_duplicate(1.0));
        assert!((0..256).all(|seq| dups.decide(seq, 64).duplicate));
    }

    #[test]
    fn rates_are_clamped() {
        let plan = TornPlan::new(1).with_short_write(7.0).with_bit_flip(-3.0);
        assert_eq!(plan.short_write, 1.0);
        assert_eq!(plan.bit_flip, 0.0);
    }
}
