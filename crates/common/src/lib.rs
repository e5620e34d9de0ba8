//! Shared foundations for the `dwqa` workspace.
//!
//! The reproduction of Ferrández & Peral (EDBT 2010) spans several
//! subsystems (warehouse, ontology, NLP, IR, QA). This crate holds the small
//! set of primitives they all need so the dependency graph stays acyclic:
//!
//! * [`date`] — a proleptic-Gregorian calendar date with weekday/month
//!   arithmetic. The paper's pipeline is saturated with dates ("Monday,
//!   January 31, 2004"), and pulling in `chrono` is unnecessary for the
//!   civil-calendar subset we need.
//! * [`interner`] — a string interner used by the NLP lexicon, the IR
//!   vocabulary and the ontology lexicon, where the same lemma is stored
//!   millions of times.
//! * [`text`] — ASCII-oriented normalisation and similarity helpers used by
//!   tokenisation and by the PROMPT-style ontology merge.
//! * [`mix64`] — the one seeded bit mixer behind every deterministic
//!   fault, jitter and chaos decision in the workspace.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod date;
pub mod interner;
pub mod text;

pub use config::ConfigError;
pub use date::{Date, Month, Weekday};
pub use interner::{Interner, Symbol};

/// SplitMix64 — the workspace's deterministic hash/stream mixer (also
/// what the vendored `rand` seeds from). Every injected feed fault,
/// source fault, link fault, torn write and retry jitter derives from
/// it, so a run replays from its seed alone; changing one bit of the
/// output changes what every pinned CI seed exercises.
pub fn mix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix64;

    /// Outputs of the four private copies this function replaced, on
    /// the edge inputs and the seeds CI pins (chaos, crash, failover).
    #[test]
    fn mix64_is_bit_identical_to_the_copies_it_replaced() {
        for (input, output) in [
            (0, 0xE220_A839_7B1D_CDAF),
            (1, 0x910A_2DEC_8902_5CC1),
            (42, 0xBDD7_3226_2FEB_6E95),
            (805_381, 0x26B3_AF3A_8C70_D1E3),
            (805_463, 0x97C3_8B39_F59F_9F2F),
            (314_159, 0x9663_0E6F_AE66_0D48),
            (271_828, 0x1FA7_0391_DFF0_6BA4),
            (u64::MAX, 0xE4D9_7177_1B65_2C20),
        ] {
            assert_eq!(mix64(input), output, "mix64({input})");
        }
    }
}
