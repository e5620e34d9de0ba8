//! Word-sense disambiguation (simplified Lesk).
//!
//! The paper applies a WSD algorithm over WordNet/EuroWordNet during
//! indexation (\[4\] in its references). We implement the classic
//! gloss-overlap (Lesk) approach, *generic over the sense inventory*: the
//! ontology crate implements [`SenseInventory`] for its merged ontology, so
//! this module stays independent of it — and so the Step-2 enrichment
//! measurably changes WSD outcomes (the "JFK is an airport, not a person"
//! effect of the paper's Section 3).

use std::collections::HashSet;

/// An abstract sense inventory (implemented by the ontology).
pub trait SenseInventory {
    /// Opaque sense identifier.
    type Sense: Copy;

    /// All candidate senses of a lemma.
    fn senses(&self, lemma: &str) -> Vec<Self::Sense>;

    /// The gloss + related-term bag of words of a sense, case-folded.
    fn signature(&self, sense: Self::Sense) -> Vec<String>;

    /// Extra weight for a sense (e.g. domain instances fed from the DW get
    /// a boost). Defaults to zero.
    fn prior(&self, _sense: Self::Sense) -> f64 {
        0.0
    }
}

/// Disambiguates `lemma` in the given context (bag of case-folded lemmas).
///
/// Returns the sense whose signature overlaps the context most, with the
/// inventory's prior as tie-breaker and baseline; `None` when the lemma has
/// no senses. With an empty context the prior alone decides (first sense
/// wins ties, i.e. the most-frequent-sense baseline).
pub fn disambiguate<I: SenseInventory>(
    inventory: &I,
    lemma: &str,
    context: &[String],
) -> Option<I::Sense> {
    let senses = inventory.senses(lemma);
    if senses.is_empty() {
        return None;
    }
    let context: HashSet<&str> = context.iter().map(String::as_str).collect();
    let mut best: Option<(f64, usize)> = None;
    for (idx, &sense) in senses.iter().enumerate() {
        let signature = inventory.signature(sense);
        let overlap = signature
            .iter()
            .filter(|w| context.contains(w.as_str()))
            .count() as f64;
        let score = overlap + inventory.prior(sense);
        let better = match best {
            None => true,
            Some((b, _)) => score > b,
        };
        if better {
            best = Some((score, idx));
        }
    }
    best.map(|(_, idx)| senses[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy inventory: "jfk" is a person (sense 0) or an airport (sense 1).
    struct Toy {
        boost_airport: f64,
    }

    impl SenseInventory for Toy {
        type Sense = usize;

        fn senses(&self, lemma: &str) -> Vec<usize> {
            match lemma {
                "jfk" => vec![0, 1],
                "bank" => vec![2, 3],
                _ => vec![],
            }
        }

        fn signature(&self, sense: usize) -> Vec<String> {
            let words: &[&str] = match sense {
                0 => &["president", "person", "kennedy", "politician"],
                1 => &["airport", "terminal", "flight", "new", "york"],
                2 => &["money", "account", "loan"],
                3 => &["river", "water", "shore"],
                _ => &[],
            };
            words.iter().map(|w| (*w).to_owned()).collect()
        }

        fn prior(&self, sense: usize) -> f64 {
            if sense == 1 {
                self.boost_airport
            } else {
                0.0
            }
        }
    }

    fn ctx(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn context_overlap_selects_sense() {
        let inv = Toy { boost_airport: 0.0 };
        assert_eq!(
            disambiguate(&inv, "jfk", &ctx(&["flight", "terminal"])),
            Some(1)
        );
        assert_eq!(
            disambiguate(&inv, "jfk", &ctx(&["president", "politician"])),
            Some(0)
        );
    }

    #[test]
    fn first_sense_baseline_without_context() {
        let inv = Toy { boost_airport: 0.0 };
        assert_eq!(disambiguate(&inv, "jfk", &[]), Some(0));
    }

    #[test]
    fn prior_breaks_ties_the_enrichment_effect() {
        // With the DW-fed boost, the airport sense wins even with no
        // context — the paper's Step-2 improvement in miniature.
        let inv = Toy { boost_airport: 0.5 };
        assert_eq!(disambiguate(&inv, "jfk", &[]), Some(1));
        // A strongly person-flavoured context still overrides the prior.
        assert_eq!(
            disambiguate(&inv, "jfk", &ctx(&["president", "person", "politician"])),
            Some(0)
        );
    }

    #[test]
    fn unknown_lemma_has_no_sense() {
        let inv = Toy { boost_airport: 0.0 };
        assert_eq!(disambiguate(&inv, "zzz", &ctx(&["x"])), None);
    }

    #[test]
    fn independent_lemmas_do_not_interfere() {
        let inv = Toy { boost_airport: 9.0 };
        assert_eq!(disambiguate(&inv, "bank", &ctx(&["river"])), Some(3));
    }
}
