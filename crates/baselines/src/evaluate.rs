//! Scoring extracted answers against a ground truth.
//!
//! The paper reports its results narratively ("the best precision … is
//! obtained for the URL …"; "lower precision is obtained from web pages
//! that contain tables"). With the generated corpus we can quantify:
//! every extracted `(temperature, date, city)` tuple is checked against
//! the generator's ground truth.

use dwqa_common::Date;
use dwqa_qa::{Answer, AnswerValue};
use serde::{Deserialize, Serialize};

/// Precision/recall bookkeeping for one evaluation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExtractionEval {
    /// Correct tuples (value matches the truth for its city/date).
    pub true_positives: usize,
    /// Extracted tuples that are wrong or unverifiable.
    pub false_positives: usize,
    /// Truth points that should have been extracted but were not.
    pub false_negatives: usize,
}

impl ExtractionEval {
    /// Precision: TP / (TP + FP); 0 when nothing was extracted.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Recall: TP / (TP + FN); 0 when there was nothing to find.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merges another evaluation into this one.
    pub fn merge(&mut self, other: &ExtractionEval) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
    }
}

/// Evaluates temperature answers against a truth oracle.
///
/// * `answers` — the extracted tuples;
/// * `truth` — `(city, date) → Celsius` oracle (`None` = no truth point);
/// * `expected` — the `(city, date)` points a perfect system would have
///   extracted (drives recall);
/// * `tolerance` — allowed absolute Celsius deviation.
pub fn evaluate_temperatures<F>(
    answers: &[Answer],
    truth: F,
    expected: &[(String, Date)],
    tolerance: f64,
) -> ExtractionEval
where
    F: Fn(&str, Date) -> Option<f64>,
{
    let mut eval = ExtractionEval::default();
    let mut found: Vec<(String, Date)> = Vec::new();
    for a in answers {
        let AnswerValue::Temperature { celsius, .. } = a.value else {
            eval.false_positives += 1;
            continue;
        };
        let (Some(city), Some(date)) = (a.context_location.as_deref(), a.context_date) else {
            eval.false_positives += 1;
            continue;
        };
        match truth(city, date) {
            Some(t) if (t - celsius).abs() <= tolerance => {
                let key = (dwqa_common::text::fold(city), date);
                if !found.contains(&key) {
                    found.push(key);
                    eval.true_positives += 1;
                }
                // A duplicate correct tuple is neither progress nor error.
            }
            _ => eval.false_positives += 1,
        }
    }
    for (city, date) in expected {
        let key = (dwqa_common::text::fold(city), *date);
        if !found.contains(&key) {
            eval.false_negatives += 1;
        }
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwqa_nlp::TempUnit;

    fn temp(city: &str, day: u32, celsius: f64) -> Answer {
        Answer {
            value: AnswerValue::Temperature {
                celsius,
                raw: celsius,
                unit: TempUnit::Celsius,
            },
            score: 1.0,
            url: "u".into(),
            sentence: String::new(),
            context_date: Date::from_ymd(2004, 1, day),
            context_location: Some(city.to_owned()),
        }
    }

    fn oracle(city: &str, date: Date) -> Option<f64> {
        if dwqa_common::text::fold(city) == "barcelona" && date.month().number() == 1 {
            Some(8.0)
        } else {
            None
        }
    }

    #[test]
    fn perfect_extraction_scores_one() {
        let expected = vec![("Barcelona".to_owned(), Date::from_ymd(2004, 1, 31).unwrap())];
        let eval = evaluate_temperatures(&[temp("Barcelona", 31, 8.0)], oracle, &expected, 0.5);
        assert_eq!(eval.true_positives, 1);
        assert_eq!(eval.precision(), 1.0);
        assert_eq!(eval.recall(), 1.0);
        assert_eq!(eval.f1(), 1.0);
    }

    #[test]
    fn wrong_value_is_a_false_positive() {
        let expected = vec![("Barcelona".to_owned(), Date::from_ymd(2004, 1, 31).unwrap())];
        let eval = evaluate_temperatures(&[temp("Barcelona", 31, 20.0)], oracle, &expected, 0.5);
        assert_eq!(eval.true_positives, 0);
        assert_eq!(eval.false_positives, 1);
        assert_eq!(eval.false_negatives, 1);
        assert_eq!(eval.precision(), 0.0);
    }

    #[test]
    fn missing_context_is_a_false_positive() {
        let mut a = temp("Barcelona", 31, 8.0);
        a.context_location = None;
        let eval = evaluate_temperatures(&[a], oracle, &[], 0.5);
        assert_eq!(eval.false_positives, 1);
    }

    #[test]
    fn duplicates_do_not_inflate_precision_counts() {
        let expected = vec![("Barcelona".to_owned(), Date::from_ymd(2004, 1, 31).unwrap())];
        let answers = vec![temp("Barcelona", 31, 8.0), temp("Barcelona", 31, 8.0)];
        let eval = evaluate_temperatures(&answers, oracle, &expected, 0.5);
        assert_eq!(eval.true_positives, 1);
        assert_eq!(eval.false_positives, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = ExtractionEval {
            true_positives: 1,
            false_positives: 2,
            false_negatives: 3,
        };
        a.merge(&ExtractionEval {
            true_positives: 4,
            false_positives: 5,
            false_negatives: 6,
        });
        assert_eq!(a.true_positives, 5);
        assert_eq!(a.false_positives, 7);
        assert_eq!(a.false_negatives, 9);
    }

    #[test]
    fn empty_runs_score_zero_without_dividing_by_zero() {
        let eval = ExtractionEval::default();
        assert_eq!(eval.precision(), 0.0);
        assert_eq!(eval.recall(), 0.0);
        assert_eq!(eval.f1(), 0.0);
    }
}
