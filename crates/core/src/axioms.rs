//! Step 4's domain axioms.
//!
//! "The 'temperature' concept in the ontology is updated with the
//! axiomatic information that is required in a 'temperature' answer: that
//! a temperature is composed by a number followed by the scale (Celsius
//! or Fahrenheit), the right temperature intervals, the conversion
//! formulae between Celsius and Fahrenheit scales, etc."

use dwqa_nlp::TempUnit;
use dwqa_ontology::Ontology;

/// The axioms attached to the `temperature` concept.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureAxioms {
    /// Plausible interval in Celsius (weather readings).
    pub range_c: (f64, f64),
}

impl Default for TemperatureAxioms {
    fn default() -> TemperatureAxioms {
        TemperatureAxioms {
            // Module 3's own axiom, so extraction and feed agree on which
            // readings exist: Earth surface extremes with margin.
            range_c: dwqa_qa::extraction::TEMP_RANGE_C,
        }
    }
}

impl TemperatureAxioms {
    /// Normalises a reading to Celsius (the conversion axiom).
    pub fn to_celsius(&self, value: f64, unit: TempUnit) -> f64 {
        unit.to_celsius(value)
    }

    /// Validates a reading; returns the Celsius value or why it is
    /// implausible.
    pub fn validate(&self, value: f64, unit: TempUnit) -> Result<f64, String> {
        let c = self.to_celsius(value, unit);
        if !c.is_finite() {
            return Err("non-finite temperature".to_owned());
        }
        if c < self.range_c.0 || c > self.range_c.1 {
            return Err(format!(
                "temperature {c:.1}ºC outside the plausible interval [{}, {}]",
                self.range_c.0, self.range_c.1
            ));
        }
        Ok(c)
    }

    /// Writes the axioms onto the ontology's `temperature` concept as
    /// annotations (the paper's "the 'temperature' concept in the
    /// ontology is updated").
    pub fn annotate(&self, ontology: &mut Ontology) -> bool {
        let Some(temp) = ontology.class_for("temperature") else {
            return false;
        };
        ontology.annotate(temp, "axiom.shape", "number followed by ºC or F");
        ontology.annotate(
            temp,
            "axiom.range_c",
            &format!("[{}, {}]", self.range_c.0, self.range_c.1),
        );
        ontology.annotate(temp, "axiom.convert", "C = (F - 32) * 5/9");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwqa_ontology::upper_ontology;

    #[test]
    fn validation_accepts_plausible_and_rejects_implausible() {
        let ax = TemperatureAxioms::default();
        assert_eq!(ax.validate(8.0, TempUnit::Celsius), Ok(8.0));
        let f = ax.validate(46.4, TempUnit::Fahrenheit).unwrap();
        assert!((f - 8.0).abs() < 1e-9);
        assert!(ax.validate(900.0, TempUnit::Celsius).is_err());
        assert!(ax.validate(-200.0, TempUnit::Fahrenheit).is_err());
        assert!(ax.validate(f64::NAN, TempUnit::Celsius).is_err());
    }

    #[test]
    fn boundaries_are_inclusive() {
        let ax = TemperatureAxioms::default();
        assert!(ax.validate(-90.0, TempUnit::Celsius).is_ok());
        assert!(ax.validate(60.0, TempUnit::Celsius).is_ok());
        assert!(ax.validate(60.1, TempUnit::Celsius).is_err());
    }

    /// Step 4 has one plausible range: a reading Module 3 extracts is a
    /// reading Step 5 loads, at both bounds and just outside them.
    #[test]
    fn extraction_and_feed_give_the_same_verdict_at_the_bounds() {
        use dwqa_ir::{DocFormat, Document, DocumentStore};
        use dwqa_qa::{temperature_pattern, AliQAn, AliQAnConfig, AnswerValue};
        use TempUnit::{Celsius, Fahrenheit};
        let axioms = TemperatureAxioms::default();
        let mut qa = AliQAn::new(upper_ontology(), AliQAnConfig::default());
        qa.tune(temperature_pattern());
        for (written, value, unit, plausible) in [
            ("-90º C", -90.0, Celsius, true),
            ("60º C", 60.0, Celsius, true),
            ("-90.1º C", -90.1, Celsius, false),
            ("60.1º C", 60.1, Celsius, false),
            ("-130 F", -130.0, Fahrenheit, true),
            ("140 F", 140.0, Fahrenheit, true),
            ("-130.2 F", -130.2, Fahrenheit, false),
            ("140.2 F", 140.2, Fahrenheit, false),
        ] {
            let mut store = DocumentStore::new();
            let page = format!(
                "Saturday, January 31, 2004\nBarcelona Weather: Temperature {written} today"
            );
            store.add(Document::new("u", DocFormat::Plain, "", &page));
            qa.index_corpus(store);
            let extracted: Vec<f64> = qa
                .answer("What is the temperature in January of 2004 in Barcelona?")
                .iter()
                .filter_map(|a| match a.value {
                    AnswerValue::Temperature { raw, .. } => Some(raw),
                    _ => None,
                })
                .collect();
            let expected = if plausible { vec![value] } else { vec![] };
            assert_eq!(extracted, expected, "extraction of {written}");
            assert_eq!(axioms.validate(value, unit).is_ok(), plausible, "{written}");
        }
    }

    #[test]
    fn annotate_updates_the_temperature_concept() {
        let mut onto = upper_ontology();
        assert!(TemperatureAxioms::default().annotate(&mut onto));
        let temp = onto.class_for("temperature").unwrap();
        assert_eq!(
            onto.annotation(temp, "axiom.shape"),
            vec!["number followed by ºC or F"]
        );
        assert_eq!(
            onto.annotation(temp, "axiom.convert"),
            vec!["C = (F - 32) * 5/9"]
        );
    }

    #[test]
    fn annotate_fails_gracefully_without_the_concept() {
        let mut onto = Ontology::new("empty");
        assert!(!TemperatureAxioms::default().annotate(&mut onto));
    }
}
