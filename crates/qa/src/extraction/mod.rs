//! Module 3: extraction of the answer.
//!
//! Applies syntactic-semantic answer patterns to the passages Module 2
//! selected, producing *typed* candidates with provenance — the paper's
//! essential difference from IR: "QA returns a precise answer" that "can
//! be structured in a database (e.g. temperature – city – date)".
//!
//! Candidates are scored by (a) satisfying the expected answer type's
//! lexical shape, (b) overlap with the question's main SBs in the same
//! sentence/passage, (c) satisfying the question's temporal and location
//! constraints, and (d) semantic verification against the ontology (the
//! "semantic preference to the hyponyms of 'country'" of the paper's CLEF
//! example). (a) and (d) are the candidate's own — its *type score*, in
//! `typed` — while (b) and (c) are facts of the sentence it stands in,
//! computed once per sentence in `scope`; `ontology` answers what the
//! merged ontology knows without a passage. This file holds the answer
//! types, the walk over the passages, and ranking with de-duplication.

mod ontology;
mod scope;
mod typed;

use crate::analysis::QuestionAnalysis;
use crate::index::QaIndex;
use dwqa_common::{Date, Month};
use dwqa_ir::{DocumentStore, Passage};
use dwqa_nlp::TempUnit;
use dwqa_ontology::Ontology;
use ontology::ontology_answers;
use scope::{PassageScope, QuestionScope, SentenceScope};
use std::fmt;

/// Step-4 axiom: plausible Celsius range for a weather temperature.
pub const TEMP_RANGE_C: (f64, f64) = (-90.0, 60.0);

/// A typed answer value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum AnswerValue {
    /// A temperature (normalised to Celsius, original reading kept).
    Temperature {
        /// Value converted to Celsius (Step 4's conversion axiom).
        celsius: f64,
        /// The value as written.
        raw: f64,
        /// The unit as written.
        unit: TempUnit,
    },
    /// A full calendar date.
    Date(Date),
    /// A month + year.
    MonthYear(Month, i32),
    /// A year.
    Year(i32),
    /// A bare number.
    Number(f64),
    /// A percentage.
    Percentage(f64),
    /// A money amount.
    Money {
        /// Amount.
        amount: f64,
        /// Currency word or symbol.
        currency: String,
    },
    /// A proper name (person, place, group, …).
    Name(String),
    /// A defining phrase.
    Phrase(String),
}

impl fmt::Display for AnswerValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnswerValue::Temperature { raw, unit, .. } => write!(f, "{raw}{}", unit.symbol()),
            AnswerValue::Date(d) => write!(f, "{}", d.long_format()),
            AnswerValue::MonthYear(m, y) => write!(f, "{m} {y}"),
            AnswerValue::Year(y) => write!(f, "{y}"),
            AnswerValue::Number(n) => write!(f, "{n}"),
            AnswerValue::Percentage(p) => write!(f, "{p}%"),
            AnswerValue::Money { amount, currency } => write!(f, "{amount} {currency}"),
            AnswerValue::Name(s) | AnswerValue::Phrase(s) => f.write_str(s),
        }
    }
}

/// An extracted answer with provenance.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Answer {
    /// The typed value.
    pub value: AnswerValue,
    /// Extraction confidence (higher is better).
    pub score: f64,
    /// Source URL (recorded into the DW by Step 5).
    pub url: String,
    /// The supporting sentence.
    pub sentence: String,
    /// The date the answer refers to, when one could be associated.
    pub context_date: Option<Date>,
    /// The location the answer refers to, when one could be associated.
    pub context_location: Option<String>,
}

impl Answer {
    /// The paper's Table 1 rendering: `(8ºC – Monday, January 31, 2004 –
    /// Barcelona)`.
    pub fn tuple_format(&self) -> String {
        let mut parts = vec![self.value.to_string()];
        if let Some(d) = self.context_date {
            parts.push(d.long_format());
        }
        if let Some(l) = &self.context_location {
            parts.push(l.clone());
        }
        format!("({})", parts.join(" – "))
    }
}

/// Runs Module 3 over the selected passages, returning ranked answers:
/// the ontology's own, then what each sentence of each passage offers for
/// the expected answer type.
pub fn extract_answers(
    analysis: &QuestionAnalysis,
    index: &QaIndex,
    store: &DocumentStore,
    ontology: &Ontology,
    passages: &[Passage],
    k: usize,
) -> Vec<Answer> {
    let mut out = ontology_answers(analysis, ontology);
    let question = QuestionScope::new(analysis, ontology);
    for passage in passages {
        let sentences = index.doc_sentences(passage.doc);
        let url = &store.get(passage.doc).url;
        let scope = PassageScope::new(&question, passage, url, sentences);
        let end = (passage.first_sentence + passage.sentences.len()).min(sentences.len());
        for idx in passage.first_sentence..end {
            typed::candidates(&mut SentenceScope::new(&scope, idx, &mut out));
        }
    }
    rank(out, k)
}

/// Best first, keeping the best-scored instance of each distinct value
/// (+ context date for temperatures: the same reading on two days is two
/// answers, 8º C and 46.4 F on one day are one), `k` at most.
fn rank(mut candidates: Vec<Answer>, k: usize) -> Vec<Answer> {
    candidates.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.url.cmp(&b.url))
            .then_with(|| a.sentence.cmp(&b.sentence))
    });
    let mut seen: Vec<(String, Option<Date>)> = Vec::new();
    let mut ranked: Vec<Answer> = Vec::new();
    for a in candidates {
        let value = match &a.value {
            AnswerValue::Temperature { celsius, .. } => format!("{celsius:.1}C"),
            other => other.to_string(),
        };
        let key = (value, a.context_date);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        ranked.push(a);
        if ranked.len() == k {
            break;
        }
    }
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_question;
    use crate::patterns::{default_patterns, temperature_pattern};
    use dwqa_ir::{DocFormat, Document, DocumentStore};
    use dwqa_nlp::Lexicon;
    use dwqa_ontology::upper_ontology;

    fn fig4_store() -> DocumentStore {
        let mut s = DocumentStore::new();
        s.add(Document::new(
            "http://www.barcelona-tourist-guide.com/en/weather/weather-january.html",
            DocFormat::Plain,
            "Barcelona weather",
            "Saturday, January 31, 2004\n\
             Barcelona Weather: Temperature 8º C around 46.4 F Clear skies today\n\
             Friday, January 30, 2004\n\
             Barcelona Weather: Temperature 7º C around 44.6 F Light rain today",
        ));
        s.add(Document::new(
            "http://news.example.org/history/jfk",
            DocFormat::Plain,
            "JFK",
            "President John F. Kennedy, known as JFK, was assassinated in 1963. \
             The political temperature in Washington rose sharply.",
        ));
        s
    }

    struct Setup {
        lexicon: Lexicon,
        ontology: Ontology,
        index: QaIndex,
        store: DocumentStore,
    }

    fn setup() -> Setup {
        let lexicon = Lexicon::english();
        let mut ontology = upper_ontology();
        // Make "El Prat" a known Barcelona airport (as Step 2+3 would).
        let airport = ontology.class_for("airport").unwrap();
        let bcn = ontology.concepts_for("Barcelona").first().copied().unwrap();
        let el_prat = ontology.add_concept(
            &["El Prat"],
            "an airport from the data warehouse",
            dwqa_ontology::OntoPos::Noun,
            dwqa_ontology::ConceptKind::Instance,
        );
        ontology.relate(el_prat, dwqa_ontology::Relation::InstanceOf, airport);
        ontology.relate(el_prat, dwqa_ontology::Relation::Meronym, bcn);
        ontology.annotate(el_prat, "source", "dw");
        let store = fig4_store();
        let index = QaIndex::build(&lexicon, &store, 8);
        Setup {
            lexicon,
            ontology,
            index,
            store,
        }
    }

    fn answers_for(s: &Setup, question: &str, k: usize) -> Vec<Answer> {
        let mut bank = default_patterns();
        bank.push(temperature_pattern());
        let analysis = analyze_question(&s.lexicon, &s.ontology, &bank, question);
        let passages = s.index.passages.retrieve(&analysis.retrieval_terms(), 5);
        extract_answers(&analysis, &s.index, &s.store, &s.ontology, &passages, k)
    }

    #[test]
    fn paper_query_extracts_the_table_1_tuple() {
        let s = setup();
        let answers = answers_for(
            &s,
            "What is the weather like in January of 2004 in El Prat?",
            5,
        );
        assert!(!answers.is_empty());
        let top = &answers[0];
        match top.value {
            AnswerValue::Temperature { celsius, .. } => {
                assert!(celsius == 8.0 || celsius == 7.0, "got {celsius}");
            }
            ref other => panic!("expected a temperature, got {other:?}"),
        }
        assert_eq!(top.context_location.as_deref(), Some("Barcelona"));
        assert!(top.context_date.is_some());
        assert!(top.url.contains("barcelona-tourist-guide"));
        // The Table 1 tuple shape.
        let tuple = top.tuple_format();
        assert!(
            tuple.starts_with("(8ºC – ") || tuple.starts_with("(7ºC – "),
            "{tuple}"
        );
        assert!(tuple.ends_with("– Barcelona)"), "{tuple}");
    }

    #[test]
    fn both_days_are_extracted_with_their_dates() {
        let s = setup();
        let answers = answers_for(
            &s,
            "What is the temperature in January of 2004 in El Prat?",
            10,
        );
        let dates: Vec<Option<Date>> = answers
            .iter()
            .filter(|a| matches!(a.value, AnswerValue::Temperature { .. }))
            .map(|a| a.context_date)
            .collect();
        assert!(dates.contains(&Date::from_ymd(2004, 1, 31)));
        assert!(dates.contains(&Date::from_ymd(2004, 1, 30)));
    }

    #[test]
    fn fahrenheit_duplicates_are_merged() {
        let s = setup();
        let answers = answers_for(
            &s,
            "What is the temperature in January of 2004 in El Prat?",
            10,
        );
        // 8º C and 46.4 F are the same reading → one answer for Jan 31.
        let jan31: Vec<&Answer> = answers
            .iter()
            .filter(|a| a.context_date == Date::from_ymd(2004, 1, 31))
            .collect();
        assert_eq!(jan31.len(), 1, "{jan31:?}");
    }

    #[test]
    fn political_temperature_does_not_win() {
        let s = setup();
        let answers = answers_for(
            &s,
            "What is the temperature in January of 2004 in El Prat?",
            3,
        );
        for a in &answers {
            assert!(
                !a.url.contains("news.example.org"),
                "distractor leaked into answers: {a:?}"
            );
        }
    }

    #[test]
    fn year_question() {
        let s = setup();
        let answers = answers_for(&s, "Which year was JFK assassinated?", 3);
        assert!(answers
            .iter()
            .any(|a| matches!(a.value, AnswerValue::Year(1963))));
    }

    #[test]
    fn abbreviation_questions_answer_from_the_ontology() {
        let mut s = setup();
        // Merge-style synonym: the airport synset knows both names.
        let kennedy = s.ontology.concepts_for("Kennedy International Airport")[0];
        s.ontology.add_label(kennedy, "JFK");
        let answers = answers_for(&s, "What does JFK stand for?", 3);
        assert!(
            answers.iter().any(|a| matches!(
                &a.value,
                AnswerValue::Phrase(p) if p == "Kennedy International Airport"
            )),
            "{answers:?}"
        );
        assert_eq!(answers[0].url, "ontology");
    }

    #[test]
    fn profession_questions_answer_from_the_taxonomy() {
        let s = setup();
        let answers = answers_for(&s, "What was the profession of La Guardia?", 3);
        assert!(
            answers.iter().any(|a| matches!(
                &a.value,
                AnswerValue::Name(n) if n == "mayor" || n == "politician"
            )),
            "{answers:?}"
        );
    }

    #[test]
    fn who_questions_prefer_the_agent_subject() {
        // The patient co-occurs with the topic (and may even be ontology-
        // verified), but "who VERBed" must pick the subject of the verb.
        let lexicon = Lexicon::english();
        let mut ontology = upper_ontology();
        let person = ontology.class_for("person").unwrap();
        let maria = ontology.add_concept(
            &["Maria Lopez"],
            "a patient from the data warehouse",
            dwqa_ontology::OntoPos::Noun,
            dwqa_ontology::ConceptKind::Instance,
        );
        ontology.relate(maria, dwqa_ontology::Relation::InstanceOf, person);
        let mut store = DocumentStore::new();
        store.add(Document::new(
            "r",
            DocFormat::Plain,
            "",
            "The knee surgery for Maria Lopez cost 4200 euros.
             Doctor Ramirez performed the knee surgery.",
        ));
        let index = QaIndex::build(&lexicon, &store, 8);
        let mut bank = default_patterns();
        bank.push(temperature_pattern());
        let analysis = analyze_question(
            &lexicon,
            &ontology,
            &bank,
            "Who performed the knee surgery?",
        );
        let passages = index.passages.retrieve(&analysis.retrieval_terms(), 5);
        let answers = extract_answers(&analysis, &index, &store, &ontology, &passages, 3);
        assert!(
            matches!(&answers[0].value, AnswerValue::Name(n) if n == "Doctor Ramirez"),
            "{answers:?}"
        );
    }

    #[test]
    fn where_questions_answer_from_meronymy() {
        let s = setup();
        let answers = answers_for(&s, "Where is El Prat?", 3);
        assert!(
            answers.iter().any(|a| matches!(
                &a.value,
                AnswerValue::Name(n) if n == "Barcelona"
            )),
            "{answers:?}"
        );
    }

    #[test]
    fn implausible_temperatures_are_rejected_by_the_axiom() {
        let lexicon = Lexicon::english();
        let ontology = upper_ontology();
        let mut store = DocumentStore::new();
        store.add(Document::new(
            "u",
            DocFormat::Plain,
            "",
            "Saturday, January 31, 2004\nBarcelona Weather: Temperature 900º C today",
        ));
        let index = QaIndex::build(&lexicon, &store, 8);
        let mut bank = default_patterns();
        bank.push(temperature_pattern());
        let analysis = analyze_question(
            &lexicon,
            &ontology,
            &bank,
            "What is the temperature in January of 2004 in Barcelona?",
        );
        let passages = index.passages.retrieve(&analysis.retrieval_terms(), 5);
        let answers = extract_answers(&analysis, &index, &store, &ontology, &passages, 5);
        assert!(answers
            .iter()
            .all(|a| !matches!(a.value, AnswerValue::Temperature { .. })));
    }

    #[test]
    fn a_sentence_scope_is_built_once_and_only_where_a_candidate_stands() {
        let lexicon = Lexicon::english();
        let ontology = upper_ontology();
        let mut store = DocumentStore::new();
        store.add(Document::new(
            "u",
            DocFormat::Plain,
            "",
            "Barcelona Weather: Temperature 8º C around 46.4 F Clear skies today\n\
             The forecast office in Barcelona is closed on Sundays",
        ));
        let index = QaIndex::build(&lexicon, &store, 8);
        let bank = [temperature_pattern()];
        let question = "What is the temperature in Barcelona?";
        let analysis = analyze_question(&lexicon, &ontology, &bank, question);
        assert_eq!(analysis.locations, ["Barcelona"]);
        let passages = index.passages.retrieve(&analysis.retrieval_terms(), 1);
        let passage = &passages[0];
        assert_eq!((passage.first_sentence, passage.sentences.len()), (0, 2));

        let question = QuestionScope::new(&analysis, &ontology);
        let sentences = index.doc_sentences(passage.doc);
        let scope = PassageScope::new(&question, passage, "u", sentences);
        let built = || scope::SENTENCE_SCOPES_BUILT.with(|n| n.get());
        let before = built();
        let mut out = Vec::new();
        // Two readings, one sentence: overlap, date and location once.
        typed::candidates(&mut SentenceScope::new(&scope, 0, &mut out));
        assert_eq!(built(), before + 1);
        let readings: Vec<String> = out.iter().map(|a| a.value.to_string()).collect();
        assert_eq!(readings, ["8ºC", "46.4F"]);
        assert_eq!(out[0].score, out[1].score);
        assert_eq!(out[0].context_location.as_deref(), Some("Barcelona"));
        assert_eq!(out[0].context_location, out[1].context_location);
        // No reading: nothing is computed for the sentence at all.
        typed::candidates(&mut SentenceScope::new(&scope, 1, &mut out));
        assert_eq!((built(), out.len()), (before + 1, 2));
    }

    /// One extraction arm the tests above do not reach.
    struct Arm {
        name: &'static str,
        question: &'static str,
        /// A one-sentence page.
        page: &'static str,
        /// The exact candidates it yields, as (`{value:?}`, score).
        candidates: &'static [(&'static str, f64)],
    }

    const TYPED_ARMS: &[Arm] = &[
        Arm {
            name: "month-year",
            question: "Which month did the festival open?",
            page: "The festival opened in March 2005.",
            candidates: &[("MonthYear(March, 2005)", 2.0)],
        },
        Arm {
            name: "year taken from a full date (0.8)",
            question: "Which year was the bridge opened?",
            page: "The bridge was opened on June 12, 1997.",
            candidates: &[("Year(1997)", 1.8)],
        },
        Arm {
            name: "bare year for a date question (0.6)",
            question: "When did Iraq invade Kuwait?",
            page: "Iraq invaded Kuwait in 1990.",
            candidates: &[("Year(1990)", 2.2)],
        },
        Arm {
            name: "percentage",
            question: "What percentage did sales rise?",
            page: "Sales rose 12 % compared to December.",
            candidates: &[("Percentage(12.0)", 1.5)],
        },
        Arm {
            name: "money",
            question: "What is the price of a last minute flight to Barcelona?",
            page: "Last minute flights to Barcelona cost 49 euros this January.",
            candidates: &[("Money { amount: 49.0, currency: \"euro\" }", 2.7)],
        },
        Arm {
            name: "quantity",
            question: "How many countries joined the coalition?",
            page: "In total 34 countries joined the coalition.",
            candidates: &[("Number(34.0)", 1.55)],
        },
        Arm {
            name: "measure with its unit noun",
            question: "What distance did the runner cover?",
            page: "The runner covered 42 kilometres.",
            candidates: &[("Number(42.0)", 1.8)],
        },
        Arm {
            name: "measure without a unit noun is skipped",
            question: "What distance did the runner cover?",
            page: "The runner covered 42.",
            candidates: &[],
        },
        Arm {
            name: "period with its unit noun",
            question: "How long did the war last?",
            page: "The war lasted 6 weeks.",
            candidates: &[("Number(6.0)", 1.8)],
        },
        Arm {
            name: "period without a unit noun is skipped",
            question: "How long did the war last?",
            page: "The war lasted 6.",
            candidates: &[],
        },
        Arm {
            name: "numbers inside a date or temperature entity are skipped",
            question: "How many visitors came to the fair?",
            page: "On January 31, 2004 the fair drew 5000 visitors at 8º C.",
            candidates: &[("Number(5000.0)", 1.3)],
        },
        Arm {
            name: "definition after a copula",
            question: "What is Sirius?",
            page: "Sirius is the brightest star.",
            candidates: &[("Phrase(\"the brightest star\")", 2.0)],
        },
        Arm {
            name: "definition as an appositive",
            question: "What is Sirius?",
            page:
                "All stars shine but none do it like Sirius, the brightest star in the night sky.",
            candidates: &[("Phrase(\"the brightest star\")", 2.0)],
        },
        Arm {
            name: "a proper noun that repeats a question term is refused",
            question: "Who was the mayor of New York?",
            page: "Fiorello La Guardia was the mayor of New York.",
            candidates: &[("Name(\"Fiorello La Guardia\")", 2.9000000000000004)],
        },
    ];

    #[test]
    fn every_typed_arm_yields_its_value_and_score() {
        let lexicon = Lexicon::english();
        let ontology = upper_ontology();
        let mut bank = default_patterns();
        bank.push(temperature_pattern());
        for arm in TYPED_ARMS {
            let mut store = DocumentStore::new();
            store.add(Document::new("u", DocFormat::Plain, "", arm.page));
            let index = QaIndex::build(&lexicon, &store, 8);
            let analysis = analyze_question(&lexicon, &ontology, &bank, arm.question);
            let passages = index.passages.retrieve(&analysis.retrieval_terms(), 5);
            let got: Vec<(String, f64)> =
                extract_answers(&analysis, &index, &store, &ontology, &passages, 10)
                    .iter()
                    .map(|a| (format!("{:?}", a.value), a.score))
                    .collect();
            let expected: Vec<(String, f64)> = arm
                .candidates
                .iter()
                .map(|&(value, score)| (value.to_owned(), score))
                .collect();
            assert_eq!(got, expected, "{}", arm.name);
        }
    }
}
