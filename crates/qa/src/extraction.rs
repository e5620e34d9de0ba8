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
//! example).

use crate::analysis::QuestionAnalysis;
use crate::index::QaIndex;
use crate::taxonomy::AnswerType;
use dwqa_common::{Date, Month};
use dwqa_ir::{DocumentStore, Passage};
use dwqa_nlp::{AnalyzedSentence, EntityKind, NpFeature, SbKind, TempUnit};
use dwqa_ontology::{ConceptKind, Ontology};
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

fn folded_contains(haystack: &str, needle: &str) -> bool {
    dwqa_common::text::fold(haystack).contains(&dwqa_common::text::fold(needle))
}

/// Overlap score: how many main-SB lemmas occur in the sentence.
fn sb_overlap(analysis: &QuestionAnalysis, sentence: &AnalyzedSentence) -> f64 {
    let lemmas: Vec<&str> = sentence.tokens.iter().map(|t| t.lemma.as_str()).collect();
    let mut hits = 0usize;
    let mut total = 0usize;
    for sb in &analysis.main_sbs {
        for l in &sb.lemmas {
            total += 1;
            if lemmas.contains(&l.as_str()) {
                hits += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Finds the nearest full date: the candidate sentence itself, then up to
/// three sentences back (weather pages put the date in a heading above the
/// reading), then one ahead.
fn nearby_date(sentences: &[AnalyzedSentence], idx: usize) -> Option<Date> {
    let date_in = |s: &AnalyzedSentence| {
        s.entities.iter().find_map(|e| match e.kind {
            EntityKind::FullDate(d) => Some(d),
            _ => None,
        })
    };
    if let Some(d) = date_in(&sentences[idx]) {
        return Some(d);
    }
    for back in 1..=3 {
        if back > idx {
            break;
        }
        if let Some(d) = date_in(&sentences[idx - back]) {
            return Some(d);
        }
    }
    sentences.get(idx + 1).and_then(date_in)
}

/// The location the candidate refers to: the first question location found
/// in the candidate sentence, else in the whole passage. City-level
/// locations are preferred (that is what feeds the DW's City level).
fn context_location(
    analysis: &QuestionAnalysis,
    ontology: &Ontology,
    sentence_text: &str,
    passage: &Passage,
) -> (Option<String>, f64) {
    let city_class = ontology.class_for("city");
    let is_city = |label: &str| {
        city_class.is_some_and(|cc| {
            ontology.concepts_for(label).iter().any(|&id| {
                ontology.concept(id).kind == ConceptKind::Instance && ontology.is_a(id, cc)
            })
        })
    };
    let mut best: Option<(String, f64)> = None;
    for loc in &analysis.locations {
        let weight = if folded_contains(sentence_text, loc) {
            0.6
        } else if passage.contains_folded(loc) {
            0.3
        } else {
            continue;
        };
        let weight = weight + if is_city(loc) { 0.1 } else { 0.0 };
        if best.as_ref().map_or(true, |(_, w)| weight > *w) {
            // Store the ontology's canonical spelling, not the question's:
            // answers are cached under a case-folded question key, so two
            // spellings of the same question must produce identical answers.
            let canonical = ontology
                .concepts_for(loc)
                .iter()
                .find(|&&id| ontology.concept(id).kind == ConceptKind::Instance)
                .map(|&id| ontology.concept(id).canonical().to_owned())
                .unwrap_or_else(|| loc.clone());
            best = Some((canonical, weight));
        }
    }
    match best {
        Some((loc, w)) => (Some(loc), w),
        None => (None, 0.0),
    }
}

/// Whether a context date satisfies the question's temporal constraint.
fn date_matches_constraint(analysis: &QuestionAnalysis, date: Date) -> Option<bool> {
    if let Some(d) = analysis.full_date {
        return Some(d == date);
    }
    if let Some((month, year)) = analysis.month_year {
        return Some(date.month() == month && date.year() == year);
    }
    if let Some(year) = analysis.year {
        return Some(date.year() == year);
    }
    None
}

#[allow(clippy::too_many_arguments)] // internal plumbing for one call site
fn push_candidate(
    out: &mut Vec<Answer>,
    analysis: &QuestionAnalysis,
    ontology: &Ontology,
    sentences: &[AnalyzedSentence],
    idx: usize,
    passage: &Passage,
    url: &str,
    value: AnswerValue,
    type_score: f64,
    wants_date_context: bool,
) {
    let sentence = &sentences[idx];
    let mut score = type_score + sb_overlap(analysis, sentence);
    let context_date = if wants_date_context {
        nearby_date(sentences, idx)
    } else {
        None
    };
    if wants_date_context {
        match context_date.map(|d| date_matches_constraint(analysis, d)) {
            Some(Some(true)) => score += 1.0,
            Some(Some(false)) => score -= 1.5, // violates the constraint
            Some(None) => score += 0.2,        // date found, no constraint
            None => score -= 0.5,              // no date association found
        }
    }
    let (context_location, loc_score) =
        context_location(analysis, ontology, &sentence.text, passage);
    score += loc_score;
    // A question that names a place should not be answered from a passage
    // that never mentions it.
    if !analysis.locations.is_empty() && context_location.is_none() {
        score -= 1.2;
    }
    out.push(Answer {
        value,
        score,
        url: url.to_owned(),
        sentence: sentence.text.clone(),
        context_date,
        context_location,
    });
}

fn resolves_to(ontology: &Ontology, text: &str, classes: &[&str]) -> bool {
    classes.iter().any(|class| {
        ontology.class_for(class).is_some_and(|target| {
            ontology
                .concepts_for(text)
                .iter()
                .any(|&id| ontology.is_a(id, target))
        })
    })
}

/// Classes a proper-noun answer must belong to, per answer type.
fn semantic_classes(answer_type: AnswerType) -> &'static [&'static str] {
    match answer_type {
        AnswerType::Person => &["person"],
        AnswerType::Profession => &["profession", "professional"],
        AnswerType::Group => &["group"],
        AnswerType::PlaceCity => &["city"],
        AnswerType::PlaceCountry => &["country"],
        AnswerType::PlaceCapital => &["capital"],
        AnswerType::Place => &["location", "facility"],
        AnswerType::Event => &["event"],
        AnswerType::Object => &["object", "artifact"],
        _ => &[],
    }
}

/// Ontology-backed answers for question types the merged ontology can
/// answer directly (the integration benefit beyond corpus extraction):
/// abbreviation expansion via synonym sets, professions via the taxonomy.
fn ontology_answers(analysis: &QuestionAnalysis, ontology: &Ontology) -> Vec<Answer> {
    let mut out = Vec::new();
    match analysis.answer_type {
        AnswerType::Abbreviation => {
            // "What does JFK stand for?" — the acronym SB's synset holds
            // the expansion as a longer synonym label.
            for sb in &analysis.main_sbs {
                if !dwqa_common::text::is_acronym(&sb.text) {
                    continue;
                }
                for &id in ontology.concepts_for(&sb.text) {
                    let concept = ontology.concept(id);
                    if let Some(expansion) = concept
                        .labels
                        .iter()
                        .filter(|l| !dwqa_common::text::is_acronym(l) && l.contains(' '))
                        .max_by_key(|l| l.len())
                    {
                        out.push(Answer {
                            value: AnswerValue::Phrase(expansion.clone()),
                            score: 2.0,
                            url: "ontology".to_owned(),
                            sentence: concept.gloss.clone(),
                            context_date: None,
                            context_location: None,
                        });
                    }
                }
            }
        }
        AnswerType::Profession => {
            // "What was the profession of La Guardia?" — walk the named
            // instance's hypernym path for a concept under `professional`
            // or `profession`.
            let professional = ontology.class_for("professional");
            let profession = ontology.class_for("profession");
            for sb in &analysis.main_sbs {
                for &id in ontology.concepts_for(&sb.text) {
                    if ontology.concept(id).kind != ConceptKind::Instance {
                        continue;
                    }
                    for ancestor in ontology.hypernym_path(id) {
                        let under = [professional, profession]
                            .iter()
                            .flatten()
                            .any(|&root| ancestor != root && ontology.is_a(ancestor, root));
                        if under {
                            out.push(Answer {
                                value: AnswerValue::Name(
                                    ontology.concept(ancestor).canonical().to_owned(),
                                ),
                                score: 2.0,
                                url: "ontology".to_owned(),
                                sentence: ontology.concept(id).gloss.clone(),
                                context_date: None,
                                context_location: None,
                            });
                            break;
                        }
                    }
                }
            }
        }
        AnswerType::Place => {
            // "Where is El Prat?" — a known instance's part-of chain is an
            // authoritative answer (the ontology located the airport in
            // its city during Steps 2–3).
            for sb in &analysis.main_sbs {
                for &id in ontology.concepts_for(&sb.text) {
                    if ontology.concept(id).kind != ConceptKind::Instance {
                        continue;
                    }
                    for &holder in ontology.related(id, dwqa_ontology::Relation::Meronym) {
                        out.push(Answer {
                            value: AnswerValue::Name(
                                ontology.concept(holder).canonical().to_owned(),
                            ),
                            score: 1.5,
                            url: "ontology".to_owned(),
                            sentence: ontology.concept(id).gloss.clone(),
                            context_date: None,
                            context_location: Some(ontology.concept(holder).canonical().to_owned()),
                        });
                    }
                }
            }
        }
        _ => {}
    }
    out
}

/// Runs Module 3 over the selected passages, returning ranked answers.
pub fn extract_answers(
    analysis: &QuestionAnalysis,
    index: &QaIndex,
    store: &DocumentStore,
    ontology: &Ontology,
    passages: &[Passage],
    k: usize,
) -> Vec<Answer> {
    let mut out: Vec<Answer> = ontology_answers(analysis, ontology);
    for passage in passages {
        let url = &store.get(passage.doc).url;
        let sentences = index.doc_sentences(passage.doc);
        let range = passage.first_sentence
            ..(passage.first_sentence + passage.sentences.len()).min(sentences.len());
        for idx in range {
            let sentence = &sentences[idx];
            match analysis.answer_type {
                AnswerType::NumericalTemperature => {
                    for e in &sentence.entities {
                        if let EntityKind::Temperature { value, unit } = e.kind {
                            let celsius = unit.to_celsius(value);
                            // Step-4 axiom: reject implausible readings.
                            if !(TEMP_RANGE_C.0..=TEMP_RANGE_C.1).contains(&celsius) {
                                continue;
                            }
                            // A temperature question that names a place only
                            // accepts readings attributable to it — the
                            // tuned answer is the full (temperature, date,
                            // city) tuple, and a reading from some other
                            // page cannot feed the DW.
                            if !analysis.locations.is_empty() {
                                let (loc, _) =
                                    context_location(analysis, ontology, &sentence.text, passage);
                                if loc.is_none() {
                                    continue;
                                }
                            }
                            push_candidate(
                                &mut out,
                                analysis,
                                ontology,
                                sentences,
                                idx,
                                passage,
                                url,
                                AnswerValue::Temperature {
                                    celsius,
                                    raw: value,
                                    unit,
                                },
                                1.0,
                                true,
                            );
                        }
                    }
                }
                AnswerType::TemporalDate => {
                    for e in &sentence.entities {
                        match e.kind {
                            EntityKind::FullDate(d) => push_candidate(
                                &mut out,
                                analysis,
                                ontology,
                                sentences,
                                idx,
                                passage,
                                url,
                                AnswerValue::Date(d),
                                1.0,
                                false,
                            ),
                            // A bare year is a coarse but valid date answer
                            // ("When did Iraq invade Kuwait?" → 1990).
                            EntityKind::Year(y) => push_candidate(
                                &mut out,
                                analysis,
                                ontology,
                                sentences,
                                idx,
                                passage,
                                url,
                                AnswerValue::Year(y),
                                0.6,
                                false,
                            ),
                            _ => {}
                        }
                    }
                }
                AnswerType::TemporalMonth => {
                    for e in &sentence.entities {
                        if let EntityKind::MonthYear { month, year } = e.kind {
                            push_candidate(
                                &mut out,
                                analysis,
                                ontology,
                                sentences,
                                idx,
                                passage,
                                url,
                                AnswerValue::MonthYear(month, year),
                                1.0,
                                false,
                            );
                        }
                    }
                }
                AnswerType::TemporalYear => {
                    for e in &sentence.entities {
                        match e.kind {
                            EntityKind::Year(y) => push_candidate(
                                &mut out,
                                analysis,
                                ontology,
                                sentences,
                                idx,
                                passage,
                                url,
                                AnswerValue::Year(y),
                                1.0,
                                false,
                            ),
                            EntityKind::FullDate(d) => push_candidate(
                                &mut out,
                                analysis,
                                ontology,
                                sentences,
                                idx,
                                passage,
                                url,
                                AnswerValue::Year(d.year()),
                                0.8,
                                false,
                            ),
                            _ => {}
                        }
                    }
                }
                AnswerType::NumericalPercentage => {
                    for e in &sentence.entities {
                        if let EntityKind::Percentage(p) = e.kind {
                            push_candidate(
                                &mut out,
                                analysis,
                                ontology,
                                sentences,
                                idx,
                                passage,
                                url,
                                AnswerValue::Percentage(p),
                                1.0,
                                false,
                            );
                        }
                    }
                }
                AnswerType::NumericalEconomic => {
                    for e in &sentence.entities {
                        if let EntityKind::Money {
                            amount,
                            ref currency,
                        } = e.kind
                        {
                            push_candidate(
                                &mut out,
                                analysis,
                                ontology,
                                sentences,
                                idx,
                                passage,
                                url,
                                AnswerValue::Money {
                                    amount,
                                    currency: currency.clone(),
                                },
                                1.0,
                                false,
                            );
                        }
                    }
                }
                AnswerType::NumericalQuantity
                | AnswerType::NumericalMeasure
                | AnswerType::NumericalAge
                | AnswerType::NumericalPeriod => {
                    // A number, with a unit-ish noun right after for the
                    // measure/period variants.
                    for (ti, t) in sentence.tokens.iter().enumerate() {
                        if t.pos == dwqa_nlp::Pos::CD {
                            // Skip numbers that belong to dates/temperatures.
                            let in_entity = sentence
                                .entities
                                .iter()
                                .any(|e| ti >= e.start && ti < e.end);
                            if in_entity {
                                continue;
                            }
                            let Ok(n) = t.lemma.parse::<f64>() else {
                                continue;
                            };
                            let needs_unit = matches!(
                                analysis.answer_type,
                                AnswerType::NumericalMeasure | AnswerType::NumericalPeriod
                            );
                            let has_unit = matches!(
                                sentence.tokens.get(ti + 1),
                                Some(n) if n.pos.is_noun()
                            );
                            if needs_unit && !has_unit {
                                continue;
                            }
                            push_candidate(
                                &mut out,
                                analysis,
                                ontology,
                                sentences,
                                idx,
                                passage,
                                url,
                                AnswerValue::Number(n),
                                0.8,
                                false,
                            );
                        }
                    }
                }
                AnswerType::Definition => {
                    // "X is/was the Y…" or "X, the Y…" where X is a main SB.
                    let text = &sentence.text;
                    for sb in &analysis.main_sbs {
                        if !folded_contains(text, &sb.text) {
                            continue;
                        }
                        for block in &sentence.blocks {
                            if block.kind == SbKind::Np
                                && matches!(block.feature, Some(NpFeature::Comun))
                                && block.start > 0
                            {
                                let prev = &sentence.tokens[block.start - 1];
                                let after_copula = prev.lemma == "be";
                                let appositive = prev.token.text == ",";
                                if after_copula || appositive {
                                    push_candidate(
                                        &mut out,
                                        analysis,
                                        ontology,
                                        sentences,
                                        idx,
                                        passage,
                                        url,
                                        AnswerValue::Phrase(block.text(&sentence.tokens)),
                                        1.0,
                                        false,
                                    );
                                }
                            }
                        }
                    }
                }
                // Proper-noun types with ontology verification.
                _ => {
                    let classes = semantic_classes(analysis.answer_type);
                    // "Who VERBed …?" prefers the syntactic *subject* of a
                    // sentence containing that verb (the agent), over other
                    // names that merely co-occur with the topic.
                    let question_verbs: Vec<&str> = analysis
                        .main_sbs
                        .iter()
                        .filter(|sb| sb.text.starts_with("to "))
                        .flat_map(|sb| sb.lemmas.iter().map(String::as_str))
                        .collect();
                    let sentence_has_verb = !question_verbs.is_empty()
                        && sentence
                            .tokens
                            .iter()
                            .any(|t| question_verbs.contains(&t.lemma.as_str()));
                    for block in &sentence.blocks {
                        let nps: Vec<&dwqa_nlp::SyntacticBlock> = match block.kind {
                            SbKind::Np => vec![block],
                            SbKind::Pp => block.children.iter().collect(),
                            SbKind::Vbc => continue,
                        };
                        for np in nps {
                            if np.feature != Some(NpFeature::ProperNoun) {
                                continue;
                            }
                            let text = np.text(&sentence.tokens);
                            // Never answer with a term from the question.
                            if analysis.main_sbs.iter().any(|sb| {
                                dwqa_common::text::fold(&sb.text) == dwqa_common::text::fold(&text)
                            }) {
                                continue;
                            }
                            let verified = resolves_to(ontology, &text, classes);
                            // The "semantic preference" of the paper: an
                            // ontology-verified candidate scores far above
                            // an unverified proper noun.
                            let mut type_score = if verified {
                                1.2
                            } else if classes.is_empty() {
                                0.8
                            } else {
                                0.2
                            };
                            if sentence_has_verb && np.role == dwqa_nlp::SbRole::Subject {
                                type_score += 0.8;
                            }
                            push_candidate(
                                &mut out,
                                analysis,
                                ontology,
                                sentences,
                                idx,
                                passage,
                                url,
                                AnswerValue::Name(text),
                                type_score,
                                false,
                            );
                        }
                    }
                }
            }
        }
    }

    // Deduplicate: keep the best-scored instance of each distinct value
    // (+ context date for temperatures: the same reading on two days is
    // two answers).
    out.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.url.cmp(&b.url))
            .then_with(|| a.sentence.cmp(&b.sentence))
    });
    let mut seen: Vec<(String, Option<Date>)> = Vec::new();
    let mut deduped: Vec<Answer> = Vec::new();
    for a in out {
        let key = (a.value.to_string(), a.context_date);
        let celsius_key = match &a.value {
            AnswerValue::Temperature { celsius, .. } => {
                (format!("{:.1}C", celsius), a.context_date)
            }
            _ => key.clone(),
        };
        if seen.contains(&celsius_key) {
            continue;
        }
        seen.push(celsius_key);
        deduped.push(a);
        if deduped.len() == k {
            break;
        }
    }
    deduped
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
}
