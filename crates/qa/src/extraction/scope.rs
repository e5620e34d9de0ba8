//! The three nested scopes of Module 3. Whatever is fixed for the whole
//! question, for one passage or for one sentence is computed in the scope
//! of that name, once, so a candidate is only a value and a type score
//! handed to [`SentenceScope::push`]:
//!
//! * [`QuestionScope`] — per question location its folded text, the
//!   ontology's canonical spelling and whether it is a city; the folded
//!   main SBs and their lemmas; the classes a proper-noun answer must
//!   belong to; the question's verbs.
//! * [`PassageScope`] — the page's URL, the analysed sentences of its
//!   document, and which question locations the passage mentions.
//! * [`SentenceScope`] — SB overlap, the nearby date with its constraint
//!   term, the context location with its score. Built on the sentence's
//!   first candidate: most sentences a passage brings along yield none.

use super::{Answer, AnswerValue};
use crate::analysis::QuestionAnalysis;
use crate::taxonomy::AnswerType;
use dwqa_common::{text::fold, Date};
use dwqa_ir::Passage;
use dwqa_nlp::{AnalyzedSentence, EntityKind};
use dwqa_ontology::{ConceptId, ConceptKind, Ontology};

/// One location the question names (`analysis.locations`, same order).
struct Location {
    folded: String,
    /// The ontology's canonical spelling, not the question's: answers are
    /// cached under a case-folded question key, so two spellings of the
    /// same question must produce identical answers.
    canonical: String,
    /// City-level locations are preferred (that is what feeds the DW's
    /// City level).
    city_bonus: f64,
}

impl Location {
    fn new(ontology: &Ontology, text: &str) -> Location {
        let concepts = ontology.concepts_for(text);
        let instances = || {
            let ids = concepts.iter().copied();
            ids.filter(|&id| ontology.concept(id).kind == ConceptKind::Instance)
        };
        let is_city = ontology
            .class_for("city")
            .is_some_and(|city| instances().any(|id| ontology.is_a(id, city)));
        Location {
            folded: fold(text),
            canonical: instances()
                .next()
                .map_or(text, |id| ontology.concept(id).canonical())
                .to_owned(),
            city_bonus: if is_city { 0.1 } else { 0.0 },
        }
    }
}

/// What every candidate of one question shares.
pub(super) struct QuestionScope<'a> {
    pub analysis: &'a QuestionAnalysis,
    pub ontology: &'a Ontology,
    locations: Vec<Location>,
    /// The main SBs' texts, folded.
    pub folded_sbs: Vec<String>,
    sb_lemmas: Vec<&'a str>,
    /// Classes a proper-noun answer must belong to, as the ontology has
    /// them (`None`: it has no such class).
    pub classes: Vec<Option<ConceptId>>,
    /// Lemmas of the question's verb SBs ("to invade").
    pub verbs: Vec<&'a str>,
    /// The tuned answer is the full (temperature, date, city) tuple: a
    /// reading takes its date from the lines around it, and one that
    /// cannot be attributed to the place the question names — a reading
    /// from some other page — cannot feed the DW and is no candidate.
    is_tuple: bool,
}

impl<'a> QuestionScope<'a> {
    pub fn new(analysis: &'a QuestionAnalysis, ontology: &'a Ontology) -> Self {
        let sbs = &analysis.main_sbs;
        let lemmas = |sb: &'a crate::analysis::MainSb| sb.lemmas.iter().map(String::as_str);
        QuestionScope {
            analysis,
            ontology,
            locations: analysis
                .locations
                .iter()
                .map(|text| Location::new(ontology, text))
                .collect(),
            folded_sbs: sbs.iter().map(|sb| fold(&sb.text)).collect(),
            sb_lemmas: sbs.iter().flat_map(lemmas).collect(),
            classes: super::typed::semantic_classes(analysis.answer_type)
                .iter()
                .map(|class| ontology.class_for(class))
                .collect(),
            verbs: sbs
                .iter()
                .filter(|sb| sb.text.starts_with("to "))
                .flat_map(lemmas)
                .collect(),
            is_tuple: analysis.answer_type == AnswerType::NumericalTemperature,
        }
    }

    /// Overlap score: the share of main-SB lemmas that occur in the sentence.
    fn overlap(&self, sentence: &AnalyzedSentence) -> f64 {
        if self.sb_lemmas.is_empty() {
            return 0.0;
        }
        let occurs = |lemma: &str| sentence.tokens.iter().any(|t| t.lemma == lemma);
        let hits = self.sb_lemmas.iter().filter(|&&l| occurs(l)).count();
        hits as f64 / self.sb_lemmas.len() as f64
    }

    /// What a context date is worth against the question's temporal
    /// constraint (its full date, else its month and year, else its year).
    fn date_term(&self, date: Option<Date>) -> f64 {
        let a = self.analysis;
        let Some(date) = date else {
            return -0.5; // no date association found
        };
        let satisfied = match (a.full_date, a.month_year, a.year) {
            (Some(full), ..) => date == full,
            (_, Some((month, year)), _) => date.month() == month && date.year() == year,
            (_, _, Some(year)) => date.year() == year,
            _ => return 0.2, // date found, no constraint
        };
        if satisfied {
            1.0
        } else {
            -1.5 // violates the constraint
        }
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
    let back = sentences[idx.saturating_sub(3)..=idx].iter().rev();
    back.chain(sentences.get(idx + 1)).find_map(date_in)
}

/// What every candidate of one passage shares.
pub(super) struct PassageScope<'a> {
    question: &'a QuestionScope<'a>,
    url: &'a str,
    /// The analysed sentences of the passage's document.
    sentences: &'a [AnalyzedSentence],
    /// Per question location, whether the passage mentions it.
    mentions: Vec<bool>,
}

impl<'a> PassageScope<'a> {
    pub fn new(
        question: &'a QuestionScope<'a>,
        passage: &'a Passage,
        url: &'a str,
        sentences: &'a [AnalyzedSentence],
    ) -> Self {
        let asked = question.analysis.locations.iter();
        PassageScope {
            question,
            url,
            sentences,
            mentions: asked.map(|text| passage.contains_folded(text)).collect(),
        }
    }

    /// The location a candidate in the sentence refers to, and its score:
    /// the best of the question's locations, one found in the sentence
    /// itself (0.6) beating one found elsewhere in the passage (0.3).
    fn locate(&self, sentence: &str) -> (Option<String>, f64) {
        let locations = &self.question.locations;
        if locations.is_empty() {
            return (None, 0.0);
        }
        let sentence = fold(sentence);
        let mut best: Option<(&Location, f64)> = None;
        for (location, &mentioned) in locations.iter().zip(&self.mentions) {
            let weight = if sentence.contains(&location.folded) {
                0.6
            } else if mentioned {
                0.3
            } else {
                continue;
            };
            let weight = weight + location.city_bonus;
            if best.map_or(true, |(_, w)| weight > w) {
                best = Some((location, weight));
            }
        }
        best.map_or((None, 0.0), |(l, w)| (Some(l.canonical.clone()), w))
    }
}

/// One sentence of a passage and where its candidates go. Its facts are
/// computed when the first candidate is pushed.
pub(super) struct SentenceScope<'a> {
    passage: &'a PassageScope<'a>,
    idx: usize,
    facts: Option<SentenceFacts>,
    out: &'a mut Vec<Answer>,
}

impl<'a> SentenceScope<'a> {
    pub fn new(passage: &'a PassageScope<'a>, idx: usize, out: &'a mut Vec<Answer>) -> Self {
        SentenceScope {
            passage,
            idx,
            facts: None,
            out,
        }
    }

    pub fn question(&self) -> &'a QuestionScope<'a> {
        self.passage.question
    }

    pub fn sentence(&self) -> &'a AnalyzedSentence {
        &self.passage.sentences[self.idx]
    }

    /// Scores one candidate of this sentence and records it.
    pub fn push(&mut self, value: AnswerValue, type_score: f64) {
        let (passage, sentence) = (self.passage, self.sentence());
        let question = passage.question;
        let facts = self
            .facts
            .get_or_insert_with(|| SentenceFacts::new(passage, self.idx));
        // A question that names a place should not be answered from a
        // passage that never mentions it.
        let unlocated = !question.locations.is_empty() && facts.location.is_none();
        if unlocated && question.is_tuple {
            return;
        }
        let mut score = type_score + facts.overlap;
        if question.is_tuple {
            score += facts.date_term;
        }
        score += facts.location_score;
        if unlocated {
            score -= 1.2;
        }
        self.out.push(Answer {
            value,
            score,
            url: passage.url.to_owned(),
            sentence: sentence.text.clone(),
            context_date: facts.date,
            context_location: facts.location.clone(),
        });
    }
}

/// What every candidate of one sentence shares.
struct SentenceFacts {
    overlap: f64,
    date: Option<Date>,
    date_term: f64,
    location: Option<String>,
    location_score: f64,
}

impl SentenceFacts {
    fn new(passage: &PassageScope<'_>, idx: usize) -> Self {
        let (question, sentence) = (passage.question, &passage.sentences[idx]);
        let date = (question.is_tuple).then(|| nearby_date(passage.sentences, idx));
        let (location, location_score) = passage.locate(&sentence.text);
        #[cfg(test)]
        SENTENCE_SCOPES_BUILT.with(|n| n.set(n.get() + 1));
        SentenceFacts {
            overlap: question.overlap(sentence),
            date: date.flatten(),
            date_term: date.map_or(0.0, |d| question.date_term(d)),
            location,
            location_score,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// How many sentence scopes this thread has built.
    pub(super) static SENTENCE_SCOPES_BUILT: std::cell::Cell<usize> =
        const { std::cell::Cell::new(0) };
}
