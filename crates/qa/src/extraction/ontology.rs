//! Answers the merged ontology gives directly, without a passage — the
//! integration benefit beyond corpus extraction: abbreviation expansion
//! via synonym sets, professions via the taxonomy, places via part-of.
//! Their "URL" is `ontology` and their supporting sentence the gloss of
//! the concept that answered.

use super::{Answer, AnswerValue};
use crate::analysis::{MainSb, QuestionAnalysis};
use crate::taxonomy::AnswerType;
use dwqa_common::text::is_acronym;
use dwqa_ontology::{ConceptId, ConceptKind, Ontology, Relation};

fn answer(value: AnswerValue, score: f64, gloss: &str, location: Option<String>) -> Answer {
    Answer {
        value,
        score,
        url: "ontology".to_owned(),
        sentence: gloss.to_owned(),
        context_date: None,
        context_location: location,
    }
}

/// The ontology's own answers to the question, if its type has any.
pub(super) fn ontology_answers(analysis: &QuestionAnalysis, ontology: &Ontology) -> Vec<Answer> {
    let concepts_of = |sb: &MainSb| ontology.concepts_for(&sb.text).iter().copied();
    // The instances the question's main SBs name.
    let instances = || {
        let named = analysis.main_sbs.iter().flat_map(concepts_of);
        named.filter(|&id| ontology.concept(id).kind == ConceptKind::Instance)
    };
    let name = |id| ontology.concept(id).canonical().to_owned();
    let mut out = Vec::new();
    match analysis.answer_type {
        // "What does JFK stand for?" — the acronym SB's synset holds the
        // expansion as a longer synonym label.
        AnswerType::Abbreviation => {
            let acronyms = analysis.main_sbs.iter().filter(|sb| is_acronym(&sb.text));
            for id in acronyms.flat_map(concepts_of) {
                let concept = ontology.concept(id);
                let spelled_out = |l: &&String| !is_acronym(l) && l.contains(' ');
                let expansions = concept.labels.iter().filter(spelled_out);
                if let Some(longest) = expansions.max_by_key(|l| l.len()) {
                    let value = AnswerValue::Phrase(longest.clone());
                    out.push(answer(value, 2.0, &concept.gloss, None));
                }
            }
        }
        // "What was the profession of La Guardia?" — the first concept on
        // the named instance's hypernym path that lies under
        // `professional` or `profession`.
        AnswerType::Profession => {
            let roots = ["professional", "profession"].map(|class| ontology.class_for(class));
            let is_profession = |ancestor: &ConceptId| {
                let mut roots = roots.iter().flatten();
                roots.any(|root| ancestor != root && ontology.is_a(*ancestor, *root))
            };
            for id in instances() {
                if let Some(found) = ontology.hypernym_path(id).into_iter().find(is_profession) {
                    let value = AnswerValue::Name(name(found));
                    out.push(answer(value, 2.0, &ontology.concept(id).gloss, None));
                }
            }
        }
        // "Where is El Prat?" — a known instance's part-of chain is an
        // authoritative answer (the ontology located the airport in its
        // city during Steps 2–3).
        AnswerType::Place => {
            for id in instances() {
                for &holder in ontology.related(id, Relation::Meronym) {
                    let value = AnswerValue::Name(name(holder));
                    let gloss = &ontology.concept(id).gloss;
                    out.push(answer(value, 1.5, gloss, Some(name(holder))));
                }
            }
        }
        _ => {}
    }
    out
}
