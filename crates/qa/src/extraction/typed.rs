//! The candidates of one sentence, by expected answer type: what the
//! sentence offers as a value and how well that value's lexical shape fits
//! the type. Everything else a score is made of belongs to the sentence,
//! the passage or the question, and is added by
//! [`SentenceScope::push`](super::scope::SentenceScope::push).

use super::scope::SentenceScope;
use super::{AnswerValue, TEMP_RANGE_C};
use crate::taxonomy::AnswerType;
use dwqa_common::text::fold;
use dwqa_nlp::{Entity, EntityKind, NpFeature, Pos, SbKind, SbRole};
use dwqa_ontology::ConceptId;

/// Pushes every candidate the sentence holds for the question's type.
pub(super) fn candidates(scope: &mut SentenceScope<'_>) {
    use AnswerType as T;
    let answer_type = scope.question().analysis.answer_type;
    match answer_type {
        T::NumericalTemperature
        | T::TemporalDate
        | T::TemporalMonth
        | T::TemporalYear
        | T::NumericalPercentage
        | T::NumericalEconomic => {
            for entity in &scope.sentence().entities {
                if let Some((value, type_score)) = entity_answer(answer_type, &entity.kind) {
                    scope.push(value, type_score);
                }
            }
        }
        T::NumericalQuantity | T::NumericalMeasure | T::NumericalAge | T::NumericalPeriod => {
            numbers(scope)
        }
        T::Definition => definitions(scope),
        _ => proper_nouns(scope),
    }
}

/// The entity-backed answer types: what an entity is worth as an answer of
/// the expected type, if anything.
fn entity_answer(answer_type: AnswerType, entity: &EntityKind) -> Option<(AnswerValue, f64)> {
    use AnswerType as T;
    use EntityKind as E;
    Some(match (answer_type, entity) {
        (T::NumericalTemperature, &E::Temperature { value: raw, unit }) => {
            let celsius = unit.to_celsius(raw);
            // Step-4 axiom: reject implausible readings.
            if !(TEMP_RANGE_C.0..=TEMP_RANGE_C.1).contains(&celsius) {
                return None;
            }
            (AnswerValue::Temperature { celsius, raw, unit }, 1.0)
        }
        (T::TemporalDate, &E::FullDate(d)) => (AnswerValue::Date(d), 1.0),
        // A bare year is a coarse but valid date answer ("When did Iraq
        // invade Kuwait?" → 1990).
        (T::TemporalDate, &E::Year(y)) => (AnswerValue::Year(y), 0.6),
        (T::TemporalMonth, &E::MonthYear { month, year }) => {
            (AnswerValue::MonthYear(month, year), 1.0)
        }
        (T::TemporalYear, &E::Year(y)) => (AnswerValue::Year(y), 1.0),
        (T::TemporalYear, &E::FullDate(d)) => (AnswerValue::Year(d.year()), 0.8),
        (T::NumericalPercentage, &E::Percentage(p)) => (AnswerValue::Percentage(p), 1.0),
        (T::NumericalEconomic, E::Money { amount, currency }) => {
            let (amount, currency) = (*amount, currency.clone());
            (AnswerValue::Money { amount, currency }, 1.0)
        }
        _ => return None,
    })
}

/// A number, with a unit-ish noun right after for the measure and period
/// types. Numbers that belong to a date or a temperature are not counts.
fn numbers(scope: &mut SentenceScope<'_>) {
    let sentence = scope.sentence();
    let needs_unit = matches!(
        scope.question().analysis.answer_type,
        AnswerType::NumericalMeasure | AnswerType::NumericalPeriod
    );
    for (i, token) in sentence.tokens.iter().enumerate() {
        let in_entity = |e: &Entity| (e.start..e.end).contains(&i);
        if token.pos != Pos::CD || sentence.entities.iter().any(in_entity) {
            continue;
        }
        let has_unit = sentence.tokens.get(i + 1).is_some_and(|t| t.pos.is_noun());
        if needs_unit && !has_unit {
            continue;
        }
        if let Ok(n) = token.lemma.parse() {
            scope.push(AnswerValue::Number(n), 0.8);
        }
    }
}

/// "X is/was the Y…" or "X, the Y…" where X is a main SB: the common-noun
/// phrase after the copula or the comma defines X.
fn definitions(scope: &mut SentenceScope<'_>) {
    let (question, sentence) = (scope.question(), scope.sentence());
    let text = fold(&sentence.text);
    if !question.folded_sbs.iter().any(|sb| text.contains(sb)) {
        return;
    }
    for block in &sentence.blocks {
        if block.kind != SbKind::Np || block.feature != Some(NpFeature::Comun) || block.start == 0 {
            continue;
        }
        let before = &sentence.tokens[block.start - 1];
        if before.lemma == "be" || before.token.text == "," {
            scope.push(AnswerValue::Phrase(block.text(&sentence.tokens)), 1.0);
        }
    }
}

/// Classes a proper-noun answer must belong to, per answer type.
pub(super) fn semantic_classes(answer_type: AnswerType) -> &'static [&'static str] {
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

/// Proper nouns, verified against the ontology: the paper's "semantic
/// preference" scores a candidate of the expected class far above an
/// unverified name. "Who VERBed …?" prefers the syntactic *subject* of a
/// sentence containing that verb (the agent) over other names that merely
/// co-occur with the topic.
fn proper_nouns(scope: &mut SentenceScope<'_>) {
    let (question, sentence) = (scope.question(), scope.sentence());
    let has_verb = sentence
        .tokens
        .iter()
        .any(|t| question.verbs.contains(&t.lemma.as_str()));
    let nps = sentence.blocks.iter().flat_map(|block| match block.kind {
        SbKind::Np => std::slice::from_ref(block),
        SbKind::Pp => &block.children[..],
        SbKind::Vbc => &[],
    });
    for np in nps.filter(|np| np.feature == Some(NpFeature::ProperNoun)) {
        let text = np.text(&sentence.tokens);
        // Never answer with a term from the question.
        if question.folded_sbs.contains(&fold(&text)) {
            continue;
        }
        let concepts = question.ontology.concepts_for(&text);
        let is_a =
            |&class: &ConceptId| concepts.iter().any(|&id| question.ontology.is_a(id, class));
        let mut type_score = if question.classes.iter().flatten().any(is_a) {
            1.2
        } else if question.classes.is_empty() {
            0.8
        } else {
            0.2
        };
        if has_verb && np.role == SbRole::Subject {
            type_score += 0.8;
        }
        scope.push(AnswerValue::Name(text), type_score);
    }
}
