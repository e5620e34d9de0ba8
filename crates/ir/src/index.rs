//! Index terms and their weight: what every index over this crate's
//! documents is built from.

use dwqa_nlp::{is_stopword, lemmatize_with, tag_sentence, tokenize, Lexicon, Pos, TaggedToken};
use std::borrow::Cow;

/// Splits `text` into sentences and tags each one — the only place this
/// crate runs the tokenizer and the tagger.
pub(crate) fn tag_text<'a>(
    lexicon: &'a Lexicon,
    text: &str,
) -> impl Iterator<Item = (String, Vec<TaggedToken>)> + 'a {
    dwqa_nlp::split_sentences(text)
        .into_iter()
        .map(move |sentence| {
            let tagged = tag_sentence(lexicon, &tokenize(&sentence));
            (sentence, tagged)
        })
}

/// The index terms of one tagged sentence, in token order: punctuation
/// and symbols are dropped, each remaining token contributes its lemma
/// (the lemmatizer's, where the tagger left none), and stop words are
/// dropped. This is the one definition of an index term: [`index_terms`],
/// the passage postings (whether built from a document store or from the
/// QA indexation's analyses) and the document-level index of the
/// `dwqa-baselines` crate all go through it.
pub fn tagged_terms<'a>(
    lexicon: &'a Lexicon,
    tokens: &'a [TaggedToken],
) -> impl Iterator<Item = Cow<'a, str>> + 'a {
    tokens
        .iter()
        .filter(|t| !matches!(t.pos, Pos::PUNCT | Pos::SENT | Pos::SYM))
        .map(move |t| {
            if t.lemma.is_empty() {
                Cow::Owned(lemmatize_with(lexicon, &t.token.text, t.pos))
            } else {
                Cow::Borrowed(t.lemma.as_str())
            }
        })
        .filter(|lemma| !is_stopword(lemma))
}

/// Normalises raw text into index terms: split into sentences → tokenize
/// → tag (for lemmas) → [`tagged_terms`].
pub fn index_terms(lexicon: &Lexicon, text: &str) -> Vec<String> {
    let mut terms = Vec::new();
    for (_, tagged) in tag_text(lexicon, text) {
        terms.extend(tagged_terms(lexicon, &tagged).map(Cow::into_owned));
    }
    terms
}

/// Smoothed inverse document frequency (BM25 formulation) of a term held
/// by `df` of `num_docs` documents; always > 0. Public so the baseline
/// index weighs its terms with this formula rather than a copy of it.
pub fn bm25_idf(num_docs: usize, df: usize) -> f64 {
    let n = num_docs as f64;
    let df = df as f64;
    ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn terms_are_lemmatised_and_stopped() {
        let lx = Lexicon::english();
        let terms = index_terms(&lx, "The temperatures in the skies were rising.");
        assert_eq!(terms, ["temperature", "sky", "rise"]);
    }

    /// Surface forms the corpus generators emit, plus a few they do not,
    /// separated by single spaces (the last one is a line break).
    const TOKENS: &str = "The temperatures in Barcelona Málaga were rising 8º C 46.4 F 12th \
        January 2004 , : ( ) % $ -3 skies El Prat may JFK flights cheaper was sold e.g. Dr. No. \
        what ? ! . \n";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One definition of an index term: for every sentence the
        /// splitter cuts out of a text — the unit the QA indexation
        /// analyses and the passage postings number — the filter over its
        /// tagged tokens is what `index_terms` makes of its text.
        #[test]
        fn prop_tagged_terms_equal_index_terms_on_single_sentences(
            picks in proptest::collection::vec(0usize..64, 0..24),
            noise in "\\PC{0,40}",
        ) {
            let lx = Lexicon::english();
            let tokens: Vec<&str> = TOKENS.split(' ').collect();
            let words: Vec<&str> = picks.iter().map(|&i| tokens[i % tokens.len()]).collect();
            for text in [words.join(" ").as_str(), noise.as_str()] {
                for sentence in dwqa_nlp::split_sentences(text) {
                    let analysed = dwqa_nlp::analyze_sentence(&lx, &sentence);
                    let terms: Vec<String> = tagged_terms(&lx, &analysed.tokens)
                        .map(Cow::into_owned)
                        .collect();
                    prop_assert_eq!(terms, index_terms(&lx, &sentence), "{:?}", sentence);
                }
            }
        }
    }
}
