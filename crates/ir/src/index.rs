//! The inverted index.

use crate::document::{DocId, DocumentStore};
use dwqa_common::{Interner, Symbol};
use dwqa_nlp::{is_stopword, lemmatize_with, tag_sentence, tokenize, Lexicon, Pos, TaggedToken};
use std::borrow::Cow;
use std::collections::HashMap;

/// One posting: a document and the term's frequency in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The document.
    pub doc: DocId,
    /// Term frequency.
    pub tf: u32,
}

/// An inverted index over lemmatised, stop-word-filtered terms.
///
/// This is the "second indexation … used for the IR tool that filters the
/// quantity of text on which the QA process is applied" of the paper's
/// Figure 3. Unlike the QA-side linguistic index, it deliberately discards
/// stop words (difference (1) between IR and QA in the introduction).
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    vocabulary: Interner,
    postings: HashMap<Symbol, Vec<Posting>>,
    doc_lengths: Vec<u32>,
    total_len: u64,
}

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
/// [`InvertedIndex`] and the passage postings (whether built from a
/// document store or from the QA indexation's analyses) all go through it.
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
/// by `df` of `num_docs` documents; always > 0.
pub(crate) fn bm25_idf(num_docs: usize, df: usize) -> f64 {
    let n = num_docs as f64;
    let df = df as f64;
    ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
}

impl InvertedIndex {
    /// Builds the index over a document store.
    pub fn build(lexicon: &Lexicon, store: &DocumentStore) -> InvertedIndex {
        let mut vocabulary = Interner::new();
        let mut postings: HashMap<Symbol, Vec<Posting>> = HashMap::new();
        let mut doc_lengths = Vec::with_capacity(store.len());
        let mut total_len = 0u64;
        for (doc, d) in store.iter() {
            let terms = index_terms(lexicon, &d.text);
            doc_lengths.push(terms.len() as u32);
            total_len += terms.len() as u64;
            let mut counts: HashMap<Symbol, u32> = HashMap::new();
            for term in &terms {
                *counts.entry(vocabulary.intern(term)).or_insert(0) += 1;
            }
            let mut counts: Vec<(Symbol, u32)> = counts.into_iter().collect();
            counts.sort_unstable();
            for (sym, tf) in counts {
                postings.entry(sym).or_default().push(Posting { doc, tf });
            }
        }
        InvertedIndex {
            vocabulary,
            postings,
            doc_lengths,
            total_len,
        }
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.doc_lengths.len()
    }

    /// Vocabulary size (distinct terms).
    pub fn num_terms(&self) -> usize {
        self.vocabulary.len()
    }

    /// The postings list of a term, if indexed. Already-folded terms
    /// (index lemmas, compiled query terms) are looked up without
    /// allocating.
    pub fn postings(&self, term: &str) -> Option<&[Posting]> {
        let sym = self.vocabulary.get(&dwqa_common::text::fold_cow(term))?;
        self.postings.get(&sym).map(Vec::as_slice)
    }

    /// Document frequency of a term.
    pub fn df(&self, term: &str) -> usize {
        self.postings(term).map_or(0, <[Posting]>::len)
    }

    /// Length (in index terms) of a document.
    pub fn doc_len(&self, doc: DocId) -> u32 {
        self.doc_lengths[doc.index()]
    }

    /// Mean document length.
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_lengths.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.doc_lengths.len() as f64
        }
    }

    /// Smoothed inverse document frequency (BM25 formulation).
    pub fn idf(&self, term: &str) -> f64 {
        bm25_idf(self.num_docs(), self.df(term))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{DocFormat, Document};
    use proptest::prelude::*;

    fn store(texts: &[&str]) -> DocumentStore {
        let mut s = DocumentStore::new();
        for (i, t) in texts.iter().enumerate() {
            s.add(Document::new(&format!("doc{i}"), DocFormat::Plain, "", t));
        }
        s
    }

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

    #[test]
    fn postings_record_frequencies() {
        let lx = Lexicon::english();
        let idx = InvertedIndex::build(
            &lx,
            &store(&[
                "temperature temperature weather",
                "weather in Barcelona",
                "sales of tickets",
            ]),
        );
        let postings = idx.postings("temperature").unwrap();
        assert_eq!(
            postings,
            &[Posting {
                doc: DocId(0),
                tf: 2
            }]
        );
        assert_eq!(idx.df("weather"), 2);
        assert_eq!(idx.df("barcelona"), 1);
        assert_eq!(idx.df("unseen"), 0);
        assert_eq!(idx.num_docs(), 3);
    }

    #[test]
    fn idf_orders_rare_above_common() {
        let lx = Lexicon::english();
        let idx = InvertedIndex::build(
            &lx,
            &store(&["weather weather", "weather Barcelona", "weather cold"]),
        );
        assert!(idx.idf("barcelona") > idx.idf("weather"));
    }

    #[test]
    fn doc_lengths_and_average() {
        let lx = Lexicon::english();
        let idx = InvertedIndex::build(&lx, &store(&["temperature weather", "Barcelona"]));
        assert_eq!(idx.doc_len(DocId(0)), 2);
        assert_eq!(idx.doc_len(DocId(1)), 1);
        assert!((idx.avg_doc_len() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_store_yields_empty_index() {
        let lx = Lexicon::english();
        let idx = InvertedIndex::build(&lx, &DocumentStore::new());
        assert_eq!(idx.num_docs(), 0);
        assert_eq!(idx.avg_doc_len(), 0.0);
    }
}
