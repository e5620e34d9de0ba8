//! The document-level inverted index the IR baselines rank with.

use dwqa_common::{Interner, Symbol};
use dwqa_ir::index::{bm25_idf, index_terms};
use dwqa_ir::{DocId, DocumentStore};
use dwqa_nlp::Lexicon;
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
/// Its terms are [`dwqa_ir::index::index_terms`] and its IDF is
/// [`dwqa_ir::index::bm25_idf`] — the serving path's own definitions.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    vocabulary: Interner,
    postings: HashMap<Symbol, Vec<Posting>>,
    doc_lengths: Vec<u32>,
    total_len: u64,
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
    use dwqa_ir::{DocFormat, Document};

    fn store(texts: &[&str]) -> DocumentStore {
        let mut s = DocumentStore::new();
        for (i, t) in texts.iter().enumerate() {
            s.add(Document::new(&format!("doc{i}"), DocFormat::Plain, "", t));
        }
        s
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
