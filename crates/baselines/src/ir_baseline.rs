//! The plain-IR baseline.
//!
//! What the pre-QA integrations the paper criticises actually deliver:
//! "IR returns whole documents, in which the user has to further search
//! for his/her request". The baseline runs the same retrieval machinery
//! but stops there — its output is text, never a typed tuple — so the
//! comparison experiments can quantify the difference (structured-output
//! precision of 0, reading burden in characters, but very low latency).

use crate::index::InvertedIndex;
use crate::search::{search, Similarity};
use dwqa_ir::{DocumentStore, Passage, PassageRetriever};
use dwqa_nlp::Lexicon;

/// An IR result: a document or passage the user still has to read.
#[derive(Debug, Clone, PartialEq)]
pub struct IrResult {
    /// Source URL.
    pub url: String,
    /// The returned text (whole document or best passage).
    pub text: String,
    /// Retrieval score.
    pub score: f64,
}

impl IrResult {
    /// The user's reading burden, in characters.
    pub fn reading_burden(&self) -> usize {
        self.text.chars().count()
    }

    /// Whether the needle (e.g. the known true answer) occurs in the
    /// returned text — the best an IR user can hope for.
    pub fn contains_answer(&self, needle: &str) -> bool {
        dwqa_common::text::fold(&self.text).contains(&dwqa_common::text::fold(needle))
    }
}

/// A keyword-IR system over the shared index.
pub struct IrBaseline {
    lexicon: Lexicon,
    index: InvertedIndex,
    passages: PassageRetriever,
    urls: Vec<String>,
    texts: Vec<String>,
}

impl IrBaseline {
    /// Indexes the corpus (stop words discarded, as the paper notes).
    pub fn build(store: &DocumentStore) -> IrBaseline {
        let lexicon = Lexicon::english();
        let index = InvertedIndex::build(&lexicon, store);
        let passages = PassageRetriever::build(&lexicon, store, PassageRetriever::DEFAULT_WINDOW);
        IrBaseline {
            lexicon,
            index,
            passages,
            urls: store.iter().map(|(_, d)| d.url.clone()).collect(),
            texts: store.iter().map(|(_, d)| d.text.clone()).collect(),
        }
    }

    /// Document-level retrieval: returns whole documents.
    pub fn search_documents(&self, query: &str, k: usize) -> Vec<IrResult> {
        search(&self.index, &self.lexicon, query, Similarity::Bm25, k)
            .into_iter()
            .map(|h| IrResult {
                url: self.urls[h.doc.index()].clone(),
                text: self.texts[h.doc.index()].clone(),
                score: h.score,
            })
            .collect()
    }

    /// Passage-level retrieval: the best the IR side offers.
    pub fn search_passages(&self, query: &str, k: usize) -> Vec<IrResult> {
        self.passages
            .retrieve_text(&self.lexicon, query, k)
            .into_iter()
            .map(|p: Passage| IrResult {
                url: self.urls[p.doc.index()].clone(),
                text: p.text(),
                score: p.score,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwqa_ir::{DocFormat, Document};

    fn store() -> DocumentStore {
        let mut s = DocumentStore::new();
        s.add(Document::new(
            "weather",
            DocFormat::Plain,
            "",
            "Saturday, January 31, 2004. Barcelona Weather: Temperature 8º C around 46.4 F. \
             More filler sentences follow here. And even more filler text. Plus some more. \
             Another filler sentence. Yet another one. One more for good measure. Final one.",
        ));
        s.add(Document::new(
            "news",
            DocFormat::Plain,
            "",
            "The president travelled to Washington yesterday.",
        ));
        s
    }

    #[test]
    fn ir_returns_text_not_tuples() {
        let ir = IrBaseline::build(&store());
        let results = ir.search_documents("temperature Barcelona January", 2);
        assert_eq!(results[0].url, "weather");
        assert!(results[0].contains_answer("8º C"));
        // The user still has to read the whole thing.
        assert!(results[0].reading_burden() > 100);
    }

    #[test]
    fn passages_shrink_the_burden_but_stay_text() {
        let ir = IrBaseline::build(&store());
        let docs = ir.search_documents("temperature Barcelona", 1);
        let passages = ir.search_passages("temperature Barcelona", 1);
        assert!(!passages.is_empty());
        assert!(passages[0].reading_burden() <= docs[0].reading_burden());
        assert!(passages[0].contains_answer("8º C"));
    }

    #[test]
    fn no_match_returns_empty() {
        let ir = IrBaseline::build(&store());
        assert!(ir.search_documents("volcano", 3).is_empty());
    }
}
