//! The indexation phase (Figure 3, left half).
//!
//! "There are two independent indexations, one for the QA process, and
//! another for the IR process." They are two index structures here too —
//! the linguistic analysis of every sentence for the QA process, and the
//! IR-n passage postings that filter the text the QA process works on —
//! but over **one** analysis: every sentence is split, tokenised and
//! tagged once, the QA side keeps the analysis, and the passage postings
//! are built from its tagged tokens. A passage's `first_sentence` is
//! therefore an index into [`QaIndex::doc_sentences`] by construction,
//! which is how the extractor finds the analysis of a retrieved sentence.

use dwqa_ir::{DocId, DocumentStore, PassageRetriever};
use dwqa_nlp::{analyze_text, AnalyzedSentence, Lexicon};

/// The indexed corpus: linguistic analyses + IR structures.
#[derive(Debug)]
pub struct QaIndex {
    /// Per document, per sentence: the full NLP analysis.
    sentences: Vec<Vec<AnalyzedSentence>>,
    /// The IR-n passage retriever, over the same sentences.
    pub passages: PassageRetriever,
}

impl QaIndex {
    /// Runs the indexation phase over a document store (the paper runs it
    /// "off-line … to speed up as much as possible the searching
    /// process").
    pub fn build(lexicon: &Lexicon, store: &DocumentStore, passage_window: usize) -> QaIndex {
        let sentences: Vec<Vec<AnalyzedSentence>> = store
            .iter()
            .map(|(_, d)| analyze_text(lexicon, &d.text))
            .collect();
        let passages = PassageRetriever::from_tagged(
            lexicon,
            sentences
                .iter()
                .map(|doc| doc.iter().map(|s| (s.text.clone(), s.tokens.as_slice()))),
            passage_window,
        );
        QaIndex {
            sentences,
            passages,
        }
    }

    /// The analysed sentences of a document.
    pub fn doc_sentences(&self, doc: DocId) -> &[AnalyzedSentence] {
        &self.sentences[doc.index()]
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.sentences.len()
    }

    /// Total number of analysed sentences.
    pub fn num_sentences(&self) -> usize {
        self.sentences.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwqa_ir::{DocFormat, Document};

    fn store() -> DocumentStore {
        let mut s = DocumentStore::new();
        s.add(Document::new(
            "a",
            DocFormat::Plain,
            "",
            "The temperature in Barcelona was 8º C. Clear skies all day.",
        ));
        s.add(Document::new(
            "b",
            DocFormat::Plain,
            "",
            "Last minute flights to Madrid were cheap.",
        ));
        s
    }

    #[test]
    fn build_analyses_every_sentence() {
        let lx = Lexicon::english();
        let idx = QaIndex::build(&lx, &store(), 8);
        assert_eq!(idx.num_docs(), 2);
        assert_eq!(idx.doc_sentences(DocId(0)).len(), 2);
        assert_eq!(idx.doc_sentences(DocId(1)).len(), 1);
        assert_eq!(idx.num_sentences(), 3);
        // The QA-side analysis carries entities…
        assert!(!idx.doc_sentences(DocId(0))[0].entities.is_empty());
        // …and the IR side indexes lemmas of the same sentences.
        assert_eq!(idx.passages.num_docs(), 2);
        let hits = idx.passages.retrieve(&["temperature".to_owned()], 5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, DocId(0));
        assert_eq!(idx.passages.window(), 8);
    }
}
