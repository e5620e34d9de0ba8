//! Ranked document retrieval.

use crate::index::InvertedIndex;
use dwqa_ir::DocId;
use dwqa_nlp::Lexicon;
use std::collections::HashMap;

/// The similarity function used for ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Similarity {
    /// Okapi BM25 (k1 = 1.2, b = 0.75).
    Bm25,
    /// TF-IDF with cosine-style length normalisation.
    TfIdf,
}

/// One ranked search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// The matching document.
    pub doc: DocId,
    /// The similarity score (higher is better).
    pub score: f64,
}

const BM25_K1: f64 = 1.2;
const BM25_B: f64 = 0.75;

/// Scores all documents matching any query term, returning the top `k` in
/// descending score order (ties broken by ascending doc id, so results are
/// deterministic).
pub fn search(
    index: &InvertedIndex,
    lexicon: &Lexicon,
    query: &str,
    similarity: Similarity,
    k: usize,
) -> Vec<SearchHit> {
    let terms = dwqa_ir::index::index_terms(lexicon, query);
    search_terms(index, &terms, similarity, k)
}

/// Like [`search`], for a pre-normalised term list (the QA side passes the
/// lemmas of the question's main Syntactic Blocks directly).
pub fn search_terms(
    index: &InvertedIndex,
    terms: &[String],
    similarity: Similarity,
    k: usize,
) -> Vec<SearchHit> {
    let mut scores: HashMap<DocId, f64> = HashMap::new();
    let avgdl = index.avg_doc_len().max(1e-9);
    // Duplicate query terms add weight, as in standard bag-of-words.
    for term in terms {
        let idf = index.idf(term);
        let Some(postings) = index.postings(term) else {
            continue;
        };
        for p in postings {
            let tf = f64::from(p.tf);
            let dl = f64::from(index.doc_len(p.doc));
            let contribution = match similarity {
                Similarity::Bm25 => {
                    let denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avgdl);
                    idf * tf * (BM25_K1 + 1.0) / denom
                }
                Similarity::TfIdf => (1.0 + tf.ln()) * idf / dl.max(1.0).sqrt(),
            };
            *scores.entry(p.doc).or_insert(0.0) += contribution;
        }
    }
    let mut hits: Vec<SearchHit> = scores
        .into_iter()
        .map(|(doc, score)| SearchHit { doc, score })
        .collect();
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    });
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwqa_ir::{DocFormat, Document, DocumentStore};

    fn index(texts: &[&str]) -> (InvertedIndex, Lexicon) {
        let lx = Lexicon::english();
        let mut s = DocumentStore::new();
        for (i, t) in texts.iter().enumerate() {
            s.add(Document::new(&format!("doc{i}"), DocFormat::Plain, "", t));
        }
        (InvertedIndex::build(&lx, &s), lx)
    }

    #[test]
    fn relevant_documents_rank_first() {
        let (idx, lx) = index(&[
            "The weather in Barcelona with temperature readings for January.",
            "Ticket sales increased in the last minutes before a flight.",
            "Barcelona temperature in January was mild.",
        ]);
        for sim in [Similarity::Bm25, Similarity::TfIdf] {
            let hits = search(&idx, &lx, "temperature in January in Barcelona", sim, 3);
            assert!(!hits.is_empty());
            // Both weather documents outrank the sales document.
            let rank_of = |d: u32| hits.iter().position(|h| h.doc == DocId(d));
            let sales = rank_of(1);
            assert!(sales.is_none() || sales > rank_of(0).max(rank_of(2)));
        }
    }

    #[test]
    fn no_match_means_no_hits() {
        let (idx, lx) = index(&["weather in Barcelona"]);
        assert!(search(&idx, &lx, "volcano eruptions", Similarity::Bm25, 5).is_empty());
    }

    #[test]
    fn k_truncates_results() {
        let (idx, lx) = index(&["weather one", "weather two", "weather three"]);
        let hits = search(&idx, &lx, "weather", Similarity::Bm25, 2);
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn scores_are_descending_and_deterministic() {
        let (idx, lx) = index(&["weather weather weather", "weather", "weather weather"]);
        let hits = search(&idx, &lx, "weather", Similarity::Bm25, 10);
        for pair in hits.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        let again = search(&idx, &lx, "weather", Similarity::Bm25, 10);
        assert_eq!(hits, again);
    }

    #[test]
    fn rare_terms_dominate_ranking() {
        let (idx, lx) = index(&["weather weather weather weather", "weather Barcelona"]);
        let hits = search(&idx, &lx, "Barcelona weather", Similarity::Bm25, 2);
        assert_eq!(hits[0].doc, DocId(1));
    }

    #[test]
    fn empty_query_returns_nothing() {
        let (idx, lx) = index(&["weather in Barcelona"]);
        assert!(search(&idx, &lx, "", Similarity::Bm25, 5).is_empty());
        assert!(search(&idx, &lx, "the of and", Similarity::Bm25, 5).is_empty());
    }

    #[test]
    fn bm25_and_tfidf_agree_on_the_obvious_winner() {
        let (idx, lx) = index(&[
            "temperature temperature temperature Barcelona weather",
            "unrelated text about databases and reports",
        ]);
        for sim in [Similarity::Bm25, Similarity::TfIdf] {
            let hits = search(&idx, &lx, "temperature Barcelona", sim, 2);
            assert_eq!(hits[0].doc, DocId(0), "{sim:?}");
        }
    }

    #[test]
    fn search_terms_accepts_preanalysed_lemmas() {
        let (idx, _) = index(&["the temperature in Barcelona"]);
        let hits = search_terms(
            &idx,
            &["temperature".to_owned(), "barcelona".to_owned()],
            Similarity::Bm25,
            5,
        );
        assert_eq!(hits.len(), 1);
    }
}
