//! Test support: the reference implementation retrieval is checked
//! against. Not part of the serving path — the differential tests,
//! `benches/retrieval.rs` and `exp_retrieval_bench` call it.

use crate::document::DocId;
use crate::passage::{usable_weight, Passage, PassageRetriever};
use dwqa_common::text::fold_cow;
use std::borrow::Cow;
use std::cmp::Ordering;

/// The pre-postings exhaustive scan: slides a window over **every
/// sentence of every document** and scores each position.
/// [`PassageRetriever::retrieve_weighted`] must return exactly this —
/// documents, sentences, score bits and order.
pub fn retrieve_weighted_exhaustive(
    retriever: &PassageRetriever,
    terms: &[(String, f64)],
    k: usize,
) -> Vec<Passage> {
    // The original O(q²) first-occurrence dedup, over case-folded terms
    // (out-of-vocabulary terms keep a slot and simply never match, exactly
    // like the old string sets). The IDF is the retriever's own table;
    // `tests/retrieval_bound.rs` holds that table to the baselines'
    // `InvertedIndex::idf`.
    let query: Vec<(Cow<'_, str>, f64)> = {
        let mut distinct: Vec<(Cow<'_, str>, f64)> = Vec::new();
        for (t, w) in terms.iter().filter(|(_, w)| usable_weight(*w)) {
            let t = fold_cow(t);
            match distinct.iter_mut().find(|(d, _)| *d == t) {
                Some(entry) => entry.1 = entry.1.max(*w),
                None => distinct.push((t, *w)),
            }
        }
        distinct
            .into_iter()
            .map(|(t, w)| {
                let idf = retriever.idf(&t);
                (t, w * idf)
            })
            .collect()
    };
    let window = retriever.window();
    let mut best: Vec<Passage> = Vec::new();
    for (doc_idx, sents) in retriever.sentences.iter().enumerate() {
        let mut candidates: Vec<(f64, usize, usize)> = Vec::new(); // (score, start, len)
        let n = sents.len();
        if n == 0 {
            continue;
        }
        // Per query term, the sentences of this document that hold it.
        let holding: Vec<&[u32]> = query
            .iter()
            .map(|(t, _)| retriever.sentences_holding(t, doc_idx as u32))
            .collect();
        let contains =
            |sent: usize, term: usize| holding[term].binary_search(&(sent as u32)).is_ok();
        let starts = if n > window { n - window + 1 } else { 1 };
        for start in 0..starts {
            let end = (start + window).min(n);
            let mut score = 0.0;
            for (term, &(_, idf)) in query.iter().enumerate() {
                if (start..end).any(|s| contains(s, term)) {
                    score += idf;
                }
            }
            if score <= 0.0 {
                continue;
            }
            let mut best_sentence = 0.0f64;
            let mut best_pos = 0usize;
            for (pos, s) in (start..end).enumerate() {
                let hit: f64 = query
                    .iter()
                    .enumerate()
                    .filter(|&(term, _)| contains(s, term))
                    .map(|(_, &(_, idf))| idf)
                    .sum();
                if hit > best_sentence {
                    best_sentence = hit;
                    best_pos = pos;
                }
            }
            score += 0.5 * best_sentence;
            let len = (end - start).max(1) as f64;
            score += 0.01 * best_sentence * (1.0 - best_pos as f64 / len);
            candidates.push((score, start, end - start));
        }
        candidates.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        let mut taken: Vec<(usize, usize)> = Vec::new();
        for (score, start, len) in candidates {
            if taken.len() == PassageRetriever::PER_DOC {
                break;
            }
            let overlaps = taken.iter().any(|&(s, l)| start < s + l && s < start + len);
            if overlaps {
                continue;
            }
            taken.push((start, len));
            best.push(Passage {
                doc: DocId(doc_idx as u32),
                first_sentence: start,
                sentences: sents[start..start + len].to_vec(),
                score,
            });
        }
    }
    best.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    });
    best.truncate(k);
    best
}
