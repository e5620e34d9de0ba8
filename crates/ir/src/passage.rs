//! IR-n passage retrieval.
//!
//! IR-n (the paper's reference \[9\], AliQAn's Module 2 back end) ranks
//! *passages* — windows of `n` consecutive sentences — instead of whole
//! documents, so the QA extractor works on a small, dense piece of text.
//! The paper's footnote 6 fixes `n = 8` for its experiment; the window
//! size is a parameter here (and is swept in the benchmark suite).
//!
//! ## Score-bounded top-k evaluation
//!
//! Retrieval is driven by **sentence-level postings** (`Symbol →
//! sentences`, grouped into one run per document, built once at index
//! time from already-tagged sentences — [`PassageRetriever::from_tagged`]),
//! in the spirit of classic inverted-file top-k query evaluation. The
//! postings also give each term's IDF: one run per document holding the
//! term means the run count is its document frequency. A query is
//! compiled once into interned symbols with IDF-scaled
//! weights ([`PassageQuery`]); the runs of its terms give the candidate
//! documents and, per candidate, an upper bound on the score of any of
//! its windows; candidates are visited best bound first and the visit
//! stops at the first document whose bound is below the worst of the `k`
//! windows already held. Documents containing no query term are never
//! touched, and of the candidates only those that can still reach the
//! top `k` have their windows scored. The pre-postings exhaustive scan
//! lives in [`crate::testing`] — the reference implementation the
//! equivalence tests and the `benches/retrieval.rs` baseline run against.

use crate::document::{DocId, DocumentStore};
use crate::index::{bm25_idf, index_terms, tag_text, tagged_terms};
use dwqa_common::text::fold_cow;
use dwqa_common::{Interner, Symbol};
use dwqa_nlp::{Lexicon, TaggedToken};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// A retrieved passage.
#[derive(Debug, Clone, PartialEq)]
pub struct Passage {
    /// The source document.
    pub doc: DocId,
    /// Index of the first sentence of the window.
    pub first_sentence: usize,
    /// The sentences of the window.
    pub sentences: Vec<String>,
    /// Retrieval score.
    pub score: f64,
}

impl Passage {
    /// The passage text (sentences joined). Allocates; callers that only
    /// need to scan sentences should iterate [`Passage::sentences`] or
    /// use [`Passage::contains_folded`] instead.
    pub fn text(&self) -> String {
        self.sentences.join(" ")
    }

    /// Whether any sentence of the passage contains `needle` after case
    /// folding — without materialising the joined passage text.
    pub fn contains_folded(&self, needle: &str) -> bool {
        let needle = dwqa_common::text::fold(needle);
        self.sentences
            .iter()
            .any(|s| dwqa_common::text::fold(s).contains(&needle))
    }
}

/// One document's run inside a term's sentence postings:
/// `sents[lo..hi]` are the sentences of `doc` that contain the term.
#[derive(Debug, Clone, Copy)]
struct DocRun {
    doc: u32,
    lo: u32,
    hi: u32,
}

/// The sentence-level postings of one term.
#[derive(Debug, Clone, Default)]
struct TermPostings {
    /// One run per document holding the term, documents ascending — the
    /// document-level skip index over `sents`.
    runs: Vec<DocRun>,
    /// Sentence numbers, ascending within each run.
    sents: Vec<u32>,
}

impl TermPostings {
    /// The sentences of `doc` that contain the term (empty if none).
    fn sentences_in(&self, doc: u32) -> &[u32] {
        match self.runs.binary_search_by_key(&doc, |r| r.doc) {
            Ok(i) => &self.sents[self.runs[i].lo as usize..self.runs[i].hi as usize],
            Err(_) => &[],
        }
    }
}

/// Whether a caller-supplied term weight may enter a query: finite and
/// not negative. The score bound sums weights and needs them to be
/// ordered numbers that never lower a sum; the exhaustive reference in
/// [`crate::testing`] drops the same occurrences.
pub(crate) fn usable_weight(weight: f64) -> bool {
    weight.is_finite() && weight >= 0.0
}

/// A query compiled against a retriever's vocabulary: distinct terms
/// resolved to symbols (first-occurrence order, duplicate weights merged
/// by max) with the term's IDF baked into the weight. Terms outside the
/// vocabulary occur in no sentence and are dropped at compile time, and
/// so are terms whose weight is negative or not finite — every compiled
/// weight is ≥ 0 and never NaN, which the retrieval bound relies on.
///
/// Compiling interns nothing and clones no strings — the query side of
/// retrieval is allocation-free per term.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassageQuery {
    /// `(symbol, weight × idf)` in first-occurrence order.
    terms: Vec<(Symbol, f64)>,
}

impl PassageQuery {
    /// Number of distinct in-vocabulary terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether no query term is in the retriever's vocabulary.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

/// Counters from one retrieval: how much of the corpus the postings and
/// the score bound allowed the scorer to skip. Rendered by the engine's
/// `:stats` as the candidate-set / pruning read-out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrievalStats {
    /// Documents in the corpus.
    pub docs_total: usize,
    /// Documents containing at least one query term
    /// (`docs_scored + docs_bound_skipped`).
    pub docs_candidate: usize,
    /// Documents containing no query term (`docs_total - docs_candidate`).
    pub docs_pruned: usize,
    /// Candidates whose windows were scored.
    pub docs_scored: usize,
    /// Candidates cut by the score bound: none of their windows could
    /// have entered the top `k`.
    pub docs_bound_skipped: usize,
    /// Windows whose score was computed.
    pub windows_scored: usize,
}

/// A candidate ranked for top-k selection: a window with its score, or
/// (with `start = len = 0`) a whole document with its score bound. The
/// ordering is the total order the final ranking uses: score descending,
/// then document ascending, then start ascending — `a > b` means `a`
/// ranks better.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    score: f64,
    doc: u32,
    start: u32,
    len: u32,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Ranked) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Ranked) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Ranked) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.doc.cmp(&self.doc))
            .then_with(|| other.start.cmp(&self.start))
    }
}

/// Precomputed sentence structure for passage retrieval.
#[derive(Debug, Clone)]
pub struct PassageRetriever {
    /// The term vocabulary (index-term strings → symbols).
    vocabulary: Interner,
    /// Per document: the sentence list.
    pub(crate) sentences: Vec<Vec<String>>,
    /// Per symbol (by index): the sentence-level postings.
    postings: Vec<TermPostings>,
    /// Per symbol (by index): the term's IDF over this corpus.
    idf: Vec<f64>,
    /// Window size in sentences (the paper uses 8).
    window: usize,
}

impl PassageRetriever {
    /// Default window size (paper footnote 6).
    pub const DEFAULT_WINDOW: usize = 8;

    /// Up to this many non-overlapping windows may come from one
    /// document (a month-long weather page has several relevant spots).
    pub(crate) const PER_DOC: usize = 3;

    /// Builds the retriever over a document store: splits and tags each
    /// document, then [`PassageRetriever::from_tagged`].
    pub fn build(lexicon: &Lexicon, store: &DocumentStore, window: usize) -> PassageRetriever {
        Self::from_tagged(
            lexicon,
            store.iter().map(|(_, doc)| tag_text(lexicon, &doc.text)),
            window,
        )
    }

    /// Builds the retriever over already-tagged sentences: `docs` yields
    /// the documents in [`DocId`] order, each one its sentences in order
    /// as `(text, tagged tokens)`. Sentence `i` of a document is sentence
    /// `i` of every [`Passage`] cut from it, so a caller that keeps the
    /// analyses it passes in (the QA indexation) can address them by
    /// [`Passage::first_sentence`]. One document is posted at a time; the
    /// index terms of a sentence are its [`tagged_terms`].
    pub fn from_tagged<D, S, T>(lexicon: &Lexicon, docs: D, window: usize) -> PassageRetriever
    where
        D: IntoIterator<Item = S>,
        S: IntoIterator<Item = (String, T)>,
        T: Borrow<[TaggedToken]>,
    {
        let mut vocabulary = Interner::new();
        let mut sentences: Vec<Vec<String>> = Vec::new();
        let mut postings: Vec<TermPostings> = Vec::new();
        let mut syms: Vec<Symbol> = Vec::new();
        for (doc, tagged) in docs.into_iter().enumerate() {
            let doc = doc as u32;
            let mut sents = Vec::new();
            for (sent, (text, tokens)) in tagged.into_iter().enumerate() {
                syms.clear();
                syms.extend(tagged_terms(lexicon, tokens.borrow()).map(|t| vocabulary.intern(&t)));
                syms.sort_unstable();
                syms.dedup();
                postings.resize(vocabulary.len(), TermPostings::default());
                for &sym in &syms {
                    let term = &mut postings[sym.index()];
                    let at = term.sents.len() as u32;
                    match term.runs.last_mut() {
                        Some(run) if run.doc == doc => run.hi = at + 1,
                        _ => term.runs.push(DocRun {
                            doc,
                            lo: at,
                            hi: at + 1,
                        }),
                    }
                    term.sents.push(sent as u32);
                }
                sents.push(text);
            }
            sentences.push(sents);
        }
        // A term has one run per document holding it, so the run count is
        // its document frequency.
        let idf = postings
            .iter()
            .map(|term| bm25_idf(sentences.len(), term.runs.len()))
            .collect();
        PassageRetriever {
            vocabulary,
            sentences,
            postings,
            idf,
            window: window.max(1),
        }
    }

    /// The configured window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of indexed documents.
    pub fn num_docs(&self) -> usize {
        self.sentences.len()
    }

    /// Vocabulary size (distinct sentence-level index terms).
    pub fn num_terms(&self) -> usize {
        self.vocabulary.len()
    }

    /// The sentences of document `doc`, in the numbering
    /// [`Passage::first_sentence`] uses.
    pub fn doc_sentences(&self, doc: DocId) -> &[String] {
        &self.sentences[doc.index()]
    }

    /// Resolves a term against the vocabulary after case folding;
    /// already-folded terms (index lemmas, the QA side's query terms)
    /// are looked up without allocating.
    fn symbol(&self, term: &str) -> Option<Symbol> {
        self.vocabulary.get(&fold_cow(term))
    }

    /// Smoothed inverse document frequency (BM25 formulation) of a term
    /// over the indexed documents — bit for bit what the baselines'
    /// document-level `InvertedIndex::idf` returns over the same store
    /// (`tests/retrieval_bound.rs`).
    pub fn idf(&self, term: &str) -> f64 {
        match self.symbol(term) {
            Some(sym) => self.idf[sym.index()],
            None => bm25_idf(self.sentences.len(), 0),
        }
    }

    /// The sentences of document `doc` that hold `term`, ascending — the
    /// view of the postings the exhaustive reference in
    /// [`crate::testing`] tests membership against.
    pub(crate) fn sentences_holding(&self, term: &str, doc: u32) -> &[u32] {
        match self.symbol(term) {
            Some(sym) => self.postings[sym.index()].sentences_in(doc),
            None => &[],
        }
    }

    /// Compiles a weighted term sequence into a [`PassageQuery`]: terms
    /// are case-folded, duplicates are merged (max weight,
    /// first-occurrence order kept), out-of-vocabulary terms and
    /// occurrences with an unusable weight (`usable_weight`) are
    /// dropped, and each surviving term's weight is scaled by its IDF
    /// (which is > 0). No strings are interned, and none are cloned
    /// unless a term needs folding — terms are resolved against the
    /// existing vocabulary.
    pub fn compile_query<'a, I>(&self, terms: I) -> PassageQuery
    where
        I: IntoIterator<Item = (&'a str, f64)>,
    {
        let mut distinct: Vec<(Symbol, f64)> = Vec::new();
        let mut slot: HashMap<Symbol, usize> = HashMap::new();
        for (term, weight) in terms {
            if !usable_weight(weight) {
                continue;
            }
            let Some(sym) = self.symbol(term) else {
                continue; // occurs in no sentence: contributes 0 everywhere
            };
            match slot.get(&sym) {
                Some(&i) => distinct[i].1 = distinct[i].1.max(weight),
                None => {
                    slot.insert(sym, distinct.len());
                    distinct.push((sym, weight));
                }
            }
        }
        for (sym, weight) in &mut distinct {
            *weight *= self.idf[sym.index()];
        }
        PassageQuery { terms: distinct }
    }

    /// Retrieves the best passage of each matching document, ranked by
    /// score; at most `k` passages. Scores are sums of the IDF of the
    /// distinct query terms present in the window, so rare terms
    /// ("barcelona") dominate frequent ones.
    pub fn retrieve(&self, terms: &[String], k: usize) -> Vec<Passage> {
        let query = self.compile_query(terms.iter().map(|t| (t.as_str(), 1.0)));
        self.retrieve_query(&query, k).0
    }

    /// Like [`PassageRetriever::retrieve`], with a per-term weight
    /// multiplying the term's IDF. The QA side uses this to make the
    /// question's *date* terms dominate window selection.
    pub fn retrieve_weighted(&self, terms: &[(String, f64)], k: usize) -> Vec<Passage> {
        let query = self.compile_query(terms.iter().map(|(t, w)| (t.as_str(), *w)));
        self.retrieve_query(&query, k).0
    }

    /// The retrieval core: gathers the candidate documents and their score
    /// bounds from the posting runs, scores windows around matching
    /// sentences of the candidates that can still reach the top `k`, and
    /// selects the global top `k` with a bounded heap. Returns the ranked
    /// passages plus the pruning counters.
    ///
    /// Rank- and score-identical to
    /// [`crate::testing::retrieve_weighted_exhaustive`] (the tests in this
    /// crate prove byte-identical output).
    pub fn retrieve_query(&self, query: &PassageQuery, k: usize) -> (Vec<Passage>, RetrievalStats) {
        let span = dwqa_obs::span!("retrieve", k);
        let (passages, stats) = self.retrieve_query_core(query, k);
        span.record("docs_total", stats.docs_total);
        span.record("docs_candidate", stats.docs_candidate);
        span.record("docs_pruned", stats.docs_pruned);
        span.record("docs_scored", stats.docs_scored);
        span.record("docs_bound_skipped", stats.docs_bound_skipped);
        span.record("windows_scored", stats.windows_scored);
        span.record("returned", passages.len());
        dwqa_obs::counter_add(dwqa_obs::names::RETRIEVAL_COUNT, 1);
        dwqa_obs::counter_add(
            dwqa_obs::names::RETRIEVAL_DOCS_TOTAL,
            stats.docs_total as u64,
        );
        dwqa_obs::counter_add(
            dwqa_obs::names::RETRIEVAL_DOCS_CANDIDATE,
            stats.docs_candidate as u64,
        );
        dwqa_obs::counter_add(
            dwqa_obs::names::RETRIEVAL_DOCS_PRUNED,
            stats.docs_pruned as u64,
        );
        dwqa_obs::counter_add(
            dwqa_obs::names::RETRIEVAL_DOCS_SCORED,
            stats.docs_scored as u64,
        );
        dwqa_obs::counter_add(
            dwqa_obs::names::RETRIEVAL_DOCS_BOUND_SKIPPED,
            stats.docs_bound_skipped as u64,
        );
        dwqa_obs::counter_add(
            dwqa_obs::names::RETRIEVAL_WINDOWS_SCORED,
            stats.windows_scored as u64,
        );
        (passages, stats)
    }

    /// The uninstrumented retrieval core behind
    /// [`PassageRetriever::retrieve_query`].
    fn retrieve_query_core(
        &self,
        query: &PassageQuery,
        k: usize,
    ) -> (Vec<Passage>, RetrievalStats) {
        let mut stats = RetrievalStats {
            docs_total: self.sentences.len(),
            docs_pruned: self.sentences.len(),
            ..RetrievalStats::default()
        };
        if query.terms.is_empty() || k == 0 {
            return (Vec::new(), stats);
        }

        // Candidate documents (any document holding ≥ 1 query term), each
        // with `held` = the summed weights of the query terms it holds.
        // The sum runs in query-term order from 0.0, exactly like a
        // window's score and a sentence's hit weight below, which add a
        // subset of the same non-negative weights in the same order — so
        // by monotonicity of floating-point addition neither can exceed
        // `held`, rounding included.
        const NOT_A_CANDIDATE: f64 = -1.0;
        let mut held: Vec<f64> = vec![NOT_A_CANDIDATE; self.sentences.len()];
        let mut candidates: Vec<u32> = Vec::new();
        for &(sym, weight) in &query.terms {
            for run in &self.postings[sym.index()].runs {
                let sum = &mut held[run.doc as usize];
                if *sum == NOT_A_CANDIDATE {
                    candidates.push(run.doc);
                    *sum = 0.0;
                }
                *sum += weight;
            }
        }
        stats.docs_candidate = candidates.len();
        stats.docs_pruned = stats.docs_total - candidates.len();

        // No window of a document scores above its bound: the window sum,
        // the proximity bonus and the position bonus are each built from a
        // value ≤ `held` by the operations that build the bound. Best
        // bound first; equal bounds by document ascending.
        let mut by_bound: BinaryHeap<Ranked> = candidates
            .iter()
            .map(|&doc| {
                let held = held[doc as usize];
                let mut bound = held;
                bound += 0.5 * held;
                bound += 0.01 * held;
                Ranked {
                    score: bound,
                    doc,
                    start: 0,
                    len: 0,
                }
            })
            .collect();

        // Scratch, reused across documents.
        let mut term_sents: Vec<&[u32]> = vec![&[]; query.terms.len()];
        let mut per_term_ptr: Vec<usize> = vec![0; query.terms.len()];
        let mut matched: Vec<u32> = Vec::new();
        let mut hits: Vec<f64> = Vec::new();
        let mut windows: Vec<Ranked> = Vec::new();
        let mut taken: Vec<(u32, u32)> = Vec::with_capacity(Self::PER_DOC);
        // Bounded min-heap: the worst of the current top-k on top.
        let mut top: BinaryHeap<std::cmp::Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);

        while let Some(candidate) = by_bound.pop() {
            // Once k windows are held, a document bounded strictly below
            // the worst of them cannot place a window, nor can any later
            // one. An equal bound is still visited: a tie on score goes
            // to the lower document.
            if top.len() == k
                && top
                    .peek()
                    .is_some_and(|worst| candidate.score < worst.0.score)
            {
                break;
            }
            stats.docs_scored += 1;
            let doc = candidate.doc;
            let n = self.sentences[doc as usize].len();
            // This document's sentences inside each term's postings.
            for (sents, &(sym, _)) in term_sents.iter_mut().zip(&query.terms) {
                *sents = self.postings[sym.index()].sentences_in(doc);
            }
            // Matching sentences (sorted, distinct) and their per-sentence
            // hit weights, accumulated in query-term order so floating-
            // point sums match the exhaustive reference bit for bit.
            matched.clear();
            for sents in &term_sents {
                matched.extend_from_slice(sents);
            }
            matched.sort_unstable();
            matched.dedup();
            hits.clear();
            hits.resize(matched.len(), 0.0);
            for (sents, &(_, weight)) in term_sents.iter().zip(&query.terms) {
                for sent in *sents {
                    let mi = matched
                        .binary_search(sent)
                        .expect("matched holds every posted sentence");
                    hits[mi] += weight;
                }
            }

            let starts_count = if n > self.window {
                n - self.window + 1
            } else {
                1
            };
            // Candidate starts: union of the start ranges around each
            // matching sentence, walked in ascending order.
            windows.clear();
            per_term_ptr.fill(0);
            let mut matched_ptr = 0usize;
            let mut next_start = 0usize;
            for &sent in &matched {
                let sent = sent as usize;
                let lo = (sent + 1).saturating_sub(self.window).max(next_start);
                let hi = sent.min(starts_count - 1);
                if lo > hi {
                    continue;
                }
                for start in lo..=hi {
                    let end = (start + self.window).min(n);
                    // Term presence via the per-term sentence cursors:
                    // summed in query order (float-identical to the
                    // exhaustive scan).
                    let mut score = 0.0;
                    for (ti, &(_, weight)) in query.terms.iter().enumerate() {
                        let sents = term_sents[ti];
                        let mut p = per_term_ptr[ti];
                        while p < sents.len() && (sents[p] as usize) < start {
                            p += 1;
                        }
                        per_term_ptr[ti] = p;
                        if p < sents.len() && (sents[p] as usize) < end {
                            score += weight;
                        }
                    }
                    stats.windows_scored += 1;
                    if score <= 0.0 {
                        continue;
                    }
                    // Proximity bonus: query terms co-occurring in one
                    // sentence are worth more than the same terms
                    // scattered over the window (this is what pins a
                    // dated question to the right day of a month-long
                    // weather page).
                    while matched_ptr < matched.len() && (matched[matched_ptr] as usize) < start {
                        matched_ptr += 1;
                    }
                    let mut best_sentence = 0.0f64;
                    let mut best_pos = 0usize;
                    let mut mi = matched_ptr;
                    while mi < matched.len() && (matched[mi] as usize) < end {
                        if hits[mi] > best_sentence {
                            best_sentence = hits[mi];
                            best_pos = matched[mi] as usize - start;
                        }
                        mi += 1;
                    }
                    score += 0.5 * best_sentence;
                    // Positional tie-break: among windows containing the
                    // same best-matching sentence, prefer the one where it
                    // appears early, so the sentences *after* it (where
                    // the answer to a dated heading lives) stay inside
                    // the window.
                    let len = (end - start).max(1) as f64;
                    score += 0.01 * best_sentence * (1.0 - best_pos as f64 / len);
                    windows.push(Ranked {
                        score,
                        doc,
                        start: start as u32,
                        len: (end - start) as u32,
                    });
                }
                next_start = hi + 1;
            }
            // Greedy non-overlapping selection of the doc's best windows.
            windows.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(Ordering::Equal)
                    .then(a.start.cmp(&b.start))
            });
            taken.clear();
            for &w in &windows {
                if taken.len() == Self::PER_DOC {
                    break;
                }
                let overlaps = taken
                    .iter()
                    .any(|&(s, l)| w.start < s + l && s < w.start + w.len);
                if overlaps {
                    continue;
                }
                taken.push((w.start, w.len));
                if top.len() < k {
                    top.push(std::cmp::Reverse(w));
                } else if let Some(&std::cmp::Reverse(worst)) = top.peek() {
                    if w > worst {
                        top.pop();
                        top.push(std::cmp::Reverse(w));
                    }
                }
            }
        }
        stats.docs_bound_skipped = stats.docs_candidate - stats.docs_scored;

        // Materialise the survivors best-first; sentence strings are
        // cloned only for the k passages actually returned.
        let mut best: Vec<Ranked> = top.into_iter().map(|r| r.0).collect();
        best.sort_by(|a, b| b.cmp(a));
        let passages = best
            .into_iter()
            .map(|r| {
                let start = r.start as usize;
                let len = r.len as usize;
                Passage {
                    doc: DocId(r.doc),
                    first_sentence: start,
                    sentences: self.sentences[r.doc as usize][start..start + len].to_vec(),
                    score: r.score,
                }
            })
            .collect();
        (passages, stats)
    }

    /// Convenience: analyse a free-text query with the lexicon, then
    /// retrieve.
    pub fn retrieve_text(&self, lexicon: &Lexicon, query: &str, k: usize) -> Vec<Passage> {
        self.retrieve(&index_terms(lexicon, query), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{DocFormat, Document};
    use crate::testing::retrieve_weighted_exhaustive;
    use proptest::prelude::*;

    fn setup(texts: &[&str], window: usize) -> (PassageRetriever, Lexicon) {
        let lx = Lexicon::english();
        let mut s = DocumentStore::new();
        for (i, t) in texts.iter().enumerate() {
            s.add(Document::new(&format!("doc{i}"), DocFormat::Plain, "", t));
        }
        (PassageRetriever::build(&lx, &s, window), lx)
    }

    #[test]
    fn finds_the_dense_window() {
        let long_doc = "Filler sentence one. Filler sentence two. Filler sentence three. \
            Filler sentence four. The temperature in Barcelona was 8 degrees. \
            January readings were mild. Filler sentence five. Filler sentence six. \
            Filler sentence seven. Filler sentence eight. Filler sentence nine.";
        let (pr, lx) = setup(&[long_doc], 2);
        let passages = pr.retrieve_text(&lx, "temperature Barcelona January", 3);
        assert_eq!(passages.len(), 1);
        let text = passages[0].text();
        assert!(text.contains("Barcelona"));
        assert!(text.contains("January"));
        assert_eq!(passages[0].sentences.len(), 2);
    }

    #[test]
    fn window_never_exceeds_document() {
        let (pr, lx) = setup(&["Only one sentence about weather."], 8);
        let passages = pr.retrieve_text(&lx, "weather", 3);
        assert_eq!(passages.len(), 1);
        assert_eq!(passages[0].sentences.len(), 1);
        assert_eq!(passages[0].first_sentence, 0);
    }

    #[test]
    fn one_passage_per_document_ranked_across_documents() {
        let (pr, lx) = setup(
            &[
                "The weather is nice. Nothing else here.",
                "Barcelona weather today. The temperature in Barcelona is 8 degrees.",
                "Completely unrelated text about databases.",
            ],
            8,
        );
        let passages = pr.retrieve_text(&lx, "temperature Barcelona weather", 5);
        assert_eq!(passages.len(), 2);
        assert_eq!(passages[0].doc, DocId(1));
        assert!(passages[0].score > passages[1].score);
    }

    #[test]
    fn no_matching_terms_no_passages() {
        let (pr, lx) = setup(&["The weather is nice."], 8);
        assert!(pr.retrieve_text(&lx, "volcano", 3).is_empty());
    }

    #[test]
    fn duplicate_query_terms_do_not_double_count() {
        let (pr, _) = setup(&["weather here. weather there."], 1);
        let a = pr.retrieve(&["weather".to_owned()], 1);
        let b = pr.retrieve(&["weather".to_owned(), "weather".to_owned()], 1);
        assert_eq!(a[0].score, b[0].score);
    }

    #[test]
    fn default_window_is_paper_setting() {
        assert_eq!(PassageRetriever::DEFAULT_WINDOW, 8);
    }

    #[test]
    fn pruning_counters_report_untouched_documents() {
        let (pr, _) = setup(
            &[
                "Barcelona weather today.",
                "Completely unrelated text about databases.",
                "More unrelated filler about engines.",
            ],
            4,
        );
        let query = pr.compile_query([("barcelona", 1.0)]);
        let (passages, stats) = pr.retrieve_query(&query, 5);
        assert_eq!(passages.len(), 1);
        assert_eq!(stats.docs_total, 3);
        assert_eq!(stats.docs_candidate, 1);
        assert_eq!(stats.docs_pruned, 2);
        assert!(stats.windows_scored >= 1);
    }

    /// Every candidate is either scored or cut by the bound, and the
    /// shared registry sees both counts.
    #[test]
    fn bound_counters_partition_the_candidates_and_reach_the_registry() {
        let (pr, _) = setup(
            &[
                "Rain in the morning.",
                "Barcelona rain and Barcelona weather.",
                "Weather report with rain.",
                "Completely unrelated text about databases.",
            ],
            4,
        );
        let query = pr.compile_query([("barcelona", 1.0), ("rain", 1.0), ("weather", 1.0)]);
        let registry = std::sync::Arc::new(dwqa_obs::MetricsRegistry::new());
        let guard = dwqa_obs::observe(Some(registry.clone()), None, "test", "retrieval");
        let (passages, stats) = pr.retrieve_query(&query, 1);
        drop(guard);
        assert_eq!(passages[0].doc, DocId(1));
        assert_eq!(stats.docs_candidate, 3);
        assert_eq!(
            stats.docs_scored, 1,
            "the best-bounded document fills k = 1"
        );
        assert_eq!(stats.docs_bound_skipped, 2);
        for (name, want) in [
            (dwqa_obs::names::RETRIEVAL_DOCS_CANDIDATE, 3),
            (dwqa_obs::names::RETRIEVAL_DOCS_SCORED, 1),
            (dwqa_obs::names::RETRIEVAL_DOCS_BOUND_SKIPPED, 2),
        ] {
            assert_eq!(registry.counter_value(name), want, "{name}");
        }
    }

    #[test]
    fn compiled_query_drops_unknown_terms_and_merges_duplicates() {
        let (pr, _) = setup(&["weather here. weather there."], 1);
        let query = pr.compile_query([("weather", 1.0), ("volcano", 9.0), ("weather", 3.0)]);
        assert_eq!(query.len(), 1);
        let empty = pr.compile_query([("volcano", 1.0)]);
        assert!(empty.is_empty());
        assert!(pr.retrieve_query(&empty, 5).0.is_empty());
    }

    /// Query terms are case-folded before the vocabulary look-up, as
    /// the baselines' `InvertedIndex::postings` folds them: "Málaga" finds the lemma
    /// `malaga`, and the two spellings are one query term — in the
    /// reference too.
    #[test]
    fn query_terms_are_folded_before_the_vocabulary_lookup() {
        let texts: Vec<String> = vec![
            "Cheap flights to Málaga. Rain in Madrid all day.".to_owned(),
            "Weather in Madrid.".to_owned(),
        ];
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (pr, _) = setup(&refs, 1);
        let folded = pr.retrieve(&["malaga".to_owned()], 5);
        assert_eq!(folded.len(), 1);
        assert_eq!(pr.retrieve(&["Málaga".to_owned()], 5), folded);
        assert_eq!(pr.idf("Málaga").to_bits(), pr.idf("malaga").to_bits());
        let terms = vec![
            ("Málaga".to_owned(), 1.0),
            ("malaga".to_owned(), 3.0),
            ("MADRID".to_owned(), 1.0),
        ];
        let query = pr.compile_query(terms.iter().map(|(t, w)| (t.as_str(), *w)));
        assert_eq!(query.len(), 2);
        equivalent(&texts, &terms, 1, 5);
    }

    // --- exhaustive-equivalence property tests -------------------------

    /// Words the generated corpora and queries draw from. A mix of
    /// content words that survive the stop list plus a couple of terms
    /// that never appear in any corpus ("volcano"-style misses).
    const POOL: &[&str] = &[
        "temperature",
        "weather",
        "barcelona",
        "sky",
        "rain",
        "ticket",
        "airport",
        "sale",
        "volcano",
        "quasar",
    ];

    fn word() -> impl Strategy<Value = String> {
        (0usize..POOL.len()).prop_map(|i| POOL[i].to_owned())
    }

    fn corpus() -> impl Strategy<Value = Vec<String>> {
        // Up to 6 documents of up to 7 sentences of up to 5 pool words.
        proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec(word(), 1..5), 0..7).prop_map(
                |sents| {
                    sents
                        .iter()
                        .map(|words| format!("{}.", words.join(" ")))
                        .collect::<Vec<_>>()
                        .join(" ")
                },
            ),
            0..6,
        )
    }

    /// `(word, weight)` pairs; the weight cycles over zero, the plain and
    /// boosted paper values, and a fractional one.
    fn weighted_term() -> impl Strategy<Value = (String, f64)> {
        const WEIGHTS: &[f64] = &[0.0, 1.0, 3.0, 0.75];
        (0usize..POOL.len() * WEIGHTS.len())
            .prop_map(|i| (POOL[i % POOL.len()].to_owned(), WEIGHTS[i / POOL.len()]))
    }

    fn weighted_query() -> impl Strategy<Value = Vec<(String, f64)>> {
        proptest::collection::vec(weighted_term(), 0..6)
    }

    fn equivalent(texts: &[String], terms: &[(String, f64)], window: usize, k: usize) {
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (pr, _) = setup(&refs, window);
        let pruned = pr.retrieve_weighted(terms, k);
        let exhaustive = retrieve_weighted_exhaustive(&pr, terms, k);
        assert_eq!(pruned, exhaustive, "window={window} k={k} terms={terms:?}");
    }

    /// Each distinct document repeated up to three times, the copies
    /// spread out and the whole list rotated, so equal bounds and equal
    /// scores occur across non-adjacent documents. Sentences are joined
    /// by blank lines: the splitter does not break before a lowercase
    /// word, and these documents are meant to have several sentences.
    fn with_duplicates(docs: &[Vec<Vec<String>>], copies: &[usize], rotate: usize) -> Vec<String> {
        let mut texts: Vec<String> = Vec::new();
        for copy in 0..3 {
            for (sents, _) in docs.iter().zip(copies).filter(|(_, &n)| copy < n) {
                let text: Vec<String> = sents.iter().map(|w| format!("{}.", w.join(" "))).collect();
                texts.push(text.join("\n\n"));
            }
        }
        let by = rotate % texts.len();
        texts.rotate_left(by);
        texts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_pruned_matches_exhaustive(
            texts in corpus(),
            terms in weighted_query(),
            window in 1usize..5,
            k in 0usize..10,
        ) {
            equivalent(&texts, &terms, window, k);
        }

        #[test]
        fn prop_unweighted_retrieve_matches_exhaustive(
            texts in corpus(),
            words in proptest::collection::vec(word(), 0..5),
            window in 1usize..4,
        ) {
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let (pr, _) = setup(&refs, window);
            let weighted: Vec<(String, f64)> =
                words.iter().map(|w| (w.clone(), 1.0)).collect();
            prop_assert_eq!(
                pr.retrieve(&words, 5),
                retrieve_weighted_exhaustive(&pr, &weighted, 5)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The early exit under ties: small `k` over up to 39 documents,
        /// many of them identical, so the heap fills long before the
        /// last candidate and equal bounds meet equal scores.
        #[test]
        fn prop_early_exit_matches_exhaustive(
            docs in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(word(), 1..5), 1..7),
                1..14,
            ),
            copies in proptest::collection::vec(1usize..4, 13),
            rotate in 0usize..40,
            terms in weighted_query(),
            window in 1usize..5,
            k in 1usize..8,
        ) {
            let texts = with_duplicates(&docs, &copies, rotate);
            equivalent(&texts, &terms, window, k);
            let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
            let (pr, _) = setup(&refs, window);
            let query = pr.compile_query(terms.iter().map(|(t, w)| (t.as_str(), *w)));
            let (_, stats) = pr.retrieve_query(&query, k);
            prop_assert_eq!(stats.docs_candidate, stats.docs_scored + stats.docs_bound_skipped);
        }
    }

    /// Identical documents tie on bound and on score; the lower document
    /// ids win, and the bound still cuts the weaker documents.
    #[test]
    fn equal_bounds_and_scores_rank_by_document_under_early_exit() {
        let strong = "Barcelona weather today. Sky over Barcelona.";
        let weak = "Weather somewhere else.";
        let texts: Vec<String> = [weak, strong, weak, strong, strong, weak, strong]
            .iter()
            .map(|t| (*t).to_owned())
            .collect();
        let terms = vec![("barcelona".to_owned(), 3.0), ("weather".to_owned(), 1.0)];
        for k in [1, 2, 3, 5] {
            equivalent(&texts, &terms, 2, k);
        }
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (pr, _) = setup(&refs, 2);
        let query = pr.compile_query(terms.iter().map(|(t, w)| (t.as_str(), *w)));
        let (passages, stats) = pr.retrieve_query(&query, 3);
        let docs: Vec<DocId> = passages.iter().map(|p| p.doc).collect();
        assert_eq!(docs, [DocId(1), DocId(3), DocId(4)]);
        assert_eq!(stats.docs_candidate, 7);
        assert_eq!(
            stats.docs_scored, 4,
            "every document tied on the bound is visited"
        );
        assert_eq!(stats.docs_bound_skipped, 3);
    }

    /// Negative and non-finite weights are rejected when the query is
    /// compiled, and the reference rejects the same occurrences.
    #[test]
    fn unusable_weights_are_dropped_at_compile_time() {
        let texts: Vec<String> = vec![
            "Temperature in Barcelona. Rain all day. Sky clear.".to_owned(),
            "Rain at the airport. Ticket sale.".to_owned(),
            "Sky and weather. Barcelona sale.".to_owned(),
        ];
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (pr, _) = setup(&refs, 2);
        let terms = vec![
            ("sky".to_owned(), -1.0),
            ("barcelona".to_owned(), f64::NAN),
            ("sale".to_owned(), f64::INFINITY),
            ("rain".to_owned(), f64::NEG_INFINITY),
            ("rain".to_owned(), 2.0),
            ("temperature".to_owned(), 1.0),
        ];
        let usable = vec![("rain".to_owned(), 2.0), ("temperature".to_owned(), 1.0)];
        let query = pr.compile_query(terms.iter().map(|(t, w)| (t.as_str(), *w)));
        assert_eq!(query.len(), 2);
        for k in [1, 2, 10] {
            equivalent(&texts, &terms, 2, k);
            let got = pr.retrieve_weighted(&terms, k);
            assert_eq!(got, pr.retrieve_weighted(&usable, k));
            assert!(got.iter().all(|p| p.score.is_finite() && p.score > 0.0));
        }
    }

    #[test]
    fn no_early_exit_when_k_exceeds_every_window() {
        let texts: Vec<String> = vec![
            "Temperature in Barcelona. Rain all day. Sky clear.".to_owned(),
            "Rain at the airport.".to_owned(),
            "Sky and weather.".to_owned(),
        ];
        let terms = vec![("rain".to_owned(), 1.0), ("sky".to_owned(), 1.0)];
        equivalent(&texts, &terms, 1, 100);
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (pr, _) = setup(&refs, 1);
        let query = pr.compile_query(terms.iter().map(|(t, w)| (t.as_str(), *w)));
        let (passages, stats) = pr.retrieve_query(&query, 100);
        assert_eq!(passages.len(), 4);
        assert_eq!(stats.docs_scored, 3);
        assert_eq!(stats.docs_bound_skipped, 0);
    }

    #[test]
    fn zero_weight_only_term_yields_candidates_but_no_passages() {
        let texts: Vec<String> = vec![
            "Rain all day. Sky clear.".to_owned(),
            "More rain.".to_owned(),
        ];
        let terms = vec![("rain".to_owned(), 0.0), ("volcano".to_owned(), 4.0)];
        equivalent(&texts, &terms, 2, 3);
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        let (pr, _) = setup(&refs, 2);
        let query = pr.compile_query(terms.iter().map(|(t, w)| (t.as_str(), *w)));
        let (passages, stats) = pr.retrieve_query(&query, 3);
        assert!(passages.is_empty());
        assert_eq!(stats.docs_candidate, 2);
        assert_eq!(
            stats.docs_candidate,
            stats.docs_scored + stats.docs_bound_skipped
        );
    }

    #[test]
    fn equivalence_edge_cases() {
        let texts: Vec<String> = vec![
            "temperature in barcelona. rain all day. sky clear.".to_owned(),
            "ticket sale at the airport.".to_owned(),
            String::new(),
        ];
        // Empty query.
        equivalent(&texts, &[], 3, 5);
        // k = 0 and k far beyond the number of matches.
        let q = vec![("temperature".to_owned(), 2.0), ("sale".to_owned(), 1.0)];
        equivalent(&texts, &q, 2, 0);
        equivalent(&texts, &q, 2, 100);
        // Only out-of-vocabulary terms.
        equivalent(&texts, &[("volcano".to_owned(), 5.0)], 2, 3);
        // Zero-weight terms must not promote windows.
        equivalent(&texts, &[("rain".to_owned(), 0.0)], 2, 3);
    }
}
