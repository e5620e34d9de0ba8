//! Score-bounded passage retrieval against the exhaustive reference at a
//! scale where the bound decides the outcome: several months of weather
//! pages for every city, in both page styles, plus distractors, asked
//! every dated question. A dated question's heaviest term is its day
//! number, which every weather page holds, so nearly every page is a
//! candidate and only the score bound keeps most of them from being
//! scored.
//!
//! The same corpus (plus the intranet reports) holds the indexation
//! contract: the QA indexation analyses each sentence once and builds the
//! passage postings from those analyses, so a passage addresses the
//! analyses by sentence number, and the retriever's IDF table — which the
//! reference shares — is the document-level `InvertedIndex`'s, bit for bit.

use dwqa_baselines::InvertedIndex;
use dwqa_bench::{build_fixture, daily_questions, expected_points, Fixture, FixtureConfig};
use dwqa_common::Month;
use dwqa_ir::index::index_terms;
use dwqa_ir::testing::retrieve_weighted_exhaustive;
use dwqa_ir::PassageRetriever;
use dwqa_qa::QaIndex;

/// Same month in two years and two months of one year: pages that differ
/// from the right one in a single query term.
const MONTHS: [(i32, Month); 4] = [
    (2004, Month::January),
    (2004, Month::February),
    (2005, Month::January),
    (2005, Month::July),
];

/// Weather prose and table pages, distractors and intranet reports.
fn fixture() -> Fixture {
    build_fixture(FixtureConfig {
        months: MONTHS.to_vec(),
        distractors: 40,
        intranet: true,
        ..FixtureConfig::default()
    })
}

#[test]
fn one_analysis_numbers_the_sentences_and_weighs_the_terms_of_both_indexes() {
    let fx = fixture();
    let qa = &fx.pipeline.qa;
    let store = qa.store().expect("fixture indexes a corpus");
    let window = PassageRetriever::DEFAULT_WINDOW;
    let one_pass = QaIndex::build(qa.lexicon(), store, window);
    let stand_alone = PassageRetriever::build(qa.lexicon(), store, window);
    let inverted = InvertedIndex::build(qa.lexicon(), store);

    let mut sentences = 0usize;
    let mut vocabulary = std::collections::BTreeSet::new();
    for (doc, document) in store.iter() {
        let analysed: Vec<&str> = one_pass
            .doc_sentences(doc)
            .iter()
            .map(|s| s.text.as_str())
            .collect();
        assert_eq!(one_pass.passages.doc_sentences(doc), analysed, "{doc:?}");
        assert_eq!(stand_alone.doc_sentences(doc), analysed, "{doc:?}");
        sentences += analysed.len();
        vocabulary.extend(index_terms(qa.lexicon(), &document.text));
    }
    assert!(
        sentences > store.len(),
        "the corpus has multi-sentence pages"
    );

    assert_eq!(vocabulary.len(), inverted.num_terms());
    assert_eq!(vocabulary.len(), one_pass.passages.num_terms());
    assert_eq!(vocabulary.len(), stand_alone.num_terms());
    for term in vocabulary.iter().map(String::as_str).chain(["unseen"]) {
        let want = inverted.idf(term).to_bits();
        assert_eq!(one_pass.passages.idf(term).to_bits(), want, "{term}");
        assert_eq!(stand_alone.idf(term).to_bits(), want, "{term}");
    }
}

#[test]
fn bounded_retrieval_matches_exhaustive_on_every_dated_question() {
    let fx = fixture();
    let qa = &fx.pipeline.qa;
    let store = qa.store().expect("fixture indexes a corpus");
    // The retriever the serving path uses: built from the QA analyses.
    let index = QaIndex::build(qa.lexicon(), store, PassageRetriever::DEFAULT_WINDOW);
    let retriever = &index.passages;

    let mut cities: Vec<String> = expected_points(&fx.cities, 2004, Month::January)
        .into_iter()
        .map(|(city, _)| city)
        .collect();
    cities.dedup();
    assert_eq!(cities.len(), 7);

    const KS: [usize; 3] = [1, 5, 40];
    let mut questions = 0usize;
    for city in &cities {
        for (year, month) in MONTHS {
            for question in daily_questions(city, year, month) {
                let analysis = qa.analyze(&question);
                let terms: Vec<(String, f64)> = analysis
                    .weighted_term_refs()
                    .map(|(t, w)| (t.to_owned(), w))
                    .collect();
                let query = retriever.compile_query(terms.iter().map(|(t, w)| (t.as_str(), *w)));
                // The reference ranks everything and truncates, so its
                // answer for a smaller k is a prefix of this one.
                let reference = retrieve_weighted_exhaustive(retriever, &terms, 40);
                for k in KS {
                    let (passages, stats) = retriever.retrieve_query(&query, k);
                    let want = &reference[..k.min(reference.len())];
                    assert_eq!(passages.len(), want.len(), "{question} k={k}");
                    for (got, want) in passages.iter().zip(want) {
                        assert_eq!(got, want, "{question} k={k}");
                        assert_eq!(got.score.to_bits(), want.score.to_bits());
                        // The passage addresses the kept analyses.
                        let analysed = &index.doc_sentences(got.doc)[got.first_sentence..];
                        assert!(got.sentences.len() <= analysed.len());
                        for (text, analysis) in got.sentences.iter().zip(analysed) {
                            assert_eq!(*text, analysis.text, "{question} k={k}");
                        }
                    }
                    assert_eq!(
                        stats.docs_candidate,
                        stats.docs_scored + stats.docs_bound_skipped
                    );
                    if k <= 5 {
                        assert!(
                            stats.docs_scored < stats.docs_candidate,
                            "the bound cut nothing for {question} at k={k}: {stats:?}"
                        );
                    }
                }
                questions += 1;
            }
        }
    }
    assert_eq!(questions, 7 * (31 + 29 + 31 + 31));
}
