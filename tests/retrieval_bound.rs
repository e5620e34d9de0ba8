//! Score-bounded passage retrieval against the exhaustive reference at a
//! scale where the bound decides the outcome: several months of weather
//! pages for every city, in both page styles, plus distractors, asked
//! every dated question. A dated question's heaviest term is its day
//! number, which every weather page holds, so nearly every page is a
//! candidate and only the score bound keeps most of them from being
//! scored.

use dwqa_bench::{build_fixture, daily_questions, expected_points, FixtureConfig};
use dwqa_common::Month;
use dwqa_ir::testing::retrieve_weighted_exhaustive;
use dwqa_ir::{InvertedIndex, PassageRetriever};

#[test]
fn bounded_retrieval_matches_exhaustive_on_every_dated_question() {
    // Same month in two years and two months of one year: pages that
    // differ from the right one in a single query term.
    let months = vec![
        (2004, Month::January),
        (2004, Month::February),
        (2005, Month::January),
        (2005, Month::July),
    ];
    let fx = build_fixture(FixtureConfig {
        months: months.clone(),
        distractors: 40,
        ..FixtureConfig::default()
    });
    let qa = &fx.pipeline.qa;
    let store = qa.store().expect("fixture indexes a corpus");
    let index = InvertedIndex::build(qa.lexicon(), store);
    let retriever = PassageRetriever::build(qa.lexicon(), store, PassageRetriever::DEFAULT_WINDOW);

    let mut cities: Vec<String> = expected_points(&fx.cities, 2004, Month::January)
        .into_iter()
        .map(|(city, _)| city)
        .collect();
    cities.dedup();
    assert_eq!(cities.len(), 7);

    const KS: [usize; 3] = [1, 5, 40];
    let mut questions = 0usize;
    for city in &cities {
        for &(year, month) in &months {
            for question in daily_questions(city, year, month) {
                let analysis = qa.analyze(&question);
                let terms: Vec<(String, f64)> = analysis
                    .weighted_term_refs()
                    .map(|(t, w)| (t.to_owned(), w))
                    .collect();
                let query =
                    retriever.compile_query(&index, terms.iter().map(|(t, w)| (t.as_str(), *w)));
                // The reference ranks everything and truncates, so its
                // answer for a smaller k is a prefix of this one.
                let reference = retrieve_weighted_exhaustive(&retriever, &index, &terms, 40);
                for k in KS {
                    let (passages, stats) = retriever.retrieve_query(&query, k);
                    let want = &reference[..k.min(reference.len())];
                    assert_eq!(passages.len(), want.len(), "{question} k={k}");
                    for (got, want) in passages.iter().zip(want) {
                        assert_eq!(got, want, "{question} k={k}");
                        assert_eq!(got.score.to_bits(), want.score.to_bits());
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
