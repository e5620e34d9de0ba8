//! E3 — the **Figure 5** experiment: extraction from *tabular* weather
//! pages ("lower precision is obtained from web pages that contain
//! tables, in which the task of associating the measure with its
//! corresponding measure unit gets more difficult"), plus the paper's
//! future-work fix: the table pre-processor of `dwqa-core::tableprep`.

use dwqa_baselines::{evaluate_temperatures, ExtractionEval};
use dwqa_bench::{build_corpus, daily_questions, section, FixtureConfig};
use dwqa_common::Month;
use dwqa_core::{integrated_schema, preprocess_tables, IntegrationPipeline, PipelineOptions};
use dwqa_corpus::PageStyle;
use dwqa_warehouse::Warehouse;

fn run(preprocess: bool) -> ExtractionEval {
    let config = FixtureConfig {
        styles: vec![PageStyle::Table],
        ..FixtureConfig::default()
    };
    let (store, truth) = build_corpus(&config);
    let (store, rewritten) = if preprocess {
        preprocess_tables(&store)
    } else {
        (store, 0)
    };
    if preprocess {
        println!("(table pre-processor rewrote {rewritten} pages)");
    }
    let pipeline = IntegrationPipeline::build(
        Warehouse::new(integrated_schema()),
        store,
        PipelineOptions::default(),
    );
    let read = pipeline.read_path();
    let mut eval = ExtractionEval::default();
    let cities = ["Barcelona", "New York", "Costa Mesa", "Madrid"];
    for city in cities {
        let mut answers = Vec::new();
        for q in daily_questions(city, 2004, Month::January) {
            answers.extend(read.answer(&q).into_iter().next());
        }
        let expected: Vec<(String, dwqa_common::Date)> =
            dwqa_common::Date::month_days(2004, Month::January)
                .map(|d| (city.to_owned(), d))
                .collect();
        eval.merge(&evaluate_temperatures(
            &answers,
            |c, d| truth.temperature(c, d),
            &expected,
            0.51,
        ));
    }
    eval
}

fn main() {
    section("Figure 5 — extraction from tabular weather pages");
    let raw = run(false);
    println!(
        "raw tables          : precision = {:.3}  recall = {:.3}  f1 = {:.3} (TP={}, FP={}, FN={})",
        raw.precision(),
        raw.recall(),
        raw.f1(),
        raw.true_positives,
        raw.false_positives,
        raw.false_negatives
    );

    section("With the future-work table pre-processor");
    let prep = run(true);
    println!(
        "pre-processed tables: precision = {:.3}  recall = {:.3}  f1 = {:.3} (TP={}, FP={}, FN={})",
        prep.precision(),
        prep.recall(),
        prep.f1(),
        prep.true_positives,
        prep.false_positives,
        prep.false_negatives
    );

    section("Shape check vs the paper");
    println!(
        "tables ≪ prose without help: recall {:.3} (raw) vs {:.3} (pre-processed)",
        raw.recall(),
        prep.recall()
    );
    println!("The paper's robustness rule (record the URL anyway) is exercised in exp_bi_outcome.");
}
