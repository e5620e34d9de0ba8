//! E5 — the Step-2 ablation: does feeding the ontology with DW instances
//! measurably improve the QA system, as Section 3 claims? ("if we ask the
//! QA system for the temperature in 'JFK' … the system will know that the
//! previous entities mean airports instead of a person or a Spanish
//! musical group.")
//!
//! Two identical pipelines are built, one with Step 2 skipped. We compare
//! (a) WSD of the ambiguous entities, (b) question analysis (location
//! constraint + city expansion), and (c) end-to-end extraction quality on
//! airport-named questions.

use dwqa_baselines::{evaluate_temperatures, ExtractionEval};
use dwqa_bench::{build_fixture, daily_questions, section, FixtureConfig};
use dwqa_common::Month;
use dwqa_core::PipelineOptions;
use dwqa_corpus::PageStyle;
use dwqa_nlp::wsd::disambiguate;

fn airport_eval(fx: &dwqa_bench::Fixture, airport: &str, city: &str) -> ExtractionEval {
    let read = fx.pipeline.read_path();
    let mut answers = Vec::new();
    for q in daily_questions(airport, 2004, Month::January) {
        answers.extend(read.answer(&q).into_iter().next());
    }
    let expected: Vec<(String, dwqa_common::Date)> =
        dwqa_common::Date::month_days(2004, Month::January)
            .map(|d| (city.to_owned(), d))
            .collect();
    evaluate_temperatures(&answers, |c, d| fx.truth.temperature(c, d), &expected, 0.51)
}

fn main() {
    let with = build_fixture(FixtureConfig {
        styles: vec![PageStyle::Prose],
        ..FixtureConfig::default()
    });
    let without = build_fixture(FixtureConfig {
        styles: vec![PageStyle::Prose],
        options: PipelineOptions::builder()
            .skip_enrichment(true)
            .build()
            .unwrap(),
        ..FixtureConfig::default()
    });

    section("(a) Word-sense disambiguation of the ambiguous entities");
    for lemma in ["jfk", "la guardia", "el prat"] {
        for (name, fx) in [("with Step 2", &with), ("without    ", &without)] {
            let onto = fx.pipeline.qa.ontology();
            let sense = disambiguate(onto, lemma, &[]);
            let gloss = sense
                .map(|s| {
                    let c = onto.concept(s);
                    format!("{} — {}", c.canonical(), c.gloss)
                })
                .unwrap_or_else(|| "(unknown)".to_owned());
            println!("{name} | {lemma:<10} → {gloss}");
        }
    }

    section("(b) Question analysis for 'temperature in El Prat'");
    for (name, fx) in [("with Step 2", &with), ("without    ", &without)] {
        let analysis = fx
            .pipeline
            .qa
            .analyze("What is the temperature in January of 2004 in El Prat?");
        println!(
            "{name} | locations = {:?} | retrieval terms = {:?}",
            analysis.locations,
            analysis.retrieval_terms()
        );
    }

    section("(c) Extraction quality on airport-named questions");
    println!("pipeline     | airport    | precision | recall |   f1");
    println!("-------------+------------+-----------+--------+------");
    for (name, fx) in [("with Step 2 ", &with), ("without     ", &without)] {
        for (airport, city) in [
            ("El Prat", "Barcelona"),
            ("JFK", "New York"),
            ("John Wayne", "Costa Mesa"),
        ] {
            let eval = airport_eval(fx, airport, city);
            println!(
                "{name} | {airport:<10} | {:>9.3} | {:>6.3} | {:>5.3}",
                eval.precision(),
                eval.recall(),
                eval.f1()
            );
        }
    }
    section("Shape check vs the paper");
    println!("Step 2 must strictly improve airport-question handling (locations resolve,");
    println!("WSD prefers the airport senses, extraction recall rises from ~0).");
}
