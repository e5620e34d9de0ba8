//! E9 (extension) — failure injection: how the Step-4 axioms protect the
//! DW when the Web lies.
//!
//! A fraction of the prose weather lines is corrupted: either the unit is
//! dropped (unextractable — the tuned answer type *requires* "number
//! followed by ºC or F") or the value is multiplied by 100 (extractable
//! but rejected by the plausible-range axiom). Precision of what reaches
//! the warehouse must stay at 1.0; only recall may fall with the noise
//! rate.

use dwqa_baselines::{evaluate_temperatures, ExtractionEval};
use dwqa_bench::{daily_questions, expected_points, section};
use dwqa_common::Month;
use dwqa_core::{integrated_schema, IntegrationPipeline, PipelineOptions};
use dwqa_corpus::{
    default_cities, generate_distractors, generate_weather_corpus, PageStyle, WeatherConfig,
};
use dwqa_engine::SubmitBatch;
use dwqa_warehouse::Warehouse;

fn main() {
    section("Failure injection: corrupted weather lines vs the Step-4 axioms");
    println!("noise | corrupted lines | precision | recall | fed rows | axiom rejections");
    println!("------+-----------------+-----------+--------+----------+-----------------");
    for noise in [0.0f64, 0.1, 0.3, 0.5] {
        let corpus = generate_weather_corpus(
            &WeatherConfig::new(42, 2004, Month::January)
                .with_styles(&[PageStyle::Prose])
                .with_noise(noise),
            &default_cities(),
        );
        let corrupted = corpus.corrupted.clone();
        let mut store = corpus.store;
        for d in generate_distractors(5, 12) {
            store.add(d);
        }
        // Enrich from one sale per airport so locations resolve.
        let mut warehouse = Warehouse::new(integrated_schema());
        let mut rows = Vec::new();
        for c in default_cities() {
            let mut b = dwqa_warehouse::FactRowBuilder::new();
            b.measure("price", dwqa_warehouse::Value::Float(100.0))
                .measure("miles", dwqa_warehouse::Value::Float(500.0))
                .measure("traveler_rate", dwqa_warehouse::Value::Float(0.5))
                .role_member(
                    "Origin",
                    &[("airport_name", dwqa_warehouse::Value::text("Elsewhere"))],
                )
                .role_member(
                    "Destination",
                    &[
                        ("airport_name", dwqa_warehouse::Value::text(c.airport)),
                        ("city_name", dwqa_warehouse::Value::text(c.city)),
                    ],
                )
                .role_member(
                    "Customer",
                    &[("customer_name", dwqa_warehouse::Value::text("Ann"))],
                )
                .role_member(
                    "Date",
                    &[("date", dwqa_warehouse::Value::date(2004, 1, 1).unwrap())],
                );
            rows.push(b.build());
        }
        warehouse.load("Last Minute Sales", rows).unwrap();
        let mut pipeline = IntegrationPipeline::build(warehouse, store, PipelineOptions::default());

        // Ask per-day questions for every city, feed the DW.
        let mut distinct: Vec<&str> = Vec::new();
        for c in default_cities() {
            if !distinct.contains(&c.city) {
                distinct.push(c.city);
            }
        }
        let mut questions = Vec::new();
        for city in &distinct {
            questions.extend(daily_questions(city, 2004, Month::January));
        }
        let feed = pipeline.submit_batch(&questions).feed;
        let axiom_rejections = feed
            .rejected
            .iter()
            .filter(|(_, why)| why.contains("plausible interval"))
            .count();

        // Evaluate what actually reached the warehouse against the truth.
        let rs = dwqa_warehouse::CubeQuery::on("City Weather")
            .group_by("City", "City")
            .group_by("Date", "Date")
            .aggregate("temperature_c", dwqa_warehouse::AggFn::Avg)
            .run(&pipeline.warehouse)
            .unwrap();
        let mut eval = ExtractionEval::default();
        let expected = expected_points(&default_cities(), 2004, Month::January);
        let mut found = Vec::new();
        for row in &rs.rows {
            let city = row[0].as_text().unwrap().to_owned();
            let date = row[1].as_date().unwrap();
            let got = row[2].as_f64().unwrap();
            match corpus.truth.temperature(&city, date) {
                Some(want) if (want - got).abs() < 0.51 => {
                    eval.true_positives += 1;
                    found.push((dwqa_common::text::fold(&city), date));
                }
                _ => eval.false_positives += 1,
            }
        }
        for (city, date) in &expected {
            if !found.contains(&(dwqa_common::text::fold(city), *date)) {
                eval.false_negatives += 1;
            }
        }
        println!(
            "{noise:>5.1} | {:>15} | {:>9.3} | {:>6.3} | {:>8} | {:>15}",
            corrupted.len(),
            eval.precision(),
            eval.recall(),
            rs.rows.len(),
            axiom_rejections,
        );
        let _ = evaluate_temperatures(&[], |_, _| None, &[], 0.5);
    }
    section("Shape check");
    println!("Precision of warehouse contents stays 1.0 at every noise level while recall");
    println!("degrades with the injected corruption. Implausible readings (800ºC) are");
    println!("already discarded by the extraction-stage range axiom, so the feed-level");
    println!("axiom (the second line of defence) reports no survivors to reject; unit-less");
    println!("readings never match the tuned answer shape at all.");
}
