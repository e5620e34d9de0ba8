//! Shared fixtures for the experiment binaries and benchmarks.
//!
//! Every experiment builds the same kind of world: a seeded synthetic
//! corpus (weather pages + distractors), a warehouse loaded with the
//! correlated sales source, and the five-step integration pipeline on
//! top. The helpers here keep the experiment binaries small and make
//! every run reproducible from its seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use dwqa_common::{Date, Month};
use dwqa_core::{integrated_schema, IntegrationPipeline, PipelineOptions};
use dwqa_corpus::{
    default_cities, generate_distractors, generate_intranet, generate_sales,
    generate_weather_corpus, CityClimate, GroundTruth, PageStyle, SalesConfig, WeatherConfig,
};
use dwqa_ir::DocumentStore;
use dwqa_warehouse::{AggFn, CubeQuery, ResultSet, Warehouse};

pub use dwqa_corpus::weather::page_url;

/// What a fixture should contain.
#[derive(Debug, Clone)]
pub struct FixtureConfig {
    /// RNG seed.
    pub seed: u64,
    /// Months of weather pages + sales.
    pub months: Vec<(i32, Month)>,
    /// Page styles per city.
    pub styles: Vec<PageStyle>,
    /// Number of distractor documents.
    pub distractors: usize,
    /// Include the company-intranet reports/emails.
    pub intranet: bool,
    /// Pipeline options (ablations live here).
    pub options: PipelineOptions,
}

impl Default for FixtureConfig {
    fn default() -> FixtureConfig {
        FixtureConfig {
            seed: 42,
            months: vec![(2004, Month::January)],
            styles: vec![PageStyle::Prose, PageStyle::Table],
            distractors: 12,
            intranet: false,
            options: PipelineOptions::default(),
        }
    }
}

/// A fully built experiment world.
pub struct Fixture {
    /// The integrated pipeline (Steps 1–4 done, corpus indexed).
    pub pipeline: IntegrationPipeline,
    /// Ground truth for every generated weather point.
    pub truth: GroundTruth,
    /// The city set.
    pub cities: Vec<CityClimate>,
    /// Size of the indexed corpus.
    pub corpus_size: usize,
}

/// Builds the corpus (without the pipeline): weather pages for each month
/// plus distractors. Also returns the merged ground truth.
pub fn build_corpus(config: &FixtureConfig) -> (DocumentStore, GroundTruth) {
    let cities = default_cities();
    let mut store = DocumentStore::new();
    let mut truth = GroundTruth::new();
    for (i, (year, month)) in config.months.iter().enumerate() {
        let wcfg = WeatherConfig::new(config.seed.wrapping_add(i as u64), *year, *month)
            .with_styles(&config.styles);
        let corpus = generate_weather_corpus(&wcfg, &cities);
        for (_, doc) in corpus.store.iter() {
            store.add(doc.clone());
        }
        truth.extend(&corpus.truth);
    }
    for doc in generate_distractors(config.seed ^ 0xD15C0, config.distractors) {
        store.add(doc);
    }
    if config.intranet {
        let city_names: Vec<&str> = cities.iter().map(|c| c.city).collect();
        let (year, month) = config
            .months
            .first()
            .copied()
            .unwrap_or((2004, Month::January));
        for doc in generate_intranet(config.seed ^ 0x17A, &city_names, year, month).documents {
            store.add(doc);
        }
    }
    (store, truth)
}

/// Builds the full fixture: corpus, correlated sales, pipeline.
pub fn build_fixture(config: FixtureConfig) -> Fixture {
    let cities = default_cities();
    let (store, truth) = build_corpus(&config);
    let mut warehouse = Warehouse::new(integrated_schema());
    let sales = generate_sales(&SalesConfig::default(), &cities, &truth);
    warehouse
        .load("Last Minute Sales", sales)
        .expect("generated sales rows fit the schema");
    let corpus_size = store.len();
    let pipeline = IntegrationPipeline::build(warehouse, store, config.options);
    Fixture {
        pipeline,
        truth,
        cities,
        corpus_size,
    }
}

/// The per-day questions Step 5 asks for one city and month (the paper's
/// question shape, one per day: "What is the temperature on January 15,
/// 2004 in Barcelona?").
pub fn daily_questions(city: &str, year: i32, month: Month) -> Vec<String> {
    Date::month_days(year, month)
        .map(|d| {
            format!(
                "What is the temperature on {} {}, {} in {}?",
                month.name(),
                d.day(),
                year,
                city
            )
        })
        .collect()
}

/// The month-level question of the paper's Table 1.
pub fn monthly_question(city: &str, year: i32, month: Month) -> String {
    format!(
        "What is the weather like in {} of {} in {}?",
        month.name(),
        year,
        city
    )
}

/// The `(city, date)` points a perfect system would extract for a month.
pub fn expected_points(cities: &[CityClimate], year: i32, month: Month) -> Vec<(String, Date)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for c in cities {
        if seen.insert(dwqa_common::text::fold(c.city)) {
            for d in Date::month_days(year, month) {
                out.push((c.city.to_owned(), d));
            }
        }
    }
    out
}

/// Average fed temperature by city: the roll-up the rollback checks
/// cache before a feed, because a weather commit must fold into it and a
/// rolled-back one must leave it alone.
pub fn weather_by_city() -> CubeQuery {
    CubeQuery::on("City Weather")
        .group_by("City", "City")
        .aggregate("temperature_c", AggFn::Avg)
}

/// Reads an already cached `query` through the pipeline's roll-up
/// cache, panicking unless it is served as a hit and is equal to the
/// reference executor's result on the warehouse as it now is.
pub fn cached_rollup(pipeline: &IntegrationPipeline, query: &CubeQuery) -> ResultSet {
    let cache = pipeline.rollup_cache();
    let (hits, misses) = (cache.hits(), cache.misses());
    let got = pipeline.rollup(query).expect("roll-up runs");
    assert_eq!((cache.hits(), cache.misses()), (hits + 1, misses), "hit");
    let reference = dwqa_warehouse::testing::execute_reference(query, &pipeline.warehouse);
    assert_eq!(Ok(&got), reference.as_ref(), "cached = reference");
    got
}

/// Prints a section header for experiment output.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_with_distractors() {
        let fx = build_fixture(FixtureConfig {
            distractors: 6,
            styles: vec![PageStyle::Prose],
            ..FixtureConfig::default()
        });
        // 7 distinct cities × 1 prose page + 6 distractors.
        assert_eq!(fx.corpus_size, 13);
        assert!(fx.truth.len() >= 7 * 31);
        assert_eq!(fx.cities.len(), 8);
        assert!(fx.pipeline.enrichment.instances_added > 0);
    }

    #[test]
    fn daily_questions_cover_the_month() {
        let qs = daily_questions("Barcelona", 2004, Month::January);
        assert_eq!(qs.len(), 31);
        assert!(qs[14].contains("January 15, 2004"));
        assert!(qs[14].contains("Barcelona"));
    }

    #[test]
    fn expected_points_deduplicate_shared_cities() {
        let pts = expected_points(&default_cities(), 2004, Month::January);
        // 7 distinct cities (New York appears twice in the city list).
        assert_eq!(pts.len(), 7 * 31);
    }
}
