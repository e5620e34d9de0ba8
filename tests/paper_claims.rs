//! The paper's headline claims, asserted as tests.
//!
//! Each test pins one comparative claim from the paper's introduction or
//! evaluation so a regression in any substrate that would silently change
//! the *story* fails loudly.

use dwqa_baselines::{evaluate_temperatures, IeBaseline, IeTemplate, IrBaseline};
use dwqa_common::{Date, Month};
use dwqa_core::{integrated_schema, preprocess_tables, IntegrationPipeline, PipelineOptions};
use dwqa_corpus::{
    default_cities, generate_distractors, generate_weather_corpus, PageStyle, WeatherConfig,
};
use dwqa_ir::DocumentStore;
use dwqa_warehouse::Warehouse;

fn corpus(styles: &[PageStyle]) -> (DocumentStore, dwqa_corpus::GroundTruth) {
    let c = generate_weather_corpus(
        &WeatherConfig::new(42, 2004, Month::January).with_styles(styles),
        &default_cities(),
    );
    let mut store = c.store;
    for d in generate_distractors(5, 12) {
        store.add(d);
    }
    (store, c.truth)
}

fn pipeline(store: DocumentStore, skip_enrichment: bool) -> IntegrationPipeline {
    // Sales are irrelevant for extraction-quality claims, but enrichment
    // needs members: load one sale per airport.
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
                    ("state_name", dwqa_warehouse::Value::text(c.state)),
                    ("country_name", dwqa_warehouse::Value::text(c.country)),
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
    IntegrationPipeline::build(
        warehouse,
        store,
        PipelineOptions::builder()
            .skip_enrichment(skip_enrichment)
            .build()
            .unwrap(),
    )
}

fn daily_eval(
    pipeline: &IntegrationPipeline,
    truth: &dwqa_corpus::GroundTruth,
    city: &str,
) -> dwqa_baselines::ExtractionEval {
    let read = pipeline.read_path();
    let mut answers = Vec::new();
    for d in Date::month_days(2004, Month::January) {
        let q = format!(
            "What is the temperature on January {}, 2004 in {}?",
            d.day(),
            city
        );
        answers.extend(read.answer(&q).into_iter().next());
    }
    let expected: Vec<(String, Date)> = Date::month_days(2004, Month::January)
        .map(|d| (city.to_owned(), d))
        .collect();
    evaluate_temperatures(&answers, |c, d| truth.temperature(c, d), &expected, 0.51)
}

#[test]
fn claim_prose_pages_yield_high_precision() {
    // §4.2: "the best precision … is obtained for [the prose] URL".
    let (store, truth) = corpus(&[PageStyle::Prose]);
    let p = pipeline(store, false);
    let eval = daily_eval(&p, &truth, "Barcelona");
    assert!(eval.precision() >= 0.95, "precision {}", eval.precision());
    assert!(eval.recall() >= 0.6, "recall {}", eval.recall());
}

#[test]
fn claim_tables_defeat_extraction_until_preprocessed() {
    // §4.2: "lower precision is obtained from web pages that contain
    // tables"; §5: table pre-processing is the future-work fix.
    let (store, truth) = corpus(&[PageStyle::Table]);
    let raw = daily_eval(&pipeline(clone_store(&store), false), &truth, "Barcelona");
    assert_eq!(raw.true_positives, 0, "raw tables should extract nothing");

    let (prepped, rewritten) = preprocess_tables(&store);
    assert!(rewritten > 0);
    let fixed = daily_eval(&pipeline(prepped, false), &truth, "Barcelona");
    assert!(fixed.recall() > 0.5, "recall {}", fixed.recall());
    assert!(fixed.precision() >= 0.95, "precision {}", fixed.precision());
}

#[test]
fn claim_enrichment_improves_airport_questions() {
    // §3 Step 2: DW instances let the system resolve "El Prat"/"JFK".
    let (store, truth) = corpus(&[PageStyle::Prose]);
    let with = daily_eval(&pipeline(clone_store(&store), false), &truth, "El Prat");
    let without = daily_eval(&pipeline(store, true), &truth, "El Prat");
    assert_eq!(
        without.true_positives, 0,
        "without Step 2, El Prat is unknown"
    );
    assert!(with.true_positives > 10, "with Step 2: {with:?}");
}

#[test]
fn claim_ir_returns_text_not_tuples() {
    // §1: "IR returns whole documents, in which the user has to further
    // search for his/her request."
    let (store, truth) = corpus(&[PageStyle::Prose]);
    let ir = IrBaseline::build(&store);
    let hits = ir.search_documents(
        "What is the weather like in January of 2004 in Barcelona?",
        1,
    );
    assert!(!hits.is_empty());
    // The answer exists in the text — but only as text to read.
    let any_answer = Date::month_days(2004, Month::January)
        .filter_map(|d| truth.temperature("Barcelona", d))
        .any(|t| hits[0].contains_answer(&format!("{t}º C")));
    assert!(any_answer);
    assert!(
        hits[0].reading_burden() > 1000,
        "burden {}",
        hits[0].reading_burden()
    );
}

#[test]
fn claim_ie_is_bounded_by_its_templates() {
    // §2: IE "is limited to a set of predefined templates".
    let (store, _) = corpus(&[PageStyle::Prose]);
    let ie = IeBaseline::new(vec![IeTemplate::Temperature]);
    let filled = ie.scan(&store);
    assert!(!filled.is_empty());
    assert!(filled.iter().all(|f| f.template == IeTemplate::Temperature));
    assert!(!ie.covers(IeTemplate::Price));
}

#[test]
fn claim_distractors_never_contaminate_the_feed() {
    // The political-temperature/JFK-president/band traps must not reach
    // the warehouse.
    let (store, _) = corpus(&[PageStyle::Prose]);
    let mut p = pipeline(store, false);
    let answers = p
        .read_path()
        .answer("What is the temperature in January of 2004 in JFK?");
    let report = p.apply_feedback(&answers);
    for url in &report.urls {
        assert!(
            !url.contains("news.example.org") || report.loaded == 0,
            "distractor fed the DW: {url}"
        );
    }
    assert!(report.loaded > 0);
}

#[test]
fn claim_inside_company_sources_are_first_class() {
    // §1: unstructured data "comes from both inside the company (e.g. the
    // reports or emails from the company personnel stored in the company
    // intranet) and outside". QA answers a fare question straight from an
    // intranet email/report.
    let (mut store, _) = corpus(&[PageStyle::Prose]);
    let intranet = dwqa_corpus::generate_intranet(
        11,
        &["Barcelona", "Madrid"],
        2004,
        dwqa_common::Month::January,
    );
    for d in intranet.documents.clone() {
        store.add(d);
    }
    let p = pipeline(store, false);
    let answers = p
        .read_path()
        .answer("What is the price of a last minute flight to Barcelona?");
    let promo = &intranet.promotions[0];
    assert_eq!(promo.city, "Barcelona");
    assert!(
        answers.iter().any(|a| {
            a.url.starts_with("intranet://")
                && matches!(
                    &a.value,
                    dwqa_qa::AnswerValue::Money { amount, .. }
                        if *amount == f64::from(promo.price_euros)
                )
        }),
        "expected the intranet fare {}: {answers:?}",
        promo.price_euros
    );
}

fn clone_store(store: &DocumentStore) -> DocumentStore {
    let mut out = DocumentStore::new();
    for (_, d) in store.iter() {
        out.add(d.clone());
    }
    out
}
