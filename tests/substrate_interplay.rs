//! Integration tests across substrate boundaries that the end-to-end
//! scenario does not exercise directly: OWL round-trips of merged
//! ontologies, the multidimensional-IR baseline over corpus metadata,
//! schema-generic transforms, and format handling through the whole
//! pipeline.

use dwqa_baselines::{CubeSlice, InvertedIndex, MultidimensionalIndex};
use dwqa_common::{Date, Month};
use dwqa_corpus::{default_cities, generate_weather_corpus, PageStyle, WeatherConfig};
use dwqa_ir::DocFormat;
use dwqa_mdmodel::patient_treatments;
use dwqa_nlp::Lexicon;
use dwqa_ontology::{
    enrich_from_warehouse, merge_into_upper, parse_owl, render_owl, schema_to_ontology,
    upper_ontology, MergeOptions, Relation,
};
use dwqa_warehouse::{FactRowBuilder, Value, Warehouse};

// The mdir (McCabe et al.) baseline works off the generated corpus's
// location × time metadata.
#[test]
fn multidimensional_ir_slices_the_generated_corpus() {
    let corpus = generate_weather_corpus(
        &WeatherConfig::new(42, 2004, Month::January),
        &default_cities(),
    );
    let lexicon = Lexicon::english();
    let index = InvertedIndex::build(&lexicon, &corpus.store);
    let md = MultidimensionalIndex::build(&corpus.store);

    // Slice to Barcelona: prose + table pages.
    let bcn = md.slice(&CubeSlice::all().location("Barcelona"));
    assert_eq!(bcn.len(), 2);
    // OLAP-filtered term search only sees the slice.
    let hits = md.search(
        &index,
        &["temperature".to_owned()],
        &CubeSlice::all().location("Barcelona"),
        10,
    );
    assert!(!hits.is_empty());
    for h in &hits {
        assert!(bcn.contains(&h.doc));
    }
    // Time roll-up: everything is January 2004.
    assert_eq!(
        md.slice(&CubeSlice::all().month(2004, Month::January))
            .len(),
        corpus.store.len()
    );
    assert!(md.slice(&CubeSlice::all().year(1998)).is_empty());
}

#[test]
fn merged_ontology_survives_owl_round_trip() {
    let mut wh = Warehouse::new(dwqa_mdmodel::last_minute_sales());
    let mut b = FactRowBuilder::new();
    b.measure("price", Value::Float(1.0))
        .measure("miles", Value::Float(1.0))
        .measure("traveler_rate", Value::Float(0.5))
        .role_member("Origin", &[("airport_name", Value::text("Alicante"))])
        .role_member(
            "Destination",
            &[
                ("airport_name", Value::text("El Prat")),
                ("city_name", Value::text("Barcelona")),
            ],
        )
        .role_member("Customer", &[("customer_name", Value::text("Ann"))])
        .role_member("Date", &[("date", Value::date(2004, 1, 31).unwrap())]);
    wh.load("Last Minute Sales", vec![b.build()]).unwrap();

    let mut domain = schema_to_ontology(wh.schema());
    enrich_from_warehouse(&mut domain, &wh);
    let mut upper = upper_ontology();
    merge_into_upper(&domain, &mut upper, &MergeOptions::default());

    let owl = render_owl(&upper);
    let parsed = parse_owl(&owl).expect("merged ontology parses back");
    assert_eq!(parsed.len(), upper.len());
    // The DW-fed El Prat instance survived with its geography and
    // provenance.
    let airport = parsed.class_for("airport").unwrap();
    let el_prat = parsed
        .concepts_for("El Prat")
        .iter()
        .copied()
        .find(|&id| parsed.is_a(id, airport))
        .expect("El Prat survives serialization");
    assert_eq!(parsed.annotation(el_prat, "source"), vec!["dw"]);
    let cities: Vec<&str> = parsed
        .related(el_prat, Relation::Meronym)
        .iter()
        .map(|&id| parsed.concept(id).canonical())
        .collect();
    assert_eq!(cities, ["Barcelona"]);
}

#[test]
fn transform_and_merge_are_schema_generic() {
    // The hospital schema flows through Steps 1 and 3 untouched by any
    // airline assumptions.
    let schema = patient_treatments();
    let domain = schema_to_ontology(&schema);
    let mut upper = upper_ontology();
    let report = merge_into_upper(&domain, &mut upper, &MergeOptions::default());
    // "Patient" is not in the mini-WordNet: head-word/new-root path.
    assert!(report
        .class_matches
        .iter()
        .any(|(label, _)| label == "Patient"));
    // "Treatments" singularises onto nothing; "Date"/"Month"/"Year" map
    // exactly.
    let exact: Vec<&str> = report
        .class_matches
        .iter()
        .filter(|(_, k)| *k == dwqa_ontology::MatchKind::Exact)
        .map(|(l, _)| l.as_str())
        .collect();
    for expected in ["Date", "Month", "Year"] {
        assert!(exact.contains(&expected), "{expected} should map exactly");
    }
}

#[test]
fn all_three_document_formats_flow_through_extraction() {
    // The paper: "our approach handles any kind of unstructured data
    // (e.g. XML, HTML or PDF)". The generated corpus rotates formats;
    // every format must yield extractable prose text.
    let corpus = generate_weather_corpus(
        &WeatherConfig::new(42, 2004, Month::January).with_styles(&[PageStyle::Prose]),
        &default_cities(),
    );
    let mut seen = std::collections::HashSet::new();
    for (_, doc) in corpus.store.iter() {
        seen.insert(doc.format);
        assert!(
            doc.text.contains("Weather: Temperature"),
            "format {:?} lost the readings for {}",
            doc.format,
            doc.url
        );
    }
    assert!(seen.contains(&DocFormat::Plain));
    assert!(seen.contains(&DocFormat::Html));
    assert!(seen.contains(&DocFormat::Xml));
}

#[test]
fn conformed_date_dimension_joins_both_stars() {
    // Loading sales and weather that share dates must reuse the same
    // dimension members (conformed dimension), not duplicate them.
    let mut wh = Warehouse::new(dwqa_core::integrated_schema());
    let mut sale = FactRowBuilder::new();
    sale.measure("price", Value::Float(10.0))
        .measure("miles", Value::Float(10.0))
        .measure("traveler_rate", Value::Float(0.5))
        .role_member("Origin", &[("airport_name", Value::text("A"))])
        .role_member("Destination", &[("airport_name", Value::text("B"))])
        .role_member("Customer", &[("customer_name", Value::text("Ann"))])
        .role_member("Date", &[("date", Value::date(2004, 1, 31).unwrap())]);
    wh.load("Last Minute Sales", vec![sale.build()]).unwrap();

    let mut weather = FactRowBuilder::new();
    weather
        .measure("temperature_c", Value::Float(8.0))
        .role_member("City", &[("City.city_name", Value::text("Barcelona"))])
        .role_member("Date", &[("date", Value::date(2004, 1, 31).unwrap())])
        .role_member("Source", &[("url", Value::text("u"))]);
    wh.load("City Weather", vec![weather.build()]).unwrap();

    // One shared member for 2004-01-31.
    assert_eq!(wh.dimension("Date").unwrap().len(), 1);
    assert_eq!(
        wh.dimension("Date")
            .unwrap()
            .lookup(&Value::Date(Date::from_ymd(2004, 1, 31).unwrap()))
            .map(|k| k.index()),
        Some(0)
    );
}
