//! Module 3 answers, held byte for byte.
//!
//! `extract_answers` decides what Step 5 loads, so a restructuring of it
//! must not move one bit of one score. Each test asks a fixed question
//! list and digests `format!("{answers:?}")` of every reply — value,
//! score, URL, sentence, context date and location, in rank order — into
//! one FNV-1a hash. The expected digests are constants recorded at the
//! commit before Module 3 was rebuilt around its three scopes; they change
//! only in a PR that means to change answers, and that PR says which.

use dwqa_common::{Date, Month};
use dwqa_core::{integrated_schema, IntegrationPipeline, PipelineOptions};
use dwqa_corpus::{
    default_cities, generate_distractors, generate_sales, generate_weather_corpus, GroundTruth,
    PageStyle, SalesConfig, WeatherConfig,
};
use dwqa_ir::{DocFormat, Document, DocumentStore};
use dwqa_ontology::{upper_ontology, ConceptKind, OntoPos, Relation};
use dwqa_qa::{AliQAn, AliQAnConfig};
use dwqa_warehouse::Warehouse;

/// Two years of the same three months: pages that differ from the right
/// one in a single query term. May is there because the analysis drops it.
const SIX_MONTHS: [(i32, Month); 6] = [
    (2004, Month::January),
    (2004, Month::May),
    (2004, Month::October),
    (2005, Month::January),
    (2005, Month::May),
    (2005, Month::October),
];

const WEATHER_DIGEST: u64 = 0x386b_51e1_9768_fd68;
const MIXED_DIGEST: u64 = 0x4759_aacd_5c86_9282;
/// `(seed, digest)` over the end-to-end benchmark's fixture shape.
const FULL_POOL_DIGESTS: [(u64, u64); 3] = [
    (3, 0xb3e1_785f_9fa3_7943),
    (2000, 0xb11c_f9f4_cab8_26cf),
    (7, 0xa346_5823_2457_97bc),
];

/// FNV-1a over the debug rendering of every question's answers.
fn digest<'a>(qa: &AliQAn, questions: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for question in questions {
        let rendered = format!("{question}\n{:?}\n", qa.answer(question));
        for byte in rendered.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The benchmark fixture's shape (`e2e/src/fixture.rs`) over `months`:
/// prose and table pages for every city, distractors, the sales source
/// behind the merged ontology, and one dated question per reading.
fn weather_world(
    seed: u64,
    months: &[(i32, Month)],
    distractors: usize,
) -> (IntegrationPipeline, Vec<String>) {
    let cities = default_cities();
    let mut corpus = DocumentStore::new();
    let mut truth = GroundTruth::new();
    for (month_index, &(year, month)) in (0u64..).zip(months) {
        let cfg = WeatherConfig::new(seed.wrapping_add(month_index), year, month)
            .with_styles(&[PageStyle::Prose, PageStyle::Table]);
        let generated = generate_weather_corpus(&cfg, &cities);
        for (_, doc) in generated.store.iter() {
            corpus.add(doc.clone());
        }
        truth.extend(&generated.truth);
    }
    for doc in generate_distractors(seed ^ 0xD15C0, distractors) {
        corpus.add(doc);
    }
    let sales_cfg = SalesConfig {
        seed: seed ^ 0x5A1E5,
        ..SalesConfig::default()
    };
    let mut warehouse = Warehouse::new(integrated_schema());
    warehouse
        .load(
            "Last Minute Sales",
            generate_sales(&sales_cfg, &cities, &truth),
        )
        .expect("generated sales rows fit the schema");

    let mut pool = Vec::with_capacity(truth.len());
    let mut seen = std::collections::BTreeSet::new();
    for city in &cities {
        if !seen.insert(dwqa_common::text::fold(city.city)) {
            continue; // New York has two airports, one weather series
        }
        for &(year, month) in months {
            for date in Date::month_days(year, month) {
                if truth.temperature(city.city, date).is_some() {
                    pool.push(format!(
                        "What is the temperature on {} {}, {} in {}?",
                        month.name(),
                        date.day(),
                        year,
                        city.city
                    ));
                }
            }
        }
    }
    let pipeline = IntegrationPipeline::build(warehouse, corpus, PipelineOptions::default());
    (pipeline, pool)
}

#[test]
fn dated_weather_questions_get_the_recorded_answers() {
    let (pipeline, pool) = weather_world(11, &SIX_MONTHS, 24);
    assert_eq!(pool.len(), 1_302);
    let got = digest(&pipeline.qa, pool.iter().map(String::as_str));
    assert_eq!(got, WEATHER_DIGEST, "digest {got:#018x}");
}

/// The pages of `examples/clef_questions.rs`, plus one page per answer
/// type its six questions do not ask for.
const MIXED_PAGES: [(&str, &str); 11] = [
    (
        "history/gulf-war",
        "Iraq invaded Kuwait in 1990. The invasion started the Gulf War. \
         Many countries joined the coalition against Iraq.",
    ),
    (
        "astronomy/sirius",
        "All stars shine but none do it like Sirius, the brightest star in the night sky. \
         Sirius is visible from almost everywhere on Earth.",
    ),
    (
        "history/la-guardia",
        "Fiorello La Guardia was the mayor of New York. He reformed the city government.",
    ),
    (
        "travel/promo",
        "Last minute flights to Barcelona cost 49 euros this January. \
         Sales rose 12 % compared to December.",
    ),
    (
        "history/jfk",
        "President John F. Kennedy was assassinated in 1963 in Dallas.",
    ),
    (
        "culture/festival",
        "The festival opened in March 2005. The bridge was opened on June 12, 1997.",
    ),
    (
        "history/coalition",
        "In total 34 countries joined the coalition. The war lasted 6 weeks.",
    ),
    (
        "sport/marathon",
        "The runner covered 42 kilometres. Another runner covered 42.",
    ),
    (
        "travel/fair",
        "On January 31, 2004 the fair drew 5000 visitors at 8º C.",
    ),
    (
        "health/surgery",
        "The knee surgery for Maria Lopez cost 4200 euros. \
         Doctor Ramirez performed the knee surgery.",
    ),
    (
        "weather/barcelona",
        "Saturday, January 31, 2004\n\
         Barcelona Weather: Temperature 8º C around 46.4 F Clear skies today",
    ),
];

const MIXED_QUESTIONS: [&str; 19] = [
    // examples/clef_questions.rs
    "Which country did Iraq invade in 1990?",
    "What is the brightest star visible in the universe?",
    "Who was the mayor of New York?",
    "Which year was President Kennedy assassinated?",
    "What is the price of a last minute flight to Barcelona?",
    "When did Iraq invade Kuwait?",
    // answered by the ontology
    "What does JFK stand for?",
    "What was the profession of La Guardia?",
    "Where is El Prat?",
    // the remaining answer types
    "Which month did the festival open?",
    "Which year was the bridge opened?",
    "What percentage did sales rise?",
    "How many countries joined the coalition?",
    "What distance did the runner cover?",
    "How long did the war last?",
    "How many visitors came to the fair?",
    "What is Sirius?",
    "Who performed the knee surgery?",
    "What is the temperature in January of 2004 in El Prat?",
];

#[test]
fn every_answer_type_and_the_ontology_path_get_the_recorded_answers() {
    let mut ontology = upper_ontology();
    // What Steps 2–3 would have merged in: El Prat as a Barcelona
    // airport, JFK as a label of its airport's synset.
    let airport = ontology.class_for("airport").expect("upper ontology");
    let barcelona = ontology.concepts_for("Barcelona")[0];
    let el_prat = ontology.add_concept(
        &["El Prat"],
        "an airport from the data warehouse",
        OntoPos::Noun,
        ConceptKind::Instance,
    );
    ontology.relate(el_prat, Relation::InstanceOf, airport);
    ontology.relate(el_prat, Relation::Meronym, barcelona);
    let kennedy = ontology.concepts_for("Kennedy International Airport")[0];
    ontology.add_label(kennedy, "JFK");

    let mut store = DocumentStore::new();
    for (path, text) in MIXED_PAGES {
        store.add(Document::new(
            &format!("http://corpus.example.org/{path}"),
            DocFormat::Plain,
            path,
            text,
        ));
    }
    let mut qa = AliQAn::new(ontology, AliQAnConfig::default());
    qa.tune(dwqa_qa::temperature_pattern());
    qa.index_corpus(store);

    for question in MIXED_QUESTIONS {
        assert!(!qa.answer(question).is_empty(), "unanswered: {question}");
    }
    let got = digest(&qa, MIXED_QUESTIONS);
    assert_eq!(got, MIXED_DIGEST, "digest {got:#018x}");
}

/// The end-to-end benchmark's whole fixture — 48 months, 200 distractors,
/// every one of its 10 227 questions — on three seeds. Minutes in a debug
/// build; CI runs it in release.
#[test]
#[ignore = "full benchmark pool; run with --release -- --ignored"]
fn full_benchmark_pool_gets_the_recorded_answers() {
    let months: Vec<(i32, Month)> = (2004..=2007)
        .flat_map(|year| {
            (1..=12)
                .filter_map(Month::from_number)
                .map(move |m| (year, m))
        })
        .collect();
    let got = FULL_POOL_DIGESTS.map(|(seed, _)| {
        let (pipeline, pool) = weather_world(seed, &months, 200);
        assert_eq!(pool.len(), 10_227, "seed {seed}");
        (seed, digest(&pipeline.qa, pool.iter().map(String::as_str)))
    });
    assert_eq!(got, FULL_POOL_DIGESTS, "digests {got:#x?}");
}
