//! Criterion microbenchmarks for the individual substrates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dwqa_baselines::InvertedIndex;
use dwqa_bench::{build_corpus, FixtureConfig};
use dwqa_common::Month;
use dwqa_corpus::{default_cities, generate_sales, SalesConfig};
use dwqa_ir::PassageRetriever;
use dwqa_mdmodel::last_minute_sales;
use dwqa_nlp::{analyze_sentence, Lexicon};
use dwqa_ontology::{
    enrich_from_warehouse, merge_into_upper, schema_to_ontology, upper_ontology, MergeOptions,
};
use dwqa_warehouse::{AggFn, CubeQuery, Warehouse};

fn bench_nlp(c: &mut Criterion) {
    let lexicon = Lexicon::english();
    let sentence =
        "Monday, January 31, 2004 Barcelona Weather: Temperature 8º C around 46.4 F Clear skies today";
    c.bench_function("nlp/analyze_sentence", |b| {
        b.iter(|| analyze_sentence(&lexicon, std::hint::black_box(sentence)))
    });
}

fn bench_index(c: &mut Criterion) {
    let lexicon = Lexicon::english();
    let (store, _) = build_corpus(&FixtureConfig::default());
    let mut group = c.benchmark_group("ir");
    group.sample_size(20);
    group.bench_function("index_build_sequential", |b| {
        b.iter(|| InvertedIndex::build(&lexicon, &store))
    });
    let terms: Vec<String> = ["temperature", "january", "barcelona"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    // The paper fixes the passage window at 8 sentences; sweep it to show
    // the retrieval-cost/context trade-off (design-choice ablation).
    for window in [2usize, 4, 8, 16] {
        let retriever = PassageRetriever::build(&lexicon, &store, window);
        group.bench_with_input(
            BenchmarkId::new("passage_retrieval_window", window),
            &window,
            |b, _| b.iter(|| retriever.retrieve(std::hint::black_box(&terms), 5)),
        );
    }
    group.finish();
}

fn bench_warehouse(c: &mut Criterion) {
    let (_, truth) = build_corpus(&FixtureConfig {
        months: vec![(2004, Month::January), (2004, Month::June)],
        ..FixtureConfig::default()
    });
    let cities = default_cities();
    let rows = generate_sales(&SalesConfig::default(), &cities, &truth);
    let n_rows = rows.len();
    let mut group = c.benchmark_group("warehouse");
    group.sample_size(20);
    group.bench_function(format!("etl_load_{n_rows}_rows"), |b| {
        b.iter_batched(
            || (Warehouse::new(last_minute_sales()), rows.clone()),
            |(mut wh, rows)| wh.load("Last Minute Sales", rows).unwrap(),
            criterion::BatchSize::LargeInput,
        )
    });
    let mut wh = Warehouse::new(last_minute_sales());
    wh.load("Last Minute Sales", rows).unwrap();
    group.bench_function("cube_rollup_city_month", |b| {
        b.iter(|| {
            CubeQuery::on("Last Minute Sales")
                .group_by("Destination", "City")
                .group_by("Date", "Month")
                .aggregate("price", AggFn::Sum)
                .aggregate("price", AggFn::Count)
                .run(std::hint::black_box(&wh))
                .unwrap()
        })
    });
    group.finish();
}

fn bench_ontology(c: &mut Criterion) {
    let mut wh = Warehouse::new(last_minute_sales());
    let (_, truth) = build_corpus(&FixtureConfig::default());
    let rows = generate_sales(&SalesConfig::default(), &default_cities(), &truth);
    wh.load("Last Minute Sales", rows).unwrap();
    let mut domain = schema_to_ontology(wh.schema());
    enrich_from_warehouse(&mut domain, &wh);
    let mut group = c.benchmark_group("ontology");
    group.sample_size(20);
    group.bench_function("upper_ontology_build", |b| b.iter(upper_ontology));
    group.bench_function("merge_into_upper", |b| {
        b.iter_batched(
            upper_ontology,
            |mut upper| merge_into_upper(&domain, &mut upper, &MergeOptions::default()),
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_nlp,
    bench_index,
    bench_warehouse,
    bench_ontology
);
criterion_main!(benches);
