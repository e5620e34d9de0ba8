//! The benchmark's world, built from `--seed` through the public APIs
//! of `dwqa-corpus` and `dwqa-core` only: 48 months of weather pages
//! (prose + table) for the seven distinct cities, 200 distractors, the
//! correlated sales source, and the question pool with its ground
//! truth. Every workload starts from this same fixture.

use dwqa_common::{Date, Month};
use dwqa_core::{integrated_schema, IntegrationPipeline, PipelineOptions};
use dwqa_corpus::{
    default_cities, generate_distractors, generate_sales, generate_weather_corpus, GroundTruth,
    PageStyle, SalesConfig, WeatherConfig,
};
use dwqa_ir::DocumentStore;
use dwqa_qa::{Answer, AnswerValue};
use dwqa_store::{FsyncPolicy, StoreConfig};
use dwqa_warehouse::{FactRow, Warehouse};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const FIRST_YEAR: i32 = 2004;
pub const LAST_YEAR: i32 = 2007;
pub const DISTRACTORS: usize = 200;
/// An answer counts as right within this many °C of the ground truth.
pub const TOLERANCE_C: f64 = 0.5;
pub const FSYNC_POLICY: &str = "always";
pub const CHECKPOINT_EVERY: u64 = 256;
/// Recoveries of the run's store directory `recovery_ms` is the median of.
pub const RECOVERIES: usize = 7;

/// One answerable `(city, date)` question with the value the generator
/// wrote for it.
#[derive(Debug, Clone)]
pub struct Question {
    pub text: String,
    pub city: String,
    pub date: Date,
    pub celsius: f64,
}

impl Question {
    /// Whether the top answer is a temperature within [`TOLERANCE_C`] of
    /// the ground truth. No answer at all is a wrong answer.
    pub fn top_is_right(&self, answers: &[Answer]) -> bool {
        match answers.first().map(|a| &a.value) {
            Some(AnswerValue::Temperature { celsius, .. }) => {
                (celsius - self.celsius).abs() <= TOLERANCE_C
            }
            _ => false,
        }
    }
}

/// The generated inputs, before any product code has consumed them.
pub struct Inputs {
    pub corpus: DocumentStore,
    pub truth: GroundTruth,
    pub sales: Vec<FactRow>,
    /// Every answerable question, ordered by city then date.
    pub pool: Vec<Question>,
    pub generate_s: f64,
}

/// Generates corpus, ground truth, sales rows and the question pool.
pub fn generate_inputs(seed: u64) -> Inputs {
    let t = Instant::now();
    let cities = default_cities();
    let mut corpus = DocumentStore::new();
    let mut truth = GroundTruth::new();
    let mut month_index = 0u64;
    for year in FIRST_YEAR..=LAST_YEAR {
        for month in (1..=12).filter_map(Month::from_number) {
            let cfg = WeatherConfig::new(seed.wrapping_add(month_index), year, month)
                .with_styles(&[PageStyle::Prose, PageStyle::Table]);
            month_index += 1;
            let generated = generate_weather_corpus(&cfg, &cities);
            for (_, doc) in generated.store.iter() {
                corpus.add(doc.clone());
            }
            truth.extend(&generated.truth);
        }
    }
    for doc in generate_distractors(seed ^ 0xD15C0, DISTRACTORS) {
        corpus.add(doc);
    }
    let sales_cfg = SalesConfig {
        seed: seed ^ 0x5A1E5,
        ..SalesConfig::default()
    };
    let sales = generate_sales(&sales_cfg, &cities, &truth);

    let mut pool = Vec::with_capacity(truth.len());
    let mut seen = std::collections::BTreeSet::new();
    for city in &cities {
        if !seen.insert(dwqa_common::text::fold(city.city)) {
            continue; // New York has two airports, one weather series
        }
        for year in FIRST_YEAR..=LAST_YEAR {
            for month in (1..=12).filter_map(Month::from_number) {
                for date in Date::month_days(year, month) {
                    if let Some(celsius) = truth.temperature(city.city, date) {
                        pool.push(Question {
                            text: format!(
                                "What is the temperature on {} {}, {} in {}?",
                                month.name(),
                                date.day(),
                                year,
                                city.city
                            ),
                            city: city.city.to_owned(),
                            date,
                            celsius,
                        });
                    }
                }
            }
        }
    }
    let generate_s = t.elapsed().as_secs_f64();
    // Set-up is timed as a whole against the samples taken around and
    // inside it (`hostspeed::timed_s`): one burst after each stage.
    crate::hostspeed::burst();
    Inputs {
        corpus,
        truth,
        sales,
        pool,
        generate_s,
    }
}

/// Fixture sizes, recorded in the host block of every output.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub documents: usize,
    pub sales_rows: usize,
    pub questions: usize,
}

impl Inputs {
    pub fn sizes(&self) -> Sizes {
        Sizes {
            documents: self.corpus.len(),
            sales_rows: self.sales.len(),
            questions: self.pool.len(),
        }
    }
}

/// A pipeline over the inputs (Steps 1–4 done, corpus indexed) and how
/// long its two halves took.
pub struct Built {
    pub pipeline: IntegrationPipeline,
    pub initial_load_s: f64,
    /// `IntegrationPipeline::build`: ontology steps 1–4 plus indexation.
    pub pipeline_build_s: f64,
}

/// The warehouse before any feedback: the schema with the sales loaded.
fn sales_warehouse(inputs: &Inputs) -> Warehouse {
    let mut warehouse = Warehouse::new(integrated_schema());
    warehouse
        .load("Last Minute Sales", inputs.sales.clone())
        .unwrap_or_else(|e| panic!("generated sales rows must fit the schema: {e}"));
    warehouse
}

/// The warehouse a never-failed node would hold: the initial sales load
/// plus every committed transaction fed once, in order, through the
/// product's own validating, deduplicating loader.
pub fn reference_warehouse(inputs: &Inputs, committed: &[Vec<Vec<Answer>>]) -> Warehouse {
    let mut warehouse = sales_warehouse(inputs);
    let axioms = dwqa_core::TemperatureAxioms::default();
    let mut seen = std::collections::HashSet::new();
    for batches in committed {
        for answers in batches {
            dwqa_core::feedback::feed_weather_dedup(&mut warehouse, answers, &axioms, &mut seen)
                .unwrap_or_else(|e| panic!("reference feed: {e}"));
        }
    }
    warehouse
}

/// The question pool in the seeded order every workload draws from: the
/// head is the hot working set, the rest is fed or audited.
pub fn shuffled_pool(inputs: &Inputs, seed: u64) -> Vec<Question> {
    let mut pool = inputs.pool.clone();
    crate::stats::shuffle(&mut pool, &mut crate::stats::Rng::new(seed).fork(0x5E7));
    pool
}

pub fn build_pipeline(inputs: &Inputs) -> Built {
    let t = Instant::now();
    let warehouse = sales_warehouse(inputs);
    let initial_load_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let pipeline =
        IntegrationPipeline::build(warehouse, inputs.corpus.clone(), PipelineOptions::default());
    let pipeline_build_s = t.elapsed().as_secs_f64();
    crate::hostspeed::burst();
    Built {
        pipeline,
        initial_load_s,
        pipeline_build_s,
    }
}

/// A pipeline with no corpus and an empty warehouse: what a restarted
/// node has before it recovers its store directory.
pub fn empty_pipeline() -> IntegrationPipeline {
    IntegrationPipeline::build(
        Warehouse::new(integrated_schema()),
        DocumentStore::new(),
        PipelineOptions::default(),
    )
}

/// The durable configuration every workload runs: fsync on every append,
/// a checkpoint every [`CHECKPOINT_EVERY`] WAL records.
pub fn store_config() -> StoreConfig {
    StoreConfig::builder()
        .fsync(FsyncPolicy::Always)
        .checkpoint_every(Some(CHECKPOINT_EVERY))
        .build()
        .unwrap_or_else(|e| panic!("store config: {e}"))
}

/// Attaches a fresh durable store at `dir`; returns the seconds it took
/// (the initial checkpoint is written here).
pub fn attach_store(pipeline: &mut IntegrationPipeline, dir: &Path) -> f64 {
    let t = Instant::now();
    pipeline
        .attach_store_with(dir, store_config())
        .unwrap_or_else(|e| panic!("attach store at {}: {e}", dir.display()));
    let attach_s = t.elapsed().as_secs_f64();
    crate::hostspeed::burst();
    attach_s
}

/// Recovers `dir` into an empty pipeline the way a restarted node would,
/// `repeats` times; returns the recovered pipeline of the last attempt
/// and each attempt's milliseconds, at the reference host's speed.
pub fn recover(dir: &Path, repeats: usize) -> (IntegrationPipeline, Vec<f64>) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let mut pipeline = empty_pipeline();
        let ((), seconds) = crate::hostspeed::timed_s(|| {
            pipeline
                .attach_store_with(dir, store_config())
                .unwrap_or_else(|e| panic!("recover {}: {e}", dir.display()));
        });
        times.push(seconds * 1e3);
        // Release the directory before the next attempt opens it.
        drop(pipeline.detach_store());
        last = Some(pipeline);
    }
    (last.unwrap_or_else(empty_pipeline), times)
}

/// Scratch space for store directories, inside the current directory
/// (the benchmark may write only inside its checkout) and removed on
/// drop.
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    pub fn create() -> RunDir {
        let base = std::env::current_dir()
            .unwrap_or_else(|e| panic!("current dir: {e}"))
            .join(".e2e_run");
        let root = base.join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap_or_else(|e| panic!("create {}: {e}", root.display()));
        RunDir { root }
    }

    /// A fresh, empty sub-directory.
    pub fn sub(&self, tag: &str) -> PathBuf {
        let dir = self.root.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(base) = self.root.parent() {
            // Succeeds only when no other run is using it.
            let _ = std::fs::remove_dir(base);
        }
    }
}

/// Sets the system up `repeats` times from scratch, tearing each earlier
/// instance down (untimed) before the next; returns the last instance
/// and the median set-up time in seconds, at the reference host's speed.
pub fn repeat_setup<T>(
    repeats: usize,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(repeats);
    let mut instance = None;
    for _ in 0..repeats.max(1) {
        if let Some(previous) = instance.take() {
            teardown(previous);
        }
        let (built, seconds) = crate::hostspeed::timed_s(&mut build);
        instance = Some(built);
        times.push(seconds);
    }
    let Some(instance) = instance else {
        unreachable!("at least one set-up ran")
    };
    (instance, crate::stats::median(&times))
}

/// Steps 1–3 of `IntegrationPipeline::build` (schema → ontology, DW
/// enrichment, merge into the upper ontology) repeated through the
/// ontology crate's public functions, to split the pipeline build time
/// into its ontology share and its indexation share. Seconds.
pub fn ontology_merge_s(warehouse: &Warehouse) -> f64 {
    let t = Instant::now();
    let mut domain = dwqa_ontology::schema_to_ontology(warehouse.schema());
    dwqa_ontology::enrich_from_warehouse(&mut domain, warehouse);
    let mut upper = dwqa_ontology::upper_ontology();
    let report = dwqa_ontology::merge_into_upper(
        &domain,
        &mut upper,
        &dwqa_ontology::MergeOptions::default(),
    );
    std::hint::black_box(report);
    t.elapsed().as_secs_f64()
}
