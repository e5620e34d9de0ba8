//! Records the warehouse roll-up performance baseline (experiment E16).
//!
//! Times the row-at-a-time reference executor against the fold kernel
//! (`CubeQuery::run`: compile + fold + materialise, every call) across
//! group cardinalities — from the zero-group global aggregate to a
//! composed City×Date roll-up — checks that both return identical
//! result sets, measures answer-cache throughput across shard counts
//! and thread counts, and writes the measurements to
//! `BENCH_warehouse.json` so future changes have a recorded trajectory
//! to compare against.
//!
//! Usage: `exp_warehouse_bench [--quick] [--out PATH]`
//!
//! `--quick` shrinks fact tables and iteration counts for CI smoke runs.

use dwqa_bench::section;
use dwqa_engine::AnswerCache;
use dwqa_warehouse::testing::{execute_reference, synthetic_warehouse};
use dwqa_warehouse::{AggFn, CubeQuery, Predicate, Value, Warehouse};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// One measured roll-up configuration.
#[derive(Serialize)]
struct RollupMeasurement {
    name: &'static str,
    fact_rows: usize,
    /// Result rows (group count) of the query.
    groups: usize,
    iterations: u32,
    reference_us: f64,
    kernel_us: f64,
    speedup: f64,
}

/// One measured answer-cache contention configuration.
#[derive(Serialize)]
struct CacheMeasurement {
    shards: usize,
    threads: usize,
    /// Operations per thread (one store + one lookup + one len each).
    ops_per_thread: u32,
    elapsed_us: f64,
    ops_per_sec: f64,
}

#[derive(Serialize)]
struct BenchReport {
    experiment: &'static str,
    quick: bool,
    rollups: Vec<RollupMeasurement>,
    cache: Vec<CacheMeasurement>,
}

/// Mean wall-clock microseconds per call of `f` over `iters` calls
/// (after a small warm-up).
fn time_us<T>(iters: u32, mut f: impl FnMut() -> T) -> f64 {
    for _ in 0..iters.div_ceil(10).max(1) {
        std::hint::black_box(f());
    }
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(iters)
}

/// The group-cardinality sweep: zero groups (the global aggregate),
/// coarse and fine single-coordinate roll-ups, a composed
/// two-coordinate roll-up, and a filtered variant.
fn sweep_queries() -> Vec<(&'static str, CubeQuery)> {
    vec![
        (
            "global_sum",
            CubeQuery::on("Last Minute Sales")
                .aggregate("price", AggFn::Sum)
                .aggregate("miles", AggFn::Avg),
        ),
        (
            "by_country",
            CubeQuery::on("Last Minute Sales")
                .group_by("Destination", "Country")
                .aggregate("price", AggFn::Sum),
        ),
        (
            "by_city",
            CubeQuery::on("Last Minute Sales")
                .group_by("Destination", "City")
                .aggregate("price", AggFn::Sum)
                .aggregate("price", AggFn::Count),
        ),
        (
            "by_airport",
            CubeQuery::on("Last Minute Sales")
                .group_by("Destination", "Airport")
                .aggregate("price", AggFn::Sum)
                .aggregate("miles", AggFn::Max),
        ),
        (
            "by_city_date",
            CubeQuery::on("Last Minute Sales")
                .group_by("Destination", "City")
                .group_by("Date", "Date")
                .aggregate("price", AggFn::Count),
        ),
        (
            "filtered_by_city",
            CubeQuery::on("Last Minute Sales")
                .filter(
                    "Destination",
                    "Country",
                    Predicate::Eq(Value::text("Spain")),
                )
                .group_by("Destination", "City")
                .aggregate("price", AggFn::Sum),
        ),
    ]
}

fn measure_rollup(
    name: &'static str,
    wh: &Warehouse,
    query: &CubeQuery,
    iters: u32,
) -> RollupMeasurement {
    // Sanity: the kernel must return exactly the reference rows.
    let reference = execute_reference(query, wh).expect("reference executes");
    let kernel = query.run(wh).expect("kernel executes");
    assert_eq!(
        reference, kernel,
        "kernel roll-up diverged from the reference on {name}"
    );

    let reference_us = time_us(iters, || execute_reference(query, wh));
    let kernel_us = time_us(iters, || query.run(wh));

    RollupMeasurement {
        name,
        fact_rows: wh
            .fact("Last Minute Sales")
            .map(dwqa_warehouse::FactTable::len)
            .unwrap_or(0),
        groups: reference.rows.len(),
        iterations: iters,
        reference_us,
        kernel_us,
        speedup: reference_us / kernel_us.max(1e-9),
    }
}

/// Hammers one shared cache from `threads` workers (store + lookup +
/// lock-free len per op) and reports aggregate throughput.
fn measure_cache(shards: usize, threads: usize, ops: u32) -> CacheMeasurement {
    let cache = Arc::new(AnswerCache::with_shards(4096, shards));
    // Pre-populate so lookups mostly hit.
    for i in 0..1024u32 {
        cache.store(format!("warm {i}"), vec![]);
    }
    let start = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                for i in 0..ops {
                    let key = format!("warm {}", (i.wrapping_mul(t as u32 + 1)) % 1024);
                    cache.store(key.clone(), vec![]);
                    std::hint::black_box(cache.lookup(&key));
                    std::hint::black_box(cache.len());
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("cache worker");
    }
    let elapsed_us = start.elapsed().as_secs_f64() * 1e6;
    let total_ops = f64::from(ops) * threads as f64;
    CacheMeasurement {
        shards,
        threads,
        ops_per_thread: ops,
        elapsed_us,
        ops_per_sec: total_ops / (elapsed_us / 1e6).max(1e-9),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_warehouse.json", String::as_str);

    let (rows, airports, iters) = if quick {
        (2_000, 64, 20)
    } else {
        (50_000, 256, 60)
    };
    let cache_ops: u32 = if quick { 2_000 } else { 20_000 };

    section("warehouse bench: reference executor vs fold kernel");
    let wh = synthetic_warehouse(rows, airports, 0x5EED);
    let mut rollups = Vec::new();
    for (name, query) in sweep_queries() {
        let m = measure_rollup(name, &wh, &query, iters);
        println!(
            "{:<17} {:>6} rows → {:>5} groups  reference {:>9.1} µs  \
             kernel {:>8.1} µs ({:>4.1}×)",
            m.name, m.fact_rows, m.groups, m.reference_us, m.kernel_us, m.speedup,
        );
        rollups.push(m);
    }

    section("answer cache: shard contention");
    let shard_steps: &[usize] = &[1, 2, 4, 8];
    let thread_steps: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let mut cache = Vec::new();
    for &s in shard_steps {
        for &t in thread_steps {
            let m = measure_cache(s, t, cache_ops);
            println!(
                "shards {s}  threads {t}  {:>10.0} ops/s  ({:.1} ms total)",
                m.ops_per_sec,
                m.elapsed_us / 1e3,
            );
            cache.push(m);
        }
    }

    // Acceptance gate: the kernel must beat the reference.
    let floor = if quick { 1.0 } else { 2.0 };
    let best = rollups.iter().map(|m| m.speedup).fold(0.0, f64::max);
    assert!(
        best >= floor,
        "best kernel speedup {best:.2}× is below the {floor:.1}× floor"
    );

    let report = BenchReport {
        experiment: "warehouse_bench",
        quick,
        rollups,
        cache,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(out_path, format!("{json}\n")).expect("write bench report");
    println!("\nwrote {out_path}");
}
