//! E17 — incremental roll-up maintenance vs purge-and-recompute.
//!
//! Replays the same stream of small feedback-style commits against two
//! identically seeded warehouses. The **incremental** lane folds each
//! commit's append delta into the live materialized roll-ups
//! ([`RollupCache::apply_delta`]) and serves the post-commit queries
//! from the maintained entries; the **purge** lane models the old
//! behaviour — every commit invalidates the cache, so every post-commit
//! query re-scans the whole fact table. Both lanes must produce
//! byte-identical results at every cycle; the report self-gates on the
//! incremental lane winning the commit-then-query cycle by ≥2×.
//!
//! Usage: `exp_incremental [--quick] [--out PATH]`

use dwqa_bench::section;
use dwqa_core::RollupCache;
use dwqa_warehouse::testing::{execute_reference, synthetic_batch, synthetic_warehouse, Mix};
use dwqa_warehouse::{AggFn, CubeQuery, Predicate, Value};
use serde::Serialize;
use std::time::Instant;

const WAREHOUSE_SEED: u64 = 0x5EED;
const DELTA_SEED: u64 = 0xDE17A;

/// One maintenance lane's timings over the whole commit stream.
#[derive(Serialize)]
struct LaneReport {
    lane: &'static str,
    total_us: f64,
    /// Mean commit-then-query latency (load + maintenance + queries).
    cycle_us: f64,
    /// Mean of the query part alone.
    query_us: f64,
}

#[derive(Serialize)]
struct BenchReport {
    experiment: &'static str,
    quick: bool,
    base_rows: usize,
    airports: usize,
    delta_rows: usize,
    cycles: usize,
    queries: usize,
    incremental: LaneReport,
    purge: LaneReport,
    /// purge cycle time / incremental cycle time.
    speedup: f64,
    /// The self-gate this report was checked against.
    speedup_floor: f64,
}

/// The post-commit read set: the analyses a feedback-driven pipeline
/// re-reads after every commit.
fn read_set() -> Vec<CubeQuery> {
    vec![
        CubeQuery::on("Last Minute Sales")
            .aggregate("price", AggFn::Sum)
            .aggregate("miles", AggFn::Avg),
        CubeQuery::on("Last Minute Sales")
            .group_by("Destination", "Country")
            .aggregate("price", AggFn::Sum),
        CubeQuery::on("Last Minute Sales")
            .group_by("Destination", "City")
            .group_by("Date", "Date")
            .aggregate("price", AggFn::Count),
        CubeQuery::on("Last Minute Sales")
            .filter(
                "Destination",
                "Country",
                Predicate::Eq(Value::text("Spain")),
            )
            .group_by("Destination", "City")
            .aggregate("price", AggFn::Sum)
            .aggregate("price", AggFn::Count),
    ]
}

/// Whether a lane folds deltas into live entries or purges on commit.
#[derive(Clone, Copy, PartialEq)]
enum Lane {
    Incremental,
    Purge,
}

/// Replays the identical commit stream through one lane, returning the
/// timings and the final result sets (for the cross-lane parity check).
fn run_lane(
    lane: Lane,
    base_rows: usize,
    airports: usize,
    delta_rows: usize,
    cycles: usize,
) -> (LaneReport, Vec<dwqa_warehouse::ResultSet>) {
    let mut wh = synthetic_warehouse(base_rows, airports, WAREHOUSE_SEED);
    let queries = read_set();
    let cache = RollupCache::new(queries.len() + 2);

    // Warm the registry: every lane starts with live entries.
    for q in &queries {
        cache
            .run(&wh, q)
            .unwrap_or_else(|e| panic!("warm-up query failed: {e}"));
    }

    let mut m = Mix(DELTA_SEED);
    let mut query_secs = 0.0f64;
    let start = Instant::now();
    for _ in 0..cycles {
        let tracker = wh.delta_tracker();
        let batch = synthetic_batch(&mut m, delta_rows, airports);
        wh.load("Last Minute Sales", batch)
            .unwrap_or_else(|e| panic!("delta load failed: {e}"));
        match lane {
            Lane::Incremental => {
                let delta = wh
                    .delta_since(&tracker)
                    .unwrap_or_else(|| panic!("load must be a pure append"));
                cache.apply_delta(&wh, &delta);
            }
            Lane::Purge => cache.clear(),
        }
        let q_start = Instant::now();
        for q in &queries {
            std::hint::black_box(
                cache
                    .run(&wh, q)
                    .unwrap_or_else(|e| panic!("post-commit query failed: {e}")),
            );
        }
        query_secs += q_start.elapsed().as_secs_f64();
    }
    let total_us = start.elapsed().as_secs_f64() * 1e6;

    let finals: Vec<_> = queries
        .iter()
        .map(|q| {
            cache
                .run(&wh, q)
                .unwrap_or_else(|e| panic!("final query failed: {e}"))
        })
        .collect();
    (
        LaneReport {
            lane: match lane {
                Lane::Incremental => "incremental",
                Lane::Purge => "purge",
            },
            total_us,
            cycle_us: total_us / cycles as f64,
            query_us: query_secs * 1e6 / cycles as f64,
        },
        finals,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_incremental.json", String::as_str);

    let (base_rows, airports, delta_rows, cycles) = if quick {
        (10_000, 64, 16, 40)
    } else {
        (50_000, 256, 16, 120)
    };
    let queries = read_set().len();

    section("incremental maintenance: fold deltas vs purge-and-recompute");
    println!(
        "base {base_rows} rows, {delta_rows}-row commits × {cycles} cycles, \
         {queries} post-commit queries"
    );
    let (incremental, inc_finals) =
        run_lane(Lane::Incremental, base_rows, airports, delta_rows, cycles);
    let (purge, purge_finals) = run_lane(Lane::Purge, base_rows, airports, delta_rows, cycles);

    // Both lanes replayed the identical commit stream; their final
    // results must agree byte for byte — incremental maintenance is an
    // optimization, never a different answer.
    assert_eq!(
        inc_finals, purge_finals,
        "incremental lane diverged from the purge lane"
    );

    // A cold reference recompute agrees too (the ground truth).
    let reference = {
        let mut wh = synthetic_warehouse(base_rows, airports, WAREHOUSE_SEED);
        let mut m = Mix(DELTA_SEED);
        for _ in 0..cycles {
            let batch = synthetic_batch(&mut m, delta_rows, airports);
            wh.load("Last Minute Sales", batch)
                .unwrap_or_else(|e| panic!("reference load failed: {e}"));
        }
        read_set()
            .iter()
            .map(|q| {
                execute_reference(q, &wh).unwrap_or_else(|e| panic!("reference query failed: {e}"))
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        inc_finals, reference,
        "maintained results diverged from a cold recompute"
    );

    for lane in [&incremental, &purge] {
        println!(
            "{:<12} {:>9.1} µs/cycle  (queries {:>9.1} µs)  total {:>9.1} ms",
            lane.lane,
            lane.cycle_us,
            lane.query_us,
            lane.total_us / 1e3,
        );
    }

    let speedup = purge.cycle_us / incremental.cycle_us.max(1e-9);
    let speedup_floor = 2.0;
    println!("commit-then-query speedup: {speedup:.1}× (floor {speedup_floor:.1}×)");
    assert!(
        speedup >= speedup_floor,
        "incremental maintenance speedup {speedup:.2}× is below the \
         {speedup_floor:.1}× floor on {delta_rows}-row commits"
    );

    let report = BenchReport {
        experiment: "incremental",
        quick,
        base_rows,
        airports,
        delta_rows,
        cycles,
        queries,
        incremental,
        purge,
        speedup,
        speedup_floor,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serialises");
    std::fs::write(out_path, format!("{json}\n")).expect("write bench report");
    println!("\nwrote {out_path}");
}
