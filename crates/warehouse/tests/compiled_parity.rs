//! Differential proptest: the compiled columnar executor must be
//! byte-identical to the row-at-a-time reference executor — same rows,
//! same ordering, same column names, and the same error on invalid
//! queries — for arbitrary corpora and arbitrary query shapes.
//!
//! The corpus and query decoders live in [`dwqa_warehouse::testing`] and
//! are shared with the incremental-maintenance suite and the experiment
//! binaries; each case is seeded from raw `u64`s, and a failing case
//! prints the seeds, which reproduce deterministically.

use dwqa_warehouse::testing::{airport_spec, build_query, build_warehouse, execute_reference};
use dwqa_warehouse::{
    AggFn, CubeQuery, FactRowBuilder, Predicate, ResultSet, Value, Warehouse, WarehouseError,
};
use proptest::prelude::*;

/// Both executors must agree exactly — on success, the same `ResultSet`
/// (columns, rows, ordering); on failure, the same error.
fn assert_parity(wh: &Warehouse, q: &CubeQuery) {
    let reference: Result<ResultSet, WarehouseError> = execute_reference(q, wh);
    let compiled = q.run(wh);
    match (&reference, &compiled) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "result mismatch for {q:?}"),
        (Err(a), Err(b)) => assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "error mismatch for {q:?}"
        ),
        _ => {
            panic!("executor disagreement for {q:?}: reference={reference:?} compiled={compiled:?}")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn prop_compiled_executor_matches_reference(
        row_seeds in proptest::collection::vec(any::<u64>(), 0..60),
        query_seed in any::<u64>(),
    ) {
        let wh = build_warehouse(&row_seeds);
        let q = build_query(query_seed);
        assert_parity(&wh, &q);
    }

    /// The same queries against a completely empty warehouse: the
    /// zero-group fast path must agree on the "no rows at all" edge
    /// (global aggregates produce *no* row, not a row of nulls).
    #[test]
    fn prop_parity_on_empty_fact_table(query_seed in any::<u64>()) {
        let wh = Warehouse::new(dwqa_mdmodel::last_minute_sales());
        let q = build_query(query_seed);
        assert_parity(&wh, &q);
    }

    /// Repeated runs of one query against one warehouse hit the plan
    /// cache; cached plans must not drift from fresh compiles.
    #[test]
    fn prop_plan_cache_is_transparent(
        row_seeds in proptest::collection::vec(any::<u64>(), 1..30),
        query_seed in any::<u64>(),
    ) {
        let wh = build_warehouse(&row_seeds);
        let q = build_query(query_seed);
        let first = q.run(&wh);
        let second = q.run(&wh);
        match (&first, &second) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a:?}"), format!("{b:?}")),
            _ => prop_assert!(false, "cached run diverged: {:?} vs {:?}", first, second),
        }
    }
}

/// Four group-by coordinates over 40-member pools push the composed
/// ordinal space past the dense limit (40 airports² × 40 customers ×
/// 27 dates ≈ 1.7M > 2²⁰), forcing the sparse (hashed-ordinal) path —
/// which must still match the reference exactly.
#[test]
fn sparse_path_matches_reference() {
    let mut wh = Warehouse::new(dwqa_mdmodel::last_minute_sales());
    let batch: Vec<_> = (0..200usize)
        .map(|i| {
            let mut b = FactRowBuilder::new();
            b.measure("price", Value::Float((i * 7 % 450) as f64))
                .measure("miles", Value::Float((i * 13 % 2000) as f64))
                .measure("traveler_rate", Value::Float(0.5))
                .role_member("Origin", &airport_spec(i % 40))
                .role_member("Destination", &airport_spec((i * 3 + 1) % 40))
                .role_member(
                    "Customer",
                    &[("customer_name", Value::text(format!("C{}", i % 40)))],
                )
                .role_member(
                    "Date",
                    &[("date", Value::date(2004, 1, (i % 27 + 1) as u32).unwrap())],
                );
            b.build()
        })
        .collect();
    wh.load("Last Minute Sales", batch).unwrap();
    let q = CubeQuery::on("Last Minute Sales")
        .group_by("Origin", "Airport")
        .group_by("Destination", "Airport")
        .group_by("Customer", "Customer")
        .group_by("Date", "Date")
        .aggregate("price", AggFn::Sum)
        .aggregate("miles", AggFn::Avg)
        .order_by("sum(price)", true);
    let reference = execute_reference(&q, &wh).unwrap();
    let compiled = q.run(&wh).unwrap();
    assert_eq!(reference, compiled);
    assert_eq!(reference.rows.len(), 200); // every fact row its own group
}

/// Duplicate filters on the same role AND-merge in the compiled plan;
/// the reference evaluates them sequentially. Both must agree,
/// including when the conjunction is unsatisfiable.
#[test]
fn stacked_filters_on_one_role_and_merge() {
    let wh = build_warehouse(&(0..30).map(|i| i * 0x9E37 + 11).collect::<Vec<u64>>());
    let q = CubeQuery::on("Last Minute Sales")
        .filter(
            "Destination",
            "Country",
            Predicate::Eq(Value::text("Spain")),
        )
        .filter(
            "Destination",
            "City",
            Predicate::Eq(Value::text("Barcelona")),
        )
        .group_by("Destination", "Airport")
        .aggregate("price", AggFn::Count);
    assert_eq!(execute_reference(&q, &wh).unwrap(), q.run(&wh).unwrap());

    let impossible = CubeQuery::on("Last Minute Sales")
        .filter(
            "Destination",
            "City",
            Predicate::Eq(Value::text("Barcelona")),
        )
        .filter("Destination", "City", Predicate::Eq(Value::text("Madrid")))
        .aggregate("price", AggFn::Count);
    let reference = execute_reference(&impossible, &wh).unwrap();
    let compiled = impossible.run(&wh).unwrap();
    assert_eq!(reference, compiled);
    assert!(reference.rows.is_empty());
}
