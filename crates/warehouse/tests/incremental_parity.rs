//! Differential proptest for incremental roll-up maintenance: a
//! [`MaterializedRollup`] that absorbs typed [`WarehouseDelta`]s across
//! arbitrary interleavings of feed-commit / rollback / crash-recovery /
//! query must stay **byte-identical** to a cold
//! [`execute_reference`] recompute — including forced-demotion
//! interleavings (a tiny group limit) and recovery interleavings (the
//! warehouse replaced by a snapshot replay of identical content).
//!
//! The corpus and query decoders are shared with `compiled_parity.rs`
//! via [`dwqa_warehouse::testing`]; each case is seeded from raw `u64`s
//! and reproduces deterministically.

use dwqa_warehouse::testing::{build_query, build_warehouse, execute_reference, sales_batch, Mix};
use dwqa_warehouse::{
    AggFn, CubeQuery, MaterializedRollup, Predicate, Value, Warehouse,
    DEFAULT_MATERIALIZED_GROUP_LIMIT,
};
use proptest::prelude::*;

/// Runs one decoded interleaving: maintains a materialized roll-up per
/// query across commits, rollbacks and crash-recoveries, asserting at
/// every query op that the maintained result equals a cold reference
/// recompute exactly. `group_limit` tightens the demotion threshold so
/// small limits force the demote-and-rebuild path.
fn check_interleaving(init_seed: u64, op_seed: u64, query_seeds: &[u64], group_limit: usize) {
    let mut m = Mix(init_seed);
    let init_rows: Vec<u64> = (0..m.below(40)).map(|_| m.word()).collect();
    let mut wh = build_warehouse(&init_rows);
    let queries: Vec<CubeQuery> = query_seeds.iter().map(|&s| build_query(s)).collect();
    // One live entry per query; None = not (or no longer) materialized,
    // recompute on next read — demotion is always an option, never a
    // correctness risk.
    let mut mats: Vec<Option<MaterializedRollup>> = vec![None; queries.len()];

    let mut ops = Mix(op_seed);
    let n_ops = ops.below(10) + 2;
    for op in 0..=n_ops {
        // Every interleaving ends on a query op so maintained state is
        // always checked at least once.
        let kind = if op == n_ops { 3 } else { ops.below(4) };
        match kind {
            0 => {
                // Commit: capture a tracker, append a small batch, fold
                // the resulting delta into every live entry.
                let tracker = wh.delta_tracker();
                let batch_seeds: Vec<u64> = (0..ops.below(5) + 1).map(|_| ops.word()).collect();
                wh.load("Last Minute Sales", sales_batch(&batch_seeds))
                    .unwrap();
                let delta = wh.delta_since(&tracker).expect("load is a pure append");
                for slot in &mut mats {
                    if let Some(mat) = slot {
                        if !mat.apply_delta(&wh, &delta) {
                            *slot = None; // demote: rebuilt on next query
                        }
                    }
                }
            }
            1 => {
                // Rollback: a batch is loaded, then the transaction is
                // abandoned by restoring the pre-load snapshot. The
                // delta is discarded; live state must stay valid
                // because the restored content matches what was folded.
                let before = wh.snapshot();
                let batch_seeds: Vec<u64> = (0..ops.below(5) + 1).map(|_| ops.word()).collect();
                wh.load("Last Minute Sales", sales_batch(&batch_seeds))
                    .unwrap();
                wh = Warehouse::restore(&before).unwrap();
            }
            2 => {
                // Crash + recovery: the process loses the in-memory
                // warehouse and replays a snapshot to identical content
                // (what WAL recovery converges to). Maintained entries
                // key on content extents, not object identity, so they
                // must survive and keep absorbing later deltas.
                wh = Warehouse::restore(&wh.snapshot()).unwrap();
            }
            _ => {
                // Query: the maintained result must be byte-identical
                // to a cold reference recompute, and invalid queries
                // must report the identical error from either path.
                for (q, slot) in queries.iter().zip(&mut mats) {
                    let expected = execute_reference(q, &wh);
                    if slot.is_none() {
                        match (MaterializedRollup::build(q, &wh, group_limit), &expected) {
                            (Ok(opt), Ok(_)) => *slot = opt,
                            (Err(got), Err(want)) => {
                                assert_eq!(
                                    format!("{got:?}"),
                                    format!("{want:?}"),
                                    "error mismatch for {q:?}"
                                );
                                continue;
                            }
                            (got, want) => panic!(
                                "build/reference disagreement for {q:?}: \
                                 build={got:?} reference={want:?}"
                            ),
                        }
                    }
                    if let Some(mat) = slot {
                        let expected = expected.expect("materialized query is valid");
                        assert_eq!(
                            mat.result_set(),
                            &expected,
                            "incremental result diverged from cold recompute for {q:?} \
                             after {op} ops"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline invariant: arbitrary commit/rollback/recovery/query
    /// interleavings, incremental == cold recompute, byte for byte.
    #[test]
    fn prop_incremental_matches_cold_recompute(
        init_seed in any::<u64>(),
        op_seed in any::<u64>(),
        query_seeds in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        check_interleaving(init_seed, op_seed, &query_seeds, DEFAULT_MATERIALIZED_GROUP_LIMIT);
    }

    /// The same interleavings under a group limit so tight that most
    /// grouped queries demote mid-stream: the demote-and-rebuild path
    /// must be just as exact as the absorb path.
    #[test]
    fn prop_forced_demotion_stays_exact(
        init_seed in any::<u64>(),
        op_seed in any::<u64>(),
        query_seeds in proptest::collection::vec(any::<u64>(), 1..4),
    ) {
        check_interleaving(init_seed, op_seed, &query_seeds, 2);
    }
}

/// A commit that introduces brand-new dimension members — a new airport,
/// a new city value for the grouped level, a new date — must extend the
/// pass masks and key→ordinal maps rather than demote.
#[test]
fn new_members_extend_masks_and_ordinal_maps() {
    let mut wh = build_warehouse(&[1, 2, 3, 4, 5]);
    let q = CubeQuery::on("Last Minute Sales")
        .filter(
            "Destination",
            "Country",
            Predicate::In(vec![Value::text("Spain"), Value::text("France")]),
        )
        .group_by("Destination", "City")
        .group_by("Date", "Month")
        .aggregate("price", AggFn::Sum)
        .aggregate("price", AggFn::Count);
    let mut mat = MaterializedRollup::build(&q, &wh, DEFAULT_MATERIALIZED_GROUP_LIMIT)
        .unwrap()
        .expect("materializable");
    assert_eq!(mat.result_set(), &execute_reference(&q, &wh).unwrap());

    // Seeds decode to airports 0..10; a fresh batch with high seeds
    // reaches different airports/customers/dates, creating members the
    // masks and maps have never seen.
    let tracker = wh.delta_tracker();
    let batch = sales_batch(&[0xDEAD_BEEF, 0xFEED_F00D, 0x0BAD_CAFE]);
    wh.load("Last Minute Sales", batch).unwrap();
    let delta = wh.delta_since(&tracker).unwrap();
    assert!(delta.fact_rows_added() == 3);
    assert!(
        mat.apply_delta(&wh, &delta),
        "pure-append delta with new members must be absorbable"
    );
    assert_eq!(mat.result_set(), &execute_reference(&q, &wh).unwrap());
    assert_eq!(mat.rows_folded(), 8);
}

/// When the folded group table outgrows the limit, `apply_delta` refuses
/// — the entry must be demoted, not trusted.
#[test]
fn group_growth_past_the_limit_demotes() {
    let mut wh = build_warehouse(&[10, 20]);
    let q = CubeQuery::on("Last Minute Sales")
        .group_by("Date", "Date")
        .aggregate("price", AggFn::Count);
    // Limit chosen to accept the build but not much growth.
    let groups_now = execute_reference(&q, &wh).unwrap().rows.len();
    let mut mat = MaterializedRollup::build(&q, &wh, groups_now)
        .unwrap()
        .expect("fits exactly at the limit");

    // Keep committing until a batch introduces enough new dates to
    // overflow the limit; the fold must then report unabsorbable.
    let mut demoted = false;
    let mut m = Mix(0xA11CE5);
    for _ in 0..20 {
        let tracker = wh.delta_tracker();
        let seeds: Vec<u64> = (0..4).map(|_| m.word()).collect();
        wh.load("Last Minute Sales", sales_batch(&seeds)).unwrap();
        let delta = wh.delta_since(&tracker).unwrap();
        if !mat.apply_delta(&wh, &delta) {
            demoted = true;
            break;
        }
        assert_eq!(mat.result_set(), &execute_reference(&q, &wh).unwrap());
    }
    assert!(demoted, "27 possible dates > initial groups; must demote");
    // A rebuild at the default limit picks the query back up exactly.
    let rebuilt = MaterializedRollup::build(&q, &wh, DEFAULT_MATERIALIZED_GROUP_LIMIT)
        .unwrap()
        .expect("materializable at the default limit");
    assert_eq!(rebuilt.result_set(), &execute_reference(&q, &wh).unwrap());
}

/// A delta whose before-extent doesn't line up with the folded state
/// (e.g. replayed twice, or captured against a different warehouse) is
/// rejected rather than folded into a wrong answer.
#[test]
fn misaligned_deltas_are_rejected() {
    let mut wh = build_warehouse(&[7, 8, 9]);
    let q = CubeQuery::on("Last Minute Sales")
        .group_by("Destination", "Country")
        .aggregate("miles", AggFn::Sum);
    let mut mat = MaterializedRollup::build(&q, &wh, DEFAULT_MATERIALIZED_GROUP_LIMIT)
        .unwrap()
        .expect("materializable");

    let tracker = wh.delta_tracker();
    wh.load("Last Minute Sales", sales_batch(&[100])).unwrap();
    let delta = wh.delta_since(&tracker).unwrap();
    assert!(mat.apply_delta(&wh, &delta));
    // Replaying the same delta again: before-extent (3) no longer
    // matches rows_folded (4).
    assert!(
        !mat.apply_delta(&wh, &delta),
        "double-apply must be refused"
    );
}

/// Lanes are sized from the coordinates' cardinalities, so five
/// group-by coordinates fit the `u128` key: the roll-up is built and
/// maintained like any other.
#[test]
fn five_coordinates_are_materializable() {
    let mut wh = build_warehouse(&[1, 2, 3]);
    let q = CubeQuery::on("Last Minute Sales")
        .group_by("Origin", "Airport")
        .group_by("Destination", "Airport")
        .group_by("Customer", "Customer")
        .group_by("Date", "Date")
        .group_by("Date", "Month")
        .aggregate("price", AggFn::Count);
    let mut mat = MaterializedRollup::build(&q, &wh, DEFAULT_MATERIALIZED_GROUP_LIMIT)
        .unwrap()
        .expect("five lanes fit the key");
    assert_eq!(mat.result_set(), &execute_reference(&q, &wh).unwrap());

    let tracker = wh.delta_tracker();
    wh.load("Last Minute Sales", sales_batch(&[4, 5])).unwrap();
    let delta = wh.delta_since(&tracker).unwrap();
    assert!(mat.apply_delta(&wh, &delta));
    assert_eq!(mat.result_set(), &execute_reference(&q, &wh).unwrap());
    assert_eq!(q.run(&wh).unwrap(), execute_reference(&q, &wh).unwrap());
}
