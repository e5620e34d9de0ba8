//! The roll-up kernel: one compiled state, one fact-row loop.
//!
//! The reference executor re-resolves role and level names, clones a
//! `Vec<Value>` group key and hashes it *per fact row*. A
//! [`MaterializedRollup`] resolves everything once and keeps it:
//!
//! * every filter role becomes a per-member **pass mask** — the
//!   predicate is evaluated once per dimension member, never per row;
//! * every group-by coordinate becomes a surrogate-key → **ordinal**
//!   array over the dimension's level column, plus the ordinal → value
//!   table read at materialisation;
//! * a row's ordinals are packed into one `u128` **key**, each
//!   coordinate in a fixed bit lane sized at build with headroom, so a
//!   key stays valid while the dimension gains members; a key → slot
//!   index (a direct array over a small key space, a hash map over a
//!   large one) addresses one flat `Vec<Accumulator>`.
//!
//! `fold` is the only row loop. A cold query is compile + fold(0..n) +
//! materialise with the state dropped ([`CubeQuery::run`]); a standing
//! roll-up keeps the state and folds each commit's appended rows into
//! it ([`MaterializedRollup::apply_delta`]). Rows are folded in
//! ascending order across commits, so every `f64` bit matches the
//! row-at-a-time reference ([`crate::testing`]) — `tests/compiled_parity.rs`
//! and `tests/incremental_parity.rs` hold that. A query the state cannot
//! carry is answered by that same scan, from one place: [`Rollup::build`].

#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

use crate::column::{Column, NumericSlice};
use crate::dimension::DimensionTable;
use crate::error::{Result, WarehouseError};
use crate::fact::FactTable;
use crate::query::{Accumulator, AggFn, CubeQuery, Filter, FilterTarget, ResultSet};
use crate::value::Value;
use crate::warehouse::{Warehouse, WarehouseDelta};
use dwqa_obs::names as obs;
use std::collections::HashMap;

/// Default bound on live groups per roll-up state. A cold query past it
/// is answered by the reference executor; a maintained entry past it
/// demotes to recompute-on-next-read.
pub const DEFAULT_MATERIALIZED_GROUP_LIMIT: usize = 1 << 20;

/// Packed key spaces up to this many bits are indexed by a direct
/// key → slot array (256 KiB at the bound); wider ones by a hash map.
const DIRECT_INDEX_BITS: u32 = 16;

/// Marks an unused entry of the direct index.
const VACANT: u32 = u32::MAX;

/// The column holding a level's descriptor, or the reference
/// executor's error for an unknown level.
fn level_column<'a>(dim: &'a DimensionTable, level: &str) -> Result<&'a Column> {
    let (level_id, _) = dim
        .model()
        .level(level)
        .ok_or_else(|| WarehouseError::UnknownLevel {
            dimension: dim.model().name.clone(),
            level: level.to_owned(),
        })?;
    Ok(dim.descriptor_column(level_id.index()))
}

/// The column a filter tests, resolved against the *current* dimension
/// table (columns cannot be stored across mutations).
fn filter_column<'a>(dim: &'a DimensionTable, target: &FilterTarget) -> Result<&'a Column> {
    match target {
        FilterTarget::Level(level) => level_column(dim, level),
        FilterTarget::Attribute(attr) => {
            dim.attribute_column(attr)
                .ok_or_else(|| WarehouseError::UnknownAttribute {
                    level: dim.model().name.clone(),
                    attribute: attr.clone(),
                })
        }
    }
}

/// The filters on one role, compiled to a per-member verdict.
#[derive(Debug, Clone)]
struct FilterMask {
    role_idx: usize,
    dim_idx: usize,
    /// The query's filters on this role, AND-merged.
    specs: Vec<Filter>,
    /// `pass[member_key]`, one verdict per member seen so far.
    pass: Vec<bool>,
}

impl FilterMask {
    /// Computes the verdict of every member the mask has not seen yet.
    fn extend(&mut self, dim: &DimensionTable) -> Result<()> {
        let columns = self
            .specs
            .iter()
            .map(|spec| filter_column(dim, &spec.target))
            .collect::<Result<Vec<_>>>()?;
        for m in self.pass.len()..dim.len() {
            let verdict = self
                .specs
                .iter()
                .zip(&columns)
                .all(|(spec, column)| spec.predicate.matches(&column.get(m)));
            self.pass.push(verdict);
        }
        Ok(())
    }
}

/// One group-by coordinate, compiled to an ordinal mapping.
#[derive(Debug, Clone)]
struct GroupCoord {
    role_idx: usize,
    dim_idx: usize,
    level: String,
    /// Surrogate key → ordinal of the member's level value. Distinct
    /// members sharing a level value (the roll-up) share an ordinal.
    ordinal_of_member: Vec<u32>,
    /// Ordinal → level value, first-seen order.
    values: Vec<Value>,
    /// Level value → ordinal.
    seen: HashMap<Value, u32>,
    /// This coordinate's lane in the packed key: `bits` wide at `shift`.
    shift: u32,
    bits: u32,
}

impl GroupCoord {
    /// Assigns an ordinal to every member the mapping has not seen yet.
    /// Assignment order cannot be observed: materialisation sorts rows
    /// by value.
    fn extend(&mut self, dim: &DimensionTable) -> Result<()> {
        let column = level_column(dim, &self.level)?;
        for m in self.ordinal_of_member.len()..dim.len() {
            let v = column.get(m);
            let ordinal = match self.seen.get(&v) {
                Some(&o) => o,
                None => {
                    // A dimension holds at most u32::MAX members, so
                    // distinct level values fit in u32 too.
                    let o = self.values.len() as u32;
                    self.seen.insert(v.clone(), o);
                    self.values.push(v);
                    o
                }
            };
            self.ordinal_of_member.push(ordinal);
        }
        Ok(())
    }
}

/// Packed key → slot in the accumulator table.
#[derive(Debug, Clone)]
enum SlotIndex {
    Direct(Vec<u32>),
    Hashed(HashMap<u128, u32>),
}

/// A roll-up's compiled state: the per-group accumulators of a
/// [`CubeQuery`], its maintained [`ResultSet`], and everything needed
/// to fold a pure-append [`WarehouseDelta`] into both — new dimension
/// members extend the pass masks and ordinal maps, appended fact rows
/// go through the one row loop.
///
/// Keeping the state is an optimization, never a correctness risk:
/// [`MaterializedRollup::build`] declines what the key cannot carry,
/// and [`MaterializedRollup::apply_delta`] returns `false` — demote me
/// — whenever a delta does not line up with the folded state, a
/// coordinate outgrows its lane or the group table outgrows its limit.
#[derive(Debug, Clone)]
pub struct MaterializedRollup {
    query: CubeQuery,
    fact_idx: usize,
    /// Fact rows folded so far; the next delta must start exactly here.
    rows_folded: usize,
    agg_cols: Vec<usize>,
    filters: Vec<FilterMask>,
    groups: Vec<GroupCoord>,
    /// Packed key of each live group, by slot.
    keys: Vec<u128>,
    /// One accumulator per requested aggregate per slot.
    accs: Vec<Accumulator>,
    index: SlotIndex,
    group_limit: usize,
    order: Option<(usize, bool)>,
    result: ResultSet,
}

impl MaterializedRollup {
    /// Compiles `query` and folds the warehouse's current contents.
    ///
    /// Performs exactly the checks of the reference executor, in the
    /// same order, so an invalid query reports the identical error.
    /// Returns `Ok(None)` when the state cannot carry the query — its
    /// lanes do not fit the `u128` key, or it has more than
    /// `group_limit` groups; [`Rollup::build`] answers such a query row
    /// at a time.
    pub fn build(
        query: &CubeQuery,
        wh: &Warehouse,
        group_limit: usize,
    ) -> Result<Option<MaterializedRollup>> {
        let fact = wh.fact(&query.fact)?;
        let (fact_id, _) = wh
            .schema()
            .fact(&query.fact)
            .ok_or_else(|| WarehouseError::UnknownFact(query.fact.clone()))?;
        let dim_idx = |role_idx: usize| fact.model().roles[role_idx].dimension.index();

        // Aggregates: measure resolution + additivity legality.
        let mut agg_cols = Vec::with_capacity(query.aggregates.len());
        for a in &query.aggregates {
            let idx = fact.measure_index(&a.measure)?;
            let additivity = fact.model().measures[idx].additivity;
            let illegal = match a.func {
                AggFn::Sum if !additivity.allows_sum() => Some("summed"),
                AggFn::Avg if !additivity.allows_avg() => Some("averaged"),
                _ => None,
            };
            if let Some(verb) = illegal {
                return Err(WarehouseError::IllegalAggregate {
                    measure: a.measure.clone(),
                    reason: format!("{additivity} measures cannot be {verb}"),
                });
            }
            agg_cols.push(idx);
        }

        // Filters, validated in query order; those sharing a role merge.
        let mut filters: Vec<FilterMask> = Vec::new();
        for f in &query.filters {
            let role_idx = fact.role_index(&f.role)?;
            filter_column(wh.dimension_table_for_role(fact, role_idx), &f.target)?;
            match filters.iter_mut().find(|m| m.role_idx == role_idx) {
                Some(mask) => mask.specs.push(f.clone()),
                None => filters.push(FilterMask {
                    role_idx,
                    dim_idx: dim_idx(role_idx),
                    specs: vec![f.clone()],
                    pass: Vec::new(),
                }),
            }
        }
        for mask in &mut filters {
            mask.extend(wh.dimension_table_for_role(fact, mask.role_idx))?;
        }

        // Group-by coordinates, each in a lane with room for its
        // cardinality to double, and for 16 values at least.
        let mut groups = Vec::with_capacity(query.group_by.len());
        let mut key_bits = 0u32;
        for (role, level) in &query.group_by {
            let role_idx = fact.role_index(role)?;
            let mut coord = GroupCoord {
                role_idx,
                dim_idx: dim_idx(role_idx),
                level: level.clone(),
                ordinal_of_member: Vec::new(),
                values: Vec::new(),
                seen: HashMap::new(),
                shift: key_bits,
                bits: 0,
            };
            coord.extend(wh.dimension_table_for_role(fact, role_idx))?;
            coord.bits = (2 * coord.values.len())
                .max(16)
                .next_power_of_two()
                .trailing_zeros();
            key_bits += coord.bits;
            groups.push(coord);
        }

        // Output shape and the (post-scan, in the reference) order-by
        // resolution — nothing between group validation and this check
        // can fail, so validating here reports identical errors.
        let mut columns: Vec<String> = query
            .group_by
            .iter()
            .map(|(role, level)| format!("{role}.{level}"))
            .collect();
        for a in &query.aggregates {
            columns.push(format!("{}({})", a.func.label(), a.measure));
        }
        let order = match &query.order {
            Some((column, desc)) => {
                let idx = columns.iter().position(|c| c == column).ok_or_else(|| {
                    WarehouseError::UnknownMeasure {
                        fact: query.fact.clone(),
                        measure: column.clone(),
                    }
                })?;
                Some((idx, *desc))
            }
            None => None,
        };
        dwqa_obs::counter_add(obs::WAREHOUSE_PLANS_COMPILED, 1);

        if key_bits > u128::BITS {
            return Ok(None);
        }
        // A zero-group query is the key space of size one.
        let index = if key_bits <= DIRECT_INDEX_BITS {
            SlotIndex::Direct(vec![VACANT; 1 << key_bits])
        } else {
            SlotIndex::Hashed(HashMap::new())
        };
        let mut state = MaterializedRollup {
            query: query.clone(),
            fact_idx: fact_id.index(),
            rows_folded: 0,
            agg_cols,
            filters,
            groups,
            keys: Vec::new(),
            accs: Vec::new(),
            index,
            // Slots are `u32`s and `VACANT` is not one of them.
            group_limit: group_limit.min(VACANT as usize - 1),
            order,
            result: ResultSet {
                columns,
                rows: Vec::new(),
            },
        };
        if !state.fold(fact) {
            return Ok(None);
        }
        state.materialize();
        Ok(Some(state))
    }

    /// The maintained result — identical to what running the query
    /// against the warehouse at the folded extent would return.
    pub fn result_set(&self) -> &ResultSet {
        &self.result
    }

    /// The query this roll-up materialises.
    pub fn query(&self) -> &CubeQuery {
        &self.query
    }

    /// Fact rows folded into the accumulators so far.
    pub fn rows_folded(&self) -> usize {
        self.rows_folded
    }

    /// Folds a pure-append delta into the kept state and, when it
    /// brought rows of this roll-up's fact, refreshes the maintained
    /// result.
    ///
    /// Returns `false` — the caller must demote this entry to
    /// recompute-on-next-read — when the delta cannot be absorbed: its
    /// before-extents don't match the folded state, the warehouse isn't
    /// at the delta's after-extents, a filter/level no longer resolves,
    /// a coordinate has more values than its lane holds, or the group
    /// table outgrows the limit. On `false` the entry's state may be
    /// partially extended and must be discarded, never read.
    pub fn apply_delta(&mut self, wh: &Warehouse, delta: &WarehouseDelta) -> bool {
        let Ok(fact) = wh.fact(&self.query.fact) else {
            return false;
        };
        if delta.fact_rows.get(self.fact_idx) != Some(&(self.rows_folded, fact.len()))
            || fact.len() < self.rows_folded
        {
            return false;
        }
        // New members get verdicts and ordinals exactly as compilation
        // would have given them.
        for f in &mut self.filters {
            let dim = wh.dimension_table_for_role(fact, f.role_idx);
            if delta.dim_members.get(f.dim_idx) != Some(&(f.pass.len(), dim.len()))
                || f.extend(dim).is_err()
            {
                return false;
            }
        }
        for g in &mut self.groups {
            let dim = wh.dimension_table_for_role(fact, g.role_idx);
            if delta.dim_members.get(g.dim_idx) != Some(&(g.ordinal_of_member.len(), dim.len()))
                || g.extend(dim).is_err()
                || g.values.len() as u64 > 1 << g.bits
            {
                return false;
            }
        }
        let appended = fact.len() > self.rows_folded;
        if !self.fold(fact) {
            return false;
        }
        if appended {
            self.materialize();
        }
        dwqa_obs::counter_add(obs::WAREHOUSE_PLANS_REUSED, 1);
        true
    }

    /// The row loop: folds the fact rows not folded yet into the group
    /// table, or returns `false` once it outgrows the group limit.
    /// Folding strictly ascending ranges across commits reproduces the
    /// accumulation order — and therefore the float results, bit for
    /// bit — of one cold scan.
    fn fold(&mut self, fact: &FactTable) -> bool {
        let to = fact.len();
        let n_aggs = self.agg_cols.len();
        dwqa_obs::counter_add(obs::WAREHOUSE_ROWS_SCANNED, (to - self.rows_folded) as u64);
        let filters: Vec<(&[u32], &[bool])> = self
            .filters
            .iter()
            .map(|f| (fact.role_key_column(f.role_idx), f.pass.as_slice()))
            .collect();
        let coords: Vec<(&[u32], &[u32], u32)> = self
            .groups
            .iter()
            .map(|g| {
                (
                    fact.role_key_column(g.role_idx),
                    g.ordinal_of_member.as_slice(),
                    g.shift,
                )
            })
            .collect();
        let measures: Vec<NumericSlice<'_>> = self
            .agg_cols
            .iter()
            .map(|&mi| fact.measure_column(mi).numeric())
            .collect();
        'rows: for row in self.rows_folded..to {
            for (keys, pass) in &filters {
                if !pass[keys[row] as usize] {
                    continue 'rows;
                }
            }
            let mut packed = 0u128;
            for (keys, ordinals, shift) in &coords {
                packed |= u128::from(ordinals[keys[row] as usize]) << shift;
            }
            let next = self.keys.len() as u32;
            let slot = match &mut self.index {
                SlotIndex::Direct(slots) => {
                    let slot = &mut slots[packed as usize];
                    if *slot == VACANT {
                        *slot = next;
                    }
                    *slot
                }
                SlotIndex::Hashed(slots) => *slots.entry(packed).or_insert(next),
            };
            if slot == next {
                if self.keys.len() == self.group_limit {
                    return false;
                }
                self.keys.push(packed);
                self.accs
                    .resize(self.accs.len() + n_aggs, Accumulator::default());
            }
            let accs = &mut self.accs[slot as usize * n_aggs..][..n_aggs];
            for (acc, m) in accs.iter_mut().zip(&measures) {
                if let Some(v) = m.get(row) {
                    acc.push(v);
                }
            }
        }
        self.rows_folded = to;
        true
    }

    /// Rebuilds the result from the group table — the only place
    /// `Value`s are cloned — through the reference's tail: deterministic
    /// base sort, the optional stable order-by, the limit.
    fn materialize(&mut self) {
        let n_aggs = self.agg_cols.len();
        let mut rows: Vec<Vec<Value>> = self
            .keys
            .iter()
            .enumerate()
            .map(|(slot, &packed)| {
                let mut row = Vec::with_capacity(self.groups.len() + n_aggs);
                for g in &self.groups {
                    let ordinal = (packed >> g.shift) & ((1 << g.bits) - 1);
                    row.push(g.values[ordinal as usize].clone());
                }
                let accs = &self.accs[slot * n_aggs..][..n_aggs];
                for (acc, a) in accs.iter().zip(&self.query.aggregates) {
                    row.push(acc.finish(a.func));
                }
                row
            })
            .collect();
        dwqa_obs::counter_add(obs::WAREHOUSE_GROUPS, rows.len() as u64);
        rows.sort();
        if let Some((idx, desc)) = self.order {
            rows.sort_by(|a, b| {
                let ord = a[idx].cmp(&b[idx]);
                if desc {
                    ord.reverse()
                } else {
                    ord
                }
            });
        }
        if let Some(n) = self.query.limit {
            rows.truncate(n);
        }
        self.result.rows = rows;
    }
}

/// What a roll-up read is served from: kernel state where the query
/// shape permits, the row-at-a-time result where it does not.
#[derive(Debug, Clone)]
pub enum Rollup {
    /// Kernel state that later commits maintain in place.
    Live(Box<MaterializedRollup>),
    /// The row-at-a-time result of a query the kernel declined; it
    /// holds nothing to fold a delta into.
    Fixed(ResultSet),
}

impl Rollup {
    /// [`MaterializedRollup::build`], with a declined query answered
    /// row at a time — the product's only use of that scan, counted by
    /// `warehouse.reference.fallbacks`. Validation is the same on either
    /// branch, so an invalid query reports the identical error.
    pub fn build(query: &CubeQuery, wh: &Warehouse, group_limit: usize) -> Result<Rollup> {
        Ok(match MaterializedRollup::build(query, wh, group_limit)? {
            Some(state) => Rollup::Live(Box::new(state)),
            None => {
                dwqa_obs::counter_add(obs::WAREHOUSE_REFERENCE_FALLBACKS, 1);
                Rollup::Fixed(query.row_at_a_time_fallback(wh)?)
            }
        })
    }

    /// The result as of the last build or absorbed delta.
    pub fn result_set(&self) -> &ResultSet {
        match self {
            Rollup::Live(state) => state.result_set(),
            Rollup::Fixed(result) => result,
        }
    }

    /// Consumes the roll-up, keeping only its result.
    pub fn into_result_set(self) -> ResultSet {
        match self {
            Rollup::Live(state) => state.result,
            Rollup::Fixed(result) => result,
        }
    }

    /// Folds a pure-append delta in ([`MaterializedRollup::apply_delta`])
    /// and returns how many fact rows it brought; `None` — demote me —
    /// when the delta cannot be absorbed, which a fixed result never can.
    pub fn apply_delta(&mut self, wh: &Warehouse, delta: &WarehouseDelta) -> Option<usize> {
        match self {
            Rollup::Live(state) => {
                let before = state.rows_folded();
                state
                    .apply_delta(wh, delta)
                    .then(|| state.rows_folded() - before)
            }
            Rollup::Fixed(_) => None,
        }
    }
}
