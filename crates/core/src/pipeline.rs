//! The five-step integration pipeline, split into an immutable **read
//! path** (question answering over shared state) and a serialized **write
//! path** (feedback ETL into the warehouse).
//!
//! The read path — question analysis, passage selection, answer
//! extraction — only touches the tuned QA system, whose index and
//! ontology are immutable after [`IntegrationPipeline::build`]. It is
//! exposed as [`ReadPath`], a cheaply cloneable `Send + Sync` handle that
//! many worker threads can drive concurrently (see the `dwqa-engine`
//! crate). The write path — Step 5, loading validated answers into the
//! `City Weather` star — needs `&mut` and stays on
//! [`IntegrationPipeline::apply_feedback`]. Nothing it loads flows back
//! into the ontology or the indexes, so answers never depend on the
//! warehouse and no commit invalidates one. Roll-ups do depend on it: a
//! committed feed yields a typed append delta that live materialized
//! roll-ups absorb in place (see [`crate::rollup::RollupCache`]), so a
//! commit maintains cached analyses instead of discarding them.

use crate::axioms::TemperatureAxioms;
use crate::durability::{
    decode_checkpoint_payload, decode_transaction, encode_checkpoint_payload, encode_transaction,
    LoggedTransaction, RecoveryReport,
};
use crate::feedback::{feed_weather_dedup, FeedError, FeedReport};
use crate::rollup::RollupCache;
use dwqa_common::mix64;
use dwqa_ir::DocumentStore;
use dwqa_ontology::{
    enrich_from_warehouse, merge_into_upper, schema_to_ontology, upper_ontology, EnrichmentReport,
    MergeOptions, MergeReport, Ontology,
};
use dwqa_qa::{temperature_pattern, AliQAn, AliQAnConfig, Answer, PipelineTrace};
use dwqa_store::{FeedbackStore, StoreConfig};
use dwqa_warehouse::{CubeQuery, ResultSet, Warehouse, WarehouseSnapshot};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

/// Deterministic fault injection for feedback transactions (chaos
/// testing): with probability `rate`, a feed transaction aborts after
/// loading roughly half of its answer batches, leaving genuine partial
/// state for the rollback to undo. Decisions derive from `seed` and the
/// pipeline's transaction counter, so runs replay exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedFault {
    /// Seed of the failure stream.
    pub seed: u64,
    /// Probability in `[0, 1]` that any one transaction fails.
    pub rate: f64,
}

/// Everything needed to undo a feedback transaction: the warehouse
/// contents (via the snapshot machinery) and the fed-point dedup set.
struct FeedCheckpoint {
    warehouse: WarehouseSnapshot,
    fed_points: HashSet<(String, dwqa_common::Date)>,
}

/// Pipeline construction options.
///
/// Construct with [`PipelineOptions::builder`]; the struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking
/// downstream crates.
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct PipelineOptions {
    /// Step-3 merge options.
    pub merge: MergeOptions,
    /// QA configuration (passage window etc.).
    pub qa: AliQAnConfig,
    /// Step-4 axioms.
    pub axioms: TemperatureAxioms,
    /// Skip Step 2 (ontology enrichment) — the E5 ablation.
    pub skip_enrichment: bool,
}

impl PipelineOptions {
    /// Starts a builder pre-loaded with the defaults.
    pub fn builder() -> PipelineOptionsBuilder {
        PipelineOptionsBuilder {
            options: PipelineOptions::default(),
        }
    }
}

/// Builder for [`PipelineOptions`].
///
/// ```
/// use dwqa_core::PipelineOptions;
/// let options = PipelineOptions::builder()
///     .skip_enrichment(true)
///     .build()
///     .unwrap();
/// assert!(options.skip_enrichment);
/// ```
#[derive(Debug, Clone)]
pub struct PipelineOptionsBuilder {
    options: PipelineOptions,
}

impl PipelineOptionsBuilder {
    /// Sets the Step-3 merge options.
    pub fn merge(mut self, merge: MergeOptions) -> Self {
        self.options.merge = merge;
        self
    }

    /// Sets the QA configuration.
    pub fn qa(mut self, qa: AliQAnConfig) -> Self {
        self.options.qa = qa;
        self
    }

    /// Sets the Step-4 axioms.
    pub fn axioms(mut self, axioms: TemperatureAxioms) -> Self {
        self.options.axioms = axioms;
        self
    }

    /// Skips Step 2 (ontology enrichment) — the E5 ablation.
    pub fn skip_enrichment(mut self, skip: bool) -> Self {
        self.options.skip_enrichment = skip;
        self
    }

    /// Finishes the builder, validating every knob's range (currently
    /// the embedded QA configuration; the merge options and axioms have
    /// no invalid states).
    pub fn build(self) -> Result<PipelineOptions, dwqa_common::ConfigError> {
        self.options.qa.validate()?;
        Ok(self.options)
    }
}

/// The integrated system: the DW, the tuned QA system over the merged
/// ontology, and the reports of Steps 1–4.
pub struct IntegrationPipeline {
    /// The data warehouse (Step 5 writes into it). Prefer
    /// [`Self::apply_feedback`] for mutation; after mutating directly,
    /// call [`Self::mark_dirty`] so the roll-up cache drops its entries.
    pub warehouse: Warehouse,
    /// The tuned QA system over the merged ontology, shared with every
    /// [`ReadPath`] handle.
    pub qa: Arc<AliQAn>,
    /// Step-2 report.
    pub enrichment: EnrichmentReport,
    /// Step-3 report.
    pub merge: MergeReport,
    axioms: TemperatureAxioms,
    /// (city, date) points already fed, so overlapping questions never
    /// load the same reading twice.
    fed_points: HashSet<(String, dwqa_common::Date)>,
    /// Deterministic chaos injection for feed transactions.
    feed_fault: Option<FeedFault>,
    /// Feed transactions attempted (drives the fault stream).
    feeds_attempted: u64,
    /// Feed transactions that failed and were rolled back.
    rollbacks: u64,
    /// Optional durability: committed feed transactions are logged here
    /// *before* the commit is acknowledged.
    store: Option<FeedbackStore>,
    /// Set when a failed rollback left the warehouse possibly holding a
    /// partial load; all feeds are rejected until a restore clears it.
    poisoned: Option<String>,
    /// Cache of roll-up results with live materialized state, kept
    /// current by every mutation of [`Self::warehouse`]: committed feed
    /// transactions fold their append delta into every entry
    /// ([`RollupCache::apply_delta`]) instead of purging; only
    /// non-append mutations fall back to [`Self::mark_dirty`].
    rollups: RollupCache,
}

/// The immutable read path: a cheap, cloneable, `Send + Sync` handle over
/// the tuned QA system. Worker threads answer questions through it while
/// the owner of the [`IntegrationPipeline`] serializes feedback writes.
#[derive(Clone)]
pub struct ReadPath {
    qa: Arc<AliQAn>,
}

impl ReadPath {
    /// The shared QA system (analysis, passage and extraction modules).
    pub fn qa(&self) -> &AliQAn {
        &self.qa
    }

    /// The full search phase for one question.
    pub fn answer(&self, question: &str) -> Vec<Answer> {
        self.qa.answer(question)
    }

    /// The Table-1 trace for a question.
    pub fn trace(&self, question: &str) -> PipelineTrace {
        self.qa.trace(question)
    }
}

impl IntegrationPipeline {
    /// Runs Steps 1–4 over an already-loaded warehouse and indexes the
    /// unstructured corpus.
    ///
    /// * Step 1 — the warehouse schema becomes the domain ontology;
    /// * Step 2 — DW members enrich it (unless ablated);
    /// * Step 3 — merge into the mini-WordNet upper ontology;
    /// * Step 4 — the temperature question pattern and axioms are tuned in;
    /// * the corpus is indexed so Step 5 can run via
    ///   [`Self::apply_feedback`].
    pub fn build(
        warehouse: Warehouse,
        corpus: DocumentStore,
        options: PipelineOptions,
    ) -> IntegrationPipeline {
        // Step 1.
        let mut domain: Ontology = schema_to_ontology(warehouse.schema());
        // Step 2.
        let enrichment = if options.skip_enrichment {
            EnrichmentReport::default()
        } else {
            enrich_from_warehouse(&mut domain, &warehouse)
        };
        // Step 3.
        let mut upper = upper_ontology();
        let merge = merge_into_upper(&domain, &mut upper, &options.merge);
        // Step 4.
        options.axioms.annotate(&mut upper);
        let mut qa = AliQAn::new(upper, options.qa);
        qa.tune(temperature_pattern());
        // Indexation phase. After this point the QA state is immutable
        // and can be shared across threads.
        qa.index_corpus(corpus);
        IntegrationPipeline {
            warehouse,
            qa: Arc::new(qa),
            enrichment,
            merge,
            axioms: options.axioms,
            fed_points: HashSet::new(),
            feed_fault: None,
            feeds_attempted: 0,
            rollbacks: 0,
            store: None,
            poisoned: None,
            rollups: RollupCache::default(),
        }
    }

    /// A cloneable `Send + Sync` handle over the immutable QA state, for
    /// concurrent question answering.
    pub fn read_path(&self) -> ReadPath {
        ReadPath {
            qa: Arc::clone(&self.qa),
        }
    }

    /// Drops every cached roll-up, so the next read of each recomputes
    /// against the warehouse as it now is. The write path keeps the
    /// cache current by itself; call this after mutating
    /// [`Self::warehouse`] directly.
    pub fn mark_dirty(&self) {
        self.rollups.clear();
    }

    /// Runs a cube query against the warehouse through the result
    /// cache: repeated queries are served without re-scanning the fact
    /// tables, across feed commits too (a commit folds its rows into
    /// the cached results).
    pub fn rollup(&self, query: &CubeQuery) -> dwqa_warehouse::Result<ResultSet> {
        self.rollups.run(&self.warehouse, query)
    }

    /// The roll-up result cache (hit/miss statistics, manual purge).
    pub fn rollup_cache(&self) -> &RollupCache {
        &self.rollups
    }

    /// [`crate::questions_for_missing_weather`] routed through the
    /// result cache.
    pub fn missing_weather_questions(
        &self,
        year: i32,
        month: dwqa_common::Month,
    ) -> dwqa_warehouse::Result<Vec<String>> {
        crate::dwquery::questions_for_missing_weather_with(|q| self.rollup(q), year, month)
    }

    /// [`crate::sales_by_temperature_band`] routed through the result
    /// cache.
    pub fn sales_by_temperature_band(
        &self,
        band_width: f64,
    ) -> dwqa_warehouse::Result<Vec<crate::TemperatureBand>> {
        crate::analysis::sales_by_temperature_band_with(|q| self.rollup(q), band_width)
    }

    /// Enables (or disables, with `None`) deterministic feed-fault
    /// injection: each subsequent feed transaction fails with the given
    /// probability, mid-load, and is rolled back.
    pub fn set_feed_fault(&mut self, fault: Option<FeedFault>) {
        self.feed_fault = fault;
    }

    /// Feed transactions that failed and were rolled back all-or-nothing.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// Captures everything a feed transaction can mutate.
    fn checkpoint(&self) -> FeedCheckpoint {
        FeedCheckpoint {
            warehouse: self.warehouse.snapshot(),
            fed_points: self.fed_points.clone(),
        }
    }

    /// Restores a checkpoint, making a failed transaction all-or-nothing.
    /// The roll-up cache is left alone: the restored state is exactly
    /// what its entries were last brought up to, so they stay valid.
    fn rollback(&mut self, checkpoint: FeedCheckpoint) -> Result<(), FeedError> {
        let restored = Warehouse::restore(&checkpoint.warehouse)
            .map_err(|e| FeedError::RollbackFailed(e.to_string()))?;
        self.warehouse = restored;
        self.fed_points = checkpoint.fed_points;
        Ok(())
    }

    /// Rolls back, and on rollback failure **poisons** the pipeline:
    /// the warehouse may hold a partial load, so every subsequent feed
    /// is rejected with [`FeedError::Poisoned`] until a snapshot/WAL
    /// restore ([`Self::restore_warehouse`] / [`Self::attach_store_at`])
    /// replaces the state wholesale.
    fn rollback_or_poison(&mut self, checkpoint: FeedCheckpoint) -> Result<(), FeedError> {
        match self.rollback(checkpoint) {
            Ok(()) => {
                self.rollbacks += 1;
                Ok(())
            }
            Err(err) => {
                let reason = err.to_string();
                dwqa_obs::event!("poisoned");
                self.poisoned = Some(reason);
                Err(err)
            }
        }
    }

    /// Loads every batch, possibly aborting mid-way under an injected
    /// fault. Runs *inside* a transaction: the caller rolls back on error.
    fn feed_all(&mut self, batches: &[&[Answer]]) -> Result<FeedReport, FeedError> {
        let fail_after = match self.feed_fault {
            Some(FeedFault { seed, rate }) => {
                let roll = (mix64(seed.wrapping_add(self.feeds_attempted)) >> 11) as f64
                    / (1u64 << 53) as f64;
                // Fail after loading half the batches (at least one when
                // there is anything to load) — genuine partial state.
                (roll < rate).then(|| (batches.len() / 2).max(1))
            }
            None => None,
        };
        let mut merged = FeedReport::default();
        for (i, answers) in batches.iter().enumerate() {
            if fail_after == Some(i) {
                return Err(FeedError::Injected(format!(
                    "transaction {} aborted after {i} of {} batches",
                    self.feeds_attempted,
                    batches.len()
                )));
            }
            let report = feed_weather_dedup(
                &mut self.warehouse,
                answers,
                &self.axioms,
                &mut self.fed_points,
            )?;
            merged.absorb(report);
        }
        // A fail point at (or past) the end still aborts: everything
        // loaded, nothing committed — the hardest case for the rollback.
        if fail_after.is_some_and(|n| n >= batches.len()) {
            return Err(FeedError::Injected(format!(
                "transaction {} aborted after all {} batches, before commit",
                self.feeds_attempted,
                batches.len()
            )));
        }
        Ok(merged)
    }

    /// Logs the transaction to the attached store, returning the error
    /// that must abort the commit when the durability write fails.
    fn log_transaction(&mut self, batches: &[&[Answer]]) -> Option<FeedError> {
        self.store.as_ref()?;
        let txn = LoggedTransaction {
            batches: batches.iter().map(|b| b.to_vec()).collect(),
        };
        let payload = match encode_transaction(&txn) {
            Ok(payload) => payload,
            Err(err) => return Some(err),
        };
        let store = self.store.as_mut()?;
        match store.append(&payload) {
            Ok(_seq) => None,
            Err(err) => Some(FeedError::Durability(err.to_string())),
        }
    }

    /// One all-or-nothing feed transaction over `batches`. On success
    /// what it appended is folded into the cached roll-ups; on failure
    /// the warehouse, the dedup set and the cached roll-ups are exactly
    /// as before.
    ///
    /// With a store attached, the transaction is appended to the
    /// write-ahead log **before** it is acknowledged: if the durability
    /// write fails, the load is rolled back and the call fails with
    /// [`FeedError::Durability`] — the caller never observes a commit
    /// that a crash could lose.
    fn feed_transaction(&mut self, batches: &[&[Answer]]) -> Result<FeedReport, FeedError> {
        if let Some(reason) = &self.poisoned {
            return Err(FeedError::Poisoned(reason.clone()));
        }
        let span = dwqa_obs::span!("feed_transaction", batches = batches.len());
        let checkpoint = self.checkpoint();
        self.feeds_attempted += 1;
        // Capture the pre-transaction table extents: on commit, the
        // difference is a typed append delta the live roll-ups absorb.
        let tracker = self.warehouse.delta_tracker();
        match self.feed_all(batches) {
            Ok(report) => {
                // Durability barrier: the WAL append must succeed
                // before the commit is acknowledged.
                if let Some(durability_err) = self.log_transaction(batches) {
                    self.rollback_or_poison(checkpoint)?;
                    dwqa_obs::event!("rollback");
                    span.record("committed", false);
                    return Err(durability_err);
                }
                match self.warehouse.delta_since(&tracker) {
                    // Nothing appended: cached roll-ups stay valid.
                    Some(delta) if delta.is_empty() => {}
                    // Fold the delta into every live roll-up instead of
                    // purging the cache. New members without fact rows
                    // change no result, but live masks and ordinal maps
                    // must track the new extents.
                    Some(delta) => self.rollups.apply_delta(&self.warehouse, &delta),
                    // Not a pure append (shouldn't happen on the feed
                    // path): fall back to a full purge.
                    None => self.mark_dirty(),
                }
                dwqa_obs::event!("commit", loaded = report.loaded);
                span.record("committed", true);
                // A due checkpoint is opportunistic: failing to write
                // one costs replay time on recovery, not durability
                // (the WAL already has the transaction).
                if self
                    .store
                    .as_ref()
                    .is_some_and(FeedbackStore::checkpoint_due)
                {
                    let _ = self.checkpoint_now();
                }
                Ok(report)
            }
            Err(err) => {
                self.rollback_or_poison(checkpoint)?;
                dwqa_obs::event!("rollback");
                span.record("committed", false);
                Err(err)
            }
        }
    }

    /// The write path (Step 5), fallible and transactional: validates
    /// answers against the Step-4 axioms and loads them into the `City
    /// Weather` star, deduplicating (city, date) points across calls.
    /// On error the warehouse is rolled back to its pre-call state and
    /// cached roll-ups stay as they were.
    pub fn try_apply_feedback(&mut self, answers: &[Answer]) -> Result<FeedReport, FeedError> {
        self.feed_transaction(&[answers])
    }

    /// A whole batch of per-question answer sets as **one** transaction:
    /// either every batch loads or none do.
    pub fn feed_batch(&mut self, batches: &[&[Answer]]) -> Result<FeedReport, FeedError> {
        self.feed_transaction(batches)
    }

    /// Infallible wrapper over [`Self::try_apply_feedback`]: a failed
    /// (rolled-back) transaction reports every answer as rejected with
    /// the error instead of panicking. Source URLs still survive, per the
    /// paper's robustness rule.
    pub fn apply_feedback(&mut self, answers: &[Answer]) -> FeedReport {
        match self.try_apply_feedback(answers) {
            Ok(report) => report,
            Err(err) => {
                let mut report = FeedReport::default();
                let reason = err.to_string();
                for answer in answers {
                    if !report.urls.contains(&answer.url) {
                        report.urls.push(answer.url.clone());
                    }
                    report
                        .rejected
                        .push((answer.tuple_format(), reason.clone()));
                }
                report
            }
        }
    }

    /// The Table-1 trace for a question.
    pub fn trace(&self, question: &str) -> PipelineTrace {
        self.qa.trace(question)
    }

    /// Attaches a durable feedback store at `dir` with the default
    /// [`StoreConfig`] (fsync on every append). See
    /// [`Self::attach_store_with`].
    pub fn attach_store_at(&mut self, dir: impl AsRef<Path>) -> Result<RecoveryReport, FeedError> {
        self.attach_store_with(dir, StoreConfig::default())
    }

    /// Attaches a durable feedback store at `dir`, running recovery
    /// first:
    ///
    /// * an existing checkpoint becomes the warehouse state (replacing
    ///   the in-memory contents) along with its `(city, date)` dedup
    ///   set;
    /// * the committed WAL suffix is replayed on top, transaction by
    ///   transaction, through the normal validated feed path;
    /// * a fresh store (no checkpoint yet) is seeded with a checkpoint
    ///   of the *current* in-memory state, so an attached store always
    ///   has a recovery base.
    ///
    /// Recovery is staged on a scratch warehouse: if anything fails
    /// (corrupt checkpoint payload, unreplayable record), the pipeline
    /// is left exactly as it was and no store is attached. On success
    /// the pipeline is un-poisoned — the restored state is trusted
    /// wholesale — and every subsequent committed feed transaction is
    /// WAL-logged before it is acknowledged.
    pub fn attach_store_with(
        &mut self,
        dir: impl AsRef<Path>,
        config: StoreConfig,
    ) -> Result<RecoveryReport, FeedError> {
        let (mut store, recovery) =
            FeedbackStore::open(dir, config).map_err(|e| FeedError::Durability(e.to_string()))?;
        let mut report = RecoveryReport {
            torn_bytes: recovery.torn_bytes,
            stale_skipped: recovery.stale_skipped,
            duplicates_skipped: recovery.duplicates_skipped,
            generation: recovery.generation,
            ..RecoveryReport::default()
        };
        // Stage the recovered state on the side so a failure leaves
        // `self` untouched.
        let (mut warehouse, mut fed_points) = match &recovery.checkpoint {
            Some(payload) => {
                let checkpoint = decode_checkpoint_payload(payload)?;
                let warehouse = Warehouse::restore(&checkpoint.warehouse)
                    .map_err(|e| FeedError::Durability(format!("checkpoint restore: {e}")))?;
                report.checkpoint_loaded = true;
                (warehouse, checkpoint.fed_points.into_iter().collect())
            }
            None => {
                let warehouse = Warehouse::restore(&self.warehouse.snapshot())
                    .map_err(|e| FeedError::Durability(format!("state clone: {e}")))?;
                (warehouse, self.fed_points.clone())
            }
        };
        for record in &recovery.records {
            let txn = decode_transaction(&record.payload)?;
            for batch in &txn.batches {
                let fed = feed_weather_dedup(&mut warehouse, batch, &self.axioms, &mut fed_points)
                    .map_err(|e| {
                        FeedError::Durability(format!(
                            "WAL replay failed at seq {}: {e}",
                            record.seq
                        ))
                    })?;
                report.rows_loaded += fed.loaded;
            }
            report.transactions_replayed += 1;
        }
        if recovery.checkpoint.is_none() {
            // Seed the base checkpoint so the store never depends on
            // state that exists only in this process.
            let payload = encode_checkpoint_payload(&warehouse, &fed_points)?;
            store
                .checkpoint(&payload)
                .map_err(|e| FeedError::Durability(format!("initial checkpoint: {e}")))?;
        }
        self.store = Some(store);
        self.install_state(warehouse, fed_points);
        Ok(report)
    }

    /// Detaches and returns the store (subsequent feeds are no longer
    /// logged). The in-memory state is untouched.
    pub fn detach_store(&mut self) -> Option<FeedbackStore> {
        self.store.take()
    }

    /// The attached feedback store, if any.
    pub fn store(&self) -> Option<&FeedbackStore> {
        self.store.as_ref()
    }

    /// Mutable access to the attached store (for fault injection and
    /// experiment harnesses).
    pub fn store_mut(&mut self) -> Option<&mut FeedbackStore> {
        self.store.as_mut()
    }

    /// True when feeds are durably logged before being acknowledged.
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// Why the pipeline is poisoned (rejecting all feeds), if it is.
    pub fn poisoned(&self) -> Option<&str> {
        self.poisoned.as_deref()
    }

    /// Checkpoints the current state into the attached store now:
    /// serializes the warehouse + dedup set, makes it the recovery
    /// base, and truncates the WAL. Errors when no store is attached or
    /// the checkpoint write fails (in which case the previous
    /// checkpoint + WAL remain authoritative — nothing is lost).
    pub fn checkpoint_now(&mut self) -> Result<(), FeedError> {
        let Some(store) = self.store.as_mut() else {
            return Err(FeedError::Durability("no store attached".to_owned()));
        };
        let payload = encode_checkpoint_payload(&self.warehouse, &self.fed_points)?;
        store
            .checkpoint(&payload)
            .map_err(|e| FeedError::Durability(e.to_string()))
    }

    /// Replaces the in-memory state wholesale: the warehouse and its
    /// `(city, date)` dedup set go in together, the restored state is
    /// trusted (any poison is cleared) and no roll-up entry describing
    /// the old warehouse survives.
    fn install_state(
        &mut self,
        warehouse: Warehouse,
        fed_points: HashSet<(String, dwqa_common::Date)>,
    ) {
        self.warehouse = warehouse;
        self.fed_points = fed_points;
        self.poisoned = None;
        self.mark_dirty();
    }

    /// Replaces the warehouse state wholesale from a snapshot,
    /// rebuilding the `(city, date)` dedup set from the restored `City
    /// Weather` fact, clearing any poison, and emptying the roll-up cache.
    /// This is the manual restore path; prefer
    /// [`Self::attach_store_at`] when a durable store exists.
    pub fn restore_warehouse(&mut self, snapshot: &WarehouseSnapshot) -> Result<(), FeedError> {
        let warehouse =
            Warehouse::restore(snapshot).map_err(|e| FeedError::Durability(e.to_string()))?;
        let fed_points = crate::durability::fed_points_from(&warehouse);
        self.install_state(warehouse, fed_points);
        Ok(())
    }

    /// The replica apply path for one shipped WAL record: decodes the
    /// [`LoggedTransaction`] payload and feeds it through the normal
    /// transactional path. A standby therefore gets everything the
    /// primary's write path has — rollback on failure, `(city, date)`
    /// dedup, roll-up delta folding, and (when its own
    /// store is attached) local durability, so a promoted standby is
    /// immediately crash-safe.
    pub fn apply_replicated_transaction(
        &mut self,
        payload: &[u8],
    ) -> Result<FeedReport, FeedError> {
        let txn = decode_transaction(payload)?;
        let batches: Vec<&[Answer]> = txn.batches.iter().map(Vec::as_slice).collect();
        self.feed_transaction(&batches)
    }

    /// The replica apply path for a shipped checkpoint frame (a full
    /// sync, sent when a standby subscribes from before the primary's
    /// WAL horizon): the checkpoint's warehouse snapshot and dedup set
    /// replace the local state wholesale, poison is cleared, and — when
    /// a local store is attached — the same payload becomes the local
    /// recovery base (truncating the now-superseded local WAL).
    pub fn apply_replicated_checkpoint(&mut self, payload: &[u8]) -> Result<(), FeedError> {
        let checkpoint = decode_checkpoint_payload(payload)?;
        let warehouse = Warehouse::restore(&checkpoint.warehouse)
            .map_err(|e| FeedError::Durability(format!("replicated checkpoint restore: {e}")))?;
        self.install_state(warehouse, checkpoint.fed_points.into_iter().collect());
        if let Some(store) = self.store.as_mut() {
            store
                .checkpoint(payload)
                .map_err(|e| FeedError::Durability(format!("replicated checkpoint: {e}")))?;
        }
        Ok(())
    }

    /// The promotion fence: raises the attached store's generation
    /// above both its local value and `floor` (the highest primary
    /// generation this replica has seen) and checkpoints the current
    /// state as the new recovery base. Frames a resurrected old
    /// primary still carries are stamped at or below `floor`, so the
    /// existing stale-generation logic rejects them everywhere.
    /// Without a store the fence is purely logical: the caller's
    /// advertised generation becomes `floor + 1`.
    pub fn promote_generation(&mut self, floor: u64) -> Result<u64, FeedError> {
        let Some(store) = self.store.as_mut() else {
            return Ok(floor + 1);
        };
        let payload = encode_checkpoint_payload(&self.warehouse, &self.fed_points)?;
        store
            .promote(&payload, floor)
            .map_err(|e| FeedError::Durability(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::sales_by_temperature_band;
    use crate::schema::integrated_schema;
    use dwqa_common::Month;
    use dwqa_corpus::{
        default_cities, generate_sales, generate_weather_corpus, SalesConfig, WeatherConfig,
    };
    use dwqa_qa::AnswerValue;
    use dwqa_warehouse::AggFn;

    /// Average temperature by city over `City Weather`: the roll-up a
    /// weather commit must fold and a rolled-back one must leave alone.
    fn weather_rollup() -> CubeQuery {
        CubeQuery::on("City Weather")
            .group_by("City", "City")
            .aggregate("temperature_c", AggFn::Avg)
    }

    /// Reads [`weather_rollup`] through the cache, asserting it is served
    /// as a hit and equals a cold run on the warehouse as it now is —
    /// *present ⇒ current*, observed on the result itself.
    fn weather_rollup_hit(p: &IntegrationPipeline) -> ResultSet {
        let (hits, misses) = (p.rollup_cache().hits(), p.rollup_cache().misses());
        let got = p.rollup(&weather_rollup()).unwrap();
        assert_eq!(p.rollup_cache().hits(), hits + 1, "served from cache");
        assert_eq!(p.rollup_cache().misses(), misses, "nothing recomputed");
        let cold = weather_rollup().run(&p.warehouse).unwrap();
        assert_eq!(got, cold, "cached roll-up is current");
        got
    }

    fn built_pipeline(skip_enrichment: bool) -> (IntegrationPipeline, dwqa_corpus::GroundTruth) {
        let corpus = generate_weather_corpus(
            &WeatherConfig::new(42, 2004, Month::January),
            &default_cities(),
        );
        let mut wh = Warehouse::new(integrated_schema());
        let rows = generate_sales(&SalesConfig::default(), &default_cities(), &corpus.truth);
        wh.load("Last Minute Sales", rows).unwrap();
        let options = PipelineOptions::builder()
            .skip_enrichment(skip_enrichment)
            .build()
            .unwrap();
        let truth = corpus.truth.clone();
        (IntegrationPipeline::build(wh, corpus.store, options), truth)
    }

    #[test]
    fn steps_one_to_four_produce_reports() {
        let (p, _) = built_pipeline(false);
        assert!(p.enrichment.instances_added > 0);
        assert!(p.merge.count(dwqa_ontology::MatchKind::Exact) > 5);
        // The tuned ontology knows El Prat as an airport.
        let airport = p.qa.ontology().class_for("airport").unwrap();
        assert!(p
            .qa
            .ontology()
            .concepts_for("El Prat")
            .iter()
            .any(|&id| p.qa.ontology().is_a(id, airport)));
    }

    #[test]
    fn paper_question_end_to_end() {
        let (mut p, truth) = built_pipeline(false);
        let answers = p
            .read_path()
            .answer("What is the temperature in January of 2004 in El Prat?");
        let report = p.apply_feedback(&answers);
        assert!(!answers.is_empty());
        assert!(report.loaded > 0, "rejected: {:?}", report.rejected);
        // Every loaded tuple matches the generator's ground truth.
        for a in &answers {
            if let AnswerValue::Temperature { celsius, .. } = a.value {
                if let (Some(city), Some(date)) = (a.context_location.as_deref(), a.context_date) {
                    if let Some(t) = truth.temperature(city, date) {
                        assert!((t - celsius).abs() < 0.51, "{a:?} vs truth {t}");
                    }
                }
            }
        }
    }

    #[test]
    fn bi_analysis_becomes_answerable_after_feeding() {
        let (mut p, _) = built_pipeline(false);
        assert!(sales_by_temperature_band(&p.warehouse, 5.0)
            .unwrap()
            .is_empty());
        let questions: Vec<String> = default_cities()
            .iter()
            .map(|c| format!("What is the temperature in January of 2004 in {}?", c.city))
            .collect();
        let read = p.read_path();
        let mut merged = FeedReport::default();
        for q in &questions {
            let answers = read.answer(q);
            merged.absorb(p.apply_feedback(&answers));
        }
        assert!(merged.loaded > 0);
        let bands = sales_by_temperature_band(&p.warehouse, 5.0).unwrap();
        assert!(!bands.is_empty());
    }

    #[test]
    fn blessed_surface_replaces_the_retired_single_shot_wrappers() {
        // The sequence the deprecated `ask_and_feed` used to hide:
        // answer through the read path, load through the transactional
        // feedback API.
        let (mut p, _) = built_pipeline(false);
        let question = "What is the temperature in January of 2004 in El Prat?";
        let answers = p.read_path().answer(question);
        let report = p.apply_feedback(&answers);
        assert!(!answers.is_empty());
        assert!(report.loaded > 0);
        // A second feed of the same answers only skips duplicates.
        let report = p.apply_feedback(&answers);
        assert_eq!(report.loaded, 0);
        assert!(report.duplicates_skipped > 0);
    }

    #[test]
    fn builder_validates_the_embedded_qa_config() {
        let err = PipelineOptions::builder()
            .qa(dwqa_qa::AliQAnConfig::builder()
                .passage_window(4)
                .build()
                .map(|mut c| {
                    c.answers_k = 0; // corrupt a knob past the qa builder
                    c
                })
                .unwrap())
            .build()
            .unwrap_err();
        assert_eq!(err.field, "answers_k");
    }

    /// The invariant the answer cache rests on: Step 5 only writes
    /// into the warehouse, so no feed — the primary's or, through the
    /// same `feed_transaction`, a standby's replay of it — changes what
    /// any question answers.
    #[test]
    fn answers_do_not_depend_on_what_the_warehouse_was_fed() {
        let (mut p, _) = built_pipeline(false);
        let read = p.read_path();
        let mut questions = Vec::new();
        for c in default_cities() {
            questions.push(format!(
                "What is the temperature in January of 2004 in {}?",
                c.city
            ));
            for day in 1..=31 {
                questions.push(format!(
                    "What is the temperature on January {day}, 2004 in {}?",
                    c.city
                ));
            }
        }
        let before: Vec<Vec<Answer>> = questions.iter().map(|q| read.answer(q)).collect();
        let mut loaded = 0;
        for answers in &before {
            loaded += p.try_apply_feedback(answers).unwrap().loaded;
        }
        assert!(loaded > 0, "the feeds changed the warehouse");
        for (question, was) in questions.iter().zip(&before) {
            assert_eq!(&read.answer(question), was, "{question}");
        }
    }

    #[test]
    fn read_path_is_send_sync_and_usable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ReadPath>();

        let (p, _) = built_pipeline(false);
        let read = p.read_path();
        let question = "What is the temperature in January of 2004 in El Prat?";
        let expected = read.answer(question);
        let from_threads = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let read = read.clone();
                    s.spawn(move || read.answer(question))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        });
        for answers in from_threads {
            assert_eq!(answers, expected);
        }
    }

    #[test]
    fn injected_feed_fault_rolls_back_all_or_nothing() {
        let (mut p, _) = built_pipeline(false);
        let read = p.read_path();
        let questions: Vec<String> = default_cities()
            .iter()
            .map(|c| format!("What is the temperature in January of 2004 in {}?", c.city))
            .collect();
        let batches: Vec<Vec<_>> = questions.iter().map(|q| read.answer(q)).collect();
        let refs: Vec<&[_]> = batches.iter().map(Vec::as_slice).collect();

        // Certain failure: the transaction aborts mid-load and rolls back.
        p.set_feed_fault(Some(FeedFault { seed: 7, rate: 1.0 }));
        let before = p.warehouse.snapshot();
        let cached = p.rollup(&weather_rollup()).unwrap();
        let err = p.feed_batch(&refs).unwrap_err();
        assert!(matches!(err, FeedError::Injected(_)), "{err}");
        assert_eq!(p.rollbacks(), 1);
        assert_eq!(weather_rollup_hit(&p), cached, "rollback kept the entry");
        assert_eq!(p.warehouse.snapshot(), before, "warehouse fully restored");

        // Disabling the fault, the same transaction commits atomically
        // and its rows are folded into the cached roll-up.
        p.set_feed_fault(None);
        let report = p.feed_batch(&refs).unwrap();
        assert!(report.loaded > 0);
        assert_ne!(weather_rollup_hit(&p), cached, "commit folded new rows");
        // A retry after commit only skips duplicates — the dedup set was
        // rolled back with the warehouse, not corrupted by the failure.
        let again = p.feed_batch(&refs).unwrap();
        assert_eq!(again.loaded, 0);
        assert!(again.duplicates_skipped > 0);
    }

    #[test]
    fn rollup_cache_serves_reads_and_commits_fold_deltas_in_place() {
        let (mut p, _) = built_pipeline(false);
        let read = p.read_path();
        let answers = read.answer(EL_PRAT);

        // Two identical analyses: the second is served from cache.
        let first = p.sales_by_temperature_band(5.0).unwrap();
        let second = p.sales_by_temperature_band(5.0).unwrap();
        assert_eq!(first, second);
        assert_eq!(p.rollup_cache().misses(), 2, "two roll-ups executed");
        assert_eq!(p.rollup_cache().hits(), 2, "both served from cache");

        // A *rolled-back* transaction must not invalidate: the state did
        // not change, so cached results stay valid and keep hitting.
        p.set_feed_fault(Some(FeedFault { seed: 7, rate: 1.0 }));
        assert!(p.try_apply_feedback(&answers).is_err());
        assert_eq!(p.rollbacks(), 1);
        let after_rollback = p.sales_by_temperature_band(5.0).unwrap();
        assert_eq!(after_rollback, first);
        assert_eq!(p.rollup_cache().hits(), 4, "rollback kept entries hot");
        assert_eq!(p.rollup_cache().misses(), 2);

        // A *committed* transaction folds its append delta into the live
        // materialized entries instead of purging: both entries
        // survive, the next analysis is served from them —
        // already reflecting the fed weather — and nothing re-executes.
        p.set_feed_fault(None);
        assert!(p.try_apply_feedback(&answers).unwrap().loaded > 0);
        assert_eq!(p.rollup_cache().len(), 2, "commit maintained entries");
        let after_commit = p.sales_by_temperature_band(5.0).unwrap();
        assert_ne!(after_commit, first, "fed weather changed the analysis");
        assert_eq!(p.rollup_cache().misses(), 2, "no re-scan after commit");
        assert_eq!(p.rollup_cache().hits(), 6, "maintained entries hit");

        // The DW-query → question generation path shares the cache.
        let questions = p.missing_weather_questions(2004, Month::January).unwrap();
        let again = p.missing_weather_questions(2004, Month::January).unwrap();
        assert_eq!(questions, again);
        assert_eq!(p.rollup_cache().misses(), 4);
        assert_eq!(p.rollup_cache().hits(), 8);
    }

    #[test]
    fn apply_feedback_reports_instead_of_panicking_on_failure() {
        let (mut p, _) = built_pipeline(false);
        let answers = p
            .read_path()
            .answer("What is the temperature in January of 2004 in El Prat?");
        assert!(!answers.is_empty());
        p.set_feed_fault(Some(FeedFault { seed: 1, rate: 1.0 }));
        let cached = p.rollup(&weather_rollup()).unwrap();
        let report = p.apply_feedback(&answers);
        assert_eq!(report.loaded, 0);
        assert!(!report.rejected.is_empty());
        assert!(report.rejected[0].1.contains("injected"));
        assert!(!report.urls.is_empty(), "URLs survive rejection");
        assert_eq!(weather_rollup_hit(&p), cached, "nothing was loaded");
        // Without the fault the very same answers load fine.
        p.set_feed_fault(None);
        assert!(p.apply_feedback(&answers).loaded > 0);
        assert_ne!(weather_rollup_hit(&p), cached, "commit folded new rows");
    }

    #[test]
    fn feed_fault_rate_is_probabilistic_and_deterministic() {
        let (mut p, _) = built_pipeline(false);
        p.set_feed_fault(Some(FeedFault { seed: 3, rate: 0.5 }));
        let answers = p
            .read_path()
            .answer("What is the temperature in January of 2004 in El Prat?");
        let outcomes: Vec<bool> = (0..8)
            .map(|_| p.try_apply_feedback(&answers).is_ok())
            .collect();
        assert!(outcomes.iter().any(|ok| *ok), "some transactions commit");
        assert!(outcomes.iter().any(|ok| !*ok), "some transactions fail");
        // Replay on a fresh pipeline: identical outcome sequence.
        let (mut q, _) = built_pipeline(false);
        q.set_feed_fault(Some(FeedFault { seed: 3, rate: 0.5 }));
        let replayed: Vec<bool> = (0..8)
            .map(|_| q.try_apply_feedback(&answers).is_ok())
            .collect();
        assert_eq!(outcomes, replayed);
    }

    #[test]
    fn enrichment_ablation_changes_the_ontology() {
        let (with, _) = built_pipeline(false);
        let (without, _) = built_pipeline(true);
        assert_eq!(without.enrichment.instances_added, 0);
        // Without Step 2, El Prat never reaches the merged ontology.
        assert!(without.qa.ontology().concepts_for("El Prat").is_empty());
        assert!(!with.qa.ontology().concepts_for("El Prat").is_empty());
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("dwqa-pipeline-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const EL_PRAT: &str = "What is the temperature in January of 2004 in El Prat?";

    #[test]
    fn durable_feeds_survive_a_restart() {
        let dir = scratch("reopen");
        let (mut p, _) = built_pipeline(false);
        let report = p.attach_store_at(&dir).unwrap();
        assert!(!report.checkpoint_loaded, "fresh store has no base yet");
        assert!(p.is_durable());
        let answers = p.read_path().answer(EL_PRAT);
        assert!(p.apply_feedback(&answers).loaded > 0);
        assert_eq!(p.store().unwrap().wal_records(), 1);
        let expected = p.warehouse.to_json();

        // "Crash": a fresh process starting from the seed state
        // reattaches and recovers checkpoint + WAL suffix.
        let (mut q, _) = built_pipeline(false);
        let report = q.attach_store_at(&dir).unwrap();
        assert!(
            report.checkpoint_loaded,
            "attach seeded the base checkpoint"
        );
        assert_eq!(report.transactions_replayed, 1);
        assert!(report.rows_loaded > 0);
        assert_eq!(q.warehouse.to_json(), expected, "replay reproduces state");
        // The dedup set replayed too: re-feeding only skips duplicates.
        let again = q.apply_feedback(&answers);
        assert_eq!(again.loaded, 0);
        assert!(again.duplicates_skipped > 0);

        // An explicit checkpoint truncates the WAL; the next recovery
        // loads it with nothing left to replay.
        q.checkpoint_now().unwrap();
        assert_eq!(q.store().unwrap().wal_records(), 0);
        let (mut r, _) = built_pipeline(false);
        let report = r.attach_store_at(&dir).unwrap();
        assert!(report.checkpoint_loaded);
        assert_eq!(report.transactions_replayed, 0);
        assert_eq!(r.warehouse.to_json(), expected);
    }

    #[test]
    fn due_checkpoints_are_taken_opportunistically() {
        let dir = scratch("due");
        let (mut p, _) = built_pipeline(false);
        let config = dwqa_store::StoreConfig::builder()
            .checkpoint_every(Some(1))
            .build()
            .unwrap();
        p.attach_store_with(&dir, config).unwrap();
        let generation = p.store().unwrap().generation();
        let answers = p.read_path().answer(EL_PRAT);
        assert!(p.apply_feedback(&answers).loaded > 0);
        let store = p.store().unwrap();
        assert_eq!(store.wal_records(), 0, "commit triggered the checkpoint");
        assert!(store.generation() > generation);
    }

    #[test]
    fn torn_append_fails_the_feed_and_preserves_memory() {
        let dir = scratch("torn");
        let (mut p, _) = built_pipeline(false);
        p.attach_store_at(&dir).unwrap();
        p.store_mut()
            .unwrap()
            .set_torn(Some(dwqa_store::TornPlan::new(11).with_short_write(1.0)));
        let answers = p.read_path().answer(EL_PRAT);
        let before = p.warehouse.snapshot();
        let cached = p.rollup(&weather_rollup()).unwrap();
        let err = p.try_apply_feedback(&answers).unwrap_err();
        assert!(matches!(err, FeedError::Durability(_)), "{err}");
        assert_eq!(p.rollbacks(), 1);
        assert_eq!(weather_rollup_hit(&p), cached, "rollback kept the entry");
        assert_eq!(p.warehouse.snapshot(), before, "memory fully rolled back");
        assert!(p.poisoned().is_none(), "a clean rollback does not poison");
        assert!(p.store().unwrap().wedged());
        // The wedged store keeps refusing feeds until it is reopened.
        let err = p.try_apply_feedback(&answers).unwrap_err();
        assert!(matches!(err, FeedError::Durability(_)), "{err}");
        // Reattaching recovers: the torn tail is truncated and dropped.
        let report = p.attach_store_at(&dir).unwrap();
        assert!(report.torn_bytes > 0);
        assert_eq!(report.transactions_replayed, 0);
        // The reattach replaced the warehouse and emptied the cache;
        // cached again, the retried commit folds its rows in.
        assert_eq!(p.rollup(&weather_rollup()).unwrap(), cached);
        assert!(p.try_apply_feedback(&answers).unwrap().loaded > 0);
        assert_ne!(weather_rollup_hit(&p), cached, "commit folded new rows");
    }

    #[test]
    fn poisoned_pipeline_rejects_feeds_until_a_restore() {
        let (mut p, _) = built_pipeline(false);
        let answers = p.read_path().answer(EL_PRAT);
        let clean = p.warehouse.snapshot();
        p.poisoned = Some("simulated failed rollback".to_owned());
        let err = p.try_apply_feedback(&answers).unwrap_err();
        assert!(matches!(err, FeedError::Poisoned(_)), "{err}");
        assert_eq!(p.poisoned(), Some("simulated failed rollback"));
        // A wholesale snapshot restore clears the poison.
        p.restore_warehouse(&clean).unwrap();
        assert!(p.poisoned().is_none());
        assert!(p.try_apply_feedback(&answers).unwrap().loaded > 0);
    }

    #[test]
    fn replicated_frames_reproduce_the_primary_and_promotion_fences_it() {
        use dwqa_store::{FrameKind, FrameStream, FrameTap};
        use std::sync::{Arc, Mutex};

        let dir = scratch("repl");
        let (mut primary, _) = built_pipeline(false);
        let (mut standby, _) = built_pipeline(false);
        primary.attach_store_at(&dir).unwrap();
        let shipped: Arc<Mutex<Vec<Vec<u8>>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&shipped);
        primary
            .store_mut()
            .unwrap()
            .set_tap(Some(FrameTap::new(move |_seq, frame| {
                sink.lock().unwrap().push(frame.to_vec());
            })));

        let answers = primary.read_path().answer(EL_PRAT);
        assert!(primary.apply_feedback(&answers).loaded > 0);

        // Ship the tapped bytes through the wire decoder into the
        // standby, exactly as a follower thread would.
        let mut stream = FrameStream::new(16 << 20);
        for frame in shipped.lock().unwrap().iter() {
            stream.push(frame);
        }
        let mut applied = 0;
        while let Some(frame) = stream.next().unwrap() {
            match frame.kind {
                FrameKind::Record => {
                    standby
                        .apply_replicated_transaction(&frame.payload)
                        .unwrap();
                    applied += 1;
                }
                FrameKind::Checkpoint => {
                    standby.apply_replicated_checkpoint(&frame.payload).unwrap()
                }
                _ => {}
            }
        }
        assert_eq!(applied, 1);
        assert_eq!(standby.warehouse.to_json(), primary.warehouse.to_json());
        // The dedup set replicated too: re-feeding only skips.
        let again = standby.apply_feedback(&answers);
        assert_eq!(again.loaded, 0);
        assert!(again.duplicates_skipped > 0);

        // Promotion fences: with its own store attached, the promoted
        // standby's generation lands strictly above the floor (the old
        // primary's generation), so the old primary's frames are stale.
        let standby_dir = scratch("repl-standby");
        standby.attach_store_at(&standby_dir).unwrap();
        let old_gen = primary.store().unwrap().generation();
        let new_gen = standby.promote_generation(old_gen).unwrap();
        assert!(new_gen > old_gen);
        assert_eq!(standby.store().unwrap().generation(), new_gen);
        // Without a store the fence is logical: floor + 1.
        let (mut bare, _) = built_pipeline(false);
        assert_eq!(bare.promote_generation(7).unwrap(), 8);
    }

    /// A full-sync frame replaces the standby's warehouse before its
    /// own store records it. When that store refuses the write, the
    /// state stays replaced — and the roll-up cache must not go on
    /// describing the warehouse that is gone.
    #[test]
    fn a_replicated_checkpoint_empties_the_rollup_cache_even_if_the_local_write_fails() {
        let (mut primary, _) = built_pipeline(false);
        let answers = primary.read_path().answer(EL_PRAT);
        assert!(primary.apply_feedback(&answers).loaded > 0);
        let payload = encode_checkpoint_payload(&primary.warehouse, &primary.fed_points).unwrap();

        let (mut standby, _) = built_pipeline(false);
        standby.attach_store_at(scratch("repl-wedged")).unwrap();
        standby
            .store_mut()
            .unwrap()
            .set_torn(Some(dwqa_store::TornPlan::new(11).with_short_write(1.0)));
        assert!(standby.try_apply_feedback(&answers).is_err());
        assert!(standby.store().unwrap().wedged());
        let before = standby.rollup(&weather_rollup()).unwrap();

        let err = standby.apply_replicated_checkpoint(&payload).unwrap_err();
        assert!(matches!(err, FeedError::Durability(_)), "{err}");
        assert_eq!(standby.warehouse.to_json(), primary.warehouse.to_json());
        let after = standby.rollup(&weather_rollup()).unwrap();
        assert_ne!(
            after, before,
            "the entry for the replaced warehouse is gone"
        );
        assert_eq!(after, weather_rollup().run(&standby.warehouse).unwrap());
    }

    #[test]
    fn restore_warehouse_rebuilds_the_dedup_set() {
        let (mut p, _) = built_pipeline(false);
        let answers = p.read_path().answer(EL_PRAT);
        assert!(p.apply_feedback(&answers).loaded > 0);
        let snap = p.warehouse.snapshot();
        // A pipeline restored from that snapshot treats the fed points
        // as already present.
        let (mut q, _) = built_pipeline(false);
        let empty = q.rollup(&weather_rollup()).unwrap();
        q.restore_warehouse(&snap).unwrap();
        assert!(q.rollup_cache().is_empty(), "restore empties the cache");
        assert_ne!(q.rollup(&weather_rollup()).unwrap(), empty);
        let again = q.apply_feedback(&answers);
        assert_eq!(again.loaded, 0);
        assert!(again.duplicates_skipped > 0);
    }
}
