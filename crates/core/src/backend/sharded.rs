//! The hash-partitioned, worker-pool-parallel executor — the crate's one
//! op loop, at some shard count `S`, merge policy, and observer.
//!
//! Every relation version involved in a join gets a *shard map* — `S` HISAs
//! partitioned by [`gpulog_hisa::shard_of`] over the join-key hash — and
//! each shardable op becomes `S` independent per-shard tasks handed to the
//! persistent [`gpulog_device` worker pool](gpulog_device::Executor) as
//! **one epoch**:
//!
//! * [`RaOp::HashJoin`] — the intermediate re-partitions by the same key
//!   hash as the inner's shard map, so shard `i` of the outer only probes
//!   shard `i` of the inner. `S` independent joins, one pool dispatch. A
//!   join marked `dedup_outer` first deduplicates each part: every copy of
//!   a row hashes to the same shard, so per-part dedup is exact.
//! * [`RaOp::FusedJoin`] — the outer partitions by the *first* level's key
//!   and that level's inner is sharded the same way; deeper levels (whose
//!   keys are produced mid-kernel) probe their whole index.
//! * [`RaOp::AntiJoin`] / [`RaOp::Project`] — row-local, so each part is
//!   filtered or projected where it is.
//! * delta population ([`ShardedBackend::populate`]) — the `new` buffer
//!   partitions by the full-tuple hash; each shard deduplicates and
//!   subtracts `full` independently, and a k-way merge of the per-shard
//!   (sorted, disjoint) results reassembles the exact byte sequence one
//!   global difference produces. The sharded full representations merge
//!   their delta slice shard-locally, so the serial merge bottleneck
//!   disappears from the sharded read path.
//!
//! The intermediate travels as a list of parts — one after a scan or a
//! gather, one per shard after a keyed op — and a re-partition
//! concatenates each destination's rows in producer order, the row
//! sequence of partitioning the concatenated intermediate. Ops with
//! nothing to shard on (cross products, fused chains whose first level
//! binds no key, and the grouped reduce, whose groups span shards) gather
//! the parts into one and run the same op body over it, probing the whole
//! index (the 1-way map). So does a seed's canonical-prefix probe
//! ([`VersionSel::FullPrefix`]): it settles the relation and reads the
//! full version's canonical index by binary search, building no map.
//! Because the delta is re-sorted globally, every shard count reaches a
//! **byte-identical** fixpoint — the property tests in
//! `tests/tests/backend_pipeline.rs` pin exactly that.
//!
//! ## One shard
//!
//! `S = 1` is the default engine's configuration and the paper's
//! single-GPU evaluation loop: the intermediate is always one part, a
//! re-partition passes it through, delta population subtracts `full` from
//! the whole `new` buffer with no partition pass and no k-way merge, and a
//! 1-way shard map is the version's width-1 entry in its one index map
//! keyed by (key columns, width) — a plain index on the key, or the
//! canonical index for the canonical key
//! ([`crate::relation::RelationVersion::sharded_index_on`]) — so no shard
//! copy is ever built. The observer hooks fire exactly as at any `S`.
//!
//! ## Merge policy
//!
//! Under [`MergePolicy::Eager`] delta population merges the new delta into
//! `full` at once. Under [`MergePolicy::Deferred`] it deduplicates against
//! the lagging full, subtracts the relation's pending runs, installs the
//! delta, and hands the merge to relation storage
//! ([`crate::relation::RelationStorage`] owns the deferral and drains the
//! parked runs in place, coalesced). The op loop settles a relation
//! wherever it reads a full version — a full scan, the anti-join probe, a
//! canonical-prefix probe, and every full shard-map build — so no op ever
//! sees a lagging full.
//!
//! ## Observing the executor
//!
//! The loop reports to a [`ShardObserver`] wherever data is placed, moves
//! between shards, or a per-part kernel finishes. Every hook defaults to a
//! no-op; without a device topology the executor passes [`Unobserved`].
//! With one it passes its [`TopologyModel`], which pins shard `i` to
//! modeled device `i` and prices those reports, one bulk-synchronous step
//! per pipeline or delta population — so the multi-GPU simulation charges
//! the kernels this loop actually ran.

use super::multigpu::TopologyModel;
use super::{EvalContext, PipelineOutcome, PopulateOutcome};
use crate::engine::EngineConfig;
use crate::error::{EngineError, EngineResult};
use crate::planner::{ColumnSource, FilterStep, JoinStep, RelId, ScanStep, VersionSel};
use crate::ra::nway::{fused_rule_join_batch, FusedLevel};
use crate::ra::op::{RaOp, RaPipeline};
use crate::ra::project::{filter_batch, scan_select_rows};
use crate::ra::{
    anti_join_batch, deduplicate_rows, difference_batch, group_reduce_batch, hash_join_batch,
    project_batch,
};
use crate::relation::RelationVersion;
use crate::stats::Phase;
use gpulog_device::topology::TopologyReport;
use gpulog_device::Device;
use gpulog_hisa::{Hisa, TupleBatch};
use std::num::NonZeroUsize;
use std::slice;
use std::time::Instant;

/// Which kernel produced a set of per-part outputs (see
/// [`ShardObserver::ran`]). Part `i` ran on shard `i`; gathered bodies run
/// on shard 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PartOp {
    /// Scan placement: inputs and outputs are the placed parts.
    Scan,
    /// A keyed hash join against the inner's shard map.
    HashJoin,
    /// A fused join with its first level sharded.
    FusedJoin,
    /// A negation probe against the negated relation's canonical index.
    AntiJoin,
    /// A head projection.
    Project,
    /// A hash or fused join over the gathered intermediate, probing whole
    /// indices.
    GatheredJoin,
    /// The grouped reduce over the gathered intermediate.
    Reduce,
    /// Per-owner deduplication and difference of delta population.
    Diff,
    /// Per-part deduplication of a join's re-partitioned outer.
    Dedup,
}

/// The points of the sharded op loop where an observer can attribute
/// work and data movement. Every hook defaults to a no-op.
pub(super) trait ShardObserver {
    /// Places a scan's output. The default keeps the whole batch as one
    /// part; an observer may split it (part `i` then lives on shard `i`).
    fn place_scan(&self, batch: TupleBatch) -> Vec<TupleBatch> {
        vec![batch]
    }

    /// A keyed re-partition moved `moved[p * S + d]` values from part `p`
    /// to shard `d`.
    fn repartitioned(&self, moved: &[usize]) {
        let _ = moved;
    }

    /// A join built its delta-version shard map over `key_cols` afresh
    /// from the delta's flat `rows`.
    fn delta_shard_map_built(&self, rows: &[u32], arity: usize, key_cols: &[usize]) {
        let _ = (rows, arity, key_cols);
    }

    /// A kernel turned part `i` of `ins` into part `i` of `outs`.
    fn ran(&self, op: PartOp, ins: &[TupleBatch], outs: &[TupleBatch]) {
        let _ = (op, ins, outs);
    }

    /// Every part is about to be concatenated onto shard 0.
    fn gathered(&self, parts: &[TupleBatch]) {
        let _ = parts;
    }

    /// Delta population is about to send `relation`'s `new` rows to the
    /// shards owning them by full-row hash.
    fn new_rows_sent_to_owners(&self, relation: RelId, new: &TupleBatch) {
        let _ = (relation, new);
    }

    /// Delta population produced `delta`, which every cached shard map on
    /// `full` must now receive.
    fn delta_sent_to_shard_maps(&self, delta: &TupleBatch, full: &RelationVersion) {
        let _ = (delta, full);
    }

    /// A rule pipeline appended `parts` to `head`'s `new` buffer, in order.
    fn installed(&self, head: RelId, parts: &[TupleBatch]) {
        let _ = (head, parts);
    }
}

/// The no-op observer plain sharded execution reports to.
#[derive(Debug, Clone, Copy)]
pub(super) struct Unobserved;

impl ShardObserver for Unobserved {}

/// When delta population merges a new delta into `full`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum MergePolicy {
    /// At once: the bulk-synchronous loop.
    Eager,
    /// Parked as a pending run in relation storage and drained in
    /// coalesced merges, fewer O(|full|) passes than one per delta.
    Deferred,
}

/// The engine's one executor: each relation's HISA is sharded by
/// `hash(join_key) % shards`, and every shardable op runs as one worker-pool
/// epoch of per-shard tasks. [`crate::EngineBuilder`] builds it from the
/// configuration ([`ShardedBackend::from_config`]); one eager, unobserved
/// shard by default.
#[derive(Debug)]
pub struct ShardedBackend {
    /// Non-zero by construction, so the data layer's partitioning calls
    /// are panic-free without re-validating.
    shards: NonZeroUsize,
    merge: MergePolicy,
    /// The multi-GPU cost model observing the loop, when a device topology
    /// is configured.
    pub(super) topology: Option<TopologyModel>,
}

impl ShardedBackend {
    /// An eager, unobserved executor over `shards` hash partitions. One
    /// shard is the single-device evaluation loop: the intermediate stays
    /// one part, no partition pass or k-way merge runs, and each relation
    /// version's own index is its 1-way shard map.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidShardCount`] if `shards` is zero.
    pub fn new(shards: usize) -> EngineResult<Self> {
        Self::from_config(&EngineConfig {
            shard_count: shards,
            ..EngineConfig::default()
        })
    }

    /// The executor a configuration selects: deferred merging over
    /// [`EngineConfig::pipelined`] shards when that is positive, a topology
    /// observer with one shard per modeled device when
    /// [`EngineConfig::device_topology`] is set, and otherwise eager
    /// merging over [`EngineConfig::shard_count`] shards.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidShardCount`] for a zero shard count,
    /// and [`EngineError::Validation`] when a shard count above one
    /// conflicts with the pipelined shard count or the topology's device
    /// count (each shard pins to exactly one device), or when deferred
    /// merging is combined with a topology.
    pub fn from_config(config: &EngineConfig) -> EngineResult<Self> {
        let shards = NonZeroUsize::new(config.shard_count)
            .ok_or(EngineError::InvalidShardCount { shards: 0 })?;
        let invalid = |message: String| Err(EngineError::Validation { message });
        let conflicts = |other: usize| shards.get() > 1 && shards.get() != other;
        if let Some(pipelined) = NonZeroUsize::new(config.pipelined) {
            if config.device_topology.is_some() {
                return invalid(
                    "a device topology cannot be combined with pipelined (deferred) \
                     merging (the exchange is bulk-synchronous by construction)"
                        .into(),
                );
            }
            if conflicts(pipelined.get()) {
                return invalid(format!(
                    "shard count {shards} conflicts with pipelined shard count {pipelined}"
                ));
            }
            return Ok(ShardedBackend {
                shards: pipelined,
                merge: MergePolicy::Deferred,
                topology: None,
            });
        }
        if let Some(topology) = &config.device_topology {
            let devices = topology.device_count();
            if conflicts(devices.get()) {
                return invalid(format!(
                    "shard count {shards} conflicts with the {devices}-device topology \
                     (each shard pins to exactly one device)"
                ));
            }
            return Ok(ShardedBackend {
                shards: devices,
                merge: MergePolicy::Eager,
                topology: Some(TopologyModel::new(topology.clone())),
            });
        }
        Ok(ShardedBackend {
            shards,
            merge: MergePolicy::Eager,
            topology: None,
        })
    }

    /// The number of hash partitions this executor evaluates over.
    pub fn shards(&self) -> usize {
        self.shards.get()
    }

    /// A short configuration name for diagnostics: `"pipelined"` under
    /// deferred merging, `"multigpu"` with a topology observer, and
    /// `"sharded"` otherwise.
    pub fn name(&self) -> &'static str {
        match (self.merge, &self.topology) {
            (MergePolicy::Deferred, _) => "pipelined",
            (MergePolicy::Eager, Some(_)) => "multigpu",
            (MergePolicy::Eager, None) => "sharded",
        }
    }

    /// The cumulative multi-device modeling report — per-device modeled
    /// compute, link traffic, critical path, and modeled speedup — when a
    /// device topology is configured; `None` otherwise. The engine copies
    /// each run's share into [`crate::RunStats::topology`].
    pub fn topology_report(&self) -> Option<TopologyReport> {
        self.topology.as_ref().map(TopologyModel::report)
    }

    /// Executes one rule pipeline, appending its head tuples to the head
    /// relation's `new` buffer.
    ///
    /// # Errors
    ///
    /// Returns device errors (including out-of-memory) raised while
    /// settling, building indices, or materializing intermediates.
    pub fn execute(
        &self,
        ctx: &mut EvalContext<'_>,
        pipeline: &RaPipeline,
    ) -> EngineResult<PipelineOutcome> {
        self.observed(|obs| self.run(ctx, pipeline, obs))
    }

    /// Delta population for one relation: deduplicates its `new` buffer,
    /// subtracts `full`, installs the result as the next delta, and merges
    /// it into `full` — at once or deferred, per the merge policy.
    ///
    /// # Errors
    ///
    /// Returns device errors raised while installing or merging the delta.
    pub fn populate(
        &self,
        ctx: &mut EvalContext<'_>,
        relation: RelId,
    ) -> EngineResult<PopulateOutcome> {
        self.observed(|obs| self.run_populate(ctx, relation, obs))
    }

    /// Runs `body` against the executor's observer; with a topology model,
    /// as one priced bulk-synchronous step.
    fn observed<T>(&self, body: impl FnOnce(&dyn ShardObserver) -> T) -> T {
        let Some(model) = &self.topology else {
            return body(&Unobserved);
        };
        let start = model.open_step();
        let result = body(model);
        model.close_step(&start);
        result
    }

    /// The op loop: runs `pipeline` over per-shard parts, reporting to
    /// `obs`, and returns early when the intermediate goes empty.
    pub(super) fn run(
        &self,
        ctx: &mut EvalContext<'_>,
        pipeline: &RaPipeline,
        obs: &dyn ShardObserver,
    ) -> EngineResult<PipelineOutcome> {
        let mut parts = Vec::new();
        for op in &pipeline.ops {
            if !matches!(op, RaOp::Scan { .. }) && parts.iter().all(TupleBatch::is_empty) {
                // No downstream op can derive anything from an empty
                // intermediate.
                return Ok(PipelineOutcome::default());
            }
            match op {
                RaOp::Scan { step, filters } => {
                    parts = obs.place_scan(scan(ctx, step, filters)?);
                    obs.ran(PartOp::Scan, &parts, &parts);
                }
                RaOp::HashJoin {
                    step,
                    filters,
                    dedup_outer,
                } => {
                    parts = self.hash_join(ctx, parts, step, filters, *dedup_outer, obs)?;
                }
                RaOp::FusedJoin { levels, head_proj } => {
                    parts = self.fused_join(ctx, parts, levels, head_proj, obs)?;
                }
                RaOp::AntiJoin { step } => {
                    // A probe against the negated relation's canonical full
                    // index, which every shard reads whole. Stratification
                    // guarantees that version is complete once settled.
                    ctx.settle(step.relation)?;
                    let t = Instant::now();
                    let device = ctx.device;
                    let existing = ctx.relations[step.relation].full().canonical();
                    let outs = fan_out_shards(device, &parts, |_, part| {
                        if part.is_empty() {
                            TupleBatch::empty(part.arity())
                        } else {
                            anti_join_batch(device, part, &step.probe, existing)
                        }
                    });
                    obs.ran(PartOp::AntiJoin, &parts, &outs);
                    parts = outs;
                    ctx.stats.add_phase(Phase::Join, t.elapsed());
                }
                RaOp::Project { columns } => {
                    let t = Instant::now();
                    let device = ctx.device;
                    let out_arity = columns.len().max(1);
                    let outs = fan_out_shards(device, &parts, |_, part| {
                        if part.is_empty() {
                            TupleBatch::empty(out_arity)
                        } else {
                            project_batch(device, part, columns)
                        }
                    });
                    obs.ran(PartOp::Project, &parts, &outs);
                    parts = outs;
                    ctx.stats.add_phase(Phase::Join, t.elapsed());
                }
                RaOp::Reduce { op, agg_column } => {
                    // A group's rows may span shards, so the reduction sees
                    // the gathered intermediate.
                    let batch = gather(parts, obs);
                    let t = Instant::now();
                    let reduced = group_reduce_batch(ctx.device, &batch, *agg_column, *op);
                    ctx.stats.add_phase(Phase::Deduplication, t.elapsed());
                    obs.ran(
                        PartOp::Reduce,
                        slice::from_ref(&batch),
                        slice::from_ref(&reduced),
                    );
                    parts = vec![reduced];
                }
            }
        }
        obs.installed(pipeline.head, &parts);
        for part in parts.iter().filter(|part| !part.is_empty()) {
            ctx.relations[pipeline.head].push_new_batch(part);
        }
        Ok(PipelineOutcome {
            derived_rows: parts.iter().map(TupleBatch::len).sum(),
        })
    }

    /// Re-partitions the intermediate by `key_cols`: destination shard `d`
    /// concatenates, in producer order, every part's rows whose key hashes
    /// to `d`.
    fn repartition(
        &self,
        parts: Vec<TupleBatch>,
        key_cols: &[usize],
        obs: &dyn ShardObserver,
    ) -> Vec<TupleBatch> {
        let s = self.shards.get();
        if let ([part], 1) = (parts.as_slice(), s) {
            // One shard owns every key: the lone part stays where it is.
            obs.repartitioned(&[part.as_flat().len()]);
            return parts;
        }
        let mut moved = vec![0usize; parts.len() * s];
        let mut per_dest: Vec<Vec<TupleBatch>> =
            (0..s).map(|_| Vec::with_capacity(parts.len())).collect();
        for (p, part) in parts.iter().enumerate() {
            let subs = part.partition_by_key_hash(key_cols, self.shards);
            for (d, sub) in subs.into_iter().enumerate() {
                moved[p * s + d] = sub.as_flat().len();
                per_dest[d].push(sub);
            }
        }
        obs.repartitioned(&moved);
        per_dest.into_iter().map(concat_parts).collect()
    }

    /// The width of the map a join level probes: one (the whole index,
    /// probed by the gathered intermediate) when it probes whole (see
    /// [`probes_whole`]), otherwise `S`.
    fn map_shards(&self, step: &JoinStep) -> NonZeroUsize {
        if probes_whole(step) {
            NonZeroUsize::MIN
        } else {
            self.shards
        }
    }

    /// Lays the intermediate out for a join level (`None`: a fused chain
    /// without levels): re-partitioned on the level's outer key and
    /// reported as `keyed`, or, when the level probes whole (see
    /// [`probes_whole`]), gathered into one part and reported as
    /// [`PartOp::GatheredJoin`].
    fn lay_out(
        &self,
        parts: Vec<TupleBatch>,
        step: Option<&JoinStep>,
        keyed: PartOp,
        obs: &dyn ShardObserver,
    ) -> (Vec<TupleBatch>, PartOp) {
        match step.filter(|step| !probes_whole(step)) {
            Some(step) => (self.repartition(parts, &step.outer_key_cols, obs), keyed),
            None => (vec![gather(parts, obs)], PartOp::GatheredJoin),
        }
    }

    /// Builds (or refreshes from cache) the `shards`-way map a join level
    /// probes, timed into `phase`, reporting a fresh delta-version build of
    /// an `S`-way map. A full version is settled before the timer starts,
    /// so waiting on a deferred merge counts as merge time only.
    fn build_shard_map(
        &self,
        ctx: &mut EvalContext<'_>,
        step: &JoinStep,
        shards: NonZeroUsize,
        phase: Phase,
        obs: &dyn ShardObserver,
    ) -> EngineResult<()> {
        let (relation, version, key_cols) = (step.relation, step.version, &step.inner_key_cols);
        if version != VersionSel::Delta {
            ctx.settle(relation)?;
        }
        let t = Instant::now();
        let fresh = shards == self.shards
            && version == VersionSel::Delta
            && ctx.shard_map(relation, version, key_cols, shards).is_none();
        ctx.build_shard_map(relation, version, key_cols, shards)?;
        if fresh {
            let storage = &ctx.relations[relation];
            obs.delta_shard_map_built(storage.delta.tuples_flat(), storage.arity, key_cols);
        }
        ctx.stats.add_phase(phase, t.elapsed());
        Ok(())
    }

    /// [`RaOp::HashJoin`] over the shard map: shard `i` of the re-partitioned
    /// outer probes shard `i` of the inner relation — `S` independent joins
    /// dispatched to the worker pool as a single epoch. A cross product
    /// gathers and probes the whole inner.
    ///
    /// With `dedup_outer`, each laid-out part is first deduplicated when
    /// that pays (see [`dedup_pays`]). The re-partition put every copy of a
    /// row in one part, so the per-part dedup is exact and the decision —
    /// taken over totals across parts — is the same at every `S`.
    fn hash_join(
        &self,
        ctx: &mut EvalContext<'_>,
        parts: Vec<TupleBatch>,
        step: &JoinStep,
        filters: &[FilterStep],
        dedup_outer: bool,
        obs: &dyn ShardObserver,
    ) -> EngineResult<Vec<TupleBatch>> {
        let shards = self.map_shards(step);
        let index_phase = match step.version {
            VersionSel::Full | VersionSel::FullPrefix => Phase::IndexFull,
            VersionSel::Delta => Phase::IndexDelta,
        };
        self.build_shard_map(ctx, step, shards, index_phase, obs)?;

        let t = Instant::now();
        let (parts, op) = self.lay_out(parts, Some(step), PartOp::HashJoin, obs);
        let device = ctx.device;
        let inners = ctx
            .shard_map(step.relation, step.version, &step.inner_key_cols, shards)
            .expect("shard map built above");
        let mut dedup_spent = None;
        let parts = if dedup_outer && dedup_pays(&parts, inners) {
            let t = Instant::now();
            let deduped = fan_out_shards(device, &parts, |_, part| deduplicate_rows(device, part));
            obs.ran(PartOp::Dedup, &parts, &deduped);
            dedup_spent = Some(t.elapsed());
            deduped
        } else {
            parts
        };
        let outs = fan_out_shards(device, &parts, |shard, part| {
            let mut out = hash_join_batch(
                device,
                part,
                &step.outer_key_cols,
                &inners[shard],
                &step.inner_const_filters,
                &step.inner_eq_filters,
                &step.emit,
            );
            if !filters.is_empty() {
                out = filter_batch(device, &out, filters);
            }
            out
        });
        obs.ran(op, &parts, &outs);
        let mut join_spent = t.elapsed();
        if let Some(spent) = dedup_spent {
            ctx.stats.add_phase(Phase::Deduplication, spent);
            join_spent -= spent;
        }
        ctx.stats.add_phase(Phase::Join, join_spent);
        Ok(outs)
    }

    /// [`RaOp::FusedJoin`] with the outer and the first level's inner
    /// partition-aligned on the level-0 key; deeper levels probe their
    /// whole index inside each per-shard fused kernel. One pool epoch of
    /// `S` fused joins — or one gathered fused join when level 0 binds no
    /// key.
    fn fused_join(
        &self,
        ctx: &mut EvalContext<'_>,
        parts: Vec<TupleBatch>,
        levels: &[(JoinStep, Vec<FilterStep>)],
        head_proj: &[ColumnSource],
        obs: &dyn ShardObserver,
    ) -> EngineResult<Vec<TupleBatch>> {
        let level0 = levels.first().map(|(step, _)| step);
        let level_shards = |depth: usize| match level0 {
            Some(step) if depth == 0 => self.map_shards(step),
            _ => NonZeroUsize::MIN,
        };
        for (depth, (step, _)) in levels.iter().enumerate() {
            self.build_shard_map(ctx, step, level_shards(depth), Phase::IndexFull, obs)?;
        }

        let t = Instant::now();
        let (parts, op) = self.lay_out(parts, level0, PartOp::FusedJoin, obs);
        let device = ctx.device;
        let maps: Vec<&[Hisa]> = levels
            .iter()
            .enumerate()
            .map(|(depth, (step, _))| {
                ctx.shard_map(
                    step.relation,
                    step.version,
                    &step.inner_key_cols,
                    level_shards(depth),
                )
                .expect("shard map built above")
            })
            .collect();
        let outs = fan_out_shards(device, &parts, |shard, part| {
            let fused_levels: Vec<FusedLevel<'_>> = levels
                .iter()
                .zip(&maps)
                .map(|((step, step_filters), map)| FusedLevel {
                    step,
                    // A 1-way map serves every part.
                    inner: if map.len() == 1 { &map[0] } else { &map[shard] },
                    filters: step_filters.as_slice(),
                })
                .collect();
            fused_rule_join_batch(device, part, &fused_levels, head_proj)
        });
        obs.ran(op, &parts, &outs);
        ctx.stats.add_phase(Phase::Join, t.elapsed());
        Ok(outs)
    }

    /// Delta population sharded by the full-tuple hash: per-shard
    /// deduplication and set difference in one pool epoch, then a k-way
    /// merge of the (sorted, pairwise-disjoint) shard results into the
    /// globally sorted delta — byte-identical to one global difference.
    /// Under deferred merging the stored full lags by the relation's
    /// pending runs, which are subtracted too.
    fn run_populate(
        &self,
        ctx: &mut EvalContext<'_>,
        relation: RelId,
        obs: &dyn ShardObserver,
    ) -> EngineResult<PopulateOutcome> {
        let device = ctx.device;
        let ebm = ctx.ebm;
        let storage = &mut ctx.relations[relation];
        let arity = storage.arity;
        let new = TupleBatch::new(arity, storage.take_new(&ebm));
        let new_rows = new.len();

        let t = Instant::now();
        obs.new_rows_sent_to_owners(relation, &new);
        let parts = if self.shards.get() == 1 {
            vec![new]
        } else {
            let full_key: Vec<usize> = (0..arity).collect();
            new.partition_by_key_hash(&full_key, self.shards)
        };
        let delta = {
            let full = storage.full().canonical();
            let outs = fan_out_shards(device, &parts, |_, part| {
                difference_batch(device, part, full)
            });
            obs.ran(PartOp::Diff, &parts, &outs);
            storage.subtract_pending(TupleBatch::merge_sorted_unique(arity, outs))
        };
        ctx.stats.add_phase(Phase::Deduplication, t.elapsed());
        obs.delta_sent_to_shard_maps(&delta, storage.full());

        // `difference_batch` flags its output sorted-unique, so the delta
        // HISA build skips its sort/dedup passes.
        let t = Instant::now();
        storage.set_delta_batch(&delta)?;
        ctx.stats.add_phase(Phase::IndexDelta, t.elapsed());

        let outcome = PopulateOutcome {
            new_rows,
            delta_rows: delta.len(),
        };
        // The canonical full store merges serially (it is the authoritative
        // unsharded tuple array); every cached shard map merges its own
        // delta slice in a parallel epoch inside the merge.
        let t = Instant::now();
        match self.merge {
            MergePolicy::Eager => storage.merge_delta_into_full(&ebm)?,
            MergePolicy::Deferred => storage.defer_merge(delta, &ebm)?,
        }
        ctx.stats.add_phase(Phase::Merge, t.elapsed());
        Ok(outcome)
    }
}

/// Executes a [`RaOp::Scan`]: select from the relation version (settling a
/// full one first), apply the atom-local filters, and keep the plan's
/// columns. An empty source yields an empty batch without launching
/// kernels.
fn scan(
    ctx: &mut EvalContext<'_>,
    step: &ScanStep,
    filters: &[FilterStep],
) -> EngineResult<TupleBatch> {
    if step.version == VersionSel::Full {
        ctx.settle(step.relation)?;
    }
    let t = Instant::now();
    let storage = &ctx.relations[step.relation];
    let source = storage.version(step.version);
    let batch = if source.is_empty() {
        TupleBatch::empty(1)
    } else {
        let mut batch = scan_select_rows(
            ctx.device,
            source.tuples_flat(),
            storage.arity,
            &step.const_filters,
            &step.eq_filters,
            &step.keep_cols,
        );
        if !filters.is_empty() {
            batch = filter_batch(ctx.device, &batch, filters);
        }
        batch
    };
    ctx.stats.add_phase(Phase::Join, t.elapsed());
    Ok(batch)
}

/// Whether a join level probes one whole index with the gathered
/// intermediate instead of `S` key-aligned shards: a cross product has no
/// key to re-partition on, and a canonical-prefix probe
/// ([`VersionSel::FullPrefix`]) reads the full version's canonical index,
/// which is never sharded. The outer of such a probe is a seed's small
/// delta, so gathering it costs little at any `S`.
fn probes_whole(step: &JoinStep) -> bool {
    step.outer_key_cols.is_empty() || step.version == VersionSel::FullPrefix
}

/// The fewest outer rows (summed over parts) worth a dedup pass. Below
/// this the sort's fixed kernel launches cost more on the modeled device
/// than the duplicate probes they would save.
const MIN_DEDUP_OUTER_ROWS: usize = 1 << 16;

/// Whether deduplicating a join's outer `parts` before probing `inners`
/// pays: the outer is large (at least [`MIN_DEDUP_OUTER_ROWS`] rows) and
/// the inner holds more rows than distinct keys, so every duplicate outer
/// row would be multiplied by a fan-out above one. Both totals are sums
/// over all parts and shards, which partition the same rows at every `S`.
fn dedup_pays(parts: &[TupleBatch], inners: &[Hisa]) -> bool {
    let outer_rows: usize = parts.iter().map(TupleBatch::len).sum();
    let inner_rows: usize = inners.iter().map(Hisa::len).sum();
    let inner_keys: usize = inners.iter().map(Hisa::key_count).sum();
    outer_rows >= MIN_DEDUP_OUTER_ROWS && inner_rows > inner_keys
}

/// Concatenates every part onto shard 0, reporting the gather.
fn gather(parts: Vec<TupleBatch>, obs: &dyn ShardObserver) -> TupleBatch {
    obs.gathered(&parts);
    concat_parts(parts)
}

/// Concatenates parts (all of one arity) in order, moving a lone part
/// instead of copying it.
fn concat_parts(mut parts: Vec<TupleBatch>) -> TupleBatch {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let arity = parts.first().map_or(1, TupleBatch::arity);
    TupleBatch::concat(arity, parts)
}

/// The one fan-out scaffold behind every sharded op: hands `parts` to the
/// worker pool as a single epoch — one task per shard, each computing its
/// output batch with `run(shard, part)` — and returns the outputs in shard
/// order. Kernels called inside `run` execute inline on their worker
/// (nested dispatches never re-enter the pool); a single part runs on the
/// calling thread, where its kernels still fan out.
fn fan_out_shards<F>(device: &Device, parts: &[TupleBatch], run: F) -> Vec<TupleBatch>
where
    F: Fn(usize, &TupleBatch) -> TupleBatch + Sync,
{
    if let [part] = parts {
        return vec![run(0, part)];
    }
    let mut outs: Vec<Option<TupleBatch>> = (0..parts.len()).map(|_| None).collect();
    let jobs: Vec<(usize, &TupleBatch, &mut Option<TupleBatch>)> = parts
        .iter()
        .zip(outs.iter_mut())
        .enumerate()
        .map(|(shard, (part, slot))| (shard, part, slot))
        .collect();
    device.executor().run_tasks(jobs, |_, (shard, part, slot)| {
        *slot = Some(run(shard, part));
    });
    outs.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ebm::EbmConfig;
    use crate::planner::EmitSource;
    use crate::relation::RelationStorage;
    use crate::stats::RunStats;
    use gpulog_device::profile::DeviceProfile;
    use gpulog_device::topology::DeviceTopology;
    use gpulog_hisa::DEFAULT_LOAD_FACTOR;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    fn one_shard() -> ShardedBackend {
        ShardedBackend::new(1).unwrap()
    }

    /// An executor over `shards` partitions with deferred merging.
    fn deferred(shards: usize) -> ShardedBackend {
        ShardedBackend::from_config(&EngineConfig {
            pipelined: shards,
            ..EngineConfig::default()
        })
        .unwrap()
    }

    fn context<'a>(
        d: &'a Device,
        relations: &'a mut [RelationStorage],
        stats: &'a mut RunStats,
    ) -> EvalContext<'a> {
        EvalContext {
            device: d,
            relations,
            stats,
            ebm: EbmConfig::default(),
        }
    }

    fn full_scan(relation: RelId) -> RaOp {
        RaOp::Scan {
            step: ScanStep {
                relation,
                version: VersionSel::Full,
                const_filters: vec![],
                eq_filters: vec![],
                keep_cols: vec![0, 1],
            },
            filters: vec![],
        }
    }

    /// `H(x, z) :- A(x, y), B(y, z).` with `B` read at `version`.
    fn join_pipeline_on(version: VersionSel) -> RaPipeline {
        RaPipeline {
            head: 2,
            ops: vec![
                full_scan(0),
                RaOp::HashJoin {
                    step: JoinStep {
                        relation: 1,
                        version,
                        outer_key_cols: vec![1],
                        inner_key_cols: vec![0],
                        inner_const_filters: vec![],
                        inner_eq_filters: vec![],
                        emit: vec![
                            EmitSource::Outer(0),
                            EmitSource::Outer(1),
                            EmitSource::Inner(1),
                        ],
                    },
                    filters: vec![],
                    dedup_outer: false,
                },
                RaOp::Project {
                    columns: vec![ColumnSource::Col(0), ColumnSource::Col(2)],
                },
            ],
            text: "H(x, z) :- A(x, y), B(y, z).".into(),
        }
    }

    fn join_pipeline() -> RaPipeline {
        join_pipeline_on(VersionSel::Full)
    }

    fn storages(d: &Device) -> Vec<RelationStorage> {
        let mut relations = vec![
            RelationStorage::new(d, "A", 2, DEFAULT_LOAD_FACTOR).unwrap(),
            RelationStorage::new(d, "B", 2, DEFAULT_LOAD_FACTOR).unwrap(),
            RelationStorage::new(d, "H", 2, DEFAULT_LOAD_FACTOR).unwrap(),
        ];
        let a: Vec<u32> = (0..60u32).flat_map(|i| [i, i % 11]).collect();
        let b: Vec<u32> = (0..40u32).flat_map(|i| [i % 11, i * 3]).collect();
        relations[0]
            .load_full_batch(&TupleBatch::new(2, a.to_vec()))
            .unwrap();
        relations[1]
            .load_full_batch(&TupleBatch::new(2, b.to_vec()))
            .unwrap();
        relations
    }

    #[test]
    fn zero_shards_is_an_invalid_shard_count() {
        assert!(matches!(
            ShardedBackend::new(0),
            Err(EngineError::InvalidShardCount { shards: 0 })
        ));
        assert_eq!(ShardedBackend::new(4).unwrap().shards(), 4);
    }

    #[test]
    fn zero_shards_are_rejected() {
        for config in [
            EngineConfig {
                shard_count: 0,
                ..EngineConfig::default()
            },
            EngineConfig {
                shard_count: 0,
                pipelined: 2,
                ..EngineConfig::default()
            },
            EngineConfig {
                shard_count: 0,
                device_topology: Some(DeviceTopology::nvlink_like(NonZeroUsize::MIN)),
                ..EngineConfig::default()
            },
        ] {
            match ShardedBackend::from_config(&config) {
                Err(EngineError::InvalidShardCount { shards: 0 }) => {}
                other => panic!("expected InvalidShardCount, got {other:?}"),
            }
        }
        let pipelined = deferred(3);
        assert_eq!((pipelined.name(), pipelined.shards()), ("pipelined", 3));
    }

    #[test]
    fn scan_project_pipeline_derives_into_the_head_buffer() {
        let d = device();
        let mut relations = vec![
            RelationStorage::new(&d, "E", 2, DEFAULT_LOAD_FACTOR).unwrap(),
            RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap(),
        ];
        relations[0]
            .load_full_batch(&TupleBatch::new(2, vec![1, 2, 3, 4]))
            .unwrap();
        let pipeline = RaPipeline {
            head: 1,
            ops: vec![
                full_scan(0),
                RaOp::Project {
                    columns: vec![ColumnSource::Col(1), ColumnSource::Col(0)],
                },
            ],
            text: "R(y, x) :- E(x, y).".into(),
        };
        let mut stats = RunStats::default();
        let mut ctx = EvalContext {
            device: &d,
            relations: &mut relations,
            stats: &mut stats,
            ebm: EbmConfig::default(),
        };
        let outcome = one_shard().execute(&mut ctx, &pipeline).unwrap();
        assert_eq!(outcome.derived_rows, 2);
        assert_eq!(
            relations[1].take_new(&EbmConfig::default()),
            vec![2, 1, 4, 3]
        );
    }

    #[test]
    fn diff_pipeline_populates_and_merges_the_delta() {
        let d = device();
        let mut relations = vec![RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()];
        relations[0]
            .load_full_batch(&TupleBatch::new(2, vec![1, 2]))
            .unwrap();
        relations[0].push_new(&[1, 2, 3, 4, 3, 4, 5, 6]);
        let mut stats = RunStats::default();
        let mut ctx = EvalContext {
            device: &d,
            relations: &mut relations,
            stats: &mut stats,
            ebm: EbmConfig::default(),
        };
        let outcome = one_shard().populate(&mut ctx, 0).unwrap();
        assert_eq!(outcome.new_rows, 4);
        assert_eq!(outcome.delta_rows, 2, "dedup removes (3,4); (1,2) in full");
        assert_eq!(relations[0].len(), 3);
        assert!(relations[0].contains(&[5, 6]));
        assert!(stats.phase(Phase::Merge) > 0.0);
    }

    #[test]
    fn empty_pipeline_derives_nothing() {
        let d = device();
        let mut relations = vec![RelationStorage::new(&d, "R", 1, DEFAULT_LOAD_FACTOR).unwrap()];
        let mut stats = RunStats::default();
        let mut ctx = EvalContext {
            device: &d,
            relations: &mut relations,
            stats: &mut stats,
            ebm: EbmConfig::default(),
        };
        let pipeline = RaPipeline {
            head: 0,
            ops: vec![],
            text: "trivially empty".into(),
        };
        let outcome = one_shard().execute(&mut ctx, &pipeline).unwrap();
        assert_eq!(outcome, PipelineOutcome::default());
    }

    #[test]
    fn sharded_join_matches_serial_as_a_set_for_every_shard_count() {
        let d = device();
        let mut serial_rels = storages(&d);
        let mut stats = RunStats::default();
        let mut ctx = EvalContext {
            device: &d,
            relations: &mut serial_rels,
            stats: &mut stats,
            ebm: EbmConfig::default(),
        };
        one_shard().execute(&mut ctx, &join_pipeline()).unwrap();
        let mut expected = serial_rels[2].take_new(&EbmConfig::default());
        assert!(!expected.is_empty());
        sort_rows(&mut expected, 2);

        for shards in [2usize, 3, 7] {
            let backend = ShardedBackend::new(shards).unwrap();
            let mut rels = storages(&d);
            let mut stats = RunStats::default();
            let mut ctx = EvalContext {
                device: &d,
                relations: &mut rels,
                stats: &mut stats,
                ebm: EbmConfig::default(),
            };
            let outcome = backend.execute(&mut ctx, &join_pipeline()).unwrap();
            let mut got = rels[2].take_new(&EbmConfig::default());
            assert_eq!(outcome.derived_rows * 2, got.len());
            sort_rows(&mut got, 2);
            assert_eq!(got, expected, "shards = {shards}");
        }
    }

    #[test]
    fn sharded_diff_is_byte_identical_to_serial() {
        let d = device();
        let new_rows: Vec<u32> = (0..300u32).flat_map(|i| [i % 37, i % 13]).collect();
        let run = |backend: &ShardedBackend| {
            let mut rels = vec![RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()];
            rels[0]
                .load_full_batch(&TupleBatch::new(2, vec![1, 1, 5, 5, 36, 12]))
                .unwrap();
            rels[0].push_new(&new_rows);
            let mut stats = RunStats::default();
            let mut ctx = EvalContext {
                device: &d,
                relations: &mut rels,
                stats: &mut stats,
                ebm: EbmConfig::default(),
            };
            let outcome = backend.populate(&mut ctx, 0).unwrap();
            (
                outcome,
                rels[0].delta.tuples_flat().to_vec(),
                rels[0].full().tuples_flat().to_vec(),
            )
        };
        let serial = run(&one_shard());
        assert!(serial.0.delta_rows > 0);
        for shards in [2usize, 3, 7] {
            let sharded = run(&ShardedBackend::new(shards).unwrap());
            assert_eq!(sharded, serial, "shards = {shards}");
        }
    }

    /// Records each `ran` report's op and part count; optionally splits
    /// scans by full-row hash, as the topology model does.
    #[derive(Default)]
    struct Recorder {
        split_scans: bool,
        reports: std::cell::RefCell<Vec<(PartOp, usize)>>,
    }

    impl ShardObserver for Recorder {
        fn place_scan(&self, batch: TupleBatch) -> Vec<TupleBatch> {
            if !self.split_scans {
                return vec![batch];
            }
            let cols: Vec<usize> = (0..batch.arity()).collect();
            batch.partition_by_key_hash(&cols, NonZeroUsize::new(3).unwrap())
        }

        fn ran(&self, op: PartOp, ins: &[TupleBatch], outs: &[TupleBatch]) {
            assert_eq!(
                ins.len(),
                outs.len(),
                "{op:?} must report one output per part"
            );
            self.reports.borrow_mut().push((op, outs.len()));
        }
    }

    #[test]
    fn scan_placement_changes_attribution_not_results() {
        let d = device();
        let backend = ShardedBackend::new(3).unwrap();
        let run = |split_scans: bool| {
            let recorder = Recorder {
                split_scans,
                reports: Default::default(),
            };
            let mut rels = storages(&d);
            let mut stats = RunStats::default();
            let mut ctx = EvalContext {
                device: &d,
                relations: &mut rels,
                stats: &mut stats,
                ebm: EbmConfig::default(),
            };
            backend.run(&mut ctx, &join_pipeline(), &recorder).unwrap();
            let mut derived = rels[2].take_new(&EbmConfig::default());
            sort_rows(&mut derived, 2);
            (derived, recorder.reports.into_inner())
        };
        let (plain, plain_reports) = run(false);
        let (split, split_reports) = run(true);
        assert!(!plain.is_empty());
        assert_eq!(split, plain, "placement must not change the derived rows");
        // Plain sharded execution keeps a scan as one part (no row-hash
        // pass); the join fans out to every shard either way.
        let after_scan = [(PartOp::HashJoin, 3), (PartOp::Project, 3)];
        assert_eq!(plain_reports[0], (PartOp::Scan, 1));
        assert_eq!(split_reports[0], (PartOp::Scan, 3));
        assert_eq!(plain_reports[1..], after_scan);
        assert_eq!(split_reports[1..], after_scan);
    }

    /// At one shard no HISA copy is ever built: observed or not, and under
    /// a 1-device topology model, a delta population and joins against
    /// `B`'s full and delta versions cache no index wider than one shard
    /// and leave every relation holding exactly the device bytes the
    /// default executor leaves.
    #[test]
    fn one_shard_maps_are_the_versions_own_indices() {
        let d = device();
        let exercise = |backend: &ShardedBackend, obs: Option<&dyn ShardObserver>| {
            let mut rels = storages(&d);
            rels[1].push_new(&[3, 100, 4, 101, 3, 102]);
            let mut stats = RunStats::default();
            let mut ctx = context(&d, &mut rels, &mut stats);
            match obs {
                Some(obs) => backend.run_populate(&mut ctx, 1, obs).map(|_| ()),
                None => backend.populate(&mut ctx, 1).map(|_| ()),
            }
            .unwrap();
            for pipeline in [join_pipeline(), join_pipeline_on(VersionSel::Delta)] {
                match obs {
                    Some(obs) => backend.run(&mut ctx, &pipeline, obs),
                    None => backend.execute(&mut ctx, &pipeline),
                }
                .unwrap();
            }
            assert!(rels[2].take_new(&EbmConfig::default()).len() > 2);
            rels.iter()
                .map(|r| {
                    let keys = [r.full(), &r.delta].map(RelationVersion::index_keys);
                    assert!(
                        keys.iter().flatten().all(|&(_, width)| width == 1),
                        "{}: {keys:?}",
                        r.name
                    );
                    r.device_bytes()
                })
                .collect::<Vec<_>>()
        };
        let default = exercise(&one_shard(), None);
        let recorder = Recorder::default();
        let observed = exercise(&one_shard(), Some(&recorder));
        let topology = DeviceTopology::nvlink_like(NonZeroUsize::MIN);
        let multi = ShardedBackend::from_config(&EngineConfig {
            device_topology: Some(topology),
            ..EngineConfig::default()
        })
        .unwrap();
        let modeled = exercise(&multi, None);
        assert_eq!(observed, default);
        assert_eq!(modeled, default);
        assert!(recorder
            .reports
            .borrow()
            .iter()
            .all(|&(_, parts)| parts == 1));
    }

    /// Runs the same `new` rounds through eager one-shard population and
    /// deferred two-shard population, comparing the installed delta after
    /// every round and the settled full at the end, byte for byte.
    fn assert_rounds_byte_identical(rounds: &[&[u32]]) {
        let d = device();
        let mut eager_rels = vec![RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()];
        let mut deferred_rels =
            vec![RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()];
        // Maintain a secondary index so the deferred merge path covers it.
        for rels in [&mut eager_rels, &mut deferred_rels] {
            rels[0].full_mut().unwrap().index_on(&d, &[1]).unwrap();
        }
        let (eager, pipelined) = (one_shard(), deferred(2));
        let mut eager_stats = RunStats::default();
        let mut deferred_stats = RunStats::default();

        for (round, new) in rounds.iter().enumerate() {
            eager_rels[0].push_new(new);
            deferred_rels[0].push_new(new);
            let e = eager
                .populate(&mut context(&d, &mut eager_rels, &mut eager_stats), 0)
                .unwrap();
            let p = pipelined
                .populate(&mut context(&d, &mut deferred_rels, &mut deferred_stats), 0)
                .unwrap();
            assert_eq!(e, p, "outcome mismatch in round {round}");
            assert_eq!(
                eager_rels[0].delta.tuples_flat(),
                deferred_rels[0].delta.tuples_flat(),
                "delta mismatch in round {round}"
            );
        }

        context(&d, &mut deferred_rels, &mut deferred_stats)
            .settle_all()
            .unwrap();
        assert!(
            deferred_rels[0].is_settled(),
            "settling left deferred state"
        );
        let (eager_full, deferred_full) = (eager_rels[0].full(), deferred_rels[0].full());
        assert_eq!(eager_full.tuples_flat(), deferred_full.tuples_flat());
        assert_eq!(
            eager_full.canonical().sorted_index(),
            deferred_full.canonical().sorted_index()
        );
        let secondary = |full: &RelationVersion| {
            let index = &full
                .existing_sharded_index(&[1], NonZeroUsize::MIN)
                .unwrap()[0];
            (index.data().to_vec(), index.sorted_index().to_vec())
        };
        assert_eq!(secondary(eager_full), secondary(deferred_full));
    }

    #[test]
    fn deferred_diffs_are_byte_identical_to_serial() {
        assert_rounds_byte_identical(&[
            &[1, 2, 3, 4],
            // Duplicates against both the lagging full and the pending run.
            &[3, 4, 5, 6, 1, 2],
            &[5, 6, 7, 8],
            &[9, 9, 7, 8],
            // A fully-duplicate round: empty delta while a merge is deferred.
            &[1, 2, 9, 9],
        ]);
    }

    #[test]
    fn empty_rounds_keep_state_settled() {
        assert_rounds_byte_identical(&[&[], &[1, 1], &[]]);
    }

    #[test]
    fn full_scan_settles_deferred_merges_first() {
        let d = device();
        let mut rels = vec![RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()];
        let pipelined = deferred(2);
        let mut stats = RunStats::default();
        // One round leaves its delta pending: a drain waits for two runs.
        rels[0].push_new(&[1, 2, 3, 4, 5, 6]);
        pipelined
            .populate(&mut context(&d, &mut rels, &mut stats), 0)
            .unwrap();
        assert!(!rels[0].is_settled());
        assert_eq!(rels[0].len(), 0, "the stored full lags by the run");
        let scan = RaPipeline {
            head: 0,
            ops: vec![full_scan(0)],
            text: "scan".into(),
        };
        let outcome = pipelined
            .execute(&mut context(&d, &mut rels, &mut stats), &scan)
            .unwrap();
        assert_eq!(outcome.derived_rows, 3, "scan must see the settled full");
        assert!(rels[0].is_settled());
        assert_eq!(rels[0].len(), 3);
        assert!(d.metrics().snapshot().pipeline_stall_nanos > 0);
    }

    /// A canonical-prefix probe reads the full version like a full scan:
    /// under deferred merging it settles the pending runs first, then
    /// joins against the canonical index, building no index of its own.
    /// The rows it derives equal an eager join over a maintained index.
    #[test]
    fn prefix_probe_settles_deferred_merges_first() {
        let d = device();
        let mut want = storages(&d);
        let mut stats = RunStats::default();
        one_shard()
            .execute(&mut context(&d, &mut want, &mut stats), &join_pipeline())
            .unwrap();
        sort_rows(&mut want[2].new_tuples, 2);
        for shards in [1, 4] {
            let mut rels = storages(&d);
            let b = rels[1].tuples_batch();
            rels[1] = RelationStorage::new(&d, "B", 2, DEFAULT_LOAD_FACTOR).unwrap();
            rels[1].push_new_batch(&b);
            let pipelined = deferred(shards);
            pipelined
                .populate(&mut context(&d, &mut rels, &mut stats), 1)
                .unwrap();
            assert!(!rels[1].is_settled());
            assert_eq!(rels[1].len(), 0, "the stored full lags by the run");
            let outcome = pipelined
                .execute(
                    &mut context(&d, &mut rels, &mut stats),
                    &join_pipeline_on(VersionSel::FullPrefix),
                )
                .unwrap();
            assert!(rels[1].is_settled());
            assert_eq!(rels[1].len(), b.len());
            assert!(rels[1].full().index_keys().is_empty(), "{shards} shards");
            assert_eq!(outcome.derived_rows * 2, want[2].new_tuples.len());
            sort_rows(&mut rels[2].new_tuples, 2);
            assert_eq!(rels[2].new_tuples, want[2].new_tuples, "{shards} shards");
        }
    }

    /// Settling a relation with nothing pending must leave its full
    /// version alone: a full scan after a snapshot publish neither detaches
    /// (deep-copies) the shared version nor allocates device memory.
    #[test]
    fn settled_full_scan_keeps_a_published_version_shared() {
        let d = device();
        let mut rels = storages(&d);
        let published = rels[0].share_full();
        let scan = RaPipeline {
            head: 2,
            ops: vec![full_scan(0)],
            text: "H(x, y) :- A(x, y).".into(),
        };
        let allocations = d.metrics().snapshot().allocations;
        let in_use = d.tracker().in_use();
        let mut stats = RunStats::default();
        let outcome = deferred(2)
            .execute(&mut context(&d, &mut rels, &mut stats), &scan)
            .unwrap();
        assert_eq!(outcome.derived_rows, published.len());
        assert!(rels[0].full_is_shared(), "a settled scan must not detach");
        assert_eq!(d.metrics().snapshot().allocations, allocations);
        assert_eq!(d.tracker().in_use(), in_use);
    }

    /// A join against an index its full version already caches reads the
    /// version in place: after a snapshot publish it neither detaches
    /// (deep-copies) the shared version nor allocates more than the same
    /// join on an unshared version.
    #[test]
    fn cached_full_join_keeps_a_published_version_shared() {
        for backend in [one_shard(), ShardedBackend::new(4).unwrap()] {
            let d = device();
            let mut rels = storages(&d);
            let mut stats = RunStats::default();
            let mut join = |rels: &mut [RelationStorage]| {
                let before = d.metrics().snapshot().allocations;
                backend
                    .execute(&mut context(&d, rels, &mut stats), &join_pipeline())
                    .unwrap();
                rels[2].new_tuples.clear();
                d.metrics().snapshot().allocations - before
            };
            join(&mut rels);
            let unshared = join(&mut rels);
            let published = rels[1].share_full();
            let shared = join(&mut rels);
            assert!(rels[1].full_is_shared(), "a cached join must not detach");
            assert_eq!(shared, unshared, "{} shards", backend.shards());
            assert_eq!(published.len(), rels[1].len());
        }
    }

    /// A pipeline whose intermediate empties before its full-version join
    /// never reaches that read: the deferred runs stay pending, and the
    /// next full read — or settling every relation — still yields the
    /// byte-identical full.
    #[test]
    fn early_exit_leaves_runs_pending_until_the_next_full_read() {
        let d = device();
        let base: Vec<u32> = (0..40u32).flat_map(|i| [i, i % 11]).collect();
        let rounds: [&[u32]; 2] = [&[100, 1, 101, 2], &[102, 3]];
        // A (the outer, empty delta) joins B's full version.
        let prepare = |backend: &ShardedBackend| {
            let mut rels = storages(&d);
            rels[1]
                .load_full_batch(&TupleBatch::new(2, base.to_vec()))
                .unwrap();
            let mut stats = RunStats::default();
            for new in rounds {
                rels[1].push_new(new);
                backend
                    .populate(&mut context(&d, &mut rels, &mut stats), 1)
                    .unwrap();
            }
            let mut pipeline = join_pipeline();
            if let RaOp::Scan { step, .. } = &mut pipeline.ops[0] {
                step.version = VersionSel::Delta;
            }
            let outcome = backend
                .execute(&mut context(&d, &mut rels, &mut stats), &pipeline)
                .unwrap();
            assert_eq!(outcome, PipelineOutcome::default());
            (rels, stats)
        };
        let (eager_rels, _) = prepare(&one_shard());
        let expected = eager_rels[1].full();

        // Settled by the next full read.
        let (mut rels, mut stats) = prepare(&deferred(2));
        assert!(
            !rels[1].is_settled(),
            "tiny runs next to |full| stay pending"
        );
        let mut ctx = context(&d, &mut rels, &mut stats);
        deferred(2).execute(&mut ctx, &join_pipeline()).unwrap();
        assert!(rels[1].is_settled());
        assert_eq!(rels[1].full().tuples_flat(), expected.tuples_flat());
        assert_eq!(
            rels[1].full().canonical().sorted_index(),
            expected.canonical().sorted_index()
        );

        // Settled by settling every relation.
        let (mut rels, mut stats) = prepare(&deferred(2));
        assert!(!rels[1].is_settled());
        context(&d, &mut rels, &mut stats).settle_all().unwrap();
        assert!(rels.iter().all(RelationStorage::is_settled));
        assert_eq!(rels[1].full().tuples_flat(), expected.tuples_flat());
        assert_eq!(
            rels[1].full().canonical().sorted_index(),
            expected.canonical().sorted_index()
        );
    }

    fn sort_rows(flat: &mut [u32], arity: usize) {
        let mut rows: Vec<Vec<u32>> = flat.chunks_exact(arity).map(<[u32]>::to_vec).collect();
        rows.sort();
        for (chunk, row) in flat.chunks_exact_mut(arity).zip(rows) {
            chunk.copy_from_slice(&row);
        }
    }
}
