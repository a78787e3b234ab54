//! The hash-partitioned, worker-pool-parallel backend — and the crate's one
//! sharded op loop.
//!
//! `ShardedBackend` is the ROADMAP's sharded-relations item: every relation
//! version involved in a join gets a *shard map* — `S` HISAs partitioned by
//! [`gpulog_hisa::shard_of`] over the join-key hash — and each shardable op
//! becomes `S` independent per-shard tasks handed to the persistent
//! [`gpulog_device` worker pool](gpulog_device::Executor) as **one epoch**:
//!
//! * [`RaOp::HashJoin`] — the intermediate re-partitions by the same key
//!   hash as the inner's shard map, so shard `i` of the outer only probes
//!   shard `i` of the inner. `S` independent joins, one pool dispatch.
//! * [`RaOp::FusedJoin`] — the outer partitions by the *first* level's key
//!   and that level's inner is sharded the same way; deeper levels (whose
//!   keys are produced mid-kernel) probe their whole index.
//! * [`RaOp::AntiJoin`] / [`RaOp::Project`] — row-local, so each part is
//!   filtered or projected where it is.
//! * [`RaOp::Diff`] — the `new` buffer partitions by the full-tuple hash;
//!   each shard deduplicates and subtracts `full` independently, and a
//!   k-way merge of the per-shard (sorted, disjoint) results reassembles
//!   the exact byte sequence the serial difference produces. The sharded
//!   full representations merge their delta slice shard-locally, so the
//!   serial merge bottleneck disappears from the sharded read path.
//!
//! The intermediate travels as a list of parts — one after a scan or a
//! gather, one per shard after a keyed op — and a re-partition
//! concatenates each destination's rows in producer order, the row
//! sequence of partitioning the concatenated intermediate. Ops with
//! nothing to shard on (cross products, fused chains whose first level
//! binds no key, and the grouped reduce, whose groups span shards) gather
//! the parts and run the serial op body. Because the delta is re-sorted
//! globally, a sharded run is **byte-identical** to a serial run at every
//! fixpoint — the property tests in `tests/tests/backend_pipeline.rs` pin
//! exactly that.
//!
//! ## Observing the executor
//!
//! [`ShardedBackend::run`] reports to a [`ShardObserver`] wherever data is
//! placed, moves between shards, or a per-part kernel finishes. Every hook
//! defaults to a no-op and `ShardedBackend` itself passes [`Unobserved`];
//! [`super::MultiGpuBackend`] passes its topology model, which pins shard
//! `i` to modeled device `i` and prices those reports — so the multi-GPU
//! simulation charges the kernels this loop actually ran.

use super::serial::{self, fused_join_op, hash_join_op, reduce_op, scan_op};
use super::{Backend, EvalContext, PipelineOutcome};
use crate::error::{EngineError, EngineResult};
use crate::planner::{ColumnSource, FilterStep, JoinStep, RelId, VersionSel};
use crate::ra::nway::{fused_rule_join_batch, FusedLevel};
use crate::ra::op::{RaOp, RaPipeline};
use crate::ra::project::filter_batch;
use crate::ra::{anti_join_batch, difference_batch, hash_join_batch, project_batch};
use crate::relation::{RelationStorage, RelationVersion};
use crate::stats::Phase;
use gpulog_device::Device;
use gpulog_hisa::TupleBatch;
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
    /// A serial join body over the gathered intermediate.
    GatheredJoin,
    /// The grouped reduce over the gathered intermediate.
    Reduce,
    /// Per-owner deduplication and difference of a `Diff`.
    Diff,
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

    /// A `Diff` is about to send `relation`'s `new` rows to the shards
    /// owning them by full-row hash.
    fn new_rows_sent_to_owners(&self, relation: RelId, new: &TupleBatch) {
        let _ = (relation, new);
    }

    /// A `Diff` produced `delta`, which every cached shard map on `full`
    /// must now receive.
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

/// The hash-partitioned backend: each relation's HISA is sharded by
/// `hash(join_key) % shards`, and every shardable op runs as one worker-pool
/// epoch of per-shard tasks. Construct with [`ShardedBackend::new`] or let
/// [`crate::EngineBuilder`] install it from
/// [`crate::EngineConfig::with_shard_count`].
#[derive(Debug, Clone, Copy)]
pub struct ShardedBackend {
    /// Non-zero by construction, so the data layer's partitioning calls
    /// are panic-free without re-validating.
    shards: NonZeroUsize,
}

impl ShardedBackend {
    /// Creates a backend evaluating over `shards` hash partitions. One
    /// shard degenerates to the serial evaluation loop.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidShardCount`] if `shards` is zero.
    pub fn new(shards: usize) -> EngineResult<Self> {
        match NonZeroUsize::new(shards) {
            Some(shards) => Ok(Self::with_shards(shards)),
            None => Err(EngineError::InvalidShardCount { shards: 0 }),
        }
    }

    /// A backend over an already-validated shard count.
    pub(super) fn with_shards(shards: NonZeroUsize) -> Self {
        ShardedBackend { shards }
    }

    /// The number of hash partitions this backend evaluates over.
    pub fn shards(&self) -> usize {
        self.shards.get()
    }

    /// The sharded op loop: runs `pipeline` over per-shard parts, reporting
    /// to `obs`, and returns early (like the serial backend) when the
    /// intermediate goes empty.
    pub(super) fn run(
        &self,
        ctx: &mut EvalContext<'_>,
        pipeline: &RaPipeline,
        obs: &dyn ShardObserver,
    ) -> EngineResult<PipelineOutcome> {
        let mut outcome = PipelineOutcome::default();
        let mut parts = vec![TupleBatch::empty(1)];
        for op in &pipeline.ops {
            let consumes_intermediate = !matches!(op, RaOp::Scan { .. } | RaOp::Diff { .. });
            if consumes_intermediate && parts.iter().all(TupleBatch::is_empty) {
                // No downstream op can derive anything from an empty
                // intermediate.
                return Ok(outcome);
            }
            match op {
                RaOp::Scan { step, filters } => {
                    parts = obs.place_scan(scan_op(ctx, step, filters));
                    obs.ran(PartOp::Scan, &parts, &parts);
                }
                RaOp::HashJoin { step, filters } => {
                    parts = if step.outer_key_cols.is_empty() {
                        // Cross product: no key to shard on.
                        gather(ctx, parts, obs, PartOp::GatheredJoin, |ctx, batch| {
                            hash_join_op(ctx, batch, step, filters)
                        })?
                    } else {
                        self.hash_join(ctx, parts, step, filters, obs)?
                    };
                }
                RaOp::FusedJoin { levels, head_proj } => {
                    let shardable = levels
                        .first()
                        .is_some_and(|(level0, _)| !level0.outer_key_cols.is_empty());
                    parts = if shardable {
                        self.fused_join(ctx, parts, levels, head_proj, obs)?
                    } else {
                        gather(ctx, parts, obs, PartOp::GatheredJoin, |ctx, batch| {
                            fused_join_op(ctx, batch, levels, head_proj)
                        })?
                    };
                }
                RaOp::AntiJoin { step } => {
                    // A probe against the negated relation's canonical full
                    // index, which every shard reads whole.
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
                    parts = gather(ctx, parts, obs, PartOp::Reduce, |ctx, batch| {
                        Ok(reduce_op(ctx, batch, *op, *agg_column))
                    })?;
                }
                RaOp::Diff { relation } => {
                    self.diff(ctx, *relation, &mut outcome, obs)?;
                }
            }
        }
        if !pipeline.ops.is_empty() && !matches!(pipeline.ops.last(), Some(RaOp::Diff { .. })) {
            obs.installed(pipeline.head, &parts);
            outcome.derived_rows = parts.iter().map(TupleBatch::len).sum();
            for part in parts.iter().filter(|part| !part.is_empty()) {
                ctx.relations[pipeline.head].push_new_batch(part);
            }
        }
        Ok(outcome)
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

    /// Builds (or refreshes from cache) the shard map a join probes,
    /// reporting a fresh delta-version build.
    fn build_shard_map(
        &self,
        ctx: &mut EvalContext<'_>,
        step: &JoinStep,
        obs: &dyn ShardObserver,
    ) -> EngineResult<()> {
        let (relation, version, key_cols) = (step.relation, step.version, &step.inner_key_cols);
        let fresh = version == VersionSel::Delta
            && ctx
                .shard_map(relation, version, key_cols, self.shards)
                .is_none();
        ctx.build_shard_map(relation, version, key_cols, self.shards)?;
        if fresh {
            let storage = &ctx.relations[relation];
            obs.delta_shard_map_built(storage.delta.tuples_flat(), storage.arity, key_cols);
        }
        Ok(())
    }

    /// [`RaOp::HashJoin`] over the shard map: shard `i` of the re-partitioned
    /// outer probes shard `i` of the inner relation — `S` independent joins
    /// dispatched to the worker pool as a single epoch.
    fn hash_join(
        &self,
        ctx: &mut EvalContext<'_>,
        parts: Vec<TupleBatch>,
        step: &JoinStep,
        filters: &[FilterStep],
        obs: &dyn ShardObserver,
    ) -> EngineResult<Vec<TupleBatch>> {
        let t = Instant::now();
        let index_phase = match step.version {
            VersionSel::Full => Phase::IndexFull,
            VersionSel::Delta => Phase::IndexDelta,
        };
        self.build_shard_map(ctx, step, obs)?;
        ctx.stats.add_phase(index_phase, t.elapsed());

        let t = Instant::now();
        let parts = self.repartition(parts, &step.outer_key_cols, obs);
        let device = ctx.device;
        let inners = ctx
            .shard_map(
                step.relation,
                step.version,
                &step.inner_key_cols,
                self.shards,
            )
            .expect("shard map built above");
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
        obs.ran(PartOp::HashJoin, &parts, &outs);
        ctx.stats.add_phase(Phase::Join, t.elapsed());
        Ok(outs)
    }

    /// [`RaOp::FusedJoin`] with the outer and the first level's inner
    /// partition-aligned on the level-0 key; deeper levels probe their
    /// whole index inside each per-shard fused kernel. One pool epoch of
    /// `S` fused joins.
    fn fused_join(
        &self,
        ctx: &mut EvalContext<'_>,
        parts: Vec<TupleBatch>,
        levels: &[(JoinStep, Vec<FilterStep>)],
        head_proj: &[ColumnSource],
        obs: &dyn ShardObserver,
    ) -> EngineResult<Vec<TupleBatch>> {
        let (level0, _) = &levels[0];
        let t = Instant::now();
        self.build_shard_map(ctx, level0, obs)?;
        for (step, _) in &levels[1..] {
            let storage = &mut ctx.relations[step.relation];
            let version = match step.version {
                VersionSel::Full => storage.full_mut()?,
                VersionSel::Delta => &mut storage.delta,
            };
            version.index_on(ctx.device, &step.inner_key_cols)?;
        }
        ctx.stats.add_phase(Phase::IndexFull, t.elapsed());

        let t = Instant::now();
        let parts = self.repartition(parts, &level0.outer_key_cols, obs);
        let device = ctx.device;
        let relations: &[RelationStorage] = ctx.relations;
        let inners0 = ctx
            .shard_map(
                level0.relation,
                level0.version,
                &level0.inner_key_cols,
                self.shards,
            )
            .expect("shard map built above");
        let outs = fan_out_shards(device, &parts, |shard, part| {
            let fused_levels: Vec<FusedLevel<'_>> = levels
                .iter()
                .enumerate()
                .map(|(depth, (step, step_filters))| {
                    let inner = if depth == 0 {
                        &inners0[shard]
                    } else {
                        let storage = &relations[step.relation];
                        let version = match step.version {
                            VersionSel::Full => storage.full(),
                            VersionSel::Delta => &storage.delta,
                        };
                        version
                            .existing_index(&step.inner_key_cols)
                            .expect("index built above")
                    };
                    FusedLevel {
                        step,
                        inner,
                        filters: step_filters.as_slice(),
                    }
                })
                .collect();
            fused_rule_join_batch(device, part, &fused_levels, head_proj)
        });
        obs.ran(PartOp::FusedJoin, &parts, &outs);
        ctx.stats.add_phase(Phase::Join, t.elapsed());
        Ok(outs)
    }

    /// [`RaOp::Diff`] sharded by the full-tuple hash: per-shard
    /// deduplication and set difference in one pool epoch, then a k-way
    /// merge of the (sorted, pairwise-disjoint) shard results into the
    /// globally sorted delta — byte-identical to the serial difference.
    fn diff(
        &self,
        ctx: &mut EvalContext<'_>,
        relation: RelId,
        outcome: &mut PipelineOutcome,
        obs: &dyn ShardObserver,
    ) -> EngineResult<()> {
        let device = ctx.device;
        let storage = &mut ctx.relations[relation];
        let arity = storage.arity;
        let new = TupleBatch::new(arity, storage.take_new(&ctx.ebm));
        outcome.new_rows = new.len();

        let t = Instant::now();
        obs.new_rows_sent_to_owners(relation, &new);
        let full_key: Vec<usize> = (0..arity).collect();
        let parts = new.partition_by_key_hash(&full_key, self.shards);
        let delta = {
            let full = storage.full().canonical();
            let outs = fan_out_shards(device, &parts, |_, part| {
                difference_batch(device, part, full)
            });
            obs.ran(PartOp::Diff, &parts, &outs);
            TupleBatch::merge_sorted_unique(arity, outs)
        };
        ctx.stats.add_phase(Phase::Deduplication, t.elapsed());
        outcome.delta_rows = delta.len();
        obs.delta_sent_to_shard_maps(&delta, storage.full());

        let t = Instant::now();
        storage.set_delta_batch(&delta)?;
        ctx.stats.add_phase(Phase::IndexDelta, t.elapsed());

        // The canonical full store merges serially (it is the authoritative
        // unsharded tuple array); every cached shard map merges its own
        // delta slice in a parallel epoch inside `merge_delta_into_full`.
        let t = Instant::now();
        let ebm = ctx.ebm;
        storage.merge_delta_into_full(&ebm)?;
        ctx.stats.add_phase(Phase::Merge, t.elapsed());
        Ok(())
    }
}

/// Runs a serial op body over the gathered intermediate, which then lives
/// as one part on shard 0.
fn gather<F>(
    ctx: &mut EvalContext<'_>,
    parts: Vec<TupleBatch>,
    obs: &dyn ShardObserver,
    op: PartOp,
    body: F,
) -> EngineResult<Vec<TupleBatch>>
where
    F: FnOnce(&mut EvalContext<'_>, &TupleBatch) -> EngineResult<TupleBatch>,
{
    obs.gathered(&parts);
    let batch = concat_parts(parts);
    let out = body(ctx, &batch)?;
    obs.ran(op, slice::from_ref(&batch), slice::from_ref(&out));
    Ok(vec![out])
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

impl Backend for ShardedBackend {
    fn name(&self) -> &str {
        "sharded"
    }

    fn execute(
        &self,
        ctx: &mut EvalContext<'_>,
        pipeline: &RaPipeline,
    ) -> EngineResult<PipelineOutcome> {
        if self.shards.get() == 1 {
            // One shard is exactly the serial evaluation loop; skip the
            // partition/merge machinery.
            return serial::SerialBackend.execute(ctx, pipeline);
        }
        self.run(ctx, pipeline, &Unobserved)
    }
}

#[cfg(test)]
mod tests {
    use super::serial::SerialBackend;
    use super::*;
    use crate::ebm::EbmConfig;
    use crate::planner::{EmitSource, ScanStep};
    use crate::stats::RunStats;
    use gpulog_device::profile::DeviceProfile;
    use gpulog_device::Device;
    use gpulog_hisa::DEFAULT_LOAD_FACTOR;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    fn join_pipeline() -> RaPipeline {
        RaPipeline {
            head: 2,
            ops: vec![
                RaOp::Scan {
                    step: ScanStep {
                        relation: 0,
                        version: VersionSel::Full,
                        const_filters: vec![],
                        eq_filters: vec![],
                        keep_cols: vec![0, 1],
                    },
                    filters: vec![],
                },
                RaOp::HashJoin {
                    step: JoinStep {
                        relation: 1,
                        version: VersionSel::Full,
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
                },
                RaOp::Project {
                    columns: vec![ColumnSource::Col(0), ColumnSource::Col(2)],
                },
            ],
            text: "H(x, z) :- A(x, y), B(y, z).".into(),
        }
    }

    fn storages(d: &Device) -> Vec<RelationStorage> {
        let mut relations = vec![
            RelationStorage::new(d, "A", 2, DEFAULT_LOAD_FACTOR).unwrap(),
            RelationStorage::new(d, "B", 2, DEFAULT_LOAD_FACTOR).unwrap(),
            RelationStorage::new(d, "H", 2, DEFAULT_LOAD_FACTOR).unwrap(),
        ];
        let a: Vec<u32> = (0..60u32).flat_map(|i| [i, i % 11]).collect();
        let b: Vec<u32> = (0..40u32).flat_map(|i| [i % 11, i * 3]).collect();
        relations[0].load_full(&a).unwrap();
        relations[1].load_full(&b).unwrap();
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
        SerialBackend.execute(&mut ctx, &join_pipeline()).unwrap();
        let mut expected = serial_rels[2].take_new(&EbmConfig::default());
        sort_rows(&mut expected, 2);

        for shards in [1usize, 2, 3, 7] {
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
        let run = |backend: &dyn Backend| {
            let mut rels = vec![RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()];
            rels[0].load_full(&[1, 1, 5, 5, 36, 12]).unwrap();
            rels[0].push_new(&new_rows);
            let mut stats = RunStats::default();
            let mut ctx = EvalContext {
                device: &d,
                relations: &mut rels,
                stats: &mut stats,
                ebm: EbmConfig::default(),
            };
            let outcome = backend.execute(&mut ctx, &RaPipeline::diff(0)).unwrap();
            (
                outcome,
                rels[0].delta.tuples_flat().to_vec(),
                rels[0].full().tuples_flat().to_vec(),
            )
        };
        let serial = run(&SerialBackend);
        for shards in [2usize, 3, 7] {
            let sharded = run(&ShardedBackend::new(shards).unwrap());
            assert_eq!(sharded, serial, "shards = {shards}");
        }
    }

    /// Records each `ran` report's op and part count; optionally splits
    /// scans by full-row hash, as the topology model does.
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

    fn sort_rows(flat: &mut [u32], arity: usize) {
        let mut rows: Vec<Vec<u32>> = flat.chunks_exact(arity).map(<[u32]>::to_vec).collect();
        rows.sort();
        for (chunk, row) in flat.chunks_exact_mut(arity).zip(rows) {
            chunk.copy_from_slice(&row);
        }
    }
}
