//! The iteration-overlapping backend: sharded execution with the
//! per-iteration merge barrier broken.
//!
//! [`PipelinedBackend`] wraps the sharded execution path but does not fence
//! the end of every iteration. Each relation's delta runs are
//! double-buffered: a [`crate::ra::op::RaOp::Diff`] installs the next delta
//! immediately (so iteration N+1's join probes can start) but defers the
//! O(|full|) merge passes, parking the sorted-unique delta in a per-relation
//! `pending` buffer. Once [`MERGE_BATCH`] runs accumulate — more when the
//! pending rows are still tiny relative to |full|, see [`ADAPTIVE_RATIO`] —
//! the full version is moved onto the device's background lane
//! ([`gpulog_device::Device::submit_background`]) and all pending runs are
//! merged in a single coalesced pass
//! ([`crate::relation::RelationVersion::merge_sorted_unique_runs`]) while
//! the foreground evaluates the next iteration's joins. Coalescing pays the
//! full-relation sorted-index and inverse-permutation streaming passes once
//! per drain instead of once per delta, and the lane hides the drain behind
//! compute — the two wins the chain-REACH bench smoke measures.
//!
//! Correctness hinges on one readiness rule: any op that reads a relation's
//! **full** version first *settles* that relation (drains the in-flight
//! merge and folds the pending runs in), so no join ever probes a lagging
//! full. Diff itself tolerates the lag — it deduplicates against the lagging
//! full and then subtracts each pending run, which is set-equal (and, both
//! operands being sorted-unique, byte-equal) to deduplicating against the
//! fully-merged full. The engine calls [`Backend::fence`] wherever it reads
//! storage directly, which settles every relation; fixpoints are therefore
//! byte-identical to the bulk-synchronous [`ShardedBackend`]'s.

use super::{Backend, EvalContext, PipelineOutcome, ShardedBackend};
use crate::error::EngineResult;
use crate::planner::{RelId, VersionSel};
use crate::ra::difference_batch;
use crate::ra::op::{RaOp, RaPipeline};
use crate::relation::RelationVersion;
use crate::stats::Phase;
use gpulog_device::JobHandle;
use gpulog_hisa::TupleBatch;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// How many deferred delta runs trigger a background merge. Two runs per
/// drain halves the number of O(|full|) merge passes while keeping at most
/// one iteration's delta un-probed-against-full at any time.
const MERGE_BATCH: usize = 2;

/// Upper bound on deferred runs when the adaptive policy keeps batching.
/// Diff subtracts every pending run on the foreground path, so unbounded
/// deferral would trade O(|full|) merge passes for O(runs · |delta|)
/// subtractions.
const MAX_MERGE_BATCH: usize = 8;

/// The adaptive threshold: keep deferring while the pending rows are more
/// than this factor smaller than |full|. Each drain streams the whole full
/// version, so a drain is only worth its cost once the pending payload is a
/// meaningful fraction of it.
const ADAPTIVE_RATIO: usize = 8;

/// Deferred merge state for one relation.
struct RelState {
    /// Sorted-unique delta runs not yet merged into full. Pairwise disjoint
    /// and disjoint from the stored full, in iteration order.
    pending: Vec<TupleBatch>,
    /// The full version, moved onto the background lane mid-merge. While
    /// this is `Some`, the relation's stored full is an empty placeholder
    /// and must not be read — every read path settles first.
    inflight: Option<JobHandle<EngineResult<RelationVersion>>>,
}

impl RelState {
    fn is_settled(&self) -> bool {
        self.pending.is_empty() && self.inflight.is_none()
    }
}

/// The iteration-overlapping backend (see the module docs for the
/// double-buffer protocol). Joins and delta population delegate to an inner
/// [`ShardedBackend`]; only the diff/merge path is pipelined.
pub struct PipelinedBackend {
    inner: ShardedBackend,
    state: Mutex<HashMap<RelId, RelState>>,
}

impl fmt::Debug for PipelinedBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelinedBackend")
            .field("shards", &self.inner.shards())
            .finish()
    }
}

impl PipelinedBackend {
    /// Creates a backend evaluating over `shards` hash partitions with
    /// iteration overlap. One shard pipelines the single-device loop.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EngineError::InvalidShardCount`] when `shards == 0`.
    pub fn new(shards: usize) -> EngineResult<Self> {
        Ok(PipelinedBackend {
            inner: ShardedBackend::new(shards)?,
            state: Mutex::new(HashMap::new()),
        })
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.inner.shards()
    }

    fn state_map(&self) -> MutexGuard<'_, HashMap<RelId, RelState>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn take_state(&self, relation: RelId) -> RelState {
        self.state_map().remove(&relation).unwrap_or(RelState {
            pending: Vec::new(),
            inflight: None,
        })
    }

    fn put_state(&self, relation: RelId, state: RelState) {
        if !state.is_settled() {
            self.state_map().insert(relation, state);
        }
    }

    /// Joins the relation's in-flight background merge, if any, restoring
    /// the merged full version into storage. Attributes the job's whole
    /// outstanding window (submission to drain start) to `overlap_nanos`
    /// and only the blocking remainder to `pipeline_stall_nanos`.
    fn drain_inflight(
        state: &mut RelState,
        ctx: &mut EvalContext<'_>,
        relation: RelId,
    ) -> EngineResult<()> {
        let Some(handle) = state.inflight.take() else {
            return Ok(());
        };
        let metrics = ctx.device.metrics();
        let drain_begin = Instant::now();
        let outstanding = drain_begin.duration_since(handle.submitted_at());
        metrics.add_overlap_nanos(outstanding.as_nanos() as u64);
        let full = handle.wait()?;
        let stall = drain_begin.elapsed();
        metrics.add_pipeline_stall_nanos(stall.as_nanos() as u64);
        ctx.stats.add_phase(Phase::Merge, stall);
        ctx.relations[relation].install_full(full);
        Ok(())
    }

    /// Brings one relation's stored full up to date: drains the in-flight
    /// merge and synchronously folds in any remaining pending runs. After
    /// this, the relation's storage is exactly what a bulk-synchronous
    /// backend would hold.
    fn settle(&self, ctx: &mut EvalContext<'_>, relation: RelId) -> EngineResult<()> {
        let mut state = self.take_state(relation);
        Self::drain_inflight(&mut state, ctx, relation)?;
        if !state.pending.is_empty() {
            let runs = std::mem::take(&mut state.pending);
            let device = ctx.device;
            let ebm = ctx.ebm;
            let t = Instant::now();
            ctx.relations[relation]
                .full_mut()?
                .merge_sorted_unique_runs(device, &runs, &ebm)?;
            ctx.stats.add_phase(Phase::Merge, t.elapsed());
        }
        debug_assert!(state.is_settled());
        Ok(())
    }

    /// The relations whose **full** version this pipeline reads — each must
    /// be settled before the pipeline runs on the inner backend.
    fn full_reads(pipeline: &RaPipeline) -> Vec<RelId> {
        let mut rels = Vec::new();
        for op in &pipeline.ops {
            match op {
                RaOp::Scan { step, .. } => {
                    if step.version == VersionSel::Full {
                        rels.push(step.relation);
                    }
                }
                RaOp::HashJoin { step, .. } => {
                    if step.version == VersionSel::Full {
                        rels.push(step.relation);
                    }
                }
                RaOp::FusedJoin { levels, .. } => {
                    for (step, _) in levels {
                        if step.version == VersionSel::Full {
                            rels.push(step.relation);
                        }
                    }
                }
                // The anti-join probes the negated relation's full version,
                // which stratification promises is complete — but "complete"
                // includes any merge this backend deferred, so settle it.
                RaOp::AntiJoin { step } => rels.push(step.relation),
                RaOp::Project { .. } | RaOp::Reduce { .. } => {}
                // A diff embedded in a larger pipeline (the engine never
                // builds one, but the trait allows it) runs eagerly on the
                // inner backend, so its relation must be settled too.
                RaOp::Diff { relation } => rels.push(*relation),
            }
        }
        rels.sort_unstable();
        rels.dedup();
        rels
    }

    /// The pipelined [`RaOp::Diff`]: installs the next delta immediately
    /// but defers the full merge (see the module docs).
    fn pipelined_diff(
        &self,
        ctx: &mut EvalContext<'_>,
        relation: RelId,
        outcome: &mut PipelineOutcome,
    ) -> EngineResult<()> {
        let mut state = self.take_state(relation);
        // The stored full is a placeholder while a merge is in flight, so
        // the diff below must join it first. The pending runs submitted
        // with it travel inside the job; only runs deferred *after* the
        // submission remain in `state.pending`.
        Self::drain_inflight(&mut state, ctx, relation)?;

        let device = ctx.device;
        let ebm = ctx.ebm;
        let storage = &mut ctx.relations[relation];
        let arity = storage.arity;
        let new = TupleBatch::new(arity, storage.take_new(&ebm));
        outcome.new_rows = new.len();

        // Deduplicate against the (possibly lagging) full, then subtract
        // each pending run: together that is exactly "minus the serial
        // full", since serial full = stored full ∪ pending runs.
        let t = Instant::now();
        let mut delta = difference_batch(device, &new, storage.full().canonical());
        for run in &state.pending {
            if delta.is_empty() {
                break;
            }
            delta = delta.subtract_sorted_unique(run);
        }
        ctx.stats.add_phase(Phase::Deduplication, t.elapsed());
        outcome.delta_rows = delta.len();

        let t = Instant::now();
        storage.set_delta_batch(&delta)?;
        ctx.stats.add_phase(Phase::IndexDelta, t.elapsed());

        if !delta.is_empty() {
            state.pending.push(delta);
        }

        if state.pending.len() >= MERGE_BATCH {
            // Adaptive batching: when the pending payload is still tiny
            // relative to |full|, a drain would stream the whole full
            // version to fold in almost nothing — keep deferring (up to
            // MAX_MERGE_BATCH runs) until the batch is worth the pass.
            let pending_rows: usize = state.pending.iter().map(TupleBatch::len).sum();
            let full_rows = storage.full().len();
            if state.pending.len() < MAX_MERGE_BATCH
                && pending_rows.saturating_mul(ADAPTIVE_RATIO) < full_rows
            {
                device.metrics().add_adaptive_merge_batch();
            } else {
                let runs = std::mem::take(&mut state.pending);
                let mut full = storage.take_full()?;
                let lane_device = device.clone();
                state.inflight = Some(device.submit_background(move || {
                    full.merge_sorted_unique_runs(&lane_device, &runs, &ebm)
                        .map(|()| full)
                }));
            }
        }

        self.put_state(relation, state);
        Ok(())
    }
}

impl Backend for PipelinedBackend {
    fn name(&self) -> &str {
        "pipelined"
    }

    fn execute(
        &self,
        ctx: &mut EvalContext<'_>,
        pipeline: &RaPipeline,
    ) -> EngineResult<PipelineOutcome> {
        if let [RaOp::Diff { relation }] = pipeline.ops.as_slice() {
            let mut outcome = PipelineOutcome::default();
            self.pipelined_diff(ctx, *relation, &mut outcome)?;
            return Ok(outcome);
        }
        for relation in Self::full_reads(pipeline) {
            self.settle(ctx, relation)?;
        }
        self.inner.execute(ctx, pipeline)
    }

    fn fence(&self, ctx: &mut EvalContext<'_>) -> EngineResult<()> {
        let mut relations: Vec<RelId> = self.state_map().keys().copied().collect();
        relations.sort_unstable();
        for relation in relations {
            self.settle(ctx, relation)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ebm::EbmConfig;
    use crate::error::EngineError;
    use crate::planner::ScanStep;
    use crate::relation::RelationStorage;
    use crate::stats::RunStats;
    use gpulog_device::profile::DeviceProfile;
    use gpulog_device::Device;
    use gpulog_hisa::DEFAULT_LOAD_FACTOR;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    fn storage(d: &Device) -> Vec<RelationStorage> {
        vec![RelationStorage::new(d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()]
    }

    /// Runs the same sequence of `new` rounds through a one-shard
    /// bulk-synchronous diff and a pipelined one, comparing the installed
    /// delta after every round and the fenced full at the end, byte for
    /// byte.
    fn assert_rounds_byte_identical(rounds: &[&[u32]]) {
        let d = device();
        let mut serial_rels = storage(&d);
        let mut pipe_rels = storage(&d);
        // Maintain a secondary index so the deferred merge path covers it.
        serial_rels[0]
            .full_mut()
            .unwrap()
            .index_on(&d, &[1])
            .unwrap();
        pipe_rels[0].full_mut().unwrap().index_on(&d, &[1]).unwrap();
        let serial = ShardedBackend::new(1).unwrap();
        let pipelined = PipelinedBackend::new(2).unwrap();
        let mut serial_stats = RunStats::default();
        let mut pipe_stats = RunStats::default();

        for (round, new) in rounds.iter().enumerate() {
            serial_rels[0].push_new(new);
            pipe_rels[0].push_new(new);
            let mut sctx = EvalContext {
                device: &d,
                relations: &mut serial_rels,
                stats: &mut serial_stats,
                ebm: EbmConfig::default(),
            };
            let s = serial.execute(&mut sctx, &RaPipeline::diff(0)).unwrap();
            let mut pctx = EvalContext {
                device: &d,
                relations: &mut pipe_rels,
                stats: &mut pipe_stats,
                ebm: EbmConfig::default(),
            };
            let p = pipelined.execute(&mut pctx, &RaPipeline::diff(0)).unwrap();
            assert_eq!(s, p, "outcome mismatch in round {round}");
            assert_eq!(
                serial_rels[0].delta.tuples_flat(),
                pipe_rels[0].delta.tuples_flat(),
                "delta mismatch in round {round}"
            );
        }

        let mut pctx = EvalContext {
            device: &d,
            relations: &mut pipe_rels,
            stats: &mut pipe_stats,
            ebm: EbmConfig::default(),
        };
        pipelined.fence(&mut pctx).unwrap();
        assert!(
            pipelined.state_map().is_empty(),
            "fence left deferred state"
        );
        assert_eq!(
            serial_rels[0].full().tuples_flat(),
            pipe_rels[0].full().tuples_flat()
        );
        assert_eq!(
            serial_rels[0].full().canonical().sorted_index(),
            pipe_rels[0].full().canonical().sorted_index()
        );
        let serial_secondary = serial_rels[0].full().existing_index(&[1]).unwrap();
        let pipe_secondary = pipe_rels[0].full().existing_index(&[1]).unwrap();
        assert_eq!(serial_secondary.data(), pipe_secondary.data());
        assert_eq!(
            serial_secondary.sorted_index(),
            pipe_secondary.sorted_index()
        );
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
        let mut rels = storage(&d);
        let pipelined = PipelinedBackend::new(2).unwrap();
        let mut stats = RunStats::default();
        // Two diff rounds leave a merge in flight (full swapped for an
        // empty placeholder until drained).
        for new in [&[1u32, 2, 3, 4][..], &[5, 6][..]] {
            rels[0].push_new(new);
            let mut ctx = EvalContext {
                device: &d,
                relations: &mut rels,
                stats: &mut stats,
                ebm: EbmConfig::default(),
            };
            pipelined.execute(&mut ctx, &RaPipeline::diff(0)).unwrap();
        }
        assert!(!pipelined.state_map().is_empty());
        let scan = RaPipeline {
            head: 0,
            ops: vec![RaOp::Scan {
                step: ScanStep {
                    relation: 0,
                    version: VersionSel::Full,
                    const_filters: vec![],
                    eq_filters: vec![],
                    keep_cols: vec![0, 1],
                },
                filters: vec![],
            }],
            text: "scan".into(),
        };
        let mut ctx = EvalContext {
            device: &d,
            relations: &mut rels,
            stats: &mut stats,
            ebm: EbmConfig::default(),
        };
        let outcome = pipelined.execute(&mut ctx, &scan).unwrap();
        assert_eq!(outcome.derived_rows, 3, "scan must see the settled full");
        assert_eq!(rels[0].len(), 3);
        assert!(d.metrics().snapshot().overlap_nanos > 0);
        assert_eq!(d.metrics().snapshot().epochs_in_flight, 0);
    }

    #[test]
    fn zero_shards_are_rejected() {
        match PipelinedBackend::new(0) {
            Err(EngineError::InvalidShardCount { shards: 0 }) => {}
            other => panic!("expected InvalidShardCount, got {other:?}"),
        }
    }
}
