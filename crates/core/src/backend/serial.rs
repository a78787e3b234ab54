//! The single-device, operator-at-a-time backend, plus the per-op execution
//! bodies shared with [`crate::backend::ShardedBackend`] (which runs the
//! scan through them, and the ops with no shardable key over its gathered
//! intermediate).

use super::{Backend, EvalContext, PipelineOutcome};
use crate::error::EngineResult;
use crate::planner::{ColumnSource, FilterStep, JoinStep, ScanStep, VersionSel};
use crate::ra::nway::{fused_rule_join_batch, FusedLevel};
use crate::ra::op::{RaOp, RaPipeline};
use crate::ra::project::{batch_from_flat, filter_batch, scan_select};
use crate::ra::{
    anti_join_batch, difference_batch, group_reduce_batch, hash_join_batch, project_batch,
};
use crate::stats::Phase;
use gpulog_hisa::TupleBatch;
use std::time::Instant;

/// The single-device, operator-at-a-time backend — the paper's evaluation
/// loop, with each op materializing its output batch before the next op
/// runs (temporarily-materialized execution).
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialBackend;

impl Backend for SerialBackend {
    fn name(&self) -> &str {
        "serial"
    }

    fn execute(
        &self,
        ctx: &mut EvalContext<'_>,
        pipeline: &RaPipeline,
    ) -> EngineResult<PipelineOutcome> {
        let mut outcome = PipelineOutcome::default();
        // The intermediate batch flowing between operators: empty until the
        // scan runs, then each op's output. Every consuming op ends the
        // pipeline early when its input arrives empty — no downstream op
        // can derive anything from an empty intermediate.
        let mut batch = TupleBatch::empty(1);
        for op in &pipeline.ops {
            match op {
                RaOp::Scan { step, filters } => {
                    batch = scan_op(ctx, step, filters);
                }
                RaOp::HashJoin { step, filters } => {
                    if batch.is_empty() {
                        return Ok(outcome);
                    }
                    batch = hash_join_op(ctx, &batch, step, filters)?;
                }
                RaOp::FusedJoin { levels, head_proj } => {
                    if batch.is_empty() {
                        return Ok(outcome);
                    }
                    batch = fused_join_op(ctx, &batch, levels, head_proj)?;
                }
                RaOp::AntiJoin { step } => {
                    if batch.is_empty() {
                        return Ok(outcome);
                    }
                    batch = anti_join_op(ctx, &batch, step);
                }
                RaOp::Project { columns } => {
                    if batch.is_empty() {
                        return Ok(outcome);
                    }
                    batch = project_op(ctx, &batch, columns);
                }
                RaOp::Reduce { op, agg_column } => {
                    if batch.is_empty() {
                        return Ok(outcome);
                    }
                    batch = reduce_op(ctx, &batch, *op, *agg_column);
                }
                RaOp::Diff { relation } => {
                    diff_op(ctx, *relation, &mut outcome)?;
                }
            }
        }
        install_derived(ctx, pipeline, &batch, &mut outcome);
        Ok(outcome)
    }
}

/// Executes a [`RaOp::Scan`]: select from the relation version, apply the
/// atom-local filters, and keep the plan's columns. An empty source yields
/// an empty batch without launching kernels.
pub(super) fn scan_op(
    ctx: &mut EvalContext<'_>,
    step: &ScanStep,
    filters: &[FilterStep],
) -> TupleBatch {
    let t = Instant::now();
    let storage = &ctx.relations[step.relation];
    let source = match step.version {
        VersionSel::Full => storage.full(),
        VersionSel::Delta => &storage.delta,
    };
    let batch = if source.is_empty() {
        TupleBatch::empty(1)
    } else {
        let scanned = scan_select(
            ctx.device,
            source.tuples_flat(),
            storage.arity,
            &step.const_filters,
            &step.eq_filters,
            &step.keep_cols,
        );
        let mut batch = batch_from_flat(step.keep_cols.len(), scanned);
        if !filters.is_empty() {
            batch = filter_batch(ctx.device, &batch, filters);
        }
        batch
    };
    ctx.stats.add_phase(Phase::Join, t.elapsed());
    batch
}

/// Executes a [`RaOp::HashJoin`] against the whole (unsharded) inner index:
/// build or fetch the index, probe it with the outer batch, and apply the
/// post-join filters.
pub(super) fn hash_join_op(
    ctx: &mut EvalContext<'_>,
    batch: &TupleBatch,
    step: &JoinStep,
    filters: &[FilterStep],
) -> EngineResult<TupleBatch> {
    // Build or fetch the inner index.
    let t = Instant::now();
    let index_phase = match step.version {
        VersionSel::Full => Phase::IndexFull,
        VersionSel::Delta => Phase::IndexDelta,
    };
    {
        let storage = &mut ctx.relations[step.relation];
        let version = match step.version {
            VersionSel::Full => storage.full_mut()?,
            VersionSel::Delta => &mut storage.delta,
        };
        version.index_on(ctx.device, &step.inner_key_cols)?;
    }
    ctx.stats.add_phase(index_phase, t.elapsed());

    let t = Instant::now();
    let storage = &ctx.relations[step.relation];
    let version = match step.version {
        VersionSel::Full => storage.full(),
        VersionSel::Delta => &storage.delta,
    };
    let inner = version
        .existing_index(&step.inner_key_cols)
        .expect("index built above");
    let mut joined = hash_join_batch(
        ctx.device,
        batch,
        &step.outer_key_cols,
        inner,
        &step.inner_const_filters,
        &step.inner_eq_filters,
        &step.emit,
    );
    if !filters.is_empty() {
        joined = filter_batch(ctx.device, &joined, filters);
    }
    ctx.stats.add_phase(Phase::Join, t.elapsed());
    Ok(joined)
}

/// Executes a [`RaOp::FusedJoin`] with every level probing its whole
/// (unsharded) inner index: pre-build the level indices, then run the fused
/// nested-loop kernel.
pub(super) fn fused_join_op(
    ctx: &mut EvalContext<'_>,
    batch: &TupleBatch,
    levels: &[(JoinStep, Vec<FilterStep>)],
    head_proj: &[ColumnSource],
) -> EngineResult<TupleBatch> {
    // Pre-build every level's index, then run the fused kernel.
    let t = Instant::now();
    for (step, _) in levels {
        let storage = &mut ctx.relations[step.relation];
        let version = match step.version {
            VersionSel::Full => storage.full_mut()?,
            VersionSel::Delta => &mut storage.delta,
        };
        version.index_on(ctx.device, &step.inner_key_cols)?;
    }
    ctx.stats.add_phase(Phase::IndexFull, t.elapsed());

    let t = Instant::now();
    let fused_levels: Vec<FusedLevel<'_>> = levels
        .iter()
        .map(|(step, filters)| {
            let storage = &ctx.relations[step.relation];
            let version = match step.version {
                VersionSel::Full => storage.full(),
                VersionSel::Delta => &storage.delta,
            };
            FusedLevel {
                step,
                inner: version
                    .existing_index(&step.inner_key_cols)
                    .expect("index built above"),
                filters: filters.as_slice(),
            }
        })
        .collect();
    let joined = fused_rule_join_batch(ctx.device, batch, &fused_levels, head_proj);
    ctx.stats.add_phase(Phase::Join, t.elapsed());
    Ok(joined)
}

/// Executes a [`RaOp::AntiJoin`]: drop intermediate rows whose probe tuple
/// is present in the negated relation's `full` version. Stratification
/// guarantees that version is complete before this pipeline runs, so the
/// canonical (unsharded) index is always the right thing to probe.
pub(super) fn anti_join_op(
    ctx: &mut EvalContext<'_>,
    batch: &TupleBatch,
    step: &crate::planner::AntiJoinStep,
) -> TupleBatch {
    let t = Instant::now();
    let existing = ctx.relations[step.relation].full().canonical();
    let filtered = anti_join_batch(ctx.device, batch, &step.probe, existing);
    ctx.stats.add_phase(Phase::Join, t.elapsed());
    filtered
}

/// Executes a [`RaOp::Project`] onto the head columns.
pub(super) fn project_op(
    ctx: &mut EvalContext<'_>,
    batch: &TupleBatch,
    columns: &[ColumnSource],
) -> TupleBatch {
    let t = Instant::now();
    let projected = project_batch(ctx.device, batch, columns);
    ctx.stats.add_phase(Phase::Join, t.elapsed());
    projected
}

/// Executes a [`RaOp::Reduce`]: grouped reduction of the head-shaped batch.
/// Must see the rule's *entire* output — the sharded backend gathers its
/// parts before delegating here.
pub(super) fn reduce_op(
    ctx: &mut EvalContext<'_>,
    batch: &TupleBatch,
    op: crate::ast::AggregateOp,
    agg_column: usize,
) -> TupleBatch {
    let t = Instant::now();
    let reduced = group_reduce_batch(ctx.device, batch, agg_column, op);
    ctx.stats.add_phase(Phase::Deduplication, t.elapsed());
    reduced
}

/// Executes a [`RaOp::Diff`] serially: deduplicate the relation's `new`
/// buffer against full in one pass, install the result as the next delta,
/// and merge it into full.
pub(super) fn diff_op(
    ctx: &mut EvalContext<'_>,
    relation: usize,
    outcome: &mut PipelineOutcome,
) -> EngineResult<()> {
    let storage = &mut ctx.relations[relation];
    let arity = storage.arity;
    let new = TupleBatch::new(arity, storage.take_new(&ctx.ebm));
    outcome.new_rows = new.len();

    let t = Instant::now();
    let delta = difference_batch(ctx.device, &new, storage.full().canonical());
    ctx.stats.add_phase(Phase::Deduplication, t.elapsed());
    outcome.delta_rows = delta.len();

    // `difference_batch` flags its output sorted-unique, so the delta HISA
    // build skips its sort/dedup passes.
    let t = Instant::now();
    storage.set_delta_batch(&delta)?;
    ctx.stats.add_phase(Phase::IndexDelta, t.elapsed());

    let t = Instant::now();
    let ebm = ctx.ebm;
    storage.merge_delta_into_full(&ebm)?;
    ctx.stats.add_phase(Phase::Merge, t.elapsed());
    Ok(())
}

/// Appends a rule pipeline's final batch to the head relation's `new`
/// buffer (diff pipelines install their results themselves).
pub(super) fn install_derived(
    ctx: &mut EvalContext<'_>,
    pipeline: &RaPipeline,
    batch: &TupleBatch,
    outcome: &mut PipelineOutcome,
) {
    if !pipeline.ops.is_empty() && !matches!(pipeline.ops.last(), Some(RaOp::Diff { .. })) {
        outcome.derived_rows = batch.len();
        if !batch.is_empty() {
            ctx.relations[pipeline.head].push_new_batch(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ebm::EbmConfig;
    use crate::planner::{ColumnSource, ScanStep};
    use crate::relation::RelationStorage;
    use crate::stats::RunStats;
    use gpulog_device::profile::DeviceProfile;
    use gpulog_device::Device;
    use gpulog_hisa::DEFAULT_LOAD_FACTOR;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    #[test]
    fn scan_project_pipeline_derives_into_the_head_buffer() {
        let d = device();
        let mut relations = vec![
            RelationStorage::new(&d, "E", 2, DEFAULT_LOAD_FACTOR).unwrap(),
            RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap(),
        ];
        relations[0].load_full(&[1, 2, 3, 4]).unwrap();
        let pipeline = RaPipeline {
            head: 1,
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
        let outcome = SerialBackend.execute(&mut ctx, &pipeline).unwrap();
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
        relations[0].load_full(&[1, 2]).unwrap();
        relations[0].push_new(&[1, 2, 3, 4, 3, 4, 5, 6]);
        let mut stats = RunStats::default();
        let mut ctx = EvalContext {
            device: &d,
            relations: &mut relations,
            stats: &mut stats,
            ebm: EbmConfig::default(),
        };
        let outcome = SerialBackend
            .execute(&mut ctx, &RaPipeline::diff(0))
            .unwrap();
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
        let outcome = SerialBackend.execute(&mut ctx, &pipeline).unwrap();
        assert_eq!(outcome, PipelineOutcome::default());
    }
}
