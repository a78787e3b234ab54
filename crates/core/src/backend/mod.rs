//! Pluggable evaluation backends.
//!
//! The engine never runs relational-algebra kernels itself: it lowers every
//! rule plan into an [`RaPipeline`] (see [`crate::planner::lower_rule_plan`])
//! and hands the pipeline to a [`Backend`] together with an [`EvalContext`]
//! — the device, the relation storages, and the statistics sink. There is
//! one op loop, parameterised by the shard count `S`, behind three backend
//! types:
//!
//! * [`ShardedBackend`] hash-partitions relations by their join keys and
//!   fans each join / delta-population op out as `S` independent per-shard
//!   tasks dispatched to the persistent worker pool in a single epoch. At
//!   `S = 1` — the default engine — the same loop runs one part with no
//!   partition pass and no k-way merge, exactly reproducing the paper's
//!   single-GPU evaluation loop. It reports placement, data movement and
//!   per-shard kernels to an internal observer that does nothing by
//!   default.
//! * [`MultiGpuBackend`] is that loop with a topology cost model
//!   as its observer: shard `i` is pinned to device `i` of a simulated
//!   [`gpulog_device::topology::DeviceTopology`], the kernels the loop ran
//!   are charged to that device's counters, and rows that cross devices
//!   (join re-partitions, gathers, the end-of-iteration delta exchange)
//!   are charged to the topology's link model — producing per-device
//!   modeled time, cross-device exchange bytes, and a modeled critical
//!   path (surfaced through [`Backend::topology_report`]).
//! * [`PipelinedBackend`] wraps the sharded backend but breaks the
//!   per-iteration merge barrier: deltas install immediately while the
//!   O(|full|) merge passes coalesce and drain on the device's background
//!   lane, overlapping with the next iteration's joins. The engine's only
//!   concession is [`Backend::fence`], called wherever it reads relation
//!   storage directly.
//!
//! Every backend computes fixpoints byte-identical to the one-shard loop's.

use crate::ebm::EbmConfig;
use crate::error::EngineResult;
use crate::planner::{RelId, VersionSel};
use crate::ra::op::RaPipeline;
use crate::relation::RelationStorage;
use crate::stats::RunStats;
use gpulog_device::topology::TopologyReport;
use gpulog_device::Device;
use gpulog_hisa::Hisa;
use std::fmt;
use std::num::NonZeroUsize;

mod multigpu;
mod pipelined;
mod sharded;

pub use multigpu::MultiGpuBackend;
pub use pipelined::PipelinedBackend;
pub use sharded::ShardedBackend;

/// Everything a backend needs to execute one pipeline: the device to launch
/// kernels on, the relation storages to read and write, the statistics sink
/// the paper's Figure 6 phase buckets are timed into, and the
/// eager-buffer-management policy governing allocations.
#[derive(Debug)]
pub struct EvalContext<'a> {
    /// The (simulated) device kernels run on.
    pub device: &'a Device,
    /// All relation storages, indexed by [`crate::planner::RelId`].
    pub relations: &'a mut [RelationStorage],
    /// Phase-bucketed timing sink.
    pub stats: &'a mut RunStats,
    /// Eager-buffer-management policy for delta population and merges.
    pub ebm: EbmConfig,
}

impl EvalContext<'_> {
    /// Builds (or refreshes from cache) the shard map of one relation
    /// version: `shards` HISAs over `key_cols`, where shard `i` holds
    /// exactly the tuples whose key values hash to `i` (see
    /// [`gpulog_hisa::shard_of`]). The map is cached on the relation's
    /// storage and kept consistent across delta merges, so a fixpoint run
    /// pays the full build once and per-shard merges afterwards. A 1-way
    /// map is the version's own index on `key_cols`.
    ///
    /// # Errors
    ///
    /// Returns a device error if building any shard exhausts device memory.
    pub fn build_shard_map(
        &mut self,
        relation: RelId,
        version: VersionSel,
        key_cols: &[usize],
        shards: NonZeroUsize,
    ) -> EngineResult<()> {
        let storage = &mut self.relations[relation];
        let version = match version {
            VersionSel::Full => storage.full_mut()?,
            VersionSel::Delta => &mut storage.delta,
        };
        version
            .sharded_index_on(self.device, key_cols, shards)
            .map(|_| ())
    }

    /// The already-built shard map of one relation version (see
    /// [`EvalContext::build_shard_map`]), or `None` if it has not been
    /// built.
    pub fn shard_map(
        &self,
        relation: RelId,
        version: VersionSel,
        key_cols: &[usize],
        shards: NonZeroUsize,
    ) -> Option<&[Hisa]> {
        let storage = &self.relations[relation];
        let version = match version {
            VersionSel::Full => storage.full(),
            VersionSel::Delta => &storage.delta,
        };
        version.existing_sharded_index(key_cols, shards)
    }
}

/// What executing one pipeline produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineOutcome {
    /// Head tuples appended to the head relation's `new` buffer (rule
    /// pipelines).
    pub derived_rows: usize,
    /// Raw `new` rows consumed (diff pipelines).
    pub new_rows: usize,
    /// Delta rows installed and merged into full (diff pipelines).
    pub delta_rows: usize,
}

/// A rule-evaluation backend: executes lowered [`RaPipeline`]s against an
/// [`EvalContext`].
///
/// Implementations must preserve the engine's semantics — a pipeline's head
/// tuples go to the head relation's `new` buffer, and a
/// [`crate::ra::op::RaOp::Diff`] pipeline installs and merges the
/// relation's next delta — but are free to choose *how*: serially on one
/// device, sharded across worker groups, or overlapped across iterations.
pub trait Backend: fmt::Debug + Send {
    /// A short human-readable backend name (for diagnostics).
    fn name(&self) -> &str;

    /// Executes one operator pipeline to completion.
    ///
    /// # Errors
    ///
    /// Returns device errors (including out-of-memory) raised while
    /// building indices or materializing intermediates.
    fn execute(
        &self,
        ctx: &mut EvalContext<'_>,
        pipeline: &RaPipeline,
    ) -> EngineResult<PipelineOutcome>;

    /// The cumulative multi-device modeling report, for backends that pin
    /// work to a simulated [`gpulog_device::topology::DeviceTopology`]
    /// ([`MultiGpuBackend`]); `None` for single-device backends. The
    /// engine copies it into [`crate::RunStats::topology`] after a run.
    fn topology_report(&self) -> Option<TopologyReport> {
        None
    }

    /// Settles every deferred effect the backend may still have in flight,
    /// leaving each relation's stored state exactly as a bulk-synchronous
    /// backend would. The engine calls this wherever it is about to read
    /// relation storage directly (fixpoint seeding, end of a stratum);
    /// backends that complete every pipeline eagerly — all of them except
    /// [`PipelinedBackend`] — keep this default no-op.
    ///
    /// # Errors
    ///
    /// Returns device errors raised while draining deferred work.
    fn fence(&self, ctx: &mut EvalContext<'_>) -> EngineResult<()> {
        let _ = ctx;
        Ok(())
    }
}
