//! The evaluation executor.
//!
//! The engine never runs relational-algebra kernels itself: it lowers every
//! rule plan into an [`RaPipeline`](crate::ra::op::RaPipeline) (see
//! [`crate::planner::lower_rule_plan`]) and hands the pipeline to its one
//! executor, [`ShardedBackend`], together with an [`EvalContext`] — the
//! device, the relation storages, and the statistics sink. Delta population is the executor's second entry point,
//! [`ShardedBackend::populate`]. One op loop serves every configuration,
//! parameterised three ways:
//!
//! * **Shards `S`.** Relations hash-partition by their join keys and each
//!   join / delta-population op fans out as `S` independent per-shard tasks
//!   dispatched to the persistent worker pool in a single epoch. At
//!   `S = 1` — the default engine — the loop runs one part with no
//!   partition pass and no k-way merge, exactly reproducing the paper's
//!   single-GPU evaluation loop.
//! * **Merge policy.** Eager merging folds each delta into `full` as it is
//!   installed (the bulk-synchronous loop). Deferred merging installs each
//!   delta at once but parks its merge in relation storage, which drains
//!   several parked deltas into `full` in one coalesced merge, in place
//!   (see [`crate::relation::RelationStorage`]). Every op that reads a full
//!   version settles it first ([`EvalContext::settle`]).
//! * **Observer.** With a simulated
//!   [`gpulog_device::topology::DeviceTopology`] configured, a cost model
//!   pins shard `i` to modeled device `i`, charges the kernels the loop ran
//!   to that device's counters, and charges every row that crosses devices
//!   (join re-partitions, gathers, the delta exchange) to the topology's
//!   link model — surfaced through [`ShardedBackend::topology_report`].
//!
//! Every configuration computes fixpoints byte-identical to the one-shard
//! eager loop's.

use crate::ebm::EbmConfig;
use crate::error::EngineResult;
use crate::planner::{RelId, VersionSel};
use crate::relation::RelationStorage;
use crate::stats::{Phase, RunStats};
use gpulog_device::Device;
use gpulog_hisa::Hisa;
use std::num::NonZeroUsize;
use std::slice;
use std::time::Instant;

mod multigpu;
mod sharded;

pub use sharded::ShardedBackend;

/// Everything the executor needs to run one pipeline: the device to launch
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
    /// Settles one relation before its full version is read: drains its
    /// pending delta runs into full in one coalesced merge (see
    /// [`RelationStorage`]'s deferred merging), charging the drain to the
    /// merge phase. A settled relation costs one emptiness check and is
    /// left untouched.
    ///
    /// # Errors
    ///
    /// Returns a device error if the merge does not fit; the runs then stay
    /// pending.
    pub fn settle(&mut self, relation: RelId) -> EngineResult<()> {
        let storage = &mut self.relations[relation];
        if storage.is_settled() {
            return Ok(());
        }
        let t = Instant::now();
        storage.settle(&self.ebm)?;
        self.stats.add_phase(Phase::Merge, t.elapsed());
        Ok(())
    }

    /// Settles every relation (see [`EvalContext::settle`]), leaving each
    /// storage exactly as eager merging would.
    ///
    /// # Errors
    ///
    /// Returns a device error if a merge does not fit.
    pub fn settle_all(&mut self) -> EngineResult<()> {
        (0..self.relations.len()).try_for_each(|relation| self.settle(relation))
    }

    /// Builds (or refreshes from cache) the shard map of one relation
    /// version: `shards` HISAs over `key_cols`, where shard `i` holds
    /// exactly the tuples whose key values hash to `i` (see
    /// [`gpulog_hisa::shard_of`]). The map is the version's index entry
    /// `(key_cols, shards)` ([`crate::relation::RelationVersion`] keeps one
    /// map of them), kept consistent across delta merges, so a fixpoint
    /// run pays the full build once and per-shard merges afterwards. A
    /// 1-way map is the version's plain index on `key_cols`, and the
    /// canonical key's 1-way map is the canonical index.
    ///
    /// A full version is settled first. A cached map returns at once, so a
    /// full version shared with a published snapshot is copy-on-write
    /// detached only to build a map it lacks. A canonical-prefix probe
    /// ([`VersionSel::FullPrefix`]) builds nothing: its map is always there.
    ///
    /// # Errors
    ///
    /// Returns a device error if settling or building any shard exhausts
    /// device memory.
    pub fn build_shard_map(
        &mut self,
        relation: RelId,
        version: VersionSel,
        key_cols: &[usize],
        shards: NonZeroUsize,
    ) -> EngineResult<()> {
        if version != VersionSel::Delta {
            self.settle(relation)?;
        }
        if self
            .shard_map(relation, version, key_cols, shards)
            .is_some()
        {
            return Ok(());
        }
        self.relations[relation]
            .version_mut(version)?
            .sharded_index_on(self.device, key_cols, shards)
            .map(|_| ())
    }

    /// The already-built shard map of one relation version (see
    /// [`EvalContext::build_shard_map`]), or `None` if it has not been
    /// built. A canonical-prefix probe's map is the full version's
    /// canonical index, read whole.
    pub fn shard_map(
        &self,
        relation: RelId,
        version: VersionSel,
        key_cols: &[usize],
        shards: NonZeroUsize,
    ) -> Option<&[Hisa]> {
        let stored = self.relations[relation].version(version);
        if version == VersionSel::FullPrefix {
            return Some(slice::from_ref(stored.canonical()));
        }
        stored.existing_sharded_index(key_cols, shards)
    }
}

/// What executing one rule pipeline produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineOutcome {
    /// Head tuples appended to the head relation's `new` buffer.
    pub derived_rows: usize,
}

/// What populating one relation's delta produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PopulateOutcome {
    /// Raw `new` rows consumed.
    pub new_rows: usize,
    /// Delta rows installed (and merged into full, now or deferred).
    pub delta_rows: usize,
}
