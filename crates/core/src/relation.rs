//! Runtime storage for one relation: the full / delta / new triple of
//! semi-naïve evaluation (paper Section 2 and Figure 3), each version backed
//! by HISA indices built on demand for the join keys the plans require.

use crate::ebm::EbmConfig;
use crate::error::EngineResult;
use crate::planner::VersionSel;
use gpulog_device::Device;
use gpulog_hisa::{
    partition_flat_by_key_hash, rows_are_sorted_unique, Hisa, IndexSpec, TupleBatch,
};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::slice;
use std::sync::Arc;
use std::time::Instant;

/// How many deferred delta runs trigger a drain. Two runs per
/// drain halves the number of O(|full|) merge passes while keeping at most
/// one iteration's delta un-probed-against-full at any time.
const MERGE_BATCH: usize = 2;

/// Upper bound on deferred runs when the adaptive policy keeps batching.
/// Delta population subtracts every pending run on the foreground path, so
/// unbounded deferral would trade O(|full|) merge passes for
/// O(runs · |delta|) subtractions.
const MAX_MERGE_BATCH: usize = 8;

/// The adaptive threshold: keep deferring while the pending rows are more
/// than this factor smaller than |full|. Each drain streams the whole full
/// version, so a drain is only worth its cost once the pending payload is a
/// meaningful fraction of it.
const ADAPTIVE_RATIO: usize = 8;

/// One version (full or delta) of a relation, with its indices.
///
/// Beside the canonical index a version keeps **one map** from `(key
/// columns, width)` to `width` HISAs indexed on those key columns, built
/// lazily and kept consistent across delta merges. Shard `i` of an entry
/// holds exactly the tuples whose key values satisfy
/// [`gpulog_hisa::shard_of`]`(key, width) == i`, so a width-1 entry is a
/// plain secondary index and a wider one is the sharded executor's shard
/// map. The canonical key at width 1 resolves to the canonical index and
/// never enters the map.
#[derive(Debug)]
pub struct RelationVersion {
    arity: usize,
    /// Canonical index over all columns in original order. Because the full
    /// key's permutation is the identity, its data array holds tuples in the
    /// relation's declared column order, which makes it the authoritative
    /// tuple store for this version.
    canonical: Hisa,
    /// Every other index, keyed by `(key columns, width)`, in key order.
    indices: BTreeMap<(Vec<usize>, usize), Vec<Hisa>>,
    load_factor: f64,
}

impl RelationVersion {
    /// An empty version. The batch is deliberately unflagged, so the
    /// canonical index takes the general build like any unsorted load.
    pub(crate) fn empty(device: &Device, arity: usize, load_factor: f64) -> EngineResult<Self> {
        Self::from_batch(device, &TupleBatch::new(arity, Vec::new()), load_factor)
    }

    /// Builds a version from a [`TupleBatch`], letting the batch's
    /// sorted-unique flag pick between the general build and the
    /// sort/dedup-free fast path ([`Hisa::build_from_batch`]).
    fn from_batch(device: &Device, batch: &TupleBatch, load_factor: f64) -> EngineResult<Self> {
        Ok(RelationVersion {
            arity: batch.arity(),
            canonical: Hisa::build_from_batch(
                device,
                IndexSpec::full_key(batch.arity()),
                batch,
                load_factor,
            )?,
            indices: BTreeMap::new(),
            load_factor,
        })
    }

    /// Number of tuples in this version.
    pub fn len(&self) -> usize {
        self.canonical.len()
    }

    /// Whether the version holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.canonical.is_empty()
    }

    /// The canonical (all-columns) index.
    pub fn canonical(&self) -> &Hisa {
        &self.canonical
    }

    /// Dense row-major tuples in declared column order.
    pub fn tuples_flat(&self) -> &[u32] {
        self.canonical.data()
    }

    /// Returns the HISA indexed on `key_cols` — the width-1 entry of
    /// [`RelationVersion::sharded_index_on`] — building it if necessary.
    /// An empty or identity key returns the canonical index; a *permuted*
    /// full key (e.g. `[1, 0]`) changes the sort order, so it gets a real
    /// index.
    ///
    /// # Errors
    ///
    /// Returns a device error if building the index exhausts device memory.
    pub fn index_on(&mut self, device: &Device, key_cols: &[usize]) -> EngineResult<&Hisa> {
        Ok(&self.sharded_index_on(device, key_cols, NonZeroUsize::MIN)?[0])
    }

    /// Returns the `shards`-way index map on `key_cols`, building it if
    /// necessary: the version's tuples are partitioned with
    /// [`gpulog_hisa::shard_of`] over their key values and each partition
    /// becomes its own HISA indexed on `key_cols`, all built as one
    /// worker-pool epoch. One shard is the version's index on `key_cols`,
    /// built on the calling thread with no partition pass.
    ///
    /// # Errors
    ///
    /// Returns a device error if building any shard exhausts device memory.
    ///
    /// # Panics
    ///
    /// Panics if `key_cols` is empty and `shards` is above one (there is no
    /// key to shard on); a zero shard count is unrepresentable
    /// ([`NonZeroUsize`]).
    pub fn sharded_index_on(
        &mut self,
        device: &Device,
        key_cols: &[usize],
        shards: NonZeroUsize,
    ) -> EngineResult<&[Hisa]> {
        if self.existing_sharded_index(key_cols, shards).is_none() {
            assert!(!key_cols.is_empty(), "sharding requires a join key");
            let (arity, load_factor) = (self.arity, self.load_factor);
            let rows = self.canonical.data();
            // Delta rows are sorted and duplicate-free (so is each hash
            // partition of them), which re-indexes without sort/dedup. A full
            // version loses that on its first merge, hence the check.
            let parts = partition_flat_by_key_hash(rows, arity, key_cols, shards);
            let sorted_unique = rows_are_sorted_unique(rows, arity);
            let built = per_shard(device, parts, |part| {
                let spec = IndexSpec::new(arity, key_cols.to_vec());
                Ok(if sorted_unique {
                    Hisa::build_reindexed_from_sorted_unique(device, spec, &part, load_factor)?
                } else {
                    let batch = TupleBatch::new(arity, part);
                    Hisa::build_from_batch(device, spec, &batch, load_factor)?
                })
            })?;
            let entry = (key_cols.to_vec(), shards.get());
            self.indices.insert(entry, built);
        }
        Ok(self
            .existing_sharded_index(key_cols, shards)
            .expect("index map built above"))
    }

    /// Returns an already-built index map without building it. The
    /// canonical key at one shard (an empty or identity key) returns the
    /// canonical index.
    pub fn existing_sharded_index(
        &self,
        key_cols: &[usize],
        shards: NonZeroUsize,
    ) -> Option<&[Hisa]> {
        if shards.get() == 1 && is_canonical_key(key_cols, self.arity) {
            return Some(slice::from_ref(&self.canonical));
        }
        self.indices
            .get(&(key_cols.to_vec(), shards.get()))
            .map(Vec::as_slice)
    }

    /// The sorted `(key columns, width)` of every index this version
    /// carries beside its canonical one — for the multi-GPU model, the
    /// partitionings a delta exchange must feed.
    pub fn index_keys(&self) -> Vec<(Vec<usize>, usize)> {
        self.indices.keys().cloned().collect()
    }

    /// Device bytes attributable to this version (canonical plus every
    /// other index).
    pub fn device_bytes(&self) -> usize {
        let indices = self.indices.values().flatten();
        self.canonical.device_bytes() + indices.map(Hisa::device_bytes).sum::<usize>()
    }

    /// Deep-copies the version — canonical index and every other index —
    /// onto fresh device buffers. This is the copy-on-write detach behind
    /// snapshot publication: once a full version has been shared with
    /// readers (see [`RelationStorage::share_full`]), the writer clones it
    /// before the next merge instead of mutating the published data.
    ///
    /// # Errors
    ///
    /// Returns a device error if the device cannot hold a second copy.
    pub(crate) fn try_clone(&self) -> EngineResult<Self> {
        let mut indices = BTreeMap::new();
        for (entry, shards) in &self.indices {
            let copies = shards.iter().map(Hisa::try_clone);
            indices.insert(entry.clone(), copies.collect::<Result<_, _>>()?);
        }
        Ok(RelationVersion {
            arity: self.arity,
            canonical: self.canonical.try_clone()?,
            indices,
            load_factor: self.load_factor,
        })
    }

    /// Merges delta runs (each sorted-unique, pairwise disjoint, and
    /// disjoint from this **full** version) into it, honouring the
    /// eager-buffer-management policy. `runs_canonical` holds the runs'
    /// rows under the canonical index: the eager merge passes the delta
    /// version's own canonical and its one run, a drain
    /// ([`RelationVersion::merge_sorted_unique_runs`]) the [`index_runs`]
    /// of its runs.
    ///
    /// Every other index stays consistent, one entry at a time: the runs
    /// are re-indexed on the entry's key (delta rows are sorted and
    /// duplicate-free, so that is a key-column-only permutation sort) and
    /// merged in. A wider entry merges shard-locally: each run partitions
    /// by the entry's key hash, and shard `i` absorbs only its own slices,
    /// all shards as one worker-pool epoch. Each index reserves EBM slack
    /// sized from the rows it absorbs, so `S` shards reserve no more than
    /// one index would.
    ///
    /// # Errors
    ///
    /// Returns a device error if the merged relation does not fit. The
    /// canonical index then either holds exactly its old rows or has
    /// absorbed every run; in the second case every other index is dropped
    /// (they rebuild lazily), so no index is left lagging the canonical one.
    fn merge_runs(
        &mut self,
        device: &Device,
        runs_canonical: &Hisa,
        runs: &[&[u32]],
        ebm: &EbmConfig,
    ) -> EngineResult<()> {
        if runs_canonical.is_empty() {
            return Ok(());
        }
        // With EBM on, reserving the slack first also pre-reserves
        // hash-layer capacity, which keeps `merge_from` on the incremental
        // index-maintenance path.
        let absorb = |target: &mut Hisa, indexed: &Hisa| -> EngineResult<()> {
            let reserve = ebm.reserve_rows(indexed.len());
            if reserve > 0 {
                target.reserve_additional_rows(reserve)?;
            }
            Ok(target.merge_from(indexed)?)
        };
        absorb(&mut self.canonical, runs_canonical)?;
        let (arity, load_factor) = (self.arity, self.load_factor);
        let merge = |target: &mut Hisa, slices: &[&[u32]]| {
            let spec = target.spec().clone();
            absorb(target, &index_runs(device, spec, slices, load_factor)?)
        };
        let merged = self
            .indices
            .iter_mut()
            .try_for_each(|((key_cols, width), shards)| {
                if *width == 1 {
                    return merge(&mut shards[0], runs);
                }
                let width = NonZeroUsize::new(*width).expect("index maps are non-empty");
                let mut slices: Vec<Vec<Vec<u32>>> = vec![Vec::new(); width.get()];
                for run in runs {
                    let parts = partition_flat_by_key_hash(run, arity, key_cols, width);
                    for (shard, part) in parts.into_iter().enumerate() {
                        if !part.is_empty() {
                            slices[shard].push(part);
                        }
                    }
                }
                let jobs: Vec<_> = shards
                    .iter_mut()
                    .zip(slices)
                    .filter(|(_, slices)| !slices.is_empty())
                    .collect();
                per_shard(device, jobs, |(target, slices)| {
                    let slices: Vec<&[u32]> = slices.iter().map(Vec::as_slice).collect();
                    merge(target, &slices)
                })
                .map(|_| ())
            });
        if merged.is_err() {
            self.indices.clear();
            return merged;
        }
        if !ebm.enabled {
            self.canonical.shrink_to_fit();
            for index in self.indices.values_mut().flatten() {
                index.shrink_to_fit();
            }
        }
        Ok(())
    }

    /// Merges a batch of deferred delta runs (each sorted-unique, pairwise
    /// disjoint, and disjoint from this version) into this **full** version
    /// in one pass — the drain of deferred merging. The runs are combined
    /// with [`index_runs`] under every index's key, so each index pays its
    /// O(|full|) sorted-index and inverse-permutation streaming passes
    /// once per drain instead of once per delta; merge associativity (the
    /// runs' rows are globally distinct) keeps the result byte-identical
    /// to merging the runs one at a time.
    ///
    /// # Errors
    ///
    /// Returns a device error if the merged relation does not fit.
    ///
    /// # Panics
    ///
    /// Panics if any run's arity differs or a run does not carry the
    /// sorted-unique flag.
    pub(crate) fn merge_sorted_unique_runs(
        &mut self,
        device: &Device,
        runs: &[TupleBatch],
        ebm: &EbmConfig,
    ) -> EngineResult<()> {
        for run in runs {
            assert_eq!(run.arity(), self.arity, "delta run arity mismatch");
            assert!(
                run.is_sorted_unique(),
                "merge_sorted_unique_runs requires sorted-unique runs"
            );
        }
        let flats: Vec<&[u32]> = runs.iter().map(TupleBatch::as_flat).collect();
        if flats.iter().all(|flat| flat.is_empty()) {
            return Ok(());
        }
        let spec = IndexSpec::full_key(self.arity);
        let canonical = index_runs(device, spec, &flats, self.load_factor)?;
        self.merge_runs(device, &canonical, &flats, ebm)
    }
}

/// Runs `task` once per job as one worker-pool epoch (on the calling
/// thread for a single job), returning the results in job order or the
/// first error.
fn per_shard<J: Send, T: Send>(
    device: &Device,
    jobs: Vec<J>,
    task: impl Fn(J) -> EngineResult<T> + Sync,
) -> EngineResult<Vec<T>> {
    let mut slots: Vec<Option<EngineResult<T>>> = jobs.iter().map(|_| None).collect();
    let jobs: Vec<_> = jobs.into_iter().zip(slots.iter_mut()).collect();
    device
        .executor()
        .run_tasks(jobs, |_, (job, slot)| *slot = Some(task(job)));
    slots
        .into_iter()
        .map(|slot| slot.expect("every shard task ran"))
        .collect()
}

/// Indexes several identity-sorted, duplicate-free, pairwise-disjoint
/// delta runs under `spec` as one HISA: each run is re-indexed and merged
/// into the first, in order. Every run's rows are globally distinct, so
/// the merged sorted order depends on tuple content alone and the result
/// is byte-identical to merging each run into the destination one at a
/// time — which is what lets a drain pay the destination's O(|full|)
/// merge passes once per batch of runs. The first run's HISA reserves
/// room for every later run's rows up front, so the merges neither grow
/// its layers nor rebuild its exactly sized hash table run after run.
fn index_runs(
    device: &Device,
    spec: IndexSpec,
    runs: &[&[u32]],
    load_factor: f64,
) -> EngineResult<Hisa> {
    let arity = spec.arity();
    let index = |run: &[u32]| {
        Hisa::build_reindexed_from_sorted_unique(device, spec.clone(), run, load_factor)
    };
    let mut runs = runs.iter().filter(|run| !run.is_empty());
    let first = runs
        .next()
        .expect("a merge indexes at least one non-empty run");
    let mut combined = index(first)?;
    let later_rows: usize = runs.clone().map(|run| run.len() / arity).sum();
    if later_rows > 0 {
        combined.reserve_additional_rows(later_rows)?;
    }
    for run in runs {
        combined.merge_from(&index(run)?)?;
    }
    Ok(combined)
}

/// Whether `key_cols` is served by the canonical (identity full-key)
/// index: an empty key (plain scan) or exactly `[0, 1, ..., arity - 1]`.
fn is_canonical_key(key_cols: &[usize], arity: usize) -> bool {
    key_cols.is_empty() || key_cols.iter().copied().eq(0..arity)
}

/// Storage for one relation across the semi-naïve loop.
///
/// The `full` version is held behind an [`Arc`] so a completed fixpoint can
/// be *published* — shared with concurrent readers at zero copy cost via
/// [`RelationStorage::share_full`] — while the writer keeps evaluating.
/// Every mutating path detaches (deep-copies) the version first if a
/// published snapshot still holds a reference, so readers never observe a
/// torn merge.
///
/// ## Deferred merging
///
/// Under the executor's deferred merge policy a delta is not merged into
/// `full` when it is installed: storage parks it as a sorted-unique
/// *pending run*, and once enough runs accumulate it drains them all into
/// `full` in one coalesced merge, in place on the calling thread. What
/// deferral buys is fewer O(|full|) merge passes, not concurrency. The
/// stored full lags by the pending runs, so the one readiness rule is:
/// **settle before reading `full`** — settling
/// ([`crate::backend::EvalContext::settle`]) drains the pending runs, after
/// which storage holds exactly what eager merging would. A settled relation
/// is left untouched, so settling costs one emptiness check on the eager
/// path. A drain that runs out of device memory keeps its runs pending
/// (unless the canonical index already absorbed them), so no row is lost.
#[derive(Debug)]
pub struct RelationStorage {
    /// Relation name (for reporting).
    pub name: String,
    /// Number of columns.
    pub arity: usize,
    /// The accumulated `full` version, shared with published snapshots.
    full: Arc<RelationVersion>,
    /// The previous iteration's `delta` version.
    pub delta: RelationVersion,
    /// Raw tuples derived in the current iteration (`new`), accumulated
    /// across rule plans before deduplication.
    pub new_tuples: Vec<u32>,
    /// Sorted-unique delta runs whose merge into `full` is deferred:
    /// pairwise disjoint, disjoint from the stored full, in iteration order.
    pending: Vec<TupleBatch>,
    device: Device,
    load_factor: f64,
}

impl RelationStorage {
    /// Creates empty storage for a relation.
    ///
    /// # Errors
    ///
    /// Returns a device error if even the empty indices cannot be allocated.
    pub fn new(device: &Device, name: &str, arity: usize, load_factor: f64) -> EngineResult<Self> {
        Ok(RelationStorage {
            name: name.to_string(),
            arity,
            full: Arc::new(RelationVersion::empty(device, arity, load_factor)?),
            delta: RelationVersion::empty(device, arity, load_factor)?,
            new_tuples: Vec::new(),
            pending: Vec::new(),
            device: device.clone(),
            load_factor,
        })
    }

    /// The version a plan step reads: `full` (settle first, see
    /// [`RelationStorage::full`]) or `delta`.
    pub fn version(&self, sel: VersionSel) -> &RelationVersion {
        match sel {
            VersionSel::Full | VersionSel::FullPrefix => self.full(),
            VersionSel::Delta => &self.delta,
        }
    }

    /// Mutable access to the version a plan step reads; a full version
    /// detaches from any published snapshot first
    /// ([`RelationStorage::full_mut`]).
    ///
    /// # Errors
    ///
    /// Returns a device error if the detach copy does not fit.
    pub fn version_mut(&mut self, sel: VersionSel) -> EngineResult<&mut RelationVersion> {
        match sel {
            VersionSel::Full | VersionSel::FullPrefix => self.full_mut(),
            VersionSel::Delta => Ok(&mut self.delta),
        }
    }

    /// Read access to the full version. With merges deferred it may lag by
    /// the pending runs; settle first for the complete version.
    pub fn full(&self) -> &RelationVersion {
        &self.full
    }

    /// A shared handle on the full version — the snapshot publish
    /// primitive. Cloning the [`Arc`] is O(1); the engine bundles one per
    /// relation into a `FixpointSnapshot` after settling every relation.
    pub fn share_full(&self) -> Arc<RelationVersion> {
        Arc::clone(&self.full)
    }

    /// Puts back a full version taken with [`RelationStorage::share_full`]:
    /// the rollback of a fact load that failed part-way.
    pub(crate) fn restore_full(&mut self, full: Arc<RelationVersion>) {
        self.full = full;
    }

    /// Whether the full version is currently shared with a published
    /// snapshot (so the next mutation will copy-on-write detach).
    pub fn full_is_shared(&self) -> bool {
        Arc::strong_count(&self.full) > 1
    }

    /// Mutable access to the full version, detaching it from any published
    /// snapshot first: if a snapshot still holds the [`Arc`], the version
    /// is deep-copied so the mutation cannot tear the published fixpoint.
    ///
    /// # Errors
    ///
    /// Returns a device error if the detach copy does not fit on the
    /// device.
    pub fn full_mut(&mut self) -> EngineResult<&mut RelationVersion> {
        self.detach_full()?;
        Ok(Arc::get_mut(&mut self.full).expect("full version is unique after detach"))
    }

    /// Ensures `self.full` is uniquely owned, copy-on-write detaching it
    /// from any published snapshot.
    fn detach_full(&mut self) -> EngineResult<()> {
        if Arc::get_mut(&mut self.full).is_none() {
            let copy = self.full.try_clone()?;
            self.full = Arc::new(copy);
        }
        Ok(())
    }

    /// Whether no merge is pending: the stored full is exactly what eager
    /// merging would hold.
    pub fn is_settled(&self) -> bool {
        self.pending.is_empty()
    }

    /// Brings the stored full up to date by draining the pending runs. A
    /// relation with nothing pending never touches `full`, so a version
    /// shared with a snapshot is not copied.
    ///
    /// # Errors
    ///
    /// Returns a device error if the merge does not fit; the runs then stay
    /// pending for a retry.
    pub(crate) fn settle(&mut self, ebm: &EbmConfig) -> EngineResult<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        // Detach before touching the runs: a detach copy that does not fit
        // must leave them pending for a retry.
        self.detach_full()?;
        let full = Arc::get_mut(&mut self.full).expect("full version is unique after detach");
        let rows_before = full.len();
        let merged = full.merge_sorted_unique_runs(&self.device, &self.pending, ebm);
        // A failed merge leaves the canonical index either untouched (the
        // runs stay pending) or holding every run (a secondary index failed
        // after it and was dropped); the runs are disjoint from full, so
        // the row count tells the two apart.
        if merged.is_ok() || full.len() > rows_before {
            self.pending.clear();
        }
        let stalled = start.elapsed().as_nanos() as u64;
        self.device.metrics().add_pipeline_stall_nanos(stalled);
        merged
    }

    /// `delta` minus every pending run. For a delta already deduplicated
    /// against the stored (lagging) full this is exactly `delta` minus the
    /// full eager merging would hold; both operands being sorted-unique,
    /// the result is byte-equal too.
    pub(crate) fn subtract_pending(&self, mut delta: TupleBatch) -> TupleBatch {
        for run in &self.pending {
            if delta.is_empty() {
                break;
            }
            delta = delta.subtract_sorted_unique(run);
        }
        delta
    }

    /// Defers merging `delta` — the sorted-unique delta just installed —
    /// into full: parks it as a pending run, and once [`MERGE_BATCH`] runs
    /// are parked drains them all in one pass ([`RelationStorage::settle`]).
    /// While the pending rows are still tiny next to |full|
    /// ([`ADAPTIVE_RATIO`]) a drain would stream the whole version to fold
    /// in almost nothing, so deferral continues up to [`MAX_MERGE_BATCH`]
    /// runs.
    ///
    /// # Errors
    ///
    /// Returns a device error if the drain does not fit; the runs then stay
    /// pending.
    pub(crate) fn defer_merge(&mut self, delta: TupleBatch, ebm: &EbmConfig) -> EngineResult<()> {
        if !delta.is_empty() {
            self.pending.push(delta);
        }
        if self.pending.len() < MERGE_BATCH {
            return Ok(());
        }
        let pending_rows: usize = self.pending.iter().map(TupleBatch::len).sum();
        if self.pending.len() < MAX_MERGE_BATCH
            && pending_rows.saturating_mul(ADAPTIVE_RATIO) < self.full.len()
        {
            self.device.metrics().add_adaptive_merge_batch();
            return Ok(());
        }
        self.settle(ebm)
    }

    /// Number of tuples in the full relation.
    pub fn len(&self) -> usize {
        self.full().len()
    }

    /// Whether the full relation is empty.
    pub fn is_empty(&self) -> bool {
        self.full().is_empty()
    }

    /// Iterates the full relation's tuples as borrowed row slices in
    /// declared column order, without allocating per row.
    pub fn tuples_iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.full().tuples_flat().chunks_exact(self.arity.max(1))
    }

    /// Whether the full relation contains `tuple`.
    pub fn contains(&self, tuple: &[u32]) -> bool {
        self.full().canonical().contains(tuple)
    }

    /// The full relation's tuples as an owned [`TupleBatch`]. The rows are
    /// duplicate-free (HISA set semantics) but in *storage* order — merges
    /// concatenate data arrays and keep sortedness in the sorted index — so
    /// the batch does not carry the sorted-unique flag.
    pub fn tuples_batch(&self) -> TupleBatch {
        self.rows_since(0)
    }

    /// The full relation's rows past its first `mark` ones, as an owned
    /// [`TupleBatch`] in storage order: everything merged in since the full
    /// version held `mark` rows, because merges only append data rows
    /// ([`Hisa::merge_from`]). Settle first, or rows still deferred are
    /// missing. A mark past the end yields no rows.
    pub fn rows_since(&self, mark: usize) -> TupleBatch {
        let flat = self.full().tuples_flat();
        let start = (mark * self.arity).min(flat.len());
        TupleBatch::new(self.arity, flat[start..].to_vec())
    }

    /// Appends raw derived tuples to the `new` buffer.
    pub fn push_new(&mut self, tuples: &[u32]) {
        debug_assert_eq!(tuples.len() % self.arity, 0, "ragged new-tuple buffer");
        self.new_tuples.extend_from_slice(tuples);
    }

    /// Appends a derived batch to the `new` buffer.
    ///
    /// # Panics
    ///
    /// Panics if the batch's arity differs from the relation's.
    pub fn push_new_batch(&mut self, batch: &TupleBatch) {
        assert_eq!(batch.arity(), self.arity, "batch arity mismatch");
        self.new_tuples.extend_from_slice(batch.as_flat());
    }

    /// Installs a [`TupleBatch`] as the delta version. The batch's
    /// sorted-unique flag — not a comment at the call site — decides whether
    /// the HISA build skips its sort/dedup passes.
    ///
    /// # Errors
    ///
    /// Returns a device error if the delta does not fit.
    ///
    /// # Panics
    ///
    /// Panics if the batch's arity differs from the relation's.
    pub fn set_delta_batch(&mut self, batch: &TupleBatch) -> EngineResult<()> {
        assert_eq!(batch.arity(), self.arity, "batch arity mismatch");
        self.delta = RelationVersion::from_batch(&self.device, batch, self.load_factor)?;
        Ok(())
    }

    /// Replaces the full relation's contents with a [`TupleBatch`] (used
    /// when loading extensional facts).
    ///
    /// # Errors
    ///
    /// Returns a device error if the relation does not fit.
    ///
    /// # Panics
    ///
    /// Panics if the batch's arity differs from the relation's.
    pub fn load_full_batch(&mut self, batch: &TupleBatch) -> EngineResult<()> {
        assert_eq!(batch.arity(), self.arity, "batch arity mismatch");
        self.full = Arc::new(RelationVersion::from_batch(
            &self.device,
            batch,
            self.load_factor,
        )?);
        Ok(())
    }

    /// Resets delta to empty.
    ///
    /// # Errors
    ///
    /// Returns a device error if the empty index cannot be allocated.
    pub fn clear_delta(&mut self) -> EngineResult<()> {
        self.delta = RelationVersion::empty(&self.device, self.arity, self.load_factor)?;
        Ok(())
    }

    /// Merges the current delta into full, honouring the eager-buffer-
    /// management policy: with EBM on, each full index reserves `k x
    /// |delta|` rows of slack before the merge in the layers
    /// [`Hisa::merge_from`] fills in place (data array, inverse
    /// permutation, hash layer; [`Hisa::reserve_additional_rows`]), so the
    /// merges that fit in it grow no buffer and stay on the incremental
    /// index-maintenance path (delta-key inserts, no hash rebuild); with
    /// EBM off, slack is trimmed after every merge (exact-size allocation
    /// behaviour).
    ///
    /// Every other full index merges the same delta in place (shard-locally
    /// for a wider map), so the next iteration's joins see a consistent
    /// full relation; each goes through the same `merge_from`, so each
    /// inherits incremental maintenance.
    ///
    /// # Errors
    ///
    /// Returns a device error if the merged relation does not fit.
    pub fn merge_delta_into_full(&mut self, ebm: &EbmConfig) -> EngineResult<()> {
        if self.delta.is_empty() {
            return Ok(());
        }
        // Copy-on-write: a full version shared with a published snapshot is
        // deep-copied before the merge, so readers keep the old fixpoint.
        self.detach_full()?;
        let full = Arc::get_mut(&mut self.full).expect("full version is unique after detach");
        let delta = &self.delta;
        full.merge_runs(&self.device, delta.canonical(), &[delta.tuples_flat()], ebm)
    }

    /// Takes (and clears) the accumulated new-tuple buffer. With EBM
    /// disabled the buffer's capacity is also released, modelling the
    /// allocate/free-every-iteration discipline.
    pub fn take_new(&mut self, ebm: &EbmConfig) -> Vec<u32> {
        if ebm.enabled {
            let mut out = Vec::with_capacity(self.new_tuples.len());
            std::mem::swap(&mut out, &mut self.new_tuples);
            out
        } else {
            std::mem::take(&mut self.new_tuples)
        }
    }

    /// Device bytes attributable to this relation (full + delta versions).
    pub fn device_bytes(&self) -> usize {
        self.full().device_bytes() + self.delta.device_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use gpulog_device::profile::DeviceProfile;
    use gpulog_device::DeviceError;
    use gpulog_hisa::DEFAULT_LOAD_FACTOR;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    fn storage(d: &Device) -> RelationStorage {
        RelationStorage::new(d, "Edge", 2, DEFAULT_LOAD_FACTOR).unwrap()
    }

    #[test]
    fn load_full_and_query() {
        let d = device();
        let mut s = storage(&d);
        s.load_full_batch(&TupleBatch::new(2, vec![1, 2, 3, 4, 1, 2]))
            .unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.contains(&[3, 4]));
        assert!(!s.contains(&[4, 3]));
        assert_eq!(s.tuples_iter().count(), 2);
        assert_eq!(
            s.tuples_iter().next(),
            Some(&[1u32, 2][..]),
            "rows are borrowed slices in declared column order"
        );
    }

    #[test]
    fn index_on_builds_and_caches_secondary_indices() {
        let d = device();
        let mut s = storage(&d);
        s.load_full_batch(&TupleBatch::new(2, vec![1, 2, 3, 2, 5, 6]))
            .unwrap();
        let hits = s
            .full_mut()
            .unwrap()
            .index_on(&d, &[1])
            .unwrap()
            .range_query(&[2])
            .count();
        assert_eq!(hits, 2);
        // Second call hits the cache (no new index).
        let bytes_before = s.full().device_bytes();
        let _ = s.full_mut().unwrap().index_on(&d, &[1]).unwrap();
        assert_eq!(s.full().device_bytes(), bytes_before);
        // Canonical key returns the canonical index without building.
        let _ = s.full_mut().unwrap().index_on(&d, &[0, 1]).unwrap();
        assert_eq!(s.full().device_bytes(), bytes_before);
    }

    #[test]
    fn permuted_full_key_builds_a_real_secondary_index() {
        let d = device();
        let mut s = storage(&d);
        s.load_full_batch(&TupleBatch::new(2, vec![1, 2, 3, 4]))
            .unwrap();
        let bytes_before = s.full().device_bytes();
        {
            let idx = s.full_mut().unwrap().index_on(&d, &[1, 0]).unwrap();
            assert_eq!(idx.spec().key_columns(), &[1, 0]);
            // Key order is (column 1, column 0): look up tuple (1, 2) as (2, 1).
            assert_eq!(idx.range_query(&[2, 1]).count(), 1);
            assert_eq!(idx.range_query(&[1, 2]).count(), 0);
        }
        assert!(
            s.full().device_bytes() > bytes_before,
            "a permuted full key must build a real index, not alias the canonical one"
        );
        // The identity full key still returns the canonical index for free.
        let bytes_with_permuted = s.full().device_bytes();
        let _ = s.full_mut().unwrap().index_on(&d, &[0, 1]).unwrap();
        let _ = s.full_mut().unwrap().index_on(&d, &[]).unwrap();
        assert_eq!(s.full().device_bytes(), bytes_with_permuted);
    }

    #[test]
    fn sorted_unique_delta_path_matches_general_path() {
        let d = device();
        let mut a = storage(&d);
        let mut b = storage(&d);
        for s in [&mut a, &mut b] {
            s.load_full_batch(&TupleBatch::new(2, vec![1, 2])).unwrap();
            let _ = s.full_mut().unwrap().index_on(&d, &[1]).unwrap();
        }
        // Sorted, deduplicated, disjoint from full — the difference() shape.
        let delta = [0u32, 2, 3, 2, 4, 5];
        a.set_delta_batch(&TupleBatch::new(2, delta.to_vec()))
            .unwrap();
        b.set_delta_batch(&TupleBatch::from_sorted_unique_flat(2, delta.to_vec()))
            .unwrap();
        a.merge_delta_into_full(&EbmConfig::default()).unwrap();
        b.merge_delta_into_full(&EbmConfig::default()).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(
            a.full_mut()
                .unwrap()
                .index_on(&d, &[1])
                .unwrap()
                .to_sorted_tuples(),
            b.full_mut()
                .unwrap()
                .index_on(&d, &[1])
                .unwrap()
                .to_sorted_tuples()
        );
    }

    #[test]
    fn merge_moves_delta_into_full_and_keeps_indices_consistent() {
        let d = device();
        let mut s = storage(&d);
        s.load_full_batch(&TupleBatch::new(2, vec![1, 2])).unwrap();
        // Materialize a secondary index before merging.
        assert_eq!(
            s.full_mut()
                .unwrap()
                .index_on(&d, &[1])
                .unwrap()
                .range_query(&[2])
                .count(),
            1
        );
        s.set_delta_batch(&TupleBatch::new(2, vec![3, 2, 4, 5]))
            .unwrap();
        s.merge_delta_into_full(&EbmConfig::default()).unwrap();
        assert_eq!(s.len(), 3);
        assert!(s.contains(&[3, 2]));
        // The secondary index must see the merged tuples too.
        assert_eq!(
            s.full_mut()
                .unwrap()
                .index_on(&d, &[1])
                .unwrap()
                .range_query(&[2])
                .count(),
            2
        );
    }

    #[test]
    fn merge_with_ebm_disabled_trims_capacity() {
        // Each run maintains a secondary index and a 3-way map, so the trim
        // covers both kinds of index entry.
        let merged = |ebm: &EbmConfig| {
            let d = device();
            let mut s = storage(&d);
            s.load_full_batch(&TupleBatch::new(2, vec![1, 2])).unwrap();
            let full = s.full_mut().unwrap();
            full.index_on(&d, &[1]).unwrap();
            full.sharded_index_on(&d, &[0], NonZeroUsize::new(3).unwrap())
                .unwrap();
            s.set_delta_batch(&TupleBatch::new(2, vec![3, 4, 5, 6, 7, 8]))
                .unwrap();
            s.merge_delta_into_full(ebm).unwrap();
            assert_eq!(s.len(), 4);
            assert_eq!(s.full().index_keys(), [(vec![0], 3), (vec![1], 1)]);
            let bytes = s.full().device_bytes();
            assert_eq!(d.tracker().in_use(), bytes + s.delta.device_bytes());
            bytes
        };
        let trimmed = merged(&EbmConfig::disabled());
        let slack = merged(&EbmConfig::with_growth_factor(16.0));
        // The EBM run holds more device memory than the trimmed run.
        assert!(slack > trimmed, "{slack} <= {trimmed}");
    }

    #[test]
    fn push_and_take_new_round_trips() {
        let d = device();
        let mut s = storage(&d);
        s.push_new(&[1, 2]);
        s.push_new(&[3, 4]);
        let taken = s.take_new(&EbmConfig::default());
        assert_eq!(taken, vec![1, 2, 3, 4]);
        assert!(s.take_new(&EbmConfig::default()).is_empty());
    }

    #[test]
    fn coalesced_run_merge_is_byte_identical_to_per_delta_merges() {
        let d = device();
        let shards = NonZeroUsize::new(3).unwrap();
        // Both sides maintain a secondary index on [1], and key [0] at one
        // shard beside its 3-way map.
        let prepared = || {
            let mut s = storage(&d);
            s.load_full_batch(&TupleBatch::new(2, vec![1, 2, 8, 0]))
                .unwrap();
            let full = s.full_mut().unwrap();
            full.index_on(&d, &[1]).unwrap();
            full.index_on(&d, &[0]).unwrap();
            full.sharded_index_on(&d, &[0], shards).unwrap();
            s
        };
        let d1: &[u32] = &[0, 7, 3, 3, 9, 1];
        let d2: &[u32] = &[2, 2, 4, 8];
        // Serial reference: merge the two deltas one at a time.
        let mut serial = prepared();
        for delta in [d1, d2] {
            serial
                .set_delta_batch(&TupleBatch::from_sorted_unique_flat(2, delta.to_vec()))
                .unwrap();
            serial.merge_delta_into_full(&EbmConfig::default()).unwrap();
        }
        // Coalesced: same deltas as one deferred drain.
        let mut coalesced = prepared();
        let runs = vec![
            TupleBatch::from_sorted_unique_flat(2, d1.to_vec()),
            TupleBatch::from_sorted_unique_flat(2, d2.to_vec()),
        ];
        coalesced
            .full_mut()
            .unwrap()
            .merge_sorted_unique_runs(&d, &runs, &EbmConfig::default())
            .unwrap();
        let keys = serial.full().index_keys();
        assert_eq!(keys, [(vec![0], 1), (vec![0], 3), (vec![1], 1)]);
        assert_eq!(coalesced.full().index_keys(), keys);
        let every_index = |s: &RelationStorage| {
            let full = s.full();
            let maps = keys.iter().map(|(key, width)| {
                let width = NonZeroUsize::new(*width).unwrap();
                full.existing_sharded_index(key, width).unwrap()
            });
            maps.chain([slice::from_ref(full.canonical())])
                .flatten()
                .map(|idx| (idx.data().to_vec(), idx.sorted_index().to_vec()))
                .collect::<Vec<_>>()
        };
        assert_eq!(every_index(&serial), every_index(&coalesced));
        // An all-empty drain is a no-op.
        coalesced
            .full_mut()
            .unwrap()
            .merge_sorted_unique_runs(&d, &[TupleBatch::empty(2)], &EbmConfig::default())
            .unwrap();
        assert_eq!(every_index(&serial), every_index(&coalesced));
    }

    #[test]
    fn shared_full_detaches_on_merge_and_keeps_the_snapshot_intact() {
        let d = device();
        let mut s = storage(&d);
        s.load_full_batch(&TupleBatch::new(2, vec![1, 2, 3, 4]))
            .unwrap();
        let _ = s.full_mut().unwrap().index_on(&d, &[1]).unwrap();
        // Publish: a snapshot holds the full version.
        let published = s.share_full();
        assert!(s.full_is_shared());
        let published_rows = published.tuples_flat().to_vec();
        // Writer merges the next delta — must copy-on-write, not tear.
        s.set_delta_batch(&TupleBatch::from_sorted_unique_flat(2, vec![5, 6, 7, 8]))
            .unwrap();
        s.merge_delta_into_full(&EbmConfig::default()).unwrap();
        assert_eq!(s.len(), 4);
        assert_eq!(
            published.tuples_flat(),
            published_rows.as_slice(),
            "the published snapshot must keep the pre-merge fixpoint"
        );
        assert_eq!(published.len(), 2);
        assert!(!s.full_is_shared(), "the merge detached the writer's copy");
        // The detached copy carried the secondary index along.
        let secondary = s.full().existing_sharded_index(&[1], NonZeroUsize::MIN);
        assert_eq!(secondary.unwrap()[0].range_query(&[6]).count(), 1);
    }

    /// Re-runs read a relation's growth as its rows past a mark, which
    /// holds only because merges append data rows — eager merges, and
    /// deferred ones once settled.
    #[test]
    fn rows_since_a_mark_are_exactly_the_rows_merged_after_it() {
        let d = device();
        let ebm = EbmConfig::default();
        let mut eager = storage(&d);
        eager
            .load_full_batch(&TupleBatch::new(2, vec![9, 9, 1, 2, 5, 5]))
            .unwrap();
        let _ = eager.full_mut().unwrap().index_on(&d, &[1]).unwrap();
        let before = eager.full().tuples_flat().to_vec();
        let mark = eager.len();
        eager
            .set_delta_batch(&TupleBatch::from_sorted_unique_flat(2, vec![0, 7, 3, 3]))
            .unwrap();
        eager.merge_delta_into_full(&ebm).unwrap();
        assert_eq!(
            &eager.full().tuples_flat()[..before.len()],
            before.as_slice()
        );
        assert_eq!(eager.rows_since(mark).as_flat(), &[0, 7, 3, 3]);
        assert_eq!(
            eager.rows_since(0).as_flat(),
            eager.tuples_batch().as_flat()
        );
        assert!(eager.rows_since(mark + 5).is_empty());

        let mut deferred = storage(&d);
        deferred
            .load_full_batch(&TupleBatch::new(2, vec![9, 9, 1, 2, 5, 5]))
            .unwrap();
        for run in [[0u32, 7], [4, 4], [2, 8]] {
            deferred
                .defer_merge(TupleBatch::from_sorted_unique_flat(2, run.to_vec()), &ebm)
                .unwrap();
        }
        deferred.settle(&ebm).unwrap();
        assert_eq!(
            &deferred.full().tuples_flat()[..before.len()],
            before.as_slice()
        );
        let grown = deferred.rows_since(mark);
        let mut grown: Vec<&[u32]> = grown.rows().collect();
        grown.sort_unstable();
        assert_eq!(grown, vec![&[0u32, 7][..], &[2, 8], &[4, 4]]);
    }

    /// A drain that runs out of device memory part-way loses nothing. At
    /// every ballast size that fails it, the runs either stay pending over
    /// an untouched full version or were absorbed by the canonical index;
    /// once the ballast is freed, a retry settles to what an unconstrained
    /// drain holds, secondary index included.
    #[test]
    fn a_drain_that_runs_out_of_memory_keeps_every_row() {
        let rows: Vec<u32> = (0..2_000u32).flat_map(|i| [i, i / 7]).collect();
        let runs = [vec![0u32, 9, 1, 9], vec![5_000, 1, 5_001, 2]];
        let ebm = EbmConfig::default();
        let prepared = |d: &Device| {
            let mut s = storage(d);
            s.load_full_batch(&TupleBatch::new(2, rows.clone()))
                .unwrap();
            s.full_mut().unwrap().index_on(d, &[1]).unwrap();
            for run in &runs {
                let run = TupleBatch::from_sorted_unique_flat(2, run.clone());
                s.defer_merge(run, &ebm).unwrap();
            }
            assert!(!s.is_settled(), "tiny runs stay deferred next to |full|");
            s
        };
        let layers = |s: &mut RelationStorage, d: &Device| {
            let canonical = s.full().tuples_flat().to_vec();
            let index = s.full_mut().unwrap().index_on(d, &[1]).unwrap();
            (canonical, index.to_sorted_tuples())
        };
        let reference = {
            let d = device();
            let mut s = prepared(&d);
            s.settle(&ebm).unwrap();
            layers(&mut s, &d)
        };

        let d = Device::with_workers(DeviceProfile::tiny_test_device(1 << 20), 2);
        let mut failures = 0;
        for slack in (0..).map(|step| step * 64) {
            let mut s = prepared(&d);
            let before = layers(&mut s, &d);
            let free = d.profile().memory_capacity_bytes - d.tracker().in_use();
            let ballast = d
                .buffer_filled(free.saturating_sub(slack) / 4, 0u32)
                .unwrap();
            let Err(err) = s.settle(&ebm) else {
                break;
            };
            failures += 1;
            assert!(matches!(
                err,
                EngineError::Device(DeviceError::OutOfMemory { .. })
            ));
            if s.is_settled() {
                assert_eq!(s.len(), rows.len() / 2 + 4, "slack {slack}: absorbed");
            } else {
                assert_eq!(s.full().tuples_flat(), before.0, "slack {slack}");
                let index = s.full().existing_sharded_index(&[1], NonZeroUsize::MIN);
                assert_eq!(index.unwrap()[0].to_sorted_tuples(), before.1);
            }
            drop(ballast);
            s.settle(&ebm).unwrap();
            assert_eq!(layers(&mut s, &d), reference, "slack {slack}: retry");
        }
        assert!(
            failures > 10,
            "the sweep must cross the drain's allocations"
        );
    }

    #[test]
    fn a_settle_whose_detach_does_not_fit_keeps_its_pending_runs() {
        let rows: Vec<u32> = (0..20_000u32).flat_map(|i| [i, i / 7]).collect();
        let run = TupleBatch::from_sorted_unique_flat(2, vec![0, 9, 1, 9]);
        let ebm = EbmConfig::default();
        // Size a device for one loaded copy and the merge of the run into
        // it, with a few KiB of slack: far short of a detach copy.
        let probe = device();
        let mut s = storage(&probe);
        s.load_full_batch(&TupleBatch::new(2, rows.clone()))
            .unwrap();
        s.defer_merge(run.clone(), &ebm).unwrap();
        s.settle(&ebm).unwrap();
        let mut profile = DeviceProfile::nvidia_h100();
        profile.memory_capacity_bytes = probe.metrics().peak_bytes_in_use() + 4096;
        let d = Device::with_workers(profile, 4);

        let mut s = storage(&d);
        s.load_full_batch(&TupleBatch::new(2, rows)).unwrap();
        let snapshot = s.share_full();
        s.defer_merge(run, &ebm).unwrap();
        assert!(matches!(
            s.settle(&ebm),
            Err(EngineError::Device(DeviceError::OutOfMemory { .. }))
        ));
        assert!(
            !s.is_settled(),
            "the failed detach must keep the run pending"
        );
        // Once the snapshot lets go, a retry merges the run.
        drop(snapshot);
        s.settle(&ebm).unwrap();
        assert_eq!(s.len(), 20_002);
        assert!(s.contains(&[0, 9]) && s.contains(&[1, 9]));
    }

    #[test]
    fn clear_delta_empties_the_delta_version() {
        let d = device();
        let mut s = storage(&d);
        s.set_delta_batch(&TupleBatch::new(2, vec![1, 2])).unwrap();
        assert_eq!(s.delta.len(), 1);
        s.clear_delta().unwrap();
        assert!(s.delta.is_empty());
    }
}
