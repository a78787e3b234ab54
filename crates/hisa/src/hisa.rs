//! The Hash-Indexed Sorted Array (paper Section 4).
//!
//! A [`Hisa`] is three interconnected layers over one relation:
//!
//! 1. a **data array** — the dense, row-major tuple buffer (key columns
//!    reordered to the front, per Algorithm 1);
//! 2. a **sorted index array** — tuple positions ordered lexicographically,
//!    decoupling sort order from physical placement so merges are
//!    concatenations — plus its inverse (`pos_in_sorted`), mapping a row
//!    back to its current sorted position;
//! 3. an **open-addressing hash table** — mapping the hash of a tuple's key
//!    (join) columns to the data-array row at the *smallest* sorted-index
//!    position holding that key (resolved through the inverse permutation
//!    at query time), giving O(1) entry into a range of matching tuples.
//!    Storing stable row ids instead of shifting positions is what lets
//!    [`Hisa::merge_from`] maintain the hash layer *incrementally* —
//!    inserting only the delta's keys instead of rebuilding over the full
//!    relation.
//!
//! Together the layers provide the four requirements the paper derives for
//! a GPU relation representation: fast range queries (R1), parallel
//! iteration over dense storage (R2), arbitrary-width join keys via hashed
//! keys (R3), and sort-based deduplication (R4).

use crate::batch::{rows_are_sorted_unique, TupleBatch};
use crate::dedup::unique_sorted_positions;
use crate::hash_table::{HashTable, DEFAULT_LOAD_FACTOR};
use crate::tuple::{hash_key, IndexSpec, Value};
use gpulog_device::thrust::merge::merge_sorted_index_rows;
use gpulog_device::thrust::sort::lexicographic_sort_indices;
use gpulog_device::thrust::transform::{gather_rows, invert_permutation, invert_permutation_into};
use gpulog_device::{Device, DeviceBuffer, DeviceResult, PhaseTimer};

/// A relation stored as a hash-indexed sorted array.
///
/// # Examples
///
/// ```
/// use gpulog_device::{Device, profile::DeviceProfile};
/// use gpulog_hisa::{Hisa, IndexSpec};
///
/// # fn main() -> Result<(), gpulog_device::DeviceError> {
/// let device = Device::new(DeviceProfile::default());
/// // Edge(from, to) keyed on `from`.
/// let spec = IndexSpec::new(2, vec![0]);
/// let edges = [0u32, 1, 0, 2, 1, 3, 0, 1]; // (0,1) appears twice
/// let hisa = Hisa::build(&device, spec, &edges)?;
/// assert_eq!(hisa.len(), 3); // deduplicated
/// let from_zero: Vec<_> = hisa.range_query(&[0]).collect();
/// assert_eq!(from_zero.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Hisa {
    spec: IndexSpec,
    device: Device,
    /// Key-first, row-major tuple storage. Contains no duplicate rows.
    data: DeviceBuffer<Value>,
    /// Positions into `data` rows, ordered lexicographically by tuple value.
    sorted_index: DeviceBuffer<u32>,
    /// Inverse of `sorted_index`: `pos_in_sorted[row]` is the sorted-index
    /// position holding `row`. Lets the hash layer store stable data-array
    /// row ids (rows never move — merges concatenate) while range queries
    /// still start at exact, current sorted positions; the key enabler of
    /// incremental hash maintenance.
    pos_in_sorted: DeviceBuffer<u32>,
    hash: HashTable,
    load_factor: f64,
}

impl Hisa {
    /// Builds a HISA from row-major tuples given in their *original* column
    /// order. Duplicate tuples are removed.
    ///
    /// # Errors
    ///
    /// Returns [`gpulog_device::DeviceError::OutOfMemory`] when the relation
    /// does not fit on the device.
    ///
    /// # Panics
    ///
    /// Panics if `tuples.len()` is not a multiple of the spec's arity.
    pub fn build(device: &Device, spec: IndexSpec, tuples: &[Value]) -> DeviceResult<Self> {
        Self::sort_and_build(device, spec, tuples, DEFAULT_LOAD_FACTOR)
    }

    /// Builds a HISA from a [`TupleBatch`] with an explicit hash-table load
    /// factor, letting the batch's sorted-unique flag and the spec's
    /// permutation pick the construction path:
    ///
    /// * a flagged batch under an identity permutation (where original
    ///   order *is* key-first order) skips the sort, the dedup pass and the
    ///   compaction gather: only the hash layer is built, over an identity
    ///   sorted-index array;
    /// * a flagged batch under a permuted spec is re-indexed
    ///   ([`Hisa::build_reindexed_from_sorted_unique`]);
    /// * an unflagged batch takes the general sort + dedup build
    ///   ([`Hisa::build`]).
    ///
    /// # Errors
    ///
    /// Returns [`gpulog_device::DeviceError::OutOfMemory`] when the
    /// relation does not fit on the device, and
    /// [`gpulog_device::DeviceError::InvalidLoadFactor`] for a load factor
    /// outside `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the batch's arity differs from the spec's.
    pub fn build_from_batch(
        device: &Device,
        spec: IndexSpec,
        batch: &TupleBatch,
        load_factor: f64,
    ) -> DeviceResult<Self> {
        assert_eq!(
            batch.arity(),
            spec.arity(),
            "batch arity must match the index spec"
        );
        let identity = spec.permutation().iter().copied().eq(0..spec.arity());
        match (batch.is_sorted_unique(), identity) {
            (true, true) => Self::index_sorted(device, spec, batch.as_flat(), load_factor),
            (true, false) => {
                Self::build_reindexed_from_sorted_unique(device, spec, batch.as_flat(), load_factor)
            }
            (false, _) => Self::sort_and_build(device, spec, batch.as_flat(), load_factor),
        }
    }

    /// Re-indexes duplicate-free tuples that are already sorted in their
    /// *original* column order under `spec` — the secondary-index path of
    /// the delta merge, which re-keys a delta it holds only as a slice of
    /// its canonical index.
    ///
    /// Because the input is identity-sorted and duplicate-free, a stable
    /// sort over the key columns alone yields the full key-first
    /// lexicographic order: rows tying on every key column are ordered by
    /// their remaining columns, and the stable tie-break (input order =
    /// identity order restricted to those equal rows) is exactly that.
    /// So this skips the non-key sort passes, the dedup pass, and the
    /// compaction gather that a fresh [`Hisa::build`] would run.
    ///
    /// # Errors
    ///
    /// Returns [`gpulog_device::DeviceError::OutOfMemory`] when the
    /// relation does not fit on the device.
    ///
    /// # Panics
    ///
    /// Panics if `tuples.len()` is not a multiple of the arity. Sorted
    /// order and uniqueness are the caller's contract (checked only under
    /// `debug_assertions`).
    pub fn build_reindexed_from_sorted_unique(
        device: &Device,
        spec: IndexSpec,
        tuples: &[Value],
        load_factor: f64,
    ) -> DeviceResult<Self> {
        let arity = spec.arity();
        assert_eq!(
            tuples.len() % arity,
            0,
            "tuple buffer length must be a multiple of the arity"
        );
        debug_assert!(
            rows_are_sorted_unique(tuples, arity),
            "build_reindexed_from_sorted_unique requires identity-sorted, duplicate-free rows"
        );
        // Stable sort by the key columns only (in significance order);
        // ties keep the identity-sorted input order.
        let order = lexicographic_sort_indices(device, tuples, arity, spec.key_columns());
        let data = device.buffer_from_vec(spec.reorder_rows(tuples))?;
        let pos_in_sorted = device.buffer_from_vec(invert_permutation(device, &order))?;
        let sorted_index = device.buffer_from_vec(order)?;
        Self::with_hash_layer(device, spec, data, sorted_index, pos_in_sorted, load_factor)
    }

    /// Creates an empty HISA.
    ///
    /// # Errors
    ///
    /// Returns [`gpulog_device::DeviceError::OutOfMemory`] when even the
    /// minimal hash table does not fit (only plausible on tiny test devices).
    pub fn empty(device: &Device, spec: IndexSpec) -> DeviceResult<Self> {
        Self::build(device, spec, &[])
    }

    /// The general build: reorder the columns key-first, sort, drop
    /// duplicates, and store the unique rows in sorted order (so a fresh
    /// HISA has an identity sorted-index array).
    fn sort_and_build(
        device: &Device,
        spec: IndexSpec,
        tuples: &[Value],
        load_factor: f64,
    ) -> DeviceResult<Self> {
        assert_eq!(
            tuples.len() % spec.arity(),
            0,
            "tuple buffer length must be a multiple of the arity"
        );
        let arity = spec.arity();
        // Layer 1: reorder columns key-first and move to the device.
        let reordered = spec.reorder_rows(tuples);
        // Layer 2: sort + dedup.
        let order: Vec<usize> = (0..arity).collect();
        let sorted_all = lexicographic_sort_indices(device, &reordered, arity, &order);
        let unique = unique_sorted_positions(device, &reordered, arity, &sorted_all);
        let compacted = gather_rows(device, &reordered, arity, &unique);
        let rows = unique.len();
        let data = device.buffer_from_vec(compacted)?;
        let sorted_index = device.buffer_from_vec((0..rows as u32).collect())?;
        // Data is stored in sorted order, so position == row.
        let pos_in_sorted = device.buffer_from_vec((0..rows as u32).collect())?;
        // Layer 3: hash table over the key columns.
        Self::with_hash_layer(device, spec, data, sorted_index, pos_in_sorted, load_factor)
    }

    /// The build for rows already key-first, sorted and duplicate-free:
    /// the rows are uploaded as they are and only the hash layer is built.
    fn index_sorted(
        device: &Device,
        spec: IndexSpec,
        reordered: &[Value],
        load_factor: f64,
    ) -> DeviceResult<Self> {
        let rows = reordered.len() / spec.arity();
        let data = device.buffer_from_slice(reordered)?;
        let sorted_index = device.buffer_from_vec((0..rows as u32).collect())?;
        let pos_in_sorted = device.buffer_from_vec((0..rows as u32).collect())?;
        Self::with_hash_layer(device, spec, data, sorted_index, pos_in_sorted, load_factor)
    }

    /// Completes a build: hashes the key columns over the finished data and
    /// sorted-index layers.
    fn with_hash_layer(
        device: &Device,
        spec: IndexSpec,
        data: DeviceBuffer<Value>,
        sorted_index: DeviceBuffer<u32>,
        pos_in_sorted: DeviceBuffer<u32>,
        load_factor: f64,
    ) -> DeviceResult<Self> {
        let hash = build_hash_layer(
            device,
            &spec,
            &data,
            &sorted_index,
            pos_in_sorted.as_slice(),
            load_factor,
        )?;
        Ok(Hisa {
            spec,
            device: device.clone(),
            data,
            sorted_index,
            pos_in_sorted,
            hash,
            load_factor,
        })
    }

    /// The index specification this HISA was built with.
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// The device this HISA lives on.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Number of (distinct) tuples.
    pub fn len(&self) -> usize {
        self.data.len() / self.spec.arity()
    }

    /// Number of distinct join keys (key-column hashes) — the hash
    /// layer's entry count. `len() / key_count()` is the mean fan-out of a
    /// probe that hits.
    pub fn key_count(&self) -> usize {
        self.hash.entries()
    }

    /// `true` when the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Tuple arity.
    pub fn arity(&self) -> usize {
        self.spec.arity()
    }

    /// The hash-table load factor in use.
    pub fn load_factor(&self) -> f64 {
        self.load_factor
    }

    /// Bytes of device memory attributable to this HISA (data array, sorted
    /// index array, and hash table).
    pub fn device_bytes(&self) -> usize {
        self.data.accounted_bytes()
            + self.sorted_index.accounted_bytes()
            + self.pos_in_sorted.accounted_bytes()
            + self.hash.accounted_bytes()
    }

    /// The raw key-first data array (row-major).
    pub fn data(&self) -> &[Value] {
        self.data.as_slice()
    }

    /// The sorted index array.
    pub fn sorted_index(&self) -> &[u32] {
        self.sorted_index.as_slice()
    }

    /// One row in key-first order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row_reordered(&self, row: usize) -> &[Value] {
        let arity = self.arity();
        &self.data.as_slice()[row * arity..(row + 1) * arity]
    }

    /// One row in the relation's original column order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.spec.restore(self.row_reordered(row))
    }

    /// Iterates rows in data-array (storage) order, in original column order.
    pub fn iter_rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.len()).map(move |r| self.row(r))
    }

    /// Range query (requirement R1): yields the data-array row ids of every
    /// tuple whose key columns equal `key` (given in key-column order).
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` differs from the spec's key arity.
    pub fn range_query<'a>(&'a self, key: &'a [Value]) -> RangeQuery<'a> {
        assert_eq!(key.len(), self.spec.key_arity(), "key arity mismatch");
        RangeQuery {
            hisa: self,
            key,
            position: self
                .key_start_position(key)
                .map_or(usize::MAX, |p| p as usize),
        }
    }

    /// The rows whose leading key columns equal `key`, which may be shorter
    /// than the spec's key: the data-array row ids of every tuple whose
    /// first `key.len()` key-first columns equal `key`. A key as long as the
    /// spec's enters through the hash layer, exactly as
    /// [`Hisa::range_query`]; a shorter one enters by binary search over
    /// the sorted index (the start of [`Hisa::sorted_prefix_range`]), since
    /// lexicographic order groups every prefix of the key-first columns.
    /// On a canonical, identity-keyed HISA that lets one index answer
    /// probes on any prefix `[0..k)` of the relation's columns.
    ///
    /// # Panics
    ///
    /// Panics if `key` is longer than the spec's key.
    pub fn probe<'a>(&'a self, key: &'a [Value]) -> RangeQuery<'a> {
        if key.len() == self.spec.key_arity() {
            return self.range_query(key);
        }
        assert!(key.len() < self.spec.key_arity(), "key arity mismatch");
        let position = self
            .sorted_index
            .as_slice()
            .partition_point(|&p| self.prefix_cmp(p, key).is_lt());
        RangeQuery {
            hisa: self,
            key,
            position,
        }
    }

    /// The sorted-index position where a range query for `key` enters the
    /// relation: the hash layer's stored row resolved through the inverse
    /// permutation. For a present key this is the smallest position holding
    /// it (or, under a 64-bit hash collision, the smallest position of any
    /// colliding key — queries scan forward from there). `None` when the
    /// hash layer has no entry for the key.
    ///
    /// # Panics
    ///
    /// Panics if `key.len()` differs from the spec's key arity.
    pub fn key_start_position(&self, key: &[Value]) -> Option<u32> {
        assert_eq!(key.len(), self.spec.key_arity(), "key arity mismatch");
        self.hash
            .lookup(hash_key(key))
            .map(|row| self.pos_in_sorted.as_slice()[row as usize])
    }

    /// Whether the relation contains `tuple` (given in original column order).
    ///
    /// # Panics
    ///
    /// Panics if the tuple's arity differs from the spec's.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        let reordered = self.spec.reorder(tuple);
        let key_arity = self.spec.key_arity();
        self.range_query(&reordered[..key_arity])
            .any(|row| self.row_reordered(row as usize) == reordered.as_slice())
    }

    /// All tuples in original column order, sorted lexicographically by
    /// their key-first representation (a convenient canonical form for
    /// tests and for host-side export).
    pub fn to_sorted_tuples(&self) -> Vec<Vec<Value>> {
        self.sorted_index
            .as_slice()
            .iter()
            .map(|&p| self.row(p as usize))
            .collect()
    }

    /// Deep-copies the HISA onto fresh device buffers: data array, both
    /// index arrays, and the hash layer. This is the copy-on-write detach
    /// behind snapshot publication — a published [`Hisa`] shared with
    /// readers is cloned before the writer mutates it, so the copy must be
    /// byte-identical in every layer.
    ///
    /// # Errors
    ///
    /// Returns [`gpulog_device::DeviceError::OutOfMemory`] when the device
    /// cannot hold a second copy.
    pub fn try_clone(&self) -> DeviceResult<Self> {
        Ok(Hisa {
            spec: self.spec.clone(),
            device: self.device.clone(),
            data: self.device.buffer_from_slice(self.data.as_slice())?,
            sorted_index: self
                .device
                .buffer_from_slice(self.sorted_index.as_slice())?,
            pos_in_sorted: self
                .device
                .buffer_from_slice(self.pos_in_sorted.as_slice())?,
            hash: self.hash.try_clone()?,
            load_factor: self.load_factor,
        })
    }

    /// The half-open span of *sorted-index positions* whose rows start with
    /// `prefix`, compared in **key-first** (reordered) column order — two
    /// binary searches over the sorted index, no hash probe. On a canonical
    /// identity-keyed HISA the key-first order *is* the original column
    /// order, which is how snapshot point lookups answer prefix queries of
    /// any length (the hash layer only answers full-key probes).
    ///
    /// # Panics
    ///
    /// Panics if `prefix` is longer than the arity.
    pub fn sorted_prefix_range(&self, prefix: &[Value]) -> std::ops::Range<usize> {
        assert!(prefix.len() <= self.arity(), "prefix longer than the arity");
        let idx = self.sorted_index.as_slice();
        let lo = idx.partition_point(|&p| self.prefix_cmp(p, prefix) == std::cmp::Ordering::Less);
        let hi =
            idx.partition_point(|&p| self.prefix_cmp(p, prefix) != std::cmp::Ordering::Greater);
        lo..hi
    }

    /// The half-open span of sorted-index positions whose rows compare
    /// `>= lo` and `< hi` on their leading columns (key-first order) — the
    /// key-range scan primitive behind snapshot range queries. `lo` and
    /// `hi` may be prefixes of different lengths.
    ///
    /// # Panics
    ///
    /// Panics if either bound is longer than the arity.
    pub fn sorted_span(&self, lo: &[Value], hi: &[Value]) -> std::ops::Range<usize> {
        assert!(lo.len() <= self.arity(), "lower bound longer than arity");
        assert!(hi.len() <= self.arity(), "upper bound longer than arity");
        let idx = self.sorted_index.as_slice();
        let start = idx.partition_point(|&p| self.prefix_cmp(p, lo) == std::cmp::Ordering::Less);
        let end = idx.partition_point(|&p| self.prefix_cmp(p, hi) == std::cmp::Ordering::Less);
        start..end.max(start)
    }

    /// Rows at the given sorted-index positions, restored to original
    /// column order — pairs with [`Hisa::sorted_prefix_range`] /
    /// [`Hisa::sorted_span`] to materialize query results.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the relation's length.
    pub fn sorted_rows(
        &self,
        span: std::ops::Range<usize>,
    ) -> impl Iterator<Item = Vec<Value>> + '_ {
        self.sorted_index.as_slice()[span]
            .iter()
            .map(|&p| self.row(p as usize))
    }

    /// Compares the leading `prefix.len()` columns of data-array row `p`
    /// (key-first order) against `prefix`.
    fn prefix_cmp(&self, p: u32, prefix: &[Value]) -> std::cmp::Ordering {
        let start = p as usize * self.arity();
        self.data.as_slice()[start..start + prefix.len()].cmp(prefix)
    }

    /// Reserves device capacity for `additional_rows` more tuples in the
    /// layers [`Hisa::merge_from`] fills in place — the data array, the
    /// inverse permutation **and the hash layer** — so a later merge of up
    /// to that many rows grows none of them and rebuilds no hash table. Not
    /// the sorted index: each merge writes a fresh, exactly sized one and
    /// drops the old, so slack there would be thrown away unused. This is
    /// the hook eager buffer management uses (paper Section 5.3): reserve
    /// `k x |delta|` rows once and amortize allocation *and* rehashing.
    ///
    /// # Errors
    ///
    /// Returns [`gpulog_device::DeviceError::OutOfMemory`] if the extra
    /// capacity does not fit on the device.
    pub fn reserve_additional_rows(&mut self, additional_rows: usize) -> DeviceResult<()> {
        let arity = self.arity();
        let target_values = self.data.len() + additional_rows * arity;
        self.data.reserve_total(target_values)?;
        self.pos_in_sorted
            .reserve_total(self.pos_in_sorted.len() + additional_rows)?;
        // Worst case every reserved row introduces a distinct key; growing
        // now (power-of-two) keeps the merge itself rebuild-free. The hash
        // reservation is best-effort: it is purely an optimization, so on a
        // memory-constrained device it degrades to the overflow-rebuild
        // path inside `merge_from` (exact-size tables) instead of failing
        // a run that would otherwise fit.
        if let Ok(true) = self
            .hash
            .reserve_for_keys(self.hash.entries() + additional_rows)
        {
            self.device.metrics().add_hash_rebuild();
        }
        Ok(())
    }

    /// Releases all slack capacity back to the device — the behaviour of a
    /// non-pooled allocator that sizes every buffer exactly (the
    /// eager-buffer-management-off configuration of Table 1). The hash
    /// layer shrinks back to its minimal size too (a rehash, counted as a
    /// hash rebuild) when a reservation left it over-provisioned.
    pub fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
        self.sorted_index.shrink_to_fit();
        self.pos_in_sorted.shrink_to_fit();
        if self.hash.shrink_to_entries() {
            self.device.metrics().add_hash_rebuild();
        }
    }

    /// Merges another HISA (typically a delta relation already known to be
    /// disjoint from `self`) into this one with cost proportional to the
    /// *delta* wherever possible — the "Indexing Full" phase of the paper's
    /// Figure 6, without its O(|full|) hash rebuild:
    ///
    /// 1. the data arrays are concatenated (rows never move, so data-array
    ///    row ids stay valid);
    /// 2. the sorted index arrays are merged with the parallel merge-path
    ///    algorithm, comparing row slices in place and folding the delta's
    ///    row offset into the merge (no shifted index copy, no per-
    ///    comparison key materialisation). Where the delta is small next to
    ///    full, each merge-path partition gallops: it exponential-searches
    ///    every delta row's insertion point and block-copies the full run
    ///    before it, so the comparisons scale with the delta and only the
    ///    index copy scales with full;
    /// 3. the inverse permutation is rewritten (same streaming cost as the
    ///    index merge it follows);
    /// 4. the hash layer absorbs **only the delta's keys** through the
    ///    atomic-min insert path — every pre-existing entry stores a row id
    ///    whose current position step 3 already refreshed. A full rebuild
    ///    happens only when [`HashTable::needs_rebuild_for`] says the load
    ///    factor would be exceeded (and is avoided entirely when
    ///    [`Hisa::reserve_additional_rows`] pre-reserved hash capacity).
    ///
    /// The merge is all-or-nothing: an allocation that fails part-way
    /// undoes the steps before it without allocating, so every layer holds
    /// exactly its old contents.
    ///
    /// # Errors
    ///
    /// Returns [`gpulog_device::DeviceError::OutOfMemory`] when the merged
    /// relation or a rebuilt hash table does not fit on the device.
    ///
    /// # Panics
    ///
    /// Panics if the two HISAs have different index specifications.
    pub fn merge_from(&mut self, other: &Hisa) -> DeviceResult<()> {
        assert_eq!(
            self.spec, other.spec,
            "cannot merge HISAs with different specs"
        );
        if other.is_empty() {
            return Ok(());
        }
        let arity = self.arity();
        let old_rows = self.len();
        let delta_rows = other.len();
        // Concatenate data arrays (no deduplication needed: semi-naive
        // evaluation guarantees delta and full are disjoint).
        self.data.extend_from_slice(other.data.as_slice())?;
        // Merge sorted index arrays; other's rows live at offset old_rows,
        // which the row-slice merge folds into comparisons and output.
        let merged = {
            let _phase = PhaseTimer::new(self.device.metrics(), "merge");
            merge_sorted_index_rows(
                &self.device,
                self.sorted_index.as_slice(),
                other.sorted_index.as_slice(),
                self.data.as_slice(),
                arity,
                old_rows as u32,
            )
        };
        let merged_len = merged.len();
        debug_assert_eq!(merged_len * arity, self.data.len());
        let mut new_index = match self.device.buffer_from_vec(merged) {
            Ok(index) => index,
            Err(err) => {
                self.data.truncate(old_rows * arity);
                return Err(err);
            }
        };
        std::mem::swap(&mut self.sorted_index, &mut new_index);
        drop(new_index);
        let device = self.device.clone();
        let _phase = PhaseTimer::new(device.metrics(), "index");
        // Every position at or after the first delta insertion shifted, so
        // the inverse permutation is rewritten wholesale — an O(|full|)
        // streaming pass, like the index merge above, but confined to the
        // sorted-index layer.
        if let Err(err) = self.pos_in_sorted.resize(merged_len, 0) {
            self.unmerge(old_rows, false);
            return Err(err);
        }
        invert_permutation_into(
            &self.device,
            self.sorted_index.as_slice(),
            self.pos_in_sorted.as_mut_slice(),
        );
        // Hash maintenance: delta keys only, unless the load factor would
        // be exceeded (then a from-scratch rebuild resizes the table).
        if self.hash.needs_rebuild_for(delta_rows) {
            self.device.metrics().add_hash_rebuild();
            let rebuilt = build_hash_layer(
                &self.device,
                &self.spec,
                &self.data,
                &self.sorted_index,
                self.pos_in_sorted.as_slice(),
                self.load_factor,
            );
            match rebuilt {
                Ok(hash) => self.hash = hash,
                Err(err) => {
                    self.unmerge(old_rows, true);
                    return Err(err);
                }
            }
        } else {
            let key_arity = self.spec.key_arity();
            let data_slice = self.data.as_slice();
            let pos_slice = self.pos_in_sorted.as_slice();
            self.hash.insert_batch_min_by(
                delta_rows,
                |i| {
                    let row = (old_rows + i) * arity;
                    hash_key(&data_slice[row..row + key_arity])
                },
                |i| (old_rows + i) as u32,
                |row| pos_slice[row as usize],
            );
        }
        Ok(())
    }

    /// Undoes a [`Hisa::merge_from`] whose data and sorted-index layers
    /// already absorbed rows past `old_rows`, without allocating: the merged
    /// sorted index keeps the old rows in their old relative order, so
    /// compacting them to the front restores it, and the data array drops
    /// its appended rows. `reinvert` says the inverse permutation was
    /// already rewritten for the merged index and must be restored too.
    fn unmerge(&mut self, old_rows: usize, reinvert: bool) {
        let index = self.sorted_index.as_mut_slice();
        let mut kept = 0;
        for i in 0..index.len() {
            if (index[i] as usize) < old_rows {
                index[kept] = index[i];
                kept += 1;
            }
        }
        self.sorted_index.truncate(old_rows);
        if reinvert {
            self.pos_in_sorted.truncate(old_rows);
            invert_permutation_into(
                &self.device,
                self.sorted_index.as_slice(),
                self.pos_in_sorted.as_mut_slice(),
            );
        }
        self.data.truncate(old_rows * self.arity());
    }
}

/// Builds the open-addressing hash layer mapping each key's hash to the
/// data-array row holding its smallest sorted-index position (paper
/// Algorithm 2 with row-id values), shared by every construction path.
///
/// Values are row ids rather than positions so that later *incremental*
/// merges ([`Hisa::merge_from`]) can leave every pre-existing entry
/// untouched: rows are stable across merges, and the entry's current
/// position is recovered through `pos_in_sorted` at query time.
fn build_hash_layer(
    device: &Device,
    spec: &IndexSpec,
    data: &DeviceBuffer<Value>,
    sorted_index: &DeviceBuffer<u32>,
    pos_in_sorted: &[u32],
    load_factor: f64,
) -> DeviceResult<HashTable> {
    let rows = sorted_index.len();
    let arity = spec.arity();
    let key_arity = spec.key_arity();
    let mut hash = HashTable::with_capacity(device, rows, load_factor)?;
    let data_slice = data.as_slice();
    let sorted_slice = sorted_index.as_slice();
    hash.build_parallel_min_by(
        rows,
        |p| {
            let row = sorted_slice[p] as usize;
            hash_key(&data_slice[row * arity..row * arity + key_arity])
        },
        |p| sorted_slice[p],
        |row| pos_in_sorted[row as usize],
    );
    Ok(hash)
}

/// Iterator over the data-array row ids matching one key; produced by
/// [`Hisa::range_query`].
#[derive(Debug)]
pub struct RangeQuery<'a> {
    hisa: &'a Hisa,
    key: &'a [Value],
    position: usize,
}

impl<'a> Iterator for RangeQuery<'a> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let arity = self.hisa.arity();
        let key_arity = self.key.len();
        let sorted = self.hisa.sorted_index.as_slice();
        let data = self.hisa.data.as_slice();
        while self.position < sorted.len() {
            let row = sorted[self.position] as usize;
            let prefix = &data[row * arity..row * arity + key_arity];
            self.position += 1;
            match prefix.cmp(self.key) {
                std::cmp::Ordering::Equal => return Some(row as u32),
                std::cmp::Ordering::Greater => {
                    // Sorted order: once past the key, no more matches.
                    self.position = sorted.len();
                    return None;
                }
                std::cmp::Ordering::Less => {
                    // Hash collision landed us slightly early; keep scanning.
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_device::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    fn edge_spec() -> IndexSpec {
        IndexSpec::new(2, vec![0])
    }

    #[test]
    fn build_deduplicates_and_sorts() {
        let d = device();
        let tuples = [3u32, 4, 1, 2, 3, 4, 1, 2, 2, 9];
        let h = Hisa::build(&d, edge_spec(), &tuples).unwrap();
        assert_eq!(h.len(), 3);
        assert_eq!(
            h.to_sorted_tuples(),
            vec![vec![1, 2], vec![2, 9], vec![3, 4]]
        );
    }

    #[test]
    fn empty_relation_behaves() {
        let d = device();
        let h = Hisa::empty(&d, edge_spec()).unwrap();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.range_query(&[5]).count(), 0);
        assert!(!h.contains(&[1, 2]));
    }

    #[test]
    fn range_query_returns_all_matches_and_only_matches() {
        let d = device();
        let tuples = [
            0u32, 1, 0, 2, 1, 3, 1, 4, 1, 5, 2, 6, //
        ];
        let h = Hisa::build(&d, edge_spec(), &tuples).unwrap();
        let hits: Vec<Vec<u32>> = h.range_query(&[1]).map(|r| h.row(r as usize)).collect();
        let mut got = hits;
        got.sort();
        assert_eq!(got, vec![vec![1, 3], vec![1, 4], vec![1, 5]]);
        assert_eq!(h.range_query(&[9]).count(), 0);
    }

    #[test]
    fn range_query_with_multi_column_key() {
        let d = device();
        // 3-arity, keyed on columns (0, 1).
        let spec = IndexSpec::new(3, vec![0, 1]);
        let tuples = [1u32, 2, 10, 1, 2, 20, 1, 3, 30, 2, 2, 40];
        let h = Hisa::build(&d, spec, &tuples).unwrap();
        let mut vals: Vec<u32> = h
            .range_query(&[1, 2])
            .map(|r| h.row(r as usize)[2])
            .collect();
        vals.sort();
        assert_eq!(vals, vec![10, 20]);
    }

    #[test]
    fn key_columns_not_in_front_are_reordered_transparently() {
        let d = device();
        // Key on the *second* column of Edge(from, to).
        let spec = IndexSpec::new(2, vec![1]);
        let tuples = [1u32, 9, 2, 9, 3, 7];
        let h = Hisa::build(&d, spec, &tuples).unwrap();
        let mut froms: Vec<u32> = h.range_query(&[9]).map(|r| h.row(r as usize)[0]).collect();
        froms.sort();
        assert_eq!(froms, vec![1, 2]);
        assert!(h.contains(&[3, 7]));
        assert!(!h.contains(&[7, 3]));
    }

    #[test]
    fn contains_checks_whole_tuple() {
        let d = device();
        let h = Hisa::build(&d, edge_spec(), &[5, 6, 5, 7]).unwrap();
        assert!(h.contains(&[5, 6]));
        assert!(h.contains(&[5, 7]));
        assert!(!h.contains(&[5, 8]));
        assert!(!h.contains(&[6, 5]));
    }

    #[test]
    fn merge_concatenates_disjoint_relations() {
        let d = device();
        let mut full = Hisa::build(&d, edge_spec(), &[1, 2, 3, 4]).unwrap();
        let delta = Hisa::build(&d, edge_spec(), &[2, 3, 0, 1]).unwrap();
        full.merge_from(&delta).unwrap();
        assert_eq!(full.len(), 4);
        assert_eq!(
            full.to_sorted_tuples(),
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![3, 4]]
        );
        // Range queries still work across the merge boundary.
        assert_eq!(full.range_query(&[2]).count(), 1);
        assert!(full.contains(&[0, 1]));
    }

    #[test]
    fn merge_with_empty_delta_is_a_no_op() {
        let d = device();
        let mut full = Hisa::build(&d, edge_spec(), &[1, 2]).unwrap();
        let delta = Hisa::empty(&d, edge_spec()).unwrap();
        full.merge_from(&delta).unwrap();
        assert_eq!(full.len(), 1);
    }

    #[test]
    fn repeated_merges_preserve_sorted_index_invariant() {
        let d = device();
        let mut full = Hisa::build(&d, edge_spec(), &[10, 1]).unwrap();
        for step in 0..5u32 {
            let delta = Hisa::build(&d, edge_spec(), &[step, step + 100]).unwrap();
            full.merge_from(&delta).unwrap();
        }
        let sorted = full.to_sorted_tuples();
        let mut expected = sorted.clone();
        expected.sort();
        assert_eq!(sorted, expected, "sorted index must stay sorted");
        assert_eq!(full.len(), 6);
    }

    #[test]
    fn figure2_style_relation_indexes_by_two_columns() {
        // Mirrors Figure 2: a 3-arity relation with 2 join columns.
        let d = device();
        let spec = IndexSpec::new(3, vec![0, 1]);
        let tuples = [
            1u32, 2, 2, 1, 2, 5, 2, 3, 1, 3, 4, 1, 4, 4, 2, 5, 2, 0, 5, 2, 9,
        ];
        let h = Hisa::build(&d, spec, &tuples).unwrap();
        assert_eq!(h.len(), 7);
        let mut last: Vec<u32> = h
            .range_query(&[5, 2])
            .map(|r| h.row(r as usize)[2])
            .collect();
        last.sort();
        assert_eq!(last, vec![0, 9]);
        assert_eq!(h.range_query(&[4, 4]).count(), 1);
    }

    #[test]
    fn reserve_and_shrink_round_trip_device_accounting() {
        let d = device();
        let mut h = Hisa::build(&d, edge_spec(), &[1, 2, 3, 4]).unwrap();
        let baseline = d.tracker().in_use();
        h.reserve_additional_rows(1000).unwrap();
        assert!(d.tracker().in_use() > baseline);
        h.shrink_to_fit();
        assert!(d.tracker().in_use() <= baseline + 64);
        // The relation itself is untouched.
        assert_eq!(h.len(), 2);
        assert!(h.contains(&[1, 2]));
    }

    #[test]
    fn merge_after_reserve_does_not_grow_again() {
        let d = device();
        let mut full = Hisa::build(&d, edge_spec(), &[1, 2]).unwrap();
        full.reserve_additional_rows(16).unwrap();
        let delta = Hisa::build(&d, edge_spec(), &[3, 4, 5, 6]).unwrap();
        let capacities = |h: &Hisa| (h.data.capacity(), h.pos_in_sorted.capacity());
        let reserved = capacities(&full);
        let before = d.metrics().snapshot();
        full.merge_from(&delta).unwrap();
        let spent = d.metrics().snapshot().since(&before);
        // A merge within the reservation fills the data array, the inverse
        // and the hash layer in place; its one allocation is the merged
        // sorted index, sized exactly.
        assert_eq!(full.len(), 3);
        assert_eq!(capacities(&full), reserved, "a reserved layer grew");
        assert_eq!(spent.hash_rebuilds, 0);
        assert_eq!(spent.allocations, 1);
        assert_eq!(
            spent.bytes_allocated,
            full.sorted_index.accounted_bytes() as u64
        );
        assert_eq!(full.sorted_index.capacity(), 3);
    }

    #[test]
    fn reserve_leaves_the_sorted_index_unreserved() {
        let d = device();
        let mut h = Hisa::build(&d, edge_spec(), &[1, 2, 3, 4]).unwrap();
        let (capacity, bytes) = (h.sorted_index.capacity(), h.sorted_index.accounted_bytes());
        let data_capacity = h.data.capacity();
        h.reserve_additional_rows(1000).unwrap();
        // Every merge replaces the sorted index with a fresh, exactly
        // sized one, so slack reserved there would never be used.
        assert_eq!(h.sorted_index.capacity(), capacity);
        assert_eq!(h.sorted_index.accounted_bytes(), bytes);
        assert!(h.data.capacity() >= data_capacity + 1000 * h.arity());
        assert!(h.pos_in_sorted.capacity() >= h.len() + 1000);
    }

    #[test]
    fn try_clone_is_byte_identical_and_independent() {
        let d = device();
        let mut original = Hisa::build(&d, edge_spec(), &[3, 4, 1, 2, 3, 7, 0, 9]).unwrap();
        let in_use_before = d.tracker().in_use();
        let copy = original.try_clone().unwrap();
        assert_eq!(copy.data(), original.data());
        assert_eq!(copy.sorted_index(), original.sorted_index());
        assert_eq!(copy.len(), original.len());
        for probe in 0..10u32 {
            assert_eq!(
                copy.key_start_position(&[probe]),
                original.key_start_position(&[probe]),
                "probe {probe}"
            );
        }
        assert!(
            d.tracker().in_use() >= in_use_before + copy.device_bytes(),
            "the copy's layers must be charged against the device"
        );
        // Merging into the original must not disturb the copy.
        let delta =
            Hisa::build_reindexed_from_sorted_unique(&d, edge_spec(), &[5, 5], 0.8).unwrap();
        original.merge_from(&delta).unwrap();
        assert_eq!(original.len(), 5);
        assert_eq!(copy.len(), 4);
        assert!(!copy.contains(&[5, 5]));
    }

    #[test]
    fn sorted_prefix_range_and_span_answer_point_and_range_queries() {
        let d = device();
        let tuples = [
            0u32, 9, //
            1, 4, //
            1, 7, //
            3, 2, //
            3, 5, //
            3, 8, //
            6, 1, //
        ];
        let h = Hisa::build(&d, IndexSpec::full_key(2), &tuples).unwrap();
        // Full-row prefix: exact membership.
        assert_eq!(h.sorted_prefix_range(&[3, 5]).len(), 1);
        assert_eq!(h.sorted_prefix_range(&[3, 6]).len(), 0);
        // One-column prefix: a point lookup on the leading key.
        let threes: Vec<Vec<u32>> = h.sorted_rows(h.sorted_prefix_range(&[3])).collect();
        assert_eq!(threes, vec![vec![3, 2], vec![3, 5], vec![3, 8]]);
        assert_eq!(h.sorted_prefix_range(&[2]).len(), 0);
        // Empty prefix covers everything.
        assert_eq!(h.sorted_prefix_range(&[]), 0..7);
        // Key-range scan: [1, 3) on the first column, then a mixed-depth
        // span reaching into the second column.
        let scanned: Vec<Vec<u32>> = h.sorted_rows(h.sorted_span(&[1], &[3])).collect();
        assert_eq!(scanned, vec![vec![1, 4], vec![1, 7]]);
        let deep: Vec<Vec<u32>> = h.sorted_rows(h.sorted_span(&[3, 5], &[6])).collect();
        assert_eq!(deep, vec![vec![3, 5], vec![3, 8]]);
        // An inverted range is empty, not a panic.
        assert_eq!(h.sorted_span(&[6], &[1]).len(), 0);
    }

    /// A probe of the canonical index by a prefix `[0..k)` answers like a
    /// range query on an index built on that prefix: at arity 2 and 3, for
    /// every prefix length, present and absent keys, over a canonical that
    /// absorbed three merges (so its sorted index is no longer the
    /// identity), and over an empty relation.
    #[test]
    fn prefix_probes_of_the_canonical_match_an_index_on_the_prefix() {
        let d = device();
        for arity in [2usize, 3] {
            // Every tuple over small domains, leading value 3 left out so a
            // one-column key can miss in the middle of the order.
            let mut tuples: Vec<Vec<u32>> = vec![Vec::new()];
            for domain in [0..6u32, 0..5, 0..3].into_iter().take(arity) {
                tuples = tuples
                    .iter()
                    .flat_map(|t| domain.clone().map(move |v| [t.as_slice(), &[v]].concat()))
                    .filter(|t| t[0] != 3)
                    .collect();
            }
            // Four interleaved runs: each later run's rows sort between
            // the earlier ones'.
            let run = |j: usize| -> Vec<u32> {
                tuples
                    .iter()
                    .skip(j)
                    .step_by(4)
                    .flatten()
                    .copied()
                    .collect()
            };
            let spec = IndexSpec::full_key(arity);
            let mut canonical = Hisa::build(&d, spec.clone(), &run(0)).unwrap();
            for j in 1..4 {
                canonical
                    .merge_from(&Hisa::build(&d, spec.clone(), &run(j)).unwrap())
                    .unwrap();
            }
            let identity: Vec<u32> = (0..canonical.len() as u32).collect();
            assert_ne!(canonical.sorted_index(), identity.as_slice());
            let empty = Hisa::empty(&d, spec).unwrap();
            let all: Vec<u32> = tuples.iter().flatten().copied().collect();
            for k in 1..=arity {
                let by_prefix =
                    Hisa::build(&d, IndexSpec::new(arity, (0..k).collect()), &all).unwrap();
                // Keys over domains one wider than the data's: some miss.
                let mut keys: Vec<Vec<u32>> = vec![Vec::new()];
                for domain in [0..8u32, 0..6, 0..4].into_iter().take(k) {
                    keys = keys
                        .iter()
                        .flat_map(|t| domain.clone().map(move |v| [t.as_slice(), &[v]].concat()))
                        .collect();
                }
                let mut hits = 0;
                for key in &keys {
                    let got: Vec<Vec<u32>> = canonical
                        .probe(key)
                        .map(|r| canonical.row(r as usize))
                        .collect();
                    let want: Vec<Vec<u32>> = by_prefix
                        .range_query(key)
                        .map(|r| by_prefix.row(r as usize))
                        .collect();
                    assert_eq!(got, want, "arity {arity}, key {key:?}");
                    hits += usize::from(!got.is_empty());
                    assert_eq!(empty.probe(key).count(), 0);
                }
                assert!(0 < hits && hits < keys.len(), "arity {arity}, k {k}");
            }
        }
    }

    #[test]
    fn device_bytes_accounts_all_three_layers() {
        let d = device();
        let h = Hisa::build(&d, edge_spec(), &[1, 2, 3, 4, 5, 6]).unwrap();
        assert!(h.device_bytes() > 0);
        assert!(d.tracker().in_use() >= h.device_bytes());
    }

    #[test]
    fn build_from_sorted_unique_matches_general_build() {
        let d = device();
        // Already sorted, unique, key-first (key = column 0, identity perm).
        let tuples = [1u32, 2, 2, 9, 3, 4, 3, 7];
        let batch = TupleBatch::from_sorted_unique_flat(2, tuples.to_vec());
        let fast = Hisa::build_from_batch(&d, edge_spec(), &batch, 0.8).unwrap();
        let general = Hisa::build(&d, edge_spec(), &tuples).unwrap();
        assert_eq!(fast.to_sorted_tuples(), general.to_sorted_tuples());
        assert_eq!(fast.range_query(&[3]).count(), 2);
        assert!(fast.contains(&[2, 9]));
        assert!(!fast.contains(&[9, 2]));
    }

    #[test]
    fn build_from_sorted_unique_of_empty_input() {
        let d = device();
        let h = Hisa::build_from_batch(&d, edge_spec(), &TupleBatch::empty(2), 0.8).unwrap();
        assert!(h.is_empty());
        assert_eq!(h.range_query(&[1]).count(), 0);
    }

    #[test]
    fn reindexed_build_agrees_with_general_build_on_secondary_keys() {
        let d = device();
        // Identity-sorted unique tuples; re-key on the second column.
        let tuples = [0u32, 9, 1, 4, 2, 9, 3, 4, 4, 1];
        for key in [vec![1usize], vec![1, 0]] {
            let spec = IndexSpec::new(2, key.clone());
            let fast =
                Hisa::build_reindexed_from_sorted_unique(&d, spec.clone(), &tuples, 0.8).unwrap();
            let general = Hisa::build(&d, spec, &tuples).unwrap();
            assert_eq!(
                fast.to_sorted_tuples(),
                general.to_sorted_tuples(),
                "key {key:?}"
            );
        }
        let spec = IndexSpec::new(2, vec![1]);
        let fast = Hisa::build_reindexed_from_sorted_unique(&d, spec, &tuples, 0.8).unwrap();
        let mut froms: Vec<u32> = fast
            .range_query(&[9])
            .map(|r| fast.row(r as usize)[0])
            .collect();
        froms.sort();
        assert_eq!(froms, vec![0, 2]);
    }

    #[test]
    fn reindexed_build_supports_wider_arities_and_multi_column_keys() {
        let d = device();
        // Arity 3, identity-sorted, unique; key on columns (2, 0).
        let tuples = [
            0u32, 5, 1, //
            1, 4, 1, //
            1, 4, 2, //
            2, 0, 1, //
            2, 1, 1, //
        ];
        let spec = IndexSpec::new(3, vec![2, 0]);
        let fast =
            Hisa::build_reindexed_from_sorted_unique(&d, spec.clone(), &tuples, 0.8).unwrap();
        let general = Hisa::build(&d, spec, &tuples).unwrap();
        assert_eq!(fast.to_sorted_tuples(), general.to_sorted_tuples());
        assert_eq!(fast.range_query(&[1, 2]).count(), 2);
    }

    #[test]
    fn merged_hisa_accepts_reindexed_deltas() {
        let d = device();
        let spec = IndexSpec::new(2, vec![1]);
        let mut full =
            Hisa::build_reindexed_from_sorted_unique(&d, spec.clone(), &[1, 2, 3, 4], 0.8).unwrap();
        let delta = Hisa::build_reindexed_from_sorted_unique(&d, spec, &[0, 2, 5, 4], 0.8).unwrap();
        full.merge_from(&delta).unwrap();
        assert_eq!(full.len(), 4);
        assert_eq!(full.range_query(&[2]).count(), 2);
        assert_eq!(full.range_query(&[4]).count(), 2);
        let sorted = full.to_sorted_tuples();
        let mut expected = sorted.clone();
        expected.sort_by_key(|t| (t[1], t[0]));
        assert_eq!(sorted, expected, "sorted index must follow the key order");
    }

    #[test]
    fn build_from_batch_dispatches_on_the_sorted_unique_flag() {
        let d = device();
        // Sorted-unique batch + identity permutation: fast path.
        let sorted = TupleBatch::from_sorted_unique_flat(2, vec![1, 2, 2, 9, 3, 4]);
        let fast = Hisa::build_from_batch(&d, edge_spec(), &sorted, 0.8).unwrap();
        // Unsorted batch: general path must sort and deduplicate.
        let messy = TupleBatch::new(2, vec![3, 4, 1, 2, 2, 9, 1, 2]);
        let general = Hisa::build_from_batch(&d, edge_spec(), &messy, 0.8).unwrap();
        assert_eq!(fast.to_sorted_tuples(), general.to_sorted_tuples());
        // Sorted-unique batch under a *permuted* spec cannot take the fast
        // path (original order is not key-first order there): it re-indexes.
        let spec = IndexSpec::new(2, vec![1]);
        let permuted = Hisa::build_from_batch(&d, spec.clone(), &sorted, 0.8).unwrap();
        let reference = Hisa::build(&d, spec, sorted.as_flat()).unwrap();
        assert_eq!(permuted.to_sorted_tuples(), reference.to_sorted_tuples());
    }

    /// The device counters one build charges, in the order
    /// `[bytes_read, bytes_written, kernel_launches, sort_passes,
    /// allocations, bytes_allocated]`.
    fn charged(d: &Device, build: impl FnOnce() -> Hisa) -> (Hisa, [u64; 6]) {
        let before = d.metrics().snapshot();
        let hisa = build();
        let c = d.metrics().snapshot().since(&before);
        let counters = [
            c.bytes_read,
            c.bytes_written,
            c.kernel_launches,
            c.sort_passes,
            c.allocations,
            c.bytes_allocated,
        ];
        (hisa, counters)
    }

    #[test]
    fn build_from_batch_paths_answer_like_a_general_build_and_charge_their_own_path() {
        let d = Device::with_workers(DeviceProfile::nvidia_h100(), 1);
        // Over 64 rows with values past one radix byte, so the sorts below
        // run real counting passes rather than an insertion sort.
        let rows: Vec<u32> = (0..300u32)
            .flat_map(|i| [i * 7 % 1009, (i * 613) % 4099])
            .collect();
        let reference_rows = |spec: &IndexSpec| {
            let general = Hisa::build(&d, spec.clone(), &rows).unwrap();
            let keys: Vec<Vec<u32>> = (0..4099u32)
                .step_by(7)
                .map(|v| vec![v; spec.key_arity()])
                .collect();
            let answers: Vec<Vec<Vec<u32>>> = keys
                .iter()
                .map(|key| {
                    let mut hits: Vec<Vec<u32>> = general
                        .range_query(key)
                        .map(|r| general.row(r as usize))
                        .collect();
                    hits.sort();
                    hits
                })
                .collect();
            (keys, answers)
        };
        let lookups_agree = |hisa: &Hisa, spec: &IndexSpec| {
            let (keys, answers) = reference_rows(spec);
            for (key, expected) in keys.iter().zip(&answers) {
                let mut hits: Vec<Vec<u32>> = hisa
                    .range_query(key)
                    .map(|r| hisa.row(r as usize))
                    .collect();
                hits.sort();
                assert_eq!(&hits, expected, "spec {spec:?} key {key:?}");
            }
            assert_eq!(hisa.len(), 300);
        };
        let mut sorted_rows: Vec<Vec<u32>> = rows.chunks(2).map(<[u32]>::to_vec).collect();
        sorted_rows.sort();
        let sorted = TupleBatch::from_sorted_unique_flat(2, sorted_rows.concat());
        let unsorted = TupleBatch::new(2, rows.clone());
        for spec in [IndexSpec::new(2, vec![0]), IndexSpec::new(2, vec![1])] {
            let identity = spec.key_columns() == [0];
            // Sorted-unique: the identity spec uploads the rows and hashes
            // them (one kernel launch, no sort); the permuted one charges
            // exactly the re-index build.
            let (fast, got) = charged(&d, || {
                Hisa::build_from_batch(&d, spec.clone(), &sorted, DEFAULT_LOAD_FACTOR).unwrap()
            });
            lookups_agree(&fast, &spec);
            if identity {
                // What the sort/dedup-free build has always charged for
                // these rows: the upload and the hash layer, no sort.
                assert_eq!(got, [4800, 8544, 1, 0, 4, 10944], "fast path charges");
            } else {
                let (_, reindex) = charged(&d, || {
                    Hisa::build_reindexed_from_sorted_unique(
                        &d,
                        spec.clone(),
                        sorted.as_flat(),
                        DEFAULT_LOAD_FACTOR,
                    )
                    .unwrap()
                });
                assert_eq!(got, reindex, "permuted sorted batch charges the re-index");
                assert!(got[3] > 0, "the re-index sorts its key column");
            }
            // Unflagged: exactly the general build (which sorts).
            let (general, got) = charged(&d, || {
                Hisa::build_from_batch(&d, spec.clone(), &unsorted, DEFAULT_LOAD_FACTOR).unwrap()
            });
            lookups_agree(&general, &spec);
            let (_, reference) = charged(&d, || Hisa::build(&d, spec.clone(), &rows).unwrap());
            assert_eq!(got, reference, "unsorted batch charges the general build");
            assert!(got[3] > 0 && got[2] == 8);
        }
    }

    /// A merge that runs out of device memory at any of its allocations
    /// leaves all four layers exactly as they were, and a later merge of
    /// the same delta succeeds.
    #[test]
    fn a_merge_that_runs_out_of_memory_changes_no_layer() {
        let full_rows: Vec<u32> = (0..200u32).flat_map(|i| [i % 37, i]).collect();
        let delta_rows: Vec<u32> = (200..400u32).flat_map(|i| [i % 41, i]).collect();
        let layers = |h: &Hisa| {
            let mut hash: Vec<(u64, u32)> = h.hash.iter_entries().collect();
            hash.sort_unstable();
            (
                h.data().to_vec(),
                h.sorted_index().to_vec(),
                h.pos_in_sorted.to_vec(),
                hash,
            )
        };
        let d = Device::with_workers(DeviceProfile::tiny_test_device(1 << 20), 2);
        let mut failures = 0;
        for slack in (0..).map(|step| step * 32) {
            let mut full = Hisa::build(&d, edge_spec(), &full_rows).unwrap();
            let delta = Hisa::build(&d, edge_spec(), &delta_rows).unwrap();
            let before = layers(&full);
            let free = d.profile().memory_capacity_bytes - d.tracker().in_use();
            let ballast = d
                .buffer_filled(free.saturating_sub(slack) / 4, 0u32)
                .unwrap();
            if full.merge_from(&delta).is_ok() {
                break;
            }
            failures += 1;
            assert_eq!(layers(&full), before, "slack {slack}: a layer changed");
            drop(ballast);
            full.merge_from(&delta).unwrap();
            let all: Vec<u32> = full_rows.iter().chain(&delta_rows).copied().collect();
            let fresh = Hisa::build(&d, edge_spec(), &all).unwrap();
            assert_eq!(full.to_sorted_tuples(), fresh.to_sorted_tuples());
            for key in 0..41u32 {
                assert_eq!(
                    full.range_query(&[key]).count(),
                    fresh.range_query(&[key]).count(),
                    "slack {slack}: key {key}"
                );
            }
        }
        assert!(failures > 10, "the sweep must cross every merge allocation");
    }

    #[test]
    fn merge_with_reserved_headroom_performs_zero_hash_rebuilds() {
        let d = device();
        let mut full = Hisa::build(&d, edge_spec(), &[1, 2, 3, 4]).unwrap();
        // Headroom for every delta below: the merge loop must stay on the
        // incremental path, inserting exactly Σ|delta| keys.
        full.reserve_additional_rows(64).unwrap();
        let before = d.metrics().snapshot();
        let mut merged_rows = 0u64;
        for step in 0..8u32 {
            let delta = Hisa::build(
                &d,
                edge_spec(),
                &[100 + step, step, 200 + step, step], // 2 rows per delta
            )
            .unwrap();
            merged_rows += delta.len() as u64;
            full.merge_from(&delta).unwrap();
        }
        let spent = d.metrics().snapshot().since(&before);
        assert_eq!(spent.hash_rebuilds, 0, "headroom must avoid all rebuilds");
        assert_eq!(
            spent.hash_inserts, merged_rows,
            "hash writes must be proportional to Σ|delta|"
        );
        assert_eq!(full.len(), 2 + merged_rows as usize);
        for step in 0..8u32 {
            assert!(full.contains(&[100 + step, step]));
            assert!(full.contains(&[200 + step, step]));
        }
    }

    #[test]
    fn overloaded_merge_rebuilds_the_hash_layer_and_stays_correct() {
        let d = device();
        // Tiny full: its hash table is minimal (8 slots), so a 100-row
        // delta must trip the load factor and take the rebuild path.
        let mut full = Hisa::build(&d, edge_spec(), &[1, 2]).unwrap();
        let delta_tuples: Vec<u32> = (0..100u32).flat_map(|i| [i + 10, i]).collect();
        let delta = Hisa::build(&d, edge_spec(), &delta_tuples).unwrap();
        let before = d.metrics().snapshot();
        full.merge_from(&delta).unwrap();
        assert!(
            d.metrics().snapshot().since(&before).hash_rebuilds >= 1,
            "an overflowing merge must rebuild"
        );
        // The rebuilt layer answers exactly like a fresh general build.
        let mut union = vec![1u32, 2];
        union.extend_from_slice(&delta_tuples);
        let fresh = Hisa::build(&d, edge_spec(), &union).unwrap();
        assert_eq!(full.to_sorted_tuples(), fresh.to_sorted_tuples());
        for key in 0..120u32 {
            assert_eq!(
                full.key_start_position(&[key]),
                fresh.key_start_position(&[key]),
                "key {key}"
            );
        }
    }

    #[test]
    fn incremental_merges_are_lookup_for_lookup_identical_to_fresh_builds() {
        let d = device();
        // Interleave same-key tuples across full and deltas so merges both
        // add new keys and lower existing keys' first positions.
        let mut full = Hisa::build(&d, edge_spec(), &[5, 0, 9, 1]).unwrap();
        full.reserve_additional_rows(256).unwrap();
        let mut union: Vec<u32> = vec![5, 0, 9, 1];
        let merge_fresh = |full: &mut Hisa, union: &mut Vec<u32>, delta_tuples: &[u32]| {
            // Deduplicate against what's already merged (semi-naive
            // contract: delta and full are disjoint).
            let fresh_rows: Vec<u32> = delta_tuples
                .chunks(2)
                .filter(|row| !full.contains(row))
                .flatten()
                .copied()
                .collect();
            if fresh_rows.is_empty() {
                return;
            }
            let delta = Hisa::build(&d, edge_spec(), &fresh_rows).unwrap();
            full.merge_from(&delta).unwrap();
            union.extend_from_slice(&fresh_rows);
        };
        for step in 1..6u32 {
            let delta_tuples: Vec<u32> = (0..10u32)
                .flat_map(|i| [(i * 7 + step) % 13, 50 + step * 10 + i])
                .collect();
            merge_fresh(&mut full, &mut union, &delta_tuples);
        }
        // Grow full to ~2k rows, then merge tiny deltas landing at its
        // start, middle and end, so the index merge gallops.
        let bulk: Vec<u32> = (0..2000u32).flat_map(|k| [k % 13, 1000 + k]).collect();
        merge_fresh(&mut full, &mut union, &bulk);
        for tiny in [&[0, 0][..], &[6, 500], &[20, 7], &[12, 99_999, 3, 2, 13, 0]] {
            merge_fresh(&mut full, &mut union, tiny);
        }
        let fresh = Hisa::build(&d, edge_spec(), &union).unwrap();
        assert_eq!(full.to_sorted_tuples(), fresh.to_sorted_tuples());
        for key in 0..24u32 {
            assert_eq!(
                full.key_start_position(&[key]),
                fresh.key_start_position(&[key]),
                "start position for key {key}"
            );
            let a: Vec<Vec<u32>> = full
                .range_query(&[key])
                .map(|r| full.row(r as usize))
                .collect();
            let b: Vec<Vec<u32>> = fresh
                .range_query(&[key])
                .map(|r| fresh.row(r as usize))
                .collect();
            let (mut a, mut b) = (a, b);
            a.sort();
            b.sort();
            assert_eq!(a, b, "range query for key {key}");
        }
    }

    #[test]
    fn key_count_is_the_exact_distinct_key_count_through_every_layer_change() {
        use std::collections::HashSet;
        let distinct_keys = |h: &Hisa| {
            h.iter_rows()
                .map(|row| row[0])
                .collect::<HashSet<_>>()
                .len()
        };
        // 20k rows over 1 009 keys, with duplicates: enough rows that the
        // hash build fans out over every worker.
        let rows: Vec<u32> = (0..20_000u32).flat_map(|i| [i % 1009, i % 7919]).collect();
        for workers in [1, 4] {
            let d = Device::with_workers(DeviceProfile::nvidia_h100(), workers);
            let batch = TupleBatch::new(2, rows.clone());
            let mut full =
                Hisa::build_from_batch(&d, edge_spec(), &batch, DEFAULT_LOAD_FACTOR).unwrap();
            assert_eq!(full.key_count(), 1009, "{workers} workers");
            assert_eq!(full.key_count(), distinct_keys(&full));
            // The sorted-unique fast path counts the same keys.
            let sorted = TupleBatch::from_sorted_unique_flat(2, full.data().to_vec());
            let fast =
                Hisa::build_from_batch(&d, edge_spec(), &sorted, DEFAULT_LOAD_FACTOR).unwrap();
            assert_eq!(fast.key_count(), 1009);

            // A delta holding 200 known keys and 300 fresh ones, merged
            // incrementally into reserved headroom, then shrunk back.
            let delta_rows: Vec<u32> = (0..500u32).flat_map(|i| [809 + i, 9000 + i]).collect();
            let delta = Hisa::build(&d, edge_spec(), &delta_rows).unwrap();
            assert_eq!(delta.key_count(), 500);
            let rebuilds = d.metrics().snapshot().hash_rebuilds;
            full.reserve_additional_rows(40_000).unwrap();
            assert_eq!(d.metrics().snapshot().hash_rebuilds, rebuilds + 1);
            assert_eq!(full.key_count(), 1009, "a growth rehash keeps the count");
            full.merge_from(&delta).unwrap();
            assert_eq!(full.key_count(), 1309);
            assert_eq!(full.key_count(), distinct_keys(&full));
            full.shrink_to_fit();
            assert_eq!(d.metrics().snapshot().hash_rebuilds, rebuilds + 2);
            assert_eq!(full.key_count(), 1309, "a shrink rehash keeps the count");

            // A 100-row table absorbing 4 000 more rows overflows its load
            // factor, so the merge rebuilds the hash layer from scratch.
            let mut tight = Hisa::build(&d, edge_spec(), &rows[..200]).unwrap();
            let wide: Vec<u32> = (0..4_000u32).flat_map(|i| [5000 + i, i]).collect();
            let rebuilds = d.metrics().snapshot().hash_rebuilds;
            tight
                .merge_from(&Hisa::build(&d, edge_spec(), &wide).unwrap())
                .unwrap();
            assert_eq!(d.metrics().snapshot().hash_rebuilds, rebuilds + 1);
            assert_eq!(tight.key_count(), 4100, "an overflow rebuild recounts");
            assert_eq!(tight.key_count(), distinct_keys(&tight));
        }
    }

    #[test]
    #[should_panic(expected = "key arity mismatch")]
    fn range_query_rejects_wrong_key_arity() {
        let d = device();
        let h = Hisa::build(&d, edge_spec(), &[1, 2]).unwrap();
        let _ = h.range_query(&[1, 2]).count();
    }
}
