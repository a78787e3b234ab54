//! The open-addressing hash table layer of HISA (paper Section 4.3).
//!
//! Keys are 64-bit hashes of a tuple's join-column values; values are
//! opaque 32-bit payloads with "keep the minimum" semantics (the paper's
//! Algorithm 2). HISA stores stable data-array row ids ranked through a
//! caller-supplied position closure ([`HashTable::insert_min_by`]; ranking
//! a value by itself is the paper's atomic minimum), which is what makes
//! *incremental* maintenance possible: merged-in deltas insert only their
//! own keys ([`HashTable::insert_batch_min_by`]) while every existing entry
//! stays valid. Construction is lock-free and data-parallel: slots are claimed
//! with compare-and-swap and values lowered with CAS loops.

use gpulog_device::atomic::{claim_key_slot, EMPTY_KEY, EMPTY_VALUE};
use gpulog_device::{Device, DeviceResult};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Default hash-table load factor (the paper runs HISA at 0.8, Section 6.4).
pub const DEFAULT_LOAD_FACTOR: f64 = 0.8;

/// Lock-free open-addressing hash table with linear probing.
#[derive(Debug)]
pub struct HashTable {
    keys: Vec<AtomicU64>,
    values: Vec<AtomicU32>,
    capacity: usize,
    entries: usize,
    load_factor: f64,
    device: Device,
    accounted_bytes: usize,
}

impl HashTable {
    /// Creates a table sized for `expected_keys` distinct keys at the given
    /// load factor.
    ///
    /// # Errors
    ///
    /// Returns [`gpulog_device::DeviceError::InvalidLoadFactor`] if
    /// `load_factor` is outside `(0, 1]` — including zero, negatives, NaN,
    /// and infinities, any of which would size a zero-slot or absurdly
    /// oversized table — and
    /// [`gpulog_device::DeviceError::OutOfMemory`] if the table does not
    /// fit on the device.
    pub fn with_capacity(
        device: &Device,
        expected_keys: usize,
        load_factor: f64,
    ) -> DeviceResult<Self> {
        // NaN fails both comparisons, so it lands here too.
        if !(load_factor > 0.0 && load_factor <= 1.0) {
            return Err(gpulog_device::DeviceError::InvalidLoadFactor {
                value: format!("{load_factor}"),
            });
        }
        let capacity = Self::capacity_for(expected_keys, load_factor);
        let bytes = capacity * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>());
        device.tracker().allocate(bytes, false)?;
        device.metrics().add_bytes_written(bytes as u64);
        let keys = (0..capacity).map(|_| AtomicU64::new(EMPTY_KEY)).collect();
        let values = (0..capacity).map(|_| AtomicU32::new(EMPTY_VALUE)).collect();
        Ok(HashTable {
            keys,
            values,
            capacity,
            entries: 0,
            load_factor,
            device: device.clone(),
            accounted_bytes: bytes,
        })
    }

    /// Deep-copies the table: a fresh device allocation holding the same
    /// slots. Snapshot publication relies on this to detach a shared hash
    /// layer before mutating it (copy-on-write), so the copy must be
    /// byte-identical — every claimed slot keeps its key hash and payload,
    /// and probing order is preserved because capacity is carried over.
    ///
    /// # Errors
    ///
    /// Returns [`gpulog_device::DeviceError::OutOfMemory`] if the device
    /// cannot hold a second copy of the table.
    pub fn try_clone(&self) -> DeviceResult<Self> {
        self.device
            .tracker()
            .allocate(self.accounted_bytes, false)?;
        self.device
            .metrics()
            .add_bytes_written(self.accounted_bytes as u64);
        let keys = self
            .keys
            .iter()
            .map(|k| AtomicU64::new(k.load(Ordering::Relaxed)))
            .collect();
        let values = self
            .values
            .iter()
            .map(|v| AtomicU32::new(v.load(Ordering::Relaxed)))
            .collect();
        Ok(HashTable {
            keys,
            values,
            capacity: self.capacity,
            entries: self.entries,
            load_factor: self.load_factor,
            device: self.device.clone(),
            accounted_bytes: self.accounted_bytes,
        })
    }

    /// The slot count a table sized for `expected_keys` at `load_factor`
    /// would use. The raw ratio is clamped below `2^62` before the
    /// power-of-two round-up so an extreme `expected_keys / load_factor`
    /// ratio saturates into an allocation the memory tracker rejects as
    /// out-of-memory instead of overflowing `next_power_of_two`.
    fn capacity_for(expected_keys: usize, load_factor: f64) -> usize {
        // Low enough that `capacity * 12` bytes cannot overflow `usize`.
        const MAX_SLOTS: f64 = (1u64 << 58) as f64;
        let raw = (expected_keys.max(1) as f64 / load_factor).ceil();
        (raw.min(MAX_SLOTS) as usize).next_power_of_two().max(8)
    }

    /// Number of slots in the table.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct keys inserted. Exact, even under concurrency:
    /// every distinct key claims its slot exactly once (a compare-and-swap
    /// on the empty key), the bulk builds recount the claimed slots,
    /// [`HashTable::insert_batch_min_by`] adds the claims it won, and
    /// rehashes carry the count over. The shared-reference single-key
    /// insert ([`HashTable::insert_min_by`]) cannot update it; callers
    /// using it directly refresh it with [`HashTable::recount_entries`].
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// The load factor the table was sized for.
    pub fn load_factor(&self) -> f64 {
        self.load_factor
    }

    /// Bytes charged against the device for this table.
    pub fn accounted_bytes(&self) -> usize {
        self.accounted_bytes
    }

    /// Whether inserting `additional` more distinct keys would push the table
    /// past its configured load factor.
    pub fn needs_rebuild_for(&self, additional: usize) -> bool {
        (self.entries + additional) as f64 > self.capacity as f64 * self.load_factor
    }

    /// Inserts `(key_hash, value)` keeping, per key, the value whose
    /// `pos_of` rank is smallest — the atomic-min insert path of incremental
    /// index maintenance. HISA stores data-array **row ids** here (stable
    /// across merges, which only concatenate the data array) and ranks them
    /// by their *current* sorted-index position, so the comparison is always
    /// against fresh positions even when the stored value predates many
    /// merges. Returns whether a fresh slot was claimed.
    ///
    /// Safe to call concurrently from many device threads, provided `pos_of`
    /// is stable for the duration of the call (it is: the engine never
    /// merges and probes the same HISA concurrently).
    pub fn insert_min_by<P>(&self, key_hash: u64, value: u32, pos_of: &P) -> bool
    where
        P: Fn(u32) -> u32,
    {
        let mask = self.capacity - 1;
        let mut slot = (key_hash as usize) & mask;
        loop {
            match claim_key_slot(&self.keys[slot], key_hash) {
                Ok(claimed_new) => {
                    let cell = &self.values[slot];
                    let mut current = cell.load(Ordering::Acquire);
                    loop {
                        if current != EMPTY_VALUE && pos_of(current) <= pos_of(value) {
                            break;
                        }
                        match cell.compare_exchange_weak(
                            current,
                            value,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => break,
                            Err(observed) => current = observed,
                        }
                    }
                    return claimed_new;
                }
                Err(_other_key) => {
                    slot = (slot + 1) & mask;
                }
            }
        }
    }

    /// Looks up a key hash, returning the smallest sorted-index position
    /// associated with it.
    pub fn lookup(&self, key_hash: u64) -> Option<u32> {
        let mask = self.capacity - 1;
        let mut slot = (key_hash as usize) & mask;
        loop {
            let k = self.keys[slot].load(Ordering::Acquire);
            if k == key_hash {
                let v = self.values[slot].load(Ordering::Acquire);
                return if v == EMPTY_VALUE { None } else { Some(v) };
            }
            if k == EMPTY_KEY {
                return None;
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Data-parallel bulk construction with caller-defined values and
    /// ranking: for every `p` in `0..positions`, inserts
    /// `(key_hash_of(p), value_of(p))` keeping per key the value of
    /// smallest `pos_of` rank (see [`HashTable::insert_min_by`]).
    pub fn build_parallel_min_by<H, V, P>(
        &mut self,
        positions: usize,
        key_hash_of: H,
        value_of: V,
        pos_of: P,
    ) where
        H: Fn(usize) -> u64 + Sync,
        V: Fn(usize) -> u32 + Sync,
        P: Fn(u32) -> u32 + Sync,
    {
        let metrics = self.device.metrics();
        metrics.add_atomic_ops(positions as u64 * 2);
        metrics.add_bytes_read(positions as u64 * 16);
        let this = &*self;
        self.device.launch("hash-build", positions, |p| {
            this.insert_min_by(key_hash_of(p), value_of(p), &pos_of);
        });
        self.recount_entries();
    }

    /// Incremental data-parallel insertion of `count` delta entries into an
    /// **existing** table — the merge-phase fast path that replaces a full
    /// rebuild. Unlike the `build_parallel_min_by` constructor it never rescans
    /// the table: newly claimed slots are counted on the fly and folded into
    /// [`HashTable::entries`], so the whole operation is O(count). Returns
    /// the number of freshly claimed keys.
    ///
    /// The caller is responsible for checking
    /// [`HashTable::needs_rebuild_for`] first; inserting past the load
    /// factor still terminates (the table never fills completely) but
    /// degrades probe lengths.
    pub fn insert_batch_min_by<H, V, P>(
        &mut self,
        count: usize,
        key_hash_of: H,
        value_of: V,
        pos_of: P,
    ) -> u64
    where
        H: Fn(usize) -> u64 + Sync,
        V: Fn(usize) -> u32 + Sync,
        P: Fn(u32) -> u32 + Sync,
    {
        if count == 0 {
            return 0;
        }
        let metrics = self.device.metrics();
        metrics.add_hash_inserts(count as u64);
        metrics.add_atomic_ops(count as u64 * 2);
        metrics.add_bytes_read(count as u64 * 16);
        metrics.add_bytes_written(count as u64 * 12);
        let claimed = std::sync::atomic::AtomicU64::new(0);
        {
            let this = &*self;
            let claimed_ref = &claimed;
            self.device.launch("hash-build", count, |p| {
                if this.insert_min_by(key_hash_of(p), value_of(p), &pos_of) {
                    claimed_ref.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let claimed = claimed.into_inner();
        self.entries += claimed as usize;
        claimed
    }

    /// Ensures the table can absorb `expected_keys` distinct keys in total
    /// without exceeding its load factor, growing (power-of-two, so repeated
    /// reservations amortise) and rehashing the existing entries when it
    /// cannot. Values are carried over verbatim — they are opaque to the
    /// table, and rehashing moves slots, not values. Returns whether a
    /// growth rehash happened; the caller decides how to account it.
    ///
    /// # Errors
    ///
    /// Returns [`gpulog_device::DeviceError::OutOfMemory`] if the grown
    /// table does not fit on the device (the table is unchanged then).
    pub fn reserve_for_keys(&mut self, expected_keys: usize) -> DeviceResult<bool> {
        if expected_keys as f64 <= self.capacity as f64 * self.load_factor {
            return Ok(false);
        }
        self.rehash_sized_for(expected_keys)?;
        Ok(true)
    }

    /// Shrinks the table back to the minimal capacity for its current entry
    /// count, releasing reservation slack — the inverse of
    /// [`HashTable::reserve_for_keys`]. Best-effort: the table is left
    /// unchanged when it is already minimal or when the (transiently
    /// coexisting) smaller table cannot be allocated. Returns whether a
    /// shrink rehash happened.
    pub fn shrink_to_entries(&mut self) -> bool {
        if Self::capacity_for(self.entries, self.load_factor) >= self.capacity {
            return false;
        }
        self.rehash_sized_for(self.entries).is_ok()
    }

    /// Replaces the table with one sized for `expected_keys`, moving every
    /// occupied `(key, value)` pair across — the shared body of growth and
    /// shrink rehashes. Values are opaque to the table and carried over
    /// verbatim. On error the table is left unchanged.
    fn rehash_sized_for(&mut self, expected_keys: usize) -> DeviceResult<()> {
        let next = HashTable::with_capacity(&self.device, expected_keys, self.load_factor)?;
        for (key, value) in self.iter_entries() {
            next.rehash_insert(key, value);
        }
        let entries = self.entries;
        *self = next;
        self.entries = entries;
        Ok(())
    }

    /// Moves one `(key, value)` pair into a freshly allocated rehash target.
    /// Keys coming from [`HashTable::iter_entries`] are unique, so the first
    /// claim wins and the value is stored directly.
    fn rehash_insert(&self, key_hash: u64, value: u32) {
        let mask = self.capacity - 1;
        let mut slot = (key_hash as usize) & mask;
        loop {
            match claim_key_slot(&self.keys[slot], key_hash) {
                Ok(_) => {
                    self.values[slot].store(value, Ordering::Release);
                    return;
                }
                Err(_other_key) => {
                    slot = (slot + 1) & mask;
                }
            }
        }
    }

    /// Recounts the number of occupied slots (used after bulk insertion).
    pub fn recount_entries(&mut self) {
        self.entries = self
            .keys
            .iter()
            .filter(|k| k.load(Ordering::Relaxed) != EMPTY_KEY)
            .count();
    }

    /// Iterates over the occupied `(key_hash, position)` pairs.
    pub fn iter_entries(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.keys
            .iter()
            .zip(self.values.iter())
            .filter_map(|(k, v)| {
                let key = k.load(Ordering::Relaxed);
                if key == EMPTY_KEY {
                    None
                } else {
                    Some((key, v.load(Ordering::Relaxed)))
                }
            })
    }
}

impl Drop for HashTable {
    fn drop(&mut self) {
        self.device.tracker().free(self.accounted_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_device::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    /// Inserts `(key_hash, position)`, keeping per key the smallest
    /// position: the atomic-min insert ranked by the value itself.
    fn insert(t: &HashTable, key_hash: u64, position: u32) -> bool {
        t.insert_min_by(key_hash, position, &|v| v)
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let d = device();
        let t = HashTable::with_capacity(&d, 100, 0.8).unwrap();
        insert(&t, 42, 7);
        insert(&t, 99, 3);
        assert_eq!(t.lookup(42), Some(7));
        assert_eq!(t.lookup(99), Some(3));
        assert_eq!(t.lookup(1000), None);
    }

    #[test]
    fn insert_keeps_smallest_position() {
        let d = device();
        let t = HashTable::with_capacity(&d, 10, 0.8).unwrap();
        insert(&t, 5, 20);
        insert(&t, 5, 7);
        insert(&t, 5, 30);
        assert_eq!(t.lookup(5), Some(7));
    }

    #[test]
    fn linear_probing_resolves_collisions() {
        let d = device();
        let t = HashTable::with_capacity(&d, 4, 1.0).unwrap();
        let cap = t.capacity() as u64;
        // Keys that collide modulo the capacity.
        insert(&t, 3, 1);
        insert(&t, 3 + cap, 2);
        insert(&t, 3 + 2 * cap, 3);
        assert_eq!(t.lookup(3), Some(1));
        assert_eq!(t.lookup(3 + cap), Some(2));
        assert_eq!(t.lookup(3 + 2 * cap), Some(3));
    }

    #[test]
    fn parallel_build_finds_minimum_position_per_key() {
        let d = device();
        let n = 10_000usize;
        // 100 distinct keys, each appearing 100 times; smallest position for
        // key k is k itself (positions are assigned round-robin).
        let mut t = HashTable::with_capacity(&d, 100, 0.8).unwrap();
        t.build_parallel_min_by(n, |p| (p % 100) as u64 + 1, |p| p as u32, |v| v);
        for k in 0..100u64 {
            assert_eq!(t.lookup(k + 1), Some(k as u32));
        }
        assert_eq!(t.entries(), 100);
    }

    #[test]
    fn insert_min_by_ranks_with_the_position_closure_not_the_value() {
        let d = device();
        let t = HashTable::with_capacity(&d, 10, 0.8).unwrap();
        // Rank is the *inverse* of the value: larger values win.
        let pos_of = |v: u32| 100 - v;
        assert!(t.insert_min_by(5, 20, &pos_of));
        assert!(!t.insert_min_by(5, 7, &pos_of));
        assert!(!t.insert_min_by(5, 30, &pos_of));
        assert_eq!(t.lookup(5), Some(30));
    }

    #[test]
    fn insert_batch_min_by_counts_fresh_keys_and_updates_entries() {
        let d = device();
        let mut t = HashTable::with_capacity(&d, 100, 0.8).unwrap();
        insert(&t, 1, 10);
        t.recount_entries();
        let before = d.metrics().snapshot();
        // Keys 1 (already present) and 2..5 (new), identity ranking.
        let claimed = t.insert_batch_min_by(5, |p| (p as u64 % 5) + 1, |p| p as u32, |v| v);
        assert_eq!(claimed, 4);
        assert_eq!(t.entries(), 5);
        assert_eq!(d.metrics().snapshot().since(&before).hash_inserts, 5);
        // Key 1 keeps its smaller original position.
        assert_eq!(t.lookup(1), Some(0));
    }

    #[test]
    fn reserve_for_keys_grows_and_preserves_lookups() {
        let d = device();
        let mut t = HashTable::with_capacity(&d, 8, 0.8).unwrap();
        for k in 0..6u64 {
            insert(&t, k + 1, k as u32 * 3);
        }
        t.recount_entries();
        let cap_before = t.capacity();
        assert!(!t.reserve_for_keys(6).unwrap(), "fits: no rehash");
        assert_eq!(t.capacity(), cap_before);
        assert!(t.reserve_for_keys(1000).unwrap(), "must grow");
        assert!(t.capacity() >= 1024);
        assert_eq!(t.entries(), 6);
        for k in 0..6u64 {
            assert_eq!(t.lookup(k + 1), Some(k as u32 * 3));
        }
        assert!(!t.needs_rebuild_for(900));
    }

    #[test]
    fn capacity_respects_load_factor() {
        let d = device();
        let t = HashTable::with_capacity(&d, 80, 0.8).unwrap();
        assert!(t.capacity() >= 100);
        assert!(!t.needs_rebuild_for(0));
    }

    #[test]
    fn drop_releases_device_memory() {
        let d = Device::new(DeviceProfile::tiny_test_device(1 << 16));
        let before = d.tracker().in_use();
        {
            let _t = HashTable::with_capacity(&d, 1000, 0.8).unwrap();
            assert!(d.tracker().in_use() > before);
        }
        assert_eq!(d.tracker().in_use(), before);
    }

    #[test]
    fn oversized_table_is_oom() {
        let d = Device::new(DeviceProfile::tiny_test_device(1 << 10));
        assert!(HashTable::with_capacity(&d, 1 << 20, 0.8).is_err());
    }

    #[test]
    fn degenerate_load_factors_are_typed_errors_not_panics() {
        use gpulog_device::DeviceError;
        let d = device();
        // Each degenerate input from the sizing expression
        // `(expected_keys.max(1) / load_factor).ceil()`: zero and negatives
        // flip or zero the table size, NaN poisons it, and anything above
        // 1.0 under-sizes the table below its entry count.
        for bad in [0.0, -0.5, f64::NAN, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            match HashTable::with_capacity(&d, 100, bad) {
                Err(DeviceError::InvalidLoadFactor { value }) => {
                    assert_eq!(value, format!("{bad}"), "load factor {bad}");
                }
                other => panic!("load factor {bad}: expected InvalidLoadFactor, got {other:?}"),
            }
        }
        // The upper boundary of (0, 1] still constructs.
        assert!(HashTable::with_capacity(&d, 100, 1.0).is_ok());
    }

    #[test]
    fn tiny_positive_load_factor_saturates_to_oom_not_overflow() {
        // A subnormal-but-valid load factor must not overflow the
        // power-of-two round-up; the saturated allocation is rejected by
        // the device's memory tracker instead.
        let d = Device::new(DeviceProfile::tiny_test_device(1 << 16));
        match HashTable::with_capacity(&d, 1000, 1e-300) {
            Err(gpulog_device::DeviceError::OutOfMemory { .. }) => {}
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn try_clone_copies_slots_and_charges_the_device() {
        let d = device();
        let mut t = HashTable::with_capacity(&d, 50, 0.8).unwrap();
        for k in 0..40u64 {
            insert(&t, k + 1, k as u32 * 2);
        }
        t.recount_entries();
        let in_use_before = d.tracker().in_use();
        let copy = t.try_clone().unwrap();
        assert_eq!(
            d.tracker().in_use(),
            in_use_before + t.accounted_bytes(),
            "the copy must be charged against the device"
        );
        assert_eq!(copy.capacity(), t.capacity());
        assert_eq!(copy.entries(), t.entries());
        for k in 0..40u64 {
            assert_eq!(copy.lookup(k + 1), Some(k as u32 * 2));
        }
        // Mutating the copy must not leak into the original.
        insert(&copy, 999, 7);
        assert_eq!(t.lookup(999), None);
        drop(copy);
        assert_eq!(d.tracker().in_use(), in_use_before);
    }

    #[test]
    fn try_clone_of_an_oversized_table_is_oom() {
        let d = Device::new(DeviceProfile::tiny_test_device(40_000));
        let t = HashTable::with_capacity(&d, 1000, 0.8).unwrap();
        assert!(t.try_clone().is_err(), "no room for a second copy");
    }

    #[test]
    fn iter_entries_reports_inserted_pairs() {
        let d = device();
        let t = HashTable::with_capacity(&d, 10, 0.8).unwrap();
        insert(&t, 11, 1);
        insert(&t, 22, 2);
        let mut entries: Vec<(u64, u32)> = t.iter_entries().collect();
        entries.sort();
        assert_eq!(entries, vec![(11, 1), (22, 2)]);
    }
}
