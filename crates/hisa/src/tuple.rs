//! Tuple and index-specification types shared across the HISA layers.

use std::num::NonZeroUsize;

/// The column value type.
///
/// GPUlog relations are over dense 32-bit identifiers (node ids, program
/// points, register names interned to integers), matching the paper's
/// datasets and the GPU-friendly fixed-width layout.
pub type Value = u32;

/// Describes how a relation's tuples are indexed by a HISA instance:
/// the tuple arity and which columns form the (join) key.
///
/// HISA reorders columns so the key columns come first (paper Algorithm 1,
/// lines 1–5); [`IndexSpec::reorder`] and [`IndexSpec::restore`] convert
/// between the original column order and the reordered, key-first order.
///
/// # Examples
///
/// ```
/// use gpulog_hisa::IndexSpec;
///
/// // A 3-column relation keyed on its last two columns.
/// let spec = IndexSpec::new(3, vec![1, 2]);
/// assert_eq!(spec.reorder(&[10, 20, 30]), vec![20, 30, 10]);
/// assert_eq!(spec.restore(&[20, 30, 10]), vec![10, 20, 30]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexSpec {
    arity: usize,
    key_columns: Vec<usize>,
    /// Column permutation: `permutation[i]` is the original column stored at
    /// reordered position `i` (key columns first, then the rest in order).
    permutation: Vec<usize>,
}

impl IndexSpec {
    /// Creates an index specification for an `arity`-column relation keyed
    /// on `key_columns` (in the given significance order).
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero, `key_columns` is empty, contains an
    /// out-of-range column, or contains duplicates.
    pub fn new(arity: usize, key_columns: Vec<usize>) -> Self {
        assert!(arity > 0, "arity must be positive");
        assert!(
            !key_columns.is_empty(),
            "at least one key column is required"
        );
        assert!(
            key_columns.iter().all(|&c| c < arity),
            "key column out of range for arity {arity}"
        );
        let mut seen = vec![false; arity];
        for &c in &key_columns {
            assert!(!seen[c], "duplicate key column {c}");
            seen[c] = true;
        }
        let mut permutation = key_columns.clone();
        permutation.extend((0..arity).filter(|&c| !seen[c]));
        IndexSpec {
            arity,
            key_columns,
            permutation,
        }
    }

    /// Index over all columns in their natural order — the specification
    /// used when a HISA only needs deduplication and iteration.
    pub fn full_key(arity: usize) -> Self {
        Self::new(arity, (0..arity).collect())
    }

    /// Tuple arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of key (join) columns.
    pub fn key_arity(&self) -> usize {
        self.key_columns.len()
    }

    /// The key columns, in significance order, as originally specified.
    pub fn key_columns(&self) -> &[usize] {
        &self.key_columns
    }

    /// The full column permutation (key columns first).
    pub fn permutation(&self) -> &[usize] {
        &self.permutation
    }

    /// Reorders one tuple from original column order to key-first order.
    ///
    /// # Panics
    ///
    /// Panics if `tuple.len() != arity`.
    pub fn reorder(&self, tuple: &[Value]) -> Vec<Value> {
        assert_eq!(tuple.len(), self.arity, "tuple arity mismatch");
        self.permutation.iter().map(|&c| tuple[c]).collect()
    }

    /// Restores one tuple from key-first order back to original order.
    ///
    /// # Panics
    ///
    /// Panics if `tuple.len() != arity`.
    pub fn restore(&self, reordered: &[Value]) -> Vec<Value> {
        assert_eq!(reordered.len(), self.arity, "tuple arity mismatch");
        let mut out = vec![0; self.arity];
        for (pos, &orig_col) in self.permutation.iter().enumerate() {
            out[orig_col] = reordered[pos];
        }
        out
    }

    /// Reorders a whole row-major tuple buffer to key-first order.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of the arity.
    pub fn reorder_rows(&self, data: &[Value]) -> Vec<Value> {
        assert_eq!(data.len() % self.arity, 0, "ragged tuple buffer");
        let mut out = Vec::with_capacity(data.len());
        for row in data.chunks_exact(self.arity) {
            out.extend(self.permutation.iter().map(|&c| row[c]));
        }
        out
    }
}

/// Hashes the key columns of a reordered (key-first) row.
///
/// The hash is a 64-bit FNV-1a over the key values; it never returns the
/// hash-table's empty sentinel.
pub fn hash_key(key_values: &[Value]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &v in key_values {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    // Reserve u64::MAX as the empty-slot sentinel.
    if h == u64::MAX {
        0
    } else {
        h
    }
}

/// Compares two key-first rows by their first `key_arity` columns.
pub fn key_eq(a: &[Value], b: &[Value], key_arity: usize) -> bool {
    a[..key_arity] == b[..key_arity]
}

/// Maps a join key to its shard: `hash(key) % shards`.
///
/// This is *the* partitioning function of the sharded evaluation path:
/// every component that hash-partitions relations (sharded HISA indices,
/// outer-batch partitioning, per-shard delta population) must route through
/// it so that shard `i` of an outer relation only ever needs to probe shard
/// `i` of an inner relation built over the same key.
///
/// The shard count is a [`NonZeroUsize`], so the zero-shard division that
/// used to abort via `assert!` is unrepresentable: library users convert
/// (and validate) their count exactly once at the boundary — the engine
/// maps zero to `EngineError::InvalidShardCount` there — and every data-
/// layer call below is panic-free by construction.
pub fn shard_of(key_values: &[Value], shards: NonZeroUsize) -> usize {
    (hash_key(key_values) % shards.get() as u64) as usize
}

/// Hash-partitions a dense row-major buffer into `shards` buckets by the
/// [`shard_of`] hash of each row's `key_cols` values, preserving relative
/// row order within each bucket. This is the one partition loop behind
/// both [`crate::TupleBatch::partition_by_key_hash`] and the relation
/// layer's shard maps, so the shard-alignment invariant (shard `i` of an
/// outer only probes shard `i` of an inner) cannot drift between them.
///
/// # Panics
///
/// Panics if `data` is ragged or a key column is out of range (programmer
/// errors on internal buffers); a zero shard count is unrepresentable.
pub fn partition_flat_by_key_hash(
    data: &[Value],
    arity: usize,
    key_cols: &[usize],
    shards: NonZeroUsize,
) -> Vec<Vec<Value>> {
    assert!(arity > 0, "arity must be positive");
    assert_eq!(data.len() % arity, 0, "ragged row buffer");
    assert!(
        key_cols.iter().all(|&c| c < arity),
        "key column out of range"
    );
    if shards.get() == 1 {
        return vec![data.to_vec()];
    }
    let mut parts: Vec<Vec<Value>> = vec![Vec::new(); shards.get()];
    let mut key = Vec::with_capacity(key_cols.len());
    for row in data.chunks_exact(arity) {
        key.clear();
        key.extend(key_cols.iter().map(|&c| row[c]));
        parts[shard_of(&key, shards)].extend_from_slice(row);
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reorder_and_restore_are_inverses() {
        let spec = IndexSpec::new(4, vec![2, 0]);
        let tuple = vec![7, 8, 9, 10];
        let reordered = spec.reorder(&tuple);
        assert_eq!(reordered, vec![9, 7, 8, 10]);
        assert_eq!(spec.restore(&reordered), tuple);
    }

    #[test]
    fn full_key_spec_is_identity_permutation() {
        let spec = IndexSpec::full_key(3);
        assert_eq!(spec.permutation(), &[0, 1, 2]);
        assert_eq!(spec.reorder(&[1, 2, 3]), vec![1, 2, 3]);
        assert_eq!(spec.key_arity(), 3);
    }

    #[test]
    fn reorder_rows_handles_multiple_tuples() {
        let spec = IndexSpec::new(2, vec![1]);
        let data = vec![1, 2, 3, 4];
        assert_eq!(spec.reorder_rows(&data), vec![2, 1, 4, 3]);
    }

    #[test]
    #[should_panic(expected = "duplicate key column")]
    fn duplicate_key_columns_are_rejected() {
        IndexSpec::new(3, vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "key column out of range")]
    fn out_of_range_key_column_is_rejected() {
        IndexSpec::new(2, vec![5]);
    }

    #[test]
    fn hash_key_distinguishes_keys_and_avoids_sentinel() {
        assert_ne!(hash_key(&[1, 2]), hash_key(&[2, 1]));
        assert_ne!(hash_key(&[0]), u64::MAX);
        assert_eq!(hash_key(&[42, 7]), hash_key(&[42, 7]));
    }

    #[test]
    fn key_eq_compares_prefix_only() {
        assert!(key_eq(&[1, 2, 99], &[1, 2, 3], 2));
        assert!(!key_eq(&[1, 2, 3], &[1, 3, 3], 2));
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 7, 64] {
            let shards = NonZeroUsize::new(shards).unwrap();
            for key in 0..100u32 {
                let s = shard_of(&[key, key * 3], shards);
                assert!(s < shards.get());
                assert_eq!(s, shard_of(&[key, key * 3], shards));
            }
        }
        // One shard maps everything to shard zero.
        let one = NonZeroUsize::new(1).unwrap();
        assert_eq!(shard_of(&[123, 456], one), 0);
    }
}
