//! [`TupleBatch`]: the owned, arity-tagged tuple container that flows
//! between relational-algebra operators.
//!
//! Every intermediate result of rule evaluation — scan output, join
//! output, the deduplicated delta — is a dense, row-major buffer of
//! fixed-width [`Value`] tuples. Historically these travelled as bare
//! `(Vec<u32>, usize)` pairs whose invariants (is the buffer ragged? is it
//! sorted and duplicate-free?) lived in comments. A `TupleBatch` carries
//! the arity with the data and records the *sorted + unique* property as a
//! flag, so fast paths like [`crate::Hisa::build_from_batch`] become
//! type-driven: a batch that proves it is already canonical skips the
//! sort/dedup passes, and one that does not gets the general path.

use crate::tuple::Value;
use std::num::NonZeroUsize;

/// An owned batch of fixed-arity tuples in dense row-major layout.
///
/// # Examples
///
/// ```
/// use gpulog_hisa::TupleBatch;
///
/// let batch = TupleBatch::from_rows(2, [[1u32, 2], [3, 4]]);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.arity(), 2);
/// assert_eq!(batch.as_flat(), &[1, 2, 3, 4]);
/// assert_eq!(batch.rows().collect::<Vec<_>>(), vec![&[1, 2][..], &[3, 4][..]]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TupleBatch {
    arity: usize,
    data: Vec<Value>,
    sorted_unique: bool,
}

impl TupleBatch {
    /// Wraps a flat row-major buffer with its arity. The batch makes no
    /// claim about sort order or uniqueness.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero or `data.len()` is not a multiple of it.
    pub fn new(arity: usize, data: Vec<Value>) -> Self {
        assert!(arity > 0, "arity must be positive");
        assert_eq!(
            data.len() % arity,
            0,
            "flat buffer length {} is not a multiple of arity {arity}",
            data.len()
        );
        TupleBatch {
            arity,
            data,
            sorted_unique: false,
        }
    }

    /// An empty batch of the given arity. Vacuously sorted and unique.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero.
    pub fn empty(arity: usize) -> Self {
        TupleBatch::new(arity, Vec::new()).assert_sorted_unique()
    }

    /// Builds a batch from individual rows.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero or any row's length differs from it.
    pub fn from_rows<I, T>(arity: usize, rows: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[Value]>,
    {
        assert!(arity > 0, "arity must be positive");
        let mut data = Vec::new();
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), arity, "row arity mismatch");
            data.extend_from_slice(row);
        }
        TupleBatch::new(arity, data)
    }

    /// Wraps a buffer whose rows are already lexicographically sorted and
    /// duplicate-free, recording that property in the type. Consumers such
    /// as [`crate::Hisa::build_from_batch`] use the flag to take their
    /// sort/dedup-free fast paths.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero or the buffer is ragged. Sorted order and
    /// uniqueness are the caller's contract, checked only under
    /// `debug_assertions`.
    pub fn from_sorted_unique_flat(arity: usize, data: Vec<Value>) -> Self {
        TupleBatch::new(arity, data).assert_sorted_unique()
    }

    /// Marks this batch as lexicographically sorted and duplicate-free
    /// (caller's contract; validated under `debug_assertions` only).
    #[must_use]
    pub fn assert_sorted_unique(mut self) -> Self {
        debug_assert!(
            rows_are_sorted_unique(&self.data, self.arity),
            "batch rows must be strictly increasing to carry the sorted-unique flag"
        );
        self.sorted_unique = true;
        self
    }

    /// Number of columns per tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.data.len() / self.arity
    }

    /// Whether the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Whether the rows are known to be lexicographically sorted and
    /// duplicate-free. `false` means *unknown*, not *unsorted*.
    pub fn is_sorted_unique(&self) -> bool {
        self.sorted_unique
    }

    /// The dense row-major buffer.
    pub fn as_flat(&self) -> &[Value] {
        &self.data
    }

    /// Consumes the batch, returning the flat buffer.
    pub fn into_flat(self) -> Vec<Value> {
        self.data
    }

    /// Iterates the rows as borrowed slices, in storage order.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        self.data.chunks_exact(self.arity)
    }

    /// One row by index.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[Value] {
        &self.data[row * self.arity..(row + 1) * self.arity]
    }

    /// Copies the rows out as owned vectors (convenient for tests and
    /// host-side export).
    pub fn to_rows(&self) -> Vec<Vec<Value>> {
        self.rows().map(<[Value]>::to_vec).collect()
    }

    /// Hash-partitions the rows into `shards` batches by
    /// [`crate::shard_of`] over the `key_cols` values, preserving the
    /// relative row order within each shard. Rows with equal key values
    /// (and in particular duplicate rows) always land in the same shard.
    ///
    /// A sorted-unique batch partitions into sorted-unique shards (each
    /// shard is a subsequence of the original row order), and the flag is
    /// carried over accordingly.
    ///
    /// # Panics
    ///
    /// Panics if any key column is out of range; a zero shard count is
    /// unrepresentable ([`NonZeroUsize`]).
    pub fn partition_by_key_hash(
        &self,
        key_cols: &[usize],
        shards: NonZeroUsize,
    ) -> Vec<TupleBatch> {
        crate::partition_flat_by_key_hash(&self.data, self.arity, key_cols, shards)
            .into_iter()
            .map(|data| {
                let batch = TupleBatch::new(self.arity, data);
                if self.sorted_unique {
                    batch.assert_sorted_unique()
                } else {
                    batch
                }
            })
            .collect()
    }

    /// Concatenates batches of the same arity in order. The result makes no
    /// sortedness claim (shard-ordered concatenation is not row-sorted).
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero or any part's arity differs from it.
    pub fn concat<I: IntoIterator<Item = TupleBatch>>(arity: usize, parts: I) -> TupleBatch {
        let mut data = Vec::new();
        for part in parts {
            assert_eq!(part.arity(), arity, "batch arity mismatch in concat");
            data.extend_from_slice(part.as_flat());
        }
        TupleBatch::new(arity, data)
    }

    /// K-way-merges sorted-unique batches with pairwise-disjoint rows into
    /// one globally sorted-unique batch — the inverse of
    /// [`TupleBatch::partition_by_key_hash`] applied to a sorted-unique
    /// input, and the step that lets per-shard set differences reassemble
    /// into the exact byte sequence a single global difference produces.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is zero, any part's arity differs, or a part does
    /// not carry the sorted-unique flag. Disjointness is the caller's
    /// contract, checked (with sortedness of the result) only under
    /// `debug_assertions`.
    pub fn merge_sorted_unique<I: IntoIterator<Item = TupleBatch>>(
        arity: usize,
        parts: I,
    ) -> TupleBatch {
        let mut parts: Vec<TupleBatch> = parts
            .into_iter()
            .inspect(|part| {
                assert_eq!(part.arity(), arity, "batch arity mismatch in merge");
                assert!(
                    part.is_sorted_unique(),
                    "merge_sorted_unique requires sorted-unique parts"
                );
            })
            .filter(|part| !part.is_empty())
            .collect();
        if parts.len() == 1 {
            // A lone non-empty part is already the merge: move, don't copy.
            return parts.pop().expect("one part");
        }
        let total: usize = parts.iter().map(|p| p.as_flat().len()).sum();
        let mut data = Vec::with_capacity(total);
        let mut cursors = vec![0usize; parts.len()];
        while data.len() < total {
            let mut min_part: Option<usize> = None;
            for (p, part) in parts.iter().enumerate() {
                if cursors[p] >= part.len() {
                    continue;
                }
                let row = part.row(cursors[p]);
                if min_part.is_none_or(|m| row < parts[m].row(cursors[m])) {
                    min_part = Some(p);
                }
            }
            let p = min_part.expect("a non-exhausted part must remain");
            data.extend_from_slice(parts[p].row(cursors[p]));
            cursors[p] += 1;
        }
        TupleBatch::new(arity, data).assert_sorted_unique()
    }

    /// Set difference of two sorted-unique batches: the rows of `self` that
    /// do not appear in `other`, as one merge-walk over both inputs. The
    /// result keeps `self`'s row order, so it stays sorted-unique — this is
    /// how the pipelined backend subtracts a not-yet-merged pending delta
    /// run from a freshly deduplicated delta, reproducing exactly the rows
    /// a serial difference against the fully merged relation would keep.
    ///
    /// # Panics
    ///
    /// Panics if the arities differ or either batch does not carry the
    /// sorted-unique flag.
    pub fn subtract_sorted_unique(&self, other: &TupleBatch) -> TupleBatch {
        assert_eq!(self.arity, other.arity, "batch arity mismatch in subtract");
        assert!(
            self.is_sorted_unique() && other.is_sorted_unique(),
            "subtract_sorted_unique requires sorted-unique operands"
        );
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        let mut data = Vec::with_capacity(self.data.len());
        let mut o = 0usize;
        for row in self.rows() {
            while o < other.len() && other.row(o) < row {
                o += 1;
            }
            if o >= other.len() || other.row(o) != row {
                data.extend_from_slice(row);
            }
        }
        TupleBatch::new(self.arity, data).assert_sorted_unique()
    }
}

/// Whether the row-major buffer's rows are strictly increasing (i.e.
/// lexicographically sorted and duplicate-free). One linear pass; callers
/// use it to choose sort/dedup-free build paths for data whose provenance
/// is unknown.
pub fn rows_are_sorted_unique(data: &[Value], arity: usize) -> bool {
    data.chunks_exact(arity)
        .zip(data.chunks_exact(arity).skip(1))
        .all(|(a, b)| a < b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips_through_flat() {
        let rows = [[5u32, 1], [2, 9], [7, 7]];
        let batch = TupleBatch::from_rows(2, rows);
        assert_eq!(batch.as_flat(), &[5, 1, 2, 9, 7, 7]);
        assert_eq!(batch.to_rows(), vec![vec![5, 1], vec![2, 9], vec![7, 7]]);
        assert_eq!(batch.row(1), &[2, 9]);
        assert!(!batch.is_sorted_unique());
    }

    #[test]
    fn empty_batch_is_sorted_unique() {
        let batch = TupleBatch::empty(3);
        assert!(batch.is_empty());
        assert_eq!(batch.len(), 0);
        assert!(batch.is_sorted_unique());
    }

    #[test]
    fn sorted_unique_flag_is_carried() {
        let batch = TupleBatch::from_sorted_unique_flat(2, vec![1, 2, 3, 4]);
        assert!(batch.is_sorted_unique());
        assert_eq!(batch.len(), 2);
        let plain = TupleBatch::new(2, vec![1, 2, 3, 4]);
        assert!(!plain.is_sorted_unique());
        assert!(plain.assert_sorted_unique().is_sorted_unique());
    }

    #[test]
    #[should_panic(expected = "not a multiple of arity")]
    fn ragged_buffer_is_rejected() {
        let _ = TupleBatch::new(2, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn from_rows_rejects_wrong_arity() {
        let _ = TupleBatch::from_rows(2, [vec![1u32, 2], vec![3]]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly increasing")]
    fn sorted_unique_contract_is_checked_in_debug_builds() {
        let _ = TupleBatch::from_sorted_unique_flat(2, vec![3, 4, 1, 2]);
    }

    #[test]
    fn partition_routes_equal_keys_to_one_shard_and_preserves_order() {
        let rows: Vec<[u32; 2]> = (0..64).map(|i| [i % 7, i]).collect();
        let batch = TupleBatch::from_rows(2, &rows);
        for shards in [1usize, 2, 3, 5] {
            let shards = NonZeroUsize::new(shards).unwrap();
            let parts = batch.partition_by_key_hash(&[0], shards);
            assert_eq!(parts.len(), shards.get());
            assert_eq!(parts.iter().map(TupleBatch::len).sum::<usize>(), 64);
            for (s, part) in parts.iter().enumerate() {
                let mut last_seen: Option<u32> = None;
                for row in part.rows() {
                    assert_eq!(crate::shard_of(&[row[0]], shards), s);
                    // Column 1 is globally increasing, so order within a
                    // shard must be increasing too.
                    assert!(last_seen.is_none_or(|prev| prev < row[1]));
                    last_seen = Some(row[1]);
                }
            }
        }
    }

    #[test]
    fn partition_of_sorted_unique_batch_keeps_the_flag() {
        let batch = TupleBatch::from_sorted_unique_flat(2, vec![0, 1, 1, 0, 2, 2, 3, 9]);
        let parts = batch.partition_by_key_hash(&[0, 1], NonZeroUsize::new(3).unwrap());
        assert!(parts.iter().all(TupleBatch::is_sorted_unique));
        let merged = TupleBatch::merge_sorted_unique(2, parts);
        assert_eq!(merged, batch);
    }

    #[test]
    fn concat_joins_parts_in_order_without_a_sortedness_claim() {
        let a = TupleBatch::from_rows(2, [[9u32, 9]]);
        let b = TupleBatch::from_rows(2, [[1u32, 1], [2, 2]]);
        let joined = TupleBatch::concat(2, [a, b]);
        assert_eq!(joined.as_flat(), &[9, 9, 1, 1, 2, 2]);
        assert!(!joined.is_sorted_unique());
        assert!(TupleBatch::concat(2, Vec::new()).is_empty());
    }

    #[test]
    fn merge_sorted_unique_reassembles_a_global_sort() {
        let a = TupleBatch::from_sorted_unique_flat(1, vec![0, 3, 7]);
        let b = TupleBatch::from_sorted_unique_flat(1, vec![1, 4]);
        let c = TupleBatch::from_sorted_unique_flat(1, vec![2, 5, 6]);
        let merged = TupleBatch::merge_sorted_unique(1, [a, b, c]);
        assert_eq!(merged.as_flat(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert!(merged.is_sorted_unique());
    }

    #[test]
    #[should_panic(expected = "requires sorted-unique parts")]
    fn merge_rejects_unflagged_parts() {
        let plain = TupleBatch::new(1, vec![2, 1]);
        let _ = TupleBatch::merge_sorted_unique(1, [plain]);
    }

    #[test]
    fn subtract_removes_exactly_the_shared_rows() {
        let a = TupleBatch::from_sorted_unique_flat(2, vec![0, 1, 2, 2, 3, 0, 5, 9]);
        let b = TupleBatch::from_sorted_unique_flat(2, vec![1, 1, 2, 2, 5, 9, 7, 0]);
        let diff = a.subtract_sorted_unique(&b);
        assert_eq!(diff.as_flat(), &[0, 1, 3, 0]);
        assert!(diff.is_sorted_unique());
        // Edge cases: empty operands on either side.
        assert_eq!(a.subtract_sorted_unique(&TupleBatch::empty(2)), a);
        assert!(TupleBatch::empty(2).subtract_sorted_unique(&a).is_empty());
        // Disjoint operands subtract to the original.
        let c = TupleBatch::from_sorted_unique_flat(2, vec![9, 9]);
        assert_eq!(a.subtract_sorted_unique(&c), a);
    }

    #[test]
    #[should_panic(expected = "requires sorted-unique operands")]
    fn subtract_rejects_unflagged_operands() {
        let plain = TupleBatch::new(1, vec![2, 1]);
        let sorted = TupleBatch::from_sorted_unique_flat(1, vec![1]);
        let _ = plain.subtract_sorted_unique(&sorted);
    }
}
