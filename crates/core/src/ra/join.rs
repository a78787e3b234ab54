//! The binary hash-join kernel (paper Algorithm 3 and Figure 4).
//!
//! The outer relation is a dense row-major buffer iterated in parallel; each
//! simulated thread hashes its outer tuple's key columns, enters the inner
//! HISA through its hash table, and linearly scans the sorted index array
//! for matching tuples. Output is materialized with the standard GPU
//! two-pass scheme: a counting pass, an exclusive scan to compute offsets,
//! and a writing pass into a single dense output buffer.

use crate::planner::EmitSource;
use crate::ra::project::batch_from_flat;
use gpulog_device::thrust::scan::exclusive_scan_offsets;
use gpulog_device::Device;
use gpulog_hisa::{Hisa, TupleBatch};

/// Computes the join of an outer batch with an indexed inner HISA.
///
/// * `outer_key_cols` selects the outer columns forming the join key; it is
///   matched positionally against the inner HISA's leading key columns
///   ([`Hisa::probe`]): a key as long as the HISA's enters through its hash
///   layer, a shorter one (a prefix of a canonical index's columns) by
///   binary search, and an empty key degenerates to a cross product.
/// * `inner_const_filters` / `inner_eq_filters` express constant arguments
///   and repeated variables of the inner atom, in the inner relation's
///   *original* column order.
/// * `emit` describes each output column as either an outer column or an
///   inner (original-order) column.
///
/// Returns the output batch, with `emit.len()` columns.
///
/// # Panics
///
/// Panics if `outer_key_cols` is longer than the inner HISA's key, or if
/// any referenced column is out of range.
pub fn hash_join_batch(
    device: &Device,
    outer: &TupleBatch,
    outer_key_cols: &[usize],
    inner: &Hisa,
    inner_const_filters: &[(usize, u32)],
    inner_eq_filters: &[(usize, usize)],
    emit: &[EmitSource],
) -> TupleBatch {
    assert!(
        outer_key_cols.len() <= inner.spec().key_arity(),
        "the outer join key is longer than the inner's"
    );
    let outer_arity = outer.arity();
    let outer_rows = outer.len();
    let outer = outer.as_flat();
    let emit_arity = emit.len();
    let inner_arity = inner.arity();

    // Original column -> position within the HISA's reordered row.
    let mut orig_to_reordered = vec![0usize; inner_arity];
    for (pos, &orig) in inner.spec().permutation().iter().enumerate() {
        orig_to_reordered[orig] = pos;
    }

    let passes_inner_filters = |row: &[u32]| -> bool {
        inner_const_filters
            .iter()
            .all(|&(col, val)| row[orig_to_reordered[col]] == val)
            && inner_eq_filters
                .iter()
                .all(|&(a, b)| row[orig_to_reordered[a]] == row[orig_to_reordered[b]])
    };

    // Pass 1: count matches per outer tuple.
    let metrics = device.metrics();
    metrics.add_kernel_launch();
    metrics.add_bytes_read((outer.len() * 4) as u64);
    let mut counts = vec![0usize; outer_rows];
    device.executor().fill(&mut counts, |i| {
        let outer_row = &outer[i * outer_arity..(i + 1) * outer_arity];
        let mut count = 0usize;
        for_each_match(inner, outer_row, outer_key_cols, |r| {
            if passes_inner_filters(inner.row_reordered(r as usize)) {
                count += 1;
            }
        });
        count
    });

    // Exclusive scan over per-row output value counts (rows * emit arity).
    let value_counts: Vec<usize> = counts.iter().map(|c| c * emit_arity).collect();
    let offsets = exclusive_scan_offsets(device, &value_counts);
    let total_values = *offsets.last().unwrap_or(&0);

    // Pass 2: materialize.
    metrics.add_kernel_launch();
    metrics.add_bytes_read((outer.len() * 4) as u64);
    metrics.add_bytes_written((total_values * 4) as u64);
    metrics.add_ops(total_values as u64);
    let mut output = vec![0u32; total_values];
    device
        .executor()
        .scatter_by_offsets(&mut output, &offsets, |i, out_slice| {
            let outer_row = &outer[i * outer_arity..(i + 1) * outer_arity];
            let mut cursor = 0usize;
            for_each_match(inner, outer_row, outer_key_cols, |inner_row_id| {
                let inner_row = inner.row_reordered(inner_row_id as usize);
                if !passes_inner_filters(inner_row) {
                    return;
                }
                for src in emit {
                    out_slice[cursor] = match *src {
                        EmitSource::Outer(col) => outer_row[col],
                        EmitSource::Inner(col) => inner_row[orig_to_reordered[col]],
                    };
                    cursor += 1;
                }
            });
            debug_assert_eq!(cursor, out_slice.len());
        });
    batch_from_flat(emit_arity, output)
}

/// Join keys up to this many columns are gathered on the stack.
const STACK_KEY_COLS: usize = 8;

/// Calls `visit` with the data-array row id of every inner row whose
/// leading key columns equal `outer_row`'s `outer_key_cols` — every inner
/// row for an empty key (a cross product). Allocates nothing for keys of
/// up to [`STACK_KEY_COLS`] columns, so a probe that misses costs one hash
/// lookup, or one binary search for a prefix of the inner's key.
fn for_each_match(
    inner: &Hisa,
    outer_row: &[u32],
    outer_key_cols: &[usize],
    visit: impl FnMut(u32),
) {
    if outer_key_cols.is_empty() {
        (0..inner.len() as u32).for_each(visit);
        return;
    }
    let mut stack = [0u32; STACK_KEY_COLS];
    let mut heap = Vec::new();
    let key = if outer_key_cols.len() <= STACK_KEY_COLS {
        &mut stack[..outer_key_cols.len()]
    } else {
        heap.resize(outer_key_cols.len(), 0);
        &mut heap[..]
    };
    for (slot, &col) in key.iter_mut().zip(outer_key_cols) {
        *slot = outer_row[col];
    }
    inner.probe(key).for_each(visit);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_device::profile::DeviceProfile;
    use gpulog_hisa::IndexSpec;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    fn rows(batch: &TupleBatch) -> Vec<Vec<u32>> {
        let mut out = batch.to_rows();
        out.sort();
        out
    }

    #[test]
    fn figure4_style_join_on_two_columns() {
        // Foobar(c, d) :- Foo(a, b, c), Bar(a, b, d): join on (a, b).
        let d = device();
        let foo = [2u32, 3, 5, 1, 2, 1, 5, 2, 4, 2, 3, 2, 1, 2, 5, 5, 2, 6];
        let bar_tuples = [1u32, 2, 2, 1, 2, 5, 2, 3, 1, 5, 2, 0, 5, 2, 9];
        let bar = Hisa::build(&d, IndexSpec::new(3, vec![0, 1]), &bar_tuples).unwrap();
        let emit = [EmitSource::Outer(2), EmitSource::Inner(2)];
        let out = hash_join_batch(
            &d,
            &TupleBatch::new(3, foo.to_vec()),
            &[0, 1],
            &bar,
            &[],
            &[],
            &emit,
        );
        let got = rows(&out);
        // Foo(2,3,5) x Bar(2,3,1) -> (5,1); Foo(2,3,2) x Bar(2,3,1) -> (2,1)
        // Foo(1,2,1) x Bar(1,2,2) -> (1,2); x Bar(1,2,5) -> (1,5)
        // Foo(1,2,5) x Bar(1,2,2) -> (5,2); x Bar(1,2,5) -> (5,5)
        // Foo(5,2,4) x Bar(5,2,0) -> (4,0); x Bar(5,2,9) -> (4,9)
        // Foo(5,2,6) x Bar(5,2,0) -> (6,0); x Bar(5,2,9) -> (6,9)
        let mut expected = vec![
            vec![5, 1],
            vec![2, 1],
            vec![1, 2],
            vec![1, 5],
            vec![5, 2],
            vec![5, 5],
            vec![4, 0],
            vec![4, 9],
            vec![6, 0],
            vec![6, 9],
        ];
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn join_matches_nested_loop_reference_on_random_data() {
        let d = device();
        let n_outer = 300usize;
        let n_inner = 200usize;
        let outer: Vec<u32> = (0..n_outer * 2)
            .map(|i| (i as u32).wrapping_mul(2654435761) % 17)
            .collect();
        let inner_tuples: Vec<u32> = (0..n_inner * 2)
            .map(|i| (i as u32).wrapping_mul(40503) % 17)
            .collect();
        let inner = Hisa::build(&d, IndexSpec::new(2, vec![0]), &inner_tuples).unwrap();
        let emit = [
            EmitSource::Outer(0),
            EmitSource::Outer(1),
            EmitSource::Inner(1),
        ];
        let got = rows(&hash_join_batch(
            &d,
            &TupleBatch::new(2, outer.to_vec()),
            &[1],
            &inner,
            &[],
            &[],
            &emit,
        ));
        // Reference: dedup inner first (HISA deduplicates), then nested loop.
        let mut inner_set: Vec<Vec<u32>> =
            inner_tuples.chunks_exact(2).map(|c| c.to_vec()).collect();
        inner_set.sort();
        inner_set.dedup();
        let mut expected = Vec::new();
        for o in outer.chunks_exact(2) {
            for i in &inner_set {
                if o[1] == i[0] {
                    expected.push(vec![o[0], o[1], i[1]]);
                }
            }
        }
        expected.sort();
        assert_eq!(got, expected);
    }

    #[test]
    fn inner_filters_restrict_matches() {
        let d = device();
        let outer = [1u32, 1, 2, 2];
        let inner_tuples = [1u32, 5, 5, 1, 7, 7, 2, 9, 9, 2, 3, 9];
        let inner = Hisa::build(&d, IndexSpec::new(3, vec![0]), &inner_tuples).unwrap();
        let emit = [
            EmitSource::Outer(0),
            EmitSource::Inner(1),
            EmitSource::Inner(2),
        ];
        // Require inner col1 == inner col2 (repeated variable).
        let eq = [(1usize, 2usize)];
        let got = rows(&hash_join_batch(
            &d,
            &TupleBatch::new(2, outer.to_vec()),
            &[0],
            &inner,
            &[],
            &eq,
            &emit,
        ));
        assert_eq!(got, vec![vec![1, 5, 5], vec![1, 7, 7], vec![2, 9, 9]]);
        // Require inner col2 == 9 (constant argument).
        let cf = [(2usize, 9u32)];
        let got = rows(&hash_join_batch(
            &d,
            &TupleBatch::new(2, outer.to_vec()),
            &[0],
            &inner,
            &cf,
            &[],
            &emit,
        ));
        assert_eq!(got, vec![vec![2, 3, 9], vec![2, 9, 9]]);
    }

    #[test]
    fn empty_key_degenerates_to_cross_product() {
        let d = device();
        let outer = [1u32, 2];
        let inner_tuples = [10u32, 20, 30];
        let inner = Hisa::build(&d, IndexSpec::full_key(1), &inner_tuples).unwrap();
        let emit = [EmitSource::Outer(0), EmitSource::Inner(0)];
        let got = rows(&hash_join_batch(
            &d,
            &TupleBatch::new(1, outer.to_vec()),
            &[],
            &inner,
            &[],
            &[],
            &emit,
        ));
        assert_eq!(
            got,
            vec![
                vec![1, 10],
                vec![1, 20],
                vec![1, 30],
                vec![2, 10],
                vec![2, 20],
                vec![2, 30]
            ]
        );
    }

    #[test]
    fn join_with_empty_outer_or_inner_is_empty() {
        let d = device();
        let inner = Hisa::build(&d, IndexSpec::new(2, vec![0]), &[1, 2]).unwrap();
        let emit = [EmitSource::Outer(0), EmitSource::Inner(1)];
        assert!(
            hash_join_batch(&d, &TupleBatch::empty(2), &[0], &inner, &[], &[], &emit).is_empty()
        );
        let empty_inner = Hisa::build(&d, IndexSpec::new(2, vec![0]), &[]).unwrap();
        assert!(hash_join_batch(
            &d,
            &TupleBatch::new(2, vec![5, 5]),
            &[0],
            &empty_inner,
            &[],
            &[],
            &emit
        )
        .is_empty());
    }

    #[test]
    fn join_keyed_on_non_leading_inner_column() {
        let d = device();
        // Inner Edge(from, to) indexed on `to`; join outer value against `to`
        // and emit `from`.
        let outer = [7u32];
        let inner_tuples = [1u32, 7, 2, 7, 3, 8];
        let inner = Hisa::build(&d, IndexSpec::new(2, vec![1]), &inner_tuples).unwrap();
        let emit = [EmitSource::Inner(0), EmitSource::Outer(0)];
        let got = rows(&hash_join_batch(
            &d,
            &TupleBatch::new(1, outer.to_vec()),
            &[0],
            &inner,
            &[],
            &[],
            &emit,
        ));
        assert_eq!(got, vec![vec![1, 7], vec![2, 7]]);
    }

    /// Joining over the canonical index by a prefix of its columns yields
    /// the rows a join over an index built on that prefix yields, with and
    /// without inner constant and equality filters.
    #[test]
    fn a_join_over_the_canonical_by_prefix_matches_one_over_a_prefix_index() {
        let d = device();
        let tuples: Vec<[u32; 3]> = (0..5u32)
            .flat_map(|a| (0..4u32).flat_map(move |b| (0..4u32).map(move |c| [a, b, c])))
            .filter(|t| (t[0] + t[1] + t[2]) % 3 != 0)
            .collect();
        // Three interleaved runs, merged: the sorted index is no identity.
        let run = |j: usize| -> Vec<u32> {
            tuples
                .iter()
                .skip(j)
                .step_by(3)
                .flatten()
                .copied()
                .collect()
        };
        let mut canonical = Hisa::build(&d, IndexSpec::full_key(3), &run(0)).unwrap();
        for j in 1..3 {
            let next = Hisa::build(&d, IndexSpec::full_key(3), &run(j)).unwrap();
            canonical.merge_from(&next).unwrap();
        }
        let all: Vec<u32> = tuples.iter().flatten().copied().collect();
        // Outer (x, k0, k1); keys 5 and 6 match nothing.
        let outer: Vec<u32> = (0..21u32).flat_map(|i| [i, i % 7, i % 4]).collect();
        let outer = TupleBatch::new(3, outer);
        let emit = [
            EmitSource::Outer(0),
            EmitSource::Inner(1),
            EmitSource::Inner(2),
        ];
        for outer_key in [vec![1], vec![1, 2]] {
            let inner_key: Vec<usize> = (0..outer_key.len()).collect();
            let by_prefix = Hisa::build(&d, IndexSpec::new(3, inner_key), &all).unwrap();
            for (consts, eqs) in [
                (&[][..], &[][..]),
                (&[(2usize, 1u32)][..], &[][..]),
                (&[][..], &[(1usize, 2usize)][..]),
                (&[(2, 1)][..], &[(1, 2)][..]),
            ] {
                let join = |inner: &Hisa| {
                    rows(&hash_join_batch(
                        &d, &outer, &outer_key, inner, consts, eqs, &emit,
                    ))
                };
                let got = join(&canonical);
                assert!(!got.is_empty(), "key {outer_key:?}, {consts:?}, {eqs:?}");
                assert_eq!(
                    got,
                    join(&by_prefix),
                    "key {outer_key:?}, {consts:?}, {eqs:?}"
                );
            }
        }
    }
}
