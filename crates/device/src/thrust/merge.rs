//! Merge-path parallel merge (Green, McColl, Bader — "GPU Merge Path").
//!
//! The paper merges the sorted index arrays of two HISAs (full and delta)
//! with Thrust's merge-path implementation. Merge path splits the combined
//! output evenly across workers by binary-searching the cross diagonals of
//! the (|A|, |B|) merge grid, so every worker produces an equal slice of the
//! result without communicating.
//!
//! Inside each partition, [`merge_sorted_index_rows`] picks one of two host
//! loops: the per-element merge for balanced inputs, or a gallop for a
//! small delta, which exponential-searches each delta row's insertion point
//! and block-copies the full-side run before it. Both produce the same
//! stable merge, and both are charged as the merge path the modeled device
//! runs.

use crate::device::Device;
use std::cmp::Ordering;

/// Finds the (a_idx, b_idx) split point on diagonal `diag`, i.e. the number
/// of elements each input contributes to the first `diag` output elements.
fn merge_path_partition<T, F>(a: &[T], b: &[T], diag: usize, compare: &F) -> (usize, usize)
where
    F: Fn(&T, &T) -> Ordering,
{
    let mut lo = diag.saturating_sub(b.len());
    let mut hi = diag.min(a.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        // a[mid] vs b[diag - mid - 1]: if a[mid] is strictly greater, the
        // split point is to the left; ties favour taking from `a` first so
        // the merge is stable (elements of `a` precede equal elements of `b`).
        if compare(&a[mid], &b[diag - mid - 1]) == Ordering::Greater {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (lo, diag - lo)
}

/// Merges two sorted sequences into one sorted output, in parallel, stably
/// (ties keep all elements of `a` before elements of `b`).
///
/// The inputs must each be sorted according to `compare`; the output is their
/// stable merge.
pub fn merge_path_merge<T, F>(device: &Device, a: &[T], b: &[T], compare: F) -> Vec<T>
where
    T: Copy + Send + Sync + Default,
    F: Fn(&T, &T) -> Ordering + Sync,
{
    let total = a.len() + b.len();
    let elem = std::mem::size_of::<T>() as u64;
    device.metrics().add_kernel_launch();
    device.metrics().add_bytes_read(total as u64 * elem);
    device.metrics().add_bytes_written(total as u64 * elem);
    device
        .metrics()
        .add_ops(total as u64 + (total.max(2) as f64).log2().ceil() as u64);
    if total == 0 {
        return Vec::new();
    }
    let executor = device.executor();
    let parts = executor.partitions(total);
    // Compute the merge-path split for the start of every partition.
    let splits: Vec<(usize, usize)> = parts
        .iter()
        .map(|r| merge_path_partition(a, b, r.start, &compare))
        .collect();
    let mut out = vec![T::default(); total];
    {
        let parts_ref = &parts;
        let splits_ref = &splits;
        let compare_ref = &compare;
        // Each partition owns out[r.start..r.end]; fill() gives disjoint slices.
        let mut slices: Vec<&mut [T]> = Vec::with_capacity(parts.len());
        let mut rest: &mut [T] = out.as_mut_slice();
        for r in parts_ref {
            let (head, tail) = rest.split_at_mut(r.len());
            slices.push(head);
            rest = tail;
        }
        let run = |p: usize, slice: &mut [T]| {
            let range = parts_ref[p].clone();
            let (mut ai, mut bi) = splits_ref[p];
            for slot in slice.iter_mut() {
                let take_a = if ai >= a.len() {
                    false
                } else if bi >= b.len() {
                    true
                } else {
                    compare_ref(&b[bi], &a[ai]) != Ordering::Less
                };
                if take_a {
                    *slot = a[ai];
                    ai += 1;
                } else {
                    *slot = b[bi];
                    bi += 1;
                }
            }
            let _ = range;
        };
        executor.run_tasks(slices, run);
    }
    out
}

/// The row slice behind index `idx` of a row-major buffer.
#[inline]
fn row_of(data: &[u32], arity: usize, idx: u32) -> &[u32] {
    let start = idx as usize * arity;
    &data[start..start + arity]
}

/// Merge-path split point for [`merge_sorted_index_rows`]: how many elements
/// `a` contributes to the first `diag` outputs, comparing row slices in
/// place (ties favour `a`, keeping the merge stable).
fn merge_path_partition_rows(
    a: &[u32],
    b: &[u32],
    data: &[u32],
    arity: usize,
    b_offset: u32,
    diag: usize,
) -> (usize, usize) {
    let mut lo = diag.saturating_sub(b.len());
    let mut hi = diag.min(a.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        let ra = row_of(data, arity, a[mid]);
        let rb = row_of(data, arity, b[diag - mid - 1] + b_offset);
        if ra > rb {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (lo, diag - lo)
}

/// A partition gallops when its `a` share is at least this many times its
/// `b` share. Below that, the per-element loop's sequential scan beats one
/// exponential search per `b` entry.
const GALLOP_RATIO: usize = 16;

/// The position in `a[from..end]` of the first entry whose row sorts
/// strictly after `row` (`end` when none does), found by exponential search
/// from `from`: O(log gap) row comparisons instead of one per skipped entry.
fn gallop_upper_bound(
    a: &[u32],
    from: usize,
    end: usize,
    data: &[u32],
    arity: usize,
    row: &[u32],
) -> usize {
    let not_after = |idx: &u32| row_of(data, arity, *idx) <= row;
    // Invariant: a[from..lo] sort at or before `row`; a[hi] (if hi < end)
    // is the next probe.
    let (mut lo, mut hi, mut step) = (from, from, 1);
    while hi < end && not_after(&a[hi]) {
        lo = hi + 1;
        hi = (hi + step).min(end);
        step *= 2;
    }
    lo + a[lo..hi].partition_point(not_after)
}

/// Merges two sorted index arrays over one shared row-major `data` buffer,
/// comparing row slices **in place** — the allocation-free form of a keyed
/// [`merge_path_merge`] for the HISA merge hot loop, which would otherwise
/// materialise an owned key per comparison.
///
/// `b`'s entries address rows `b[i] + b_offset` of `data` (the delta rows a
/// caller appended after the first `b_offset` rows); the offset is folded
/// into both the comparisons and the output, so no shifted copy of `b` is
/// ever built. The output is the stable merge (ties keep `a` first) with
/// every `b` entry already offset.
///
/// Each merge-path partition runs one of two loops. When its `b` share is
/// small next to its `a` share (a small delta merged into a large full), it
/// gallops: each `b` row's insertion point is found by exponential search in
/// `a`, and the `a` run before it is block-copied, so host work scales with
/// the delta. Otherwise it compares once per output element. The device
/// charge is the merge-path charge either way.
///
/// # Panics
///
/// Panics if any (offset) index addresses a row outside `data`.
pub fn merge_sorted_index_rows(
    device: &Device,
    a: &[u32],
    b: &[u32],
    data: &[u32],
    arity: usize,
    b_offset: u32,
) -> Vec<u32> {
    assert!(arity > 0, "arity must be positive");
    let total = a.len() + b.len();
    device.metrics().add_kernel_launch();
    // Each output element costs one index write plus (amortised) one
    // row-pair comparison read on top of the index reads.
    device
        .metrics()
        .add_bytes_read(total as u64 * (4 + 8 * arity as u64));
    device.metrics().add_bytes_written(total as u64 * 4);
    device
        .metrics()
        .add_ops(total as u64 + (total.max(2) as f64).log2().ceil() as u64);
    if total == 0 {
        return Vec::new();
    }
    let executor = device.executor();
    let parts = executor.partitions(total);
    let splits: Vec<(usize, usize)> = parts
        .iter()
        .map(|r| merge_path_partition_rows(a, b, data, arity, b_offset, r.start))
        .collect();
    let mut out = vec![0u32; total];
    {
        let splits_ref = &splits;
        let mut slices: Vec<&mut [u32]> = Vec::with_capacity(parts.len());
        let mut rest: &mut [u32] = out.as_mut_slice();
        for r in &parts {
            let (head, tail) = rest.split_at_mut(r.len());
            slices.push(head);
            rest = tail;
        }
        executor.run_tasks(slices, |p, slice| {
            let (mut ai, mut bi) = splits_ref[p];
            let (a_end, b_end) = splits_ref.get(p + 1).copied().unwrap_or((a.len(), b.len()));
            if (b_end - bi) * GALLOP_RATIO <= a_end - ai {
                let mut out_at = 0;
                for &delta in &b[bi..b_end] {
                    let idx = delta + b_offset;
                    // Merge path guarantees every `b` row of this partition
                    // lands before `a_end`, so the search stays in range.
                    let next =
                        gallop_upper_bound(a, ai, a_end, data, arity, row_of(data, arity, idx));
                    slice[out_at..out_at + next - ai].copy_from_slice(&a[ai..next]);
                    out_at += next - ai;
                    slice[out_at] = idx;
                    out_at += 1;
                    ai = next;
                }
                slice[out_at..].copy_from_slice(&a[ai..a_end]);
                return;
            }
            for slot in slice.iter_mut() {
                let take_a = if ai >= a.len() {
                    false
                } else if bi >= b.len() {
                    true
                } else {
                    // Stable: take from `a` unless `b`'s row is strictly
                    // smaller.
                    row_of(data, arity, b[bi] + b_offset) >= row_of(data, arity, a[ai])
                };
                if take_a {
                    *slot = a[ai];
                    ai += 1;
                } else {
                    *slot = b[bi] + b_offset;
                    bi += 1;
                }
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;

    /// The keyed reference merge the row-slice merge must agree with: two
    /// sorted index arrays whose order is defined by a key function.
    fn merge_sorted_indices_by_key<K, F>(device: &Device, a: &[u32], b: &[u32], key: F) -> Vec<u32>
    where
        K: Ord,
        F: Fn(u32) -> K + Sync,
    {
        merge_path_merge(device, a, b, |x, y| key(*x).cmp(&key(*y)))
    }

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    #[test]
    fn merges_empty_inputs() {
        let d = device();
        let out: Vec<u32> = merge_path_merge(&d, &[], &[], |a, b| a.cmp(b));
        assert!(out.is_empty());
        assert_eq!(
            merge_path_merge(&d, &[1u32, 2], &[], |a, b| a.cmp(b)),
            vec![1, 2]
        );
        assert_eq!(merge_path_merge(&d, &[], &[3u32], |a, b| a.cmp(b)), vec![3]);
    }

    #[test]
    fn merge_matches_std_merge_on_random_inputs() {
        let d = device();
        for (na, nb) in [
            (1usize, 1usize),
            (10, 3),
            (100, 100),
            (1000, 777),
            (1, 1000),
        ] {
            let mut a: Vec<u32> = (0..na as u32).map(|i| (i * 37) % 523).collect();
            let mut b: Vec<u32> = (0..nb as u32).map(|i| (i * 91) % 523).collect();
            a.sort();
            b.sort();
            let got = merge_path_merge(&d, &a, &b, |x, y| x.cmp(y));
            let mut expected = a.clone();
            expected.extend_from_slice(&b);
            expected.sort();
            assert_eq!(got, expected, "na={na} nb={nb}");
        }
    }

    #[test]
    fn merge_is_stable_with_a_before_b() {
        let d = device();
        // Tag elements with their source; equal keys must keep a's first.
        let a: Vec<(u32, u32)> = vec![(1, 0), (2, 0), (2, 0), (5, 0)];
        let b: Vec<(u32, u32)> = vec![(2, 1), (5, 1)];
        let out = merge_path_merge(&d, &a, &b, |x, y| x.0.cmp(&y.0));
        assert_eq!(out, vec![(1, 0), (2, 0), (2, 0), (2, 1), (5, 0), (5, 1)]);
    }

    #[test]
    fn merge_sorted_indices_by_key_uses_indirect_order() {
        let d = device();
        let data = [10u32, 30, 50, 20, 40];
        // a holds indices {0, 1, 2} sorted by data, b holds {3, 4}.
        let a = vec![0u32, 1, 2];
        let b = vec![3u32, 4];
        let merged = merge_sorted_indices_by_key(&d, &a, &b, |i| data[i as usize]);
        let values: Vec<u32> = merged.iter().map(|&i| data[i as usize]).collect();
        assert_eq!(values, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn merge_index_rows_matches_keyed_merge_with_shifted_copy() {
        let d = device();
        // Two-column rows; `full` holds rows 0..4 sorted, `delta` rows 4..7.
        let data: Vec<u32> = vec![
            1, 9, 5, 0, 2, 2, 9, 9, // full rows (storage order)
            0, 1, 3, 3, 5, 1, // delta rows (appended)
        ];
        let a = vec![0u32, 2, 1, 3]; // full indices sorted by row value
        let b = vec![0u32, 1, 2]; // delta indices, rows already sorted
        let got = merge_sorted_index_rows(&d, &a, &b, &data, 2, 4);
        // Reference: shift b by hand and merge with the allocating key path.
        let shifted: Vec<u32> = b.iter().map(|&i| i + 4).collect();
        let expected = merge_sorted_indices_by_key(&d, &a, &shifted, |i| {
            let r = i as usize * 2;
            data[r..r + 2].to_vec()
        });
        assert_eq!(got, expected);
    }

    #[test]
    fn merge_index_rows_is_stable_and_handles_empty_sides() {
        let d = device();
        let data = vec![7u32, 7, 7]; // three identical 1-column rows
        let a = vec![0u32, 1];
        let b = vec![0u32];
        // Equal rows: a's entries must precede the (offset) b entry.
        assert_eq!(merge_sorted_index_rows(&d, &a, &b, &data, 1, 2), [0, 1, 2]);
        assert_eq!(merge_sorted_index_rows(&d, &a, &[], &data, 1, 2), [0, 1]);
        assert_eq!(merge_sorted_index_rows(&d, &[], &b, &data, 1, 2), [2]);
        let empty: Vec<u32> = merge_sorted_index_rows(&d, &[], &[], &data, 1, 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn merge_index_rows_agrees_across_worker_counts() {
        let d1 = Device::with_workers(DeviceProfile::nvidia_h100(), 1);
        let d8 = Device::with_workers(DeviceProfile::nvidia_h100(), 8);
        let rows = 800usize;
        let data: Vec<u32> = (0..(rows + 200) * 2)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) % 97)
            .collect();
        let mut a: Vec<u32> = (0..rows as u32).collect();
        a.sort_by_key(|&i| (data[i as usize * 2], data[i as usize * 2 + 1]));
        let mut b: Vec<u32> = (0..200u32).collect();
        b.sort_by_key(|&i| {
            let r = (i + rows as u32) as usize * 2;
            (data[r], data[r + 1])
        });
        let m1 = merge_sorted_index_rows(&d1, &a, &b, &data, 2, rows as u32);
        let m8 = merge_sorted_index_rows(&d8, &a, &b, &data, 2, rows as u32);
        assert_eq!(m1, m8);
        assert_eq!(m1.len(), rows + 200);
    }

    /// A sorted index over `rows` single-column rows plus, appended, the
    /// sorted index of `delta_rows` more, spread between them:
    /// (data, a, b, b_offset).
    fn index_pair(rows: u32, delta_rows: u32) -> (Vec<u32>, Vec<u32>, Vec<u32>, u32) {
        let data: Vec<u32> = (0..rows)
            .map(|i| i * 4)
            .chain((0..delta_rows).map(|i| i * 4 * rows / delta_rows.max(1) + 1))
            .collect();
        (data, (0..rows).collect(), (0..delta_rows).collect(), rows)
    }

    #[test]
    fn merge_index_rows_gallop_keeps_full_first_on_ties() {
        let d = device();
        // Full is 100 rows of 3 then 100 rows of 5. A delta row of 3 must
        // land after every full 3 (a first on ties); rows of 0 and 9 land at
        // the ends.
        let mut data: Vec<u32> = (0..100).map(|_| 3).chain((0..100).map(|_| 5)).collect();
        data.extend([3, 0, 9]);
        let a: Vec<u32> = (0..200).collect();
        let mut expected: Vec<u32> = (0..100).collect();
        expected.push(200);
        expected.extend(100..200);
        assert_eq!(
            merge_sorted_index_rows(&d, &a, &[0], &data, 1, 200),
            expected
        );
        let mut expected = vec![201];
        expected.extend(0..200);
        assert_eq!(
            merge_sorted_index_rows(&d, &a, &[1], &data, 1, 200),
            expected
        );
        expected.remove(0);
        expected.push(202);
        assert_eq!(
            merge_sorted_index_rows(&d, &a, &[2], &data, 1, 200),
            expected
        );
    }

    #[test]
    fn merge_index_rows_charges_the_merge_path_not_the_host_loop() {
        // The closed-form merge-path charge: one launch, per output element
        // one index read plus one row pair and one index write, and a
        // linear pass plus the log-depth partition search.
        fn merge_path_charge(total: u64, arity: u64) -> (u64, u64, u64, u64) {
            let log_depth = u64::from(u64::BITS - (total.max(2) - 1).leading_zeros());
            (total * (4 + 8 * arity), total * 4, total + log_depth, 1)
        }
        let d = device();
        // Skewed (gallops) and balanced (per-element loop) inputs must be
        // charged alike for the same total.
        for (rows, delta_rows) in [(4000u32, 10u32), (2005, 2005), (1, 0), (0, 0)] {
            let (data, a, b, offset) = index_pair(rows, delta_rows);
            let before = d.metrics().snapshot();
            let merged = merge_sorted_index_rows(&d, &a, &b, &data, 1, offset);
            let used = d.metrics().snapshot().since(&before);
            let total = merged.len() as u64;
            assert_eq!(total, u64::from(rows + delta_rows));
            assert!(merged
                .windows(2)
                .all(|w| data[w[0] as usize] < data[w[1] as usize]));
            assert_eq!(
                (
                    used.bytes_read,
                    used.bytes_written,
                    used.ops,
                    used.kernel_launches
                ),
                merge_path_charge(total, 1),
                "rows={rows} delta_rows={delta_rows}"
            );
        }
    }

    #[test]
    fn single_worker_and_many_workers_agree() {
        let d1 = Device::with_workers(DeviceProfile::nvidia_h100(), 1);
        let d8 = Device::with_workers(DeviceProfile::nvidia_h100(), 8);
        let a: Vec<u32> = (0..500).map(|i| i * 2).collect();
        let b: Vec<u32> = (0..500).map(|i| i * 2 + 1).collect();
        let m1 = merge_path_merge(&d1, &a, &b, |x, y| x.cmp(y));
        let m8 = merge_path_merge(&d8, &a, &b, |x, y| x.cmp(y));
        assert_eq!(m1, m8);
    }
}
