//! Parallel stable sorts.
//!
//! HISA builds its sorted index array by ordering row indices
//! lexicographically over the key columns (paper Algorithm 1).
//! [`lexicographic_sort_indices`] does this with a **hybrid MSD radix
//! sort**: the most significant occupied key byte is split 256 ways with
//! one data-parallel stable counting pass, buckets recurse independently
//! on the worker pool (skipping byte levels that are constant within a
//! bucket), and small buckets finish with a stable insertion sort — so
//! skewed or dense key distributions touch each element far fewer times
//! than a fixed passes-per-column schedule.

use crate::device::Device;
use crate::metrics::PhaseTimer;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU32, Ordering as AtomicOrdering};

/// Number of 8-bit digit positions needed to cover `max_value`.
fn radix_passes_for(max_value: u32) -> usize {
    if max_value == 0 {
        0
    } else {
        (32 - max_value.leading_zeros() as usize).div_ceil(8)
    }
}

/// Buckets at or below this size are finished with a stable insertion sort
/// instead of further MSD splitting.
const MSD_INSERTION_CUTOFF: usize = 32;
/// Inputs at or below this size skip the parallel top-level split and run
/// the sequential MSD recursion directly.
const MSD_SEQUENTIAL_CUTOFF: usize = 2048;

/// The significance-ordered byte positions of a key: for every column of
/// `column_order` (most significant first), the occupied 8-bit digit
/// positions from high to low. Digits above a column's maximum value are
/// omitted.
fn msd_byte_plan(
    device: &Device,
    data: &[u32],
    arity: usize,
    column_order: &[usize],
    rows: usize,
) -> Vec<(usize, u32)> {
    let mut plan = Vec::new();
    for &col in column_order {
        let max_value =
            crate::thrust::reduce::max_by(device, rows, |r| data[r * arity + col]).unwrap_or(0);
        for pass in (0..radix_passes_for(max_value)).rev() {
            plan.push((col, (pass * 8) as u32));
        }
    }
    plan
}

/// Lexicographic comparison of two rows' projections onto `column_order`.
#[inline]
fn cmp_rows_on(data: &[u32], arity: usize, column_order: &[usize], x: u32, y: u32) -> Ordering {
    let rx = x as usize * arity;
    let ry = y as usize * arity;
    for &c in column_order {
        match data[rx + c].cmp(&data[ry + c]) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    Ordering::Equal
}

/// Stable insertion sort of an index bucket by the full `column_order`
/// projection — the MSD base case. Equal keys are never swapped, so ties
/// keep the (already stable) bucket order.
fn insertion_sort_indices(data: &[u32], arity: usize, column_order: &[usize], idxs: &mut [u32]) {
    for i in 1..idxs.len() {
        let mut j = i;
        while j > 0
            && cmp_rows_on(data, arity, column_order, idxs[j - 1], idxs[j]) == Ordering::Greater
        {
            idxs.swap(j - 1, j);
            j -= 1;
        }
    }
}

/// Shared immutable context of one MSD sort: the device (for metrics), the
/// tuple store, and the significance-ordered byte plan.
struct MsdContext<'a> {
    device: &'a Device,
    data: &'a [u32],
    arity: usize,
    column_order: &'a [usize],
    plan: &'a [(usize, u32)],
}

/// Sequential MSD recursion over one bucket: split by the byte at
/// `plan[level]`, recurse per sub-bucket. Byte levels where the whole bucket
/// shares one digit advance without moving anything; buckets at or below
/// [`MSD_INSERTION_CUTOFF`] finish with the insertion sort.
fn msd_sort_bucket(
    ctx: &MsdContext<'_>,
    mut level: usize,
    idxs: &mut [u32],
    scratch: &mut Vec<u32>,
) {
    const RADIX: usize = 256;
    let n = idxs.len();
    if n <= 1 {
        return;
    }
    if n <= MSD_INSERTION_CUTOFF {
        if level < ctx.plan.len() {
            ctx.device.metrics().add_ops((n * n / 2) as u64);
            insertion_sort_indices(ctx.data, ctx.arity, ctx.column_order, idxs);
        }
        return;
    }
    loop {
        if level == ctx.plan.len() {
            // All key bytes consumed: the bucket holds equal keys, whose
            // stable order is already correct.
            return;
        }
        let (col, shift) = ctx.plan[level];
        let digit_of = |i: u32| ((ctx.data[i as usize * ctx.arity + col] >> shift) & 0xff) as usize;
        let mut hist = [0u32; RADIX];
        for &i in idxs.iter() {
            hist[digit_of(i)] += 1;
        }
        ctx.device.metrics().add_sort_passes(1);
        ctx.device.metrics().add_bytes_read(n as u64 * 8);
        if hist.iter().any(|&c| c as usize == n) {
            // One occupied digit: nothing moves at this byte, go deeper.
            level += 1;
            continue;
        }
        // Stable scatter into the scratch bucket, then copy back.
        let mut cursors = [0u32; RADIX];
        let mut running = 0u32;
        for (cursor, &count) in cursors.iter_mut().zip(hist.iter()) {
            *cursor = running;
            running += count;
        }
        scratch.clear();
        scratch.resize(n, 0);
        for &i in idxs.iter() {
            let d = digit_of(i);
            scratch[cursors[d] as usize] = i;
            cursors[d] += 1;
        }
        idxs.copy_from_slice(scratch);
        ctx.device.metrics().add_bytes_written(n as u64 * 4);
        // Recurse per sub-bucket.
        let mut start = 0usize;
        for &count in &hist {
            let len = count as usize;
            if len > 1 {
                msd_sort_bucket(ctx, level + 1, &mut idxs[start..start + len], scratch);
            }
            start += len;
        }
        return;
    }
}

/// Parallel stable 256-way split of one bucket on the first discriminating
/// byte at or after `level`: per-worker-partition histograms, a digit-major
/// exclusive scan, and a stable scatter copied back in place — the same
/// schedule as an LSD pass, restricted to the bucket. Byte levels whose
/// digit is constant over the bucket are skipped. Returns the bucket sizes
/// and the byte level actually split on, or `None` when the remaining
/// levels are all constant (the bucket is already ordered).
fn parallel_msd_split(
    ctx: &MsdContext<'_>,
    idxs: &mut [u32],
    mut level: usize,
) -> Option<([u32; 256], usize)> {
    const RADIX: usize = 256;
    let n = idxs.len();
    let executor = ctx.device.executor();
    loop {
        if level == ctx.plan.len() {
            return None;
        }
        let (col, shift) = ctx.plan[level];
        let digit_of = |i: u32| ((ctx.data[i as usize * ctx.arity + col] >> shift) & 0xff) as usize;
        let parts = executor.partitions(n);
        let parts_ref = &parts;
        let idx_ref = &*idxs;
        let histograms: Vec<Vec<u32>> = executor.map_collect(parts.len(), |p| {
            let mut hist = vec![0u32; RADIX];
            for &i in &idx_ref[parts_ref[p].clone()] {
                hist[digit_of(i)] += 1;
            }
            hist
        });
        ctx.device.metrics().add_sort_passes(1);
        ctx.device.metrics().add_bytes_read(n as u64 * 8);
        let mut global = [0u32; RADIX];
        for hist in &histograms {
            for (g, h) in global.iter_mut().zip(hist.iter()) {
                *g += h;
            }
        }
        if global.iter().any(|&c| c as usize == n) {
            level += 1;
            continue;
        }
        // Exclusive scan over (digit, partition) start offsets, then a
        // stable scatter (partition-order within each digit).
        let mut starts = vec![0u32; parts.len() * RADIX];
        let mut running = 0u32;
        for digit in 0..RADIX {
            for (p, hist) in histograms.iter().enumerate() {
                starts[p * RADIX + digit] = running;
                running += hist[digit];
            }
        }
        let output: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        {
            let starts_ref = &starts;
            let output_ref = &output;
            executor.for_each_partition(n, |p, range| {
                let mut cursors = starts_ref[p * RADIX..(p + 1) * RADIX].to_vec();
                for &i in &idx_ref[range] {
                    let d = digit_of(i);
                    output_ref[cursors[d] as usize].store(i, AtomicOrdering::Relaxed);
                    cursors[d] += 1;
                }
            });
        }
        for (slot, value) in idxs.iter_mut().zip(output) {
            *slot = value.into_inner();
        }
        ctx.device.metrics().add_bytes_written(n as u64 * 4);
        return Some((global, level));
    }
}

/// Builds the sorted index array for a row-major tuple store: indices end up
/// ordered lexicographically by their projection onto `column_order` (most
/// significant column first), with ties keeping their original index order.
///
/// `data` is row-major with `arity` columns; `column_order` lists columns
/// from most-significant to least-significant (join columns first).
///
/// This is a **hybrid MSD radix sort**. Buckets above
/// `MSD_SEQUENTIAL_CUTOFF` are split 256 ways on their most significant
/// occupied key byte with data-parallel stable counting passes
/// (`parallel_msd_split`), worklist style — so a skewed distribution whose
/// dominant bucket swallows most rows keeps every worker busy on the next
/// split instead of serializing on one task. Buckets at or below the cutoff
/// then recurse independently on the worker pool, splitting on successive
/// key bytes and finishing small buckets with a stable insertion sort.
/// Elements stop moving as soon as their bucket is fully ordered, and byte
/// levels whose digit is constant across a bucket are skipped entirely.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `arity`, or if any column in
/// `column_order` is out of range.
pub fn lexicographic_sort_indices(
    device: &Device,
    data: &[u32],
    arity: usize,
    column_order: &[usize],
) -> Vec<u32> {
    let _phase = PhaseTimer::new(device.metrics(), "sort");
    assert!(arity > 0, "arity must be positive");
    assert_eq!(
        data.len() % arity,
        0,
        "data length must be a multiple of arity"
    );
    assert!(
        column_order.iter().all(|&c| c < arity),
        "column_order entries must be < arity"
    );
    let rows = data.len() / arity;
    let mut indices: Vec<u32> = (0..rows as u32).collect();
    if rows <= 1 {
        return indices;
    }
    let plan = msd_byte_plan(device, data, arity, column_order, rows);
    if plan.is_empty() {
        return indices;
    }
    device.metrics().add_kernel_launch();
    let ctx = MsdContext {
        device,
        data,
        arity,
        column_order,
        plan: &plan,
    };
    if rows <= MSD_SEQUENTIAL_CUTOFF {
        let mut scratch = Vec::new();
        msd_sort_bucket(&ctx, 0, &mut indices, &mut scratch);
        return indices;
    }
    // Worklist of buckets still above the sequential cutoff: each gets its
    // own parallel split. Buckets whose remaining key bytes are constant
    // drop out already ordered.
    let mut small: Vec<(std::ops::Range<usize>, usize)> = Vec::new();
    let mut large: Vec<(std::ops::Range<usize>, usize)> = vec![(0..rows, 0)];
    while let Some((range, level)) = large.pop() {
        let Some((sizes, used_level)) =
            parallel_msd_split(&ctx, &mut indices[range.clone()], level)
        else {
            continue;
        };
        let mut start = range.start;
        for &size in &sizes {
            let len = size as usize;
            if len > MSD_SEQUENTIAL_CUTOFF {
                large.push((start..start + len, used_level + 1));
            } else if len > 1 {
                small.push((start..start + len, used_level + 1));
            }
            start += len;
        }
    }
    // Sequentially finish the small buckets — disjoint contiguous slices,
    // each claimed as one worker-pool task so uneven buckets balance
    // dynamically.
    small.sort_by_key(|(range, _)| range.start);
    let mut jobs: Vec<(&mut [u32], usize)> = Vec::with_capacity(small.len());
    let mut rest: &mut [u32] = indices.as_mut_slice();
    let mut cursor = 0usize;
    for (range, level) in small {
        let (_, tail) = rest.split_at_mut(range.start - cursor);
        let (bucket, tail) = tail.split_at_mut(range.len());
        cursor = range.end;
        rest = tail;
        jobs.push((bucket, level));
    }
    let executor = device.executor();
    executor.run_tasks(jobs, |_, (bucket, level)| {
        let mut scratch = Vec::new();
        msd_sort_bucket(&ctx, level, bucket, &mut scratch);
    });
    indices
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    /// The reference order: a std stable sort of the row indices by the
    /// projected key, ties broken by index.
    fn reference_order(data: &[u32], arity: usize, column_order: &[usize]) -> Vec<u32> {
        let mut indices: Vec<u32> = (0..(data.len() / arity) as u32).collect();
        indices.sort_by(|&x, &y| cmp_rows_on(data, arity, column_order, x, y).then(x.cmp(&y)));
        indices
    }

    #[test]
    fn sorts_small_and_large_inputs() {
        let d = device();
        // Straddles the insertion-sort and sequential cutoffs.
        for n in [0usize, 1, 2, 3, 17, 64, 65, 1000, 4097] {
            let data: Vec<u32> = (0..n as u32)
                .map(|i| i.wrapping_mul(2_654_435_761) % 10_007)
                .collect();
            let got = lexicographic_sort_indices(&d, &data, 1, &[0]);
            assert_eq!(got, reference_order(&data, 1, &[0]), "n = {n}");
        }
    }

    #[test]
    fn sort_is_stable() {
        let d = device();
        // Sort (key, original position) rows by the key only: equal keys
        // must keep their input order.
        let data: Vec<u32> = (0..500u32).flat_map(|i| [i % 7, i]).collect();
        let got = lexicographic_sort_indices(&d, &data, 2, &[0]);
        for w in got.windows(2) {
            let (a, b) = (w[0] as usize * 2, w[1] as usize * 2);
            assert!(data[a] <= data[b]);
            if data[a] == data[b] {
                assert!(
                    data[a + 1] < data[b + 1],
                    "equal keys must keep input order"
                );
            }
        }
    }

    #[test]
    fn sort_indices_by_key_orders_indirectly() {
        let d = device();
        let data = [50u32, 10, 40, 30, 20];
        let got = lexicographic_sort_indices(&d, &data, 1, &[0]);
        assert_eq!(got, vec![1, 4, 3, 2, 0]);
    }

    #[test]
    fn radix_passes_match_value_magnitude() {
        assert_eq!(radix_passes_for(0), 0);
        assert_eq!(radix_passes_for(1), 1);
        assert_eq!(radix_passes_for(255), 1);
        assert_eq!(radix_passes_for(256), 2);
        assert_eq!(radix_passes_for(65_535), 2);
        assert_eq!(radix_passes_for(65_536), 3);
        assert_eq!(radix_passes_for(u32::MAX), 4);
    }

    #[test]
    fn lexicographic_sort_matches_comparator_sort() {
        let d = device();
        // 3-arity data, sort by column order [1, 0, 2] (column 1 is the join column).
        let rows = 200usize;
        let data: Vec<u32> = (0..rows * 3)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761) % 5)
            .collect();
        let order = [1usize, 0, 2];
        let got = lexicographic_sort_indices(&d, &data, 3, &order);
        let mut expected: Vec<u32> = (0..rows as u32).collect();
        expected.sort_by(|&a, &b| {
            let ka = [
                data[a as usize * 3 + 1],
                data[a as usize * 3],
                data[a as usize * 3 + 2],
            ];
            let kb = [
                data[b as usize * 3 + 1],
                data[b as usize * 3],
                data[b as usize * 3 + 2],
            ];
            ka.cmp(&kb).then(a.cmp(&b))
        });
        // The sort is stable, so ties break by original index too.
        assert_eq!(got, expected);
    }

    #[test]
    fn radix_and_comparison_paths_agree_on_large_values() {
        let d = device();
        // Values spanning all four digit bytes, including u32::MAX.
        let rows = 500usize;
        let data: Vec<u32> = (0..rows * 2)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761))
            .chain([u32::MAX, 0])
            .take(rows * 2)
            .collect();
        let radix = lexicographic_sort_indices(&d, &data, 2, &[0, 1]);
        assert_eq!(radix, reference_order(&data, 2, &[0, 1]));
    }

    #[test]
    fn all_equal_column_is_skipped_without_reordering() {
        let d = device();
        // Column 0 is constant zero; order must be decided by column 1 only,
        // with ties keeping the identity order.
        let data = vec![0u32, 5, 0, 3, 0, 5, 0, 1];
        let got = lexicographic_sort_indices(&d, &data, 2, &[0, 1]);
        assert_eq!(got, vec![3, 1, 0, 2]);
    }

    #[test]
    fn lexicographic_sort_of_paper_example() {
        // Paper Section 4.2: tuples {2,1,5}, {2,5,9}, {2,1,2} with the second
        // column as the join column sort to index order [1, 0, 2]... the text
        // gives sorted order (1,2,2) < (1,2,5) < (5,2,9), i.e. indices 2, 0, 1.
        let d = device();
        let data = vec![2u32, 1, 5, 2, 5, 9, 2, 1, 2];
        let got = lexicographic_sort_indices(&d, &data, 3, &[1, 0, 2]);
        assert_eq!(got, vec![2, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "multiple of arity")]
    fn lexicographic_sort_rejects_ragged_data() {
        lexicographic_sort_indices(&device(), &[1, 2, 3, 4], 3, &[0]);
    }

    #[test]
    fn sort_matches_std_reference_on_assorted_distributions() {
        let d = device();
        let rows = 3000usize; // above the sequential cutoff: parallel split
        let distributions: Vec<(&str, Vec<u32>)> = vec![
            (
                "uniform-wide",
                (0..rows * 2)
                    .map(|i| (i as u32).wrapping_mul(2_654_435_761))
                    .collect(),
            ),
            (
                "dense-ids",
                (0..rows * 2)
                    .map(|i| (i as u32).wrapping_mul(97) % 1024)
                    .collect(),
            ),
            (
                "skewed-hub",
                (0..rows * 2)
                    .map(|i| {
                        // 90% of keys collapse onto a handful of hub values.
                        let r = (i as u32).wrapping_mul(2_654_435_761);
                        if r.is_multiple_of(10) {
                            r % 100_000
                        } else {
                            r % 4
                        }
                    })
                    .collect(),
            ),
            ("all-equal", vec![7u32; rows * 2]),
        ];
        for (name, data) in &distributions {
            for order in [vec![0usize, 1], vec![1, 0], vec![1]] {
                let got = lexicographic_sort_indices(&d, data, 2, &order);
                assert_eq!(
                    got,
                    reference_order(data, 2, &order),
                    "{name} order {order:?}"
                );
            }
        }
    }

    #[test]
    fn msd_sequential_and_parallel_cutoffs_agree() {
        let d = device();
        // Straddle the sequential cutoff so both code paths run.
        for rows in [MSD_SEQUENTIAL_CUTOFF - 1, MSD_SEQUENTIAL_CUTOFF + 1] {
            let data: Vec<u32> = (0..rows * 3)
                .map(|i| (i as u32).wrapping_mul(31) % 300)
                .collect();
            let order = [2usize, 0, 1];
            let got = lexicographic_sort_indices(&d, &data, 3, &order);
            assert_eq!(got, reference_order(&data, 3, &order), "rows = {rows}");
        }
    }

    #[test]
    fn msd_parallel_split_is_stable_across_worker_counts() {
        let seq = Device::with_workers(DeviceProfile::nvidia_h100(), 1);
        let par = Device::with_workers(DeviceProfile::nvidia_h100(), 8);
        let data: Vec<u32> = (0..9000u32).map(|i| i.wrapping_mul(97) % 613).collect();
        let a = lexicographic_sort_indices(&seq, &data, 2, &[1, 0]);
        let b = lexicographic_sort_indices(&par, &data, 2, &[1, 0]);
        assert_eq!(a, b);
    }

    #[test]
    fn sort_with_single_worker_matches_parallel() {
        let seq_device = Device::with_workers(DeviceProfile::nvidia_h100(), 1);
        let par_device = Device::with_workers(DeviceProfile::nvidia_h100(), 8);
        let items: Vec<u32> = (0..3000u32).map(|i| (i * 97) % 513).collect();
        let a = lexicographic_sort_indices(&seq_device, &items, 1, &[0]);
        let b = lexicographic_sort_indices(&par_device, &items, 1, &[0]);
        assert_eq!(a, b);
    }

    #[test]
    fn radix_sort_with_single_worker_matches_parallel() {
        let seq = Device::with_workers(DeviceProfile::nvidia_h100(), 1);
        let par = Device::with_workers(DeviceProfile::nvidia_h100(), 8);
        let data: Vec<u32> = (0..5000u32).map(|i| i.wrapping_mul(97) % 4099).collect();
        let a = lexicographic_sort_indices(&seq, &data, 2, &[1, 0]);
        let b = lexicographic_sort_indices(&par, &data, 2, &[1, 0]);
        assert_eq!(a, b);
    }
}
