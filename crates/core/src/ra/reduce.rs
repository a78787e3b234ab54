//! Grouped reduction — the kernel behind head aggregates.
//!
//! An aggregate rule's pipeline produces a head-shaped batch in which one
//! column carries the aggregated variable and the remaining columns form
//! the group key. The reduce kernel deduplicates that batch (aggregates
//! are over *distinct* bindings, matching set semantics everywhere else in
//! the engine), sorts it group-key-major so each group is a contiguous
//! segment, and collapses every segment to a single output row with the
//! reduced value in the aggregate column.
//!
//! The kernel keeps the sort → flag → scan → scatter shape of the other
//! device kernels so the simulated metrics stay comparable.

use crate::ast::AggregateOp;
use crate::ra::difference::deduplicate_rows;
use gpulog_device::thrust::scan::exclusive_scan_offsets;
use gpulog_device::thrust::sort::lexicographic_sort_indices;
use gpulog_device::Device;
use gpulog_hisa::TupleBatch;

/// Applies `op` to every distinct value of `agg_column` within each group,
/// where the group key is every other column. Returns one row per group
/// (group columns in place, reduced value at `agg_column`), ordered by
/// group key. Sums and counts saturate at `u32::MAX` rather than wrap.
///
/// # Panics
///
/// Panics if `agg_column` is out of range.
pub fn group_reduce_batch(
    device: &Device,
    batch: &TupleBatch,
    agg_column: usize,
    op: AggregateOp,
) -> TupleBatch {
    let arity = batch.arity();
    assert!(agg_column < arity, "aggregate column out of range");
    if batch.is_empty() {
        return TupleBatch::new(arity, Vec::new());
    }
    let distinct = deduplicate_rows(device, batch);
    let distinct = distinct.as_flat();
    let rows = distinct.len() / arity;
    let group_cols: Vec<usize> = (0..arity).filter(|&c| c != agg_column).collect();
    // Group-key-major, value-minor order: every group is one contiguous
    // segment of the sorted permutation.
    let mut order = group_cols.clone();
    order.push(agg_column);
    let sorted = lexicographic_sort_indices(device, distinct, arity, &order);
    device.metrics().add_kernel_launch();
    device.metrics().add_bytes_read((distinct.len() * 4) as u64);
    let heads: Vec<usize> = device.executor().map_collect(rows, |i| {
        if i == 0 {
            return 1;
        }
        let prev = &distinct[sorted[i - 1] as usize * arity..][..arity];
        let cur = &distinct[sorted[i] as usize * arity..][..arity];
        usize::from(group_cols.iter().any(|&c| prev[c] != cur[c]))
    });
    let value_counts: Vec<usize> = heads.iter().map(|&h| h * arity).collect();
    let offsets = exclusive_scan_offsets(device, &value_counts);
    let total = *offsets.last().unwrap_or(&0);
    device.metrics().add_bytes_written((total * 4) as u64);
    let mut out = vec![0u32; total];
    device
        .executor()
        .scatter_by_offsets(&mut out, &offsets, |i, slots| {
            if slots.is_empty() {
                return;
            }
            // `i` heads a segment; walk it, reducing the aggregate column.
            // Segments are distinct (group, value) pairs, so Count is the
            // segment length and Sum never double-counts a value.
            let mut acc: u64 = match op {
                AggregateOp::Count => 0,
                AggregateOp::Sum => 0,
                AggregateOp::Min | AggregateOp::Max => {
                    u64::from(distinct[sorted[i] as usize * arity + agg_column])
                }
            };
            let mut j = i;
            while j < rows && (j == i || heads[j] == 0) {
                let v = u64::from(distinct[sorted[j] as usize * arity + agg_column]);
                match op {
                    AggregateOp::Count => acc += 1,
                    AggregateOp::Sum => acc = acc.saturating_add(v),
                    AggregateOp::Min => acc = acc.min(v),
                    AggregateOp::Max => acc = acc.max(v),
                }
                j += 1;
            }
            let row = &distinct[sorted[i] as usize * arity..][..arity];
            slots.copy_from_slice(row);
            slots[agg_column] = u32::try_from(acc).unwrap_or(u32::MAX);
        });
    TupleBatch::new(arity, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_device::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    /// (x, y, d) triples: group (x, y), aggregate d at column 2.
    const PATHS: [u32; 15] = [
        1, 2, 5, //
        1, 2, 3, //
        1, 2, 5, // duplicate binding: must not affect count/sum
        1, 3, 7, //
        2, 2, 1,
    ];

    fn reduce(data: &[u32], arity: usize, agg_column: usize, op: AggregateOp) -> Vec<u32> {
        let batch = TupleBatch::new(arity, data.to_vec());
        group_reduce_batch(&device(), &batch, agg_column, op).into_flat()
    }

    #[test]
    fn min_keeps_the_smallest_value_per_group() {
        let out = reduce(&PATHS, 3, 2, AggregateOp::Min);
        assert_eq!(out, vec![1, 2, 3, 1, 3, 7, 2, 2, 1]);
    }

    #[test]
    fn max_keeps_the_largest_value_per_group() {
        let out = reduce(&PATHS, 3, 2, AggregateOp::Max);
        assert_eq!(out, vec![1, 2, 5, 1, 3, 7, 2, 2, 1]);
    }

    #[test]
    fn count_counts_distinct_bindings() {
        let out = reduce(&PATHS, 3, 2, AggregateOp::Count);
        assert_eq!(out, vec![1, 2, 2, 1, 3, 1, 2, 2, 1]);
    }

    #[test]
    fn sum_adds_distinct_values_and_saturates() {
        let out = reduce(&PATHS, 3, 2, AggregateOp::Sum);
        assert_eq!(out, vec![1, 2, 8, 1, 3, 7, 2, 2, 1]);
        let big = [7u32, u32::MAX, 7, u32::MAX - 1];
        let out = reduce(&big, 2, 1, AggregateOp::Sum);
        assert_eq!(out, vec![7, u32::MAX]);
    }

    #[test]
    fn aggregate_column_need_not_be_last() {
        // (d, x): group by x at column 1, aggregate column 0.
        let data = [9u32, 4, 2, 4, 5, 6];
        let out = reduce(&data, 2, 0, AggregateOp::Min);
        assert_eq!(out, vec![2, 4, 5, 6]);
    }

    #[test]
    fn empty_input_reduces_to_nothing() {
        assert!(reduce(&[], 2, 1, AggregateOp::Count).is_empty());
    }

    #[test]
    fn batch_form_preserves_arity() {
        let batch = TupleBatch::new(3, PATHS.to_vec());
        let out = group_reduce_batch(&device(), &batch, 2, AggregateOp::Min);
        assert_eq!(out.arity(), 3);
        assert_eq!(out.as_flat(), &[1, 2, 3, 1, 3, 7, 2, 2, 1]);
    }
}
