//! Deduplication and set difference — the "Populating Delta" phase.
//!
//! GPUlog keeps delta population as a distinct phase (paper Section 5.1):
//! the freshly derived `new` tuples are deduplicated and then the tuples
//! already present in `full` are removed, yielding the next iteration's
//! delta. Keeping this separate from the merge avoids rescanning the
//! (large) full relation, which is the fused strategy GPUJoin uses.

use gpulog_device::thrust::scan::exclusive_scan_offsets;
use gpulog_device::thrust::sort::lexicographic_sort_indices;
use gpulog_device::thrust::transform::adjacent_unique_flags;
use gpulog_device::Device;
use gpulog_hisa::{Hisa, TupleBatch};

/// Sorts and deduplicates a batch, returning its distinct rows in
/// lexicographic order (flagged sorted-unique).
pub fn deduplicate_rows(device: &Device, batch: &TupleBatch) -> TupleBatch {
    let (data, arity) = (batch.as_flat(), batch.arity());
    if data.is_empty() {
        return TupleBatch::empty(arity);
    }
    let order: Vec<usize> = (0..arity).collect();
    let sorted = lexicographic_sort_indices(device, data, arity, &order);
    let flags = adjacent_unique_flags(device, data, arity, &sorted);
    let value_counts: Vec<usize> = flags.iter().map(|&f| usize::from(f) * arity).collect();
    let offsets = exclusive_scan_offsets(device, &value_counts);
    let total = *offsets.last().unwrap_or(&0);
    let mut out = vec![0u32; total];
    device
        .executor()
        .scatter_by_offsets(&mut out, &offsets, |p, slots| {
            if slots.is_empty() {
                return;
            }
            let row = sorted[p] as usize;
            slots.copy_from_slice(&data[row * arity..(row + 1) * arity]);
        });
    device.metrics().add_bytes_written((total * 4) as u64);
    TupleBatch::from_sorted_unique_flat(arity, out)
}

/// Computes `deduplicate(batch) \ existing`: the distinct rows of `batch`
/// that are not already present in the `existing` relation. This is exactly
/// the delta-population step of semi-naïve evaluation.
///
/// `existing` may be indexed on any key; membership is tested with a range
/// query followed by a full-tuple comparison. The result is sorted and
/// duplicate-free by construction, so the returned batch carries the
/// sorted-unique flag — which is what lets
/// [`crate::relation::RelationStorage::set_delta_batch`] build the delta
/// HISA without re-sorting.
///
/// # Panics
///
/// Panics if arities disagree.
pub fn difference_batch(device: &Device, batch: &TupleBatch, existing: &Hisa) -> TupleBatch {
    let arity = batch.arity();
    assert_eq!(existing.arity(), arity, "arity mismatch in set difference");
    let candidates = deduplicate_rows(device, batch);
    if candidates.is_empty() {
        return candidates;
    }
    let candidates = candidates.as_flat();
    let rows = candidates.len() / arity;
    device.metrics().add_kernel_launch();
    device
        .metrics()
        .add_bytes_read((candidates.len() * 4) as u64);
    let keep: Vec<usize> = device.executor().map_collect(rows, |r| {
        let row = &candidates[r * arity..(r + 1) * arity];
        usize::from(!existing.contains(row))
    });
    let value_counts: Vec<usize> = keep.iter().map(|&k| k * arity).collect();
    let offsets = exclusive_scan_offsets(device, &value_counts);
    let total = *offsets.last().unwrap_or(&0);
    let mut out = vec![0u32; total];
    device
        .executor()
        .scatter_by_offsets(&mut out, &offsets, |r, slots| {
            if !slots.is_empty() {
                slots.copy_from_slice(&candidates[r * arity..(r + 1) * arity]);
            }
        });
    TupleBatch::from_sorted_unique_flat(arity, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_device::profile::DeviceProfile;
    use gpulog_hisa::IndexSpec;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    #[test]
    fn deduplicate_removes_duplicates_and_sorts() {
        let d = device();
        let data = TupleBatch::new(2, vec![3, 4, 1, 2, 3, 4, 1, 2, 1, 2]);
        let out = deduplicate_rows(&d, &data);
        assert_eq!(out.as_flat(), &[1, 2, 3, 4]);
        assert!(out.is_sorted_unique());
    }

    #[test]
    fn deduplicate_of_empty_is_empty() {
        assert!(deduplicate_rows(&device(), &TupleBatch::empty(2)).is_empty());
    }

    #[test]
    fn difference_removes_existing_tuples() {
        let d = device();
        let full = Hisa::build(&d, IndexSpec::new(2, vec![0]), &[1, 2, 3, 4]).unwrap();
        let new = TupleBatch::new(2, vec![1, 2, 5, 6, 3, 4, 5, 6, 7, 8]);
        let delta = difference_batch(&d, &new, &full);
        assert_eq!(delta.as_flat(), &[5, 6, 7, 8]);
        assert!(delta.is_sorted_unique());
    }

    #[test]
    fn difference_with_nothing_new_is_empty() {
        let d = device();
        let full = Hisa::build(&d, IndexSpec::new(2, vec![0]), &[1, 2]).unwrap();
        let new = TupleBatch::new(2, vec![1, 2, 1, 2]);
        assert!(difference_batch(&d, &new, &full).is_empty());
    }

    #[test]
    fn difference_against_empty_relation_keeps_everything_deduplicated() {
        let d = device();
        let full = Hisa::build(&d, IndexSpec::new(2, vec![0]), &[]).unwrap();
        let new = TupleBatch::new(2, vec![9, 9, 9, 9, 1, 1]);
        assert_eq!(difference_batch(&d, &new, &full).as_flat(), &[1, 1, 9, 9]);
    }
}
