//! Deduplication over sorted index arrays (paper Section 4.2).
//!
//! Once tuples are lexicographically sorted, duplicates are adjacent; a
//! parallel adjacent-comparison pass marks the first occurrence of each
//! distinct tuple and a compaction keeps only those positions.

use gpulog_device::thrust::transform::{adjacent_unique_flags, compact_indices};
use gpulog_device::Device;

/// Returns the subsequence of `sorted_indices` that keeps exactly one
/// occurrence (the first, preserving sort order) of every distinct tuple.
///
/// `data` is row-major with `arity` columns; `sorted_indices` must order the
/// referenced rows lexicographically (equal rows adjacent).
pub fn unique_sorted_positions(
    device: &Device,
    data: &[u32],
    arity: usize,
    sorted_indices: &[u32],
) -> Vec<u32> {
    if sorted_indices.is_empty() {
        return Vec::new();
    }
    let flags = adjacent_unique_flags(device, data, arity, sorted_indices);
    let kept = compact_indices(device, sorted_indices.len(), |i| flags[i]);
    kept.into_iter()
        .map(|pos| sorted_indices[pos as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_device::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    #[test]
    fn removes_adjacent_duplicates_keeping_first() {
        let d = device();
        // rows: 0:(1,1) 1:(2,2) 2:(1,1) 3:(3,3)  sorted order: 0,2,1,3
        let data = vec![1u32, 1, 2, 2, 1, 1, 3, 3];
        let sorted = vec![0u32, 2, 1, 3];
        let unique = unique_sorted_positions(&d, &data, 2, &sorted);
        assert_eq!(unique, vec![0, 1, 3]);
    }

    #[test]
    fn all_identical_rows_collapse_to_one() {
        let d = device();
        let data = vec![9u32, 9, 9, 9, 9, 9];
        let sorted = vec![0u32, 1, 2];
        assert_eq!(unique_sorted_positions(&d, &data, 2, &sorted), vec![0]);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let d = device();
        assert!(unique_sorted_positions(&d, &[], 2, &[]).is_empty());
    }

    #[test]
    fn distinct_rows_are_all_kept() {
        let d = device();
        let data = vec![1u32, 0, 2, 0, 3, 0];
        let sorted = vec![0u32, 1, 2];
        assert_eq!(
            unique_sorted_positions(&d, &data, 2, &sorted),
            vec![0, 1, 2]
        );
    }
}
