//! Gather, compaction, and adjacent-difference style primitives.

use crate::device::Device;
use crate::thrust::scan::exclusive_scan_offsets;

/// Gathers whole rows of a row-major tuple store: output row `i` is input
/// row `indices[i]`.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `arity` or any index is out
/// of range.
pub fn gather_rows(device: &Device, data: &[u32], arity: usize, indices: &[u32]) -> Vec<u32> {
    assert!(arity > 0, "arity must be positive");
    assert_eq!(
        data.len() % arity,
        0,
        "data length must be a multiple of arity"
    );
    let rows = data.len() / arity;
    assert!(
        indices.iter().all(|&i| (i as usize) < rows),
        "gather index out of range"
    );
    device.metrics().add_kernel_launch();
    device
        .metrics()
        .add_bytes_read((indices.len() * arity * 4 + indices.len() * 4) as u64);
    device
        .metrics()
        .add_bytes_written((indices.len() * arity * 4) as u64);
    let mut out = vec![0u32; indices.len() * arity];
    device.executor().fill(&mut out, |slot| {
        let row = indices[slot / arity] as usize;
        data[row * arity + slot % arity]
    });
    out
}

/// Inverts a permutation into a caller-provided buffer: `out[perm[q]] = q`.
/// Every destination appears exactly once (it is a permutation), so the
/// scatter is data-race-free; on a multi-worker device large inputs scatter
/// in parallel through relaxed atomic cells and are copied back with a
/// partitioned fill, while small inputs (or a single-worker pool) take one
/// sequential stream. Memory-bound exactly like the index merge that
/// produces `perm`.
///
/// # Panics
///
/// Panics if the lengths differ or any entry is out of range (the latter
/// only under `debug_assertions`).
pub fn invert_permutation_into(device: &Device, perm: &[u32], out: &mut [u32]) {
    use std::sync::atomic::{AtomicU32, Ordering};
    // Below this size the scratch allocation and extra pass of the
    // parallel path cost more than they save.
    const PARALLEL_CUTOFF: usize = 1 << 14;
    assert_eq!(perm.len(), out.len(), "permutation/inverse length mismatch");
    let n = perm.len();
    device.metrics().add_kernel_launch();
    device.metrics().add_bytes_read(n as u64 * 4);
    device.metrics().add_bytes_written(n as u64 * 4);
    let executor = device.executor();
    if executor.workers() > 1 && n >= PARALLEL_CUTOFF {
        let scratch: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let scratch_ref = &scratch;
        executor.for_each_partition(n, |_, range| {
            for q in range {
                let r = perm[q] as usize;
                debug_assert!(r < n, "permutation entry out of range");
                scratch_ref[r].store(q as u32, Ordering::Relaxed);
            }
        });
        executor.fill(out, |i| scratch[i].load(Ordering::Relaxed));
    } else {
        for (q, &r) in perm.iter().enumerate() {
            debug_assert!((r as usize) < out.len(), "permutation entry out of range");
            out[r as usize] = q as u32;
        }
    }
}

/// [`invert_permutation_into`] with a freshly allocated output.
pub fn invert_permutation(device: &Device, perm: &[u32]) -> Vec<u32> {
    let mut out = vec![0u32; perm.len()];
    invert_permutation_into(device, perm, &mut out);
    out
}

/// Parallel compaction (`copy_if`): keeps element `i` when `keep(i)` is true,
/// preserving order. Returns the kept indices.
pub fn compact_indices<F>(device: &Device, n: usize, keep: F) -> Vec<u32>
where
    F: Fn(usize) -> bool + Sync,
{
    device.metrics().add_kernel_launch();
    device.metrics().add_ops(n as u64);
    let flags: Vec<usize> = device.executor().map_collect(n, |i| usize::from(keep(i)));
    let offsets = exclusive_scan_offsets(device, &flags);
    let total = offsets[n];
    device.metrics().add_bytes_written(total as u64 * 4);
    let mut out = vec![0u32; total];
    device
        .executor()
        .scatter_by_offsets(&mut out, &offsets, |i, slots| {
            if let Some(slot) = slots.first_mut() {
                *slot = i as u32;
            }
        });
    out
}

/// Marks, for each position of a sorted index array, whether the referenced
/// row differs from the previous referenced row — the adjacent-comparison
/// pass HISA uses for deduplication. Position 0 is always marked unique.
///
/// `sorted_indices[i]` indexes a row of the row-major `data` store.
pub fn adjacent_unique_flags(
    device: &Device,
    data: &[u32],
    arity: usize,
    sorted_indices: &[u32],
) -> Vec<bool> {
    assert!(arity > 0, "arity must be positive");
    let n = sorted_indices.len();
    device.metrics().add_kernel_launch();
    device.metrics().add_bytes_read((n * arity * 4 * 2) as u64);
    device.metrics().add_ops((n * arity) as u64);
    let mut flags = vec![false; n];
    device.executor().fill(&mut flags, |i| {
        if i == 0 {
            return true;
        }
        let cur = sorted_indices[i] as usize * arity;
        let prev = sorted_indices[i - 1] as usize * arity;
        data[cur..cur + arity] != data[prev..prev + arity]
    });
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    #[test]
    fn gather_rows_picks_whole_tuples() {
        let d = device();
        let data = vec![1u32, 2, 3, 4, 5, 6, 7, 8, 9]; // 3 rows of arity 3
        let out = gather_rows(&d, &data, 3, &[2, 0]);
        assert_eq!(out, vec![7, 8, 9, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_rejects_bad_index() {
        gather_rows(&device(), &[1, 2], 2, &[5]);
    }

    #[test]
    fn compact_keeps_matching_indices_in_order() {
        let d = device();
        let out = compact_indices(&d, 10, |i| i % 3 == 0);
        assert_eq!(out, vec![0, 3, 6, 9]);
    }

    #[test]
    fn compact_with_nothing_kept_is_empty() {
        let d = device();
        assert!(compact_indices(&d, 100, |_| false).is_empty());
    }

    #[test]
    fn compact_with_everything_kept_is_identity() {
        let d = device();
        let out = compact_indices(&d, 17, |_| true);
        assert_eq!(out, (0..17u32).collect::<Vec<_>>());
    }

    #[test]
    fn adjacent_unique_flags_detect_duplicates() {
        let d = device();
        // rows: (1,2) (1,2) (3,4) (3,4) (3,5)
        let data = vec![1u32, 2, 1, 2, 3, 4, 3, 4, 3, 5];
        let sorted = vec![0u32, 1, 2, 3, 4];
        let flags = adjacent_unique_flags(&d, &data, 2, &sorted);
        assert_eq!(flags, vec![true, false, true, false, true]);
    }

    #[test]
    fn adjacent_unique_flags_follow_index_order_not_storage_order() {
        let d = device();
        // rows: (5,5) (1,1) (5,5) — sorted order [1, 0, 2] puts the
        // duplicates adjacent.
        let data = vec![5u32, 5, 1, 1, 5, 5];
        let flags = adjacent_unique_flags(&d, &data, 2, &[1, 0, 2]);
        assert_eq!(flags, vec![true, true, false]);
    }
}
