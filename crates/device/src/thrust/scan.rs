//! Parallel prefix sums.

use crate::device::Device;

/// Exclusive prefix sum returning `n + 1` offsets.
///
/// `result[i]` is the sum of `values[..i]`; `result[n]` is the total. This
/// is the offsets layout consumed by
/// [`crate::executor::Executor::scatter_by_offsets`] and by every two-pass
/// output-materialization kernel in the engine.
pub fn exclusive_scan_offsets(device: &Device, values: &[usize]) -> Vec<usize> {
    let n = values.len();
    let mut offsets = vec![0usize; n + 1];
    if n == 0 {
        return offsets;
    }
    device.metrics().add_kernel_launch();
    device
        .metrics()
        .add_bytes_read(std::mem::size_of_val(values) as u64);
    device
        .metrics()
        .add_bytes_written(((n + 1) * std::mem::size_of::<usize>()) as u64);
    device.metrics().add_ops(n as u64);

    let executor = device.executor();
    let parts = executor.partitions(n);
    // Pass 1: per-partition sums.
    let mut partial: Vec<usize> = vec![0; parts.len()];
    {
        let parts_ref = &parts;
        executor.fill(&mut partial, |p| {
            parts_ref[p].clone().map(|i| values[i]).sum()
        });
    }
    // Sequential scan over the (few) partition sums.
    let mut bases = vec![0usize; parts.len() + 1];
    for (i, s) in partial.iter().enumerate() {
        bases[i + 1] = bases[i] + s;
    }
    // Pass 2: per-partition exclusive scans shifted by the base.
    let offsets_cell: Vec<std::sync::atomic::AtomicUsize> = (0..=n)
        .map(|_| std::sync::atomic::AtomicUsize::new(0))
        .collect();
    {
        let parts_ref = &parts;
        let bases_ref = &bases;
        let offsets_ref = &offsets_cell;
        executor.for_each_partition(n, |p, _| {
            let range = parts_ref[p].clone();
            let mut acc = bases_ref[p];
            for i in range {
                offsets_ref[i].store(acc, std::sync::atomic::Ordering::Relaxed);
                acc += values[i];
            }
        });
    }
    for (i, slot) in offsets_cell.iter().enumerate().take(n) {
        offsets[i] = slot.load(std::sync::atomic::Ordering::Relaxed);
    }
    offsets[n] = bases[parts.len()];
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    fn reference_exclusive(values: &[usize]) -> Vec<usize> {
        let mut out = vec![0usize; values.len() + 1];
        for i in 0..values.len() {
            out[i + 1] = out[i] + values[i];
        }
        out
    }

    #[test]
    fn empty_input_yields_single_zero() {
        assert_eq!(exclusive_scan_offsets(&device(), &[]), vec![0]);
    }

    #[test]
    fn matches_sequential_reference() {
        let d = device();
        for n in [1usize, 2, 5, 63, 64, 65, 1000] {
            let values: Vec<usize> = (0..n).map(|i| (i * 7 + 3) % 11).collect();
            assert_eq!(
                exclusive_scan_offsets(&d, &values),
                reference_exclusive(&values),
                "n = {n}"
            );
        }
    }

    #[test]
    fn total_is_last_offset() {
        let d = device();
        let values = vec![4usize, 0, 9, 2];
        let offsets = exclusive_scan_offsets(&d, &values);
        assert_eq!(*offsets.last().unwrap(), 15);
    }

    #[test]
    fn scan_records_a_kernel_launch() {
        let d = device();
        let before = d.metrics().snapshot().kernel_launches;
        exclusive_scan_offsets(&d, &[1, 2, 3]);
        assert!(d.metrics().snapshot().kernel_launches > before);
    }
}
