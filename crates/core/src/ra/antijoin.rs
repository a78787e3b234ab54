//! Anti-join against a completed relation — the kernel behind negated
//! body literals.
//!
//! Stratified evaluation guarantees the negated relation's `full` version
//! is final before any pipeline containing this kernel runs, so the
//! anti-join is a pure filter: build the probe tuple for each intermediate
//! row from `probe` sources (columns of the intermediate or constants from
//! the negated atom) and keep the row only if the probe tuple is *absent*.
//! Because safety validation requires every negated-atom variable to be
//! bound by a positive literal, the probe tuple is always fully ground and
//! membership is a single point lookup, not a range scan.

use crate::planner::ColumnSource;
use gpulog_device::thrust::scan::exclusive_scan_offsets;
use gpulog_device::Device;
use gpulog_hisa::{Hisa, TupleBatch};

/// Keeps the rows of a batch whose probe tuple is absent from `existing`.
/// Row order is preserved, though the result does not carry the input's
/// sorted-unique flag.
///
/// # Panics
///
/// Panics if the probe arity does not match `existing` or a probe column
/// is out of range.
pub fn anti_join_batch(
    device: &Device,
    batch: &TupleBatch,
    probe: &[ColumnSource],
    existing: &Hisa,
) -> TupleBatch {
    let (data, arity, rows) = (batch.as_flat(), batch.arity(), batch.len());
    assert_eq!(
        existing.arity(),
        probe.len(),
        "probe arity mismatch in anti-join"
    );
    if data.is_empty() {
        return TupleBatch::new(arity, Vec::new());
    }
    device.metrics().add_kernel_launch();
    device.metrics().add_bytes_read((data.len() * 4) as u64);
    let keep: Vec<usize> = device.executor().map_collect(rows, |r| {
        let row = &data[r * arity..(r + 1) * arity];
        let tuple: Vec<u32> = probe.iter().map(|&src| src.resolve(row)).collect();
        usize::from(!existing.contains(&tuple))
    });
    let value_counts: Vec<usize> = keep.iter().map(|&k| k * arity).collect();
    let offsets = exclusive_scan_offsets(device, &value_counts);
    let total = *offsets.last().unwrap_or(&0);
    device.metrics().add_bytes_written((total * 4) as u64);
    let mut out = vec![0u32; total];
    device
        .executor()
        .scatter_by_offsets(&mut out, &offsets, |r, slots| {
            if !slots.is_empty() {
                slots.copy_from_slice(&data[r * arity..(r + 1) * arity]);
            }
        });
    TupleBatch::new(arity, out)
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
    fn drops_rows_whose_probe_hits() {
        let d = device();
        // Blocked = {3, 5}, unary.
        let blocked = Hisa::build(&d, IndexSpec::new(1, vec![0]), &[3, 5]).unwrap();
        // Intermediate (x, y): probe !Blocked(y) = Col(1).
        let data = TupleBatch::new(2, vec![1, 2, 1, 3, 4, 5, 6, 7]);
        let out = anti_join_batch(&d, &data, &[ColumnSource::Col(1)], &blocked);
        assert_eq!(out.as_flat(), &[1, 2, 6, 7]);
    }

    #[test]
    fn constant_probe_components_participate() {
        let d = device();
        // S = {(1, 9)}.
        let s = Hisa::build(&d, IndexSpec::new(2, vec![0]), &[1, 9]).unwrap();
        // Probe !S(x, 9): rows with x == 1 die, everything else survives.
        let data = TupleBatch::new(1, vec![1, 2, 7]);
        let probe = [ColumnSource::Col(0), ColumnSource::Const(9)];
        let out = anti_join_batch(&d, &data, &probe, &s);
        assert_eq!(out.as_flat(), &[2, 7]);
    }

    #[test]
    fn empty_negated_relation_keeps_everything() {
        let d = device();
        let empty = Hisa::build(&d, IndexSpec::new(1, vec![0]), &[]).unwrap();
        let data = TupleBatch::new(2, vec![4, 4, 2, 2]);
        assert_eq!(
            anti_join_batch(&d, &data, &[ColumnSource::Col(0)], &empty).as_flat(),
            data.as_flat()
        );
    }

    #[test]
    fn batch_form_preserves_arity() {
        let d = device();
        let blocked = Hisa::build(&d, IndexSpec::new(1, vec![0]), &[2]).unwrap();
        let batch = TupleBatch::new(2, vec![1, 2, 3, 4]);
        let out = anti_join_batch(&d, &batch, &[ColumnSource::Col(0)], &blocked);
        assert_eq!(out.arity(), 2);
        assert_eq!(out.as_flat(), &[1, 2, 3, 4]);
        let out = anti_join_batch(&d, &batch, &[ColumnSource::Col(1)], &blocked);
        assert_eq!(out.as_flat(), &[3, 4]);
    }
}
