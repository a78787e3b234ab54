//! Projection and selection over dense intermediate batches.

use crate::planner::{ColumnSource, FilterStep};
use gpulog_device::thrust::scan::exclusive_scan_offsets;
use gpulog_device::Device;
use gpulog_hisa::TupleBatch;

/// Wraps a kernel's flat output as a [`TupleBatch`]. A zero-column output
/// is represented as an empty one-column batch so it stays constructible;
/// lowered pipelines never produce one (the planner keeps one column when
/// nothing is live, precisely so row multiplicity is not lost — see
/// [`crate::planner::ScanStep::keep_cols`]).
pub(crate) fn batch_from_flat(arity: usize, flat: Vec<u32>) -> TupleBatch {
    if arity == 0 {
        debug_assert!(flat.is_empty(), "zero-arity batch with values");
        TupleBatch::empty(1)
    } else {
        TupleBatch::new(arity, flat)
    }
}

/// Projects each row of a batch onto `out_cols`.
///
/// # Panics
///
/// Panics if a projected column is out of range.
pub fn project_batch(device: &Device, batch: &TupleBatch, out_cols: &[ColumnSource]) -> TupleBatch {
    let (data, arity, rows) = (batch.as_flat(), batch.arity(), batch.len());
    let out_arity = out_cols.len();
    device.metrics().add_kernel_launch();
    device.metrics().add_bytes_read((data.len() * 4) as u64);
    device
        .metrics()
        .add_bytes_written((rows * out_arity * 4) as u64);
    let mut out = vec![0u32; rows * out_arity];
    device.executor().fill(&mut out, |slot| {
        let row = slot / out_arity;
        let col = slot % out_arity;
        out_cols[col].resolve(&data[row * arity..(row + 1) * arity])
    });
    batch_from_flat(out_arity, out)
}

/// Keeps the rows of a batch satisfying every filter. The result does not
/// carry the input's sorted-unique flag.
pub fn filter_batch(device: &Device, batch: &TupleBatch, filters: &[FilterStep]) -> TupleBatch {
    let (data, arity, rows) = (batch.as_flat(), batch.arity(), batch.len());
    if filters.is_empty() {
        return TupleBatch::new(arity, data.to_vec());
    }
    device.metrics().add_kernel_launch();
    device.metrics().add_bytes_read((data.len() * 4) as u64);
    let keep: Vec<usize> = device.executor().map_collect(rows, |r| {
        let row = &data[r * arity..(r + 1) * arity];
        usize::from(
            filters
                .iter()
                .all(|f| f.op.eval(f.left.resolve(row), f.right.resolve(row))),
        )
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

/// Applies row-level constant and column-equality selections, then keeps the
/// requested columns — the scan step at the head of every rule plan.
///
/// # Panics
///
/// Panics if a filtered or kept column is out of range.
pub fn scan_select_batch(
    device: &Device,
    batch: &TupleBatch,
    const_filters: &[(usize, u32)],
    eq_filters: &[(usize, usize)],
    keep_cols: &[usize],
) -> TupleBatch {
    scan_select_rows(
        device,
        batch.as_flat(),
        batch.arity(),
        const_filters,
        eq_filters,
        keep_cols,
    )
}

/// [`scan_select_batch`] over a stored relation's row-major data, which
/// the executor's scan reads in place rather than copying into a batch.
pub(crate) fn scan_select_rows(
    device: &Device,
    data: &[u32],
    arity: usize,
    const_filters: &[(usize, u32)],
    eq_filters: &[(usize, usize)],
    keep_cols: &[usize],
) -> TupleBatch {
    let rows = data.len() / arity;
    let out_arity = keep_cols.len();
    device.metrics().add_kernel_launch();
    device.metrics().add_bytes_read((data.len() * 4) as u64);
    let keep: Vec<usize> = device.executor().map_collect(rows, |r| {
        let row = &data[r * arity..(r + 1) * arity];
        let ok = const_filters.iter().all(|&(c, v)| row[c] == v)
            && eq_filters.iter().all(|&(a, b)| row[a] == row[b]);
        usize::from(ok)
    });
    let value_counts: Vec<usize> = keep.iter().map(|&k| k * out_arity).collect();
    let offsets = exclusive_scan_offsets(device, &value_counts);
    let total = *offsets.last().unwrap_or(&0);
    device.metrics().add_bytes_written((total * 4) as u64);
    let mut out = vec![0u32; total];
    device
        .executor()
        .scatter_by_offsets(&mut out, &offsets, |r, slots| {
            if slots.is_empty() {
                return;
            }
            let row = &data[r * arity..(r + 1) * arity];
            for (slot, &col) in slots.iter_mut().zip(keep_cols) {
                *slot = row[col];
            }
        });
    batch_from_flat(out_arity, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use gpulog_device::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    #[test]
    fn project_reorders_and_injects_constants() {
        let d = device();
        let data = TupleBatch::new(3, vec![1, 2, 3, 4, 5, 6]);
        let out = project_batch(
            &d,
            &data,
            &[
                ColumnSource::Col(2),
                ColumnSource::Const(9),
                ColumnSource::Col(0),
            ],
        );
        assert_eq!(out.as_flat(), &[3, 9, 1, 6, 9, 4]);
    }

    #[test]
    fn filter_keeps_only_matching_rows() {
        let d = device();
        let data = TupleBatch::new(2, vec![1, 1, 2, 3, 4, 4, 5, 6]);
        let ne = FilterStep {
            left: ColumnSource::Col(0),
            op: CmpOp::Ne,
            right: ColumnSource::Col(1),
        };
        assert_eq!(filter_batch(&d, &data, &[ne]).as_flat(), &[2, 3, 5, 6]);
        let lt = FilterStep {
            left: ColumnSource::Col(0),
            op: CmpOp::Lt,
            right: ColumnSource::Const(3),
        };
        assert_eq!(filter_batch(&d, &data, &[ne, lt]).as_flat(), &[2, 3]);
    }

    #[test]
    fn empty_filter_list_is_identity() {
        let d = device();
        let data = TupleBatch::new(2, vec![7, 8]);
        assert_eq!(filter_batch(&d, &data, &[]).as_flat(), data.as_flat());
    }

    #[test]
    fn scan_select_applies_const_and_eq_filters_then_projects() {
        let d = device();
        // rows: (1,1,5) (1,2,5) (2,2,5) (2,2,9)
        let data = TupleBatch::new(3, vec![1, 1, 5, 1, 2, 5, 2, 2, 5, 2, 2, 9]);
        let out = scan_select_batch(&d, &data, &[(2, 5)], &[(0, 1)], &[0, 2]);
        assert_eq!(out.as_flat(), &[1, 5, 2, 5]);
    }

    #[test]
    fn scan_select_with_no_filters_keeps_all_rows() {
        let d = device();
        let data = TupleBatch::new(2, vec![1, 2, 3, 4]);
        assert_eq!(
            scan_select_batch(&d, &data, &[], &[], &[1]).as_flat(),
            &[2, 4]
        );
    }
}
