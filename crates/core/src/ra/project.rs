//! Projection and selection over dense intermediate buffers.
//!
//! Each kernel exists in two forms: the legacy flat-slice form
//! (`&[u32]` + arity) retained as the reference implementation, and a
//! [`TupleBatch`]-typed form used by the operator pipeline, which keeps the
//! arity attached to the data instead of threading it alongside.

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

/// Resolves a [`ColumnSource`] against one row.
fn resolve(src: ColumnSource, row: &[u32]) -> u32 {
    match src {
        ColumnSource::Col(c) => row[c],
        ColumnSource::Const(v) => v,
    }
}

/// Projects each row of a row-major buffer onto `out_cols`.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `arity` or a projected column
/// is out of range.
pub fn project_rows(
    device: &Device,
    data: &[u32],
    arity: usize,
    out_cols: &[ColumnSource],
) -> Vec<u32> {
    assert!(arity > 0, "arity must be positive");
    assert_eq!(data.len() % arity, 0, "ragged row buffer");
    let rows = data.len() / arity;
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
        resolve(out_cols[col], &data[row * arity..(row + 1) * arity])
    });
    out
}

/// Keeps the rows of a row-major buffer satisfying every filter.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `arity`.
pub fn filter_rows(
    device: &Device,
    data: &[u32],
    arity: usize,
    filters: &[FilterStep],
) -> Vec<u32> {
    assert!(arity > 0, "arity must be positive");
    assert_eq!(data.len() % arity, 0, "ragged row buffer");
    if filters.is_empty() {
        return data.to_vec();
    }
    let rows = data.len() / arity;
    device.metrics().add_kernel_launch();
    device.metrics().add_bytes_read((data.len() * 4) as u64);
    let keep: Vec<usize> = device.executor().map_collect(rows, |r| {
        let row = &data[r * arity..(r + 1) * arity];
        usize::from(
            filters
                .iter()
                .all(|f| f.op.eval(resolve(f.left, row), resolve(f.right, row))),
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
    out
}

/// Applies row-level constant and column-equality selections, then keeps the
/// requested columns — the scan step at the head of every rule plan.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `arity`.
pub fn scan_select(
    device: &Device,
    data: &[u32],
    arity: usize,
    const_filters: &[(usize, u32)],
    eq_filters: &[(usize, usize)],
    keep_cols: &[usize],
) -> Vec<u32> {
    assert!(arity > 0, "arity must be positive");
    assert_eq!(data.len() % arity, 0, "ragged row buffer");
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
    out
}

/// [`project_rows`] over a [`TupleBatch`].
pub fn project_batch(device: &Device, batch: &TupleBatch, out_cols: &[ColumnSource]) -> TupleBatch {
    batch_from_flat(
        out_cols.len(),
        project_rows(device, batch.as_flat(), batch.arity(), out_cols),
    )
}

/// [`filter_rows`] over a [`TupleBatch`].
pub fn filter_batch(device: &Device, batch: &TupleBatch, filters: &[FilterStep]) -> TupleBatch {
    TupleBatch::new(
        batch.arity(),
        filter_rows(device, batch.as_flat(), batch.arity(), filters),
    )
}

/// [`scan_select`] over a [`TupleBatch`].
pub fn scan_select_batch(
    device: &Device,
    batch: &TupleBatch,
    const_filters: &[(usize, u32)],
    eq_filters: &[(usize, usize)],
    keep_cols: &[usize],
) -> TupleBatch {
    batch_from_flat(
        keep_cols.len(),
        scan_select(
            device,
            batch.as_flat(),
            batch.arity(),
            const_filters,
            eq_filters,
            keep_cols,
        ),
    )
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
        let data = [1u32, 2, 3, 4, 5, 6];
        let out = project_rows(
            &d,
            &data,
            3,
            &[
                ColumnSource::Col(2),
                ColumnSource::Const(9),
                ColumnSource::Col(0),
            ],
        );
        assert_eq!(out, vec![3, 9, 1, 6, 9, 4]);
    }

    #[test]
    fn filter_keeps_only_matching_rows() {
        let d = device();
        let data = [1u32, 1, 2, 3, 4, 4, 5, 6];
        let ne = FilterStep {
            left: ColumnSource::Col(0),
            op: CmpOp::Ne,
            right: ColumnSource::Col(1),
        };
        assert_eq!(filter_rows(&d, &data, 2, &[ne]), vec![2, 3, 5, 6]);
        let lt = FilterStep {
            left: ColumnSource::Col(0),
            op: CmpOp::Lt,
            right: ColumnSource::Const(3),
        };
        assert_eq!(filter_rows(&d, &data, 2, &[ne, lt]), vec![2, 3]);
    }

    #[test]
    fn empty_filter_list_is_identity() {
        let d = device();
        let data = [7u32, 8];
        assert_eq!(filter_rows(&d, &data, 2, &[]), data.to_vec());
    }

    #[test]
    fn scan_select_applies_const_and_eq_filters_then_projects() {
        let d = device();
        // rows: (1,1,5) (1,2,5) (2,2,5) (2,2,9)
        let data = [1u32, 1, 5, 1, 2, 5, 2, 2, 5, 2, 2, 9];
        let out = scan_select(&d, &data, 3, &[(2, 5)], &[(0, 1)], &[0, 2]);
        assert_eq!(out, vec![1, 5, 2, 5]);
    }

    #[test]
    fn scan_select_with_no_filters_keeps_all_rows() {
        let d = device();
        let data = [1u32, 2, 3, 4];
        assert_eq!(scan_select(&d, &data, 2, &[], &[], &[1]), vec![2, 4]);
    }
}
