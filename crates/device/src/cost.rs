//! Analytic cost model translating device counters into modeled device time.
//!
//! The paper (Section 6.6) argues that GPUlog's workloads are dominated by
//! memory traffic: "the performance increases mirror the memory bandwidth
//! differences between the CPU and GPU". The cost model follows that
//! observation with a roofline-style estimate:
//!
//! ```text
//! time = launches * launch_overhead
//!      + bytes_moved / effective_bandwidth
//!      + ops / compute_throughput
//!      + atomic_ops * atomic_cost
//! ```
//!
//! The model is used to regenerate the cross-hardware tables (Table 5,
//! Table 6) on machines that do not have the paper's GPUs, and to report a
//! "modeled device time" next to the measured wall-clock time everywhere
//! else.

use crate::metrics::CounterSnapshot;
use crate::profile::{DeviceKind, DeviceProfile};
use serde::{Deserialize, Serialize};

/// Modeled execution-time estimate broken into its roofline components.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CostEstimate {
    /// Seconds attributable to kernel-launch overhead.
    pub launch_sec: f64,
    /// Seconds attributable to memory traffic.
    pub memory_sec: f64,
    /// Seconds attributable to arithmetic work.
    pub compute_sec: f64,
    /// Seconds attributable to atomic contention.
    pub atomic_sec: f64,
    /// Seconds attributable to non-pooled device allocations.
    pub alloc_sec: f64,
}

impl CostEstimate {
    /// Total modeled seconds.
    pub fn total_sec(&self) -> f64 {
        self.launch_sec + self.memory_sec + self.compute_sec + self.atomic_sec + self.alloc_sec
    }
}

/// Cost model for one device profile.
#[derive(Debug, Clone)]
pub struct CostModel {
    profile: DeviceProfile,
    /// Cost of one atomic read-modify-write, in seconds.
    atomic_op_sec: f64,
}

impl CostModel {
    /// Builds a cost model for the given device profile.
    pub fn new(profile: DeviceProfile) -> Self {
        // GPUs resolve atomics in L2 at a few nanoseconds amortized across
        // thousands of in-flight lanes; CPUs pay a cache-line ping-pong.
        let atomic_op_sec = match profile.kind {
            DeviceKind::Gpu => 2.0e-9 / profile.sm_count as f64,
            DeviceKind::Cpu => 2.0e-8 / profile.sm_count as f64,
        };
        CostModel {
            profile,
            atomic_op_sec,
        }
    }

    /// The profile this model was built from.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Estimates the modeled time for the work described by `counters`.
    pub fn estimate(&self, counters: &CounterSnapshot) -> CostEstimate {
        let launch_sec = counters.kernel_launches as f64 * self.profile.kernel_launch_overhead_sec;
        let memory_sec = counters.bytes_moved() as f64 / self.profile.effective_bandwidth();
        let compute_sec = counters.ops as f64 / self.profile.compute_throughput_ops_per_sec();
        let atomic_sec = counters.atomic_ops as f64 * self.atomic_op_sec;
        let unpooled = counters.allocations.saturating_sub(counters.pool_reuses);
        let alloc_sec = unpooled as f64 * self.profile.allocation_overhead_sec
            + counters.bytes_allocated as f64 / self.profile.allocation_bandwidth_bytes_per_sec;
        CostEstimate {
            launch_sec,
            memory_sec,
            compute_sec,
            atomic_sec,
            alloc_sec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(bytes: u64) -> CounterSnapshot {
        CounterSnapshot {
            bytes_read: bytes / 2,
            bytes_written: bytes / 2,
            ops: bytes / 8,
            atomic_ops: 0,
            kernel_launches: 10,
            ..Default::default()
        }
    }

    #[test]
    fn more_bandwidth_means_less_modeled_time() {
        let work = traffic(1 << 32);
        let h100 = CostModel::new(DeviceProfile::nvidia_h100()).estimate(&work);
        let mi50 = CostModel::new(DeviceProfile::amd_mi50()).estimate(&work);
        assert!(h100.total_sec() < mi50.total_sec());
    }

    #[test]
    fn gpu_vs_cpu_ratio_is_order_of_magnitude_on_memory_bound_work() {
        let work = traffic(1 << 34);
        let gpu = CostModel::new(DeviceProfile::nvidia_a100()).estimate(&work);
        let cpu = CostModel::new(DeviceProfile::amd_epyc_7543p()).estimate(&work);
        let ratio = cpu.total_sec() / gpu.total_sec();
        // The paper's Table 6 reports roughly 10x-20x for sort/merge.
        assert!(ratio > 5.0 && ratio < 40.0, "ratio was {ratio}");
    }

    #[test]
    fn estimate_components_sum_to_total() {
        let work = CounterSnapshot {
            bytes_read: 1000,
            bytes_written: 500,
            ops: 200,
            atomic_ops: 50,
            kernel_launches: 3,
            ..Default::default()
        };
        let est = CostModel::new(DeviceProfile::nvidia_h100()).estimate(&work);
        let total =
            est.launch_sec + est.memory_sec + est.compute_sec + est.atomic_sec + est.alloc_sec;
        assert!((est.total_sec() - total).abs() < 1e-18);
        assert!(est.total_sec() > 0.0);
    }

    #[test]
    fn estimate_between_uses_only_the_delta() {
        let model = CostModel::new(DeviceProfile::nvidia_h100());
        let before = traffic(1 << 20);
        let mut after = before;
        after.bytes_read += 1 << 20;
        let delta = model.estimate(&after.since(&before));
        let absolute = model.estimate(&after);
        assert!(delta.total_sec() < absolute.total_sec());
    }

    #[test]
    fn zero_work_costs_zero() {
        let est =
            CostModel::new(DeviceProfile::nvidia_h100()).estimate(&CounterSnapshot::default());
        assert_eq!(est.total_sec(), 0.0);
    }
}
