//! Device profiles describing the hardware the paper evaluated on.
//!
//! A [`DeviceProfile`] captures the handful of architectural parameters that
//! the paper itself identifies as performance-determining for Datalog
//! workloads (Section 6.6): memory capacity, memory bandwidth, the number of
//! streaming multiprocessors (or CPU cores), lanes per SM, and clock rate.
//! The analytic cost model in [`crate::cost`] converts the byte and
//! operation counts recorded by [`crate::metrics::Metrics`] into modeled
//! device time using these parameters, which is how the cross-hardware
//! tables (Table 5 and Table 6) are regenerated without the physical GPUs.

use serde::{Deserialize, Serialize};

/// The broad class of a device, used by the cost model to pick efficiency
/// constants (GPUs sustain a larger fraction of peak bandwidth on streaming
/// kernels than CPUs do on pointer-heavy ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// A discrete data-center GPU (H100, A100, MI250, MI50, ...).
    Gpu,
    /// A multicore server CPU (EPYC Milan / Rome, Xeon, ...).
    Cpu,
}

/// Architectural description of a device.
///
/// # Examples
///
/// ```
/// use gpulog_device::profile::DeviceProfile;
///
/// let h100 = DeviceProfile::nvidia_h100();
/// let milan = DeviceProfile::amd_epyc_7543p();
/// assert!(h100.memory_bandwidth_bytes_per_sec > 10.0 * milan.memory_bandwidth_bytes_per_sec);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// Marketing / reporting name, e.g. `"NVIDIA H100"`.
    pub name: String,
    /// GPU or CPU.
    pub kind: DeviceKind,
    /// Device memory (VRAM or socket-local DRAM) capacity in bytes.
    pub memory_capacity_bytes: usize,
    /// Peak memory bandwidth in bytes per second.
    pub memory_bandwidth_bytes_per_sec: f64,
    /// Streaming multiprocessors (GPU) or physical cores (CPU).
    pub sm_count: u32,
    /// SIMT lanes per SM (GPU) or SIMD lanes per core (CPU).
    pub lanes_per_sm: u32,
    /// Sustained clock in GHz.
    pub clock_ghz: f64,
    /// Fixed overhead charged per kernel launch, in seconds.
    pub kernel_launch_overhead_sec: f64,
    /// Fixed overhead charged per *non-pooled* device allocation, in
    /// seconds (a `cudaMalloc`/`cudaFree` pair plus first-touch); pooled
    /// (recycled) allocations are free. This is the term eager buffer
    /// management amortizes away (paper Section 5.3, Table 1).
    pub allocation_overhead_sec: f64,
    /// Throughput at which fresh (non-pooled) allocations are served and
    /// first-touched, in bytes per second. Pooled allocations bypass this.
    pub allocation_bandwidth_bytes_per_sec: f64,
    /// Fraction of peak bandwidth sustained on the streaming access patterns
    /// GPUlog generates (coalesced strided reads, bulk sorts and merges).
    pub sustained_bandwidth_fraction: f64,
}

impl DeviceProfile {
    /// Total number of hardware lanes (SMs x lanes per SM).
    pub fn total_lanes(&self) -> u64 {
        u64::from(self.sm_count) * u64::from(self.lanes_per_sm)
    }

    /// Effective (sustained) bandwidth in bytes per second.
    pub fn effective_bandwidth(&self) -> f64 {
        self.memory_bandwidth_bytes_per_sec * self.sustained_bandwidth_fraction
    }

    /// Peak simple-operation throughput in operations per second.
    pub fn compute_throughput_ops_per_sec(&self) -> f64 {
        self.total_lanes() as f64 * self.clock_ghz * 1e9
    }

    /// NVIDIA H100 80GB (SXM): 114 SMs x 128 FP32 lanes, ~3.35 TB/s HBM3.
    pub fn nvidia_h100() -> Self {
        DeviceProfile {
            name: "NVIDIA H100".to_string(),
            kind: DeviceKind::Gpu,
            memory_capacity_bytes: 80 * (1 << 30),
            memory_bandwidth_bytes_per_sec: 3.35e12,
            sm_count: 114,
            lanes_per_sm: 128,
            clock_ghz: 1.76,
            kernel_launch_overhead_sec: 4.0e-6,
            allocation_overhead_sec: 6.0e-6,
            allocation_bandwidth_bytes_per_sec: 3.0e11,
            sustained_bandwidth_fraction: 0.62,
        }
    }

    /// NVIDIA A100 80GB: 108 SMs x 64 FP32 lanes, ~1.5-2.0 TB/s HBM2e.
    pub fn nvidia_a100() -> Self {
        DeviceProfile {
            name: "NVIDIA A100".to_string(),
            kind: DeviceKind::Gpu,
            memory_capacity_bytes: 80 * (1 << 30),
            memory_bandwidth_bytes_per_sec: 1.55e12,
            sm_count: 108,
            lanes_per_sm: 64,
            clock_ghz: 1.41,
            kernel_launch_overhead_sec: 4.5e-6,
            allocation_overhead_sec: 7.0e-6,
            allocation_bandwidth_bytes_per_sec: 2.5e11,
            sustained_bandwidth_fraction: 0.62,
        }
    }

    /// AMD Instinct MI250 (one GCD usable by the single-GPU engine, per the
    /// paper's Section 6.6 discussion of the dual-chiplet design): 104 CUs,
    /// half addressable, ~1.6 TB/s per card shared across chiplets, and no
    /// RMM-style pooled allocator in the HIP backend.
    pub fn amd_mi250() -> Self {
        DeviceProfile {
            name: "AMD MI250".to_string(),
            kind: DeviceKind::Gpu,
            memory_capacity_bytes: 64 * (1 << 30),
            memory_bandwidth_bytes_per_sec: 1.6e12 / 2.0,
            sm_count: 52,
            lanes_per_sm: 64,
            clock_ghz: 1.7,
            kernel_launch_overhead_sec: 7.0e-6,
            allocation_overhead_sec: 3.0e-5,
            allocation_bandwidth_bytes_per_sec: 1.2e11,
            sustained_bandwidth_fraction: 0.48,
        }
    }

    /// AMD Instinct MI50: 60 CUs, ~1.0 TB/s HBM2, smaller 32 GB memory.
    pub fn amd_mi50() -> Self {
        DeviceProfile {
            name: "AMD MI50".to_string(),
            kind: DeviceKind::Gpu,
            memory_capacity_bytes: 32 * (1 << 30),
            memory_bandwidth_bytes_per_sec: 1.02e12 / 2.0,
            sm_count: 30,
            lanes_per_sm: 64,
            clock_ghz: 1.45,
            kernel_launch_overhead_sec: 8.0e-6,
            allocation_overhead_sec: 3.0e-5,
            allocation_bandwidth_bytes_per_sec: 1.0e11,
            sustained_bandwidth_fraction: 0.42,
        }
    }

    /// AMD EPYC 7543P (Zen 3, 32 cores) — the paper's Souffle host.
    pub fn amd_epyc_7543p() -> Self {
        DeviceProfile {
            name: "AMD EPYC 7543P".to_string(),
            kind: DeviceKind::Cpu,
            memory_capacity_bytes: 512 * (1 << 30),
            memory_bandwidth_bytes_per_sec: 1.9e11,
            sm_count: 32,
            lanes_per_sm: 8,
            clock_ghz: 2.8,
            kernel_launch_overhead_sec: 5.0e-7,
            allocation_overhead_sec: 1.0e-6,
            allocation_bandwidth_bytes_per_sec: 6.0e10,
            sustained_bandwidth_fraction: 0.55,
        }
    }

    /// A deliberately tiny test device (a few megabytes of "VRAM") used by
    /// unit tests that exercise out-of-memory behaviour quickly.
    pub fn tiny_test_device(capacity_bytes: usize) -> Self {
        DeviceProfile {
            name: "tiny-test-device".to_string(),
            kind: DeviceKind::Gpu,
            memory_capacity_bytes: capacity_bytes,
            memory_bandwidth_bytes_per_sec: 1.0e11,
            sm_count: 4,
            lanes_per_sm: 32,
            clock_ghz: 1.0,
            kernel_launch_overhead_sec: 1.0e-6,
            allocation_overhead_sec: 1.0e-6,
            allocation_bandwidth_bytes_per_sec: 1.0e11,
            sustained_bandwidth_fraction: 0.5,
        }
    }

    /// All data-center GPU profiles evaluated in the paper's Table 5, in the
    /// order the table lists them.
    pub fn paper_gpus() -> Vec<DeviceProfile> {
        vec![
            Self::nvidia_h100(),
            Self::nvidia_a100(),
            Self::amd_mi250(),
            Self::amd_mi50(),
        ]
    }
}

impl Default for DeviceProfile {
    /// The default profile is the paper's headline device, the NVIDIA H100.
    fn default() -> Self {
        Self::nvidia_h100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h100_has_highest_bandwidth_of_paper_gpus() {
        let gpus = DeviceProfile::paper_gpus();
        let h100 = &gpus[0];
        for other in &gpus[1..] {
            assert!(
                h100.memory_bandwidth_bytes_per_sec > other.memory_bandwidth_bytes_per_sec,
                "H100 should have more bandwidth than {}",
                other.name
            );
        }
    }

    #[test]
    fn gpu_cpu_bandwidth_gap_matches_paper_order_of_magnitude() {
        // The paper quotes 3.35 TB/s (H100) vs ~190 GB/s (Milan): ~17x.
        let ratio = DeviceProfile::nvidia_h100().memory_bandwidth_bytes_per_sec
            / DeviceProfile::amd_epyc_7543p().memory_bandwidth_bytes_per_sec;
        assert!(ratio > 10.0 && ratio < 30.0, "ratio was {ratio}");
    }

    #[test]
    fn total_lanes_and_throughput_are_consistent() {
        let a100 = DeviceProfile::nvidia_a100();
        assert_eq!(a100.total_lanes(), 108 * 64);
        assert!(a100.compute_throughput_ops_per_sec() > 1e12);
    }

    #[test]
    fn paper_gpu_ordering_is_h100_a100_mi250_mi50() {
        let names: Vec<String> = DeviceProfile::paper_gpus()
            .into_iter()
            .map(|p| p.name)
            .collect();
        assert_eq!(
            names,
            vec!["NVIDIA H100", "NVIDIA A100", "AMD MI250", "AMD MI50"]
        );
    }

    #[test]
    fn default_is_h100() {
        assert_eq!(DeviceProfile::default().name, "NVIDIA H100");
    }

    #[test]
    fn tiny_device_capacity_respected() {
        let d = DeviceProfile::tiny_test_device(1024);
        assert_eq!(d.memory_capacity_bytes, 1024);
    }

    #[test]
    fn effective_bandwidth_below_peak() {
        for p in DeviceProfile::paper_gpus() {
            assert!(p.effective_bandwidth() < p.memory_bandwidth_bytes_per_sec);
            assert!(p.effective_bandwidth() > 0.0);
        }
    }
}
