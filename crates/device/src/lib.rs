//! # `gpulog-device`: the simulated GPU substrate
//!
//! The GPUlog paper ("Optimizing Datalog for the GPU", ASPLOS 2025) targets
//! CUDA/HIP data-center GPUs. This crate is the reproduction's stand-in for
//! that hardware layer: it provides the same *programming model* — dense
//! device buffers, pooled allocation, kernel launches over an index space,
//! atomics, and the Thrust primitive vocabulary (stable sort, merge path,
//! scan, gather, compaction) — with every operation's memory traffic and
//! work recorded so an analytic cost model can translate it into modeled
//! device time for any [`profile::DeviceProfile`].
//!
//! ## Execution substrate
//!
//! Kernels execute on a **persistent worker pool**
//! ([`worker_pool::WorkerPool`]): the pool's threads are spawned once when
//! a [`Device`] (or standalone [`Executor`]) is created, park on a condvar
//! between launches, and are handed each launch as an epoch of dynamically
//! claimed task indices. No OS thread is ever created per kernel launch —
//! the CUDA cost shape — and the `threads_spawned`, `pool_dispatches`,
//! and `dispatch_nanos` counters in [`Metrics`] prove it at run time.
//! Sorting ([`thrust::sort`]) is likewise comparison-free on the hot path:
//! the sorted index arrays HISA needs are built with a stable column-wise
//! LSD radix sort (per-worker histograms, exclusive scan, stable scatter).
//!
//! Everything above this crate (the HISA data structure, the relational
//! algebra kernels, the Datalog engine) is written against this API exactly
//! as the paper's artifact is written against CUDA + Thrust, which is what
//! makes the algorithmic reproduction faithful even without the silicon.
//!
//! ## Quick example
//!
//! ```
//! use gpulog_device::{Device, profile::DeviceProfile};
//! use gpulog_device::thrust::sort::lexicographic_sort_indices;
//!
//! # fn main() -> Result<(), gpulog_device::DeviceError> {
//! let device = Device::new(DeviceProfile::nvidia_h100());
//! // Three 2-column tuples stored row-major: (3,1) (1,2) (3,0)
//! let data = [3u32, 1, 1, 2, 3, 0];
//! let order = lexicographic_sort_indices(&device, &data, 2, &[0, 1]);
//! assert_eq!(order, vec![1, 2, 0]);
//! println!("modeled device time: {:.3e} s", device.modeled_time().total_sec());
//! # Ok(())
//! # }
//! ```

pub mod atomic;
pub mod buffer;
pub mod cost;
mod device;
pub mod error;
pub mod executor;
pub mod metrics;
pub mod pool;
pub mod profile;
pub mod thrust;
pub mod topology;
pub mod worker_pool;

pub use buffer::{DeviceBuffer, DeviceValue};
pub use cost::{CostEstimate, CostModel};
pub use device::Device;
pub use error::{DeviceError, DeviceResult};
pub use executor::{Executor, LaunchConfig};
pub use metrics::{CounterSnapshot, Metrics, PhaseTimer};
pub use profile::{DeviceKind, DeviceProfile};
pub use topology::{DeviceLaneReport, DeviceTopology, LinkProfile, TopologyReport};
pub use worker_pool::WorkerPool;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Device>();
        assert_send_sync::<DeviceProfile>();
        assert_send_sync::<Metrics>();
        assert_send_sync::<CostModel>();
        assert_send_sync::<DeviceBuffer<u32>>();
    }

    #[test]
    fn doc_example_pipeline_works_end_to_end() {
        let device = Device::new(DeviceProfile::nvidia_h100());
        let data = [3u32, 1, 1, 2, 3, 0];
        let order = thrust::sort::lexicographic_sort_indices(&device, &data, 2, &[0, 1]);
        assert_eq!(order, vec![1, 2, 0]);
        assert!(device.modeled_time().total_sec() > 0.0);
    }
}
