//! The device handle tying together profile, memory, executor, and metrics.

use crate::buffer::{DeviceBuffer, DeviceValue};
use crate::cost::{CostEstimate, CostModel};
use crate::error::DeviceResult;
use crate::executor::Executor;
use crate::metrics::Metrics;
use crate::pool::{MemoryTracker, RecycleBin};
use crate::profile::DeviceProfile;
use std::sync::Arc;
use std::time::Instant;

struct DeviceInner {
    profile: DeviceProfile,
    metrics: Arc<Metrics>,
    tracker: MemoryTracker,
    recycle_bin: RecycleBin,
    executor: Executor,
}

/// A handle to one simulated GPU (or CPU treated as a device).
///
/// The handle is cheaply cloneable; clones share the same memory tracker,
/// metrics, pooled allocator, and worker pool, exactly as CUDA streams share
/// one physical device.
///
/// # Examples
///
/// ```
/// use gpulog_device::{Device, profile::DeviceProfile};
///
/// # fn main() -> Result<(), gpulog_device::DeviceError> {
/// let device = Device::new(DeviceProfile::nvidia_h100());
/// let buf = device.buffer_from_slice(&[3u32, 1, 2])?;
/// let doubled = device.launch("double", buf.len(), |i| {
///     // kernels read captured buffers; outputs use dedicated primitives
///     let _ = buf.as_slice()[i] * 2;
/// });
/// # let _ = doubled;
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("profile", &self.inner.profile.name)
            .field("workers", &self.inner.executor.workers())
            .field("bytes_in_use", &self.inner.tracker.in_use())
            .finish()
    }
}

impl Device {
    /// Creates a device with the given profile and the host's full worker
    /// parallelism.
    pub fn new(profile: DeviceProfile) -> Self {
        Self::with_workers(profile, Executor::default_worker_count())
    }

    /// Creates a device with an explicit worker count (useful for tests and
    /// for modelling smaller devices).
    pub fn with_workers(profile: DeviceProfile, workers: usize) -> Self {
        let metrics = Arc::new(Metrics::new());
        let tracker = MemoryTracker::new(profile.memory_capacity_bytes, Arc::clone(&metrics));
        let executor = Executor::with_metrics(workers, Arc::clone(&metrics));
        Device {
            inner: Arc::new(DeviceInner {
                profile,
                metrics,
                tracker,
                recycle_bin: RecycleBin::new(16),
                executor,
            }),
        }
    }

    /// The architectural profile of this device.
    pub fn profile(&self) -> &DeviceProfile {
        &self.inner.profile
    }

    /// The shared metric counters.
    pub fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// The memory tracker enforcing device capacity.
    pub fn tracker(&self) -> &MemoryTracker {
        &self.inner.tracker
    }

    /// The pooled recycle bin for tuple buffers.
    pub fn recycle_bin(&self) -> &RecycleBin {
        &self.inner.recycle_bin
    }

    /// The data-parallel executor.
    pub fn executor(&self) -> &Executor {
        &self.inner.executor
    }

    /// Builds the analytic cost model for this device's profile.
    pub fn cost_model(&self) -> CostModel {
        CostModel::new(self.inner.profile.clone())
    }

    /// Modeled device time for all work recorded so far.
    pub fn modeled_time(&self) -> CostEstimate {
        self.cost_model().estimate(&self.inner.metrics.snapshot())
    }

    /// Allocates a buffer holding a copy of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DeviceError::OutOfMemory`] if the buffer does not fit.
    pub fn buffer_from_slice<T: DeviceValue>(&self, data: &[T]) -> DeviceResult<DeviceBuffer<T>> {
        self.metrics()
            .add_bytes_written(std::mem::size_of_val(data) as u64);
        DeviceBuffer::from_vec(self.clone(), data.to_vec())
    }

    /// Allocates a buffer of `len` copies of `value`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DeviceError::OutOfMemory`] if the buffer does not fit.
    pub fn buffer_filled<T: DeviceValue>(
        &self,
        len: usize,
        value: T,
    ) -> DeviceResult<DeviceBuffer<T>> {
        self.metrics()
            .add_bytes_written((len * std::mem::size_of::<T>()) as u64);
        DeviceBuffer::from_vec(self.clone(), vec![value; len])
    }

    /// Wraps an existing host vector as a device buffer (the simulated analog
    /// of a host-to-device transfer that reuses a staging allocation).
    ///
    /// # Errors
    ///
    /// Returns [`crate::DeviceError::OutOfMemory`] if the buffer does not fit.
    pub fn buffer_from_vec<T: DeviceValue>(&self, data: Vec<T>) -> DeviceResult<DeviceBuffer<T>> {
        DeviceBuffer::from_vec(self.clone(), data)
    }

    /// Allocates a `u32` buffer of length `len`, preferring a pooled buffer
    /// from the recycle bin (the RMM-style fast path).
    ///
    /// # Errors
    ///
    /// Returns [`crate::DeviceError::OutOfMemory`] if the buffer does not fit.
    pub fn pooled_u32_buffer(&self, len: usize) -> DeviceResult<DeviceBuffer<u32>> {
        if let Some(mut recycled) = self.inner.recycle_bin.take(len) {
            recycled.resize(len, 0);
            return DeviceBuffer::from_recycled_vec(self.clone(), recycled);
        }
        self.buffer_filled(len, 0u32)
    }

    /// Returns a `u32` buffer's storage to the recycle bin for later reuse.
    pub fn recycle_u32_buffer(&self, buffer: DeviceBuffer<u32>) {
        let vec = buffer.into_vec();
        self.inner.recycle_bin.put(vec);
    }

    /// Launches a simulated kernel: runs `body(i)` for every `i in 0..n` on
    /// the worker pool, records the launch, and attributes the elapsed wall
    /// time to the `name` phase bucket.
    pub fn launch<F>(&self, name: &str, n: usize, body: F)
    where
        F: Fn(usize) + Sync,
    {
        let start = Instant::now();
        self.metrics().add_kernel_launch();
        self.executor().for_each_index(n, body);
        self.metrics().add_phase_time(name, start.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn clones_share_memory_accounting() {
        let d = Device::new(DeviceProfile::tiny_test_device(1 << 20));
        let d2 = d.clone();
        let _buf = d.buffer_filled(1024usize, 0u32).unwrap();
        assert!(d2.tracker().in_use() >= 4096);
    }

    #[test]
    fn launch_runs_every_index_and_records_metrics() {
        let d = Device::with_workers(DeviceProfile::tiny_test_device(1 << 20), 4);
        let hits = AtomicUsize::new(0);
        d.launch("test_kernel", 1000, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1000);
        assert_eq!(d.metrics().snapshot().kernel_launches, 1);
        assert!(d.metrics().phase_times().contains_key("test_kernel"));
    }

    #[test]
    fn pooled_buffer_reuses_recycled_storage() {
        let d = Device::new(DeviceProfile::tiny_test_device(1 << 20));
        let buf = d.pooled_u32_buffer(256).unwrap();
        d.recycle_u32_buffer(buf);
        assert_eq!(d.recycle_bin().retained(), 1);
        let again = d.pooled_u32_buffer(128).unwrap();
        assert_eq!(again.len(), 128);
        let snap = d.metrics().snapshot();
        assert_eq!(snap.pool_reuses, 1);
    }

    #[test]
    fn modeled_time_grows_with_recorded_work() {
        let d = Device::new(DeviceProfile::nvidia_h100());
        let before = d.modeled_time().total_sec();
        d.metrics().add_bytes_read(1 << 30);
        d.metrics().add_kernel_launch();
        assert!(d.modeled_time().total_sec() > before);
    }

    #[test]
    fn debug_format_mentions_profile_name() {
        let d = Device::new(DeviceProfile::nvidia_a100());
        assert!(format!("{d:?}").contains("NVIDIA A100"));
    }
}
