//! Device memory accounting and the pooled recycle bin.
//!
//! Two concerns live here:
//!
//! * [`MemoryTracker`] enforces the device's VRAM capacity and keeps the
//!   in-use / peak counters. Exceeding capacity yields
//!   [`DeviceError::OutOfMemory`], which is how the `OOM` rows of the
//!   paper's Tables 2 and 3 are reproduced.
//! * [`RecycleBin`] is the RMM-style pooled allocator: freed tuple buffers
//!   are kept and handed back to later allocations of compatible size
//!   instead of being returned to the system. Eager Buffer Management
//!   (paper Section 5.3) builds on this reuse path.

use crate::error::{DeviceError, DeviceResult};
use crate::metrics::Metrics;
use std::sync::{Arc, Mutex};

/// Tracks device-memory consumption against a fixed capacity.
#[derive(Debug)]
pub struct MemoryTracker {
    capacity: usize,
    metrics: Arc<Metrics>,
}

impl MemoryTracker {
    /// Creates a tracker with the given capacity, reporting into `metrics`.
    pub fn new(capacity: usize, metrics: Arc<Metrics>) -> Self {
        MemoryTracker { capacity, metrics }
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn in_use(&self) -> usize {
        self.metrics.bytes_in_use()
    }

    /// Peak bytes allocated over the device's lifetime.
    pub fn peak(&self) -> usize {
        self.metrics.peak_bytes_in_use()
    }

    /// Registers an allocation of `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::OutOfMemory`] when the allocation would exceed
    /// the device capacity; the allocation is not recorded in that case.
    pub fn allocate(&self, bytes: usize, reused: bool) -> DeviceResult<()> {
        let in_use = self.metrics.bytes_in_use();
        if in_use.saturating_add(bytes) > self.capacity {
            return Err(DeviceError::OutOfMemory {
                requested: bytes,
                in_use,
                capacity: self.capacity,
            });
        }
        self.metrics.record_alloc(bytes, reused);
        Ok(())
    }

    /// Registers that `bytes` were released.
    pub fn free(&self, bytes: usize) {
        self.metrics.record_free(bytes);
    }
}

/// A pooled recycle bin for `u32` tuple buffers.
///
/// All relation payloads in GPUlog are arrays of 32-bit column values, so a
/// single-element-type pool covers the allocations that dominate the
/// engine's memory traffic (data arrays, sorted index arrays, join outputs).
#[derive(Debug, Default)]
pub struct RecycleBin {
    free: Mutex<Vec<Vec<u32>>>,
    max_retained: usize,
}

impl RecycleBin {
    /// Creates a bin retaining at most `max_retained` freed buffers.
    pub fn new(max_retained: usize) -> Self {
        RecycleBin {
            free: Mutex::new(Vec::new()),
            max_retained,
        }
    }

    /// Takes a retained buffer whose capacity is at least `min_capacity`,
    /// if one is available. The returned buffer has length zero.
    pub fn take(&self, min_capacity: usize) -> Option<Vec<u32>> {
        let mut free = self.free.lock().expect("recycle bin lock poisoned");
        // Pick the smallest retained buffer that is large enough, to keep
        // big buffers available for big requests.
        let mut best: Option<(usize, usize)> = None;
        for (idx, buf) in free.iter().enumerate() {
            if buf.capacity() >= min_capacity {
                match best {
                    Some((_, cap)) if cap <= buf.capacity() => {}
                    _ => best = Some((idx, buf.capacity())),
                }
            }
        }
        best.map(|(idx, _)| {
            let mut buf = free.swap_remove(idx);
            buf.clear();
            buf
        })
    }

    /// Returns a buffer to the bin. If the bin is full the smallest retained
    /// buffer is evicted so the bin prefers keeping large buffers around.
    pub fn put(&self, buf: Vec<u32>) {
        if buf.capacity() == 0 {
            return;
        }
        let mut free = self.free.lock().expect("recycle bin lock poisoned");
        free.push(buf);
        if free.len() > self.max_retained {
            if let Some((smallest, _)) = free
                .iter()
                .enumerate()
                .map(|(i, b)| (i, b.capacity()))
                .min_by_key(|&(_, cap)| cap)
            {
                free.swap_remove(smallest);
            }
        }
    }

    /// Number of buffers currently retained.
    pub fn retained(&self) -> usize {
        self.free.lock().expect("recycle bin lock poisoned").len()
    }

    /// Drops every retained buffer.
    pub fn clear(&self) {
        self.free.lock().expect("recycle bin lock poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(capacity: usize) -> MemoryTracker {
        MemoryTracker::new(capacity, Arc::new(Metrics::new()))
    }

    #[test]
    fn allocate_within_capacity_succeeds() {
        let t = tracker(1000);
        t.allocate(400, false).unwrap();
        t.allocate(600, false).unwrap();
        assert_eq!(t.in_use(), 1000);
        assert_eq!(t.peak(), 1000);
    }

    #[test]
    fn allocate_beyond_capacity_is_oom_and_not_recorded() {
        let t = tracker(1000);
        t.allocate(800, false).unwrap();
        let err = t.allocate(300, false).unwrap_err();
        match err {
            DeviceError::OutOfMemory {
                requested,
                in_use,
                capacity,
            } => {
                assert_eq!(requested, 300);
                assert_eq!(in_use, 800);
                assert_eq!(capacity, 1000);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
        assert_eq!(t.in_use(), 800);
    }

    #[test]
    fn free_releases_capacity_for_later_allocations() {
        let t = tracker(1000);
        t.allocate(900, false).unwrap();
        t.free(900);
        t.allocate(1000, false).unwrap();
        assert_eq!(t.peak(), 1000);
    }

    #[test]
    fn recycle_bin_round_trip() {
        let bin = RecycleBin::new(4);
        assert!(bin.take(1).is_none());
        bin.put(Vec::with_capacity(128));
        bin.put(Vec::with_capacity(16));
        assert_eq!(bin.retained(), 2);
        // A request for 64 elements should get the 128-capacity buffer.
        let got = bin.take(64).unwrap();
        assert!(got.capacity() >= 128);
        assert!(got.is_empty());
        assert_eq!(bin.retained(), 1);
    }

    #[test]
    fn recycle_bin_prefers_smallest_sufficient_buffer() {
        let bin = RecycleBin::new(4);
        bin.put(Vec::with_capacity(1024));
        bin.put(Vec::with_capacity(64));
        let got = bin.take(32).unwrap();
        assert!(got.capacity() < 1024, "should not burn the big buffer");
    }

    #[test]
    fn recycle_bin_evicts_smallest_when_full() {
        let bin = RecycleBin::new(2);
        bin.put(Vec::with_capacity(10));
        bin.put(Vec::with_capacity(20));
        bin.put(Vec::with_capacity(30));
        assert_eq!(bin.retained(), 2);
        assert!(
            bin.take(25).is_some(),
            "the 30-capacity buffer must survive"
        );
    }

    #[test]
    fn recycle_bin_ignores_empty_buffers() {
        let bin = RecycleBin::new(2);
        bin.put(Vec::new());
        assert_eq!(bin.retained(), 0);
    }
}
