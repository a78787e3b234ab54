//! Execution metrics recorded by the simulated device.
//!
//! Every primitive and kernel launch reports the work it performed — bytes
//! read and written, simple operations executed, atomic operations issued,
//! kernel launches, and allocator events. The counters are the raw input to
//! the analytic cost model ([`crate::cost`]) and to the phase-breakdown
//! figure of the paper (Figure 6), and they also expose the memory-footprint
//! numbers reported in Table 1.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A snapshot of the device counters at a point in time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Bytes read from device memory by kernels and primitives.
    pub bytes_read: u64,
    /// Bytes written to device memory by kernels and primitives.
    pub bytes_written: u64,
    /// Simple arithmetic/comparison operations executed.
    pub ops: u64,
    /// Atomic read-modify-write operations (CAS, atomic-min) executed.
    pub atomic_ops: u64,
    /// Number of kernel launches issued.
    pub kernel_launches: u64,
    /// Individual hash-table insertions performed by incremental index
    /// maintenance (delta keys inserted into an existing hash layer).
    pub hash_inserts: u64,
    /// Hash-layer rebuilds/rehashes: from-scratch rebuilds triggered by a
    /// merge exceeding the load factor, plus capacity-growth rehashes
    /// performed while reserving. Fresh builds of new tables don't count.
    pub hash_rebuilds: u64,
    /// Counting-scatter passes executed by the radix sorts, at any bucket
    /// granularity (one full LSD digit pass and one MSD bucket split each
    /// count as one pass).
    pub sort_passes: u64,
    /// Number of parallel dispatches handed to the persistent worker pool
    /// (launches small enough to run inline on the calling thread are not
    /// dispatches).
    pub pool_dispatches: u64,
    /// Wall nanoseconds spent inside pool dispatches (hand-off, execution,
    /// and completion handshake).
    pub dispatch_nanos: u64,
    /// OS threads spawned by the device's worker pool. Constant after
    /// device creation: kernel launches reuse the parked pool, so a
    /// fixpoint run must not move this counter.
    pub threads_spawned: u64,
    /// Number of allocations served by the pool.
    pub allocations: u64,
    /// Number of allocations satisfied by reusing a pooled buffer.
    pub pool_reuses: u64,
    /// Bytes obtained from fresh (non-pooled) allocations.
    pub bytes_allocated: u64,
    /// Bytes currently allocated on the device.
    pub bytes_in_use: u64,
    /// High-water mark of bytes allocated on the device.
    pub peak_bytes_in_use: u64,
    /// Wall nanoseconds the foreground thread spent draining deferred
    /// merges (the coalesced merges of deferred merging, run in place).
    pub pipeline_stall_nanos: u64,
    /// Times the deferred merge policy postponed a drain
    /// past its base batch size because the pending delta rows were still
    /// small relative to |full|.
    pub adaptive_merge_batches: u64,
}

impl CounterSnapshot {
    /// Total bytes moved (read + written).
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_read + self.bytes_written
    }

    /// Difference of two snapshots (`self` taken after `earlier`).
    ///
    /// Monotonic counters are subtracted; gauges (`bytes_in_use`,
    /// `peak_bytes_in_use`) keep the later value.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            bytes_read: self.bytes_read - earlier.bytes_read,
            bytes_written: self.bytes_written - earlier.bytes_written,
            ops: self.ops - earlier.ops,
            atomic_ops: self.atomic_ops - earlier.atomic_ops,
            kernel_launches: self.kernel_launches - earlier.kernel_launches,
            hash_inserts: self.hash_inserts - earlier.hash_inserts,
            hash_rebuilds: self.hash_rebuilds - earlier.hash_rebuilds,
            sort_passes: self.sort_passes - earlier.sort_passes,
            pool_dispatches: self.pool_dispatches - earlier.pool_dispatches,
            dispatch_nanos: self.dispatch_nanos - earlier.dispatch_nanos,
            threads_spawned: self.threads_spawned - earlier.threads_spawned,
            allocations: self.allocations - earlier.allocations,
            pool_reuses: self.pool_reuses - earlier.pool_reuses,
            bytes_allocated: self.bytes_allocated - earlier.bytes_allocated,
            bytes_in_use: self.bytes_in_use,
            peak_bytes_in_use: self.peak_bytes_in_use,
            pipeline_stall_nanos: self.pipeline_stall_nanos - earlier.pipeline_stall_nanos,
            adaptive_merge_batches: self.adaptive_merge_batches - earlier.adaptive_merge_batches,
        }
    }
}

/// Thread-safe metric counters shared by all components of a device.
#[derive(Debug, Default)]
pub struct Metrics {
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    ops: AtomicU64,
    atomic_ops: AtomicU64,
    kernel_launches: AtomicU64,
    hash_inserts: AtomicU64,
    hash_rebuilds: AtomicU64,
    sort_passes: AtomicU64,
    pool_dispatches: AtomicU64,
    dispatch_nanos: AtomicU64,
    threads_spawned: AtomicU64,
    allocations: AtomicU64,
    pool_reuses: AtomicU64,
    bytes_allocated: AtomicU64,
    bytes_in_use: AtomicUsize,
    peak_bytes_in_use: AtomicUsize,
    pipeline_stall_nanos: AtomicU64,
    adaptive_merge_batches: AtomicU64,
    phase_times: Mutex<PhaseTable>,
}

/// The phase buckets plus a generation counter bumped by
/// [`Metrics::reset_phase_times`]: a [`PhaseTimer`] that outlives a reset
/// carries the old generation, so its exit is ignored instead of closing a
/// span some newer timer opened.
#[derive(Debug, Default)]
struct PhaseTable {
    generation: u64,
    slots: HashMap<String, PhaseSlot>,
}

/// Per-phase accumulator: a completed-time total plus the currently open
/// span. [`PhaseTimer`]s accumulate the *union* of their intervals — the
/// span opens when the first timer for the phase starts and closes when the
/// last one drops — so timers nested in one another or running concurrently
/// on worker-pool threads (sharded ops run `S` tasks per epoch) never count
/// the same wall nanosecond twice. Without the union, a 4-worker sharded
/// sort would report ~4x its wall time in the `sort` bucket.
#[derive(Debug, Default)]
struct PhaseSlot {
    total: Duration,
    active: usize,
    span_start: Option<Instant>,
}

impl Metrics {
    /// Creates a zeroed metrics block.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` bytes read from device memory.
    pub fn add_bytes_read(&self, n: u64) {
        self.bytes_read.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` bytes written to device memory.
    pub fn add_bytes_written(&self, n: u64) {
        self.bytes_written.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` simple operations.
    pub fn add_ops(&self, n: u64) {
        self.ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` atomic read-modify-write operations.
    pub fn add_atomic_ops(&self, n: u64) {
        self.atomic_ops.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a kernel launch.
    pub fn add_kernel_launch(&self) {
        self.kernel_launches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` incremental hash-table insertions.
    pub fn add_hash_inserts(&self, n: u64) {
        self.hash_inserts.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one hash-layer rebuild (overflow rebuild or growth rehash).
    pub fn add_hash_rebuild(&self) {
        self.hash_rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` radix counting-scatter passes.
    pub fn add_sort_passes(&self, n: u64) {
        self.sort_passes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one parallel dispatch to the worker pool and the wall time
    /// it took end to end.
    pub fn add_pool_dispatch(&self, elapsed: Duration) {
        self.pool_dispatches.fetch_add(1, Ordering::Relaxed);
        self.dispatch_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Records that the worker pool spawned `n` OS threads (happens once,
    /// at pool construction).
    pub fn add_threads_spawned(&self, n: u64) {
        self.threads_spawned.fetch_add(n, Ordering::Relaxed);
    }

    /// OS threads spawned by the device's worker pool so far.
    pub fn threads_spawned(&self) -> u64 {
        self.threads_spawned.load(Ordering::Relaxed)
    }

    /// Records `n` nanoseconds the foreground thread spent draining
    /// deferred merges.
    pub fn add_pipeline_stall_nanos(&self, n: u64) {
        self.pipeline_stall_nanos.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one adaptive merge-batch deferral (see
    /// [`CounterSnapshot::adaptive_merge_batches`]).
    pub fn add_adaptive_merge_batch(&self) {
        self.adaptive_merge_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an allocation of `bytes`, returning the new in-use total.
    pub fn record_alloc(&self, bytes: usize, reused: bool) -> usize {
        self.allocations.fetch_add(1, Ordering::Relaxed);
        if reused {
            self.pool_reuses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.bytes_allocated
                .fetch_add(bytes as u64, Ordering::Relaxed);
        }
        let now = self.bytes_in_use.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak_bytes_in_use.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Records that `bytes` were released back to the device.
    pub fn record_free(&self, bytes: usize) {
        self.bytes_in_use.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Bytes currently allocated.
    pub fn bytes_in_use(&self) -> usize {
        self.bytes_in_use.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes_in_use(&self) -> usize {
        self.peak_bytes_in_use.load(Ordering::Relaxed)
    }

    /// Adds `elapsed` wall time to the named phase bucket (e.g. `"join"`,
    /// `"merge"`, `"dedup"`). Phase buckets feed Figure 6. This is a flat
    /// add with no overlap coalescing; scoped timing should use
    /// [`PhaseTimer`], whose concurrent spans count each wall nanosecond
    /// once.
    pub fn add_phase_time(&self, phase: &str, elapsed: Duration) {
        let mut phases = self.phase_times.lock().expect("phase timer lock poisoned");
        phases.slots.entry(phase.to_string()).or_default().total += elapsed;
    }

    /// Opens a [`PhaseTimer`] span for `phase`: the phase's wall clock
    /// starts when its first concurrent span opens. Returns the current
    /// phase-table generation, which the matching [`Metrics::phase_exit`]
    /// must present.
    fn phase_enter(&self, phase: &str) -> u64 {
        let mut phases = self.phase_times.lock().expect("phase timer lock poisoned");
        let generation = phases.generation;
        let slot = phases.slots.entry(phase.to_string()).or_default();
        slot.active += 1;
        if slot.active == 1 {
            slot.span_start = Some(Instant::now());
        }
        generation
    }

    /// Closes a [`PhaseTimer`] span for `phase`: the elapsed union is
    /// accumulated when the last concurrent span closes. A timer whose
    /// `generation` predates a `reset_phase_times` is ignored — it must
    /// not decrement (and prematurely close) a span opened after the
    /// reset.
    fn phase_exit(&self, phase: &str, generation: u64) {
        let mut phases = self.phase_times.lock().expect("phase timer lock poisoned");
        if phases.generation != generation {
            return;
        }
        let Some(slot) = phases.slots.get_mut(phase) else {
            return;
        };
        if slot.active == 0 {
            return;
        }
        slot.active -= 1;
        if slot.active == 0 {
            if let Some(start) = slot.span_start.take() {
                slot.total += start.elapsed();
            }
        }
    }

    /// Returns the accumulated wall time per phase (completed spans only).
    pub fn phase_times(&self) -> HashMap<String, Duration> {
        self.phase_times
            .lock()
            .expect("phase timer lock poisoned")
            .slots
            .iter()
            .map(|(phase, slot)| (phase.clone(), slot.total))
            .collect()
    }

    /// Clears the per-phase timers (counter totals are left untouched) and
    /// bumps the generation so still-open [`PhaseTimer`]s from before the
    /// reset are ignored at exit.
    pub fn reset_phase_times(&self) {
        let mut phases = self.phase_times.lock().expect("phase timer lock poisoned");
        phases.generation += 1;
        phases.slots.clear();
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            ops: self.ops.load(Ordering::Relaxed),
            atomic_ops: self.atomic_ops.load(Ordering::Relaxed),
            kernel_launches: self.kernel_launches.load(Ordering::Relaxed),
            hash_inserts: self.hash_inserts.load(Ordering::Relaxed),
            hash_rebuilds: self.hash_rebuilds.load(Ordering::Relaxed),
            sort_passes: self.sort_passes.load(Ordering::Relaxed),
            pool_dispatches: self.pool_dispatches.load(Ordering::Relaxed),
            dispatch_nanos: self.dispatch_nanos.load(Ordering::Relaxed),
            threads_spawned: self.threads_spawned.load(Ordering::Relaxed),
            allocations: self.allocations.load(Ordering::Relaxed),
            pool_reuses: self.pool_reuses.load(Ordering::Relaxed),
            bytes_allocated: self.bytes_allocated.load(Ordering::Relaxed),
            bytes_in_use: self.bytes_in_use.load(Ordering::Relaxed) as u64,
            peak_bytes_in_use: self.peak_bytes_in_use.load(Ordering::Relaxed) as u64,
            pipeline_stall_nanos: self.pipeline_stall_nanos.load(Ordering::Relaxed),
            adaptive_merge_batches: self.adaptive_merge_batches.load(Ordering::Relaxed),
        }
    }
}

/// RAII guard that adds the wall time of its scope to a named device-level
/// phase bucket when dropped. Used by the sort / merge / index-maintenance
/// primitives so the device can report a phase breakdown without every
/// caller threading timers by hand.
///
/// Overlapping timers for the same phase — nested scopes, or the `S`
/// concurrent shard tasks of a sharded-op epoch — accumulate the **union**
/// of their intervals, not the sum: the phase's accumulated nanos can never
/// exceed the wall time that actually elapsed while at least one timer was
/// open.
#[derive(Debug)]
pub struct PhaseTimer<'a> {
    metrics: &'a Metrics,
    phase: &'static str,
    generation: u64,
}

impl<'a> PhaseTimer<'a> {
    /// Starts timing `phase` against `metrics`.
    pub fn new(metrics: &'a Metrics, phase: &'static str) -> Self {
        let generation = metrics.phase_enter(phase);
        PhaseTimer {
            metrics,
            phase,
            generation,
        }
    }
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        self.metrics.phase_exit(self.phase, self.generation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.add_bytes_read(10);
        m.add_bytes_read(5);
        m.add_bytes_written(7);
        m.add_ops(3);
        m.add_atomic_ops(2);
        m.add_kernel_launch();
        let s = m.snapshot();
        assert_eq!(s.bytes_read, 15);
        assert_eq!(s.bytes_written, 7);
        assert_eq!(s.bytes_moved(), 22);
        assert_eq!(s.ops, 3);
        assert_eq!(s.atomic_ops, 2);
        assert_eq!(s.kernel_launches, 1);
    }

    #[test]
    fn alloc_free_tracks_peak() {
        let m = Metrics::new();
        m.record_alloc(100, false);
        m.record_alloc(50, true);
        assert_eq!(m.bytes_in_use(), 150);
        assert_eq!(m.peak_bytes_in_use(), 150);
        m.record_free(100);
        assert_eq!(m.bytes_in_use(), 50);
        assert_eq!(m.peak_bytes_in_use(), 150);
        let s = m.snapshot();
        assert_eq!(s.allocations, 2);
        assert_eq!(s.pool_reuses, 1);
    }

    #[test]
    fn snapshot_since_subtracts_monotonic_counters() {
        let m = Metrics::new();
        m.add_bytes_read(10);
        let before = m.snapshot();
        m.add_bytes_read(25);
        m.add_kernel_launch();
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.bytes_read, 25);
        assert_eq!(delta.kernel_launches, 1);
    }

    #[test]
    fn phase_times_accumulate_and_reset() {
        let m = Metrics::new();
        m.add_phase_time("join", Duration::from_millis(5));
        m.add_phase_time("join", Duration::from_millis(7));
        m.add_phase_time("merge", Duration::from_millis(3));
        let phases = m.phase_times();
        assert_eq!(phases["join"], Duration::from_millis(12));
        assert_eq!(phases["merge"], Duration::from_millis(3));
        m.reset_phase_times();
        assert!(m.phase_times().is_empty());
    }

    #[test]
    fn concurrent_phase_timers_never_exceed_wall_time() {
        // Regression: sharded ops run S tasks per worker-pool epoch, each
        // opening a PhaseTimer for the same phase. Summing per-task spans
        // reported ~S x the wall time; the union accounting must keep the
        // phase total at or below the elapsed wall clock.
        let m = std::sync::Arc::new(Metrics::new());
        let wall_start = Instant::now();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    let _t = PhaseTimer::new(&m, "sort");
                    std::thread::sleep(Duration::from_millis(30));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let wall = wall_start.elapsed();
        let sort = m.phase_times()["sort"];
        assert!(
            sort <= wall,
            "phase nanos ({sort:?}) must not exceed wall nanos ({wall:?})"
        );
        // And the union still measures real time: all four spans overlap,
        // so the total is at least one sleep long.
        assert!(sort >= Duration::from_millis(30));
    }

    #[test]
    fn nested_phase_timers_count_their_union_once() {
        let m = Metrics::new();
        let wall_start = Instant::now();
        {
            let _outer = PhaseTimer::new(&m, "merge");
            std::thread::sleep(Duration::from_millis(5));
            {
                let _inner = PhaseTimer::new(&m, "merge");
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let wall = wall_start.elapsed();
        let merge = m.phase_times()["merge"];
        assert!(merge <= wall, "nested spans must not double-count");
        assert!(merge >= Duration::from_millis(15));
    }

    #[test]
    fn phase_exit_after_reset_is_ignored() {
        let m = Metrics::new();
        let timer = PhaseTimer::new(&m, "sort");
        m.reset_phase_times();
        drop(timer);
        assert!(!m.phase_times().contains_key("sort"));
    }

    #[test]
    fn stale_timer_from_before_a_reset_cannot_close_a_newer_span() {
        let m = Metrics::new();
        let stale = PhaseTimer::new(&m, "sort");
        m.reset_phase_times();
        let fresh = PhaseTimer::new(&m, "sort");
        std::thread::sleep(Duration::from_millis(5));
        // The stale timer's exit carries the old generation: it must not
        // decrement the fresh span's active count or credit its time.
        drop(stale);
        std::thread::sleep(Duration::from_millis(5));
        drop(fresh);
        let sort = m.phase_times()["sort"];
        assert!(
            sort >= Duration::from_millis(10),
            "the fresh span must cover its full lifetime, got {sort:?}"
        );
    }

    #[test]
    fn pool_counters_accumulate_and_subtract() {
        let m = Metrics::new();
        m.add_threads_spawned(3);
        m.add_pool_dispatch(Duration::from_micros(5));
        let before = m.snapshot();
        m.add_pool_dispatch(Duration::from_micros(7));
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.pool_dispatches, 1);
        assert_eq!(delta.dispatch_nanos, 7_000);
        assert_eq!(delta.threads_spawned, 0);
        assert_eq!(m.threads_spawned(), 3);
    }

    #[test]
    fn index_maintenance_counters_accumulate_and_subtract() {
        let m = Metrics::new();
        m.add_hash_inserts(40);
        m.add_sort_passes(3);
        let before = m.snapshot();
        m.add_hash_inserts(2);
        m.add_hash_rebuild();
        m.add_sort_passes(5);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.hash_inserts, 2);
        assert_eq!(delta.hash_rebuilds, 1);
        assert_eq!(delta.sort_passes, 5);
        assert_eq!(m.snapshot().hash_inserts, 42);
    }

    #[test]
    fn deferred_merge_counters_subtract_between_snapshots() {
        let m = Metrics::new();
        m.add_pipeline_stall_nanos(40);
        m.add_adaptive_merge_batch();
        let before = m.snapshot();
        m.add_pipeline_stall_nanos(100);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.pipeline_stall_nanos, 100);
        assert_eq!(delta.adaptive_merge_batches, 0);
        assert_eq!(m.snapshot().pipeline_stall_nanos, 140);
    }

    #[test]
    fn metrics_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Metrics>();
    }
}
