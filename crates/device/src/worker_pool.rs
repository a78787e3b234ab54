//! The persistent worker pool behind [`crate::Executor`].
//!
//! CUDA amortizes thread management across an application's lifetime: the
//! GPU's schedulers are always resident and a kernel launch only hands them
//! a grid description. The first version of this simulated device instead
//! spawned fresh OS threads on *every* kernel launch — per-launch costs in
//! the hundreds of microseconds that dwarfed the modeled kernel overhead
//! and made the harness, not the algorithms, the bottleneck.
//!
//! [`WorkerPool`] restores the CUDA cost shape. A fixed set of worker
//! threads is spawned once, parks on a condvar, and is handed work as an
//! *epoch*: a type-erased `Fn(usize)` task body plus a task count. Workers
//! (and the dispatching thread, which participates instead of idling) claim
//! task indices from a shared atomic counter until the epoch is drained,
//! so uneven task sizes balance dynamically. The dispatcher blocks until
//! every worker has checked out of the epoch, which is what makes lending
//! the caller's stack-borrowed closure to the workers sound.
//!
//! Every spawn and dispatch is counted — through [`Metrics`] when the pool
//! belongs to a device — so a fixpoint run can assert that evaluation
//! spawns zero threads after warmup (see `threads_spawned` in
//! [`crate::CounterSnapshot`]).

use crate::metrics::Metrics;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

thread_local! {
    /// Set while the current thread is a pool worker executing a task, or a
    /// dispatcher inside [`WorkerPool::run`]. Nested dispatches from such a
    /// thread run inline instead of deadlocking on the dispatch lock.
    static IN_POOL_CONTEXT: Cell<bool> = const { Cell::new(false) };
}

/// Locks a mutex, tolerating poisoning: every critical section in this
/// module is short and panic-free, so a poisoned flag only means some
/// *task body* panicked while a guard elsewhere was held — the protected
/// state itself is consistent.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// RAII guard marking the current thread as inside a pool dispatch; the
/// previous value is restored on drop (including on unwind).
struct PoolContextGuard {
    prev: bool,
}

impl PoolContextGuard {
    fn enter() -> Self {
        let prev = IN_POOL_CONTEXT.with(Cell::get);
        IN_POOL_CONTEXT.with(|ctx| ctx.set(true));
        PoolContextGuard { prev }
    }
}

impl Drop for PoolContextGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL_CONTEXT.with(|ctx| ctx.set(prev));
    }
}

/// One epoch of work: a borrowed task body lent to the workers for the
/// duration of a single dispatch.
#[derive(Clone, Copy)]
struct Job {
    /// Type-erased pointer to the dispatcher's `Fn(usize) + Sync` closure.
    /// Valid only while the dispatch that published it is still blocked in
    /// [`WorkerPool::run`].
    task: *const (dyn Fn(usize) + Sync),
    tasks: usize,
}

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the dispatch protocol guarantees it outlives every worker's use: the
// dispatcher does not return from `run` until `active` drops to zero.
unsafe impl Send for Job {}

struct PoolState {
    /// Monotonic dispatch counter; a change signals a new job.
    epoch: u64,
    /// The job of the current epoch, if one is in flight.
    job: Option<Job>,
    /// Workers that have not yet checked out of the current epoch.
    active: usize,
    /// Whether any worker's task body panicked during the current epoch.
    panicked: bool,
    /// Set once, when the pool is dropped.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here between epochs.
    work_cv: Condvar,
    /// The dispatcher parks here until `active` reaches zero.
    done_cv: Condvar,
    /// Task-index claim counter for the current epoch.
    next_task: AtomicUsize,
}

/// A fixed-size pool of long-lived, parked worker threads.
///
/// The pool for a `workers`-wide executor holds `workers - 1` threads; the
/// dispatching thread always works alongside them, so a one-worker pool
/// holds no threads at all and every dispatch runs inline.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes dispatches from concurrent device handles.
    dispatch_lock: Mutex<()>,
    threads_spawned: AtomicU64,
    dispatches: AtomicU64,
    dispatch_nanos: AtomicU64,
    metrics: Option<Arc<Metrics>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.handles.len())
            .field("dispatches", &self.dispatches.load(Ordering::Relaxed))
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool backing a `workers`-wide executor (`workers - 1`
    /// threads). When `metrics` is given, spawns and dispatches are also
    /// recorded there.
    pub fn new(workers: usize, metrics: Option<Arc<Metrics>>) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            next_task: AtomicUsize::new(0),
        });
        let thread_count = workers.max(1) - 1;
        let handles = (0..thread_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gpulog-device-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn device worker thread")
            })
            .collect::<Vec<_>>();
        if let Some(metrics) = &metrics {
            metrics.add_threads_spawned(thread_count as u64);
        }
        WorkerPool {
            shared,
            handles,
            dispatch_lock: Mutex::new(()),
            threads_spawned: AtomicU64::new(thread_count as u64),
            dispatches: AtomicU64::new(0),
            dispatch_nanos: AtomicU64::new(0),
            metrics,
        }
    }

    /// Number of pool threads (excluding the participating dispatcher).
    pub fn thread_count(&self) -> usize {
        self.handles.len()
    }

    /// Total OS threads this pool has ever spawned (constant after
    /// construction — that is the point).
    pub fn threads_spawned(&self) -> u64 {
        self.threads_spawned.load(Ordering::Relaxed)
    }

    /// Number of parallel dispatches handed to the pool so far.
    pub fn dispatches(&self) -> u64 {
        self.dispatches.load(Ordering::Relaxed)
    }

    /// Runs `task(t)` for every `t in 0..tasks`, spreading tasks across the
    /// pool. Blocks until all tasks have completed.
    ///
    /// Runs inline (on the calling thread, without touching the pool) when
    /// the pool is empty, there is at most one task, or the caller is
    /// itself inside a pool dispatch (nested data parallelism).
    ///
    /// # Panics
    ///
    /// Propagates a panic from the dispatcher's own task slice and panics
    /// with `"device worker thread panicked"` when a pool worker's slice
    /// panicked.
    pub fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        let nested = IN_POOL_CONTEXT.with(Cell::get);
        if self.handles.is_empty() || tasks == 1 || nested {
            for t in 0..tasks {
                task(t);
            }
            return;
        }
        let start = Instant::now();
        let _dispatch = lock_ignore_poison(&self.dispatch_lock);
        // Mark the dispatcher as in-pool so the task body can re-enter the
        // executor without deadlocking; restored even if the task panics.
        let _ctx = PoolContextGuard::enter();
        {
            let mut state = lock_ignore_poison(&self.shared.state);
            self.shared.next_task.store(0, Ordering::Relaxed);
            // SAFETY (lifetime erasure): workers only dereference the task
            // pointer between this publication and the `active == 0`
            // handshake below, and this function does not return (or
            // unwind) before that handshake completes. The borrow
            // therefore strictly outlives every use.
            let task_ptr: *const (dyn Fn(usize) + Sync) = unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    task,
                )
            };
            state.job = Some(Job {
                task: task_ptr,
                tasks,
            });
            state.epoch += 1;
            state.active = self.handles.len();
            state.panicked = false;
            self.shared.work_cv.notify_all();
        }
        // The dispatcher participates instead of idling.
        let own_result = catch_unwind(AssertUnwindSafe(|| {
            claim_and_run(&self.shared.next_task, tasks, task)
        }));
        // Handshake: wait until every worker has checked out of the epoch.
        let worker_panicked = {
            let mut state = lock_ignore_poison(&self.shared.state);
            while state.active > 0 {
                state = self
                    .shared
                    .done_cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            state.job = None;
            state.panicked
        };
        let elapsed = start.elapsed();
        self.dispatches.fetch_add(1, Ordering::Relaxed);
        self.dispatch_nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if let Some(metrics) = &self.metrics {
            metrics.add_pool_dispatch(elapsed);
        }
        if let Err(panic) = own_result {
            resume_unwind(panic);
        }
        assert!(!worker_panicked, "device worker thread panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock_ignore_poison(&self.shared.state);
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Claims task indices from `next_task` and runs them until none remain.
fn claim_and_run(next_task: &AtomicUsize, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
    loop {
        let t = next_task.fetch_add(1, Ordering::Relaxed);
        if t >= tasks {
            return;
        }
        task(t);
    }
}

fn worker_loop(shared: &PoolShared) {
    IN_POOL_CONTEXT.with(|ctx| ctx.set(true));
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut state = lock_ignore_poison(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    if let Some(job) = state.job {
                        seen_epoch = state.epoch;
                        break job;
                    }
                }
                state = shared
                    .work_cv
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // SAFETY: see `WorkerPool::run` — the dispatcher keeps the closure
        // alive until this thread decrements `active` below.
        let task = unsafe { &*job.task };
        let result = catch_unwind(AssertUnwindSafe(|| {
            claim_and_run(&shared.next_task, job.tasks, task)
        }));
        let mut state = lock_ignore_poison(&shared.state);
        if result.is_err() {
            state.panicked = true;
        }
        state.active -= 1;
        if state.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4, None);
        let n = 10_000;
        let counts: Vec<TestCounter> = (0..n).map(|_| TestCounter::new(0)).collect();
        pool.run(n, &|t| {
            counts[t].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn pool_threads_are_spawned_once_and_reused() {
        let pool = WorkerPool::new(4, None);
        assert_eq!(pool.thread_count(), 3);
        assert_eq!(pool.threads_spawned(), 3);
        for _ in 0..100 {
            pool.run(64, &|_| {});
        }
        assert_eq!(pool.threads_spawned(), 3, "dispatches must not spawn");
        assert_eq!(pool.dispatches(), 100);
    }

    #[test]
    fn single_worker_pool_runs_inline_without_threads() {
        let pool = WorkerPool::new(1, None);
        assert_eq!(pool.thread_count(), 0);
        let hits = TestCounter::new(0);
        pool.run(50, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 50);
        assert_eq!(pool.dispatches(), 0, "inline runs are not dispatches");
    }

    #[test]
    fn nested_dispatch_runs_inline_instead_of_deadlocking() {
        let pool = WorkerPool::new(4, None);
        let hits = TestCounter::new(0);
        pool.run(8, &|_| {
            // A task body that itself asks for parallelism.
            pool.run(4, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn tasks_outnumbering_workers_are_drained() {
        let pool = WorkerPool::new(3, None);
        let sum = TestCounter::new(0);
        pool.run(1000, &|t| {
            sum.fetch_add(t as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn uneven_remainders_run_every_task_exactly_once() {
        // Shard counts rarely divide worker counts evenly; sweep epochs
        // whose task counts leave every possible remainder (including
        // task counts below, equal to, and above the participant count)
        // and require exactly-once execution throughout.
        for workers in [2usize, 3, 4, 5] {
            let pool = WorkerPool::new(workers, None);
            for tasks in [
                1usize,
                workers - 1,
                workers,
                workers + 1,
                2 * workers + 3,
                97,
            ] {
                if tasks == 0 {
                    continue;
                }
                let counts: Vec<TestCounter> = (0..tasks).map(|_| TestCounter::new(0)).collect();
                pool.run(tasks, &|t| {
                    counts[t].fetch_add(1, Ordering::Relaxed);
                });
                for (t, c) in counts.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::Relaxed),
                        1,
                        "task {t} of {tasks} on {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn remainder_heavy_epochs_are_not_drained_by_one_participant() {
        // Dynamic claiming must spread a 13-task epoch (remainder 1 over a
        // 4-wide pool) across multiple participants once per-task work is
        // long enough for the parked workers to wake. A static split that
        // strands the remainder — or a dispatcher that races through every
        // task before publishing the epoch — would fail this.
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = WorkerPool::new(4, None);
        let participants: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        pool.run(13, &|_| {
            participants
                .lock()
                .unwrap()
                .insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert!(
            participants.lock().unwrap().len() >= 2,
            "a 26ms epoch must be shared with the parked workers"
        );
    }

    #[test]
    fn dispatches_are_counted_with_latency() {
        let pool = WorkerPool::new(2, None);
        pool.run(16, &|_| {});
        pool.run(16, &|_| {});
        assert_eq!(pool.dispatches(), 2);
        assert!(pool.dispatch_nanos.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn worker_panic_is_reported_and_pool_survives() {
        let pool = WorkerPool::new(4, None);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|t| {
                assert!(t != 13, "boom");
            });
        }));
        assert!(result.is_err());
        // The pool remains usable after a task panic.
        let hits = TestCounter::new(0);
        pool.run(64, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn concurrent_dispatchers_serialize_safely() {
        let pool = Arc::new(WorkerPool::new(4, None));
        let total = Arc::new(TestCounter::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                scope.spawn(move || {
                    for _ in 0..50 {
                        pool.run(32, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 32);
    }
}
