//! # gpulog-serve: the concurrent serving layer
//!
//! The engine computes fixpoints; this crate serves them. It implements the
//! asymmetric reader/writer pattern the north star calls for: any number of
//! cheap reader threads answer point lookups, key-range scans, and
//! membership probes against an immutable [`FixpointSnapshot`], while one
//! writer thread owns the [`GpulogEngine`], grows the extensional database,
//! and materializes the next fixpoint.
//!
//! The synchronization is deliberately minimal. Readers share a
//! [`ServeHandle`] — a clonable handle over an `RwLock<FixpointSnapshot>`
//! whose critical section is a single `Arc` clone (two reference-count
//! bumps); every query then runs lock-free against the reader's own
//! snapshot. The writer re-runs the engine *outside* any lock — readers
//! keep serving the previous generation the whole time — and swaps the new
//! snapshot in with one short write-lock ([`ServeWriter::refresh`]). A
//! reader therefore always observes exactly one complete fixpoint, never a
//! torn mix of two; which one depends only on whether it cloned before or
//! after the swap.

use gpulog::{EngineResult, FixpointSnapshot, GpulogEngine, RunStats};
use gpulog_hisa::TupleBatch;
use std::sync::{Arc, RwLock};

/// A clonable, thread-safe handle serving queries from the latest published
/// fixpoint snapshot. Obtained from [`ServeWriter::handle`]; clone one per
/// reader thread.
///
/// Every query clones the current snapshot under a read lock (an `Arc`
/// bump) and answers from that immutable view, so a concurrent
/// [`ServeWriter::refresh`] never blocks readers for longer than the swap
/// itself and never tears a result.
#[derive(Debug, Clone)]
pub struct ServeHandle {
    latest: Arc<RwLock<FixpointSnapshot>>,
}

impl ServeHandle {
    /// The latest published snapshot. Hold it to answer several queries
    /// from one consistent fixpoint; re-fetch to observe a newer one.
    pub fn latest(&self) -> FixpointSnapshot {
        self.latest
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Generation of the latest published snapshot.
    pub fn generation(&self) -> u64 {
        self.latest().generation()
    }

    /// Membership probe against the latest snapshot.
    pub fn contains(&self, relation: &str, tuple: &[u32]) -> bool {
        self.latest().contains(relation, tuple)
    }

    /// Point (or prefix) lookup against the latest snapshot: every tuple
    /// whose leading columns equal `prefix`, in canonical order. `None`
    /// for unknown relations.
    pub fn point_lookup(&self, relation: &str, prefix: &[u32]) -> Option<Vec<Vec<u32>>> {
        self.latest().lookup(relation, prefix)
    }

    /// Key-range scan against the latest snapshot: every tuple in
    /// `lo..hi` (lexicographic, `lo` inclusive, `hi` exclusive). `None`
    /// for unknown relations.
    pub fn range_scan(&self, relation: &str, lo: &[u32], hi: &[u32]) -> Option<Vec<Vec<u32>>> {
        self.latest().scan_range(relation, lo, hi)
    }

    /// Number of tuples in a relation of the latest snapshot.
    pub fn relation_size(&self, relation: &str) -> Option<usize> {
        self.latest().relation_size(relation)
    }

    /// Goal-shaped lookup against the latest snapshot: every tuple whose
    /// columns match `bindings` (`Some(c)` binds a column to `c`, `None`
    /// leaves it free), in canonical order. Unlike
    /// [`ServeHandle::point_lookup`] the bound columns need not be a
    /// prefix — `[None, Some(t)]` answers "who reaches `t`?". A leading
    /// run of bound columns is still served through the snapshot's sorted
    /// index; fully unbound trailing columns cost a filter scan. `None`
    /// for unknown relations.
    pub fn goal_lookup(&self, relation: &str, bindings: &[Option<u32>]) -> Option<Vec<Vec<u32>>> {
        let snapshot = self.latest();
        if snapshot.arity(relation)? != bindings.len() {
            return Some(Vec::new());
        }
        let prefix: Vec<u32> = bindings.iter().map_while(|b| *b).collect();
        let candidates = snapshot.lookup(relation, &prefix)?;
        Some(
            candidates
                .into_iter()
                .filter(|row| {
                    bindings
                        .iter()
                        .zip(row.iter())
                        .all(|(b, v)| b.is_none_or(|c| c == *v))
                })
                .collect(),
        )
    }
}

/// The writer side of the serving layer: owns the engine, stages facts, and
/// publishes each completed fixpoint to every [`ServeHandle`].
#[derive(Debug)]
pub struct ServeWriter {
    engine: GpulogEngine,
    latest: Arc<RwLock<FixpointSnapshot>>,
}

impl ServeWriter {
    /// Wraps an engine for serving. Runs it to a first fixpoint if it has
    /// not run yet, then publishes the initial snapshot.
    ///
    /// # Errors
    ///
    /// Returns engine errors from the initial run.
    pub fn new(mut engine: GpulogEngine) -> EngineResult<Self> {
        if !engine.has_run() {
            engine.run()?;
        }
        let snapshot = engine.snapshot()?;
        Ok(ServeWriter {
            engine,
            latest: Arc::new(RwLock::new(snapshot)),
        })
    }

    /// A reader handle bound to this writer's published snapshot. Clone it
    /// freely across threads.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle {
            latest: Arc::clone(&self.latest),
        }
    }

    /// The wrapped engine (for inspection; mutating queries go through
    /// [`ServeWriter::insert_facts_batch`] and [`ServeWriter::refresh`]).
    pub fn engine(&self) -> &GpulogEngine {
        &self.engine
    }

    /// Stages extensional facts for the next fixpoint. Staged facts are
    /// invisible to readers until [`ServeWriter::refresh`] publishes the
    /// re-run's snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`gpulog::EngineError::BadFacts`] for unknown relations or
    /// arity mismatches.
    pub fn insert_facts_batch(&mut self, relation: &str, batch: &TupleBatch) -> EngineResult<()> {
        self.engine.insert_facts_batch(relation, batch)
    }

    /// Answers a goal-directed point query through the engine's magic-sets
    /// rewrite ([`GpulogEngine::run_query_with`]): `Some(c)` binds a
    /// column, `None` leaves it free. The rewritten program evaluates in a
    /// private sub-engine over the writer's current extensional database —
    /// including facts staged but not yet [`ServeWriter::refresh`]ed — so
    /// this never blocks readers, mutates the engine, or publishes a
    /// snapshot. Use it when the demanded cone is far smaller than the
    /// closure a refresh would materialize.
    ///
    /// # Errors
    ///
    /// Returns goal errors ([`gpulog::EngineError::UnknownQueryRelation`],
    /// [`gpulog::EngineError::QueryArityMismatch`]) and engine errors from
    /// the rewritten run.
    pub fn goal_query(
        &self,
        relation: &str,
        bindings: &[Option<u32>],
    ) -> EngineResult<gpulog::QueryResult> {
        self.engine.run_query_with(relation, bindings)
    }

    /// Materializes the next fixpoint from the staged facts and publishes
    /// it. The engine derives only what the staged facts imply (see
    /// [`GpulogEngine::insert_facts_batch`]): a positive change costs its
    /// consequences plus a copy-on-write copy of each relation it grows,
    /// while a change read under negation or through an aggregate
    /// re-derives the strata it reaches. The engine runs outside any lock —
    /// readers keep serving the previous snapshot throughout — and the
    /// publish itself is one short write-locked swap.
    ///
    /// # Errors
    ///
    /// Returns engine errors from the run; the previously published
    /// snapshot stays in place if the run fails.
    pub fn refresh(&mut self) -> EngineResult<RunStats> {
        let stats = self.engine.run()?;
        let snapshot = self.engine.snapshot()?;
        *self
            .latest
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = snapshot;
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_device::profile::DeviceProfile;
    use gpulog_device::Device;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::thread;

    const REACH: &str = r"
        .decl Edge(x: number, y: number)
        .input Edge
        .decl Reach(x: number, y: number)
        .output Reach
        Reach(x, y) :- Edge(x, y).
        Reach(x, y) :- Edge(x, z), Reach(z, y).
    ";

    fn chain_engine(nodes: u32) -> GpulogEngine {
        let d = Device::with_workers(DeviceProfile::nvidia_h100(), 4);
        let mut e = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        let edges: Vec<[u32; 2]> = (0..nodes - 1).map(|i| [i, i + 1]).collect();
        e.add_facts("Edge", edges).unwrap();
        e
    }

    #[test]
    fn writer_runs_the_first_fixpoint_and_serves_it() {
        let writer = ServeWriter::new(chain_engine(4)).unwrap();
        let handle = writer.handle();
        assert_eq!(handle.generation(), 1);
        assert_eq!(handle.relation_size("Reach"), Some(6));
        assert!(handle.contains("Reach", &[0, 3]));
        assert!(!handle.contains("Reach", &[3, 0]));
        assert_eq!(
            handle.point_lookup("Reach", &[0]).unwrap(),
            vec![vec![0, 1], vec![0, 2], vec![0, 3]]
        );
        assert_eq!(
            handle.range_scan("Reach", &[1], &[2, 4]).unwrap(),
            vec![vec![1, 2], vec![1, 3], vec![2, 3]]
        );
        assert!(handle.point_lookup("Nope", &[0]).is_none());
    }

    #[test]
    fn refresh_publishes_the_next_generation_atomically() {
        let mut writer = ServeWriter::new(chain_engine(3)).unwrap();
        let handle = writer.handle();
        let before = handle.latest();
        assert_eq!(before.relation_size("Reach"), Some(3));
        writer
            .insert_facts_batch("Edge", &TupleBatch::from_rows(2, [[2u32, 3]]))
            .unwrap();
        // Staged but unpublished: readers still see generation 1.
        assert_eq!(handle.generation(), 1);
        writer.refresh().unwrap();
        assert_eq!(handle.generation(), 2);
        assert_eq!(handle.relation_size("Reach"), Some(6));
        // A snapshot taken before the swap holds its own fixpoint.
        assert_eq!(before.relation_size("Reach"), Some(3));
    }

    /// N reader threads hammer point lookups while the writer publishes a
    /// series of fixpoints; every observation must be a complete fixpoint
    /// of *some* generation (size matches that generation exactly).
    #[test]
    fn concurrent_readers_always_observe_a_complete_fixpoint() {
        let readers = 4;
        // Chain sizes per generation: 4, then grow by one edge each round.
        let mut writer = ServeWriter::new(chain_engine(4)).unwrap();
        // Reach size of a chain with n nodes is n*(n-1)/2.
        let expected_size = |gen: u64| {
            let nodes = 3 + gen; // generation 1 ↔ 4 nodes
            (nodes * (nodes - 1) / 2) as usize
        };
        let stop = Arc::new(AtomicBool::new(false));
        let reading = Arc::new(AtomicUsize::new(0));
        let handle = writer.handle();
        let threads: Vec<_> = (0..readers)
            .map(|_| {
                let handle = handle.clone();
                let stop = Arc::clone(&stop);
                let reading = Arc::clone(&reading);
                thread::spawn(move || {
                    let mut observed = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = handle.latest();
                        let gen = snap.generation();
                        assert_eq!(
                            snap.relation_size("Reach"),
                            Some(expected_size(gen)),
                            "torn snapshot at generation {gen}"
                        );
                        // The chain head reaches everything in this
                        // generation's chain (last node 2 + gen) and
                        // nothing further.
                        let frontier = (2 + gen) as u32;
                        assert!(snap.contains("Reach", &[0, frontier]));
                        assert!(!snap.contains("Reach", &[0, frontier + 1]));
                        if observed == 0 {
                            reading.fetch_add(1, Ordering::Relaxed);
                        }
                        observed += 1;
                    }
                    observed
                })
            })
            .collect();
        // Publish only once every reader is reading, so the publications
        // race live readers even when the scheduler starts them late (a
        // reader that panicked first ends the wait; its join reports it).
        while reading.load(Ordering::Relaxed) < readers
            && !threads.iter().any(thread::JoinHandle::is_finished)
        {
            thread::yield_now();
        }
        for round in 0..4u32 {
            let next = 4 + round;
            writer
                .insert_facts_batch("Edge", &TupleBatch::from_rows(2, [[next - 1, next]]))
                .unwrap();
            writer.refresh().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        for t in threads {
            assert!(t.join().unwrap() > 0, "reader made no observations");
        }
        assert_eq!(handle.generation(), 5);
    }

    #[test]
    fn goal_lookup_serves_non_prefix_bindings_from_the_snapshot() {
        let writer = ServeWriter::new(chain_engine(5)).unwrap();
        let handle = writer.handle();
        // Prefix-shaped goal: same answer as point_lookup.
        assert_eq!(
            handle.goal_lookup("Reach", &[Some(0), None]).unwrap(),
            handle.point_lookup("Reach", &[0]).unwrap()
        );
        // Non-prefix goal: "who reaches node 3?".
        assert_eq!(
            handle.goal_lookup("Reach", &[None, Some(3)]).unwrap(),
            vec![vec![0, 3], vec![1, 3], vec![2, 3]]
        );
        // Fully bound and fully free goals behave as probe and scan.
        assert_eq!(
            handle.goal_lookup("Reach", &[Some(1), Some(2)]).unwrap(),
            vec![vec![1, 2]]
        );
        assert_eq!(
            handle.goal_lookup("Reach", &[None, None]).unwrap().len(),
            10
        );
        // Unknown relations and arity mismatches stay well-behaved.
        assert!(handle.goal_lookup("Nope", &[Some(0)]).is_none());
        assert!(handle.goal_lookup("Reach", &[Some(0)]).unwrap().is_empty());
    }

    #[test]
    fn goal_query_runs_magic_sets_without_publishing() {
        let mut writer = ServeWriter::new(chain_engine(5)).unwrap();
        let handle = writer.handle();
        let result = writer.goal_query("Reach", &[Some(1), None]).unwrap();
        assert_eq!(result.answers.as_flat(), &[1, 2, 1, 3, 1, 4]);
        // The goal run agrees with the published snapshot's own view.
        let from_snapshot: Vec<u32> = handle
            .goal_lookup("Reach", &[Some(1), None])
            .unwrap()
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(result.answers.as_flat(), &from_snapshot[..]);
        // Staged-but-unpublished facts are visible to goal queries but not
        // to readers until refresh.
        writer
            .insert_facts_batch("Edge", &TupleBatch::from_rows(2, [[4u32, 5]]))
            .unwrap();
        let staged = writer.goal_query("Reach", &[Some(1), None]).unwrap();
        assert_eq!(staged.answers.as_flat(), &[1, 2, 1, 3, 1, 4, 1, 5]);
        assert_eq!(handle.generation(), 1);
        assert!(!handle.contains("Reach", &[1, 5]));
        writer.refresh().unwrap();
        assert!(handle.contains("Reach", &[1, 5]));
    }
}
