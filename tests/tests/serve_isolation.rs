//! Snapshot-isolation guarantee, pinned across the backend matrix: reader
//! threads querying a [`gpulog_serve::ServeHandle`] while the writer
//! materializes the next fixpoint must observe exactly one *complete*
//! fixpoint per query — byte-identical to the serially-computed fixpoint of
//! whatever generation they caught, never a torn mix of two generations.
//!
//! The test precomputes the expected fixpoint for every generation with a
//! fresh serial engine over the cumulative fact set, then replays the same
//! growth through a `ServeWriter` on each backend under concurrent readers
//! and compares the canonical sorted tuple streams byte for byte.

use gpulog::{EngineConfig, GpulogEngine};
use gpulog_bench::parse_backend_spec;
use gpulog_device::profile::DeviceProfile;
use gpulog_device::Device;
use gpulog_hisa::TupleBatch;
use gpulog_serve::ServeWriter;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

const REACH: &str = r"
    .decl Edge(x: number, y: number)
    .input Edge
    .decl Reach(x: number, y: number)
    .output Reach
    Reach(x, y) :- Edge(x, y).
    Reach(x, y) :- Edge(x, z), Reach(z, y).
";

/// Edges present at generation `g` (1-based): a chain that starts with 5
/// nodes and grows one edge per refresh, plus a shortcut every other round
/// so later generations are not pure supersets of a single frontier edge.
fn edges_at_generation(gen: u64) -> Vec<[u32; 2]> {
    let mut edges: Vec<[u32; 2]> = (0..4).map(|i| [i, i + 1]).collect();
    for round in 1..gen {
        let next = 4 + round as u32;
        edges.push([next - 1, next]);
        if round % 2 == 0 {
            edges.push([0, next]);
        }
    }
    edges
}

/// The canonical (sorted, deduplicated, flattened) fixpoint of generation
/// `gen`, computed from scratch by a fresh serial engine.
fn expected_fixpoint(gen: u64) -> (Vec<u32>, Vec<u32>) {
    let device = Device::with_workers(DeviceProfile::nvidia_h100(), 2);
    let mut engine = GpulogEngine::builder(&device)
        .program(REACH)
        .build()
        .unwrap();
    engine.add_facts("Edge", edges_at_generation(gen)).unwrap();
    engine.run().unwrap();
    let snap = engine.snapshot().unwrap();
    (
        snap.sorted_tuples_flat("Edge").unwrap(),
        snap.sorted_tuples_flat("Reach").unwrap(),
    )
}

fn isolation_under_concurrent_writes(spec: &str) {
    const ROUNDS: u64 = 6;
    const READERS: usize = 4;
    let expected: Vec<(Vec<u32>, Vec<u32>)> = (1..=ROUNDS + 1).map(expected_fixpoint).collect();
    let expected = Arc::new(expected);

    let config = parse_backend_spec(spec)
        .unwrap()
        .configure(EngineConfig::default());
    let device = Device::with_workers(DeviceProfile::nvidia_h100(), 4);
    let mut engine = GpulogEngine::builder(&device)
        .program(REACH)
        .config(config)
        .build()
        .unwrap();
    engine.add_facts("Edge", edges_at_generation(1)).unwrap();
    let mut writer = ServeWriter::new(engine).unwrap();
    let handle = writer.handle();

    let stop = Arc::new(AtomicBool::new(false));
    let reading = Arc::new(AtomicUsize::new(0));
    let threads: Vec<_> = (0..READERS)
        .map(|_| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            let reading = Arc::clone(&reading);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut observations = 0u64;
                let mut generations_seen = std::collections::BTreeSet::new();
                while !stop.load(Ordering::Relaxed) {
                    // One snapshot, two relations read from it: both must
                    // come from the same serially-verified generation.
                    let snap = handle.latest();
                    let gen = snap.generation();
                    let (ref want_edge, ref want_reach) = expected[(gen - 1) as usize];
                    assert_eq!(
                        snap.sorted_tuples_flat("Edge").as_ref(),
                        Some(want_edge),
                        "[{gen}] torn or divergent Edge fixpoint"
                    );
                    assert_eq!(
                        snap.sorted_tuples_flat("Reach").as_ref(),
                        Some(want_reach),
                        "[{gen}] torn or divergent Reach fixpoint"
                    );
                    generations_seen.insert(gen);
                    if observations == 0 {
                        reading.fetch_add(1, Ordering::Relaxed);
                    }
                    observations += 1;
                }
                (observations, generations_seen)
            })
        })
        .collect();

    // Publish only once every reader is reading, so the publications race
    // live readers even when the scheduler starts them late (a reader that
    // panicked first ends the wait; its join reports it).
    while reading.load(Ordering::Relaxed) < READERS
        && !threads.iter().any(std::thread::JoinHandle::is_finished)
    {
        std::thread::yield_now();
    }
    for gen in 1..=ROUNDS {
        // Stage exactly the delta between generation `gen` and `gen + 1`.
        let have = edges_at_generation(gen);
        let next: Vec<[u32; 2]> = edges_at_generation(gen + 1)
            .into_iter()
            .filter(|e| !have.contains(e))
            .collect();
        writer
            .insert_facts_batch("Edge", &TupleBatch::from_rows(2, next))
            .unwrap();
        writer.refresh().unwrap();
        // The writer's own published snapshot must match the from-scratch
        // serial fixpoint byte for byte, on every backend.
        let snap = handle.latest();
        assert_eq!(snap.generation(), gen + 1);
        let (ref want_edge, ref want_reach) = expected[gen as usize];
        assert_eq!(snap.sorted_tuples_flat("Edge").as_ref(), Some(want_edge));
        assert_eq!(snap.sorted_tuples_flat("Reach").as_ref(), Some(want_reach));
    }
    stop.store(true, Ordering::Relaxed);
    for t in threads {
        let (observations, _) = t.join().expect("reader thread panicked");
        assert!(observations > 0, "a reader made no observations");
    }
    assert_eq!(handle.generation(), ROUNDS + 1);
}

#[test]
fn serial_backend_serves_isolated_snapshots() {
    isolation_under_concurrent_writes("serial");
}

#[test]
fn sharded_backend_serves_isolated_snapshots() {
    isolation_under_concurrent_writes("sharded:4");
}

#[test]
fn pipelined_backend_serves_isolated_snapshots() {
    isolation_under_concurrent_writes("pipelined:4");
}
