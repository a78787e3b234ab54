//! Stratified-evaluation integration tests: the `Literal` body redesign
//! must leave purely positive programs byte-identical (golden tuples for
//! the paper's Figure 1 REACH / SG fixpoints), and programs mixing `!atom`
//! negation with `min` head aggregates must reach byte-identical fixpoints
//! on every backend — pinned both by an exact-tuple run under the CI
//! backend matrix (`GPULOG_TEST_BACKEND`) and by a property test over
//! random graphs comparing serial against sharded:4, pipelined:4, and the
//! simulated 2-device topology. Programs that recurse through negation or
//! aggregation must be rejected with the typed `CyclicNegation` error.

use gpulog::{DeviceTopology, EngineConfig, EngineError, GpulogEngine};
use gpulog_datasets::EdgeList;
use gpulog_device::{profile::DeviceProfile, Device};
use proptest::prelude::*;
use std::num::NonZeroUsize;

fn device() -> Device {
    Device::with_workers(DeviceProfile::nvidia_h100(), 4)
}

fn figure1_graph() -> EdgeList {
    EdgeList::new(
        "figure1",
        vec![
            (0, 1),
            (0, 2),
            (1, 3),
            (1, 4),
            (2, 4),
            (2, 5),
            (3, 6),
            (4, 7),
            (4, 8),
            (5, 8),
        ],
    )
}

/// A program combining both stratified features: `!Blocked` negation in a
/// recursive closure and a `min` head aggregate over the finished
/// `PathLen` relation (hop counts spelled through an extensional `Succ`
/// table).
const STRATIFIED_SRC: &str = r"
.decl Edge(x: number, y: number)
.input Edge
.decl Blocked(x: number)
.input Blocked
.decl Succ(d: number, d1: number)
.input Succ
.decl Reach(x: number, y: number)
.output Reach
.decl PathLen(x: number, y: number, d: number)
.decl SP(x: number, y: number, d: number)
.output SP
Reach(x, y) :- Edge(x, y), !Blocked(y).
Reach(x, z) :- Reach(x, y), Edge(y, z), !Blocked(z).
PathLen(x, y, 1) :- Edge(x, y), !Blocked(y).
PathLen(x, z, d1) :- PathLen(x, y, d), Edge(y, z), Succ(d, d1), !Blocked(z).
SP(x, y, min(d)) :- PathLen(x, y, d).
";

fn succ_facts(max_hops: u32) -> Vec<u32> {
    (1..max_hops).flat_map(|d| [d, d + 1]).collect()
}

// The pre-redesign regression anchor: with `Rule.body` now `Vec<Literal>`,
// a purely positive program must still lower to exactly the same pipeline
// and fixpoint. The Figure 1 REACH closure is pinned tuple-for-tuple
// (canonical sorted order), under every CI backend leg.
#[test]
fn positive_reach_fixpoint_matches_golden_tuples() {
    const REACH_SRC: &str = r"
        .decl Edge(x: number, y: number)
        .input Edge
        .decl Reach(x: number, y: number)
        .output Reach
        Reach(x, y) :- Edge(x, y).
        Reach(x, y) :- Edge(x, z), Reach(z, y).
    ";
    let d = device();
    let mut engine = GpulogEngine::builder(&d)
        .program(REACH_SRC)
        .config(gpulog_tests::config_from_env())
        .build()
        .unwrap();
    engine
        .add_facts_flat("Edge", &figure1_graph().to_flat())
        .unwrap();
    engine.run().unwrap();
    // Merge order: the base edges, then each iteration's (sorted) delta —
    // 2-hop pairs, then 3-hop pairs. Every backend must reproduce this
    // byte order exactly.
    let golden: Vec<Vec<u32>> = [
        [0u32, 1],
        [0, 2],
        [1, 3],
        [1, 4],
        [2, 4],
        [2, 5],
        [3, 6],
        [4, 7],
        [4, 8],
        [5, 8],
        [0, 3],
        [0, 4],
        [0, 5],
        [1, 6],
        [1, 7],
        [1, 8],
        [2, 7],
        [2, 8],
        [0, 6],
        [0, 7],
        [0, 8],
    ]
    .iter()
    .map(|t| t.to_vec())
    .collect();
    assert_eq!(
        engine.relation_batch("Reach").map(|b| b.to_rows()),
        Some(golden)
    );
}

#[test]
fn positive_sg_fixpoint_matches_golden_tuples() {
    const SG_SRC: &str = r"
        .decl Edge(x: number, y: number)
        .input Edge
        .decl SG(x: number, y: number)
        .output SG
        SG(x, y) :- Edge(p, x), Edge(p, y), x != y.
        SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y.
    ";
    let d = device();
    let mut engine = GpulogEngine::builder(&d)
        .program(SG_SRC)
        .config(gpulog_tests::config_from_env())
        .build()
        .unwrap();
    engine
        .add_facts_flat("Edge", &figure1_graph().to_flat())
        .unwrap();
    engine.run().unwrap();
    // Merge order: iteration 1's 8 sibling pairs, then iteration 2's 6
    // cousin pairs (each delta internally sorted).
    let golden: Vec<Vec<u32>> = [
        [1u32, 2],
        [2, 1],
        [3, 4],
        [4, 3],
        [4, 5],
        [5, 4],
        [7, 8],
        [8, 7],
        [3, 5],
        [5, 3],
        [6, 7],
        [6, 8],
        [7, 6],
        [8, 6],
    ]
    .iter()
    .map(|t| t.to_vec())
    .collect();
    assert_eq!(
        engine.relation_batch("SG").map(|b| b.to_rows()),
        Some(golden)
    );
}

// The stratified workload leg of the backend matrix: negation + min
// aggregate with exact golden tuples, honored per CI leg via
// `GPULOG_TEST_BACKEND`. The graph is a chain with a shortcut so that the
// aggregate genuinely has competing path lengths to minimize over.
#[test]
fn stratified_negation_and_min_aggregate_match_golden_tuples_on_every_backend() {
    let d = device();
    let mut engine = GpulogEngine::builder(&d)
        .program(STRATIFIED_SRC)
        .config(gpulog_tests::config_from_env())
        .build()
        .unwrap();
    // 0→1→2→3→4 with shortcuts 0→3 and 1→4; node 2 is blocked.
    let edges: &[u32] = &[0, 1, 1, 2, 2, 3, 0, 3, 3, 4, 1, 4];
    engine.add_facts_flat("Edge", edges).unwrap();
    engine.add_facts_flat("Blocked", &[2]).unwrap();
    engine.add_facts_flat("Succ", &succ_facts(4)).unwrap();
    engine.run().unwrap();

    // Closure that never enters node 2 (2 may still be a source); merge
    // order is the filtered base edges then the 2-hop delta.
    let reach_golden: Vec<Vec<u32>> = [[0u32, 1], [0, 3], [1, 4], [2, 3], [3, 4], [0, 4], [2, 4]]
        .iter()
        .map(|t| t.to_vec())
        .collect();
    assert_eq!(
        engine.relation_batch("Reach").map(|b| b.to_rows()),
        Some(reach_golden)
    );

    // Hop counts: (0,4) is reachable in 2 via either shortcut route; the
    // min aggregate must keep exactly one tuple per (x, y) group.
    let sp_golden: Vec<Vec<u32>> = [
        [0u32, 1, 1],
        [0, 3, 1],
        [0, 4, 2],
        [1, 4, 1],
        [2, 3, 1],
        [2, 4, 2],
        [3, 4, 1],
    ]
    .iter()
    .map(|t| t.to_vec())
    .collect();
    assert_eq!(
        engine.relation_batch("SP").map(|b| b.to_rows()),
        Some(sp_golden)
    );
}

#[test]
fn cyclic_negation_is_rejected_with_a_typed_error() {
    let d = device();
    let err = GpulogEngine::builder(&d)
        .program(
            r"
        .decl S(x: number)
        .input S
        .decl R(x: number)
        .output R
        R(x) :- S(x), !R(x).
        ",
        )
        .config(gpulog_tests::config_from_env())
        .build()
        .unwrap_err();
    match err {
        EngineError::CyclicNegation { relation, .. } => assert_eq!(relation, "R"),
        other => panic!("expected CyclicNegation, got {other:?}"),
    }

    // Aggregation through the rule's own head is a stratification cycle
    // too: the aggregate reads the finished relation it is defining.
    let err = GpulogEngine::builder(&d)
        .program(
            r"
        .decl E(x: number, y: number)
        .input E
        .decl P(x: number, y: number)
        .output P
        P(x, y) :- E(x, y).
        P(x, min(y)) :- P(x, y).
        ",
        )
        .config(gpulog_tests::config_from_env())
        .build()
        .unwrap_err();
    assert!(
        matches!(err, EngineError::CyclicNegation { ref relation, .. } if relation == "P"),
        "aggregate over its own head must be unstratifiable, got {err:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // A stratified program (negation + min aggregate) must reach fixpoints
    // byte-identical to the serial backend's on random graphs, across
    // sharded:4, pipelined:4, and the simulated 2-device topology — for
    // both the negated recursive closure and the aggregated relation.
    #[test]
    fn stratified_fixpoints_match_serial_on_random_graphs(
        edges in prop::collection::vec((0u32..18, 0u32..18), 0..80),
    ) {
        let edges: Vec<[u32; 2]> = edges.iter().map(|&(a, b)| [a, b]).collect();
        let run = |cfg: EngineConfig| {
            let d = device();
            let mut engine = GpulogEngine::builder(&d).program(STRATIFIED_SRC).config(cfg).build().unwrap();
            engine.add_facts("Edge", &edges).unwrap();
            // Block every third node; bound hop counts at 6.
            let blocked: Vec<u32> = (0..18).step_by(3).collect();
            engine.add_facts_flat("Blocked", &blocked).unwrap();
            engine.add_facts_flat("Succ", &succ_facts(6)).unwrap();
            let stats = engine.run().unwrap();
            (
                engine.relation_batch("Reach").unwrap(),
                engine.relation_batch("SP").unwrap(),
                stats.iterations,
            )
        };
        let (serial_reach, serial_sp, serial_iters) = run(EngineConfig::default());
        let variants: Vec<(&str, EngineConfig)> = vec![
            (
                "sharded:4",
                EngineConfig { shard_count: 4, ..EngineConfig::default() },
            ),
            (
                "pipelined:4",
                EngineConfig { pipelined: 4, ..EngineConfig::default() },
            ),
            (
                "multigpu:2",
                EngineConfig {
                    device_topology: Some(DeviceTopology::nvlink_like(
                        NonZeroUsize::new(2).unwrap(),
                    )),
                    ..EngineConfig::default()
                },
            ),
        ];
        for (label, cfg) in variants {
            let (reach, sp, iters) = run(cfg);
            prop_assert_eq!(
                reach.as_flat(),
                serial_reach.as_flat(),
                "Reach on {} must be byte-identical to serial",
                label
            );
            prop_assert_eq!(
                sp.as_flat(),
                serial_sp.as_flat(),
                "SP on {} must be byte-identical to serial",
                label
            );
            prop_assert_eq!(iters, serial_iters);
        }
    }
}
