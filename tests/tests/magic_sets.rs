//! End-to-end and property tests for goal-directed evaluation: on random
//! graphs and random goal constants, the magic-sets rewrite must answer a
//! point query with exactly the full fixpoint's tuples restricted to the
//! goal, byte for byte, on every backend the CI matrix runs
//! (`GPULOG_TEST_BACKEND`: serial, sharded:4, pipelined:4, multigpu:2).

use gpulog::{EngineConfig, EngineError, GpulogEngine, TupleBatch};
use gpulog_bench::BackendSpec;
use gpulog_datasets::generators::hub_graph;
use gpulog_datasets::EdgeList;
use gpulog_device::{profile::DeviceProfile, Device};
use gpulog_queries::goal;
use gpulog_tests::config_from_env;
use proptest::prelude::*;

fn device() -> Device {
    Device::with_workers(DeviceProfile::nvidia_h100(), 4)
}

/// The full fixpoint's `Reach` tuples restricted to the goal source,
/// canonically sorted — the answer set `run_query` must reproduce.
fn restricted_full_fixpoint(graph: &EdgeList, source: u32, config: EngineConfig) -> Vec<u32> {
    let mut engine = goal::prepare(&device(), graph, config).expect("prepare failed");
    engine.run().expect("full fixpoint failed");
    let mut rows: Vec<Vec<u32>> = engine
        .relation_batch("Reach")
        .expect("Reach exists")
        .rows()
        .filter(|row| row[0] == source)
        .map(<[u32]>::to_vec)
        .collect();
    rows.sort_unstable();
    rows.dedup();
    rows.into_iter().flatten().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // On random graphs and random goal constants, the magic-rewritten
    // answers equal the full-fixpoint answers restricted to the goal —
    // and both agree with an independent host BFS. The engine runs on
    // whatever backend the matrix leg selects.
    #[test]
    fn magic_answers_equal_the_restricted_full_fixpoint(
        edges in prop::collection::vec((0u32..40, 0u32..40), 0..120),
        source in 0u32..40,
    ) {
        let graph = EdgeList::new("random", edges);
        let config = config_from_env();
        let engine = goal::prepare(&device(), &graph, config.clone()).expect("prepare failed");
        let result = goal::query(&engine, source).expect("goal query failed");
        let expected = restricted_full_fixpoint(&graph, source, config);
        prop_assert_eq!(result.answers.as_flat(), &expected[..]);
        let bfs: Vec<u32> = goal::reference_reachable_from(&graph, source)
            .into_iter()
            .flat_map(|(a, b)| [a, b])
            .collect();
        prop_assert_eq!(result.answers.as_flat(), &bfs[..]);
    }
}

/// One fixed workload, every backend explicitly: the answer bytes must be
/// identical across serial, sharded, pipelined, and the simulated
/// multi-GPU topology — canonical answers may not depend on scheduling.
#[test]
fn goal_answers_are_byte_identical_across_backends() {
    let graph = hub_graph(64, 4, 7);
    let source = 20;
    let expected: Vec<u32> = goal::reference_reachable_from(&graph, source)
        .into_iter()
        .flat_map(|(a, b)| [a, b])
        .collect();
    assert!(!expected.is_empty(), "hub graphs are connected");
    for spec in [
        BackendSpec::Serial,
        BackendSpec::Sharded(4),
        BackendSpec::Pipelined(4),
        BackendSpec::MultiGpu(2),
    ] {
        let config = spec.configure(EngineConfig::default());
        let result = goal::run_goal(&device(), &graph, source, config).expect("goal run failed");
        let engine = goal::prepare(&device(), &graph, spec.configure(EngineConfig::default()))
            .expect("prepare failed");
        let answers = goal::query(&engine, source).expect("goal query failed");
        assert_eq!(
            answers.answers.as_flat(),
            &expected[..],
            "backend {} diverged from the host reference",
            spec.label()
        );
        assert_eq!(result.answer_count, expected.len() / 2);
    }
}

/// A `?-` goal embedded in source drives `run_query` end to end, and the
/// query survives a round trip through the parser with its span.
#[test]
fn source_embedded_goals_run_end_to_end() {
    let source = r"
.decl Edge(x: number, y: number)
.input Edge
.decl Reach(x: number, y: number)
.output Reach
Reach(x, y) :- Edge(x, y).
Reach(x, z) :- Reach(x, y), Edge(y, z).
?- Reach(3, y).
";
    let graph = hub_graph(32, 2, 13);
    let mut engine = GpulogEngine::builder(&device())
        .program(source)
        .config(config_from_env())
        .build()
        .expect("build failed");
    engine
        .add_facts_flat("Edge", &graph.to_flat())
        .expect("loading edges failed");
    let result = engine.run_query().expect("embedded goal failed");
    let expected: Vec<u32> = goal::reference_reachable_from(&graph, 3)
        .into_iter()
        .flat_map(|(a, b)| [a, b])
        .collect();
    assert_eq!(result.answers.as_flat(), &expected[..]);
}

/// A REACH engine over the chain 0 → 1 → 2 with `Reach(9, 0)` added
/// directly to the rule-derived `Reach` before the first run.
fn chain_with_a_derived_fact() -> GpulogEngine {
    let chain = EdgeList::new("chain", vec![(0, 1), (1, 2)]);
    let mut engine = goal::prepare(&device(), &chain, config_from_env()).expect("prepare failed");
    engine
        .add_facts("Reach", [[9u32, 0]])
        .expect("staging before the run failed");
    engine
}

fn goal_rows(engine: &GpulogEngine, source: u32) -> Vec<Vec<u32>> {
    goal::query(engine, source)
        .expect("goal query failed")
        .answers
        .to_rows()
}

/// Facts added to a rule-derived relation before the first run reach goal
/// answers, as they reach the full fixpoint.
#[test]
fn goal_answers_include_facts_added_to_a_derived_relation_before_the_first_run() {
    let mut engine = chain_with_a_derived_fact();
    let expected = vec![vec![9, 0], vec![9, 1], vec![9, 2]];
    assert_eq!(goal_rows(&engine, 9), expected);
    engine.run().expect("fixpoint failed");
    assert!(engine.contains("Reach", &[9, 2]));
    assert_eq!(goal_rows(&engine, 9), expected);
}

/// Facts staged into a rule-derived relation after a run reach goal
/// answers, before and after the run that merges them.
#[test]
fn goal_answers_include_facts_staged_into_a_derived_relation_after_a_run() {
    let mut engine = chain_with_a_derived_fact();
    engine.run().expect("fixpoint failed");
    engine
        .insert_facts_batch("Reach", &TupleBatch::from_rows(2, [[7u32, 8]]))
        .expect("staging after the run failed");
    assert_eq!(goal_rows(&engine, 7), vec![vec![7, 8]]);
    engine.run().expect("re-run failed");
    assert!(engine.contains("Reach", &[7, 8]));
    assert_eq!(goal_rows(&engine, 7), vec![vec![7, 8]]);
}

/// Malformed goals fail with the typed query errors, carrying the parse
/// span of the offending `?-` line.
#[test]
fn malformed_goals_surface_typed_errors_with_spans() {
    let unknown = r"
.decl Edge(x: number, y: number)
.input Edge
?- Ghost(1, y).
";
    let engine = GpulogEngine::builder(&device())
        .program(unknown)
        .config(config_from_env())
        .build()
        .expect("build failed");
    match engine.run_query() {
        Err(EngineError::UnknownQueryRelation {
            relation,
            line,
            column,
        }) => {
            assert_eq!(relation, "Ghost");
            assert_eq!(line, 4);
            assert!(column > 0);
        }
        other => panic!("expected UnknownQueryRelation, got {other:?}"),
    }

    let arity = r"
.decl Edge(x: number, y: number)
.input Edge
?- Edge(1).
";
    let engine = GpulogEngine::builder(&device())
        .program(arity)
        .config(config_from_env())
        .build()
        .expect("build failed");
    match engine.run_query() {
        Err(EngineError::QueryArityMismatch {
            relation,
            expected,
            got,
            line,
            ..
        }) => {
            assert_eq!(relation, "Edge");
            assert_eq!((expected, got), (2, 1));
            assert_eq!(line, 4);
        }
        other => panic!("expected QueryArityMismatch, got {other:?}"),
    }
}
