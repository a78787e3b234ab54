//! Incremental re-runs: after facts are staged into a run engine, the next
//! `run()` must reach exactly the fixpoint a fresh engine computes over
//! every fact so far — including when the new facts reach a negated or
//! aggregated relation, or are staged into a derived one — and must derive
//! only what the new facts imply. Every test runs on the configured
//! `GPULOG_TEST_BACKEND` matrix leg.

use gpulog::planner::{full_probe_keys, plan_seed_versions, VersionSel};
use gpulog::{
    compile, lower_program, parse_program, EngineConfig, EngineError, GpulogEngine, NwayStrategy,
    RaOp, RunStats, StratumMode, TupleBatch,
};
use gpulog_device::{profile::DeviceProfile, Device};
use gpulog_queries::{
    CSPA_PROGRAM, GOAL_REACH_PROGRAM, NEGATED_REACH_PROGRAM, REACH_PROGRAM, SG_PROGRAM,
    SHORTEST_PATH_PROGRAM,
};
use gpulog_tests::{config_from_env, PROPERTY_PROGRAMS};
use proptest::prelude::*;

fn device() -> Device {
    Device::with_workers(DeviceProfile::nvidia_h100(), 4)
}

fn engine(d: &Device, source: &str, config: EngineConfig) -> GpulogEngine {
    GpulogEngine::builder(d)
        .program(source)
        .config(config)
        .build()
        .expect("test program builds")
}

/// A relation's tuples, sorted and flattened.
fn sorted(engine: &GpulogEngine, relation: &str) -> Vec<u32> {
    engine
        .snapshot()
        .unwrap()
        .sorted_tuples_flat(relation)
        .expect("declared relation")
}

/// The mode the run gave the stratum holding `relation`.
fn mode_of(engine: &GpulogEngine, stats: &RunStats, relation: &str) -> StratumMode {
    let id = engine.compiled().relation_id(relation).unwrap();
    let stratum = engine
        .compiled()
        .strata
        .iter()
        .position(|s| s.relations.contains(&id))
        .unwrap();
    stats.stratum_modes[stratum]
}

/// Raw rows the run's joins produced, over every recorded iteration.
fn raw_rows(stats: &RunStats) -> usize {
    stats.iteration_records.iter().map(|r| r.new_tuples).sum()
}

fn insert(engine: &mut GpulogEngine, relation: &str, arity: usize, rows: &[u32]) {
    engine
        .insert_facts_batch(relation, &TupleBatch::new(arity, rows.to_vec()))
        .unwrap();
}

const NEGATED_OK: &str = r"
    .decl Node(x: number)
    .input Node
    .decl Blocked(x: number)
    .input Blocked
    .decl Ok(x: number)
    .output Ok
    Ok(x) :- Node(x), !Blocked(x).
";

#[test]
fn a_newly_blocked_node_leaves_the_negated_result() {
    let d = device();
    let mut e = engine(&d, NEGATED_OK, config_from_env());
    e.add_facts("Node", [[1u32], [2], [3]]).unwrap();
    e.add_facts("Blocked", [[1u32]]).unwrap();
    let first = e.run().unwrap();
    assert_eq!(sorted(&e, "Ok"), vec![2, 3]);
    assert!(first
        .stratum_modes
        .iter()
        .all(|&mode| mode == StratumMode::Rederived));

    insert(&mut e, "Blocked", 1, &[2]);
    let stats = e.run().unwrap();
    assert_eq!(sorted(&e, "Ok"), vec![3]);
    assert_eq!(mode_of(&e, &stats, "Ok"), StratumMode::Rederived);
    assert_eq!(mode_of(&e, &stats, "Node"), StratumMode::Skipped);
}

const SHORTEST: &str = r"
    .decl Edge(x: number, y: number)
    .input Edge
    .decl Succ(d: number, d1: number)
    .input Succ
    .decl PathLen(x: number, y: number, d: number)
    .decl SP(x: number, y: number, d: number)
    .output SP
    PathLen(x, y, 1) :- Edge(x, y).
    PathLen(x, z, d1) :- PathLen(x, y, d), Edge(y, z), Succ(d, d1).
    SP(x, y, min(d)) :- PathLen(x, y, d).
";

#[test]
fn a_shorter_path_supersedes_the_min_row() {
    let d = device();
    let mut e = engine(&d, SHORTEST, config_from_env());
    e.add_facts("Edge", [[0u32, 1], [1, 2], [2, 3]]).unwrap();
    e.add_facts("Succ", [[1u32, 2], [2, 3], [3, 4]]).unwrap();
    e.run().unwrap();
    assert!(e.contains("SP", &[0, 3, 3]));

    insert(&mut e, "Edge", 2, &[0, 3]);
    let stats = e.run().unwrap();
    assert!(e.contains("SP", &[0, 3, 1]));
    assert!(!e.contains("SP", &[0, 3, 3]), "the superseded row lingers");
    assert_eq!(mode_of(&e, &stats, "PathLen"), StratumMode::Seeded);
    assert_eq!(mode_of(&e, &stats, "SP"), StratumMode::Rederived);

    let mut fresh = engine(&d, SHORTEST, config_from_env());
    fresh
        .add_facts("Edge", [[0u32, 1], [1, 2], [2, 3], [0, 3]])
        .unwrap();
    fresh
        .add_facts("Succ", [[1u32, 2], [2, 3], [3, 4]])
        .unwrap();
    fresh.run().unwrap();
    for relation in ["PathLen", "SP"] {
        assert_eq!(sorted(&e, relation), sorted(&fresh, relation), "{relation}");
    }
}

#[test]
fn an_isolated_edge_on_a_long_chain_derives_only_itself() {
    let d = device();
    let mut e = engine(&d, REACH_PROGRAM, config_from_env());
    e.add_facts("Edge", (0..199u32).map(|i| [i, i + 1]))
        .unwrap();
    let first = e.run().unwrap();
    assert_eq!(e.relation_size("Reach"), Some(199 * 200 / 2));
    // Readers hold the fixpoint while the tick runs.
    let published = e.snapshot().unwrap();

    insert(&mut e, "Edge", 2, &[500, 501]);
    let stats = e.run().unwrap();
    assert_eq!(mode_of(&e, &stats, "Reach"), StratumMode::Seeded);
    assert!(
        raw_rows(&stats) <= 4,
        "the tick derived {} raw rows (the first run {})",
        raw_rows(&stats),
        raw_rows(&first)
    );
    // No delta starts as the whole of full: the stratum iterates from the
    // one new row.
    assert!(stats.iteration_records.iter().all(|r| r.delta_tuples <= 1));
    assert_eq!(e.relation_size("Reach"), Some(199 * 200 / 2 + 1));
    assert_eq!(published.relation_size("Reach"), Some(199 * 200 / 2));

    // A tick of facts already present changes nothing and skips every
    // stratum.
    insert(&mut e, "Edge", 2, &[500, 501, 3, 4]);
    let stats = e.run().unwrap();
    assert!(stats
        .stratum_modes
        .iter()
        .all(|&mode| mode == StratumMode::Skipped));
    assert_eq!(raw_rows(&stats), 0);
}

/// A seed for new edges leads with the delta when the full atom it then
/// joins is keyed on a prefix of its columns: REACH's probes `Reach` by
/// its first column through the canonical sort order. Goal-shaped and
/// negated REACH would probe `Reach[1]`, which no index holds, so their
/// seeds keep scanning `Reach` first. No fixpoint pipeline, under either
/// n-way strategy, probes a canonical prefix.
#[test]
fn seeds_lead_with_new_edges_over_a_canonical_prefix_and_only_seeds_probe_one() {
    for (source, delta_first) in [
        (REACH_PROGRAM, true),
        (GOAL_REACH_PROGRAM, false),
        (NEGATED_REACH_PROGRAM, false),
    ] {
        let compiled = compile(&parse_program(source).unwrap()).unwrap();
        let id = |name| compiled.relation_id(name).unwrap();
        let (edge, reach) = (id("Edge"), id("Reach"));
        let stratum = compiled
            .strata
            .iter()
            .position(|s| s.relations.contains(&reach))
            .unwrap();
        let probed = full_probe_keys(&lower_program(
            &compiled,
            NwayStrategy::TemporarilyMaterialized,
        ));
        let seeds = plan_seed_versions(&compiled, stratum, &probed).unwrap();
        // The recursive rule's seed: the one for new edges with a join.
        let plan = &seeds
            .iter()
            .find(|seed| seed.delta == edge && !seed.plan.joins.is_empty())
            .unwrap()
            .plan;
        let prefix_probes: Vec<_> = plan
            .joins
            .iter()
            .filter(|join| join.version == VersionSel::FullPrefix)
            .map(|join| (join.relation, join.inner_key_cols.clone()))
            .collect();
        if delta_first {
            assert_eq!(
                (plan.scan.relation, plan.scan.version),
                (edge, VersionSel::Delta)
            );
            assert_eq!(prefix_probes, [(reach, vec![0])]);
        } else {
            assert_eq!(
                (plan.scan.relation, plan.scan.version),
                (reach, VersionSel::Full),
                "{source}"
            );
            assert_eq!(prefix_probes, [], "{source}");
        }
        for strategy in [
            NwayStrategy::TemporarilyMaterialized,
            NwayStrategy::FusedNestedLoop,
        ] {
            let lowered = lower_program(&compiled, strategy);
            let steps = lowered
                .iter()
                .flat_map(|stratum| stratum.non_recursive.iter().chain(&stratum.recursive))
                .flat_map(|pipeline| &pipeline.ops)
                .flat_map(|op| match op {
                    RaOp::HashJoin { step, .. } => vec![step],
                    RaOp::FusedJoin { levels, .. } => levels.iter().map(|(step, _)| step).collect(),
                    _ => Vec::new(),
                });
            for step in steps {
                assert_ne!(step.version, VersionSel::FullPrefix, "{source}");
            }
        }
    }
}

#[test]
fn a_rerun_past_the_iteration_limit_converges_over_repeated_runs() {
    let d = device();
    let config = EngineConfig {
        max_iterations: 8,
        ..config_from_env()
    };
    let mut e = engine(&d, REACH_PROGRAM, config);
    e.add_facts("Edge", (0..4u32).map(|i| [i, i + 1])).unwrap();
    e.run().unwrap();

    // Extending the chain to 40 edges needs far more than 8 iterations.
    let extension: Vec<u32> = (4..40u32).flat_map(|i| [i, i + 1]).collect();
    insert(&mut e, "Edge", 2, &extension);
    assert!(matches!(
        e.run(),
        Err(EngineError::IterationLimit { limit: 8 })
    ));
    let mut runs = 1;
    while let Err(err) = e.run() {
        assert!(matches!(err, EngineError::IterationLimit { .. }), "{err}");
        runs += 1;
        assert!(runs < 40, "repeated runs must make progress");
    }

    let mut fresh = engine(&d, REACH_PROGRAM, config_from_env());
    fresh
        .add_facts("Edge", (0..40u32).map(|i| [i, i + 1]))
        .unwrap();
    fresh.run().unwrap();
    assert_eq!(sorted(&e, "Reach"), sorted(&fresh, "Reach"));
    assert_eq!(e.relation_size("Reach"), Some(40 * 41 / 2));
}

/// A first run that runs out of device memory loses none of the facts
/// staged before it. 40 REACH edges are staged and the first run is tried
/// under pinned ballast from the device's whole free memory downward
/// (finely at first, where the fact load itself fails) until it fits.
/// Every failing run must leave storage empty when it failed inside the
/// load, and once the ballast is freed the next run must reach the
/// from-scratch fixpoint.
#[test]
fn a_first_run_that_runs_out_of_memory_keeps_the_staged_facts() {
    let edges: Vec<u32> = (0..40u32).flat_map(|i| [i, i + 1]).collect();
    let new_device = || Device::with_workers(DeviceProfile::tiny_test_device(8 << 20), 2);
    let staged = |d: &Device| {
        let mut e = engine(d, REACH_PROGRAM, config_from_env());
        e.add_facts_flat("Edge", &edges).unwrap();
        e
    };
    let expected = {
        let mut e = staged(&new_device());
        e.run().unwrap();
        sorted(&e, "Reach")
    };
    assert_eq!(expected.len(), 2 * 40 * 41 / 2);

    let d = new_device();
    let (mut failures, mut in_load) = (0, 0);
    let mut slack = 0;
    loop {
        let mut e = staged(&d);
        let free = d.profile().memory_capacity_bytes - d.tracker().in_use();
        let ballast = d
            .buffer_filled(free.saturating_sub(slack) / 4, 0u32)
            .unwrap();
        let Err(err) = e.run() else {
            break;
        };
        failures += 1;
        assert!(
            matches!(err, EngineError::Device(_)),
            "slack {slack}: {err}"
        );
        if e.relation_size("Edge") == Some(0) {
            in_load += 1;
            assert_eq!(e.relation_size("Reach"), Some(0), "slack {slack}");
        }
        drop(ballast);
        e.run().unwrap();
        let rows = Some(expected.len() / 2);
        assert_eq!(e.relation_size("Reach"), rows, "slack {slack}: retry");
        assert_eq!(sorted(&e, "Reach"), expected, "slack {slack}: retry");
        slack += (slack / 8).max(64);
    }
    assert!(in_load > 0, "no run failed inside the fact load");
    assert!(failures > in_load, "no run failed after the fact load");
}

/// A re-run that runs out of device memory loses nothing, under eager and
/// deferred merging alike. A 40-edge REACH chain is run, 40 more edges are
/// staged, and the re-run is tried under pinned ballast from the device's
/// whole free memory downward until it fits. Every failing re-run must
/// keep `Reach`'s pre-run rows, and once the ballast is freed the next
/// run must reach the from-scratch fixpoint.
#[test]
fn a_rerun_that_runs_out_of_memory_loses_no_rows() {
    let chain =
        |edges: std::ops::Range<u32>| -> Vec<u32> { edges.flat_map(|i| [i, i + 1]).collect() };
    for pipelined in [0, 1] {
        let config = EngineConfig {
            pipelined,
            ..EngineConfig::default()
        };
        let new_device = || Device::with_workers(DeviceProfile::tiny_test_device(8 << 20), 2);
        let prepared = |d: &Device| {
            let mut e = engine(d, REACH_PROGRAM, config.clone());
            insert(&mut e, "Edge", 2, &chain(0..40));
            e.run().unwrap();
            insert(&mut e, "Edge", 2, &chain(40..80));
            e
        };
        // The sweep steps through the device memory one unconstrained
        // re-run reaches above what the engine holds before it.
        let (expected, need) = {
            let d = new_device();
            let mut e = prepared(&d);
            let in_use = d.tracker().in_use();
            e.run().unwrap();
            (
                sorted(&e, "Reach"),
                d.metrics().peak_bytes_in_use() - in_use,
            )
        };
        let mut fresh = engine(&new_device(), REACH_PROGRAM, config.clone());
        insert(&mut fresh, "Edge", 2, &chain(0..80));
        fresh.run().unwrap();
        assert_eq!(sorted(&fresh, "Reach"), expected);

        let d = new_device();
        let step = (need / 30).max(64);
        let mut failures = 0;
        for slack in (0..).map(|i| i * step) {
            let mut e = prepared(&d);
            let before = e.relation_size("Reach").unwrap();
            let free = d.profile().memory_capacity_bytes - d.tracker().in_use();
            let ballast = d
                .buffer_filled(free.saturating_sub(slack) / 4, 0u32)
                .unwrap();
            let Err(err) = e.run() else {
                break;
            };
            failures += 1;
            let case = format!("pipelined {pipelined}, slack {slack}");
            assert!(matches!(err, EngineError::Device(_)), "{case}: {err}");
            let kept = e.relation_size("Reach").unwrap();
            assert!(kept >= before, "{case}: Reach fell from {before} to {kept}");
            drop(ballast);
            e.run().unwrap();
            assert_eq!(sorted(&e, "Reach"), expected, "{case}: retry");
        }
        assert!(
            failures > 5,
            "pipelined {pipelined}: the sweep never failed"
        );
    }
}

/// A deterministic 40-node graph with enough branching and merging that
/// every join of every workload program fires.
fn workload_edges() -> Vec<u32> {
    (0..40u32)
        .flat_map(|i| [i, (i + 1) % 40, i, (i * 7 + 3) % 40])
        .collect()
}

#[test]
fn ticks_keep_the_index_keys_a_from_scratch_run_builds() {
    let graph = workload_edges();
    let succ: Vec<u32> = (1..6u32).flat_map(|d| [d, d + 1]).collect();
    let blocked: Vec<u32> = (0..40u32).step_by(9).collect();
    // Program, the relation ticks insert into, and the other inputs.
    let workloads = [
        (REACH_PROGRAM, "Edge", vec![]),
        (GOAL_REACH_PROGRAM, "Edge", vec![]),
        (SG_PROGRAM, "Edge", vec![]),
        (CSPA_PROGRAM, "Assign", vec![("Dereference", graph.clone())]),
        (NEGATED_REACH_PROGRAM, "Edge", vec![("Blocked", blocked)]),
        (SHORTEST_PATH_PROGRAM, "Edge", vec![("Succ", succ)]),
    ];
    // An isolated tick, like the benchmark's, then one that joins in.
    let ticks: [&[u32]; 2] = [&[100, 101, 102, 103], &[5, 100, 103, 17]];
    let d = device();
    for (source, tick_relation, inputs) in &workloads {
        let loaded = |tick_facts: &[u32]| {
            let mut e = engine(&d, source, config_from_env());
            for (relation, flat) in inputs {
                e.add_facts_flat(relation, flat).unwrap();
            }
            e.add_facts_flat(tick_relation, tick_facts).unwrap();
            e
        };
        let mut e = loaded(&graph);
        e.run().unwrap();
        let mut accumulated = graph.clone();
        for tick in ticks {
            let _published = e.snapshot().unwrap();
            insert(&mut e, tick_relation, 2, tick);
            e.run().unwrap();
            accumulated.extend_from_slice(tick);

            let mut fresh = loaded(&accumulated);
            fresh.run().unwrap();
            let (ticked, rebuilt) = (e.snapshot().unwrap(), fresh.snapshot().unwrap());
            for relation in ticked.relation_names() {
                assert_eq!(
                    ticked.index_keys(relation),
                    rebuilt.index_keys(relation),
                    "{relation} after tick {tick:?} of\n{source}"
                );
                assert_eq!(
                    ticked.sorted_tuples_flat(relation),
                    rebuilt.sorted_tuples_flat(relation),
                    "{relation} after tick {tick:?} of\n{source}"
                );
            }
        }
    }
}

/// Every program the property sweeps, with the relations its batches
/// insert into: inputs, negated and aggregated relations, and derived ones.
fn incremental_programs() -> Vec<(&'static str, Vec<(&'static str, usize)>)> {
    let closure = vec![("Edge", 2), ("Reach", 2)];
    vec![
        (REACH_PROGRAM, closure.clone()),
        (GOAL_REACH_PROGRAM, closure),
        (SG_PROGRAM, vec![("Edge", 2), ("SG", 2)]),
        (
            CSPA_PROGRAM,
            vec![
                ("Assign", 2),
                ("Dereference", 2),
                ("ValueFlow", 2),
                ("MemoryAlias", 2),
                ("ValueAlias", 2),
            ],
        ),
        (
            NEGATED_REACH_PROGRAM,
            vec![("Edge", 2), ("Blocked", 1), ("Reach", 2)],
        ),
        (
            SHORTEST_PATH_PROGRAM,
            vec![("Edge", 2), ("Succ", 2), ("PathLen", 3), ("SP", 3)],
        ),
        (
            PROPERTY_PROGRAMS[0],
            vec![("Edge", 2), ("Reach", 2), ("Near", 2), ("Scratch", 2)],
        ),
        (
            PROPERTY_PROGRAMS[1],
            vec![("Edge", 2), ("Blocked", 1), ("Reach", 2)],
        ),
        (
            PROPERTY_PROGRAMS[2],
            vec![("Edge", 2), ("PathLen", 3), ("SP", 3), ("Unused", 1)],
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(72))]

    // For random facts arriving in one to four batches — the first added
    // before the first run, the rest staged between runs — every relation
    // after every run equals what a fresh engine derives from all facts so
    // far. Half the facts go to the program's first input; the rest spread
    // over negated, aggregated and derived relations too.
    #[test]
    fn incremental_runs_match_from_scratch(
        which in 0usize..9,
        batches in prop::collection::vec(
            prop::collection::vec(((0usize..10, 0u32..7), (0u32..7, 0u32..4)), 0..10),
            1..5,
        ),
    ) {
        let programs = incremental_programs();
        let (source, targets) = &programs[which];
        let d = device();
        let mut e = engine(&d, source, config_from_env());
        let mut accumulated: Vec<Vec<u32>> = vec![Vec::new(); targets.len()];
        for (round, batch) in batches.iter().enumerate() {
            let mut staged: Vec<Vec<u32>> = vec![Vec::new(); targets.len()];
            for &((pick, a), (b, c)) in batch {
                let target = if pick >= targets.len() { 0 } else { pick };
                let arity = targets[target].1;
                staged[target].extend_from_slice(&[a, b, c][..arity]);
            }
            for (target, rows) in staged.iter().enumerate() {
                let (relation, arity) = targets[target];
                if round == 0 {
                    e.add_facts_flat(relation, rows).unwrap();
                } else if !rows.is_empty() {
                    insert(&mut e, relation, arity, rows);
                }
                accumulated[target].extend_from_slice(rows);
            }
            e.run().unwrap();

            let mut fresh = engine(&d, source, config_from_env());
            for (target, rows) in accumulated.iter().enumerate() {
                fresh.add_facts_flat(targets[target].0, rows).unwrap();
            }
            fresh.run().unwrap();
            let (got, want) = (e.snapshot().unwrap(), fresh.snapshot().unwrap());
            for relation in want.relation_names() {
                prop_assert_eq!(
                    got.sorted_tuples_flat(relation),
                    want.sorted_tuples_flat(relation),
                    "{} after batch {} of\n{}", relation, round, source
                );
            }
        }
    }
}
