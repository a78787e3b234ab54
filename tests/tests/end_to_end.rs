//! Workspace-spanning integration tests: the full GPUlog stack (device →
//! HISA → engine → queries) against reference implementations and the
//! comparator engines, plus the paper's worked examples.

use gpulog::{EbmConfig, NwayStrategy};
use gpulog_baselines::{cudf_like, gpujoin_like, souffle_like};
use gpulog_datasets::generators::{binary_tree, power_law_graph, random_graph, road_network};
use gpulog_datasets::{EdgeList, PaperDataset};
use gpulog_device::{profile::DeviceProfile, Device, DeviceError};
use gpulog_queries::{cspa, reach, sg};

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

#[test]
fn fixpoint_runs_spawn_zero_threads_after_warmup() {
    // The worker pool is created with the device; every kernel launch after
    // that must reuse the parked threads. A full fixpoint evaluation — the
    // warmup run and a second run on the same device — must therefore leave
    // the spawn counter exactly where device creation put it.
    let d = device();
    let spawned_at_creation = d.metrics().threads_spawned();
    let mut warmup = sg::prepare(&d, &figure1_graph(), gpulog_tests::config_from_env()).unwrap();
    warmup.run().unwrap();
    let after_warmup = d.metrics().snapshot();
    assert_eq!(after_warmup.threads_spawned, spawned_at_creation);

    let mut engine = sg::prepare(&d, &figure1_graph(), gpulog_tests::config_from_env()).unwrap();
    engine.run().unwrap();
    let delta = d.metrics().snapshot().since(&after_warmup);
    assert_eq!(delta.threads_spawned, 0, "post-warmup runs must not spawn");
    assert!(
        delta.kernel_launches > 0,
        "the run must actually have launched kernels"
    );
}

#[test]
fn device_phase_nanos_never_exceed_run_wall_time() {
    // Regression for the PhaseTimer double-count: sharded and multi-GPU
    // ops run S concurrent shard tasks per epoch, each timing the same
    // sort / merge / index phases. With per-task spans summed, a phase
    // bucket could report S x its wall time; the union accounting pins
    // every per-phase total at or below the run's wall clock. Runs under
    // the CI backend matrix so the concurrent legs exercise it for real.
    let d = device();
    let graph = PaperDataset::Gnutella31.generate(0.1);
    let start = std::time::Instant::now();
    let result = reach::run(&d, &graph, gpulog_tests::config_from_env()).unwrap();
    let wall = start.elapsed();
    assert!(result.reach_size > 0);
    let phases = d.metrics().phase_times();
    for phase in ["sort", "merge", "index"] {
        if let Some(spent) = phases.get(phase) {
            assert!(
                *spent <= wall,
                "{phase} phase nanos ({spent:?}) exceed run wall time ({wall:?})"
            );
        }
    }
}

#[test]
fn merge_heavy_chain_fixpoint_keeps_index_maintenance_delta_proportional() {
    // A pure chain drives REACH through one iteration per node with steadily
    // shrinking deltas — the merge-heavy long tail where the old per-merge
    // hash rebuild was O(|full|). With EBM reserving headroom, the hash
    // layer must absorb every delta through incremental inserts, with
    // rebuilds limited to the (amortised, geometric) capacity growths —
    // far fewer than one per iteration.
    // config_from_env keeps this under the CI backend matrix: the sharded
    // legs validate that shard-local merges inherit incremental
    // maintenance (per-shard tables grow amortised too).
    let d = device();
    let chain = road_network(60, 0, 1);
    let before = d.metrics().snapshot();
    let result = reach::run(&d, &chain, gpulog_tests::config_from_env()).unwrap();
    let spent = d.metrics().snapshot().since(&before);
    assert_eq!(result.reach_size, reach::reference_closure(&chain).len());
    let total_delta: usize = result
        .stats
        .iteration_records
        .iter()
        .map(|r| r.delta_tuples)
        .sum();
    assert!(
        result.stats.iterations >= 50,
        "chain must run many iterations"
    );
    assert!(
        spent.hash_inserts >= total_delta as u64,
        "every merged delta tuple must go through the incremental insert path \
         (inserts {}, delta tuples {total_delta})",
        spent.hash_inserts,
    );
    assert!(
        (spent.hash_rebuilds as usize) < result.stats.iterations,
        "rebuilds ({}) must stay amortised, not once per iteration ({})",
        spent.hash_rebuilds,
        result.stats.iterations,
    );
}

#[test]
fn figure1_sg_trace_matches_the_paper() {
    // Figure 1 of the paper walks SG through three iterations on a 9-node
    // graph: iteration 1 derives 8 tuples, iteration 2 adds 6 more, and
    // iteration 3 derives nothing new, ending at 14 tuples.
    let d = device();
    let mut engine = sg::prepare(&d, &figure1_graph(), gpulog_tests::config_from_env()).unwrap();
    let stats = engine.run().unwrap();
    assert_eq!(engine.relation_size("SG"), Some(14));
    assert_eq!(stats.iterations, 3);
    assert_eq!(stats.iteration_records[0].delta_tuples, 8);
    assert_eq!(stats.iteration_records[1].delta_tuples, 6);
    assert_eq!(stats.iteration_records[2].delta_tuples, 0);
    // Spot-check tuples listed in the figure.
    for pair in [[3u32, 5], [5, 3], [6, 8], [8, 6], [1, 2], [7, 8]] {
        assert!(engine.contains("SG", &pair), "missing SG{pair:?}");
    }
    assert!(!engine.contains("SG", &[0, 1]));
}

#[test]
fn gpulog_and_all_baselines_agree_on_reach() {
    for (name, graph) in [
        ("random", random_graph(80, 260, 3)),
        ("tree", binary_tree(6)),
        ("road", road_network(150, 12, 4)),
        ("powerlaw", power_law_graph(200, 3, 5)),
    ] {
        let d = device();
        let gpulog_size = reach::run(&d, &graph, gpulog_tests::config_from_env())
            .unwrap()
            .reach_size;
        let reference = reach::reference_closure(&graph).len();
        assert_eq!(gpulog_size, reference, "GPUlog vs reference on {name}");
        assert_eq!(
            souffle_like::reach(&graph, 4).tuples,
            Some(reference),
            "souffle-like on {name}"
        );
        assert_eq!(
            gpujoin_like::reach(&graph, usize::MAX).tuples,
            Some(reference),
            "gpujoin-like on {name}"
        );
        assert_eq!(
            cudf_like::reach(&graph, usize::MAX).tuples,
            Some(reference),
            "cudf-like on {name}"
        );
    }
}

#[test]
fn gpulog_and_baselines_agree_on_sg() {
    for (name, graph) in [
        ("random", random_graph(26, 50, 7)),
        ("tree", binary_tree(4)),
    ] {
        let d = device();
        let gpulog_size = sg::run(&d, &graph, gpulog_tests::config_from_env())
            .unwrap()
            .sg_size;
        let reference = sg::reference_sg(&graph).len();
        assert_eq!(gpulog_size, reference, "GPUlog vs reference on {name}");
        assert_eq!(souffle_like::sg(&graph, 4).tuples, Some(reference));
        assert_eq!(cudf_like::sg(&graph, usize::MAX).tuples, Some(reference));
    }
}

/// `new_tuples` of the SG run below before join outputs were narrowed to
/// their live columns and duplicate-holding join inputs deduplicated.
const SG_POWER_LAW_NEW_TUPLES_BEFORE_NARROWING: usize = 690_648;

#[test]
fn sg_deduplicated_join_inputs_derive_less_with_the_same_fixpoint_on_every_backend() {
    use gpulog::DeviceTopology;
    use std::num::NonZeroUsize;

    // Large enough that the recursive rule's second join sees a narrowed
    // `[b, x]` outer of over 2^16 rows in one iteration, so the dedup
    // before that join fires.
    let graph = power_law_graph(200, 3, 5);
    let expected: Vec<Vec<u32>> = sg::reference_sg(&graph)
        .into_iter()
        .map(|(x, y)| vec![x, y])
        .collect();
    let run = |cfg: gpulog::EngineConfig| {
        let d = device();
        let mut engine = sg::prepare(&d, &graph, cfg).unwrap();
        let stats = engine.run().unwrap();
        let mut tuples = engine.relation_batch("SG").unwrap().to_rows();
        tuples.sort_unstable();
        let new_tuples: usize = stats.iteration_records.iter().map(|r| r.new_tuples).sum();
        (tuples, new_tuples)
    };
    let (tuples, new_tuples) = run(gpulog::EngineConfig::default());
    assert_eq!(tuples, expected, "SG vs reference");
    assert!(
        new_tuples < SG_POWER_LAW_NEW_TUPLES_BEFORE_NARROWING,
        "narrowed, deduplicated joins must derive fewer rows ({new_tuples})"
    );
    let two = NonZeroUsize::new(2).unwrap();
    for (name, cfg) in [
        (
            "sharded:2",
            gpulog::EngineConfig {
                shard_count: 2,
                ..gpulog::EngineConfig::default()
            },
        ),
        (
            "sharded:7",
            gpulog::EngineConfig {
                shard_count: 7,
                ..gpulog::EngineConfig::default()
            },
        ),
        (
            "pipelined:2",
            gpulog::EngineConfig {
                pipelined: 2,
                ..gpulog::EngineConfig::default()
            },
        ),
        (
            "multigpu:2",
            gpulog::EngineConfig {
                device_topology: Some(DeviceTopology::nvlink_like(two)),
                ..gpulog::EngineConfig::default()
            },
        ),
    ] {
        let (got, got_new) = run(cfg);
        assert_eq!(got, tuples, "{name}: SG relation");
        assert_eq!(got_new, new_tuples, "{name}: new_tuples");
    }
    let (fused, _) = run(gpulog::EngineConfig {
        nway: NwayStrategy::FusedNestedLoop,
        ..gpulog::EngineConfig::default()
    });
    assert_eq!(fused, tuples, "fused: SG relation");
}

#[test]
fn gpulog_and_souffle_like_agree_on_cspa_relation_sizes() {
    let input = gpulog_datasets::cspa::httpd_like(1.0 / 3000.0);
    let d = device();
    let result = cspa::run(&d, &input, gpulog_tests::config_from_env()).unwrap();
    let (_, sizes) = souffle_like::cspa(&input, 4);
    assert_eq!(result.sizes.value_flow, sizes.value_flow, "ValueFlow");
    assert_eq!(result.sizes.memory_alias, sizes.memory_alias, "MemoryAlias");
    assert_eq!(result.sizes.value_alias, sizes.value_alias, "ValueAlias");
}

#[test]
fn ebm_configurations_do_not_change_results_only_memory() {
    let graph = PaperDataset::SfCedge.generate(0.12);
    let run = |ebm: EbmConfig| {
        let d = device();
        let cfg = gpulog::EngineConfig {
            ebm,
            ..gpulog_tests::config_from_env()
        };
        let r = reach::run(&d, &graph, cfg).unwrap();
        (r.reach_size, r.stats.peak_device_bytes)
    };
    let (size_off, mem_off) = run(EbmConfig::disabled());
    let (size_on, mem_on) = run(EbmConfig::with_growth_factor(8.0));
    // The policy is purely about memory management: derived results must be
    // identical, and both configurations must report a real memory peak.
    assert_eq!(size_off, size_on);
    assert!(mem_on > 0 && mem_off > 0);
}

#[test]
fn join_strategies_agree_on_cspa() {
    let input = gpulog_datasets::cspa::postgres_like(1.0 / 6000.0);
    let d = device();
    let materialized = cspa::run(&d, &input, gpulog_tests::config_from_env()).unwrap();
    let cfg = gpulog::EngineConfig {
        nway: NwayStrategy::FusedNestedLoop,
        ..gpulog_tests::config_from_env()
    };
    let fused = cspa::run(&d, &input, cfg).unwrap();
    assert_eq!(materialized.sizes, fused.sizes);
}

#[test]
fn out_of_memory_is_reported_as_an_error_for_gpulog_and_as_oom_for_baselines() {
    // A dense random graph whose closure is far larger than the tiny budget.
    let graph = random_graph(300, 8000, 2);
    let budget = 200 * 1024;
    let tiny = Device::with_workers(DeviceProfile::tiny_test_device(budget), 2);
    match reach::run(&tiny, &graph, gpulog_tests::config_from_env()) {
        Err(gpulog::EngineError::Device(DeviceError::OutOfMemory { .. })) => {}
        other => panic!("expected OOM, got {other:?}"),
    }
    assert!(gpujoin_like::reach(&graph, budget).out_of_memory);
    assert!(cudf_like::reach(&graph, budget).out_of_memory);
}

#[test]
fn run_statistics_are_consistent_with_results() {
    let graph = PaperDataset::FeBody.generate(0.2);
    let d = device();
    let result = reach::run(&d, &graph, gpulog_tests::config_from_env()).unwrap();
    let stats = &result.stats;
    assert_eq!(stats.iteration_records.len(), stats.iterations);
    assert_eq!(stats.relation_sizes["Reach"], result.reach_size);
    assert_eq!(stats.relation_sizes["Edge"], graph.len());
    assert!(stats.wall_seconds > 0.0);
    assert!(stats.modeled_seconds() > 0.0);
    assert!(stats.peak_device_bytes > 0);
    // The per-iteration deltas must sum to the final Reach size.
    let delta_sum: usize = stats.iteration_records.iter().map(|r| r.delta_tuples).sum();
    assert_eq!(delta_sum, result.reach_size);
    // Tail iterations are a subset of all iterations.
    assert!(stats.tail_iterations(result.reach_size, 0.01) <= stats.iterations);
}

#[test]
fn modeled_time_orders_paper_gpus_correctly() {
    // The same workload, replayed through each profile's cost model, must
    // reproduce the paper's hardware ordering (Table 5): H100 fastest, then
    // A100, then MI250, then MI50.
    let graph = PaperDataset::FeSphere.generate(0.2);
    let d = device();
    let before = d.metrics().snapshot();
    sg::run(&d, &graph, gpulog_tests::config_from_env()).unwrap();
    let work = d.metrics().snapshot().since(&before);
    let times: Vec<f64> = DeviceProfile::paper_gpus()
        .into_iter()
        .map(|p| gpulog_device::CostModel::new(p).estimate(&work).total_sec())
        .collect();
    assert!(times[0] < times[1], "H100 should beat A100");
    assert!(times[1] < times[2], "A100 should beat MI250");
    assert!(times[2] < times[3], "MI250 should beat MI50");
}

#[test]
fn scaled_paper_datasets_run_end_to_end_quickly() {
    let d = device();
    for dataset in PaperDataset::table2() {
        let graph = dataset.generate(0.08);
        let result = reach::run(&d, &graph, gpulog_tests::config_from_env()).unwrap();
        assert!(result.reach_size >= graph.len(), "{}", dataset.paper_name());
    }
}
