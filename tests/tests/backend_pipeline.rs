//! Property tests pinning the lowered `RaOp` pipeline (executed by the
//! one-shard `ShardedBackend`, the default engine's executor) against the
//! RA kernels composed by hand (`scan_select_batch` / `hash_join_batch` /
//! `project_batch` / `difference_batch`) on random inputs, plus
//! `TupleBatch` container round-trips. These are the refactoring guardrails: the operator IR must
//! derive byte-identical results to composing the free functions by hand —
//! and every executor configuration's fixpoints must be byte-identical to
//! the one-shard eager loop's on random programs and inputs.

use gpulog::backend::{EvalContext, ShardedBackend};
use gpulog::planner::{ColumnSource, EmitSource, JoinStep, ScanStep, VersionSel};
use gpulog::ra::{
    difference_batch, filter_batch, hash_join_batch, project_batch, scan_select_batch, RaOp,
    RaPipeline,
};
use gpulog::relation::RelationStorage;
use gpulog::DeviceTopology;
use gpulog::{EbmConfig, EngineConfig, GpulogEngine, NwayStrategy, RunStats, TupleBatch};
use gpulog_device::{profile::DeviceProfile, Device};
use gpulog_hisa::{Hisa, IndexSpec, DEFAULT_LOAD_FACTOR};
use proptest::prelude::*;

fn device() -> Device {
    Device::with_workers(DeviceProfile::nvidia_h100(), 4)
}

/// The default engine's executor: the op loop at one shard.
fn one_shard() -> ShardedBackend {
    ShardedBackend::new(1).unwrap()
}

fn pairs_strategy(max_value: u32, max_rows: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_value, 0..max_value), 0..max_rows)
}

fn flatten(pairs: &[(u32, u32)]) -> Vec<u32> {
    pairs.iter().flat_map(|&(a, b)| [a, b]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // `Scan → HashJoin → Project` through one shard must equal the
    // hand-composed `scan_select_batch` → `hash_join_batch` →
    // `project_batch` chain.
    #[test]
    fn pipeline_matches_legacy_scan_join_project(
        outer in pairs_strategy(13, 120),
        inner in pairs_strategy(13, 80),
        key_col in 0usize..2,
    ) {
        let d = device();
        let outer_flat = flatten(&outer);
        let inner_flat = flatten(&inner);

        let inner_hisa = Hisa::build(&d, IndexSpec::new(2, vec![key_col]), &inner_flat).unwrap();
        let emit = [
            EmitSource::Outer(0),
            EmitSource::Outer(1),
            EmitSource::Inner(1 - key_col),
        ];
        let head_proj = [
            ColumnSource::Col(2),
            ColumnSource::Col(0),
            ColumnSource::Const(7),
        ];

        // The same rule lowered to an operator pipeline.
        let mut relations = vec![
            RelationStorage::new(&d, "Outer", 2, DEFAULT_LOAD_FACTOR).unwrap(),
            RelationStorage::new(&d, "Inner", 2, DEFAULT_LOAD_FACTOR).unwrap(),
            RelationStorage::new(&d, "Head", 3, DEFAULT_LOAD_FACTOR).unwrap(),
        ];
        relations[0].load_full_batch(&TupleBatch::new(2, outer_flat)).unwrap();
        relations[1].load_full_batch(&TupleBatch::new(2, inner_flat)).unwrap();
        let pipeline = RaPipeline {
            head: 2,
            ops: vec![
                RaOp::Scan {
                    step: ScanStep {
                        relation: 0,
                        version: VersionSel::Full,
                        const_filters: vec![],
                        eq_filters: vec![],
                        keep_cols: vec![0, 1],
                    },
                    filters: vec![],
                },
                RaOp::HashJoin {
                    step: JoinStep {
                        relation: 1,
                        version: VersionSel::Full,
                        outer_key_cols: vec![1],
                        inner_key_cols: vec![key_col],
                        inner_const_filters: vec![],
                        inner_eq_filters: vec![],
                        emit: emit.to_vec(),
                    },
                    filters: vec![],
                    dedup_outer: false,
                },
                RaOp::Project {
                    columns: head_proj.to_vec(),
                },
            ],
            text: "property pipeline".into(),
        };
        let mut stats = RunStats::default();
        let mut ctx = EvalContext {
            device: &d,
            relations: &mut relations,
            stats: &mut stats,
            ebm: EbmConfig::default(),
        };
        let outcome = one_shard().execute(&mut ctx, &pipeline).unwrap();
        let got = relations[2].take_new(&EbmConfig::default());

        // The storage path deduplicates the outer relation (HISA set
        // semantics), so compare against the hand composition re-run over
        // the storage's canonical outer tuples: byte-identical output.
        let canon_outer = TupleBatch::new(2, relations[0].full().tuples_flat().to_vec());
        let canon_scanned = scan_select_batch(&d, &canon_outer, &[], &[], &[0, 1]);
        let canon_joined =
            hash_join_batch(&d, &canon_scanned, &[1], &inner_hisa, &[], &[], &emit);
        let canon_expected = if canon_joined.is_empty() {
            Vec::new()
        } else {
            project_batch(&d, &canon_joined, &head_proj).into_flat()
        };
        prop_assert_eq!(outcome.derived_rows, canon_expected.len() / 3);
        prop_assert_eq!(got, canon_expected);
    }

    // A `Scan` op with constant/equality/comparison filters must equal
    // `scan_select_batch` + `filter_batch`.
    #[test]
    fn scan_op_matches_legacy_scan_select(
        rows in pairs_strategy(6, 150),
        const_val in 0u32..6,
    ) {
        use gpulog::planner::FilterStep;
        use gpulog::CmpOp;

        let d = device();
        let flat = flatten(&rows);
        let filters = vec![FilterStep {
            left: ColumnSource::Col(0),
            op: CmpOp::Ne,
            right: ColumnSource::Col(1),
        }];

        let mut relations = [
            RelationStorage::new(&d, "Src", 2, DEFAULT_LOAD_FACTOR).unwrap(),
            RelationStorage::new(&d, "Head", 1, DEFAULT_LOAD_FACTOR).unwrap(),
        ];
        relations[0].load_full_batch(&TupleBatch::new(2, flat.to_vec())).unwrap();
        let canon = TupleBatch::new(2, relations[0].full().tuples_flat().to_vec());

        let scanned = scan_select_batch(&d, &canon, &[(1, const_val)], &[], &[0]);
        let expected = filter_batch(&d, &scanned, &[]).into_flat();
        // keep_cols = [0] drops column 1, so the Ne filter on (0, 1) cannot
        // be applied post-scan; use a 2-column scan for the filter case.
        let scanned2 = scan_select_batch(&d, &canon, &[], &[], &[0, 1]);
        let expected2 = filter_batch(&d, &scanned2, &filters).into_flat();

        let run_pipeline = |ops: Vec<RaOp>, head: usize, arity: usize| {
            let mut rels = vec![
                RelationStorage::new(&d, "Src", 2, DEFAULT_LOAD_FACTOR).unwrap(),
                RelationStorage::new(&d, "Head", arity, DEFAULT_LOAD_FACTOR).unwrap(),
            ];
            rels[0].load_full_batch(&TupleBatch::new(2, flat.to_vec())).unwrap();
            let mut stats = RunStats::default();
            let mut ctx = EvalContext {
                device: &d,
                relations: &mut rels,
                stats: &mut stats,
                ebm: EbmConfig::default(),
            };
            one_shard()
                .execute(
                    &mut ctx,
                    &RaPipeline {
                        head,
                        ops,
                        text: "scan property".into(),
                    },
                )
                .unwrap();
            rels[head].take_new(&EbmConfig::default())
        };

        let got = run_pipeline(
            vec![
                RaOp::Scan {
                    step: ScanStep {
                        relation: 0,
                        version: VersionSel::Full,
                        const_filters: vec![(1, const_val)],
                        eq_filters: vec![],
                        keep_cols: vec![0],
                    },
                    filters: vec![],
                },
                RaOp::Project {
                    columns: vec![ColumnSource::Col(0)],
                },
            ],
            1,
            1,
        );
        prop_assert_eq!(got, expected);

        let got2 = run_pipeline(
            vec![
                RaOp::Scan {
                    step: ScanStep {
                        relation: 0,
                        version: VersionSel::Full,
                        const_filters: vec![],
                        eq_filters: vec![],
                        keep_cols: vec![0, 1],
                    },
                    filters,
                },
                RaOp::Project {
                    columns: vec![ColumnSource::Col(0), ColumnSource::Col(1)],
                },
            ],
            1,
            2,
        );
        prop_assert_eq!(got2, expected2);
    }

    // Delta population must install exactly `difference_batch(new, full)`
    // as the delta and merge it into full.
    #[test]
    fn diff_op_matches_legacy_difference(
        base in pairs_strategy(15, 120),
        derived in pairs_strategy(15, 120),
    ) {
        let d = device();
        let base_flat = flatten(&base);
        let derived_flat = flatten(&derived);

        let mut relations =
            vec![RelationStorage::new(&d, "R", 2, DEFAULT_LOAD_FACTOR).unwrap()];
        relations[0].load_full_batch(&TupleBatch::new(2, base_flat.clone())).unwrap();
        let derived_batch = TupleBatch::new(2, derived_flat.clone());
        let expected_delta =
            difference_batch(&d, &derived_batch, relations[0].full().canonical()).into_flat();

        relations[0].push_new(&derived_flat);
        let mut stats = RunStats::default();
        let mut ctx = EvalContext {
            device: &d,
            relations: &mut relations,
            stats: &mut stats,
            ebm: EbmConfig::default(),
        };
        let outcome = one_shard().populate(&mut ctx, 0).unwrap();

        prop_assert_eq!(outcome.new_rows, derived.len());
        prop_assert_eq!(outcome.delta_rows, expected_delta.len() / 2);
        prop_assert_eq!(relations[0].delta.tuples_flat(), expected_delta.as_slice());
        // Full must now be the union.
        let mut union: std::collections::BTreeSet<(u32, u32)> = base.iter().copied().collect();
        union.extend(derived.iter().copied());
        prop_assert_eq!(relations[0].len(), union.len());
    }

    // Any shard count must reach a fixpoint byte-identical to the one-shard
    // executor's, on random programs (REACH / SG), random inputs, and both
    // n-way strategies (covering `HashJoin` and `FusedJoin` sharding).
    #[test]
    fn sharded_fixpoints_match_serial_on_random_programs(
        edges in pairs_strategy(18, 80),
        program_idx in 0usize..2,
        strategy_idx in 0usize..2,
    ) {
        const REACH_SRC: &str = r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Reach(x: number, y: number)
            .output Reach
            Reach(x, y) :- Edge(x, y).
            Reach(x, y) :- Edge(x, z), Reach(z, y).
        ";
        const SG_SRC: &str = r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl SG(x: number, y: number)
            .output SG
            SG(x, y) :- Edge(p, x), Edge(p, y), x != y.
            SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y.
        ";
        let (src, output) = [(REACH_SRC, "Reach"), (SG_SRC, "SG")][program_idx];
        let nway = [
            NwayStrategy::TemporarilyMaterialized,
            NwayStrategy::FusedNestedLoop,
        ][strategy_idx];
        let edges: Vec<[u32; 2]> = edges.iter().map(|&(a, b)| [a, b]).collect();

        let run = |shards: usize| {
            let d = device();
            let cfg = EngineConfig {
                nway,
                shard_count: shards,
                ..EngineConfig::default()
            };
            let mut engine = GpulogEngine::builder(&d).program(src).config(cfg).build().unwrap();
            engine.add_facts("Edge", &edges).unwrap();
            let stats = engine.run().unwrap();
            (engine.relation_batch(output).unwrap(), stats.iterations)
        };
        let (serial_batch, serial_iterations) = run(1);
        for shards in [2usize, 7] {
            let (sharded_batch, iterations) = run(shards);
            prop_assert_eq!(
                sharded_batch.as_flat(),
                serial_batch.as_flat(),
                "{} with {} shards must be byte-identical to serial",
                output,
                shards
            );
            prop_assert_eq!(iterations, serial_iterations);
        }
    }

    // Deferring and batching full-merges must never change results:
    // fixpoints under deferred merging are byte-identical to the one-shard
    // eager executor's for S ∈ {1, 2, 7} shards, on random programs (REACH / SG),
    // random inputs, and both n-way strategies. This is the property that
    // licenses breaking the per-iteration barrier at all.
    #[test]
    fn pipelined_fixpoints_match_serial_on_random_programs(
        edges in pairs_strategy(18, 80),
        program_idx in 0usize..2,
        strategy_idx in 0usize..2,
    ) {
        const REACH_SRC: &str = r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Reach(x: number, y: number)
            .output Reach
            Reach(x, y) :- Edge(x, y).
            Reach(x, y) :- Edge(x, z), Reach(z, y).
        ";
        const SG_SRC: &str = r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl SG(x: number, y: number)
            .output SG
            SG(x, y) :- Edge(p, x), Edge(p, y), x != y.
            SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y.
        ";
        let (src, output) = [(REACH_SRC, "Reach"), (SG_SRC, "SG")][program_idx];
        let nway = [
            NwayStrategy::TemporarilyMaterialized,
            NwayStrategy::FusedNestedLoop,
        ][strategy_idx];
        let edges: Vec<[u32; 2]> = edges.iter().map(|&(a, b)| [a, b]).collect();

        let run = |pipelined: usize| {
            let d = device();
            let cfg = EngineConfig {
                nway,
                pipelined,
                ..EngineConfig::default()
            };
            let mut engine = GpulogEngine::builder(&d).program(src).config(cfg).build().unwrap();
            engine.add_facts("Edge", &edges).unwrap();
            let stats = engine.run().unwrap();
            (engine.relation_batch(output).unwrap(), stats)
        };
        let (serial_batch, serial_stats) = run(0);
        prop_assert_eq!(serial_stats.pipeline_stall_nanos, 0);
        for shards in [1usize, 2, 7] {
            let (pipelined_batch, stats) = run(shards);
            prop_assert_eq!(
                pipelined_batch.as_flat(),
                serial_batch.as_flat(),
                "{} pipelined over {} shards must be byte-identical to serial",
                output,
                shards
            );
            prop_assert_eq!(stats.iterations, serial_stats.iterations);
        }
    }

    // The delta exchange is lossless and order-stable at the data layer:
    // partitioning a sorted-unique delta by destination shard (the
    // exchange) and k-way-merging the per-destination pieces back (the
    // reassembly) must reproduce the unsharded delta byte-for-byte, for
    // topologies of 1, 2, and 7 devices.
    #[test]
    fn delta_exchange_round_trips_byte_identically(
        pairs in pairs_strategy(50, 200),
        key_on_first_col in prop::bool::ANY,
    ) {
        use std::num::NonZeroUsize;
        // Build a sorted-unique "delta" the way delta population would.
        let mut rows: Vec<(u32, u32)> = pairs;
        rows.sort();
        rows.dedup();
        let flat: Vec<u32> = rows.iter().flat_map(|&(a, b)| [a, b]).collect();
        let delta = TupleBatch::from_sorted_unique_flat(2, flat);
        let key_cols: &[usize] = if key_on_first_col { &[0] } else { &[0, 1] };
        for devices in [1usize, 2, 7] {
            let devices = NonZeroUsize::new(devices).unwrap();
            let parts = delta.partition_by_key_hash(key_cols, devices);
            prop_assert_eq!(parts.len(), devices.get());
            prop_assert!(parts.iter().all(TupleBatch::is_sorted_unique));
            let reassembled = TupleBatch::merge_sorted_unique(2, parts);
            prop_assert_eq!(&reassembled, &delta, "devices = {}", devices);
        }
    }

    // The multi-GPU simulation must reach fixpoints byte-identical to the
    // one-shard executor on random programs and inputs — pinning shards to
    // modeled devices changes attribution and scheduling, never results.
    // Topologies of 1, 2, and 7 devices mirror the sharded S ∈ {1, 2, 7}
    // pinning.
    #[test]
    fn multigpu_fixpoints_match_serial_on_random_programs(
        edges in pairs_strategy(18, 80),
        program_idx in 0usize..2,
        strategy_idx in 0usize..2,
    ) {
        use std::num::NonZeroUsize;
        const REACH_SRC: &str = r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl Reach(x: number, y: number)
            .output Reach
            Reach(x, y) :- Edge(x, y).
            Reach(x, y) :- Edge(x, z), Reach(z, y).
        ";
        const SG_SRC: &str = r"
            .decl Edge(x: number, y: number)
            .input Edge
            .decl SG(x: number, y: number)
            .output SG
            SG(x, y) :- Edge(p, x), Edge(p, y), x != y.
            SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y.
        ";
        let (src, output) = [(REACH_SRC, "Reach"), (SG_SRC, "SG")][program_idx];
        let nway = [
            NwayStrategy::TemporarilyMaterialized,
            NwayStrategy::FusedNestedLoop,
        ][strategy_idx];
        let edges: Vec<[u32; 2]> = edges.iter().map(|&(a, b)| [a, b]).collect();

        let run = |topology: Option<usize>| {
            let d = device();
            let cfg = EngineConfig {
                nway,
                device_topology: topology.map(|devices| {
                    DeviceTopology::nvlink_like(NonZeroUsize::new(devices).unwrap())
                }),
                ..EngineConfig::default()
            };
            let mut engine = GpulogEngine::builder(&d).program(src).config(cfg).build().unwrap();
            engine.add_facts("Edge", &edges).unwrap();
            let stats = engine.run().unwrap();
            (engine.relation_batch(output).unwrap(), stats)
        };
        let (serial_batch, serial_stats) = run(None);
        prop_assert!(serial_stats.topology.is_none());
        for devices in [1usize, 2, 7] {
            let (multi_batch, stats) = run(Some(devices));
            prop_assert_eq!(
                multi_batch.as_flat(),
                serial_batch.as_flat(),
                "{} on {} devices must be byte-identical to serial",
                output,
                devices
            );
            prop_assert_eq!(stats.iterations, serial_stats.iterations);
            let report = stats.topology.expect("multigpu reports topology stats");
            prop_assert_eq!(report.devices.len(), devices);
            if devices == 1 {
                prop_assert_eq!(report.total_exchange_bytes, 0);
            }
        }
    }

    // `TupleBatch::from_rows` and `as_flat`/`to_rows` are inverses.
    #[test]
    fn tuple_batch_round_trips(
        rows in prop::collection::vec(prop::collection::vec(0u32..1000, 3..4), 0..80),
    ) {
        let batch = TupleBatch::from_rows(3, &rows);
        prop_assert_eq!(batch.len(), rows.len());
        prop_assert_eq!(batch.arity(), 3);
        let flat: Vec<u32> = rows.iter().flatten().copied().collect();
        prop_assert_eq!(batch.as_flat(), flat.as_slice());
        prop_assert_eq!(batch.to_rows(), rows.clone());
        let rebuilt = TupleBatch::new(3, batch.clone().into_flat());
        prop_assert_eq!(rebuilt.to_rows(), rows);
    }
}

/// A sharded op must cost one worker-pool epoch, not one per shard: the
/// shard-map build is one `run_tasks` hand-off, the per-shard joins are
/// one, and the per-shard differences are one, with every kernel inside a
/// shard task running inline on its worker. Executing the identical
/// pipeline with 2 and with 7 shards must therefore move
/// `Metrics::pool_dispatches` by exactly the same amount.
#[test]
fn sharded_ops_dispatch_one_epoch_per_op_not_one_per_shard() {
    let join_pipeline = RaPipeline {
        head: 2,
        ops: vec![
            RaOp::Scan {
                step: ScanStep {
                    relation: 0,
                    version: VersionSel::Full,
                    const_filters: vec![],
                    eq_filters: vec![],
                    keep_cols: vec![0, 1],
                },
                filters: vec![],
            },
            RaOp::HashJoin {
                step: JoinStep {
                    relation: 1,
                    version: VersionSel::Full,
                    outer_key_cols: vec![1],
                    inner_key_cols: vec![0],
                    inner_const_filters: vec![],
                    inner_eq_filters: vec![],
                    emit: vec![
                        EmitSource::Outer(0),
                        EmitSource::Outer(1),
                        EmitSource::Inner(1),
                    ],
                },
                filters: vec![],
                dedup_outer: false,
            },
            RaOp::Project {
                columns: vec![ColumnSource::Col(0), ColumnSource::Col(2)],
            },
        ],
        text: "H(x, z) :- A(x, y), B(y, z).".into(),
    };

    // 53 distinct key values: every shard of a 2- or 7-way partition is
    // non-empty, so each epoch really fans out.
    let dispatches_with = |shards: usize| {
        let d = device();
        let backend = ShardedBackend::new(shards).unwrap();
        let mut relations = vec![
            RelationStorage::new(&d, "A", 2, DEFAULT_LOAD_FACTOR).unwrap(),
            RelationStorage::new(&d, "B", 2, DEFAULT_LOAD_FACTOR).unwrap(),
            RelationStorage::new(&d, "H", 2, DEFAULT_LOAD_FACTOR).unwrap(),
        ];
        let a: Vec<u32> = (0..212u32).flat_map(|i| [i, i % 53]).collect();
        let b: Vec<u32> = (0..159u32)
            .flat_map(|i| [i % 53, i.wrapping_mul(7)])
            .collect();
        relations[0]
            .load_full_batch(&TupleBatch::new(2, a.to_vec()))
            .unwrap();
        relations[1]
            .load_full_batch(&TupleBatch::new(2, b.to_vec()))
            .unwrap();
        let mut stats = RunStats::default();
        let mut ctx = EvalContext {
            device: &d,
            relations: &mut relations,
            stats: &mut stats,
            ebm: EbmConfig::default(),
        };
        let before = d.metrics().snapshot();
        let outcome = backend.execute(&mut ctx, &join_pipeline).unwrap();
        assert!(outcome.derived_rows > 0, "the join must derive rows");
        let populated = backend.populate(&mut ctx, 2).unwrap();
        assert!(populated.delta_rows > 0, "population must install a delta");
        d.metrics().snapshot().since(&before).pool_dispatches
    };

    let with_2 = dispatches_with(2);
    let with_7 = dispatches_with(7);
    assert!(with_2 > 0, "sharded execution must dispatch to the pool");
    assert_eq!(
        with_2, with_7,
        "pool epochs must not scale with the shard count"
    );
}

const GOLDEN_REACH_SRC: &str = r"
    .decl Edge(x: number, y: number)
    .input Edge
    .decl Reach(x: number, y: number)
    .output Reach
    Reach(x, y) :- Edge(x, y).
    Reach(x, y) :- Edge(x, z), Reach(z, y).
";
const GOLDEN_SG_SRC: &str = r"
    .decl Edge(x: number, y: number)
    .input Edge
    .decl SG(x: number, y: number)
    .output SG
    SG(x, y) :- Edge(p, x), Edge(p, y), x != y.
    SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y.
";
const GOLDEN_NEG_MIN_SRC: &str = r"
    .decl Edge(x: number, y: number)
    .input Edge
    .decl Blocked(x: number)
    .input Blocked
    .decl Succ(d: number, d1: number)
    .input Succ
    .decl PathLen(x: number, y: number, d: number)
    .decl SP(x: number, y: number, d: number)
    .output SP
    PathLen(x, y, 1) :- Edge(x, y), !Blocked(y).
    PathLen(x, z, d1) :- PathLen(x, y, d), Edge(y, z), Succ(d, d1), !Blocked(z).
    SP(x, y, min(d)) :- PathLen(x, y, d).
";

/// The fixed cases every golden test runs: REACH on a 40-node ring with
/// chords (cycles, fan-in), SG on a 31-node binary tree with two cross
/// edges (deep generations) under both n-way strategies (covering
/// `HashJoin` and `FusedJoin`), and negation + `min` on the ring.
fn golden_cases() -> Vec<(&'static str, NwayStrategy, &'static str, Vec<[u32; 2]>)> {
    let ring: Vec<[u32; 2]> = (0..40u32)
        .flat_map(|i| [[i, (i + 1) % 40], [i, (i * 7 + 3) % 40]])
        .collect();
    let tree: Vec<[u32; 2]> = (1..31u32)
        .map(|i| [(i - 1) / 2, i])
        .chain([[3, 12], [5, 20]])
        .collect();
    vec![
        (
            "reach",
            NwayStrategy::TemporarilyMaterialized,
            GOLDEN_REACH_SRC,
            ring.clone(),
        ),
        (
            "sg",
            NwayStrategy::TemporarilyMaterialized,
            GOLDEN_SG_SRC,
            tree.clone(),
        ),
        ("sg", NwayStrategy::FusedNestedLoop, GOLDEN_SG_SRC, tree),
        (
            "neg-min",
            NwayStrategy::TemporarilyMaterialized,
            GOLDEN_NEG_MIN_SRC,
            ring,
        ),
    ]
}

/// Runs one golden case to its fixpoint on a fresh device.
fn run_golden_case(
    d: &Device,
    program: &str,
    src: &str,
    edges: &[[u32; 2]],
    cfg: EngineConfig,
) -> RunStats {
    let mut engine = GpulogEngine::builder(d)
        .program(src)
        .config(cfg)
        .build()
        .unwrap();
    engine.add_facts("Edge", edges).unwrap();
    if program == "neg-min" {
        engine.add_facts("Blocked", [[7u32], [22]]).unwrap();
        engine
            .add_facts("Succ", (1..40u32).map(|i| [i, i + 1]))
            .unwrap();
    }
    engine.run().unwrap()
}

/// One pinned [`gpulog::TopologyReport`]: totals, then per device
/// `(modeled_compute_sec bits, in bytes, out bytes, in messages)`.
type GoldenReport = (u64, u64, u64, u64, &'static [(u64, u64, u64, u64)]);

/// `(program, n-way strategy, devices, report)`. An executor refactor must
/// leave every charge unchanged to the bit. A plan-shape change moves them:
/// these rows were last re-recorded when intermediates were narrowed to
/// their live columns (launches, bytes and exchange traffic only went
/// down; message counts stayed).
#[rustfmt::skip]
const GOLDEN_TOPOLOGY_REPORTS: &[(&str, &str, usize, GoldenReport)] = &[
    ("reach", "TemporarilyMaterialized", 1, (0, 0, 0x3f1b4a6006f90ded, 0x3f1b498c46fc2cb7, &[(0x3f1b4a6006f90deb, 0, 0, 0)])),
    ("reach", "TemporarilyMaterialized", 2, (18880, 15, 0x3f1e701c10aa591f, 0x3f1e6f4850ad77e9, &[(0x3f11d700325ee1c2, 9280, 9600, 7), (0x3f10ca6c2ae9c417, 9600, 9280, 8)])),
    ("reach", "TemporarilyMaterialized", 4, (28320, 85, 0x3f2303b1b0096536, 0x3f230379b4ccc7c0, &[(0x3f11d52d56c174c1, 7040, 7200, 20), (0x3f0f788f7ba26939, 7040, 7200, 24), (0x3f10c8ca7c535a8d, 7040, 7200, 18), (0x3f0f787a336f7ead, 7200, 6720, 23)])),
    ("sg", "TemporarilyMaterialized", 1, (0, 0, 0x3f11d4b09a409aba, 0x3f11d485755ff5ce, &[(0x3f11d4b09a409abb, 0, 0, 0)])),
    ("sg", "TemporarilyMaterialized", 2, (3536, 23, 0x3f168c5461b6cc36, 0x3f168c3cd3134e0a, &[(0x3f11d411b204b5e7, 1672, 1864, 11), (0x3f11d40602fd313a, 1864, 1672, 12)])),
    ("sg", "TemporarilyMaterialized", 4, (5280, 103, 0x3f1d9ff3b9395ef6, 0x3f1d9fe393dd72e9, &[(0x3f0f75bc282b11fb, 1296, 1408, 26), (0x3f11d3b1ae2fa221, 1368, 1160, 25), (0x3f11d3bbc499bb9d, 1280, 1360, 25), (0x3f0f75b8f6f03b99, 1336, 1352, 27)])),
    ("sg", "FusedNestedLoop", 1, (0, 0, 0x3f0d5dfae4267e9c, 0x3f0d5da49a6534c2, &[(0x3f0d5dfae4267e9d, 0, 0, 0)])),
    ("sg", "FusedNestedLoop", 2, (2768, 17, 0x3f1238c3ee70cc96, 0x3f1238ac5fcd4e68, &[(0x3f0d5d25a754239d, 1336, 1432, 8), (0x3f0d5d069610bab5, 1432, 1336, 9)])),
    ("sg", "FusedNestedLoop", 4, (4144, 79, 0x3f181e82b18aa8a6, 0x3f181e728c2ebc99, &[(0x3f092aedcd7f4b54, 1032, 1096, 20), (0x3f0d5c8ec3dc8962, 1016, 920, 19), (0x3f0d5cab4ae5bc9d, 1032, 1064, 19), (0x3f092aeb434515a8, 1064, 1064, 21)])),
    ("neg-min", "TemporarilyMaterialized", 1, (0, 0, 0x3f4b0ecdffae6e80, 0x3f4b0c1960bdc204, &[(0x3f4b0ecdffae6e75, 0, 0, 0)])),
    ("neg-min", "TemporarilyMaterialized", 2, (1152492, 103, 0x3f4c6e2a2c8b57f5, 0x3f4c6b758d9aab79, &[(0x3f3629a28e386460, 667860, 484632, 61), (0x3f45382a1acb1681, 484632, 667860, 42)])),
    ("neg-min", "TemporarilyMaterialized", 4, (1546968, 424, 0x3f51a519c419c726, 0x3f51a46c4601d091, &[(0x3f30dd2f26b17d77, 542040, 287580, 112), (0x3f428a266056e979, 405144, 492396, 102), (0x3f309221c7812284, 204168, 275400, 110), (0x3f42aba7bfa19372, 395616, 491592, 100)])),
];

/// The multi-GPU model is pinned to the digit, not just `> 0`: the golden
/// cases on 1-, 2- and 4-device NVLink-like topologies must report exactly
/// the recorded totals, per-device link traffic, and modeled seconds (as
/// `f64::to_bits`).
#[test]
fn topology_reports_match_the_recorded_model() {
    use std::num::NonZeroUsize;
    let mut got = Vec::new();
    for (program, nway, src, edges) in golden_cases() {
        for devices in [1usize, 2, 4] {
            let d = device();
            let topology = DeviceTopology::nvlink_like(NonZeroUsize::new(devices).unwrap());
            let cfg = EngineConfig {
                nway,
                device_topology: Some(topology),
                ..EngineConfig::default()
            };
            let report = run_golden_case(&d, program, src, &edges, cfg)
                .topology
                .expect("topology report");
            let lanes: Vec<(u64, u64, u64, u64)> = report
                .devices
                .iter()
                .map(|l| {
                    (
                        l.modeled_compute_sec.to_bits(),
                        l.exchange_in_bytes,
                        l.exchange_out_bytes,
                        l.exchange_in_messages,
                    )
                })
                .collect();
            got.push((
                program,
                format!("{nway:?}"),
                devices,
                (
                    report.total_exchange_bytes,
                    report.total_exchange_messages,
                    report.modeled_critical_path_sec.to_bits(),
                    report.modeled_pipelined_critical_path_sec.to_bits(),
                ),
                lanes,
            ));
        }
    }
    assert_eq!(got.len(), GOLDEN_TOPOLOGY_REPORTS.len());
    for ((program, nway, devices, totals, lanes), (gp, gn, gd, golden)) in
        got.iter().zip(GOLDEN_TOPOLOGY_REPORTS)
    {
        let case = format!("{program} / {nway} / {devices} devices");
        assert_eq!((*program, nway.as_str(), *devices), (*gp, *gn, *gd));
        assert_eq!(
            *totals,
            (golden.0, golden.1, golden.2, golden.3),
            "{case}: totals"
        );
        assert_eq!(lanes.as_slice(), golden.4, "{case}: per-device lanes");
    }
}

/// `(program, n-way strategy, [kernel_launches, sort_passes, allocations,
/// bytes_read, bytes_written, hash_inserts, hash_rebuilds,
/// peak_bytes_in_use])` of a default-config run. An executor refactor must
/// charge the device exactly the same. These rows were last re-recorded
/// when eager buffer management stopped reserving sorted-index slack and
/// its default `k` fell from 8 to 2, and width-1 index builds over
/// sorted-unique rows took the re-index path: launches, allocations, bytes
/// moved and peak bytes all downward, hash rebuilds up by one or two (a
/// smaller reservation outgrows its hash capacity sooner).
#[rustfmt::skip]
const GOLDEN_DEFAULT_COUNTERS: &[(&str, &str, [u64; 8])] = &[
    ("reach", "TemporarilyMaterialized", [169, 11, 97, 457976, 401640, 1600, 5, 121888]),
    ("sg", "TemporarilyMaterialized", [118, 5, 72, 72744, 80464, 326, 4, 30144]),
    ("sg", "FusedNestedLoop", [101, 5, 72, 59976, 71800, 326, 4, 30144]),
    ("neg-min", "TemporarilyMaterialized", [975, 1507, 381, 28089096, 14265756, 29432, 10, 1737848]),
];

/// The default engine's device counters are pinned to the digit on the
/// golden cases.
#[test]
fn default_engine_counters_match_the_recorded_run() {
    let mut got = Vec::new();
    for (program, nway, src, edges) in golden_cases() {
        let d = device();
        run_golden_case(
            &d,
            program,
            src,
            &edges,
            EngineConfig {
                nway,
                ..EngineConfig::default()
            },
        );
        let c = d.metrics().snapshot();
        got.push((
            program,
            format!("{nway:?}"),
            [
                c.kernel_launches,
                c.sort_passes,
                c.allocations,
                c.bytes_read,
                c.bytes_written,
                c.hash_inserts,
                c.hash_rebuilds,
                c.peak_bytes_in_use,
            ],
        ));
    }
    assert_eq!(got.len(), GOLDEN_DEFAULT_COUNTERS.len());
    for ((program, nway, counters), (gp, gn, golden)) in got.iter().zip(GOLDEN_DEFAULT_COUNTERS) {
        assert_eq!((*program, nway.as_str()), (*gp, *gn));
        assert_eq!(counters, golden, "{program} / {nway}: device counters");
    }
}

/// On a merge-heavy chain-REACH workload (one iteration per node, tiny
/// deltas) deferred merging must actually coalesce: drains are postponed
/// while the pending rows are small next to |full|, and at one shard —
/// where it differs from the default engine only in when deltas merge —
/// it streams fewer device bytes than one O(|full|) merge per delta. The
/// fixpoint stays exactly the serial one.
#[test]
fn pipelined_merges_coalesce_on_chain_reach() {
    use gpulog_datasets::generators::road_network;
    use gpulog_queries::reach;

    let chain = road_network(160, 0, 23);
    let run = |pipelined: usize| {
        let d = device();
        let config = EngineConfig {
            pipelined,
            ..EngineConfig::default()
        };
        let mut engine = reach::prepare(&d, &chain, config).unwrap();
        let stats = engine.run().unwrap();
        let reach = engine.relation_batch("Reach").unwrap().into_flat();
        (reach, stats, d.metrics().snapshot().bytes_moved())
    };
    let (serial, serial_stats, serial_bytes) = run(0);
    assert_eq!(serial_stats.pipeline_stall_nanos, 0);
    assert_eq!(serial_stats.adaptive_merge_batches, 0);
    for shards in [1, 4] {
        let (pipelined, stats, bytes) = run(shards);
        assert_eq!(pipelined, serial, "pipelined:{shards} fixpoint");
        assert_eq!(stats.iterations, serial_stats.iterations);
        assert!(stats.adaptive_merge_batches > 0, "pipelined:{shards}");
        assert!(stats.pipeline_stall_nanos > 0, "pipelined:{shards}");
        if shards == 1 {
            assert!(bytes < serial_bytes, "{bytes} >= {serial_bytes} bytes");
        }
    }
}
