//! CI bench smoke: runs the Table 2 REACH workload (Gnutella31), the
//! Table 3 SG workload (ego-Facebook), a merge-heavy long-chain REACH
//! (one iteration per node, tiny deltas — the incremental index-maintenance
//! hot path), and the two stratified workloads on hub graphs — a
//! CSPA-style negated-filter REACH (`!Blocked` anti-joins) and
//! shortest-path-via-`min` (grouped aggregate reduce) — in every backend — serial, sharded, pipelined (deferred,
//! coalesced merges), and the simulated multi-GPU topologies (1 / 2 / 4 NVLink-like
//! devices) — checks that all backends agree on tuple counts, and writes
//! per-backend medians **plus index-maintenance counters, the device phase
//! breakdown, the pipelined drain time, and the multi-GPU modeling
//! columns** (per-device modeled time, cross-device exchange bytes, modeled
//! BSP and pipelined critical paths, and speedup) to a JSON artifact so
//! every PR records its perf trajectory. The merge-heavy chain leg doubles
//! as a gate: the pipelined median modeled time must beat the sharded
//! median at the same shard count. A goal-directed pair on one hub graph —
//! `reach-goal-full` (the whole closure) vs `reach-goal` (one source's
//! point query through the magic-sets rewrite) — gates the demand-driven
//! path: magic must materialize strictly fewer tuples *and* post a lower
//! median wall than the full closure on every backend.
//!
//! ```text
//! cargo run --release -p gpulog-bench --bin bench_smoke -- \
//!     [--out bench_smoke.json] [--trials 5] [--shards 4] [--workload reach-goal]
//! cargo run --release -p gpulog-bench --bin bench_smoke -- --check bench_smoke.json
//! ```
//!
//! `--workload <name>` runs a single workload locally without the full
//! sweep (naming either half of the goal pair runs both so its gate still
//! holds); cross-workload gates whose rows were filtered out are skipped
//! with a notice, and the artifact's schema self-check then only requires
//! the rows that actually ran. `--check` re-validates an existing artifact
//! against the full schema (used by CI so new fields cannot silently
//! regress).

use gpulog::{EngineConfig, GpulogEngine, TopologyReport};
use gpulog_bench::{banner, gpulog_device, scale_from_env, speedup, BackendSpec, TextTable};
use gpulog_datasets::generators::{hub_graph, road_network};
use gpulog_datasets::{EdgeList, PaperDataset};
use gpulog_queries::{goal, reach, sg, stratified};

struct SmokeRow {
    query: &'static str,
    dataset: String,
    backend: String,
    shards: usize,
    tuples: usize,
    iterations: usize,
    median_wall_s: f64,
    median_modeled_s: f64,
    hash_inserts: u64,
    hash_rebuilds: u64,
    sort_passes: u64,
    sort_ns: u64,
    merge_ns: u64,
    index_ns: u64,
    /// Time spent draining deferred merges (pipelined legs only).
    stall_ns: u64,
    /// Multi-GPU modeling report (topology legs only).
    topology: Option<TopologyReport>,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Reads an integer flag, failing loudly on a malformed value — the
/// artifact must never silently record a configuration other than the one
/// the command line asked for.
fn usize_flag(args: &[String], flag: &str, default: usize) -> usize {
    match args.iter().position(|a| a == flag) {
        None => default,
        Some(i) => match args.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(n) if n >= 1 => n,
            _ => {
                eprintln!("{flag} needs a positive integer, got {:?}", args.get(i + 1));
                std::process::exit(2);
            }
        },
    }
}

fn string_flag(args: &[String], flag: &str, default: &str) -> String {
    match args.iter().position(|a| a == flag) {
        None => default.to_string(),
        Some(i) => match args.get(i + 1) {
            Some(value) => value.clone(),
            None => {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            }
        },
    }
}

/// The per-result keys every artifact row must carry, and the additional
/// keys every `multigpu:*` row must carry. CI's schema-assert step (and
/// the self-check after writing) fails if any row drops one, so new
/// topology fields cannot silently regress.
const ROW_KEYS: [&str; 13] = [
    "\"query\"",
    "\"dataset\"",
    "\"backend\"",
    "\"shards\"",
    "\"tuples\"",
    "\"iterations\"",
    "\"median_wall_s\"",
    "\"median_modeled_s\"",
    "\"hash_inserts\"",
    "\"hash_rebuilds\"",
    "\"sort_passes\"",
    "\"phase_nanos\"",
    "\"pipeline_stall_nanos\"",
];
const TOPOLOGY_KEYS: [&str; 7] = [
    "\"link\"",
    "\"devices\"",
    "\"modeled_compute_s\"",
    "\"total_exchange_bytes\"",
    "\"modeled_critical_path_s\"",
    "\"modeled_pipelined_critical_path_s\"",
    "\"modeled_speedup\"",
];

/// The workloads a full-sweep artifact must carry a row for. The
/// stratified legs (`reach-neg`, `sp-min`) and the goal-directed pair
/// (`reach-goal-full`, `reach-goal`) are listed so an artifact produced
/// without them fails the schema gate rather than silently shrinking
/// coverage. Filtered runs (`--workload`) validate against the workloads
/// that actually ran instead.
const REQUIRED_QUERIES: [&str; 7] = [
    "reach",
    "sg",
    "reach-chain",
    "reach-neg",
    "sp-min",
    "reach-goal-full",
    "reach-goal",
];

/// Validates the artifact's schema: the top-level fields, a row for every
/// workload in `required`, every row carrying every required key, and
/// every topology row carrying the multi-GPU modeling fields. The writer
/// emits one result object per line, which is what keeps this check
/// dependency-free.
fn validate_schema(json: &str, required: &[&str]) -> Result<(), String> {
    for key in [
        "\"scale\"",
        "\"trials\"",
        "\"host_workers\"",
        "\"dead_rule_elim\"",
        "\"results\"",
    ] {
        if !json.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"query\"")).collect();
    if rows.is_empty() {
        return Err("no result rows".to_string());
    }
    for query in required {
        let key = format!("\"query\": \"{query}\"");
        if !rows.iter().any(|row| row.contains(&key)) {
            return Err(format!("no result row for workload {query}"));
        }
    }
    for row in rows {
        for key in ROW_KEYS {
            if !row.contains(key) {
                return Err(format!("result row missing {key}: {row}"));
            }
        }
        if row.contains("\"backend\": \"multigpu:") {
            for key in TOPOLOGY_KEYS {
                if !row.contains(key) {
                    return Err(format!("multigpu row missing {key}: {row}"));
                }
            }
        }
    }
    Ok(())
}

fn topology_json(topology: &Option<TopologyReport>) -> String {
    match topology {
        None => "null".to_string(),
        Some(report) => {
            let devices: Vec<String> = report
                .devices
                .iter()
                .map(|lane| {
                    format!(
                        "{{\"device\": \"{}\", \"modeled_compute_s\": {:.9}, \
                         \"exchange_in_bytes\": {}, \"exchange_out_bytes\": {}, \
                         \"exchange_in_messages\": {}}}",
                        lane.device,
                        lane.modeled_compute_sec,
                        lane.exchange_in_bytes,
                        lane.exchange_out_bytes,
                        lane.exchange_in_messages,
                    )
                })
                .collect();
            format!(
                "{{\"link\": \"{}\", \"devices\": [{}], \"total_exchange_bytes\": {}, \
                 \"total_exchange_messages\": {}, \"modeled_critical_path_s\": {:.9}, \
                 \"modeled_pipelined_critical_path_s\": {:.9}, \
                 \"modeled_speedup\": {:.4}}}",
                report.link,
                devices.join(", "),
                report.total_exchange_bytes,
                report.total_exchange_messages,
                report.modeled_critical_path_sec,
                report.modeled_pipelined_critical_path_sec,
                report.modeled_speedup(),
            )
        }
    }
}

/// The crafted dead-rule workload: a REACH closure plus a `Scratch`
/// relation derived *from* the closure that no output, goal, or other rule
/// ever reads. The optimizer's dead-rule elimination must prune the
/// `Scratch` rule, so the optimized run materializes strictly fewer tuples
/// than the unoptimized run while deriving the identical `Reach` closure.
const DEAD_RULE_PROGRAM: &str = r"
.decl Edge(x: number, y: number)
.input Edge
.decl Reach(x: number, y: number)
.output Reach
.decl Scratch(x: number, y: number)
Reach(x, y) :- Edge(x, y).
Reach(x, y) :- Edge(x, z), Reach(z, y).
Scratch(y, x) :- Reach(x, y), Edge(y, x).
";

/// Tuples materialized and closure size of one `DEAD_RULE_PROGRAM` run
/// with optimization on or off: the sum of every non-input relation's
/// fixpoint size (dead `Scratch` tuples included when they exist).
fn dead_rule_run(graph: &EdgeList, scale: f64, optimize: bool) -> (usize, usize) {
    let device = gpulog_device(scale);
    let mut engine = GpulogEngine::builder(&device)
        .program(DEAD_RULE_PROGRAM)
        .optimize(optimize)
        .build()
        .expect("dead-rule workload must build");
    engine
        .add_facts_flat("Edge", &graph.to_flat())
        .expect("dead-rule workload facts must load");
    let stats = engine.run().expect("dead-rule workload must run");
    let materialized: usize = stats
        .relation_sizes
        .iter()
        .filter(|(name, _)| name.as_str() != "Edge")
        .map(|(_, &size)| size)
        .sum();
    (materialized, engine.relation_size("Reach").unwrap_or(0))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--check") {
        let path = args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--check needs a path to an artifact");
            std::process::exit(2);
        });
        let json = std::fs::read_to_string(&path).unwrap_or_else(|err| {
            eprintln!("cannot read {path}: {err}");
            std::process::exit(1);
        });
        match validate_schema(&json, &REQUIRED_QUERIES) {
            Ok(()) => {
                println!("{path}: schema ok");
                return;
            }
            Err(err) => {
                eprintln!("{path}: schema violation: {err}");
                std::process::exit(1);
            }
        }
    }
    let trials = usize_flag(&args, "--trials", 5);
    let shards = usize_flag(&args, "--shards", 4);
    let out_path = string_flag(&args, "--out", "bench_smoke.json");
    let workload_filter: Option<String> = args.iter().position(|a| a == "--workload").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--workload needs a workload name");
            std::process::exit(2);
        })
    });
    let scale = scale_from_env();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);

    banner("bench smoke — serial / sharded / multi-GPU medians", scale);
    println!("(trials {trials}, sharded leg {shards} shards, host workers {workers})");

    let backends = [
        BackendSpec::Serial,
        BackendSpec::Sharded(shards),
        BackendSpec::Pipelined(shards),
        BackendSpec::MultiGpu(1),
        BackendSpec::MultiGpu(2),
        BackendSpec::MultiGpu(4),
    ];
    // The chain length scales like the node counts of the named datasets,
    // so the merge-heavy leg keeps "many iterations, small deltas" at any
    // scale. The multiplier is sized so that at the default scale the
    // O(|full|) streaming merges dominate the leg's modeled time: this leg
    // gates the pipelined-vs-sharded comparison below.
    let chain_nodes = ((1000.0 * scale).round() as u32).max(64);
    // The stratified legs run on hub graphs: a handful of high-degree hubs
    // concentrate the closure, so blocking them (`!Blocked`) genuinely
    // reshapes the fixpoint, and the many hub-mediated alternate routes
    // give the `min` aggregate competing path lengths to reduce over.
    let neg_nodes = ((600.0 * scale).round() as u32).max(48);
    let sp_nodes = ((200.0 * scale).round() as u32).max(24);
    // The goal pair shares one hub graph: everything is mutually reachable
    // there, so the full closure is ~n² pairs while a single source's
    // point query holds ~n answers — the widest possible gap for the
    // magic-vs-full gates. The source is an arbitrary spoke.
    let goal_nodes = ((300.0 * scale).round() as u32).max(32);
    let goal_graph = hub_graph(goal_nodes, 4, 41);
    let goal_source = goal_nodes / 2;
    let mut workloads: Vec<(&'static str, EdgeList)> = vec![
        ("reach", PaperDataset::Gnutella31.generate(scale)),
        ("sg", PaperDataset::EgoFacebook.generate(scale)),
        // Merge-heavy: a pure bidirectional chain runs REACH for one
        // iteration per node with steadily shrinking deltas, which is the
        // workload the incremental hash maintenance (zero rebuilds with
        // EBM headroom) exists for.
        ("reach-chain", road_network(chain_nodes, 0, 23)),
        // Stratified: CSPA-style negated-filter closure (anti-join against
        // a completed stratum) and shortest-path-via-`min` (grouped reduce
        // over the finished PathLen relation).
        ("reach-neg", hub_graph(neg_nodes, 4, 17)),
        ("sp-min", hub_graph(sp_nodes, 3, 29)),
        // Goal-directed pair: the full closure baseline and the
        // magic-rewritten point query `?- Reach(goal_source, y).` on the
        // same graph.
        ("reach-goal-full", goal_graph.clone()),
        ("reach-goal", goal_graph),
    ];
    if let Some(name) = &workload_filter {
        if !workloads.iter().any(|(q, _)| q == name) {
            let known: Vec<&str> = workloads.iter().map(|(q, _)| *q).collect();
            eprintln!(
                "--workload {name}: unknown workload (known: {})",
                known.join(", ")
            );
            std::process::exit(2);
        }
        // Either half of the goal pair pulls in both: its gates compare
        // the two rows on the same graph.
        let keep: Vec<&str> = if name == "reach-goal" || name == "reach-goal-full" {
            vec!["reach-goal-full", "reach-goal"]
        } else {
            vec![name.as_str()]
        };
        workloads.retain(|(q, _)| keep.contains(q));
        println!("workload filter: running only {}", keep.join(", "));
    }

    let mut rows: Vec<SmokeRow> = Vec::new();
    for (query, graph) in &workloads {
        let query = *query;
        let mut tuple_counts: Vec<usize> = Vec::new();
        for spec in &backends {
            let config = spec.configure(EngineConfig::default());
            let mut walls = Vec::with_capacity(trials);
            let mut modeled = Vec::with_capacity(trials);
            let mut tuples = 0usize;
            let mut iterations = 0usize;
            let mut counters = (0u64, 0u64, 0u64);
            let mut phase_ns = (0u64, 0u64, 0u64);
            let mut stall_ns = 0u64;
            let mut topology: Option<TopologyReport> = None;
            for _ in 0..trials {
                let device = gpulog_device(scale);
                let (size, stats) = match query {
                    "sg" => {
                        let r = sg::run(&device, graph, config.clone()).expect("smoke run failed");
                        (r.sg_size, r.stats)
                    }
                    "reach-neg" => {
                        let r = stratified::run_negated_reach(&device, graph, 3, config.clone())
                            .expect("smoke run failed");
                        (r.reach_size, r.stats)
                    }
                    "sp-min" => {
                        let r = stratified::run_shortest_path(&device, graph, 4, config.clone())
                            .expect("smoke run failed");
                        (r.sp_size, r.stats)
                    }
                    // The goal row records *tuples materialized* (answers +
                    // magic facts + anything kept fully evaluated), the
                    // number its gate compares against the closure size the
                    // reach-goal-full row records in the same column.
                    "reach-goal" => {
                        let r = goal::run_goal(&device, graph, goal_source, config.clone())
                            .expect("smoke run failed");
                        (r.tuples_materialized, r.stats)
                    }
                    _ => {
                        let r =
                            reach::run(&device, graph, config.clone()).expect("smoke run failed");
                        (r.reach_size, r.stats)
                    }
                };
                tuples = size;
                iterations = stats.iterations;
                walls.push(stats.wall_seconds);
                modeled.push(stats.modeled_seconds());
                // Work counters (and the topology modeling, which is
                // derived from deterministic counters) are deterministic
                // per configuration; the phase nanos wobble with the wall
                // clock, so the artifact records the last trial of each.
                stall_ns = stats.pipeline_stall_nanos;
                topology = stats.topology;
                let snap = device.metrics().snapshot();
                counters = (snap.hash_inserts, snap.hash_rebuilds, snap.sort_passes);
                let phases = device.metrics().phase_times();
                let ns = |name: &str| phases.get(name).map_or(0, |d| d.as_nanos() as u64);
                phase_ns = (ns("sort"), ns("merge"), ns("index"));
            }
            tuple_counts.push(tuples);
            rows.push(SmokeRow {
                query,
                dataset: graph.name.clone(),
                backend: spec.label(),
                shards: spec.shards(),
                tuples,
                iterations,
                median_wall_s: median(walls),
                median_modeled_s: median(modeled),
                hash_inserts: counters.0,
                hash_rebuilds: counters.1,
                sort_passes: counters.2,
                sort_ns: phase_ns.0,
                merge_ns: phase_ns.1,
                index_ns: phase_ns.2,
                stall_ns,
                topology,
            });
        }
        assert!(
            tuple_counts.windows(2).all(|w| w[0] == w[1]),
            "{query}: backends disagree on tuple counts: {tuple_counts:?}"
        );
    }

    // The multi-GPU model must actually show multi-device leverage on the
    // memory-bound REACH workload: the 4-device NVLink-like preset's
    // aggregate-over-critical-path speedup is derived from deterministic
    // counters, so a regression here is a modeling bug, not noise.
    if rows.iter().any(|r| r.query == "reach") {
        let reach_4dev = rows
            .iter()
            .find(|r| r.query == "reach" && r.backend == "multigpu:4")
            .and_then(|r| r.topology.as_ref())
            .expect("the multigpu:4 REACH leg reports a topology");
        assert!(
            reach_4dev.modeled_speedup() > 1.0,
            "modeled 4-device NVLink speedup on REACH must exceed 1.0, got {:.2}",
            reach_4dev.modeled_speedup()
        );
        // Hiding each device's merge share behind the next step's compute
        // must shorten the modeled schedule: the pipelined critical path is
        // priced through the same per-device cost models, so on a
        // multi-round fixpoint it has to land strictly below the
        // bulk-synchronous one.
        assert!(
            reach_4dev.modeled_pipelined_critical_path_sec < reach_4dev.modeled_critical_path_sec,
            "modeled pipelined critical path ({:.6}s) must beat the BSP critical path ({:.6}s)",
            reach_4dev.modeled_pipelined_critical_path_sec,
            reach_4dev.modeled_critical_path_sec
        );
    } else {
        println!("multi-GPU REACH gate skipped (reach filtered out)");
    }

    // The chain gate: on the merge-heavy chain, deferring and batching full
    // merges (fewer O(|full|) streaming passes) must beat the
    // barrier-per-iteration sharded backend at the same shard count. It is
    // judged on the modeled time, which is deterministic; the host wall
    // ratio is printed only, since its margin is within run-to-run noise.
    if rows.iter().any(|r| r.query == "reach-chain") {
        let chain_row = |backend: &str| {
            rows.iter()
                .find(|r| r.query == "reach-chain" && r.backend == backend)
                .expect("the chain leg runs every backend")
        };
        let pipelined_label = format!("pipelined:{shards}");
        let sharded_label = format!("sharded:{shards}");
        let (pipelined, sharded) = (chain_row(&pipelined_label), chain_row(&sharded_label));
        println!(
            "chain-REACH wall medians: {pipelined_label} {:.4}s vs {sharded_label} {:.4}s \
             ({:.2}x); modeled: {:.4}s vs {:.4}s",
            pipelined.median_wall_s,
            sharded.median_wall_s,
            sharded.median_wall_s / pipelined.median_wall_s,
            pipelined.median_modeled_s,
            sharded.median_modeled_s
        );
        assert!(
            pipelined.median_modeled_s < sharded.median_modeled_s,
            "pipelined median modeled time ({:.4}s) must beat sharded ({:.4}s) on the \
             merge-heavy chain",
            pipelined.median_modeled_s,
            sharded.median_modeled_s
        );
        assert!(
            pipelined.stall_ns > 0,
            "the pipelined chain leg must report its deferred-merge drains"
        );
    } else {
        println!("chain pipelined-vs-sharded gate skipped (reach-chain filtered out)");
    }

    // The goal-directed gate: on every backend, the magic-rewritten point
    // query must materialize strictly fewer tuples than the full closure on
    // the same hub graph *and* post a lower median wall. On a hub graph the
    // gap is structural (~n answers vs ~n² closure pairs), so a failure
    // here means the rewrite stopped being demand-driven, not noise.
    if rows.iter().any(|r| r.query == "reach-goal") {
        for spec in &backends {
            let label = spec.label();
            let pick = |query: &str| {
                rows.iter()
                    .find(|r| r.query == query && r.backend == label)
                    .expect("the goal pair runs every backend")
            };
            let (full, magic) = (pick("reach-goal-full"), pick("reach-goal"));
            println!(
                "goal-REACH [{label}]: magic {} tuples / {:.4}s vs full {} tuples / {:.4}s",
                magic.tuples, magic.median_wall_s, full.tuples, full.median_wall_s
            );
            assert!(
                magic.tuples < full.tuples,
                "[{label}] magic point query must materialize fewer tuples ({}) than the \
                 full closure ({})",
                magic.tuples,
                full.tuples
            );
            assert!(
                magic.median_wall_s < full.median_wall_s,
                "[{label}] magic median wall ({:.4}s) must beat the full closure ({:.4}s)",
                magic.median_wall_s,
                full.median_wall_s
            );
        }
    } else {
        println!("goal-directed gate skipped (reach-goal filtered out)");
    }

    // The optimizer gate: dead-rule elimination must strictly reduce the
    // tuples materialized on the crafted unreachable-rule workload while
    // leaving the output closure byte-identical. The gap is structural
    // (the dead `Scratch` rule derives one tuple per bidirectional closure
    // edge), so a failure means the rewrite pipeline stopped pruning, not
    // noise. This leg always runs — it is an engine-frontend gate, not a
    // backend workload, so `--workload` does not filter it.
    let dead_rule_nodes = ((150.0 * scale).round() as u32).max(24);
    let dead_rule_graph = hub_graph(dead_rule_nodes, 3, 59);
    let (unopt_tuples, unopt_reach) = dead_rule_run(&dead_rule_graph, scale, false);
    let (opt_tuples, opt_reach) = dead_rule_run(&dead_rule_graph, scale, true);
    println!(
        "dead-rule-elim: optimized {opt_tuples} tuples materialized vs \
         unoptimized {unopt_tuples} (closure {opt_reach} both ways)"
    );
    assert_eq!(
        opt_reach, unopt_reach,
        "dead-rule elimination must not change the output closure"
    );
    assert!(
        opt_tuples < unopt_tuples,
        "dead-rule elimination must strictly reduce tuples materialized \
         ({opt_tuples} vs {unopt_tuples})"
    );

    let mut table = TextTable::new([
        "Query",
        "Dataset",
        "Backend",
        "Tuples",
        "Median wall (s)",
        "Median modeled (s)",
        "Wall vs serial",
    ]);
    let serial_wall = |query: &str| {
        rows.iter()
            .find(|r| r.query == query && r.backend == "serial")
            .map(|r| r.median_wall_s)
            .unwrap_or(f64::NAN)
    };
    for row in &rows {
        table.row([
            row.query.to_string(),
            row.dataset.clone(),
            row.backend.clone(),
            format!("{}", row.tuples),
            format!("{:.4}", row.median_wall_s),
            format!("{:.4}", row.median_modeled_s),
            speedup(serial_wall(row.query), row.median_wall_s),
        ]);
    }
    println!("{}", table.render());

    // Index-maintenance counters and the device phase breakdown: the
    // numbers that pin delta-proportional merges (rebuilds stay amortised —
    // far below the iteration count — while inserts track Σ|delta|).
    let mut phases = TextTable::new([
        "Query",
        "Backend",
        "Iters",
        "Hash inserts",
        "Hash rebuilds",
        "Sort passes",
        "Sort (ms)",
        "Merge (ms)",
        "Index (ms)",
        "Stall (ms)",
    ]);
    for row in &rows {
        phases.row([
            row.query.to_string(),
            row.backend.clone(),
            format!("{}", row.iterations),
            format!("{}", row.hash_inserts),
            format!("{}", row.hash_rebuilds),
            format!("{}", row.sort_passes),
            format!("{:.3}", row.sort_ns as f64 / 1e6),
            format!("{:.3}", row.merge_ns as f64 / 1e6),
            format!("{:.3}", row.index_ns as f64 / 1e6),
            format!("{:.3}", row.stall_ns as f64 / 1e6),
        ]);
    }
    println!("phase breakdown (device-level, last trial)");
    println!("{}", phases.render());

    // The multi-GPU modeling columns: per-iteration critical path (max over
    // devices of compute + incoming transfer, summed over pipelines),
    // cross-device exchange traffic, and the aggregate-over-critical-path
    // modeled speedup.
    let mut topo_table = TextTable::new([
        "Query",
        "Topology",
        "Link",
        "Modeled CP (s)",
        "Model speedup",
        "Exchange (KiB)",
        "Exchange msgs",
        "Per-device modeled (s)",
    ]);
    for row in &rows {
        let Some(report) = &row.topology else {
            continue;
        };
        let per_device: Vec<String> = report
            .devices
            .iter()
            .map(|lane| format!("{:.6}", lane.modeled_compute_sec))
            .collect();
        topo_table.row([
            row.query.to_string(),
            row.backend.clone(),
            report.link.clone(),
            format!("{:.6}", report.modeled_critical_path_sec),
            format!("{:.2}x", report.modeled_speedup()),
            format!("{:.1}", report.total_exchange_bytes as f64 / 1024.0),
            format!("{}", report.total_exchange_messages),
            per_device.join(" "),
        ]);
    }
    println!("multi-GPU simulation (modeled, last trial)");
    println!("{}", topo_table.render());

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"trials\": {trials},\n"));
    json.push_str(&format!("  \"host_workers\": {workers},\n"));
    json.push_str(&format!(
        "  \"dead_rule_elim\": {{\"dataset\": \"{}\", \
         \"tuples_materialized_unoptimized\": {unopt_tuples}, \
         \"tuples_materialized_optimized\": {opt_tuples}, \
         \"output_tuples\": {opt_reach}}},\n",
        dead_rule_graph.name
    ));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{}\", \"dataset\": \"{}\", \"backend\": \"{}\", \
             \"shards\": {}, \"tuples\": {}, \"iterations\": {}, \
             \"median_wall_s\": {:.6}, \"median_modeled_s\": {:.6}, \
             \"hash_inserts\": {}, \"hash_rebuilds\": {}, \"sort_passes\": {}, \
             \"phase_nanos\": {{\"sort\": {}, \"merge\": {}, \"index\": {}}}, \
             \"pipeline_stall_nanos\": {}, \
             \"topology\": {}}}{}\n",
            row.query,
            row.dataset,
            row.backend,
            row.shards,
            row.tuples,
            row.iterations,
            row.median_wall_s,
            row.median_modeled_s,
            row.hash_inserts,
            row.hash_rebuilds,
            row.sort_passes,
            row.sort_ns,
            row.merge_ns,
            row.index_ns,
            row.stall_ns,
            topology_json(&row.topology),
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    let included: Vec<&str> = workloads.iter().map(|(q, _)| *q).collect();
    validate_schema(&json, &included).expect("generated artifact must satisfy its own schema");
    std::fs::write(&out_path, &json).expect("failed to write the bench smoke artifact");
    println!("wrote {out_path}");
}
