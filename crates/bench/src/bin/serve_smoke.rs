//! CI serve smoke: measures the concurrent serving layer. A REACH fixpoint
//! is materialized and published through a [`gpulog_serve::ServeWriter`];
//! then, for every reader count N ∈ {1, 2, 4, 8}, N reader threads hammer
//! point lookups against the latest snapshot for a fixed window — once with
//! the writer idle and once with a writer thread concurrently staging fresh
//! edges and re-running the engine to publish new generations. A
//! goal-directed leg rides along: before the sweep the writer answers a
//! magic-sets point query (`ServeWriter::goal_query`) and its canonical
//! answers must match the snapshot's `goal_lookup` for the same bindings;
//! then a `mode: "goal"` reader leg hammers `goal_lookup` with *non-prefix*
//! bindings (`Reach(_, target)`), the shape the sorted-prefix point lookup
//! cannot serve. Each leg reports queries/sec and p50/p99 per-query latency
//! into a `bench_smoke.json`-style artifact.
//!
//! ```text
//! cargo run --release -p gpulog-bench --bin serve_smoke -- \
//!     [--out serve_smoke.json] [--leg-ms 200]
//! cargo run --release -p gpulog-bench --bin serve_smoke -- --check serve_smoke.json
//! ```
//!
//! The binary gates on the ISSUE's starvation bound: at 4 readers, the
//! with-writer throughput must stay at or above
//! `GPULOG_SERVE_MIN_RATIO` (default 0.5) of the no-writer throughput —
//! readers clone an `Arc` under a read lock and then run lock-free, so the
//! writer's re-runs must never starve them.

use gpulog::EngineConfig;
use gpulog_bench::{banner, gpulog_device, scale_from_env, TextTable};
use gpulog_datasets::generators::road_network;
use gpulog_hisa::TupleBatch;
use gpulog_queries::reach;
use gpulog_serve::{ServeHandle, ServeWriter};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct ServeRow {
    /// `"point"` (sorted-prefix `point_lookup`) or `"goal"` (arbitrary
    /// bound/free bindings through `goal_lookup`).
    mode: &'static str,
    readers: usize,
    with_writer: bool,
    queries: u64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    /// Fixpoint generations published while the leg ran (1 = the initial
    /// fixpoint, i.e. the writer was idle).
    generations: u64,
}

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

const ROW_KEYS: [&str; 8] = [
    "\"mode\"",
    "\"readers\"",
    "\"with_writer\"",
    "\"queries\"",
    "\"qps\"",
    "\"p50_us\"",
    "\"p99_us\"",
    "\"generations\"",
];

/// Validates the artifact's schema the same dependency-free way
/// `bench_smoke` does: one result object per line, every row carrying
/// every required key.
fn validate_schema(json: &str) -> Result<(), String> {
    for key in ["\"scale\"", "\"leg_ms\"", "\"host_workers\"", "\"results\""] {
        if !json.contains(key) {
            return Err(format!("missing top-level key {key}"));
        }
    }
    let rows: Vec<&str> = json.lines().filter(|l| l.contains("\"readers\"")).collect();
    if rows.is_empty() {
        return Err("no result rows".to_string());
    }
    for mode in ["point", "goal"] {
        let key = format!("\"mode\": \"{mode}\"");
        if !rows.iter().any(|row| row.contains(&key)) {
            return Err(format!("no result row for mode {mode}"));
        }
    }
    for row in rows {
        for key in ROW_KEYS {
            if !row.contains(key) {
                return Err(format!("result row missing {key}: {row}"));
            }
        }
    }
    Ok(())
}

fn percentile_us(sorted_ns: &[u64], fraction: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * fraction).round() as usize;
    sorted_ns[idx] as f64 / 1e3
}

/// Runs one leg: `readers` threads issue lookups for `window`, recording
/// per-query latency. `goal` legs probe `goal_lookup` with the *second*
/// column bound (`Reach(_, target)`), which the sorted-prefix point lookup
/// cannot answer; point legs keep the original `point_lookup` path.
/// Returns (latencies ns, total queries).
fn run_leg(
    handle: &ServeHandle,
    readers: usize,
    id_bound: u32,
    window: Duration,
    goal: bool,
) -> (Vec<u64>, u64) {
    let stop = Arc::new(AtomicBool::new(false));
    let threads: Vec<_> = (0..readers)
        .map(|reader| {
            let handle = handle.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut latencies: Vec<u64> = Vec::with_capacity(4096);
                // Per-reader LCG so threads probe different keys without a
                // shared RNG serializing them.
                let mut state = 0x9e37_79b9u64.wrapping_mul(reader as u64 + 1) | 1;
                while !stop.load(Ordering::Relaxed) {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let key = ((state >> 33) as u32) % id_bound.max(1);
                    let t = Instant::now();
                    if goal {
                        let rows = handle
                            .goal_lookup("Reach", &[None, Some(key)])
                            .expect("Reach is a known relation");
                        latencies.push(t.elapsed().as_nanos() as u64);
                        assert!(
                            rows.iter().all(|row| row[1] == key),
                            "goal lookup returned a row that violates its binding"
                        );
                    } else {
                        let rows = handle
                            .point_lookup("Reach", &[key])
                            .expect("Reach is a known relation");
                        let probe = rows.first().cloned().unwrap_or_default();
                        let hit = handle.contains("Reach", &probe);
                        latencies.push(t.elapsed().as_nanos() as u64);
                        assert!(rows.is_empty() || hit, "lookup row missing from snapshot");
                    }
                }
                latencies
            })
        })
        .collect();
    std::thread::sleep(window);
    stop.store(true, Ordering::Relaxed);
    let mut all: Vec<u64> = Vec::new();
    for t in threads {
        all.extend(t.join().expect("reader thread panicked"));
    }
    let queries = all.len() as u64;
    (all, queries)
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
        match validate_schema(&json) {
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
    let leg_ms = usize_flag(&args, "--leg-ms", 200);
    let out_path = string_flag(&args, "--out", "serve_smoke.json");
    let scale = scale_from_env();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let min_ratio: f64 = std::env::var("GPULOG_SERVE_MIN_RATIO")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.5);

    banner(
        "serve smoke — snapshot readers vs a concurrent fixpoint writer",
        scale,
    );
    println!("(leg window {leg_ms} ms, host workers {workers}, gate ratio {min_ratio})");

    // A bidirectional chain keeps the closure quadratic-but-bounded. Each
    // refresh seeds the closure from the writer's fresh edges alone and
    // derives only their consequences, but still copies-on-write the
    // relations it grows while readers pin the previous snapshot.
    let chain_nodes = ((400.0 * scale).round() as u32).max(48);
    let graph = road_network(chain_nodes, 0, 23);
    let id_bound = graph.id_bound();
    let device = gpulog_device(scale);
    let engine = reach::prepare(&device, &graph, EngineConfig::default()).expect("prepare failed");
    let mut writer = ServeWriter::new(engine).expect("initial fixpoint failed");
    let handle = writer.handle();
    let base_size = handle.relation_size("Reach").expect("Reach exists");
    println!("initial fixpoint: {chain_nodes}-node chain, |Reach| = {base_size}");

    // Goal-directed probe: the writer's magic-sets point query must agree,
    // byte for byte, with the published snapshot's goal_lookup for the same
    // bindings — the demand-driven path and the materialized closure are
    // two routes to the same answers. (No materialization gate here: the
    // serving program is the *right-recursive* closure, whose bf-demand
    // cone on a connected chain is the whole graph; the fewer-tuples gate
    // lives in bench_smoke's left-recursive `reach-goal` row.)
    let goal_source = chain_nodes / 2;
    let magic = writer
        .goal_query("Reach", &[Some(goal_source), None])
        .expect("goal query failed");
    let snapshot_rows: Vec<u32> = handle
        .goal_lookup("Reach", &[Some(goal_source), None])
        .expect("Reach is a known relation")
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(
        magic.answers.as_flat(),
        &snapshot_rows[..],
        "magic-sets answers diverge from the snapshot's goal lookup"
    );
    println!(
        "goal probe: ?- Reach({goal_source}, y) -> {} answers \
         ({} tuples materialized vs |Reach| = {base_size})",
        magic.answers.len(),
        magic.tuples_materialized
    );

    let window = Duration::from_millis(leg_ms as u64);
    let mut rows: Vec<ServeRow> = Vec::new();
    // The goal-directed leg runs at a single reader count: it shares the
    // starvation machinery but its gate is answer correctness, not the
    // reader-scaling curve.
    let legs: [(&'static str, &[usize]); 2] = [("point", &[1, 2, 4, 8]), ("goal", &[4])];
    for &(mode, reader_counts) in &legs {
        for &with_writer in &[false, true] {
            for &readers in reader_counts {
                let gen_before = handle.generation();
                let (mut latencies, queries) = if with_writer {
                    // The writer owns `writer` for the leg: stage a batch of
                    // isolated fresh edges (cheap closure growth, real re-run
                    // work) and publish, repeatedly, until the leg ends.
                    let stop = Arc::new(AtomicBool::new(false));
                    let stop_writer = Arc::clone(&stop);
                    let mut fresh = id_bound + 1_000_000 * (readers as u32);
                    std::thread::scope(|scope| {
                        let writer = &mut writer;
                        scope.spawn(move || {
                            while !stop_writer.load(Ordering::Relaxed) {
                                let edges: Vec<[u32; 2]> =
                                    (0..8).map(|i| [fresh + 2 * i, fresh + 2 * i + 1]).collect();
                                fresh += 16;
                                writer
                                    .insert_facts_batch("Edge", &TupleBatch::from_rows(2, edges))
                                    .expect("staging fresh edges failed");
                                writer.refresh().expect("refresh failed");
                            }
                        });
                        let out = run_leg(&handle, readers, id_bound, window, mode == "goal");
                        stop.store(true, Ordering::Relaxed);
                        out
                    })
                } else {
                    run_leg(&handle, readers, id_bound, window, mode == "goal")
                };
                latencies.sort_unstable();
                let qps = queries as f64 / window.as_secs_f64();
                rows.push(ServeRow {
                    mode,
                    readers,
                    with_writer,
                    queries,
                    qps,
                    p50_us: percentile_us(&latencies, 0.50),
                    p99_us: percentile_us(&latencies, 0.99),
                    generations: handle.generation() - gen_before + 1,
                });
                if with_writer {
                    assert!(
                        handle.generation() > gen_before,
                        "the writer leg must publish at least one new generation"
                    );
                }
            }
        }
    }

    let mut table = TextTable::new([
        "Mode",
        "Readers",
        "Writer",
        "Queries",
        "QPS",
        "p50 (us)",
        "p99 (us)",
        "Generations",
    ]);
    for row in &rows {
        table.row([
            row.mode.to_string(),
            format!("{}", row.readers),
            if row.with_writer { "yes" } else { "no" }.to_string(),
            format!("{}", row.queries),
            format!("{:.0}", row.qps),
            format!("{:.1}", row.p50_us),
            format!("{:.1}", row.p99_us),
            format!("{}", row.generations),
        ]);
    }
    println!("{}", table.render());

    // The starvation gate: a concurrent writer re-running the engine must
    // not cost 4 readers more than (1 - min_ratio) of their throughput.
    let qps_at = |readers: usize, with_writer: bool| {
        rows.iter()
            .find(|r| r.mode == "point" && r.readers == readers && r.with_writer == with_writer)
            .map(|r| r.qps)
            .expect("every leg ran")
    };
    let (quiet, busy) = (qps_at(4, false), qps_at(4, true));
    println!(
        "4-reader throughput: {busy:.0} qps with writer vs {quiet:.0} qps without \
         ({:.2}x, gate {min_ratio})",
        busy / quiet
    );
    assert!(
        busy >= min_ratio * quiet,
        "readers starved: {busy:.0} qps with a concurrent writer vs {quiet:.0} without \
         (ratio {:.2} < {min_ratio})",
        busy / quiet
    );
    // Every leg must have measured real traffic.
    assert!(
        rows.iter().all(|r| r.queries > 0),
        "a leg recorded zero queries"
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"leg_ms\": {leg_ms},\n"));
    json.push_str(&format!("  \"host_workers\": {workers},\n"));
    json.push_str(&format!("  \"chain_nodes\": {chain_nodes},\n"));
    json.push_str(&format!("  \"initial_reach_tuples\": {base_size},\n"));
    json.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"readers\": {}, \"with_writer\": {}, \
             \"queries\": {}, \"qps\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \
             \"generations\": {}}}{}\n",
            row.mode,
            row.readers,
            row.with_writer,
            row.queries,
            row.qps,
            row.p50_us,
            row.p99_us,
            row.generations,
            if i + 1 == rows.len() { "" } else { "," },
        ));
    }
    json.push_str("  ]\n}\n");
    validate_schema(&json).expect("generated artifact must satisfy its own schema");
    std::fs::write(&out_path, &json).expect("failed to write the serve smoke artifact");
    println!("wrote {out_path}");
}
