//! One measured run of one workload: fixpoint trials and serve rounds.
//!
//! A run makes a fixed number of operations, not a fixed number of
//! seconds. A fixpoint trial is a fresh simulated device and a fresh
//! engine: generate, build, load, run, read back, verify. A serve round is
//! a closed loop of one client on a `ServeWriter` over a finished trial's
//! engine: point lookups, goal lookups, a goal query and a tick (insert +
//! refresh). After one warm-up trial (verified, samples discarded) the
//! workload's `trials` and `rounds` are made in a few blocks of
//! trials-then-rounds ([`run_workload`] says why). Those counts take about
//! `BENCHMARK.json`'s `run_seconds` on the reference box; `--seconds`
//! scales them ([`scaled`]), so the sample count behind every median
//! depends on the command line, never on how fast the code under test is.
//!
//! Every operation is counted in [`Ops`]; it fails on any `Err` or on any
//! disagreement with the oracle.

use crate::report::RUN_SECONDS;
use crate::trace::Recorder;
use crate::workloads::{self, mix64, Expected, Inputs, ServePlan, Size, Stage, Workload};
use gpulog::{EngineResult, GpulogEngine, Phase, RunStats, TupleBatch};
use gpulog_device::{Device, DeviceProfile, DeviceTopology};
use gpulog_serve::{ServeHandle, ServeWriter};
use std::num::NonZeroUsize;
use std::time::Instant;

/// Worker threads of the device behind every end-to-end number: one, so
/// nothing is dispatched to a pool (README, "Why one worker").
pub const WORKERS: usize = 1;
/// Worker threads of the devices the `backend.*` legs run on.
const LEG_WORKERS: usize = 2;
/// Fewest timed fixpoint trials and serve rounds a run makes, however
/// small its `--seconds`.
const MIN_TRIALS: usize = 2;
const MIN_ROUNDS: usize = 3;
/// Blocks of trials-then-rounds a run is made of (see [`run_workload`]).
const BLOCKS: usize = 3;
/// Goal queries and goal lookups all ask for one key: of the first this
/// many keys, the one whose answer has the median size. Their cost depends
/// on the key (the demanded cone) and a run makes only a handful, so the
/// median must be over repetitions of one question, not over questions.
const GOAL_KEY_CANDIDATES: usize = 9;

#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
}

/// A workload's operation count for a run of `seconds`: `nominal` at
/// [`RUN_SECONDS`], in proportion otherwise, never below `least`.
fn scaled(nominal: usize, seconds: f64, least: usize) -> usize {
    let count = nominal as f64 * seconds / RUN_SECONDS as f64;
    (count.round() as usize).max(least)
}

/// Attempted and failed operations, with the first failure kept for the
/// report.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Ops {
    /// Counts one operation; `what` describes it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_failure.get_or_insert_with(what);
        }
    }
}

/// Which executor a fixpoint trial runs on. End-to-end numbers are always
/// `Serial` (one worker); the others are the traced run's `backend.*`
/// legs, on two-worker devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leg {
    Serial,
    /// The serial backend again, with a worker pool to dispatch to.
    Workers2,
    Sharded2,
    Pipelined2,
    MultiGpu2,
}

impl Leg {
    /// The per-layer metric a non-serial leg's fixpoint wall feeds.
    fn wall_metric(self) -> Option<&'static str> {
        match self {
            Leg::Serial => None,
            Leg::Workers2 => Some("backend.workers2.wall_s"),
            Leg::Sharded2 => Some("backend.sharded2.wall_s"),
            Leg::Pipelined2 => Some("backend.pipelined2.wall_s"),
            Leg::MultiGpu2 => Some("backend.multigpu2.wall_s"),
        }
    }
}

/// Per-trial sums over a workload's stages, pushed as one sample per name
/// when the trial ends.
#[derive(Default)]
struct Sums(Vec<(&'static str, f64)>);

impl Sums {
    fn add(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += value,
            None => self.0.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The engines of one finished trial, and what their runs reported.
#[derive(Default)]
pub struct Trial {
    pub engines: Vec<GpulogEngine>,
    pub stats: Vec<RunStats>,
    /// Order-independent checksum per verified relation, in stage order.
    pub checksums: Vec<u64>,
}

fn device(leg: Leg) -> Device {
    let workers = if leg == Leg::Serial {
        WORKERS
    } else {
        LEG_WORKERS
    };
    Device::with_workers(DeviceProfile::nvidia_h100(), workers)
}

fn build_engine(device: &Device, stage: &Stage, leg: Leg) -> EngineResult<GpulogEngine> {
    let builder = GpulogEngine::builder(device).program(stage.program);
    let two = NonZeroUsize::new(2).expect("2 is non-zero");
    match leg {
        Leg::Serial | Leg::Workers2 => builder,
        Leg::Sharded2 => builder.shard_count(2),
        Leg::Pipelined2 => builder.pipelined(2),
        Leg::MultiGpu2 => builder.device_topology(DeviceTopology::nvlink_like(two)),
    }
    .build()
}

/// A checksum that does not depend on row order (storage order may differ
/// between backends): the wrapping sum of a per-row hash.
pub fn checksum(batch: &TupleBatch) -> u64 {
    batch
        .rows()
        .map(|row| {
            row.iter()
                .fold(0x9E37_79B9_7F4A_7C15, |h, &v| mix64(h ^ u64::from(v)))
        })
        .fold(batch.len() as u64, u64::wrapping_add)
}

/// What the stages of one trial yielded, before it is judged and its
/// samples pushed.
struct Staged {
    trial: Trial,
    sums: Sums,
    /// First disagreement with the oracle (checked on the first trial only).
    mismatch: Option<String>,
    /// Build and load seconds; the trial adds input generation.
    setup_s: f64,
    load_s: f64,
    run_s: f64,
    readback_s: f64,
    modeled_s: f64,
    peak_bytes: usize,
}

/// Builds, loads, runs, reads back and verifies every stage. Each span is
/// closed before its call's `Err` is propagated, so an engine error leaves
/// no span of this function open.
fn run_stages(
    stages: &[Stage],
    expected: &[Vec<Expected>],
    leg: Leg,
    against_the_oracle: bool,
    rec: &mut Recorder,
) -> EngineResult<Staged> {
    let mut staged = Staged {
        trial: Trial {
            engines: Vec::new(),
            stats: Vec::new(),
            checksums: Vec::new(),
        },
        sums: Sums::default(),
        mismatch: None,
        setup_s: 0.0,
        load_s: 0.0,
        run_s: 0.0,
        readback_s: 0.0,
        modeled_s: 0.0,
        peak_bytes: 0,
    };
    for (stage, expected) in stages.iter().zip(expected) {
        let open = rec.begin("engine.build");
        let device = device(leg);
        let built = build_engine(&device, stage, leg);
        staged.setup_s += rec.end(open);
        let mut engine = built?;

        let open = rec.begin("engine.load_facts");
        let loaded = stage
            .inputs
            .iter()
            .try_for_each(|facts| engine.add_facts_flat(facts.relation, &facts.flat));
        let seconds = rec.end(open);
        loaded?;
        staged.setup_s += seconds;
        staged.load_s += seconds;

        let open = rec.begin("engine.run");
        let ran = engine.run();
        staged.run_s += rec.end(open);
        let stats = ran?;
        staged.modeled_s += stats.modeled_seconds();
        staged.peak_bytes = staged.peak_bytes.max(stats.peak_device_bytes);

        let open = rec.begin("engine.readback");
        let batches: Vec<TupleBatch> = expected
            .iter()
            .map(|e| {
                engine
                    .relation_batch(e.relation())
                    .unwrap_or_else(|| TupleBatch::empty(1))
            })
            .collect();
        staged.readback_s += rec.end(open);

        let open = rec.begin("verify");
        for (e, batch) in expected.iter().zip(&batches) {
            staged.trial.checksums.push(checksum(batch));
            if against_the_oracle && staged.mismatch.is_none() {
                staged.mismatch = against_oracle(&engine, e, batch);
            }
        }
        rec.end(open);
        add_stage_counters(&mut staged.sums, &device, &stats, leg);
        staged.trial.engines.push(engine);
        staged.trial.stats.push(stats);
    }
    Ok(staged)
}

/// Runs one fixpoint trial of every stage of the inputs `generate` makes,
/// and counts it as one operation: failed on any engine `Err` (`None` is
/// returned) or any disagreement with the oracle. The spans it records are
/// the children of one `trial` span; the per-trial sums are pushed as
/// samples named like the metrics they feed.
///
/// `reference` holds the first trial's checksums: the first trial is
/// compared tuple by tuple against the oracle, every later one against
/// those checksums.
pub fn fixpoint_trial(
    workload: &Workload,
    generate: impl FnOnce() -> Inputs,
    leg: Leg,
    expected: &[Vec<Expected>],
    reference: &mut Option<Vec<u64>>,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> Option<Trial> {
    // Only serial trials are `trial` spans: the report's sum check reads
    // the last one.
    let trial_span = rec.begin(if leg == Leg::Serial {
        "trial"
    } else {
        "backend.trial"
    });
    let open = rec.begin("setup.generate");
    let inputs = generate();
    let generate_s = rec.end(open);
    let staged = run_stages(&inputs.stages, expected, leg, reference.is_none(), rec);
    rec.end(trial_span);
    let Staged {
        trial,
        mut sums,
        mut mismatch,
        setup_s,
        load_s,
        run_s,
        readback_s,
        modeled_s,
        peak_bytes,
    } = match staged {
        Ok(staged) => staged,
        Err(error) => {
            ops.check(false, || {
                format!("{} fixpoint ({leg:?}): {error}", workload.name)
            });
            return None;
        }
    };
    match reference {
        None => *reference = Some(trial.checksums.clone()),
        Some(first) if *first != trial.checksums => {
            mismatch = Some("relation checksum differs from the first trial's".into());
        }
        Some(_) => {}
    }
    ops.check(mismatch.is_none(), || {
        format!(
            "{} fixpoint ({leg:?}): {}",
            workload.name,
            mismatch.unwrap_or_default()
        )
    });
    match leg.wall_metric() {
        None => {
            rec.push("setup_s", generate_s + setup_s);
            rec.push("fixpoint_wall_s", run_s);
            let side = if rec.tracing() {
                "trace.on_wall_s"
            } else {
                "trace.off_wall_s"
            };
            rec.push(side, run_s);
            rec.push("modeled_s", modeled_s);
            rec.push("peak_device_bytes", peak_bytes as f64);
            rec.push("engine.load_facts_s", load_s);
            rec.push("engine.readback_s", readback_s);
            push_trial_sums(rec, &trial.stats, run_s);
            let allocations = sums.get("device.allocations");
            if allocations > 0.0 {
                sums.add(
                    "device.pool_reuse_ratio",
                    sums.get("device.pool_reuses") / allocations,
                );
            }
        }
        Some(wall) => {
            rec.push(wall, run_s);
            if leg == Leg::Pipelined2 && run_s > 0.0 {
                let stalled = sums.get("backend.pipelined2.stall_s");
                sums.add("backend.pipelined2.stall_share", stalled / run_s);
            }
            let critical = sums.get("backend.multigpu2.critical_path_s");
            if critical > 0.0 {
                sums.add(
                    "backend.multigpu2.modeled_speedup",
                    sums.get("backend.multigpu2.compute_s") / critical,
                );
            }
        }
    }
    // Intermediate sums (stall seconds, pool reuses, ...) ride along as
    // samples nothing reads; the report takes only the names in its table.
    for (name, value) in sums.0 {
        rec.push(name, value);
    }
    Some(trial)
}

/// The tuple-by-tuple (or, for a size-only oracle, size) comparison.
fn against_oracle(
    engine: &GpulogEngine,
    expected: &Expected,
    batch: &TupleBatch,
) -> Option<String> {
    match expected {
        Expected::Size { relation, len } => (batch.len() != *len)
            .then(|| format!("{relation}: {} tuples, oracle has {len}", batch.len())),
        Expected::Tuples { relation, flat, .. } => {
            let sorted = engine
                .snapshot()
                .ok()
                .and_then(|s| s.sorted_tuples_flat(relation));
            (sorted.as_deref() != Some(flat.as_slice())).then(|| {
                format!(
                    "{relation}: {} tuples differ from the oracle's {}",
                    batch.len(),
                    flat.len() / batch.arity().max(1)
                )
            })
        }
    }
}

/// Per-trial sums over the stages' `RunStats`: the engine layer's counts
/// and phase seconds, and the run span's unattributed remainder.
fn push_trial_sums(rec: &mut Recorder, stats: &[RunStats], run_s: f64) {
    let sum = |f: &dyn Fn(&RunStats) -> f64| stats.iter().map(f).sum::<f64>();
    let raw = sum(&|s| {
        s.iteration_records
            .iter()
            .map(|r| r.new_tuples)
            .sum::<usize>() as f64
    });
    let new = sum(&|s| {
        s.iteration_records
            .iter()
            .map(|r| r.delta_tuples)
            .sum::<usize>() as f64
    });
    rec.push("engine.iterations", sum(&|s| s.iterations as f64));
    rec.push("engine.new_tuples", raw);
    rec.push("engine.delta_tuples", new);
    rec.push("engine.dup_ratio", if new > 0.0 { raw / new } else { 0.0 });
    rec.push(
        "engine.tail_iterations",
        sum(&|s| {
            let derived: usize = s.iteration_records.iter().map(|r| r.delta_tuples).sum();
            s.tail_iterations(derived, 0.01) as f64
        }),
    );
    let mut attributed = 0.0;
    for (phase, name) in [
        (Phase::Join, "engine.phase.join_s"),
        (Phase::Deduplication, "engine.phase.dedup_s"),
        (Phase::IndexDelta, "engine.phase.index_delta_s"),
        (Phase::IndexFull, "engine.phase.index_full_s"),
        (Phase::Merge, "engine.phase.merge_s"),
        (Phase::Other, "engine.phase.other_s"),
    ] {
        let seconds = sum(&|s| s.phase(phase));
        attributed += seconds;
        rec.push(name, seconds);
    }
    rec.push("engine.unattributed_s", run_s - attributed);
}

/// Adds one stage's counters to the trial's sums: the (fresh) device's
/// counters after a serial run, the backend-owned figures of the others.
fn add_stage_counters(sums: &mut Sums, device: &Device, stats: &RunStats, leg: Leg) {
    match leg {
        Leg::Serial => {}
        Leg::Sharded2 => return,
        Leg::Workers2 => {
            // What the pool costs: only a device with workers dispatches.
            let counters = device.metrics().snapshot();
            sums.add("device.pool_dispatches", counters.pool_dispatches as f64);
            return sums.add("device.dispatch_s", counters.dispatch_nanos as f64 / 1e9);
        }
        Leg::Pipelined2 => {
            let stalled = stats.pipeline_stall_nanos as f64 / 1e9;
            return sums.add("backend.pipelined2.stall_s", stalled);
        }
        Leg::MultiGpu2 => {
            if let Some(report) = &stats.topology {
                sums.add("backend.multigpu2.compute_s", report.total_compute_sec());
                sums.add(
                    "backend.multigpu2.critical_path_s",
                    report.modeled_critical_path_sec,
                );
                sums.add(
                    "backend.multigpu2.exchange_bytes",
                    report.total_exchange_bytes as f64,
                );
            }
            return;
        }
    }
    let counters = device.metrics().snapshot();
    sums.add("device.bytes_moved", counters.bytes_moved() as f64);
    sums.add("device.kernel_launches", counters.kernel_launches as f64);
    sums.add("device.sort_passes", counters.sort_passes as f64);
    sums.add("device.allocations", counters.allocations as f64);
    sums.add("device.pool_reuses", counters.pool_reuses as f64);
    sums.add("hisa.hash_inserts", counters.hash_inserts as f64);
    sums.add("hisa.hash_rebuilds", counters.hash_rebuilds as f64);
    let phases = device.metrics().phase_times();
    for (key, name) in [
        ("sort", "device.phase.sort_s"),
        ("merge", "device.phase.merge_s"),
        ("index", "device.phase.index_s"),
    ] {
        sums.add(name, phases.get(key).map_or(0.0, |d| d.as_secs_f64()));
    }
}

/// What a whole run leaves behind for the report and the probes.
pub struct RunOutput {
    pub inputs: Inputs,
    pub expected: Vec<Vec<Expected>>,
    pub baseline_seconds: f64,
    /// The served engine's writer, kept for the traced run's serve probes.
    pub writer: Option<ServeWriter>,
    /// The serial trials' relation checksums, which every backend leg must
    /// reach.
    pub reference: Option<Vec<u64>>,
    /// Wall seconds of the measured part (trials + rounds).
    pub measured_seconds: f64,
}

/// How many of `count` operations the `block`-th of `blocks` blocks makes:
/// an even split, the remainder going to the first blocks.
fn share(count: usize, blocks: usize, block: usize) -> usize {
    count / blocks + usize::from(block < count % blocks)
}

/// Runs the workload: a warm-up trial, then [`BLOCKS`] blocks, each a share
/// of the trials followed by a share of the rounds. Returns what the probes
/// need; the samples are in `rec`, the operation counts in `ops`.
///
/// The rounds are served by the engine of the first block's last trial;
/// the later blocks' trials run beside that session and are dropped. The
/// blocks are there to spread every metric's samples over the whole run:
/// this box slows by 20–50 % for a few seconds several times a minute, and
/// with all trials first and all rounds after, such a spell covered most of
/// one metric's window in some runs and none of it in others (`serve-mixed`
/// trials, a 2.5 s window: medians of 0.118 and 0.184 s in consecutive
/// runs). Alternating trial and round one by one is the other extreme and
/// was tried: every operation then starts on memory the other kind just
/// released (`reach-fat` goal query 30 → 76–90 ms).
pub fn run_workload(
    workload: &Workload,
    config: &RunConfig,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> RunOutput {
    let (expected, baseline_seconds) = workloads::oracle(workload.id, config.seed, config.size);
    let inputs = workloads::inputs(workload.id, config.seed, config.size);
    let clock = Instant::now();
    let mut reference = None;
    let writer = blocks(
        workload,
        config,
        &inputs,
        &expected,
        &mut reference,
        rec,
        ops,
    );
    RunOutput {
        inputs,
        expected,
        baseline_seconds,
        writer,
        reference,
        measured_seconds: clock.elapsed().as_secs_f64(),
    }
}

/// The measured part of a run. Stops at the first operation that returns
/// an `Err` (already counted as failed) and returns the served engine's
/// writer if the run got to its end.
fn blocks(
    workload: &Workload,
    config: &RunConfig,
    inputs: &Inputs,
    expected: &[Vec<Expected>],
    reference: &mut Option<Vec<u64>>,
    rec: &mut Recorder,
    ops: &mut Ops,
) -> Option<ServeWriter> {
    let plan = &inputs.serve;
    let trials = scaled(workload.trials, config.seconds, MIN_TRIALS);
    let rounds = scaled(workload.rounds, config.seconds, MIN_ROUNDS);
    // A traced run records spans on every other trial only, so the same
    // run yields traced and untraced fixpoint walls: their difference is
    // the tracing overhead.
    let traced = rec.tracing();
    let mut trial_number = 0;
    let mut next_trial = |rec: &mut Recorder, ops: &mut Ops| {
        rec.set_trial(trial_number);
        rec.set_tracing(traced && trial_number % 2 == 1);
        trial_number += 1;
        let trial = fixpoint_trial(
            workload,
            || workloads::inputs(workload.id, config.seed, config.size),
            Leg::Serial,
            expected,
            reference,
            rec,
            ops,
        );
        rec.set_tracing(traced);
        trial
    };
    let mut last = next_trial(rec, ops)?; // the warm-up
    rec.discard_samples();
    let mut session: Option<ServeSession> = None;
    for block in 0..BLOCKS {
        for _ in 0..share(trials, BLOCKS, block) {
            last = next_trial(rec, ops)?;
        }
        let served = match session.take() {
            Some(session) => Ok(session),
            None => ServeSession::open(plan, &expected[plan.stage], last, rec),
        };
        // Later blocks' trials are dropped as soon as they are verified.
        last = Trial::default();
        let mut served = counted(served, workload, ops)?;
        for _ in 0..share(rounds, BLOCKS, block) {
            rec.set_trial(served.rounds);
            let round = served.round(workload, plan, &expected[plan.stage], rec, ops);
            counted(round, workload, ops)?;
        }
        session = Some(served);
    }
    let finished = session?.finish(&inputs.stages[plan.stage], plan, rec);
    let (writer, equal) = counted(finished, workload, ops)?;
    ops.check(equal, || {
        "published snapshot differs from a from-scratch run over the accumulated facts".into()
    });
    Some(writer)
}

/// `Some` of an `Ok`; an `Err` is counted as one failed operation.
fn counted<T>(result: EngineResult<T>, workload: &Workload, ops: &mut Ops) -> Option<T> {
    if let Err(error) = &result {
        ops.check(false, || format!("{} serve: {error}", workload.name));
    }
    result.ok()
}

/// The oracle's rows for a goal binding on the served relation, or `None`
/// when the oracle only knows sizes. The oracle is sorted, so a binding of
/// the first column is a binary search, not a scan.
fn oracle_rows(expected: &[Expected], relation: &str, column: usize, key: u32) -> Option<Vec<u32>> {
    expected.iter().find_map(|e| match e {
        Expected::Tuples {
            relation: r,
            arity,
            flat,
        } if *r == relation => Some(if column == 0 {
            // First row whose leading column is at least `bound`.
            let lower = |bound: u32| {
                let (mut lo, mut hi) = (0, flat.len() / arity);
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if flat[mid * arity] < bound {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            };
            let end = key.checked_add(1).map_or(flat.len() / arity, lower);
            flat[lower(key) * arity..end * arity].to_vec()
        } else {
            flat.chunks_exact(*arity)
                .filter(|row| row[column] == key)
                .flatten()
                .copied()
                .collect()
        }),
        _ => None,
    })
}

/// Of the first [`GOAL_KEY_CANDIDATES`] keys, the one whose goal answer
/// (per the oracle) has the median size; the first key when the oracle
/// only knows sizes.
fn median_answer_key(plan: &ServePlan, expected: &[Expected]) -> u32 {
    let column = plan.bound_column.unwrap_or(0);
    let mut sized: Vec<(usize, u32)> = plan
        .keys
        .iter()
        .take(GOAL_KEY_CANDIDATES)
        .filter_map(|&key| {
            Some((
                oracle_rows(expected, plan.relation, column, key)?.len(),
                key,
            ))
        })
        .collect();
    sized.sort_unstable();
    sized
        .get(sized.len() / 2)
        .map_or(plan.keys[0], |&(_, key)| key)
}

fn flatten(rows: &[Vec<u32>]) -> Vec<u32> {
    rows.iter().flatten().copied().collect()
}

/// Checks a served answer: against the oracle's rows when it has them,
/// otherwise for internal consistency (bound column matches, canonical
/// order, every row a member of the snapshot).
fn answer_ok(
    handle: &ServeHandle,
    expected: &[Expected],
    plan: &ServePlan,
    column: usize,
    key: u32,
    answer: &[u32],
) -> bool {
    match oracle_rows(expected, plan.relation, column, key) {
        Some(rows) => rows == answer,
        None => {
            let rows: Vec<&[u32]> = answer.chunks_exact(2).collect();
            rows.iter().all(|row| row[column] == key)
                && rows.windows(2).all(|w| w[0] < w[1])
                && rows.iter().all(|row| handle.contains(plan.relation, row))
        }
    }
}

/// The served engine of a run: one writer, one reader handle, one client.
struct ServeSession {
    writer: ServeWriter,
    handle: ServeHandle,
    device: Device,
    goal_key: u32,
    rounds: usize,
    inserted: Vec<[u32; 2]>,
}

impl ServeSession {
    /// Wraps the served stage's engine of a finished trial and publishes
    /// its fixpoint.
    fn open(
        plan: &ServePlan,
        expected: &[Expected],
        mut trial: Trial,
        rec: &mut Recorder,
    ) -> EngineResult<Self> {
        let engine = trial.engines.swap_remove(plan.stage);
        let device = engine.device().clone();
        let open = rec.begin("serve.publish_first");
        let writer = ServeWriter::new(engine);
        rec.end(open);
        let writer = writer?;
        Ok(ServeSession {
            handle: writer.handle(),
            writer,
            device,
            goal_key: median_answer_key(plan, expected),
            rounds: 0,
            inserted: Vec::new(),
        })
    }

    /// One round of the closed loop: lookups, goal lookups, a goal query,
    /// then a tick.
    fn round(
        &mut self,
        workload: &Workload,
        plan: &ServePlan,
        expected: &[Expected],
        rec: &mut Recorder,
        ops: &mut Ops,
    ) -> EngineResult<()> {
        let round = self.rounds;
        self.rounds += 1;
        let round_span = rec.begin("serve.round");
        for &key in &plan.keys {
            let open = rec.begin("serve.point_lookup");
            let rows = self.handle.point_lookup(plan.relation, &[key]);
            rec.end(open);
            let ok = rows.is_some_and(|rows| {
                answer_ok(&self.handle, expected, plan, 0, key, &flatten(&rows))
            });
            ops.check(ok, || format!("point_lookup({}, [{key}])", plan.relation));
        }
        for _ in 0..workload.goal_lookups_per_round {
            // The non-prefix binding: "who reaches `key`?" is a filter scan.
            let key = self.goal_key;
            let open = rec.begin("serve.goal_lookup");
            let rows = self.handle.goal_lookup(plan.relation, &[None, Some(key)]);
            rec.end(open);
            let ok = rows.is_some_and(|rows| {
                answer_ok(&self.handle, expected, plan, 1, key, &flatten(&rows))
            });
            ops.check(ok, || format!("goal_lookup({}, [_, {key}])", plan.relation));
        }
        let key = self.goal_key;
        let mut bindings = [None, None];
        if let Some(column) = plan.bound_column {
            bindings[column] = Some(key);
        }
        let open = rec.begin("serve.goal_query");
        let result = self.writer.goal_query(plan.relation, &bindings);
        rec.end(open);
        let ok = match &result {
            Ok(result) => {
                rec.push(
                    "engine.goal_tuples_materialized",
                    result.tuples_materialized as f64,
                );
                match plan.bound_column {
                    Some(column) => answer_ok(
                        &self.handle,
                        expected,
                        plan,
                        column,
                        key,
                        result.answers.as_flat(),
                    ),
                    // An all-free goal answers with the whole relation.
                    None => {
                        self.handle
                            .latest()
                            .sorted_tuples_flat(plan.relation)
                            .as_deref()
                            == Some(result.answers.as_flat())
                    }
                }
            }
            Err(_) => false,
        };
        ops.check(ok, || {
            format!("goal_query({}, {bindings:?})", plan.relation)
        });
        // The tick: stage fresh facts, re-run, publish.
        let rows = workloads::tick_rows(plan, round);
        let generation = self.handle.generation();
        let tick = rec.begin("serve.tick");
        let open = rec.begin("serve.insert");
        let staged = self
            .writer
            .insert_facts_batch(plan.tick_relation, &TupleBatch::from_rows(2, &rows));
        rec.end(open);
        let open = rec.begin("serve.refresh");
        let refreshed = staged.and_then(|()| self.writer.refresh());
        let refresh_s = rec.end(open);
        rec.end(tick);
        if let Ok(stats) = &refreshed {
            self.inserted.extend_from_slice(&rows);
            rec.push("engine.rerun_s", stats.wall_seconds);
            rec.push("serve.publish_s", refresh_s - stats.wall_seconds);
            if round == 0 {
                // Sampled on the first tick only, so neither depends on
                // how many rounds the budget allowed: the raw join output
                // of the re-run (later ticks re-join the earlier ticks'
                // edges too), and the peak a reader-holding writer reaches
                // (the old full stays pinned by the snapshot while the
                // re-run copies it).
                let raw: usize = stats.iteration_records.iter().map(|r| r.new_tuples).sum();
                rec.push("engine.rerun_new_tuples", raw as f64);
                rec.push(
                    "peak_device_bytes",
                    self.device.metrics().peak_bytes_in_use() as f64,
                );
            }
        }
        let ok = refreshed.is_ok() && self.handle.generation() == generation + 1;
        ops.check(ok, || {
            format!("tick {round}: {:?}", refreshed.as_ref().err())
        });
        rec.end(round_span);
        refreshed.map(|_| ())
    }

    /// Ends the session: records the generation count and compares the
    /// published snapshot with a from-scratch run.
    fn finish(
        self,
        stage: &Stage,
        plan: &ServePlan,
        rec: &mut Recorder,
    ) -> EngineResult<(ServeWriter, bool)> {
        rec.push("serve.generations", self.handle.generation() as f64);
        let equal = published_equals_from_scratch(stage, plan, &self.inserted, &self.handle)?;
        Ok((self.writer, equal))
    }
}

/// The monotone half of the incremental path's soundness gate: after all
/// ticks, every relation of the published snapshot must equal, tuple for
/// tuple, what a fresh engine derives from the accumulated facts.
fn published_equals_from_scratch(
    stage: &Stage,
    plan: &ServePlan,
    inserted: &[[u32; 2]],
    handle: &ServeHandle,
) -> EngineResult<bool> {
    let device = device(Leg::Serial);
    let mut engine = build_engine(&device, stage, Leg::Serial)?;
    for facts in &stage.inputs {
        engine.add_facts_flat(facts.relation, &facts.flat)?;
    }
    engine.add_facts(plan.tick_relation, inserted)?;
    engine.run()?;
    let fresh = engine.snapshot()?;
    let published = handle.latest();
    Ok(published
        .relation_names()
        .iter()
        .all(|name| published.sorted_tuples_flat(name) == fresh.sorted_tuples_flat(name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// A scaled-down run of each of the six workloads: every oracle
    /// active, nothing may fail, and every end-to-end sample must exist.
    #[test]
    fn smoke_of_every_workload_passes_every_oracle() {
        for workload in &WORKLOADS {
            for tracing in [false, true] {
                let mut rec = Recorder::new(tracing);
                let mut ops = Ops::default();
                let config = RunConfig {
                    seed: 11,
                    seconds: 0.0,
                    size: Size::Smoke,
                };
                let out = run_workload(workload, &config, &mut rec, &mut ops);
                assert_eq!(ops.failed, 0, "{}: {:?}", workload.name, ops.first_failure);
                assert!(out.writer.is_some());
                // The warm-up's samples are discarded.
                assert_eq!(rec.samples("fixpoint_wall_s").len(), MIN_TRIALS);
                assert_eq!(rec.samples("setup_s").len(), MIN_TRIALS);
                assert_eq!(rec.samples("serve.tick").len(), MIN_ROUNDS);
                assert_eq!(rec.samples("serve.goal_query").len(), MIN_ROUNDS);
                assert_eq!(
                    rec.samples("serve.point_lookup").len(),
                    MIN_ROUNDS * workloads::LOOKUPS_PER_ROUND
                );
                assert_eq!(rec.spans().is_empty(), !tracing);
                assert_eq!(rec.samples("trace.on_wall_s").is_empty(), !tracing);
                let lookups = (MIN_ROUNDS
                    * (workloads::LOOKUPS_PER_ROUND + workload.goal_lookups_per_round))
                    as u64;
                assert!(ops.attempted > lookups);
            }
        }
    }

    #[test]
    fn a_wrong_oracle_is_counted_as_a_failed_operation() {
        let workload = &WORKLOADS[0];
        let config = RunConfig {
            seed: 3,
            seconds: 0.0,
            size: Size::Smoke,
        };
        let (mut expected, _) = workloads::oracle(workload.id, config.seed, config.size);
        if let Expected::Tuples { flat, .. } = &mut expected[0][0] {
            let last = flat.len() - 1;
            flat[last] ^= 1;
        }
        let mut rec = Recorder::new(false);
        let mut ops = Ops::default();
        let mut reference = None;
        let trial = fixpoint_trial(
            workload,
            || workloads::inputs(workload.id, config.seed, config.size),
            Leg::Serial,
            &expected,
            &mut reference,
            &mut rec,
            &mut ops,
        );
        assert!(trial.is_some());
        assert_eq!((ops.attempted, ops.failed), (1, 1));
        assert!(ops
            .first_failure
            .unwrap()
            .contains("differ from the oracle"));
    }

    /// An engine `Err` in any stage of a traced trial is one failed
    /// operation, and every span is closed behind it: the recorder's
    /// nesting asserts would panic otherwise.
    #[test]
    fn an_engine_error_in_a_traced_trial_is_a_failed_operation_not_a_panic() {
        let workload = &WORKLOADS[4]; // two stages
        let config = RunConfig {
            seed: 3,
            seconds: 0.0,
            size: Size::Smoke,
        };
        let (expected, _) = workloads::oracle(workload.id, config.seed, config.size);
        for break_it in [
            // `build()` fails on the second stage: unparsable program.
            (|inputs: &mut Inputs| inputs.stages[1].program = "Reach(x, y) :- ") as fn(&mut Inputs),
            // `add_facts_flat` fails on the first: no such relation.
            |inputs: &mut Inputs| inputs.stages[0].inputs[0].relation = "NoSuchRelation",
        ] {
            let mut rec = Recorder::new(true);
            let mut ops = Ops::default();
            let trial = fixpoint_trial(
                workload,
                || {
                    let mut inputs = workloads::inputs(workload.id, config.seed, config.size);
                    break_it(&mut inputs);
                    inputs
                },
                Leg::Serial,
                &expected,
                &mut None,
                &mut rec,
                &mut ops,
            );
            assert!(trial.is_none());
            assert_eq!((ops.attempted, ops.failed), (1, 1));
            // What `run_workload` and `run_probes` do next.
            rec.set_tracing(true);
            let probes = rec.begin("probes");
            rec.end(probes);
            assert!(rec.spans().iter().all(|span| span.end_ns >= span.start_ns));
            assert!(rec.samples("fixpoint_wall_s").is_empty());
        }
    }

    #[test]
    fn every_backend_leg_reaches_the_serial_checksum() {
        let workload = &WORKLOADS[4]; // strat-negagg: two stages, AntiJoin + Reduce
        let config = RunConfig {
            seed: 7,
            seconds: 0.0,
            size: Size::Smoke,
        };
        let (expected, _) = workloads::oracle(workload.id, config.seed, config.size);
        let mut rec = Recorder::new(false);
        let mut ops = Ops::default();
        let mut reference = None;
        let legs = [
            Leg::Serial,
            Leg::Workers2,
            Leg::Sharded2,
            Leg::Pipelined2,
            Leg::MultiGpu2,
        ];
        for leg in legs {
            fixpoint_trial(
                workload,
                || workloads::inputs(workload.id, config.seed, config.size),
                leg,
                &expected,
                &mut reference,
                &mut rec,
                &mut ops,
            );
        }
        assert_eq!(
            (ops.attempted, ops.failed),
            (5, 0),
            "{:?}",
            ops.first_failure
        );
    }

    #[test]
    fn checksum_ignores_row_order_but_not_content() {
        let a = TupleBatch::from_rows(2, [[1u32, 2], [3, 4], [5, 6]]);
        let b = TupleBatch::from_rows(2, [[5u32, 6], [1, 2], [3, 4]]);
        let c = TupleBatch::from_rows(2, [[5u32, 6], [1, 2], [3, 5]]);
        assert_eq!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
        assert_ne!(
            checksum(&a),
            checksum(&TupleBatch::from_rows(2, [[1u32, 2]]))
        );
    }
}
