//! Per-layer probes of the traced run: each layer's public entry points
//! timed directly, on rows shaped by the workload.
//!
//! The probe rows are the served relation's own tuples (every k-th row of
//! the published snapshot, at most [`PROBE_ROWS`]); the inner side of a
//! join is a HISA over the workload's own extensional facts. Every probe
//! pushes samples named like the metric it feeds, already in the metric's
//! unit; the report takes their median.

use crate::run::{self, Leg, Ops, RunConfig, RunOutput, WORKERS};
use crate::trace::Recorder;
use crate::workloads::{self, SplitMix, Workload};
use gpulog::analysis::{magic_rewrite, stratify_program};
use gpulog::ast::{AggregateOp, Atom, Query, Term};
use gpulog::planner::{compile, lower_program, ColumnSource, EmitSource, JoinStep, VersionSel};
use gpulog::ra::nway::FusedLevel;
use gpulog::ra::{
    anti_join_batch, difference_batch, fused_rule_join_batch, group_reduce_batch, hash_join_batch,
    project_batch, scan_select_batch, NwayStrategy,
};
use gpulog::relation::RelationStorage;
use gpulog::{lint_program, optimize_program, parse_program, EbmConfig, GpulogEngine, TupleBatch};
use gpulog_device::thrust::merge::merge_sorted_index_rows;
use gpulog_device::thrust::sort::lexicographic_sort_indices;
use gpulog_device::{Device, DeviceProfile};
use gpulog_hisa::{Hisa, IndexSpec, DEFAULT_LOAD_FACTOR};
use std::hint::black_box;
use std::time::Instant;

/// Cap on the rows a kernel probe runs over.
const PROBE_ROWS: usize = 100_000;
/// Repetitions of a kernel probe (the report takes the median).
const REPS: usize = 5;
/// Calls of a front-end function or a point operation.
const CALLS: usize = 200;

type ProbeResult = Result<(), Box<dyn std::error::Error>>;

/// Runs every probe for a finished traced run.
pub fn run_probes(
    workload: &Workload,
    config: &RunConfig,
    out: &RunOutput,
    rec: &mut Recorder,
    ops: &mut Ops,
) {
    let probes = rec.begin("probes");
    rec.push("baselines.souffle_like_wall_s", out.baseline_seconds);
    rec.push("trace.span_ns", span_cost_ns());
    let result = frontend(out, rec)
        .and_then(|()| kernels(config, out, rec))
        .and_then(|()| serve(out, rec));
    ops.check(result.is_ok(), || format!("probes: {:?}", result.err()));
    backend_legs(workload, config, out, rec, ops);
    rec.end(probes);
}

/// What recording one span costs: a traced recorder opening and closing
/// 10 000 empty spans. A trial has about a dozen, so this times twelve,
/// over the trial's wall, is the overhead tracing adds by construction;
/// `trace.overhead_pct` measures the same thing and is noise-limited.
fn span_cost_ns() -> f64 {
    const SPANS: usize = 10_000;
    let mut scratch = Recorder::new(true);
    let started = Instant::now();
    for _ in 0..SPANS {
        let span = scratch.begin("probe.span");
        scratch.end(span);
    }
    started.elapsed().as_secs_f64() * 1e9 / SPANS as f64
}

/// Median seconds of `CALLS` calls of `call`, pushed in microseconds.
fn time_calls<R>(rec: &mut Recorder, metric: &'static str, mut call: impl FnMut() -> R) {
    let mut seconds = Vec::with_capacity(CALLS);
    let span = rec.begin("probe.frontend");
    for _ in 0..CALLS {
        let started = Instant::now();
        black_box(call());
        seconds.push(started.elapsed().as_secs_f64());
    }
    rec.end(span);
    rec.push(metric, crate::trace::median(&seconds) * 1e6);
}

/// `core::parser`, `core::analysis`, `core::planner`, and the engine
/// constructor, each on the served stage's program source.
fn frontend(out: &RunOutput, rec: &mut Recorder) -> ProbeResult {
    let plan = &out.inputs.serve;
    let source = out.inputs.stages[plan.stage].program;
    let ast = parse_program(source)?;
    let optimized = optimize_program(&ast)?.program;
    let compiled = compile(&optimized)?;
    let mut terms = vec![Term::var("a"), Term::var("b")];
    if let Some(column) = plan.bound_column {
        terms[column] = Term::Const(plan.keys[0]);
    }
    let goal = Query::new(Atom::new(plan.relation, terms));
    magic_rewrite(&ast, &goal)?;
    let device = Device::with_workers(DeviceProfile::nvidia_h100(), WORKERS);

    time_calls(rec, "frontend.parse_us", || parse_program(source));
    time_calls(rec, "frontend.stratify_us", || stratify_program(&ast));
    time_calls(rec, "frontend.lint_optimize_us", || {
        (lint_program(&ast), optimize_program(&ast))
    });
    time_calls(rec, "frontend.compile_us", || compile(&optimized));
    time_calls(rec, "frontend.lower_us", || {
        lower_program(&compiled, NwayStrategy::default())
    });
    time_calls(rec, "frontend.magic_rewrite_us", || {
        magic_rewrite(&ast, &goal)
    });
    time_calls(rec, "frontend.engine_build_us", || {
        GpulogEngine::builder(&device).program(source).build()
    });
    Ok(())
}

/// Times `REPS` repetitions of a kernel over `rows` rows and pushes each
/// as millions of rows per second.
fn throughput<R>(
    rec: &mut Recorder,
    metric: &'static str,
    rows: usize,
    mut kernel: impl FnMut() -> R,
) {
    for _ in 0..REPS {
        let span = rec.begin("probe.kernel");
        black_box(kernel());
        let seconds = rec.end(span);
        rec.push(metric, rows as f64 / seconds.max(1e-12) / 1e6);
    }
}

/// Times `REPS` repetitions of `prepare` then `measured`, pushing only the
/// measured part, scaled (1e3 for ms, 1e6 for µs).
fn prepared<S, R>(
    rec: &mut Recorder,
    metric: &'static str,
    scale: f64,
    mut prepare: impl FnMut() -> Result<S, Box<dyn std::error::Error>>,
    mut measured: impl FnMut(&mut S) -> R,
) -> ProbeResult {
    for _ in 0..REPS {
        let mut state = prepare()?;
        let span = rec.begin("probe.kernel");
        black_box(measured(&mut state));
        let seconds = rec.end(span);
        rec.push(metric, seconds * scale);
    }
    Ok(())
}

/// Every `step`-th row of a sorted-unique batch (still sorted-unique),
/// and the rows left over.
fn split_every(batch: &TupleBatch, step: usize) -> (TupleBatch, TupleBatch) {
    let arity = batch.arity();
    let (mut taken, mut rest) = (Vec::new(), Vec::new());
    for (i, row) in batch.rows().enumerate() {
        if i % step == 0 {
            taken.extend_from_slice(row);
        } else {
            rest.extend_from_slice(row);
        }
    }
    (
        TupleBatch::from_sorted_unique_flat(arity, taken),
        TupleBatch::from_sorted_unique_flat(arity, rest),
    )
}

/// `core::ra`, `core::relation`, `hisa` and `device::thrust`, on the
/// workload's own rows.
fn kernels(config: &RunConfig, out: &RunOutput, rec: &mut Recorder) -> ProbeResult {
    let plan = &out.inputs.serve;
    let writer = out.writer.as_ref().ok_or("no served engine to probe")?;
    let all = writer
        .handle()
        .latest()
        .sorted_tuples_flat(plan.relation)
        .ok_or("served relation missing")?;
    // Without the ticks' rows, whose number depends on the run's length.
    let all: Vec<u32> = all
        .chunks_exact(2)
        .filter(|row| row[0] < plan.fresh_base)
        .flatten()
        .copied()
        .collect();
    let sorted = TupleBatch::from_sorted_unique_flat(2, all);
    let step = sorted.len().div_ceil(PROBE_ROWS).max(1);
    let (sorted, _) = split_every(&sorted, step);
    let rows = sorted.len();
    if rows < 8 {
        return Err("too few rows to probe".into());
    }
    // The same rows in a seed-drawn order: what a kernel sees mid-fixpoint.
    let mut order: Vec<usize> = (0..rows).collect();
    SplitMix::new(config.seed).shuffle(&mut order);
    let shuffled = TupleBatch::new(
        2,
        order.iter().flat_map(|&r| sorted.row(r).to_vec()).collect(),
    );
    let edges = &out.inputs.stages[plan.stage].inputs[0];
    let edges = TupleBatch::new(edges.arity, edges.flat.clone());
    let device = Device::with_workers(DeviceProfile::nvidia_h100(), WORKERS);
    let lf = DEFAULT_LOAD_FACTOR;
    let by_first =
        |batch: &TupleBatch| Hisa::build_from_batch(&device, IndexSpec::new(2, vec![0]), batch, lf);

    // core::ra — the rule shape `R(x, z) :- R(x, y), Edge(y, z)`.
    let inner = by_first(&edges)?;
    let step_join = JoinStep {
        relation: 0,
        version: VersionSel::Full,
        outer_key_cols: vec![1],
        inner_key_cols: vec![0],
        inner_const_filters: Vec::new(),
        inner_eq_filters: Vec::new(),
        emit: vec![EmitSource::Outer(0), EmitSource::Inner(1)],
    };
    throughput(rec, "ra.join_mrows_s", rows, || {
        hash_join_batch(&device, &shuffled, &[1], &inner, &[], &[], &step_join.emit)
    });
    let levels = [
        FusedLevel {
            step: &step_join,
            inner: &inner,
            filters: &[],
        },
        FusedLevel {
            step: &step_join,
            inner: &inner,
            filters: &[],
        },
    ];
    let identity = [ColumnSource::Col(0), ColumnSource::Col(1)];
    throughput(rec, "ra.fused_join_mrows_s", rows, || {
        fused_rule_join_batch(&device, &shuffled, &levels, &identity)
    });
    let full = Hisa::build_from_batch(&device, IndexSpec::full_key(2), &sorted, lf)?;
    let empty = Hisa::empty(&device, IndexSpec::full_key(2))?;
    throughput(rec, "ra.diff_mrows_s", rows, || {
        difference_batch(&device, &shuffled, &full)
    });
    throughput(rec, "ra.dedup_mrows_s", rows, || {
        difference_batch(&device, &shuffled, &empty)
    });
    let swapped = [ColumnSource::Col(1), ColumnSource::Col(0)];
    throughput(rec, "ra.project_mrows_s", rows, || {
        project_batch(&device, &shuffled, &swapped)
    });
    throughput(rec, "ra.scan_select_mrows_s", rows, || {
        scan_select_batch(&device, &shuffled, &[], &[(0, 1)], &[0, 1])
    });
    let every_third: Vec<u32> = (0..plan.fresh_base).step_by(3).collect();
    let blocked = Hisa::build(&device, IndexSpec::new(1, vec![0]), &every_third)?;
    throughput(rec, "ra.antijoin_mrows_s", rows, || {
        anti_join_batch(&device, &shuffled, &[ColumnSource::Col(1)], &blocked)
    });
    let triples = TupleBatch::new(
        3,
        shuffled
            .rows()
            .enumerate()
            .flat_map(|(i, row)| [row[0], row[1] % 16, (i % 7) as u32])
            .collect(),
    );
    throughput(rec, "ra.reduce_mrows_s", rows, || {
        group_reduce_batch(&device, &triples, 2, AggregateOp::Min)
    });

    // core::relation — delta install, delta→full merge at two delta
    // sizes, and a secondary index build.
    let ebm = EbmConfig::default();
    let (small_delta, small_base) = split_every(&sorted, 500);
    let (large_delta, large_base) = split_every(&sorted, 4);
    let storage_with = |base: &TupleBatch, delta: &TupleBatch| {
        let mut storage = RelationStorage::new(&device, "probe", 2, lf)?;
        storage.load_full_batch(base)?;
        storage.set_delta_batch(delta)?;
        Ok(storage)
    };
    prepared(
        rec,
        "relation.set_delta_us",
        1e6,
        || Ok(RelationStorage::new(&device, "probe", 2, lf)?),
        |storage| storage.set_delta_batch(&small_delta),
    )?;
    prepared(
        rec,
        "relation.merge_delta_small_us",
        1e6,
        || storage_with(&small_base, &small_delta),
        |storage| storage.merge_delta_into_full(&ebm),
    )?;
    prepared(
        rec,
        "relation.merge_delta_large_ms",
        1e3,
        || storage_with(&large_base, &large_delta),
        |storage| storage.merge_delta_into_full(&ebm),
    )?;
    prepared(
        rec,
        "relation.index_on_ms",
        1e3,
        || storage_with(&sorted, &small_delta),
        |storage| {
            storage
                .full_mut()
                .and_then(|full| full.index_on(&device, &[1]).map(|index| index.len()))
        },
    )?;

    // hisa — builds, merges, and the two point operations.
    throughput(rec, "hisa.build_unsorted_mrows_s", rows, || {
        by_first(&shuffled)
    });
    throughput(rec, "hisa.build_sorted_mrows_s", rows, || by_first(&sorted));
    let small_hisa = by_first(&small_delta)?;
    let large_hisa = by_first(&large_delta)?;
    prepared(
        rec,
        "hisa.merge_small_us",
        1e6,
        || Ok(by_first(&small_base)?),
        |base| base.merge_from(&small_hisa),
    )?;
    prepared(
        rec,
        "hisa.merge_large_ms",
        1e3,
        || Ok(by_first(&large_base)?),
        |base| base.merge_from(&large_hisa),
    )?;
    let index = by_first(&sorted)?;
    rec.push(
        "hisa.bytes_per_tuple",
        index.device_bytes() as f64 / rows as f64,
    );
    let span = rec.begin("probe.kernel");
    let mut hits = 0usize;
    for &key in &plan.keys {
        hits += index.range_query(&[key]).count();
    }
    let seconds = rec.end(span);
    black_box(hits);
    rec.push(
        "hisa.range_query_ns",
        seconds * 1e9 / plan.keys.len() as f64,
    );
    let span = rec.begin("probe.kernel");
    let mut present = 0usize;
    for i in 0..2_000 {
        // Alternate members with rows whose columns are swapped (mostly
        // absent), so both outcomes are timed.
        let row = shuffled.row(i % rows);
        let probe = if i % 2 == 0 {
            [row[0], row[1]]
        } else {
            [row[1], row[0]]
        };
        present += usize::from(index.contains(&probe));
    }
    let seconds = rec.end(span);
    black_box(present);
    rec.push("hisa.contains_ns", seconds * 1e9 / 2_000.0);

    // device::thrust and the allocator — Table 6 as rows.
    throughput(rec, "device.sort_mrows_s", rows, || {
        lexicographic_sort_indices(&device, shuffled.as_flat(), 2, &[0, 1])
    });
    let evens: Vec<u32> = (0..rows as u32).step_by(2).collect();
    let odds: Vec<u32> = (1..rows as u32).step_by(2).collect();
    throughput(rec, "device.merge_mrows_s", rows, || {
        merge_sorted_index_rows(&device, &evens, &odds, sorted.as_flat(), 2, 0)
    });
    // An `Err` is propagated only after its span is closed.
    for _ in 0..CALLS {
        let span = rec.begin("probe.kernel");
        let buffer = device.buffer_filled(rows * 2, 0u32);
        let dropped = buffer.map(|buffer| drop(black_box(buffer)));
        let seconds = rec.end(span);
        dropped?;
        rec.push("device.alloc_fresh_ns", seconds * 1e9);
    }
    device.recycle_u32_buffer(device.pooled_u32_buffer(rows * 2)?);
    for _ in 0..CALLS {
        let span = rec.begin("probe.kernel");
        let recycled = device
            .pooled_u32_buffer(rows * 2)
            .map(|buffer| device.recycle_u32_buffer(black_box(buffer)));
        let seconds = rec.end(span);
        recycled?;
        rec.push("device.alloc_pooled_ns", seconds * 1e9);
    }
    Ok(())
}

/// The serve layer's remaining entry points, on the published snapshot.
fn serve(out: &RunOutput, rec: &mut Recorder) -> ProbeResult {
    let plan = &out.inputs.serve;
    let writer = out.writer.as_ref().ok_or("no served engine to probe")?;
    let handle = writer.handle();
    for _ in 0..CALLS {
        let span = rec.begin("engine.snapshot");
        let snapshot = writer.engine().snapshot();
        rec.end(span);
        black_box(snapshot?);
    }
    let rows = handle
        .point_lookup(plan.relation, &[plan.keys[0]])
        .unwrap_or_default();
    for (i, &key) in plan.keys.iter().enumerate() {
        let probe = match rows.get(i % rows.len().max(1)) {
            Some(row) if i % 2 == 0 => [row[0], row[1]],
            _ => [key, key],
        };
        let span = rec.begin("serve.contains");
        let found = handle.contains(plan.relation, &probe);
        rec.end(span);
        black_box(found);
    }
    for &key in plan.keys.iter().take(CALLS) {
        let span = rec.begin("serve.range_scan");
        let scanned = handle.range_scan(plan.relation, &[key], &[key + 1]);
        rec.end(span);
        black_box(scanned);
    }
    Ok(())
}

/// The same workload with a worker pool and on the three other executors:
/// two trials each, and every fixpoint must reach the serial trials'
/// checksums.
fn backend_legs(
    workload: &Workload,
    config: &RunConfig,
    out: &RunOutput,
    rec: &mut Recorder,
    ops: &mut Ops,
) {
    let mut reference = out.reference.clone();
    for leg in [
        Leg::Workers2,
        Leg::Sharded2,
        Leg::Pipelined2,
        Leg::MultiGpu2,
    ] {
        for _ in 0..2 {
            // Counted as an operation, and failed on an `Err`, in there.
            run::fixpoint_trial(
                workload,
                || workloads::inputs(workload.id, config.seed, config.size),
                leg,
                &out.expected,
                &mut reference,
                rec,
                ops,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report;
    use crate::workloads::{Size, WORKLOADS};

    /// After a traced smoke run plus probes, every per-layer metric of the
    /// report's table has at least one sample to be computed from.
    #[test]
    fn probes_feed_every_per_layer_metric() {
        let workload = &WORKLOADS[4];
        let config = RunConfig {
            seed: 11,
            seconds: 0.0,
            size: Size::Smoke,
        };
        let mut rec = Recorder::new(true);
        let mut ops = Ops::default();
        let out = run::run_workload(workload, &config, &mut rec, &mut ops);
        run_probes(workload, &config, &out, &mut rec, &mut ops);
        assert_eq!(ops.failed, 0, "{:?}", ops.first_failure);
        for metric in report::METRICS.iter().filter(|m| m.bound.is_none()) {
            assert!(
                report::value_of(metric, &rec).is_some(),
                "no samples for {}",
                metric.name
            );
        }
    }

    #[test]
    fn split_every_partitions_a_sorted_batch() {
        let batch = TupleBatch::from_sorted_unique_flat(2, (0..20).collect());
        let (taken, rest) = split_every(&batch, 4);
        assert_eq!(taken.as_flat(), &[0, 1, 8, 9, 16, 17]);
        assert_eq!(taken.len() + rest.len(), batch.len());
        assert!(rest.is_sorted_unique());
    }
}
