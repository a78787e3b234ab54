//! The metric table, and everything that reads or writes results through
//! it: the per-run metric lines, the result document, `--check`,
//! `--compare`, and the `BENCHMARK.json` schema itself.
//!
//! [`METRICS`] is the single list of metric names. `BENCHMARK.json` is
//! generated from it (`--emit-schema`) and a unit test keeps the committed
//! file equal to it.

use crate::json::Json;
use crate::trace::{self, Recorder};
use crate::workloads::{LOOKUPS_PER_ROUND, WORKLOADS};

/// How a metric is computed from its samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stat {
    Median,
    /// A percentile taken per serve round (`LOOKUPS_PER_ROUND` samples: ten
    /// beyond p99), then the median of the rounds. Every round asks the
    /// same keys, so the value does not depend on how many rounds fitted,
    /// and a noisy spell of the machine inflates a round, not the metric.
    PerRoundPercentile(f64),
    /// The highest supported tail percentile of the sample (≥ 10 samples
    /// beyond it; the median when none is supported).
    Tail,
    /// Which percentile [`Stat::Tail`] used.
    TailPercentile,
    Max,
    /// Relative difference, in percent, of the fastest sample of `source`
    /// (traced trials) against the fastest of `trace.off_wall_s`. Noise
    /// only ever adds time, so the minima isolate a systematic cost far
    /// better than the medians of nine trials each.
    OverheadPct,
}

/// One metric. `bound` is `Some` for end-to-end metrics (the share of the
/// parent's median by which it may worsen), `None` for per-layer ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
    /// Name of the samples it is computed from (usually its own name).
    pub source: &'static str,
    pub stat: Stat,
    /// Multiplier from the samples' unit (seconds, for spans) to `unit`.
    pub scale: f64,
    /// The value depends only on the inputs, so it must repeat to the
    /// digit between two runs of the same commit and seed.
    pub exact: bool,
}

const fn metric(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: false,
        bound: None,
        source: name,
        stat: Stat::Median,
        scale: 1.0,
        exact: false,
    }
}

impl Metric {
    const fn bound(mut self, bound: f64) -> Metric {
        self.bound = Some(bound);
        self
    }
    const fn from(mut self, source: &'static str, stat: Stat, scale: f64) -> Metric {
        self.source = source;
        self.stat = stat;
        self.scale = scale;
        self
    }
    const fn higher(mut self) -> Metric {
        self.higher_is_better = true;
        self
    }
    const fn exact(mut self) -> Metric {
        self.exact = true;
        self
    }
    pub fn is_end_to_end(&self) -> bool {
        self.bound.is_some()
    }
}

use Stat::{Max, Median, OverheadPct, PerRoundPercentile, Tail, TailPercentile};

/// Every metric, end-to-end first. Order is the order of every report.
pub const METRICS: &[Metric] = &[
    // End to end: what a user of the engine and its serving layer sees.
    // Bounds of the host-time metrics are about three times the spread
    // measured over ten seeds on the reference box (README, "Spread").
    metric("setup_s", "s").bound(0.25),
    metric("fixpoint_wall_s", "s").bound(0.20),
    metric("modeled_s", "s").bound(0.01).exact(),
    metric("peak_device_bytes", "B")
        .bound(0.02)
        .from("peak_device_bytes", Max, 1.0)
        .exact(),
    metric("lookup_p50_us", "us")
        .bound(0.20)
        .from("serve.point_lookup", Median, 1e6),
    metric("tick_p50_ms", "ms")
        .bound(0.20)
        .from("serve.tick", Median, 1e3),
    metric("goal_query_p50_ms", "ms")
        .bound(0.20)
        .from("serve.goal_query", Median, 1e3),
    // core::parser / core::analysis / core::planner.
    metric("frontend.parse_us", "us"),
    metric("frontend.stratify_us", "us"),
    metric("frontend.lint_optimize_us", "us"),
    metric("frontend.compile_us", "us"),
    metric("frontend.lower_us", "us"),
    metric("frontend.magic_rewrite_us", "us"),
    metric("frontend.engine_build_us", "us"),
    // core::engine.
    metric("engine.load_facts_s", "s"),
    metric("engine.readback_s", "s"),
    metric("engine.snapshot_us", "us").from("engine.snapshot", Median, 1e6),
    metric("engine.iterations", "count").exact(),
    metric("engine.new_tuples", "count").exact(),
    metric("engine.delta_tuples", "count").exact(),
    metric("engine.dup_ratio", "ratio").exact(),
    metric("engine.tail_iterations", "count").exact(),
    metric("engine.phase.join_s", "s"),
    metric("engine.phase.dedup_s", "s"),
    metric("engine.phase.index_delta_s", "s"),
    metric("engine.phase.index_full_s", "s"),
    metric("engine.phase.merge_s", "s"),
    metric("engine.phase.other_s", "s"),
    metric("engine.unattributed_s", "s"),
    metric("engine.rerun_s", "s"),
    metric("engine.rerun_new_tuples", "count").exact(),
    metric("engine.goal_tuples_materialized", "count"),
    // core::ra.
    metric("ra.join_mrows_s", "Mrows/s").higher(),
    metric("ra.fused_join_mrows_s", "Mrows/s").higher(),
    metric("ra.diff_mrows_s", "Mrows/s").higher(),
    metric("ra.dedup_mrows_s", "Mrows/s").higher(),
    metric("ra.project_mrows_s", "Mrows/s").higher(),
    metric("ra.scan_select_mrows_s", "Mrows/s").higher(),
    metric("ra.antijoin_mrows_s", "Mrows/s").higher(),
    metric("ra.reduce_mrows_s", "Mrows/s").higher(),
    // core::relation.
    metric("relation.set_delta_us", "us"),
    metric("relation.merge_delta_small_us", "us"),
    metric("relation.merge_delta_large_ms", "ms"),
    metric("relation.index_on_ms", "ms"),
    // hisa.
    metric("hisa.build_unsorted_mrows_s", "Mrows/s").higher(),
    metric("hisa.build_sorted_mrows_s", "Mrows/s").higher(),
    metric("hisa.merge_small_us", "us"),
    metric("hisa.merge_large_ms", "ms"),
    metric("hisa.range_query_ns", "ns"),
    metric("hisa.contains_ns", "ns"),
    metric("hisa.bytes_per_tuple", "B").exact(),
    metric("hisa.hash_inserts", "count").exact(),
    metric("hisa.hash_rebuilds", "count").exact(),
    // device.
    metric("device.sort_mrows_s", "Mrows/s").higher(),
    metric("device.merge_mrows_s", "Mrows/s").higher(),
    metric("device.alloc_fresh_ns", "ns"),
    metric("device.alloc_pooled_ns", "ns"),
    metric("device.bytes_moved", "B").exact(),
    metric("device.kernel_launches", "count").exact(),
    metric("device.sort_passes", "count").exact(),
    metric("device.allocations", "count").exact(),
    metric("device.pool_reuse_ratio", "ratio").higher().exact(),
    metric("device.pool_dispatches", "count"),
    metric("device.dispatch_s", "s"),
    metric("device.phase.sort_s", "s"),
    metric("device.phase.merge_s", "s"),
    metric("device.phase.index_s", "s"),
    // core::backend.
    metric("backend.workers2.wall_s", "s"),
    metric("backend.sharded2.wall_s", "s"),
    metric("backend.pipelined2.wall_s", "s"),
    metric("backend.multigpu2.wall_s", "s"),
    metric("backend.pipelined2.stall_share", "ratio"),
    metric("backend.multigpu2.modeled_speedup", "ratio")
        .higher()
        .exact(),
    metric("backend.multigpu2.exchange_bytes", "B").exact(),
    // serve.
    metric("serve.lookup_p99_us", "us").from("serve.point_lookup", PerRoundPercentile(99.0), 1e6),
    metric("serve.goal_lookup_p50_us", "us").from("serve.goal_lookup", Median, 1e6),
    metric("serve.contains_ns", "ns").from("serve.contains", Median, 1e9),
    metric("serve.range_scan_us", "us").from("serve.range_scan", Median, 1e6),
    metric("serve.insert_us", "us").from("serve.insert", Median, 1e6),
    metric("serve.publish_us", "us").from("serve.publish_s", Median, 1e6),
    metric("serve.tick_tail_ms", "ms").from("serve.tick", Tail, 1e3),
    metric("serve.tick_tail_pct", "%").from("serve.tick", TailPercentile, 1.0),
    metric("serve.goal_query_tail_ms", "ms").from("serve.goal_query", Tail, 1e3),
    metric("serve.goal_query_tail_pct", "%").from("serve.goal_query", TailPercentile, 1.0),
    metric("serve.generations", "count"),
    // Context.
    metric("baselines.souffle_like_wall_s", "s"),
    metric("trace.overhead_pct", "%").from("trace.on_wall_s", OverheadPct, 1.0),
    metric("trace.span_ns", "ns"),
];

/// Seconds one run measures for, as fixed in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

/// The values a statistic is the median of: one percentile per serve round
/// for [`Stat::PerRoundPercentile`], the samples themselves otherwise.
fn spread_values(stat: Stat, samples: &[f64]) -> Vec<f64> {
    match stat {
        PerRoundPercentile(pct) => samples
            .chunks(LOOKUPS_PER_ROUND)
            .map(|round| trace::percentile(round, pct))
            .collect(),
        _ => samples.to_vec(),
    }
}

fn apply(stat: Stat, samples: &[f64], rec: &Recorder) -> f64 {
    match stat {
        Median | PerRoundPercentile(_) => trace::median(&spread_values(stat, samples)),
        Tail => trace::percentile(samples, trace::highest_supported_percentile(samples.len())),
        TailPercentile => trace::highest_supported_percentile(samples.len()),
        Max => samples.iter().copied().fold(f64::MIN, f64::max),
        OverheadPct => {
            let fastest = |samples: &[f64]| samples.iter().copied().fold(f64::MAX, f64::min);
            let off = fastest(rec.samples("trace.off_wall_s"));
            100.0 * (fastest(samples) - off) / off
        }
    }
}

/// A metric's value from a run's samples; `None` when the run produced no
/// sample for it.
pub fn value_of(metric: &Metric, rec: &Recorder) -> Option<f64> {
    let samples = rec.samples(metric.source);
    (!samples.is_empty()).then(|| apply(metric.stat, samples, rec) * metric.scale)
}

/// A metric's entry in a result: value and unit and, for an end-to-end
/// metric, the quartiles and the count `n` of the values it is the median
/// of — trials, operations, or (the per-round p99) rounds. This is the
/// spread *inside* one run; it says nothing about the spread between runs,
/// which is what [`compare`] judges by.
pub fn entry_of(metric: &Metric, rec: &Recorder) -> Option<Json> {
    let value = value_of(metric, rec)?;
    let mut entry = Json::obj();
    entry.set("value", Json::Num(value));
    entry.set("unit", Json::Str(metric.unit.to_string()));
    if metric.is_end_to_end() {
        let values = spread_values(metric.stat, rec.samples(metric.source));
        let spread = trace::summarize(&values).expect("non-empty samples");
        // An exact metric has no spread: its samples are equal, or (the
        // peak) it is their maximum.
        let (p25, p75) = if metric.exact {
            (value, value)
        } else {
            (spread.p25 * metric.scale, spread.p75 * metric.scale)
        };
        entry.set("p25", Json::Num(p25));
        entry.set("p75", Json::Num(p75));
        entry.set("n", Json::Num(values.len() as f64));
    }
    if metric.exact {
        entry.set("exact", Json::Bool(true));
    }
    Some(entry)
}

/// The metrics of one run (`traced` selects per-layer or end-to-end), as
/// a JSON object; also prints each as `name value unit`.
pub fn metrics_json(rec: &Recorder, traced: bool, missing: &mut Vec<&'static str>) -> Json {
    let mut metrics = Json::obj();
    for metric in METRICS.iter().filter(|m| m.is_end_to_end() != traced) {
        match entry_of(metric, rec) {
            Some(entry) => {
                let number = |key| entry.get(key).and_then(Json::as_f64);
                let value = number("value").unwrap_or(0.0);
                let samples = match (number("p25"), number("p75"), number("n")) {
                    (Some(p25), Some(p75), Some(n)) => format!(
                        "  (p25 {} p75 {} n = {n})",
                        format_value(p25),
                        format_value(p75)
                    ),
                    _ => String::new(),
                };
                println!(
                    "{:<36} {:>18} {}{samples}",
                    metric.name,
                    format_value(value),
                    metric.unit
                );
                metrics.set(metric.name, entry);
            }
            None => missing.push(metric.name),
        }
    }
    metrics
}

fn format_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.6}")
    }
}

/// The two sum checks of a traced run, printed with their remainders: the
/// top-level spans of the last traced trial against the trial's wall, and
/// `engine.run` against its phases plus the unattributed remainder.
pub fn trace_sums_json(rec: &Recorder) -> Json {
    let mut sums = Json::obj();
    if let Some(trial) = rec.last_span("trial") {
        let wall = rec.spans()[trial].duration_ns() as f64 / 1e9;
        let children = rec.children_seconds(trial);
        println!(
            "trace: trial wall {wall:.6} s = top-level spans {children:.6} s + remainder {:.6} s",
            wall - children
        );
        sums.set("trial_wall_s", Json::Num(wall));
        sums.set("top_level_spans_s", Json::Num(children));
        sums.set("trial_remainder_s", Json::Num(wall - children));
    }
    let run = trace::median(rec.samples("fixpoint_wall_s"));
    let unattributed = trace::median(rec.samples("engine.unattributed_s"));
    println!(
        "trace: engine.run {run:.6} s = phases {:.6} s + unattributed {unattributed:.6} s ({:.2} %)",
        run - unattributed,
        100.0 * unattributed / run
    );
    sums.set("engine_run_s", Json::Num(run));
    sums.set("phases_s", Json::Num(run - unattributed));
    sums.set("unattributed_s", Json::Num(unattributed));
    sums
}

/// The document committed as `BENCHMARK.json`.
pub fn schema_json() -> Json {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let mut doc = Json::obj();
    doc.set(
        "command",
        strs(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "crates/bench/src/bin/gpulog_perf/Cargo.toml",
            "--",
        ]),
    );
    doc.set("paths", strs(&["crates/bench/src/bin/gpulog_perf"]));
    doc.set("run_seconds", Json::Num(RUN_SECONDS as f64));
    doc.set(
        "workloads",
        Json::Arr(
            WORKLOADS
                .iter()
                .map(|w| {
                    let mut o = Json::obj();
                    o.set("name", Json::Str(w.name.to_string()));
                    o.set("why", Json::Str(w.why.to_string()));
                    o
                })
                .collect(),
        ),
    );
    let describe = |m: &Metric| {
        let mut o = Json::obj();
        o.set("name", Json::Str(m.name.to_string()));
        o.set("unit", Json::Str(m.unit.to_string()));
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        o.set("better", Json::Str(better.to_string()));
        if let Some(bound) = m.bound {
            o.set("bound", Json::Num(bound));
        }
        o
    };
    let (end_to_end, per_layer): (Vec<&Metric>, Vec<&Metric>) =
        METRICS.iter().partition(|m| m.is_end_to_end());
    doc.set(
        "end_to_end",
        Json::Arr(end_to_end.into_iter().map(describe).collect()),
    );
    doc.set(
        "per_layer",
        Json::Arr(per_layer.into_iter().map(describe).collect()),
    );
    doc
}

/// One metric as `BENCHMARK.json` describes it, as far as a result must
/// agree with it.
struct SchemaMetric {
    name: String,
    unit: String,
}

/// The names and units a result must carry, read from a parsed
/// `BENCHMARK.json`.
struct Schema {
    workloads: Vec<String>,
    end_to_end: Vec<SchemaMetric>,
    per_layer: Vec<SchemaMetric>,
}

fn read_schema(schema: &Json) -> Result<Schema, String> {
    let list = |key: &str| {
        schema
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("schema: missing array '{key}'"))
    };
    let text = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("schema: entry without '{key}'"))
    };
    let metrics = |key: &str| -> Result<Vec<SchemaMetric>, String> {
        list(key)?
            .iter()
            .map(|item| {
                Ok(SchemaMetric {
                    name: text(item, "name")?,
                    unit: text(item, "unit")?,
                })
            })
            .collect()
    };
    Ok(Schema {
        workloads: list("workloads")?
            .iter()
            .map(|item| text(item, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Validates a result document against the schema: every workload, every
/// metric by name and unit, finite values, sane operation counts. Returns
/// every problem found.
pub fn check(result: &Json, schema: &Json) -> Vec<String> {
    let schema = match read_schema(schema) {
        Ok(schema) => schema,
        Err(problem) => return vec![problem],
    };
    let mut problems = Vec::new();
    for key in ["nproc", "workers", "seed", "seconds", "commit", "rustc"] {
        if result.get("environment").and_then(|e| e.get(key)).is_none() {
            problems.push(format!("environment.{key} is missing"));
        }
    }
    let Some(workloads) = result.get("workloads") else {
        problems.push("no 'workloads' object".into());
        return problems;
    };
    for name in &schema.workloads {
        let Some(workload) = workloads.get(name) else {
            problems.push(format!("workload '{name}' is missing"));
            continue;
        };
        let count = |key: &str| workload.get(key).and_then(Json::as_f64);
        match (count("attempted"), count("failed")) {
            (Some(a), Some(f)) if a >= 1.0 && f >= 0.0 && a.fract() == 0.0 && f.fract() == 0.0 => {}
            other => problems.push(format!("{name}: bad attempted/failed {other:?}")),
        }
        if workload.get("correct").and_then(Json::as_bool).is_none() {
            problems.push(format!("{name}: no boolean 'correct'"));
        }
        for (section, wanted) in [
            ("end_to_end", &schema.end_to_end),
            ("per_layer", &schema.per_layer),
        ] {
            let Some(members) = workload.get(section).and_then(Json::members) else {
                problems.push(format!("{name}: no '{section}' object"));
                continue;
            };
            for metric in wanted {
                let entry = members
                    .iter()
                    .find(|(k, _)| *k == metric.name)
                    .map(|(_, v)| v);
                let value = entry.and_then(|e| e.get("value")).and_then(Json::as_f64);
                let unit = entry.and_then(|e| e.get("unit")).and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) if v.is_finite() && u == metric.unit => {}
                    (Some(_), Some(u)) => problems.push(format!(
                        "{name}: {} has unit '{u}', want '{}'",
                        metric.name, metric.unit
                    )),
                    _ => problems.push(format!(
                        "{name}: {} is missing or not a number",
                        metric.name
                    )),
                }
            }
            for (key, _) in members {
                if !wanted.iter().any(|metric| metric.name == *key) {
                    problems.push(format!("{name}: {section} has unknown metric '{key}'"));
                }
            }
        }
    }
    problems
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub verdict: &'static str,
    pub line: String,
}

/// One side of a comparison for one workload × metric: the value of each of
/// the side's runs.
struct Side(Vec<f64>);

impl Side {
    fn read(runs: &[Json], workload: &str, section: &str, metric: &str) -> Result<Side, String> {
        runs.iter()
            .map(|run| {
                run.get("workloads")
                    .and_then(|w| {
                        w.get(workload)?
                            .get(section)?
                            .get(metric)?
                            .get("value")?
                            .as_f64()
                    })
                    .ok_or(format!("{workload}: {metric} is missing from a run"))
            })
            .collect::<Result<_, _>>()
            .map(Side)
    }

    fn median(&self) -> f64 {
        trace::median(&self.0)
    }

    fn range(&self) -> (f64, f64) {
        let low = self.0.iter().copied().fold(f64::MAX, f64::min);
        let high = self.0.iter().copied().fold(f64::MIN, f64::max);
        (low, high)
    }

    /// The run-to-run spread as a share of the median: the distance
    /// between the quartiles of the side's runs when it has four or more,
    /// their full range when it has two or three (quartiles of so few
    /// would hide the disagreement). One run has no spread to show.
    fn spread(&self) -> Option<f64> {
        let (low, high) = match self.0.len() {
            0 | 1 => return None,
            2 | 3 => self.range(),
            _ => {
                let summary = trace::summarize(&self.0).expect("four or more runs");
                (summary.p25, summary.p75)
            }
        };
        Some((high - low) / self.median().abs())
    }
}

/// Compares two run sets — each the result documents of several full runs
/// of one commit: every workload × end-to-end metric gets a verdict, and
/// every metric marked exact must be the same to the digit in every run of
/// both sets (`differs` otherwise).
///
/// A side's value is the median of its runs and its spread the distance
/// between their quartiles (the full range of fewer than four runs) over
/// that median: the spread *between* runs, which the quartiles inside one
/// run understate several times over on a shared machine. The verdict is `unresolved` when either side's spread is wider than the
/// metric's bound — or unknown, the side being a single run — because the
/// medians then cannot settle it; otherwise `regressed` when `b` is worse
/// than `a` by more than the bound, else `ok`. Comparing a set with itself
/// is the same-commit check: it asks only whether the set's runs agree
/// within every bound.
pub fn compare(a: &[Json], b: &[Json]) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in WORKLOADS.iter().map(|w| w.name) {
        for metric in METRICS {
            let section = if metric.is_end_to_end() {
                "end_to_end"
            } else {
                "per_layer"
            };
            if !metric.is_end_to_end() && !metric.exact {
                continue;
            }
            let side_a = Side::read(a, workload, section, metric.name)?;
            let side_b = Side::read(b, workload, section, metric.name)?;
            let (ma, mb) = (side_a.median(), side_b.median());
            let identical = side_a.0.iter().chain(&side_b.0).all(|v| *v == ma);
            let Some(bound) = metric.bound else {
                if !identical {
                    rows.push(Row {
                        workload,
                        metric: metric.name,
                        verdict: "differs",
                        line: format!(
                            "{workload:<13} {:<34} a {:?}  b {:?}  differs",
                            metric.name, side_a.0, side_b.0
                        ),
                    });
                }
                continue;
            };
            let worse = if metric.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let widest = match (side_a.spread(), side_b.spread()) {
                (Some(sa), Some(sb)) => Some(sa.max(sb)),
                _ => None,
            };
            let verdict = if metric.exact {
                if identical {
                    "ok"
                } else {
                    "differs"
                }
            } else if widest.is_none_or(|spread| spread > bound) {
                "unresolved"
            } else if worse > bound {
                "regressed"
            } else {
                "ok"
            };
            let ((la, ha), (lb, hb)) = (side_a.range(), side_b.range());
            rows.push(Row {
                workload,
                metric: metric.name,
                verdict,
                line: format!(
                    "{workload:<13} {:<20} a {ma:>14.6} [{la:.6}, {ha:.6}]  b {mb:>14.6} [{lb:.6}, {hb:.6}] {:<3} {:+7.2} % (bound {:.0} %, run-to-run spread {})  {verdict}",
                    metric.name,
                    metric.unit,
                    100.0 * worse,
                    100.0 * bound,
                    widest.map_or("unknown: one run".to_string(), |s| format!("{:.1} %", 100.0 * s)),
                ),
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn committed_schema() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
            .expect("BENCHMARK.json parses")
    }

    #[test]
    fn committed_benchmark_json_is_the_metric_table() {
        assert_eq!(committed_schema(), schema_json());
    }

    #[test]
    fn the_table_meets_the_contract_limits() {
        let e2e: Vec<&Metric> = METRICS.iter().filter(|m| m.is_end_to_end()).collect();
        let layers = METRICS.len() - e2e.len();
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers));
        let setup = e2e.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(e2e.iter().all(|m| m.bound.unwrap() <= setup.bound.unwrap()));
        assert!(setup.bound.unwrap() <= 0.25 && setup.unit == "s" && !setup.higher_is_better);
        let mut names: Vec<&str> = METRICS.iter().map(|m| m.name).collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in METRICS {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(schema_json().pretty().len() < 64 * 1024);
    }

    /// A result document with every metric at `value`, except the exact
    /// ones, which no run may move: those are 7.
    fn result(value: f64) -> Json {
        let mut workloads = Json::obj();
        for w in &WORKLOADS {
            let (mut e2e, mut layers) = (Json::obj(), Json::obj());
            for m in METRICS {
                let mut entry = Json::obj();
                entry.set("value", Json::Num(if m.exact { 7.0 } else { value }));
                entry.set("unit", Json::Str(m.unit.into()));
                if m.is_end_to_end() {
                    e2e.set(m.name, entry);
                } else {
                    layers.set(m.name, entry);
                }
            }
            let mut o = Json::obj();
            o.set("attempted", Json::Num(10.0));
            o.set("failed", Json::Num(0.0));
            o.set("correct", Json::Bool(true));
            o.set("end_to_end", e2e);
            o.set("per_layer", layers);
            workloads.set(w.name, o);
        }
        let mut env = Json::obj();
        for key in ["nproc", "workers", "seed", "seconds", "commit", "rustc"] {
            env.set(key, Json::Num(1.0));
        }
        let mut doc = Json::obj();
        doc.set("environment", env);
        doc.set("workloads", workloads);
        doc
    }

    fn member<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(doc, |at, key| match at {
            Json::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == key).unwrap().1,
            _ => panic!("not an object"),
        })
    }

    fn set_value(doc: &mut Json, workload: &str, section: &str, metric: &str, value: f64) {
        let path = ["workloads", workload, section, metric, "value"];
        *member(doc, &path) = Json::Num(value);
    }

    #[test]
    fn check_accepts_a_complete_result_and_names_what_is_wrong_in_a_broken_one() {
        let schema = schema_json();
        let good = json::parse(&result(1.5).pretty()).unwrap();
        assert_eq!(check(&good, &schema), Vec::<String>::new());
        let mut bad = good.clone();
        if let Json::Obj(members) = &mut bad {
            members.retain(|(k, _)| k != "environment");
        }
        set_value(&mut bad, "reach-fat", "end_to_end", "setup_s", f64::NAN);
        let problems = check(&json::parse(&bad.compact()).unwrap(), &schema);
        assert!(problems.iter().any(|p| p.contains("environment.commit")));
        assert!(problems.iter().any(|p| p.contains("reach-fat: setup_s")));
        assert_eq!(problems.len(), 7, "{problems:?}");
    }

    #[test]
    fn compare_judges_by_the_spread_between_runs() {
        // A run set against itself: runs 2 % apart agree within every bound.
        let a = [result(100.0), result(102.0)];
        let rows = compare(&a, &a).unwrap();
        let end_to_end = METRICS.iter().filter(|m| m.is_end_to_end()).count();
        assert_eq!(rows.len(), WORKLOADS.len() * end_to_end);
        assert!(rows.iter().all(|r| r.verdict == "ok"), "{rows:?}");

        let mut b = a.clone();
        for run in &mut b {
            set_value(run, "sg-social", "end_to_end", "fixpoint_wall_s", 124.0); // +23 % > 20 %
            set_value(run, "sg-social", "end_to_end", "tick_p50_ms", 119.0); // +18 % within
            set_value(run, "reach-road", "per_layer", "engine.rerun_s", 500.0); // not exact
        }
        set_value(&mut b[0], "reach-road", "end_to_end", "modeled_s", 7.000001);
        set_value(
            &mut b[1],
            "reach-road",
            "per_layer",
            "engine.iterations",
            8.0,
        );
        // Two runs of one set 30 % apart: the medians cannot settle it.
        set_value(
            &mut b[1],
            "cspa-httpd",
            "end_to_end",
            "lookup_p50_us",
            130.0,
        );
        let rows = compare(&a, &b).unwrap();
        let verdict = |w: &str, m: &str| {
            rows.iter()
                .find(|r| r.workload == w && r.metric == m)
                .map(|r| r.verdict)
        };
        assert_eq!(verdict("sg-social", "fixpoint_wall_s"), Some("regressed"));
        assert_eq!(verdict("sg-social", "tick_p50_ms"), Some("ok"));
        assert_eq!(verdict("reach-road", "modeled_s"), Some("differs"));
        assert_eq!(verdict("reach-road", "engine.iterations"), Some("differs"));
        assert_eq!(verdict("reach-road", "engine.rerun_s"), None);
        assert_eq!(verdict("cspa-httpd", "lookup_p50_us"), Some("unresolved"));
        assert_eq!(rows.iter().filter(|r| r.verdict != "ok").count(), 4);

        // The same-commit check is symmetric: a set against itself shows
        // what its runs disagree on, whichever of them was the slower.
        let rows = compare(&b, &b).unwrap();
        let bad: Vec<_> = rows.iter().filter(|r| r.verdict != "ok").collect();
        assert_eq!(bad.len(), 3, "{bad:?}"); // modeled_s, iterations, lookup_p50_us

        // Five runs: the quartiles decide, so one run caught in a slow spell
        // of the machine (+60 %) does not leave the row unresolved, and does
        // not move the median either.
        let five: Vec<Json> = [100.0, 101.0, 160.0, 99.0, 102.0]
            .into_iter()
            .map(result)
            .collect();
        let rows = compare(&a, &five).unwrap();
        assert!(rows.iter().all(|r| r.verdict == "ok"), "{rows:?}");
        let three = &five[..3]; // 100, 101, 160: the range decides
        let rows = compare(&a, three).unwrap();
        assert!(rows.iter().any(|r| r.verdict == "unresolved"));

        // One run on a side has no run-to-run spread to show: only the
        // exact metrics can be settled.
        let rows = compare(&a[..1], &a).unwrap();
        let of = |m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(of("fixpoint_wall_s"), "unresolved");
        assert_eq!(of("modeled_s"), "ok");

        // A metric missing from a run is an error, not a verdict.
        let mut broken = a.clone();
        match member(&mut broken[0], &["workloads", "reach-fat", "end_to_end"]) {
            Json::Obj(members) => members.retain(|(k, _)| k != "setup_s"),
            _ => unreachable!(),
        }
        assert!(compare(&a, &broken).unwrap_err().contains("setup_s"));
    }
}
