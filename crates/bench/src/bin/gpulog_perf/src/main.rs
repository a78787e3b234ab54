//! `gpulog_perf` — the repository's benchmark: six named workloads,
//! end-to-end metrics from an untraced run and per-layer metrics from a
//! traced one, every output checked against an independent oracle.
//!
//! ```text
//! gpulog_perf --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is the result JSON
//! gpulog_perf [--seed N] [--seconds S] [--workload W] [--out F]   both passes of every (or one) workload, each a run in a process of its own
//! gpulog_perf --check F [--schema BENCHMARK.json]             validate a result file against the schema
//! gpulog_perf --compare A1,A2[,..] B1,B2[,..]                 verdict per workload x end-to-end metric, run set B against run set A
//! gpulog_perf --compare A1,A2[,..]                            do the runs of one commit agree within every bound?
//! gpulog_perf --emit-schema                                   print BENCHMARK.json from the metric table
//! ```
//!
//! See `README.md` beside this package for the metric glossary and method.

mod json;
mod probes;
mod report;
mod run;
mod trace;
mod workloads;

use json::Json;
use run::{Ops, RunConfig};
use std::process::{Command, ExitCode};
use trace::Recorder;
use workloads::{Size, Workload, WORKLOADS};

const USAGE: &str = "usage: gpulog_perf [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
[--out F] | --check F [--schema BENCHMARK.json] | --compare A1,A2[,..] [B1,B2[,..]] | --emit-schema";

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    out: Option<String>,
    check: Option<String>,
    /// The two run sets, each a comma-separated list of result files; the
    /// second defaults to the first.
    compare: Option<(String, String)>,
    schema: Option<String>,
    emit_schema: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or(format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?);
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && (0.0..=600.0).contains(&seconds)) {
                    return Err("--seconds must be between 0 and 600".into());
                }
                parsed.seconds = Some(seconds);
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                });
            }
            "--out" => parsed.out = Some(value()?),
            "--check" => parsed.check = Some(value()?),
            "--compare" => {
                let a = value()?;
                let b = match it.clone().next() {
                    Some(next) if !next.starts_with("--") => it.next().cloned(),
                    _ => None,
                };
                parsed.compare = Some((a.clone(), b.unwrap_or(a)));
            }
            "--schema" => parsed.schema = Some(value()?),
            "--emit-schema" => parsed.emit_schema = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if let Some(name) = &parsed.workload {
        if workloads::find(name).is_none() {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload '{name}'; one of {names:?}"));
        }
    }
    Ok(parsed)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// The schema: `--schema`, else `BENCHMARK.json` in the working directory
/// (the repository root, where the benchmark is run from).
fn load_schema(args: &Args) -> Result<Json, String> {
    read_json(args.schema.as_deref().unwrap_or("BENCHMARK.json"))
}

/// First line of a command's stdout, or "unknown" (the driver's checkout
/// is not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment(config: &RunConfig) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut env = Json::obj();
    env.set("nproc", Json::Num(nproc as f64));
    env.set("workers", Json::Num(run::WORKERS as f64));
    env.set(
        "device",
        Json::Str("nvidia_h100 (simulated, 80 GiB)".into()),
    );
    env.set(
        "backend",
        Json::Str("serial, EngineConfig::default()".into()),
    );
    env.set("clients", Json::Num(1.0));
    env.set("seed", Json::Num(config.seed as f64));
    env.set("seconds", Json::Num(config.seconds));
    env.set(
        "structure_seed",
        Json::Num(workloads::STRUCTURE_SEED as f64),
    );
    env.set(
        "commit",
        Json::Str(command_line("git", &["rev-parse", "HEAD"])),
    );
    env.set("rustc", Json::Str(command_line("rustc", &["-V"])));
    env
}

/// One run of one workload: its operation counts, its metrics (full
/// entries, keyed by name) and, for a traced run, the sum checks and the
/// spans.
struct Pass {
    attempted: u64,
    failed: u64,
    metrics: Json,
    sums: Option<Json>,
    spans: Option<Json>,
}

impl Pass {
    /// The form a run hands to the full run that started it (`--out`).
    fn to_json(&self) -> Json {
        let mut doc = Json::obj();
        doc.set("attempted", Json::Num(self.attempted as f64));
        doc.set("failed", Json::Num(self.failed as f64));
        doc.set("metrics", self.metrics.clone());
        doc.set("sums", self.sums.clone().unwrap_or(Json::Null));
        doc.set("spans", self.spans.clone().unwrap_or(Json::Null));
        doc
    }

    fn from_json(doc: &Json) -> Option<Pass> {
        let present = |key: &str| doc.get(key).filter(|v| **v != Json::Null).cloned();
        Some(Pass {
            attempted: doc.get("attempted")?.as_f64()? as u64,
            failed: doc.get("failed")?.as_f64()? as u64,
            metrics: doc.get("metrics")?.clone(),
            sums: present("sums"),
            spans: present("spans"),
        })
    }
}

/// Runs one pass and prints its metric lines.
fn one_pass(workload: &Workload, config: &RunConfig, traced: bool) -> Pass {
    let mut rec = Recorder::new(traced);
    let mut ops = Ops::default();
    eprintln!(
        "gpulog_perf: {} seed {} {} s {}",
        workload.name,
        config.seed,
        config.seconds,
        if traced { "traced" } else { "untraced" }
    );
    let out = run::run_workload(workload, config, &mut rec, &mut ops);
    if traced {
        probes::run_probes(workload, config, &out, &mut rec, &mut ops);
    }
    let mut missing = Vec::new();
    let metrics = report::metrics_json(&rec, traced, &mut missing);
    if !missing.is_empty() {
        ops.check(false, || format!("metrics without samples: {missing:?}"));
    }
    if let Some(failure) = &ops.first_failure {
        eprintln!("gpulog_perf: FAILED: {failure}");
    }
    eprintln!(
        "gpulog_perf: {} attempted {} failed {} measured {:.1} s",
        workload.name, ops.attempted, ops.failed, out.measured_seconds
    );
    Pass {
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        sums: traced.then(|| report::trace_sums_json(&rec)),
        spans: traced.then(|| rec.spans_json(workload.name)),
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The driver's form: one run, result JSON on the last line, carrying
/// exactly `{value, unit}` per metric. `--out` also writes everything the
/// run yielded, for the full run that started it.
fn single_run(
    workload: &Workload,
    config: &RunConfig,
    traced: bool,
    out: Option<&str>,
) -> ExitCode {
    let pass = one_pass(workload, config, traced);
    if let Some(path) = out {
        if let Err(error) = std::fs::write(path, pass.to_json().compact()) {
            eprintln!("gpulog_perf: cannot write {path}: {error}");
            return ExitCode::FAILURE;
        }
    }
    let slim = pass
        .metrics
        .members()
        .unwrap_or(&[])
        .iter()
        .map(|(name, entry)| {
            let mut o = Json::obj();
            for key in ["value", "unit"] {
                o.set(key, entry.get(key).cloned().unwrap_or(Json::Null));
            }
            (name.clone(), o)
        })
        .collect();
    let mut result = Json::obj();
    result.set("correct", Json::Bool(pass.failed == 0));
    result.set("attempted", Json::Num(pass.attempted as f64));
    result.set("failed", Json::Num(pass.failed as f64));
    result.set("metrics", Json::Obj(slim));
    println!("{}", result.compact());
    exit_code(pass.failed == 0)
}

/// One run in a process of its own — this program again, in the driver's
/// form — so that a full run measures each workload exactly as the driver
/// does, and none on the heap the workloads before it left behind.
fn pass_in_a_process(
    workload: &Workload,
    config: &RunConfig,
    traced: bool,
    scratch: &str,
) -> Result<Pass, String> {
    let program = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // The exit code says only whether an operation failed, which the
    // pass document says too.
    Command::new(program)
        .args(["--workload", workload.name])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--out", scratch])
        .status()
        .map_err(|e| format!("cannot start a run of {}: {e}", workload.name))?;
    let pass = read_json(scratch)
        .and_then(|doc| Pass::from_json(&doc).ok_or(format!("{scratch}: not a pass document")));
    // Best effort: the file is scratch, and `pass` already holds its content.
    let _ = std::fs::remove_file(scratch);
    pass
}

/// Both passes of every selected workload; writes `--out` and
/// `<out>.trace.json`.
fn full_run(
    selected: &[&Workload],
    config: &RunConfig,
    out: Option<&str>,
) -> Result<ExitCode, String> {
    let scratch = match out {
        Some(path) => format!("{path}.pass.json"),
        None => std::env::temp_dir()
            .join(format!("gpulog_perf.{}.pass.json", std::process::id()))
            .to_string_lossy()
            .into_owned(),
    };
    let mut doc = Json::obj();
    doc.set("benchmark", Json::Str("gpulog_perf".into()));
    doc.set("environment", environment(config));
    let mut results = Json::obj();
    let mut spans = Vec::new();
    let mut all_ok = true;
    for workload in selected {
        println!("== {} — {}", workload.name, workload.why);
        println!("-- end to end (untraced)");
        let untraced = pass_in_a_process(workload, config, false, &scratch)?;
        println!("-- per layer (traced)");
        let traced = pass_in_a_process(workload, config, true, &scratch)?;
        let attempted = untraced.attempted + traced.attempted;
        let failed = untraced.failed + traced.failed;
        all_ok &= failed == 0;
        let failed_share = failed as f64 / attempted as f64;
        println!("{:<36} {:>18} ratio", "failed_share", failed_share);
        let mut entry = Json::obj();
        entry.set("why", Json::Str(workload.why.to_string()));
        entry.set("correct", Json::Bool(failed == 0));
        entry.set("attempted", Json::Num(attempted as f64));
        entry.set("failed", Json::Num(failed as f64));
        entry.set("failed_share", Json::Num(failed_share));
        entry.set("end_to_end", untraced.metrics);
        entry.set("per_layer", traced.metrics);
        entry.set("trace", traced.sums.unwrap_or(Json::Null));
        results.set(workload.name, entry);
        if let Some(Json::Arr(items)) = traced.spans {
            spans.extend(items);
        }
    }
    doc.set("workloads", results);
    if let Some(path) = out {
        let written = std::fs::write(path, doc.pretty()).and_then(|()| {
            std::fs::write(format!("{path}.trace.json"), Json::Arr(spans).compact())
        });
        written.map_err(|error| format!("cannot write {path}: {error}"))?;
        eprintln!("gpulog_perf: wrote {path} and {path}.trace.json");
    }
    Ok(exit_code(all_ok))
}

fn real_main(args: &Args) -> Result<ExitCode, String> {
    if args.emit_schema {
        print!("{}", report::schema_json().pretty());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(path) = &args.check {
        let problems = report::check(&read_json(path)?, &load_schema(args)?);
        for problem in &problems {
            println!("{path}: {problem}");
        }
        println!("{path}: {} problem(s)", problems.len());
        return Ok(exit_code(problems.is_empty()));
    }
    if let Some((a, b)) = &args.compare {
        let run_set = |files: &str| {
            files
                .split(',')
                .map(read_json)
                .collect::<Result<Vec<_>, _>>()
        };
        let rows = report::compare(&run_set(a)?, &run_set(b)?)?;
        for row in &rows {
            println!("{}", row.line);
        }
        let bad = rows.iter().filter(|r| r.verdict != "ok").count();
        println!("{bad} of {} rows are not ok", rows.len());
        return Ok(exit_code(bad == 0));
    }
    let config = RunConfig {
        seed: args.seed.unwrap_or(workloads::STRUCTURE_SEED),
        seconds: args.seconds.unwrap_or(report::RUN_SECONDS as f64),
        size: Size::Full,
    };
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => workloads::find(name).into_iter().collect(),
        None => WORKLOADS.iter().collect(),
    };
    let out = args.out.as_deref();
    match (args.trace, selected.as_slice()) {
        (Some(traced), [workload]) => Ok(single_run(workload, &config, traced, out)),
        (Some(_), _) => Err(format!("--trace needs --workload\n{USAGE}")),
        (None, _) => full_run(&selected, &config, out),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|args| real_main(&args)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("gpulog_perf: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let parsed = args("--workload sg-social --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("sg-social"));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (Some(7), Some(12.0), Some(true))
        );
        assert_eq!(args("").unwrap(), Args::default());
        let parsed = args("--compare a.json,b.json c.json,d.json").unwrap();
        assert_eq!(
            parsed.compare,
            Some(("a.json,b.json".into(), "c.json,d.json".into()))
        );
        // One run set: compared with itself.
        let parsed = args("--compare a.json,b.json --schema s.json").unwrap();
        assert_eq!(
            parsed.compare,
            Some(("a.json,b.json".into(), "a.json,b.json".into()))
        );
        assert_eq!(parsed.schema.as_deref(), Some("s.json"));
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds -1",
            "--seconds inf",
            "--trace 2",
            "--seed",
            "--compare",
            "--frobnicate",
        ] {
            assert!(args(bad).is_err(), "accepted '{bad}'");
        }
    }
}
