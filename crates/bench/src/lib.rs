//! # `gpulog-bench`: the experiment harness
//!
//! One binary per table and figure of the paper's evaluation section:
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `table1_ebm` | Table 1 — REACH with vs. without eager buffer management |
//! | `table2_reach` | Table 2 — REACH: GPUlog vs Soufflé-like vs GPUJoin-like vs cuDF-like |
//! | `table3_sg` | Table 3 — SG: GPUlog vs GPUlog-HIP vs Soufflé-like vs cuDF-like |
//! | `table4_cspa` | Table 4 — CSPA: sizes, GPUlog vs Soufflé-like, speedups |
//! | `table5_hardware` | Table 5 — GPUlog across H100 / A100 / MI250 / MI50 |
//! | `table6_primitives` | Table 6 — sort / merge / allocation, GPU vs CPU |
//! | `figure6_breakdown` | Figure 6 — CSPA phase breakdown |
//!
//! All binaries accept the `GPULOG_SCALE` environment variable (default
//! `0.35`) scaling the synthetic datasets, and print plain-text tables in
//! the same row/column layout as the paper.

use gpulog::EngineConfig;
use gpulog_device::topology::DeviceTopology;
use gpulog_device::{Device, DeviceProfile};
use std::num::NonZeroUsize;

/// Reads the dataset scale factor from `GPULOG_SCALE` (default 0.35).
pub fn scale_from_env() -> f64 {
    std::env::var("GPULOG_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(0.35)
}

/// The VRAM-style memory budget applied to every engine in the comparison
/// tables, scaled with the dataset scale so that the memory-hungry
/// strategies hit it the way they hit 80 GB in the paper.
pub fn vram_budget_bytes(scale: f64) -> usize {
    // At the default scale this is ~24 MB — large enough for GPUlog and the
    // Soufflé-like engine on every dataset, small enough that the fused
    // merge/dedup and dataframe strategies exceed it on the bigger graphs.
    ((68.0 * 1024.0 * 1024.0) * scale) as usize
}

/// The simulated H100 GPUlog runs on in the comparison tables, with its
/// memory capacity replaced by the scaled VRAM budget.
pub fn gpulog_device(scale: f64) -> Device {
    let mut profile = DeviceProfile::nvidia_h100();
    profile.memory_capacity_bytes = vram_budget_bytes(scale);
    Device::new(profile)
}

/// A parsed executor configuration shared by the bench bins' `--backend`
/// flag and the CI matrix's `GPULOG_TEST_BACKEND` variable (via
/// `gpulog_tests::config_from_env`), so the two spec grammars cannot
/// drift apart. Every spec selects the one executor, `ShardedBackend`,
/// with different knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendSpec {
    /// One shard, eager merging: the single-device loop (the default).
    Serial,
    /// `N` hash shards, eager merging.
    Sharded(usize),
    /// One shard per device of an `N`-device NVLink-like topology, priced
    /// by the topology cost model.
    MultiGpu(usize),
    /// `N` hash shards with deferred (background, coalesced) merging.
    Pipelined(usize),
}

impl BackendSpec {
    /// The normalized label (`serial`, `sharded:N`, `multigpu:N`,
    /// `pipelined:N`) used in tables and artifacts.
    pub fn label(&self) -> String {
        match self {
            BackendSpec::Serial => "serial".to_string(),
            BackendSpec::Sharded(n) => format!("sharded:{n}"),
            BackendSpec::MultiGpu(n) => format!("multigpu:{n}"),
            BackendSpec::Pipelined(n) => format!("pipelined:{n}"),
        }
    }

    /// The number of hash partitions the spec evaluates over (1 for
    /// serial; the device count for a topology).
    pub fn shards(&self) -> usize {
        match self {
            BackendSpec::Serial => 1,
            BackendSpec::Sharded(n) | BackendSpec::MultiGpu(n) | BackendSpec::Pipelined(n) => *n,
        }
    }

    /// Re-targets an engine configuration at this backend: sets the shard
    /// count, for `multigpu:N` installs an `N`-device NVLink-like
    /// [`DeviceTopology`], and for `pipelined:N` enables deferred,
    /// coalesced merging over `N` shards.
    pub fn configure(&self, mut config: EngineConfig) -> EngineConfig {
        config.shard_count = 1;
        match self {
            BackendSpec::Serial => {}
            BackendSpec::Sharded(n) => config.shard_count = *n,
            BackendSpec::MultiGpu(n) => {
                let devices = NonZeroUsize::new(*n).expect("parse rejects zero devices");
                config.device_topology = Some(DeviceTopology::nvlink_like(devices));
            }
            BackendSpec::Pipelined(n) => config.pipelined = *n,
        }
        config
    }
}

/// Parses a backend spec: `serial`, `sharded` (4 shards), `sharded:N`,
/// `multigpu:N` (an `N`-device simulated NVLink-like topology), or
/// `pipelined:N` (deferred, coalesced merging over `N` shards).
///
/// # Errors
///
/// Returns a description of the expected syntax for anything else.
pub fn parse_backend_spec(spec: &str) -> Result<BackendSpec, String> {
    let parse_count = |n: &str| n.parse::<usize>().ok().filter(|n| *n >= 1);
    match spec {
        "serial" => Ok(BackendSpec::Serial),
        "sharded" => Ok(BackendSpec::Sharded(4)),
        other => {
            if let Some(n) = other.strip_prefix("sharded:").and_then(parse_count) {
                Ok(BackendSpec::Sharded(n))
            } else if let Some(n) = other.strip_prefix("multigpu:").and_then(parse_count) {
                Ok(BackendSpec::MultiGpu(n))
            } else if let Some(n) = other.strip_prefix("pipelined:").and_then(parse_count) {
                Ok(BackendSpec::Pipelined(n))
            } else {
                Err(format!(
                    "expected `serial`, `sharded`, `sharded:N`, `multigpu:N`, or \
                     `pipelined:N` (N >= 1), got {other:?}"
                ))
            }
        }
    }
}

/// Reads the `--backend serial|sharded:N|multigpu:N|pipelined:N`
/// command-line flag (default `serial`). Exits with a usage message on a
/// malformed spec so CI failures are self-explanatory.
pub fn backend_from_args() -> BackendSpec {
    let args: Vec<String> = std::env::args().collect();
    let mut spec = "serial".to_string();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--backend" {
            match args.get(i + 1) {
                Some(value) => spec = value.clone(),
                None => {
                    eprintln!(
                        "--backend needs a value: serial | sharded | sharded:N | multigpu:N | pipelined:N"
                    );
                    std::process::exit(2);
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    parse_backend_spec(&spec).unwrap_or_else(|err| {
        eprintln!("invalid --backend: {err}");
        std::process::exit(2);
    })
}

/// Formats a ratio as the paper prints speedups, e.g. `37.2x`.
pub fn speedup(baseline_seconds: f64, system_seconds: f64) -> String {
    if system_seconds <= 0.0 {
        return "-".to_string();
    }
    format!("{:.1}x", baseline_seconds / system_seconds)
}

/// A minimal fixed-width text table writer shared by the harness binaries.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must have the same number of cells as the header).
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                line.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * cols;
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Prints a standard experiment banner naming the paper artefact being
/// regenerated.
pub fn banner(what: &str, scale: f64) {
    println!("==============================================================");
    println!("GPUlog reproduction — {what}");
    println!("(synthetic stand-in datasets, scale {scale}; see EXPERIMENTS.md)");
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_table_renders_aligned_columns() {
        let mut t = TextTable::new(["Dataset", "Time (s)"]);
        t.row(["usroads", "17.53"]);
        t.row(["a-very-long-name", "3.1"]);
        let rendered = t.render();
        assert!(rendered.contains("Dataset"));
        assert!(rendered.contains("a-very-long-name"));
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn text_table_rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn speedup_formats_like_the_paper() {
        assert_eq!(speedup(49.48, 1.33), "37.2x");
        assert_eq!(speedup(1.0, 0.0), "-");
    }

    #[test]
    fn backend_specs_parse_and_normalize() {
        assert_eq!(parse_backend_spec("serial"), Ok(BackendSpec::Serial));
        assert_eq!(parse_backend_spec("sharded"), Ok(BackendSpec::Sharded(4)));
        assert_eq!(parse_backend_spec("sharded:7"), Ok(BackendSpec::Sharded(7)));
        assert_eq!(
            parse_backend_spec("multigpu:2"),
            Ok(BackendSpec::MultiGpu(2))
        );
        assert_eq!(
            parse_backend_spec("multigpu:2").unwrap().label(),
            "multigpu:2"
        );
        assert_eq!(
            parse_backend_spec("pipelined:4"),
            Ok(BackendSpec::Pipelined(4))
        );
        assert_eq!(
            parse_backend_spec("pipelined:4").unwrap().label(),
            "pipelined:4"
        );
        assert!(parse_backend_spec("sharded:0").is_err());
        assert!(parse_backend_spec("multigpu:0").is_err());
        assert!(parse_backend_spec("pipelined:0").is_err());
        assert!(parse_backend_spec("pipelined").is_err());
        assert!(parse_backend_spec("gpu").is_err());
    }

    #[test]
    fn backend_specs_configure_engine_configs() {
        let sharded = BackendSpec::Sharded(4).configure(EngineConfig::default());
        assert_eq!(sharded.shard_count, 4);
        assert!(sharded.device_topology.is_none());
        let multi = BackendSpec::MultiGpu(2).configure(EngineConfig::default());
        let topology = multi.device_topology.expect("topology installed");
        assert_eq!(topology.device_count().get(), 2);
        assert_eq!(topology.link().name, "NVLink-like");
        assert_eq!(BackendSpec::MultiGpu(2).shards(), 2);
        let pipelined = BackendSpec::Pipelined(4).configure(EngineConfig::default());
        assert_eq!(pipelined.pipelined, 4);
        assert_eq!(pipelined.shard_count, 1);
        assert!(pipelined.device_topology.is_none());
        assert_eq!(BackendSpec::Pipelined(4).shards(), 4);
    }

    #[test]
    fn scale_default_and_budget_are_positive() {
        assert!(scale_from_env() > 0.0);
        assert!(vram_budget_bytes(0.35) > 1 << 20);
        let d = gpulog_device(0.35);
        assert!(d.profile().memory_capacity_bytes < 1 << 30);
    }
}
