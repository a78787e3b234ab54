//! Building a Datalog program programmatically with `ProgramBuilder` — no
//! source text involved — and tuning the engine configuration (eager buffer
//! management factor, hash-table load factor, join strategy).
//!
//! The program is the DDisasm-flavoured multi-column join the paper uses to
//! motivate requirement R3, plus a small derived summary relation.
//!
//! ```text
//! cargo run --release --example custom_datalog
//! ```

use gpulog::{CmpOp, EbmConfig, GpulogEngine, NwayStrategy, ProgramBuilder, Term};
use gpulog_device::{profile::DeviceProfile, Device};
use gpulog_queries::ddisasm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A program with a two-column join key (ea, reg): exercised through the
    // builder API instead of the parser.
    let program = ProgramBuilder::new()
        .input_relation("def_used", 3) // (ea, reg, kind)
        .input_relation("mem_access", 4) // (op, ea, reg, base)
        .output_relation("unsupported", 2) // (ea, reg)
        .output_relation("unsupported_regs", 1)
        .rule("unsupported", vec![Term::var("ea"), Term::var("reg")])
        .body(
            "def_used",
            vec![Term::var("ea"), Term::var("reg"), Term::var("k")],
        )
        .body(
            "mem_access",
            vec![
                Term::Const(1),
                Term::var("ea"),
                Term::var("reg"),
                Term::var("base"),
            ],
        )
        .constraint(Term::var("base"), CmpOp::Ne, Term::Const(0))
        .end_rule()
        .rule("unsupported_regs", vec![Term::var("reg")])
        .body("unsupported", vec![Term::var("ea"), Term::var("reg")])
        .end_rule()
        .build()?;

    // Tune the engine through the builder: an EBM growth factor above the
    // default k = 2 (more slack per merge, fewer regrowths on this large
    // input) and temporarily-materialized joins (the default, spelled out
    // here).
    let device = Device::new(DeviceProfile::nvidia_a100());
    let mut engine = GpulogEngine::builder(&device)
        .program_ast(&program)
        .ebm(EbmConfig::with_growth_factor(16.0))
        .nway(NwayStrategy::TemporarilyMaterialized)
        .build()?;

    // Reuse the synthetic DDisasm workload generator from gpulog-queries.
    let input = ddisasm::generate(20_000, 7);
    let def_flat: Vec<u32> = input.def_used.iter().flatten().copied().collect();
    let mem_flat: Vec<u32> = input.memory_access.iter().flatten().copied().collect();
    engine.add_facts_flat("def_used", &def_flat)?;
    engine.add_facts_flat("mem_access", &mem_flat)?;

    let stats = engine.run()?;
    println!(
        "def_used {} tuples, mem_access {} tuples",
        input.def_used.len(),
        input.memory_access.len()
    );
    println!(
        "unsupported (multi-column join result): {} tuples",
        engine.relation_size("unsupported").unwrap_or(0)
    );
    println!(
        "distinct registers involved: {}",
        engine.relation_size("unsupported_regs").unwrap_or(0)
    );
    println!(
        "wall {:.1} ms, modeled A100 {:.2} ms, peak device {:.1} KiB",
        stats.wall_seconds * 1e3,
        stats.modeled_seconds() * 1e3,
        stats.peak_device_bytes as f64 / 1024.0
    );
    Ok(())
}
