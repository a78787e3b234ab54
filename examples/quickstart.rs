//! Quickstart: build an engine with `EngineBuilder`, load facts, run it to
//! fixpoint, and inspect results and run statistics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use gpulog::GpulogEngine;
use gpulog_device::{profile::DeviceProfile, Device};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a device. The profile determines memory capacity and the
    //    analytic cost model used for modeled-device-time reporting.
    let device = Device::new(DeviceProfile::nvidia_h100());

    // 2. Build the engine: `GpulogEngine::builder` takes the program as
    //    Soufflé-style source and exposes every tuning knob (EBM policy,
    //    join strategy, load factor, iteration cap, executor knobs)
    //    as a builder setter. The defaults reproduce the paper's setup.
    let mut engine = GpulogEngine::builder(&device)
        .program(gpulog_examples::QUICKSTART_PROGRAM)
        .max_iterations(100_000)
        .build()?;

    // 3. Load extensional facts (here: a small cycle plus a tail).
    engine.add_facts("Edge", [[0u32, 1], [1, 2], [2, 0], [2, 3], [3, 4]])?;

    // 4. Run to fixpoint. Every rule is lowered to an operator pipeline
    //    (Scan → HashJoin* [→ Project]) and dispatched through the engine's
    //    one executor — `ShardedBackend`, by default at one shard (the
    //    single-device loop) with eager merging. Adding `.shard_count(4)`
    //    to the builder (or setting `EngineConfig::shard_count`) runs the same
    //    loop hash-partitioned: relations shard by join-key hash and each
    //    join/dedup op fans across the worker pool, with results
    //    byte-identical to the one-shard run.
    let stats = engine.run()?;

    // 5. Inspect results: indexed point lookups, borrowed row iteration,
    //    or an owned `TupleBatch` for host-side export.
    println!(
        "Reach has {} tuples",
        engine.relation_size("Reach").unwrap_or(0)
    );
    println!("0 reaches 4?  {}", engine.contains("Reach", &[0, 4]));
    println!("4 reaches 0?  {}", engine.contains("Reach", &[4, 0]));
    let from_zero = engine
        .relation_tuples_iter("Reach")
        .into_iter()
        .flatten()
        .filter(|row| row[0] == 0)
        .count();
    println!("closure pairs leaving node 0: {from_zero}");
    println!();
    println!("fixpoint iterations : {}", stats.iterations);
    println!("wall time           : {:.3} ms", stats.wall_seconds * 1e3);
    println!(
        "modeled H100 time   : {:.3} ms",
        stats.modeled_seconds() * 1e3
    );
    println!(
        "peak device memory  : {:.1} KiB",
        stats.peak_device_bytes as f64 / 1024.0
    );
    Ok(())
}
