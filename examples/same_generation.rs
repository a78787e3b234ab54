//! The Same Generation query on the paper's Figure 1 example graph,
//! printing the iteration-by-iteration deltas the figure walks through,
//! then a larger run comparing the temporarily-materialized and fused
//! n-way join strategies.
//!
//! ```text
//! cargo run --release --example same_generation
//! ```

use gpulog::{EngineConfig, NwayStrategy};
use gpulog_datasets::{generators::layered_dag, EdgeList};
use gpulog_device::{profile::DeviceProfile, Device};
use gpulog_queries::sg;

fn figure1_graph() -> EdgeList {
    EdgeList::new(
        "paper-figure-1",
        vec![
            (0, 1),
            (0, 2),
            (1, 3),
            (1, 4),
            (2, 4),
            (2, 5),
            (3, 6),
            (4, 7),
            (4, 8),
            (5, 8),
        ],
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let device = Device::new(DeviceProfile::nvidia_h100());

    // Part 1: the 9-node graph from Figure 1 of the paper.
    let graph = figure1_graph();
    let mut engine = sg::prepare(&device, &graph, EngineConfig::default())?;
    let stats = engine.run()?;
    println!("SG on the paper's Figure 1 graph");
    println!(
        "  final SG size: {}",
        engine.relation_size("SG").unwrap_or(0)
    );
    for record in &stats.iteration_records {
        println!(
            "  iteration {}: {} tuples derived, {} new (delta)",
            record.iteration, record.new_tuples, record.delta_tuples
        );
    }
    // Borrow the rows straight out of relation storage — no per-row clones.
    let mut tuples: Vec<&[u32]> = engine
        .relation_tuples_iter("SG")
        .into_iter()
        .flatten()
        .collect();
    tuples.sort();
    println!("  SG = {tuples:?}");

    // Part 2: strategy comparison on a layered DAG.
    let big = layered_dag(8, 40, 3, 7);
    for (label, strategy) in [
        (
            "temporarily materialized",
            NwayStrategy::TemporarilyMaterialized,
        ),
        ("fused nested loop", NwayStrategy::FusedNestedLoop),
    ] {
        let cfg = EngineConfig {
            nway: strategy,
            ..EngineConfig::default()
        };
        let result = sg::run(&device, &big, cfg)?;
        println!(
            "strategy {label:<26}: {} tuples, wall {:.1} ms, modeled {:.2} ms",
            result.sg_size,
            result.stats.wall_seconds * 1e3,
            result.stats.modeled_seconds() * 1e3
        );
    }
    Ok(())
}
