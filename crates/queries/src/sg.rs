//! The Same Generation (SG) query — the paper's Section 2 running example
//! and the n-way-join workload of Table 3.

use gpulog::{EngineConfig, EngineResult, GpulogEngine, RunStats};
use gpulog_datasets::EdgeList;
use gpulog_device::Device;

/// Soufflé-style source of the SG program (paper Section 2).
pub const SG_PROGRAM: &str = r"
.decl Edge(x: number, y: number)
.input Edge
.decl SG(x: number, y: number)
.output SG
SG(x, y) :- Edge(p, x), Edge(p, y), x != y.
SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y.
";

/// Result of one SG run.
#[derive(Debug, Clone)]
pub struct SgResult {
    /// Engine statistics for the run.
    pub stats: RunStats,
    /// Number of tuples in the derived `SG` relation.
    pub sg_size: usize,
}

/// Builds a GPUlog engine loaded with `graph`'s edges, ready to run SG.
///
/// # Errors
///
/// Returns engine or device errors.
pub fn prepare(
    device: &Device,
    graph: &EdgeList,
    config: EngineConfig,
) -> EngineResult<GpulogEngine> {
    let mut engine = GpulogEngine::builder(device)
        .program(SG_PROGRAM)
        .config(config)
        .build()?;
    engine.add_facts_flat("Edge", &graph.to_flat())?;
    Ok(engine)
}

/// Runs SG on `graph` with the given configuration.
///
/// # Errors
///
/// Returns engine or device errors (including out-of-memory).
pub fn run(device: &Device, graph: &EdgeList, config: EngineConfig) -> EngineResult<SgResult> {
    let mut engine = prepare(device, graph, config)?;
    let stats = engine.run()?;
    Ok(SgResult {
        sg_size: engine.relation_size("SG").unwrap_or(0),
        stats,
    })
}

/// Reference SG computed on the host by naive iteration to fixpoint.
pub fn reference_sg(graph: &EdgeList) -> Vec<(u32, u32)> {
    use std::collections::HashSet;
    let edges: Vec<(u32, u32)> = graph.edges.clone();
    let mut sg: HashSet<(u32, u32)> = HashSet::new();
    // Base rule.
    for &(p, x) in &edges {
        for &(q, y) in &edges {
            if p == q && x != y {
                sg.insert((x, y));
            }
        }
    }
    // Naive fixpoint of the recursive rule.
    loop {
        let mut added = false;
        let snapshot: Vec<(u32, u32)> = sg.iter().copied().collect();
        for &(a, b) in &snapshot {
            for &(a2, x) in &edges {
                if a2 != a {
                    continue;
                }
                for &(b2, y) in &edges {
                    if b2 == b && x != y && sg.insert((x, y)) {
                        added = true;
                    }
                }
            }
        }
        if !added {
            break;
        }
    }
    let mut out: Vec<(u32, u32)> = sg.into_iter().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_datasets::generators::{binary_tree, layered_dag, random_graph};
    use gpulog_device::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    #[test]
    fn sg_matches_reference_on_small_random_graphs() {
        let d = device();
        for seed in 0..3u64 {
            let g = random_graph(24, 40, seed);
            let result = run(&d, &g, EngineConfig::default()).unwrap();
            let expected = reference_sg(&g);
            assert_eq!(result.sg_size, expected.len(), "seed {seed}");
        }
    }

    #[test]
    fn siblings_in_a_binary_tree_are_same_generation() {
        let d = device();
        let g = binary_tree(4);
        let mut engine = prepare(&d, &g, EngineConfig::default()).unwrap();
        engine.run().unwrap();
        // Nodes 1 and 2 are children of the root.
        assert!(engine.contains("SG", &[1, 2]));
        assert!(engine.contains("SG", &[2, 1]));
        // A node is never in the same generation as its parent in a tree.
        assert!(!engine.contains("SG", &[0, 1]));
        // All leaves of a balanced tree are in the same generation.
        assert!(engine.contains("SG", &[7, 14]));
    }

    #[test]
    fn layered_dag_generations_are_layers() {
        let d = device();
        let g = layered_dag(4, 4, 2, 5);
        let result = run(&d, &g, EngineConfig::default()).unwrap();
        let expected = reference_sg(&g);
        assert_eq!(result.sg_size, expected.len());
    }
}
