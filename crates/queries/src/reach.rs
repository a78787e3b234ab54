//! The REACH (transitive closure) query — the paper's Section 1 example and
//! the workload of Tables 1 and 2.

use gpulog::{EngineConfig, EngineResult, GpulogEngine, RunStats};
use gpulog_datasets::EdgeList;
use gpulog_device::Device;

/// Soufflé-style source of the REACH program.
pub const REACH_PROGRAM: &str = r"
.decl Edge(x: number, y: number)
.input Edge
.decl Reach(x: number, y: number)
.output Reach
Reach(x, y) :- Edge(x, y).
Reach(x, y) :- Edge(x, z), Reach(z, y).
";

/// Result of one REACH run.
#[derive(Debug, Clone)]
pub struct ReachResult {
    /// Engine statistics for the run.
    pub stats: RunStats,
    /// Number of tuples in the derived `Reach` relation.
    pub reach_size: usize,
}

/// Builds a GPUlog engine loaded with `graph`'s edges, ready to run REACH.
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
        .program(REACH_PROGRAM)
        .config(config)
        .build()?;
    engine.add_facts_flat("Edge", &graph.to_flat())?;
    Ok(engine)
}

/// Runs REACH on `graph` with the given configuration.
///
/// # Errors
///
/// Returns engine or device errors (including out-of-memory).
pub fn run(device: &Device, graph: &EdgeList, config: EngineConfig) -> EngineResult<ReachResult> {
    let mut engine = prepare(device, graph, config)?;
    let stats = engine.run()?;
    Ok(ReachResult {
        reach_size: engine.relation_size("Reach").unwrap_or(0),
        stats,
    })
}

/// Reference transitive closure computed on the host with a BFS per node;
/// used by tests and cross-engine agreement checks.
pub fn reference_closure(graph: &EdgeList) -> Vec<(u32, u32)> {
    use std::collections::{HashSet, VecDeque};
    let bound = graph.id_bound() as usize;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); bound];
    for &(a, b) in &graph.edges {
        adj[a as usize].push(b);
    }
    let mut closure = Vec::new();
    for start in 0..bound as u32 {
        if adj[start as usize].is_empty() {
            continue;
        }
        let mut seen: HashSet<u32> = HashSet::new();
        let mut queue: VecDeque<u32> = adj[start as usize].iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            if seen.insert(v) {
                closure.push((start, v));
                for &next in &adj[v as usize] {
                    if !seen.contains(&next) {
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    closure.sort_unstable();
    closure
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_datasets::generators::{binary_tree, random_graph, road_network};
    use gpulog_device::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    #[test]
    fn reach_matches_reference_on_random_graphs() {
        let d = device();
        for seed in 0..3u64 {
            let g = random_graph(60, 150, seed);
            let result = run(&d, &g, EngineConfig::default()).unwrap();
            let expected = reference_closure(&g);
            assert_eq!(result.reach_size, expected.len(), "seed {seed}");
        }
    }

    #[test]
    fn reach_on_a_tree_counts_ancestor_descendant_pairs() {
        let d = device();
        let g = binary_tree(5); // 31 nodes
        let result = run(&d, &g, EngineConfig::default()).unwrap();
        assert_eq!(result.reach_size, reference_closure(&g).len());
        assert!(result.stats.iterations >= 4, "tree depth drives iterations");
    }

    #[test]
    fn road_networks_take_many_iterations() {
        let d = device();
        let g = road_network(120, 10, 3);
        let result = run(&d, &g, EngineConfig::default()).unwrap();
        assert!(
            result.stats.iterations > 10,
            "expected a long fixpoint, got {}",
            result.stats.iterations
        );
    }
}
