//! Stratified workloads: negation and head aggregates.
//!
//! Two programs exercise the stratified-evaluation path end to end:
//!
//! - [`run_negated_reach`] — CSPA-style negated-filter transitive
//!   closure. `Blocked` nodes (every `stride`-th vertex, the kind of
//!   "unsupported operation" filter DDisasm and CSPA apply) are excluded
//!   from the closure with `!Blocked(y)`, which lowers to an anti-join
//!   against the completed lower stratum.
//! - [`run_shortest_path`] — hop-count shortest paths via a `min` head
//!   aggregate. Path lengths are encoded through a bounded `Succ`
//!   relation (the engine's domain is plain `u32`, so arithmetic is
//!   spelled as an extensional successor table), and `SP(x, y, min(d))`
//!   reduces the finished `PathLen` relation group-by-(x, y).
//!
//! Both carry host-side reference implementations for cross-checking.

use gpulog::{EngineConfig, EngineResult, GpulogEngine, RunStats};
use gpulog_datasets::EdgeList;
use gpulog_device::Device;

/// Soufflé-style source of the negated-filter REACH program.
pub const NEGATED_REACH_PROGRAM: &str = r"
.decl Edge(x: number, y: number)
.input Edge
.decl Blocked(x: number)
.input Blocked
.decl Reach(x: number, y: number)
.output Reach
Reach(x, y) :- Edge(x, y), !Blocked(y).
Reach(x, z) :- Reach(x, y), Edge(y, z), !Blocked(z).
";

/// Soufflé-style source of the shortest-path-via-`min` program.
pub const SHORTEST_PATH_PROGRAM: &str = r"
.decl Edge(x: number, y: number)
.input Edge
.decl Succ(d: number, d1: number)
.input Succ
.decl PathLen(x: number, y: number, d: number)
.decl SP(x: number, y: number, d: number)
.output SP
PathLen(x, y, 1) :- Edge(x, y).
PathLen(x, z, d1) :- PathLen(x, y, d), Edge(y, z), Succ(d, d1).
SP(x, y, min(d)) :- PathLen(x, y, d).
";

/// Result of one negated-filter REACH run.
#[derive(Debug, Clone)]
pub struct NegatedReachResult {
    /// Engine statistics for the run.
    pub stats: RunStats,
    /// Number of tuples in the derived `Reach` relation.
    pub reach_size: usize,
}

/// Result of one shortest-path run.
#[derive(Debug, Clone)]
pub struct ShortestPathResult {
    /// Engine statistics for the run.
    pub stats: RunStats,
    /// Number of `(x, y, min_hops)` tuples in the derived `SP` relation.
    pub sp_size: usize,
}

/// The `Blocked` fact set for `graph`: every `stride`-th vertex id below
/// the graph's id bound. `stride` must be at least 2 so the closure keeps
/// something to derive.
pub fn blocked_nodes(graph: &EdgeList, stride: u32) -> Vec<u32> {
    assert!(stride >= 2, "stride must leave unblocked nodes");
    (0..graph.id_bound()).step_by(stride as usize).collect()
}

/// Builds an engine loaded with `graph` and its `Blocked` filter, ready to
/// run negated-filter REACH.
///
/// # Errors
///
/// Returns engine or device errors.
pub fn prepare_negated_reach(
    device: &Device,
    graph: &EdgeList,
    stride: u32,
    config: EngineConfig,
) -> EngineResult<GpulogEngine> {
    let mut engine = GpulogEngine::builder(device)
        .program(NEGATED_REACH_PROGRAM)
        .config(config)
        .build()?;
    engine.add_facts_flat("Edge", &graph.to_flat())?;
    engine.add_facts_flat("Blocked", &blocked_nodes(graph, stride))?;
    Ok(engine)
}

/// Runs negated-filter REACH on `graph`, blocking every `stride`-th node.
///
/// # Errors
///
/// Returns engine or device errors (including out-of-memory).
pub fn run_negated_reach(
    device: &Device,
    graph: &EdgeList,
    stride: u32,
    config: EngineConfig,
) -> EngineResult<NegatedReachResult> {
    let mut engine = prepare_negated_reach(device, graph, stride, config)?;
    let stats = engine.run()?;
    Ok(NegatedReachResult {
        reach_size: engine.relation_size("Reach").unwrap_or(0),
        stats,
    })
}

/// Runs shortest-path-via-`min` on `graph` with hop counts bounded by
/// `max_hops` (the extent of the `Succ` table).
///
/// # Errors
///
/// Returns engine or device errors (including out-of-memory).
pub fn run_shortest_path(
    device: &Device,
    graph: &EdgeList,
    max_hops: u32,
    config: EngineConfig,
) -> EngineResult<ShortestPathResult> {
    let mut engine = GpulogEngine::builder(device)
        .program(SHORTEST_PATH_PROGRAM)
        .config(config)
        .build()?;
    engine.add_facts_flat("Edge", &graph.to_flat())?;
    let succ: Vec<u32> = (1..max_hops).flat_map(|d| [d, d + 1]).collect();
    engine.add_facts_flat("Succ", &succ)?;
    let stats = engine.run()?;
    Ok(ShortestPathResult {
        sp_size: engine.relation_size("SP").unwrap_or(0),
        stats,
    })
}

/// Host reference for the negated-filter closure: BFS that never enters a
/// blocked node.
pub fn reference_negated_closure(graph: &EdgeList, stride: u32) -> Vec<(u32, u32)> {
    use std::collections::{HashSet, VecDeque};
    let blocked: HashSet<u32> = blocked_nodes(graph, stride).into_iter().collect();
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
        let mut queue: VecDeque<u32> = adj[start as usize]
            .iter()
            .copied()
            .filter(|v| !blocked.contains(v))
            .collect();
        while let Some(v) = queue.pop_front() {
            if seen.insert(v) {
                closure.push((start, v));
                for &next in &adj[v as usize] {
                    if !blocked.contains(&next) && !seen.contains(&next) {
                        queue.push_back(next);
                    }
                }
            }
        }
    }
    closure.sort_unstable();
    closure
}

/// Host reference for bounded shortest paths: BFS hop counts from every
/// source, truncated at `max_hops`.
pub fn reference_shortest_paths(graph: &EdgeList, max_hops: u32) -> Vec<(u32, u32, u32)> {
    use std::collections::{HashMap, VecDeque};
    let bound = graph.id_bound() as usize;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); bound];
    for &(a, b) in &graph.edges {
        adj[a as usize].push(b);
    }
    let mut paths = Vec::new();
    for start in 0..bound as u32 {
        if adj[start as usize].is_empty() {
            continue;
        }
        let mut dist: HashMap<u32, u32> = HashMap::new();
        let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
        queue.push_back((start, 0));
        while let Some((v, d)) = queue.pop_front() {
            if d == max_hops {
                continue;
            }
            for &next in &adj[v as usize] {
                if let std::collections::hash_map::Entry::Vacant(slot) = dist.entry(next) {
                    slot.insert(d + 1);
                    queue.push_back((next, d + 1));
                }
            }
        }
        for (&node, &d) in &dist {
            paths.push((start, node, d));
        }
    }
    paths.sort_unstable();
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_datasets::generators::{hub_graph, random_graph};
    use gpulog_device::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    #[test]
    fn negated_reach_matches_the_host_reference() {
        let d = device();
        for seed in 0..3u64 {
            let g = random_graph(40, 120, seed);
            let result = run_negated_reach(&d, &g, 3, EngineConfig::default()).unwrap();
            let expected = reference_negated_closure(&g, 3);
            assert_eq!(result.reach_size, expected.len(), "seed {seed}");
        }
    }

    #[test]
    fn blocking_nodes_shrinks_the_closure() {
        let d = device();
        let g = hub_graph(80, 3, 7);
        let unfiltered = gpulog_queries_reference_len(&g);
        let filtered = run_negated_reach(&d, &g, 2, EngineConfig::default())
            .unwrap()
            .reach_size;
        assert!(
            filtered < unfiltered,
            "blocking half the nodes must shrink the closure ({filtered} vs {unfiltered})"
        );
    }

    fn gpulog_queries_reference_len(g: &EdgeList) -> usize {
        crate::reach::reference_closure(g).len()
    }

    #[test]
    fn shortest_paths_match_the_host_reference() {
        let d = device();
        let g = random_graph(24, 60, 11);
        let result = run_shortest_path(&d, &g, 5, EngineConfig::default()).unwrap();
        let expected = reference_shortest_paths(&g, 5);
        assert_eq!(result.sp_size, expected.len());
        let mut engine =
            GpulogEngine::builder(&Device::with_workers(DeviceProfile::nvidia_h100(), 4))
                .program(SHORTEST_PATH_PROGRAM)
                .build()
                .unwrap();
        engine.add_facts_flat("Edge", &g.to_flat()).unwrap();
        let succ: Vec<u32> = (1..5u32).flat_map(|d| [d, d + 1]).collect();
        engine.add_facts_flat("Succ", &succ).unwrap();
        engine.run().unwrap();
        let got: Vec<(u32, u32, u32)> = engine
            .relation_batch("SP")
            .map(|b| b.to_rows())
            .unwrap()
            .into_iter()
            .map(|t| (t[0], t[1], t[2]))
            .collect();
        assert_eq!(got, expected, "SP tuples must equal BFS hop counts");
    }

    #[test]
    fn min_keeps_one_distance_per_pair() {
        // Diamond: 0→1→3 and 0→2→3 plus the chord 0→3. SP(0, 3) must be 1.
        let d = device();
        let g = EdgeList::new("diamond", vec![(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]);
        let result = run_shortest_path(&d, &g, 4, EngineConfig::default()).unwrap();
        let mut engine = GpulogEngine::builder(&d)
            .program(SHORTEST_PATH_PROGRAM)
            .build()
            .unwrap();
        engine.add_facts_flat("Edge", &g.to_flat()).unwrap();
        engine
            .add_facts_flat("Succ", &[1u32, 2, 2, 3, 3, 4])
            .unwrap();
        engine.run().unwrap();
        assert!(engine.contains("SP", &[0, 3, 1]), "chord wins for (0, 3)");
        assert!(!engine.contains("SP", &[0, 3, 2]), "min keeps one tuple");
        assert_eq!(result.sp_size, 5); // (0,1,1) (0,2,1) (0,3,1) (1,3,1) (2,3,1)
    }
}
