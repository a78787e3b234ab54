//! Goal-directed REACH: a point query ("what does *this* node reach?")
//! answered through the magic-sets rewrite instead of the full closure.
//!
//! The program is the *left-recursive* formulation of transitive closure.
//! Under a bound-free goal its magic rewrite degenerates to the ideal
//! case: the only demand rule is the identity (which the rewrite skips),
//! so the magic set is exactly the goal source and the engine materializes
//! one closure row block — `O(|reach(source)|)` tuples instead of the full
//! `O(n²)` closure. The right-recursive formulation in
//! [`crate::reach::REACH_PROGRAM`] stays the full-closure baseline.

use gpulog::{EngineConfig, EngineResult, GpulogEngine, QueryResult, RunStats};
use gpulog_datasets::EdgeList;
use gpulog_device::Device;

/// Soufflé-style source of the goal-directed REACH program (left-recursive,
/// no `?-` goal attached — the source node arrives per call).
pub const GOAL_REACH_PROGRAM: &str = r"
.decl Edge(x: number, y: number)
.input Edge
.decl Reach(x: number, y: number)
.output Reach
Reach(x, y) :- Edge(x, y).
Reach(x, z) :- Reach(x, y), Edge(y, z).
";

/// Result of one goal-directed REACH run.
#[derive(Debug, Clone)]
pub struct GoalReachResult {
    /// Engine statistics for the rewritten program's fixpoint run.
    pub stats: RunStats,
    /// Number of goal answers (nodes reachable from the source).
    pub answer_count: usize,
    /// Tuples materialized by the magic-rewritten run (answers + magic
    /// facts + anything kept fully evaluated) — the number to compare
    /// against the full closure's size.
    pub tuples_materialized: usize,
}

/// Builds an engine loaded with `graph`'s edges, ready for point queries.
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
        .program(GOAL_REACH_PROGRAM)
        .config(config)
        .build()?;
    engine.add_facts_flat("Edge", &graph.to_flat())?;
    Ok(engine)
}

/// Answers `?- Reach(source, y).` on `graph` through the magic-sets
/// rewrite, materializing only the demanded cone.
///
/// # Errors
///
/// Returns engine or device errors (including out-of-memory).
pub fn run_goal(
    device: &Device,
    graph: &EdgeList,
    source: u32,
    config: EngineConfig,
) -> EngineResult<GoalReachResult> {
    let engine = prepare(device, graph, config)?;
    let result = query(&engine, source)?;
    Ok(GoalReachResult {
        answer_count: result.answers.len(),
        tuples_materialized: result.tuples_materialized,
        stats: result.stats,
    })
}

/// Runs the point query `?- Reach(source, y).` on a prepared engine.
///
/// # Errors
///
/// Returns engine or device errors.
pub fn query(engine: &GpulogEngine, source: u32) -> EngineResult<QueryResult> {
    engine.run_query_with("Reach", &[Some(source), None])
}

/// Reference answer set computed on the host: a single BFS from `source`,
/// returned as canonically sorted `(source, reached)` rows — exactly the
/// byte layout [`QueryResult::answers`] uses.
pub fn reference_reachable_from(graph: &EdgeList, source: u32) -> Vec<(u32, u32)> {
    use std::collections::{HashSet, VecDeque};
    let bound = graph.id_bound() as usize;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); bound.max(source as usize + 1)];
    for &(a, b) in &graph.edges {
        adj[a as usize].push(b);
    }
    let mut seen: HashSet<u32> = HashSet::new();
    let mut queue: VecDeque<u32> = adj
        .get(source as usize)
        .map(|next| next.iter().copied().collect())
        .unwrap_or_default();
    let mut answers = Vec::new();
    while let Some(v) = queue.pop_front() {
        if seen.insert(v) {
            answers.push((source, v));
            if let Some(next) = adj.get(v as usize) {
                for &n in next {
                    if !seen.contains(&n) {
                        queue.push_back(n);
                    }
                }
            }
        }
    }
    answers.sort_unstable();
    answers
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reach;
    use gpulog_datasets::generators::{hub_graph, random_graph};
    use gpulog_device::profile::DeviceProfile;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    fn flat(rows: &[(u32, u32)]) -> Vec<u32> {
        rows.iter().flat_map(|&(a, b)| [a, b]).collect()
    }

    #[test]
    fn goal_answers_match_the_host_bfs() {
        let d = device();
        for seed in 0..3u64 {
            let g = random_graph(50, 120, seed);
            for source in [0u32, 7, 23] {
                let result = run_goal(&d, &g, source, EngineConfig::default()).unwrap();
                let expected = reference_reachable_from(&g, source);
                assert_eq!(
                    result.answer_count,
                    expected.len(),
                    "seed {seed} src {source}"
                );
            }
        }
    }

    #[test]
    fn goal_answers_are_byte_identical_to_the_reference_rows() {
        let d = device();
        let g = hub_graph(80, 4, 11);
        let engine = prepare(&d, &g, EngineConfig::default()).unwrap();
        for source in [0u32, 5, 40] {
            let result = query(&engine, source).unwrap();
            let expected = flat(&reference_reachable_from(&g, source));
            assert_eq!(result.answers.as_flat(), &expected[..], "source {source}");
        }
    }

    #[test]
    fn goal_run_materializes_a_fraction_of_the_closure() {
        let d = device();
        let g = hub_graph(120, 4, 17);
        let closure = reach::run(&d, &g, EngineConfig::default())
            .unwrap()
            .reach_size;
        let result = run_goal(&d, &g, 60, EngineConfig::default()).unwrap();
        // On a hub graph everything is mutually reachable: one source's
        // answers are ~n rows while the closure holds ~n² pairs.
        assert!(result.answer_count > 0);
        assert!(
            result.tuples_materialized < closure / 4,
            "magic materialized {} tuples against a {closure}-tuple closure",
            result.tuples_materialized
        );
    }

    #[test]
    fn unreachable_sources_answer_empty() {
        let d = device();
        let g = EdgeList::new("two-islands", vec![(0, 1), (2, 3)]);
        let result = run_goal(&d, &g, 1, EngineConfig::default()).unwrap();
        assert_eq!(result.answer_count, 0);
        assert!(reference_reachable_from(&g, 1).is_empty());
    }
}
