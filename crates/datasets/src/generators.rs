//! Synthetic graph generators, one per topology class used in the paper's
//! evaluation.
//!
//! The paper's REACH and SG experiments run over SNAP social/collaboration
//! networks, SuiteSparse finite-element meshes, P2P overlays, and road
//! networks. Those inputs are not redistributable here, so each topology
//! class gets a generator that reproduces its load-bearing characteristics
//! for Datalog evaluation: the fixpoint depth (diameter), the fan-out
//! distribution (join output sizes), and the tail behaviour (many late
//! iterations with tiny deltas for road networks, few fat iterations for
//! social networks).

use crate::graph::EdgeList;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic RNG for reproducible datasets.
fn rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// Uniform random directed graph (Erdős–Rényi style) with `nodes` nodes and
/// approximately `edges` edges.
pub fn random_graph(nodes: u32, edges: usize, seed: u64) -> EdgeList {
    let mut rng = rng(seed);
    let mut list = Vec::with_capacity(edges);
    for _ in 0..edges {
        let a = rng.gen_range(0..nodes);
        let b = rng.gen_range(0..nodes);
        if a != b {
            list.push((a, b));
        }
    }
    let mut g = EdgeList::new(format!("random-{nodes}n-{edges}e"), list);
    g.dedup();
    g
}

/// A long path with occasional shortcut edges: the high-diameter, tiny-delta
/// shape of road networks (`usroads`, `SF.cedge`). REACH on this class runs
/// for hundreds of iterations with small deltas — the long-tail behaviour
/// eager buffer management targets.
pub fn road_network(nodes: u32, shortcut_every: u32, seed: u64) -> EdgeList {
    let mut rng = rng(seed);
    let mut edges = Vec::new();
    for i in 0..nodes.saturating_sub(1) {
        edges.push((i, i + 1));
        // Roads are (mostly) bidirectional.
        edges.push((i + 1, i));
    }
    if shortcut_every > 0 {
        for i in (0..nodes).step_by(shortcut_every as usize) {
            let span = rng.gen_range(2..=shortcut_every.max(3));
            let target = (i + span).min(nodes.saturating_sub(1));
            if target != i {
                edges.push((i, target));
            }
        }
    }
    let mut g = EdgeList::new(format!("road-{nodes}n"), edges);
    g.dedup();
    g
}

/// A 2-D grid mesh with diagonal struts: the finite-element shape
/// (`fe_body`, `fe_ocean`, `fe_sphere`, `vsp_finan`-like meshes). Moderate
/// diameter, very regular fan-out.
pub fn mesh_graph(rows: u32, cols: u32, seed: u64) -> EdgeList {
    let mut rng = rng(seed);
    let id = |r: u32, c: u32| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
            // Occasional diagonal strut, as in an unstructured FE mesh.
            if r + 1 < rows && c + 1 < cols && rng.gen_bool(0.3) {
                edges.push((id(r, c), id(r + 1, c + 1)));
            }
        }
    }
    let mut g = EdgeList::new(format!("mesh-{rows}x{cols}"), edges);
    g.dedup();
    g
}

/// Preferential-attachment (Barabási–Albert style) graph: the power-law,
/// low-diameter shape of social and collaboration networks (`com-dblp`,
/// `CA-HepTH`, `ego-Facebook`, `loc-Brightkite`). Few iterations, large
/// per-iteration joins, heavy skew.
pub fn power_law_graph(nodes: u32, edges_per_node: u32, seed: u64) -> EdgeList {
    let mut rng = rng(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut targets: Vec<u32> = Vec::new(); // node repeated once per degree
                                            // Seed clique.
    let seed_nodes = edges_per_node.max(2).min(nodes);
    for a in 0..seed_nodes {
        for b in 0..seed_nodes {
            if a != b {
                edges.push((a, b));
                targets.push(b);
            }
        }
    }
    for v in seed_nodes..nodes {
        for _ in 0..edges_per_node {
            let t = if targets.is_empty() {
                rng.gen_range(0..v)
            } else {
                targets[rng.gen_range(0..targets.len())]
            };
            if t != v {
                edges.push((v, t));
                // Social edges are reciprocated often enough to matter.
                if rng.gen_bool(0.5) {
                    edges.push((t, v));
                }
                targets.push(t);
                targets.push(v);
            }
        }
    }
    let mut g = EdgeList::new(format!("powerlaw-{nodes}n"), edges);
    g.dedup();
    g
}

/// Hub-and-spoke graph: `hubs` high-degree centers, each spoke node wired to
/// a random hub in both directions, and a hub-to-hub ring so everything is
/// mutually reachable. Unlike [`power_law_graph`] (a smooth preferential-
/// attachment degree *distribution*), this is the airline-network extreme:
/// a hard two-tier topology where nearly every path is spoke → hub → spoke.
/// REACH converges in very few iterations but the hub joins are maximally
/// skewed — the worst case for hash-partition balance, with fat merges.
pub fn hub_graph(nodes: u32, hubs: u32, seed: u64) -> EdgeList {
    let mut rng = rng(seed);
    let hubs = hubs.max(1).min(nodes.max(1));
    let mut edges = Vec::new();
    // Hub-to-hub ring (nodes 0..hubs are the hubs).
    for h in 0..hubs {
        let next = (h + 1) % hubs;
        if next != h {
            edges.push((h, next));
        }
    }
    // Each spoke attaches to one random hub, bidirectionally.
    for v in hubs..nodes {
        let h = rng.gen_range(0..hubs);
        edges.push((v, h));
        edges.push((h, v));
    }
    let mut g = EdgeList::new(format!("hub-{nodes}n-{hubs}h"), edges);
    g.dedup();
    g
}

/// Layered random DAG: the peer-to-peer overlay shape (`Gnutella31`) and a
/// convenient acyclic workload for SG (bounded generation depth).
pub fn layered_dag(layers: u32, width: u32, fanout: u32, seed: u64) -> EdgeList {
    let mut rng = rng(seed);
    let id = |layer: u32, i: u32| layer * width + i;
    let mut edges = Vec::new();
    for layer in 0..layers.saturating_sub(1) {
        for i in 0..width {
            for _ in 0..fanout {
                let j = rng.gen_range(0..width);
                edges.push((id(layer, i), id(layer + 1, j)));
            }
        }
    }
    let mut g = EdgeList::new(format!("dag-{layers}x{width}"), edges);
    g.dedup();
    g
}

/// A balanced binary tree with `depth` levels — the cleanest SG workload
/// (nodes of the same depth are in the same generation) and the graph family
/// used for quick sanity checks.
pub fn binary_tree(depth: u32) -> EdgeList {
    let mut edges = Vec::new();
    let nodes = (1u32 << depth) - 1;
    for v in 0..nodes {
        for child in [2 * v + 1, 2 * v + 2] {
            if child < nodes {
                edges.push((v, child));
            }
        }
    }
    EdgeList::new(format!("tree-d{depth}"), edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_graph_is_deterministic_per_seed() {
        let a = random_graph(100, 500, 7);
        let b = random_graph(100, 500, 7);
        let c = random_graph(100, 500, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.len() > 400);
        assert!(a.id_bound() <= 100);
    }

    #[test]
    fn road_network_has_high_diameter_shape() {
        let g = road_network(1000, 50, 1);
        // Mostly the bidirectional chain: ~2 * (n - 1) edges plus shortcuts.
        assert!(g.len() >= 1998);
        assert!(g.len() < 2100);
    }

    #[test]
    fn mesh_graph_covers_the_grid() {
        let g = mesh_graph(10, 10, 1);
        assert_eq!(g.node_count(), 100);
        // 2 * 9 * 10 orthogonal edges plus some diagonals.
        assert!(g.len() >= 180);
    }

    #[test]
    fn power_law_graph_has_skewed_degree() {
        let g = power_law_graph(500, 3, 3);
        let mut in_degree = vec![0usize; g.id_bound() as usize];
        for &(_, b) in &g.edges {
            in_degree[b as usize] += 1;
        }
        let max = *in_degree.iter().max().unwrap();
        let mean = g.len() as f64 / in_degree.len() as f64;
        assert!(
            max as f64 > 5.0 * mean,
            "expected a hub: max {max}, mean {mean:.1}"
        );
    }

    #[test]
    fn hub_graph_concentrates_degree_on_the_hubs() {
        let g = hub_graph(500, 4, 5);
        assert_eq!(hub_graph(500, 4, 5), g); // deterministic per seed
        let mut degree = vec![0usize; g.id_bound() as usize];
        for &(a, b) in &g.edges {
            degree[a as usize] += 1;
            degree[b as usize] += 1;
        }
        // Every non-hub node touches exactly one hub (two directed edges).
        assert!(degree[4..].iter().all(|&d| d == 2));
        // Hubs carry everything else: ~496 spokes split across 4 hubs.
        assert!(degree[..4].iter().all(|&d| d > 50));
        // The ring keeps the hub tier strongly connected.
        for h in 0..4u32 {
            assert!(g.edges.contains(&(h, (h + 1) % 4)));
        }
    }

    #[test]
    fn layered_dag_is_acyclic_by_construction() {
        let g = layered_dag(5, 10, 2, 9);
        assert!(g.edges.iter().all(|&(a, b)| b / 10 == a / 10 + 1));
    }

    #[test]
    fn binary_tree_has_expected_edge_count() {
        let g = binary_tree(4); // 15 nodes
        assert_eq!(g.len(), 14);
        assert_eq!(g.node_count(), 15);
    }

    #[test]
    fn generators_produce_no_self_loops_or_duplicates() {
        for g in [
            random_graph(50, 300, 2),
            road_network(200, 20, 2),
            mesh_graph(8, 8, 2),
            power_law_graph(200, 3, 2),
            hub_graph(200, 3, 2),
            layered_dag(4, 8, 3, 2),
        ] {
            let mut seen = std::collections::HashSet::new();
            for &(a, b) in &g.edges {
                assert_ne!(a, b, "self loop in {}", g.name);
                assert!(seen.insert((a, b)), "duplicate edge in {}", g.name);
            }
        }
    }
}
