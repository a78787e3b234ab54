//! The six workloads: what each feeds the engine, and what an independent
//! oracle says must come out.
//!
//! **How `--seed` makes the inputs.** Each workload has a fixed *structure*
//! (one generator call with [`STRUCTURE_SEED`]); the run's seed draws a
//! permutation of the node ids and the order the facts are handed over
//! in, and nothing else; lookup and goal keys are a fixed sequence of the
//! structure's nodes, seen through that permutation. Two seeds therefore give two
//! different fact sets the engine has never seen, but the same closure
//! size and iteration count — which is what lets `modeled_s` and
//! `peak_device_bytes` carry a 1–2 % bound. Seeding the generators
//! themselves was measured first and rejected: across seeds 11–16 the
//! CSPA shape ran between 1.0 s and 59.9 s per fixpoint, and `sg-social`
//! flipped between 6 and 8 iterations with a 30–46 MB peak (README,
//! "Why the seed relabels").
//!
//! The oracles share no code with the engine: host BFS closures from
//! `gpulog-queries`, the Soufflé-style B-tree engine from
//! `gpulog-baselines`, and a worklist SG closure defined here (the
//! naive `sg::reference_sg` is cubic; it cross-checks the worklist on the
//! smoke size instead).

use gpulog_baselines::souffle_like;
use gpulog_datasets::cspa::{self, CspaShape};
use gpulog_datasets::generators::{hub_graph, mesh_graph, power_law_graph, road_network};
use gpulog_datasets::{CspaInput, EdgeList};
use gpulog_queries::{
    reach, stratified, CSPA_PROGRAM, GOAL_REACH_PROGRAM, NEGATED_REACH_PROGRAM, REACH_PROGRAM,
    SG_PROGRAM, SHORTEST_PATH_PROGRAM,
};
use std::collections::HashSet;

/// Seed of every generator call: the structure of a workload never changes.
pub const STRUCTURE_SEED: u64 = 11;

/// Point lookups of one serve round: every round asks for the same keys,
/// so rounds are repetitions of one piece of work, and 1 000 calls leave
/// ten beyond their p99.
pub const LOOKUPS_PER_ROUND: usize = 1_000;

/// Edges inserted by one serve tick (fresh, isolated, so every program
/// here stays monotone under the insert and old keys keep their answers).
pub const TICK_EDGES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    ReachFat,
    ReachRoad,
    SgSocial,
    CspaHttpd,
    StratNegagg,
    ServeMixed,
}

/// How large to build a workload: the benchmark's size, or a few hundred
/// tuples for the unit tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// The static description of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub id: WorkloadId,
    pub name: &'static str,
    /// One line, as recorded in `BENCHMARK.json`.
    pub why: &'static str,
    /// Timed fixpoint trials of a full-length run (`--seconds` as fixed in
    /// `BENCHMARK.json`); one more, the warm-up, runs first. Counts, not
    /// time, drive a run, so every median has the sample count stated here
    /// however fast the code is; they are sized so that trials plus rounds
    /// take about the run's seconds on the reference box.
    pub trials: usize,
    /// Serve rounds of a full-length run, on the last trial's engine. A
    /// round is [`LOOKUPS_PER_ROUND`] point lookups, the goal lookups, one
    /// goal query and one tick: as many tick and goal-query samples as
    /// rounds.
    pub rounds: usize,
    pub goal_lookups_per_round: usize,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        id: WorkloadId::ReachFat,
        name: "reach-fat",
        why: "REACH on a 42x42 mesh: 55 fat iterations, dedup/merge/join balanced; large-delta merges; the anchor nothing may regress",
        trials: 7,
        rounds: 9,
        goal_lookups_per_round: 1,
    },
    Workload {
        id: WorkloadId::ReachRoad,
        name: "reach-road",
        why: "REACH on a 600-node road chain: 600 tiny-delta iterations, so per-iteration fixed cost and small-delta merges dominate",
        trials: 6,
        rounds: 11,
        goal_lookups_per_round: 1,
    },
    Workload {
        id: WorkloadId::SgSocial,
        name: "sg-social",
        why: "SG on a power-law graph: 3-atom rule, n-way temporaries, high duplicate ratio; join-bound, merge work near nil",
        trials: 5,
        rounds: 5,
        goal_lookups_per_round: 1,
    },
    Workload {
        id: WorkloadId::CspaHttpd,
        name: "cspa-httpd",
        why: "CSPA points-to analysis: 10 rules, 3 mutually recursive relations, many secondary indices; sort/dedup-bound headline workload",
        trials: 9,
        rounds: 8,
        goal_lookups_per_round: 1,
    },
    Workload {
        id: WorkloadId::StratNegagg,
        name: "strat-negagg",
        why: "Negated REACH then min-aggregate shortest paths: the only run of AntiJoin, Reduce, multi-stratum fencing and an arity-3 relation",
        trials: 6,
        rounds: 9,
        goal_lookups_per_round: 1,
    },
    Workload {
        id: WorkloadId::ServeMixed,
        name: "serve-mixed",
        why: "Closed-loop serving of REACH, one client: point lookups beside ticks on COW storage, the O(|full|) re-run, and goal queries",
        trials: 20,
        rounds: 100,
        goal_lookups_per_round: 5,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One extensional relation's facts, row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facts {
    pub relation: &'static str,
    pub arity: usize,
    pub flat: Vec<u32>,
}

/// One engine of a workload: a program and its extensional database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    pub program: &'static str,
    pub inputs: Vec<Facts>,
}

/// What the serve rounds do, on which stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServePlan {
    pub stage: usize,
    /// The binary relation that lookups, goal lookups and goal queries read.
    pub relation: &'static str,
    /// The column a goal query binds — the one the program's recursion
    /// passes through unchanged, so the magic set stays the goal constant.
    /// `None` asks the all-free goal, which the rewrite cannot help: the
    /// engine's fallback (full fixpoint in a sub-engine, then filter).
    pub bound_column: Option<usize>,
    /// The binary input relation ticks insert into.
    pub tick_relation: &'static str,
    /// First node id no fact uses; ticks take fresh ids from here up.
    pub fresh_base: u32,
    /// The [`LOOKUPS_PER_ROUND`] keys every round looks up, in order: a
    /// fixed sequence of the structure's nodes under the seed's
    /// relabelling, so every seed asks for structurally the same answers.
    pub keys: Vec<u32>,
}

/// Everything one trial hands the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub stages: Vec<Stage>,
    pub serve: ServePlan,
}

/// What the oracle says one output relation must hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expected {
    /// Every tuple, canonically sorted, row-major.
    Tuples {
        relation: &'static str,
        arity: usize,
        flat: Vec<u32>,
    },
    /// Only the size (the Soufflé-style CSPA baseline reports sizes).
    Size { relation: &'static str, len: usize },
}

impl Expected {
    pub fn relation(&self) -> &'static str {
        match self {
            Expected::Tuples { relation, .. } | Expected::Size { relation, .. } => relation,
        }
    }
}

/// SplitMix64's output function: a bijective 64-bit mixer (also the row
/// hash of the relation checksums).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: the benchmark's own generator, so relabelling does not
/// depend on the vendored `rand` stand-in.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n` > 0); the modulo bias is irrelevant at these
    /// ranges.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// A workload's structure in generator ids, before the seed touches it.
enum Base {
    Graph {
        program: &'static str,
        relation: &'static str,
        bound_column: Option<usize>,
        graph: EdgeList,
    },
    Cspa(CspaInput),
    /// Negated REACH on `neg` blocking every `stride`-th node, then
    /// hop-bounded shortest paths on `sp`.
    Strat {
        neg: EdgeList,
        stride: u32,
        sp: EdgeList,
        max_hops: u32,
    },
}

fn base(id: WorkloadId, size: Size) -> Base {
    let full = size == Size::Full;
    let pick = |big: u32, small: u32| if full { big } else { small };
    match id {
        WorkloadId::ReachFat => Base::Graph {
            program: REACH_PROGRAM,
            relation: "Reach",
            bound_column: Some(1),
            graph: mesh_graph(pick(42, 5), pick(42, 5), STRUCTURE_SEED),
        },
        WorkloadId::ReachRoad => Base::Graph {
            program: REACH_PROGRAM,
            relation: "Reach",
            bound_column: Some(1),
            graph: road_network(pick(600, 16), 9, STRUCTURE_SEED),
        },
        WorkloadId::SgSocial => Base::Graph {
            program: SG_PROGRAM,
            relation: "SG",
            bound_column: Some(0),
            graph: power_law_graph(pick(450, 24), 3, STRUCTURE_SEED),
        },
        WorkloadId::CspaHttpd => Base::Cspa(cspa::generate(
            "httpd-shaped",
            CspaShape {
                variables: pick(350, 40),
                assign_edges: pick(350, 40) as usize,
                dereference_edges: pick(1100, 90) as usize,
                chain_length: pick(20, 6),
                deref_targets: pick(17, 5),
                seed: STRUCTURE_SEED,
            },
        )),
        WorkloadId::StratNegagg => Base::Strat {
            neg: hub_graph(pick(2000, 30), pick(4, 2), STRUCTURE_SEED),
            stride: 3,
            sp: hub_graph(pick(600, 16), pick(3, 2), STRUCTURE_SEED),
            max_hops: 4,
        },
        // The left-recursive formulation: a goal binding the source is the
        // magic-sets ideal case, so a goal query costs the demanded cone.
        WorkloadId::ServeMixed => Base::Graph {
            program: GOAL_REACH_PROGRAM,
            relation: "Reach",
            bound_column: Some(0),
            graph: road_network(pick(300, 12), 0, STRUCTURE_SEED),
        },
    }
}

/// The seed's node relabelling for one stage: a permutation of `0..bound`.
fn permutation(seed: u64, stage: usize, bound: u32) -> Vec<u32> {
    let mut rng = SplitMix::new(seed ^ (stage as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut perm: Vec<u32> = (0..bound).collect();
    rng.shuffle(&mut perm);
    perm
}

/// Relabels the node columns of `pairs` and shuffles the row order.
fn relabel_pairs(pairs: &[(u32, u32)], perm: &[u32], rng: &mut SplitMix) -> Vec<u32> {
    let mut rows: Vec<[u32; 2]> = pairs
        .iter()
        .map(|&(a, b)| [perm[a as usize], perm[b as usize]])
        .collect();
    rng.shuffle(&mut rows);
    rows.into_iter().flatten().collect()
}

fn graph_stage(program: &'static str, graph: &EdgeList, perm: &[u32], rng: &mut SplitMix) -> Stage {
    Stage {
        program,
        inputs: vec![Facts {
            relation: "Edge",
            arity: 2,
            flat: relabel_pairs(&graph.edges, perm, rng),
        }],
    }
}

fn cspa_bound(input: &CspaInput) -> u32 {
    input
        .assign
        .iter()
        .chain(&input.dereference)
        .map(|&(a, b)| a.max(b) + 1)
        .max()
        .unwrap_or(0)
}

/// Builds the facts a trial loads: the fixed structure, relabelled and
/// reordered by `seed`. Deterministic per `(id, seed, size)`.
pub fn inputs(id: WorkloadId, seed: u64, size: Size) -> Inputs {
    let mut rng = SplitMix::new(seed);
    let (stages, relation, bound_column, tick_relation, bound, perm) = match base(id, size) {
        Base::Graph {
            program,
            relation,
            bound_column,
            graph,
        } => {
            let bound = graph.id_bound();
            let perm = permutation(seed, 0, bound);
            let stage = graph_stage(program, &graph, &perm, &mut rng);
            (vec![stage], relation, bound_column, "Edge", bound, perm)
        }
        Base::Cspa(input) => {
            let bound = cspa_bound(&input);
            let perm = permutation(seed, 0, bound);
            let stage = Stage {
                program: CSPA_PROGRAM,
                inputs: vec![
                    Facts {
                        relation: "Assign",
                        arity: 2,
                        flat: relabel_pairs(&input.assign, &perm, &mut rng),
                    },
                    Facts {
                        relation: "Dereference",
                        arity: 2,
                        flat: relabel_pairs(&input.dereference, &perm, &mut rng),
                    },
                ],
            };
            // A bound goal on this program takes 20-25 s through the magic
            // rewrite (README, "Defects seen"); the all-free goal times the
            // fallback path instead.
            (vec![stage], "ValueFlow", None, "Assign", bound, perm)
        }
        Base::Strat {
            neg,
            stride,
            sp,
            max_hops,
        } => {
            let bound = neg.id_bound();
            let perm = permutation(seed, 0, bound);
            let mut negated = graph_stage(NEGATED_REACH_PROGRAM, &neg, &perm, &mut rng);
            negated.inputs.push(Facts {
                relation: "Blocked",
                arity: 1,
                flat: stratified::blocked_nodes(&neg, stride)
                    .into_iter()
                    .map(|v| perm[v as usize])
                    .collect(),
            });
            let sp_perm = permutation(seed, 1, sp.id_bound());
            let mut shortest = graph_stage(SHORTEST_PATH_PROGRAM, &sp, &sp_perm, &mut rng);
            // Hop counts are values, not node ids: never relabelled.
            shortest.inputs.push(Facts {
                relation: "Succ",
                arity: 2,
                flat: (1..max_hops).flat_map(|d| [d, d + 1]).collect(),
            });
            (
                vec![negated, shortest],
                "Reach",
                Some(0),
                "Edge",
                bound,
                perm,
            )
        }
    };
    let mut structure = SplitMix::new(STRUCTURE_SEED);
    let keys = (0..LOOKUPS_PER_ROUND)
        .map(|_| perm[structure.below(bound as u64) as usize])
        .collect();
    Inputs {
        stages,
        serve: ServePlan {
            stage: 0,
            relation,
            bound_column,
            tick_relation,
            fresh_base: bound,
            keys,
        },
    }
}

/// The `round`-th tick's facts: [`TICK_EDGES`] edges between fresh node
/// ids nothing else mentions.
pub fn tick_rows(plan: &ServePlan, round: usize) -> Vec<[u32; 2]> {
    let first = plan.fresh_base + (round * TICK_EDGES * 2) as u32;
    (0..TICK_EDGES as u32)
        .map(|j| [first + 2 * j, first + 2 * j + 1])
        .collect()
}

fn sorted_pairs_flat(mut pairs: Vec<(u32, u32)>, perm: &[u32]) -> Vec<u32> {
    for pair in &mut pairs {
        *pair = (perm[pair.0 as usize], perm[pair.1 as usize]);
    }
    pairs.sort_unstable();
    pairs.into_iter().flat_map(|(a, b)| [a, b]).collect()
}

/// Same-generation closure by worklist over child adjacency lists:
/// `SG(x, y)` for siblings, then for children of every pair already in.
pub fn worklist_sg(graph: &EdgeList) -> Vec<(u32, u32)> {
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); graph.id_bound() as usize];
    for &(parent, child) in &graph.edges {
        children[parent as usize].push(child);
    }
    let mut sg: HashSet<(u32, u32)> = HashSet::new();
    let mut work: Vec<(u32, u32)> = Vec::new();
    let mut derive = |xs: &[u32], ys: &[u32], work: &mut Vec<(u32, u32)>| {
        for &x in xs {
            for &y in ys {
                if x != y && sg.insert((x, y)) {
                    work.push((x, y));
                }
            }
        }
    };
    for kids in &children {
        derive(kids, kids, &mut work);
    }
    while let Some((a, b)) = work.pop() {
        derive(&children[a as usize], &children[b as usize], &mut work);
    }
    let mut out: Vec<(u32, u32)> = sg.into_iter().collect();
    out.sort_unstable();
    out
}

/// What every stage's output relations must hold for `(id, seed, size)`:
/// the oracle runs on the fixed structure and its answer is relabelled
/// with the same permutation [`inputs`] used. Also returns the seconds the
/// Soufflé-style baseline took on the workload (context, gated on nothing).
pub fn oracle(id: WorkloadId, seed: u64, size: Size) -> (Vec<Vec<Expected>>, f64) {
    match base(id, size) {
        Base::Graph {
            relation, graph, ..
        } => {
            let perm = permutation(seed, 0, graph.id_bound());
            let (pairs, baseline) = if relation == "SG" {
                (worklist_sg(&graph), souffle_like::sg(&graph, 1))
            } else {
                (
                    reach::reference_closure(&graph),
                    souffle_like::reach(&graph, 1),
                )
            };
            assert_eq!(
                baseline.tuples,
                Some(pairs.len()),
                "the two oracles disagree on {relation}"
            );
            let expected = Expected::Tuples {
                relation,
                arity: 2,
                flat: sorted_pairs_flat(pairs, &perm),
            };
            (vec![vec![expected]], baseline.seconds().unwrap_or(0.0))
        }
        Base::Cspa(input) => {
            let (outcome, sizes) = souffle_like::cspa(&input, 1);
            let expected = vec![
                Expected::Size {
                    relation: "ValueFlow",
                    len: sizes.value_flow,
                },
                Expected::Size {
                    relation: "ValueAlias",
                    len: sizes.value_alias,
                },
                Expected::Size {
                    relation: "MemoryAlias",
                    len: sizes.memory_alias,
                },
            ];
            (vec![expected], outcome.seconds().unwrap_or(0.0))
        }
        Base::Strat {
            neg,
            stride,
            sp,
            max_hops,
        } => {
            let perm = permutation(seed, 0, neg.id_bound());
            let sp_perm = permutation(seed, 1, sp.id_bound());
            let reach = Expected::Tuples {
                relation: "Reach",
                arity: 2,
                flat: sorted_pairs_flat(stratified::reference_negated_closure(&neg, stride), &perm),
            };
            let mut paths: Vec<[u32; 3]> = stratified::reference_shortest_paths(&sp, max_hops)
                .into_iter()
                .map(|(x, y, d)| [sp_perm[x as usize], sp_perm[y as usize], d])
                .collect();
            paths.sort_unstable();
            let shortest = Expected::Tuples {
                relation: "SP",
                arity: 3,
                flat: paths.into_iter().flatten().collect(),
            };
            // The unfiltered closure of the first graph: the nearest thing
            // the Soufflé-style engine can run, reported as context only.
            let baseline = souffle_like::reach(&neg, 1);
            (
                vec![vec![reach], vec![shortest]],
                baseline.seconds().unwrap_or(0.0),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpulog_queries::sg;

    const ALL: [WorkloadId; 6] = [
        WorkloadId::ReachFat,
        WorkloadId::ReachRoad,
        WorkloadId::SgSocial,
        WorkloadId::CspaHttpd,
        WorkloadId::StratNegagg,
        WorkloadId::ServeMixed,
    ];

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        for id in ALL {
            let a = inputs(id, 11, Size::Smoke);
            assert_eq!(a, inputs(id, 11, Size::Smoke), "{id:?} not deterministic");
            let b = inputs(id, 12, Size::Smoke);
            assert_ne!(a.stages, b.stages, "{id:?} ignores the seed");
            assert_ne!(a.serve.keys, b.serve.keys);
            // Same structure: every relation keeps its size.
            for (sa, sb) in a.stages.iter().zip(&b.stages) {
                for (fa, fb) in sa.inputs.iter().zip(&sb.inputs) {
                    assert_eq!(fa.flat.len(), fb.flat.len());
                }
            }
        }
    }

    #[test]
    fn relabelling_keeps_ids_below_the_fresh_base_and_ticks_above() {
        for id in ALL {
            let w = inputs(id, 5, Size::Smoke);
            let served = &w.stages[w.serve.stage];
            let edges = &served.inputs[0];
            assert_eq!(edges.relation, w.serve.tick_relation);
            assert!(edges.flat.iter().all(|&v| v < w.serve.fresh_base));
            assert!(w.serve.keys.iter().all(|&k| k < w.serve.fresh_base));
            let t0 = tick_rows(&w.serve, 0);
            let t1 = tick_rows(&w.serve, 1);
            assert_eq!(t0.len(), TICK_EDGES);
            let mut ids: Vec<u32> = t0.iter().chain(&t1).flatten().copied().collect();
            assert!(ids.iter().all(|&v| v >= w.serve.fresh_base));
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 4 * TICK_EDGES, "tick ids must never repeat");
        }
    }

    #[test]
    fn the_oracle_is_the_relabelled_oracle_of_the_structure() {
        // Same sizes under every seed, different tuples.
        let (a, _) = oracle(WorkloadId::ReachFat, 1, Size::Smoke);
        let (b, _) = oracle(WorkloadId::ReachFat, 2, Size::Smoke);
        match (&a[0][0], &b[0][0]) {
            (Expected::Tuples { flat: fa, .. }, Expected::Tuples { flat: fb, .. }) => {
                assert_eq!(fa.len(), fb.len());
                assert_ne!(fa, fb);
                assert!(gpulog_hisa::rows_are_sorted_unique(fa, 2));
            }
            other => panic!("unexpected oracle shape {other:?}"),
        }
    }

    #[test]
    fn worklist_sg_agrees_with_the_naive_reference() {
        for seed in 0..3 {
            let g = gpulog_datasets::generators::random_graph(24, 40, seed);
            assert_eq!(worklist_sg(&g), sg::reference_sg(&g), "seed {seed}");
        }
        let g = power_law_graph(24, 3, STRUCTURE_SEED);
        assert_eq!(worklist_sg(&g), sg::reference_sg(&g));
    }

    #[test]
    fn names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).unwrap().id, w.id);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }
}
