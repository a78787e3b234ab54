//! N-way join strategies (paper Section 5.2).
//!
//! GPUlog's default strategy is the **temporarily-materialized** join: an
//! n-way join is split into a chain of binary joins, each materialized into
//! a temporary buffer, so every kernel launch redistributes work evenly over
//! the device threads. The alternative — and the ablation baseline — is the
//! **fused nested-loop** join, where one kernel walks the entire join chain
//! per outer tuple; threads whose tuple fans out heavily keep working while
//! their warp-mates idle, which is precisely the imbalance Figure 5 of the
//! paper illustrates. Both strategies are implemented here so the ablation
//! bench (`nway_ablation`) can compare them on identical plans.

use crate::planner::{ColumnSource, EmitSource, FilterStep, JoinStep};
use crate::ra::project::batch_from_flat;
use gpulog_device::thrust::scan::exclusive_scan_offsets;
use gpulog_device::Device;
use gpulog_hisa::{Hisa, TupleBatch};

/// Which n-way join strategy the engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NwayStrategy {
    /// Split into binary joins, materializing each intermediate (default).
    #[default]
    TemporarilyMaterialized,
    /// Evaluate the whole chain in one fused nested-loop kernel.
    FusedNestedLoop,
}

/// One fused join level: the plan step plus the HISA it probes.
pub struct FusedLevel<'a> {
    /// The join step (key columns, filters, emit list).
    pub step: &'a JoinStep,
    /// The indexed inner relation for this level.
    pub inner: &'a Hisa,
    /// Filters to apply to the intermediate produced by this level.
    pub filters: &'a [FilterStep],
}

fn passes(filters: &[FilterStep], row: &[u32]) -> bool {
    filters
        .iter()
        .all(|f| f.op.eval(f.left.resolve(row), f.right.resolve(row)))
}

fn orig_to_reordered(inner: &Hisa) -> Vec<usize> {
    let mut map = vec![0usize; inner.arity()];
    for (pos, &orig) in inner.spec().permutation().iter().enumerate() {
        map[orig] = pos;
    }
    map
}

/// Recursively walks the join chain for one current intermediate row.
/// `sink` is called once per surviving leaf with the final intermediate row.
fn walk_levels(
    levels: &[FusedLevel<'_>],
    col_maps: &[Vec<usize>],
    depth: usize,
    row: &[u32],
    sink: &mut dyn FnMut(&[u32]),
) {
    if depth == levels.len() {
        sink(row);
        return;
    }
    let level = &levels[depth];
    let map = &col_maps[depth];
    let step = level.step;
    let candidates: Vec<u32> = if step.outer_key_cols.is_empty() {
        (0..level.inner.len() as u32).collect()
    } else {
        let key: Vec<u32> = step.outer_key_cols.iter().map(|&c| row[c]).collect();
        level.inner.probe(&key).collect()
    };
    for inner_row_id in candidates {
        let inner_row = level.inner.row_reordered(inner_row_id as usize);
        let const_ok = step
            .inner_const_filters
            .iter()
            .all(|&(c, v)| inner_row[map[c]] == v);
        let eq_ok = step
            .inner_eq_filters
            .iter()
            .all(|&(a, b)| inner_row[map[a]] == inner_row[map[b]]);
        if !const_ok || !eq_ok {
            continue;
        }
        let next: Vec<u32> = step
            .emit
            .iter()
            .map(|src| match *src {
                EmitSource::Outer(c) => row[c],
                EmitSource::Inner(c) => inner_row[map[c]],
            })
            .collect();
        if !passes(level.filters, &next) {
            continue;
        }
        walk_levels(levels, col_maps, depth + 1, &next, sink);
    }
}

/// Evaluates an entire join chain in one fused pass (two kernel launches:
/// count and write), producing the head tuples directly.
///
/// The `outer` batch is the already-scanned (and filtered) first body atom;
/// `levels` are the remaining body atoms in plan order; `head_proj` builds
/// the head tuple from the final intermediate.
pub fn fused_rule_join_batch(
    device: &Device,
    outer: &TupleBatch,
    levels: &[FusedLevel<'_>],
    head_proj: &[ColumnSource],
) -> TupleBatch {
    let outer_arity = outer.arity();
    let outer_rows = outer.len();
    let outer = outer.as_flat();
    let head_arity = head_proj.len();
    let col_maps: Vec<Vec<usize>> = levels.iter().map(|l| orig_to_reordered(l.inner)).collect();

    // Pass 1: count leaves per outer tuple. The per-thread work here is the
    // imbalanced quantity the materialized strategy smooths out.
    let metrics = device.metrics();
    metrics.add_kernel_launch();
    metrics.add_bytes_read((outer.len() * 4) as u64);
    let mut counts = vec![0usize; outer_rows];
    device.executor().fill(&mut counts, |i| {
        let row = &outer[i * outer_arity..(i + 1) * outer_arity];
        let mut n = 0usize;
        walk_levels(levels, &col_maps, 0, row, &mut |_| n += 1);
        n
    });

    let value_counts: Vec<usize> = counts.iter().map(|c| c * head_arity).collect();
    let offsets = exclusive_scan_offsets(device, &value_counts);
    let total = *offsets.last().unwrap_or(&0);

    // Pass 2: write head tuples.
    metrics.add_kernel_launch();
    metrics.add_bytes_written((total * 4) as u64);
    let mut output = vec![0u32; total];
    device
        .executor()
        .scatter_by_offsets(&mut output, &offsets, |i, slots| {
            let row = &outer[i * outer_arity..(i + 1) * outer_arity];
            let mut cursor = 0usize;
            walk_levels(levels, &col_maps, 0, row, &mut |final_row| {
                for &src in head_proj {
                    slots[cursor] = src.resolve(final_row);
                    cursor += 1;
                }
            });
            debug_assert_eq!(cursor, slots.len());
        });
    batch_from_flat(head_arity, output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::CmpOp;
    use crate::planner::VersionSel;
    use gpulog_device::profile::DeviceProfile;
    use gpulog_hisa::IndexSpec;

    fn device() -> Device {
        Device::with_workers(DeviceProfile::nvidia_h100(), 4)
    }

    fn rows(batch: &TupleBatch) -> Vec<Vec<u32>> {
        let mut out = batch.to_rows();
        out.sort();
        out
    }

    /// Build the SG second-rule join chain by hand:
    /// SG(x, y) :- Edge(a, x), SG(a, b), Edge(b, y), x != y
    /// planned as scan(SG delta: columns a, b) ⋈ Edge(a, x) ⋈ Edge(b, y).
    #[test]
    fn fused_sg_chain_matches_manual_enumeration() {
        let d = device();
        // Graph from the paper's Figure 1.
        let edges: Vec<u32> = vec![0, 1, 0, 2, 1, 3, 1, 4, 2, 4, 2, 5, 3, 6, 4, 7, 4, 8, 5, 8];
        let edge_by_from = Hisa::build(&d, IndexSpec::new(2, vec![0]), &edges).unwrap();
        // SG delta after iteration 1 (from Figure 1).
        let sg_delta: Vec<u32> = vec![1, 2, 2, 1, 3, 4, 4, 3, 4, 5, 5, 4, 7, 8, 8, 7];
        // Level 1: join on a (outer col 0) with Edge(a, x): emits (a, b, x).
        let step1 = JoinStep {
            relation: 0,
            version: VersionSel::Full,
            outer_key_cols: vec![0],
            inner_key_cols: vec![0],
            inner_const_filters: vec![],
            inner_eq_filters: vec![],
            emit: vec![
                EmitSource::Outer(0),
                EmitSource::Outer(1),
                EmitSource::Inner(1),
            ],
        };
        // Level 2: join on b (outer col 1) with Edge(b, y): emits (a, b, x, y).
        let step2 = JoinStep {
            relation: 0,
            version: VersionSel::Full,
            outer_key_cols: vec![1],
            inner_key_cols: vec![0],
            inner_const_filters: vec![],
            inner_eq_filters: vec![],
            emit: vec![
                EmitSource::Outer(0),
                EmitSource::Outer(1),
                EmitSource::Outer(2),
                EmitSource::Inner(1),
            ],
        };
        let ne = FilterStep {
            left: ColumnSource::Col(2),
            op: CmpOp::Ne,
            right: ColumnSource::Col(3),
        };
        let filters2 = [ne];
        let levels = [
            FusedLevel {
                step: &step1,
                inner: &edge_by_from,
                filters: &[],
            },
            FusedLevel {
                step: &step2,
                inner: &edge_by_from,
                filters: &filters2,
            },
        ];
        let head = [ColumnSource::Col(2), ColumnSource::Col(3)];
        let outer = TupleBatch::new(2, sg_delta.clone());
        let got = rows(&fused_rule_join_batch(&d, &outer, &levels, &head));
        // Reference by brute force.
        let edge_pairs: Vec<(u32, u32)> = edges.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        let mut expected = Vec::new();
        for ab in sg_delta.chunks_exact(2) {
            for &(a, x) in &edge_pairs {
                if a != ab[0] {
                    continue;
                }
                for &(b, y) in &edge_pairs {
                    if b == ab[1] && x != y {
                        expected.push(vec![x, y]);
                    }
                }
            }
        }
        expected.sort();
        expected.dedup();
        let mut got_dedup = got;
        got_dedup.dedup();
        assert_eq!(got_dedup, expected);
    }

    /// A fused chain probing the canonical index by prefixes of its
    /// columns, at both depths, yields the rows the same chain over
    /// indices built on those prefixes yields, with and without inner
    /// constant and equality filters.
    #[test]
    fn a_fused_join_over_the_canonical_by_prefix_matches_one_over_prefix_indices() {
        let d = device();
        let tuples: Vec<u32> = (0..5u32)
            .flat_map(|a| (0..4u32).flat_map(move |b| (0..4u32).map(move |c| [a, b, c])))
            .filter(|t| (t[0] + 2 * t[1] + t[2]) % 3 != 0)
            .flatten()
            .collect();
        // Two runs merged: the canonical's sorted index is no identity.
        let (even, odd): (Vec<_>, Vec<_>) = tuples
            .chunks_exact(3)
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        let flat = |run: Vec<(usize, &[u32])>| -> Vec<u32> {
            run.into_iter().flat_map(|(_, t)| t.to_vec()).collect()
        };
        let mut canonical = Hisa::build(&d, IndexSpec::full_key(3), &flat(even)).unwrap();
        canonical
            .merge_from(&Hisa::build(&d, IndexSpec::full_key(3), &flat(odd)).unwrap())
            .unwrap();
        let by_first = Hisa::build(&d, IndexSpec::new(3, vec![0]), &tuples).unwrap();
        let by_two = Hisa::build(&d, IndexSpec::new(3, vec![0, 1]), &tuples).unwrap();
        // Outer (x, k) with keys 5 and 6 matching nothing.
        let outer = TupleBatch::new(2, (0..14u32).flat_map(|i| [i, i % 7]).collect());
        let head = [ColumnSource::Col(0), ColumnSource::Col(1)];
        for (consts, eqs) in [
            (vec![], vec![]),
            (vec![(2usize, 1u32)], vec![]),
            (vec![], vec![(1usize, 2usize)]),
        ] {
            // R(k, b, c), then R(b, c, e): emits (x, e).
            let step1 = JoinStep {
                relation: 0,
                version: VersionSel::Full,
                outer_key_cols: vec![1],
                inner_key_cols: vec![0],
                inner_const_filters: consts,
                inner_eq_filters: eqs,
                emit: vec![
                    EmitSource::Outer(0),
                    EmitSource::Inner(1),
                    EmitSource::Inner(2),
                ],
            };
            let step2 = JoinStep {
                relation: 0,
                version: VersionSel::Full,
                outer_key_cols: vec![1, 2],
                inner_key_cols: vec![0, 1],
                inner_const_filters: vec![(2, 2)],
                inner_eq_filters: vec![],
                emit: vec![EmitSource::Outer(0), EmitSource::Inner(2)],
            };
            let join = |inner1: &Hisa, inner2: &Hisa| {
                let levels = [
                    FusedLevel {
                        step: &step1,
                        inner: inner1,
                        filters: &[],
                    },
                    FusedLevel {
                        step: &step2,
                        inner: inner2,
                        filters: &[],
                    },
                ];
                rows(&fused_rule_join_batch(&d, &outer, &levels, &head))
            };
            let got = join(&canonical, &canonical);
            assert!(!got.is_empty(), "{step1:?}");
            assert_eq!(got, join(&by_first, &by_two), "{step1:?}");
        }
    }

    #[test]
    fn fused_join_with_empty_levels_projects_the_outer_directly() {
        let d = device();
        let outer = TupleBatch::new(2, vec![4, 5, 6, 7]);
        let head = [ColumnSource::Col(1), ColumnSource::Col(0)];
        let got = fused_rule_join_batch(&d, &outer, &[], &head);
        assert_eq!(got.as_flat(), &[5, 4, 7, 6]);
    }

    #[test]
    fn default_strategy_is_temporarily_materialized() {
        assert_eq!(
            NwayStrategy::default(),
            NwayStrategy::TemporarilyMaterialized
        );
    }
}
