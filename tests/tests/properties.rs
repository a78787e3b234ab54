//! Property-based tests over the whole stack: HISA against a B-tree model,
//! the parallel primitives against their sequential references, and the
//! GPUlog engine against an independent fixpoint computation, on randomly
//! generated inputs.

use gpulog::relation::RelationStorage;
use gpulog::EbmConfig;
use gpulog_datasets::EdgeList;
use gpulog_device::thrust::merge::{merge_path_merge, merge_sorted_index_rows};
use gpulog_device::thrust::sort::lexicographic_sort_indices;
use gpulog_device::{profile::DeviceProfile, Device};
use gpulog_hisa::{Hisa, IndexSpec, TupleBatch, DEFAULT_LOAD_FACTOR};
use gpulog_queries::{reach, sg};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn device() -> Device {
    Device::with_workers(DeviceProfile::nvidia_h100(), 4)
}

/// The reference order for `lexicographic_sort_indices`: a std sort of the
/// row indices by the projected key, then by index (stable and independent
/// of the radix implementation).
fn reference_sort_indices(flat: &[u32], arity: usize, column_order: &[usize]) -> Vec<u32> {
    let key = |row: u32| -> Vec<u32> {
        column_order
            .iter()
            .map(|&c| flat[row as usize * arity + c])
            .collect()
    };
    let mut indices: Vec<u32> = (0..(flat.len() / arity) as u32).collect();
    indices.sort_by(|&a, &b| key(a).cmp(&key(b)).then(a.cmp(&b)));
    indices
}

fn edges_strategy(max_node: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..max_node, 0..max_node), 0..max_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_sort_matches_std_sort(values in prop::collection::vec(0u32..10_000, 0..2000)) {
        let d = device();
        let got = lexicographic_sort_indices(&d, &values, 1, &[0]);
        prop_assert_eq!(got, reference_sort_indices(&values, 1, &[0]));
    }

    #[test]
    fn merge_path_matches_std_merge(
        mut a in prop::collection::vec(0u32..5_000, 0..800),
        mut b in prop::collection::vec(0u32..5_000, 0..800),
    ) {
        let d = device();
        a.sort();
        b.sort();
        let merged = merge_path_merge(&d, &a, &b, |x, y| x.cmp(y));
        let mut expected = a.clone();
        expected.extend_from_slice(&b);
        expected.sort();
        prop_assert_eq!(merged, expected);
    }

    #[test]
    fn merge_sorted_index_rows_matches_std_merge_at_every_skew(
        arity in 1usize..5,
        pool in prop::collection::vec(((0u32..3, 0u32..4), (0u32..5, 0u32..100_000)), 0..1200),
    ) {
        let devices: Vec<(usize, Device)> = [1, 2, 3, 8]
            .into_iter()
            .map(|w| (w, Device::with_workers(DeviceProfile::nvidia_h100(), w)))
            .collect();
        // Distinct rows in generation order: narrow leading columns give
        // shared key prefixes, the wide last column keeps rows distinct.
        let mut seen = BTreeSet::new();
        let distinct: Vec<Vec<u32>> = pool
            .iter()
            .map(|&((c0, c1), (c2, wide))| {
                let mut row = [c0, c1, c2][..arity - 1].to_vec();
                row.push(wide);
                row
            })
            .filter(|row| seen.insert(row.clone()))
            .collect();
        let n = distinct.len();
        // |b| = 0, 1, |a|/64, |a| and 8·|a|: both sides of the gallop check.
        for (n_a, n_b) in [
            (n, 0),
            (n.saturating_sub(1), n.min(1)),
            (n * 64 / 65, n * 64 / 65 / 64),
            (n / 2, n / 2),
            (n / 9, n / 9 * 8),
        ] {
            let used = &distinct[..n_a + n_b];
            let mut ranked: Vec<&Vec<u32>> = used.iter().collect();
            ranked.sort();
            let spread: Vec<&Vec<u32>> =
                (0..n_b).map(|j| ranked[j * ranked.len() / n_b]).collect();
            // The delta clustered at the start, clustered at the end, or
            // spread evenly through full.
            for in_b in [&ranked[..n_b], &ranked[n_a..], &spread[..]] {
                let in_b: BTreeSet<&Vec<u32>> = in_b.iter().copied().collect();
                let (b_rows, a_rows): (Vec<&Vec<u32>>, Vec<&Vec<u32>>) =
                    used.iter().partition(|row| in_b.contains(row));
                let flat = |rows: &[&Vec<u32>]| -> Vec<u32> {
                    rows.iter().flat_map(|row| row.iter().copied()).collect()
                };
                let (a_flat, b_flat) = (flat(&a_rows), flat(&b_rows));
                let columns: Vec<usize> = (0..arity).collect();
                let a = reference_sort_indices(&a_flat, arity, &columns);
                let b = reference_sort_indices(&b_flat, arity, &columns);
                let mut data = a_flat;
                data.extend_from_slice(&b_flat);
                // Positions sorted by row content; a's rows precede b's in
                // `data`, so the stable reference keeps `a` first on ties.
                let expected = reference_sort_indices(&data, arity, &columns);
                for (workers, d) in &devices {
                    let got = merge_sorted_index_rows(d, &a, &b, &data, arity, a.len() as u32);
                    prop_assert_eq!(
                        &got, &expected,
                        "arity {} |a| {} |b| {} workers {}", arity, a.len(), b.len(), workers
                    );
                }
            }
        }
    }

    #[test]
    fn radix_sort_matches_comparison_sort(
        tuples in prop::collection::vec((0u32..60_000, 0u32..300, 0u32..4), 0..600),
    ) {
        let d = device();
        let flat: Vec<u32> = tuples.iter().flat_map(|&(a, b, c)| [a, b, c]).collect();
        for order in [vec![0usize, 1, 2], vec![2, 0, 1], vec![1], vec![2, 1]] {
            let radix = lexicographic_sort_indices(&d, &flat, 3, &order);
            let comparison = reference_sort_indices(&flat, 3, &order);
            prop_assert_eq!(&radix, &comparison, "column order {:?}", &order);
        }
    }

    #[test]
    fn sort_matches_std_reference_on_random_skewed_and_dense_keys(
        uniform in prop::collection::vec((0u32..u32::MAX, 0u32..50_000), 0..500),
        dense in prop::collection::vec((0u32..64, 0u32..16), 0..500),
        hub in prop::collection::vec(prop::bool::weighted(0.9), 0..500),
    ) {
        let d = device();
        // Three distributions: wide uniform, dense ids, and a skewed set
        // where 90% of keys collapse onto one hub value.
        let skewed: Vec<(u32, u32)> = hub
            .iter()
            .enumerate()
            .map(|(i, &is_hub)| if is_hub { (7, i as u32) } else { (i as u32 * 131, 1) })
            .collect();
        for tuples in [&uniform, &dense, &skewed] {
            let flat: Vec<u32> = tuples.iter().flat_map(|&(a, b)| [a, b]).collect();
            for order in [vec![0usize, 1], vec![1, 0], vec![0]] {
                let got = lexicographic_sort_indices(&d, &flat, 2, &order);
                let expected = reference_sort_indices(&flat, 2, &order);
                prop_assert_eq!(&got, &expected, "order {:?}", &order);
            }
        }
    }

    #[test]
    fn random_merge_sequences_match_a_fresh_hash_layer_lookup_for_lookup(
        base in edges_strategy(40, 80),
        deltas in prop::collection::vec(edges_strategy(40, 30), 1..5),
        reserve in prop::bool::ANY,
    ) {
        let d = device();
        let spec = IndexSpec::new(2, vec![0]);
        let base_flat: Vec<u32> = base.iter().flat_map(|&(a, b)| [a, b]).collect();
        let mut full = Hisa::build(&d, spec.clone(), &base_flat).unwrap();
        if reserve {
            // Headroom: every merge below must stay on the incremental
            // insert path (no rebuilds).
            full.reserve_additional_rows(256).unwrap();
        }
        let before = d.metrics().snapshot();
        let mut union: BTreeSet<(u32, u32)> = base.iter().copied().collect();
        for delta_edges in &deltas {
            let fresh: Vec<(u32, u32)> = delta_edges
                .iter()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .filter(|t| !union.contains(t))
                .collect();
            if fresh.is_empty() {
                continue;
            }
            let flat: Vec<u32> = fresh.iter().flat_map(|&(a, b)| [a, b]).collect();
            let delta = Hisa::build(&d, spec.clone(), &flat).unwrap();
            full.merge_from(&delta).unwrap();
            union.extend(fresh);
        }
        if reserve {
            prop_assert_eq!(
                d.metrics().snapshot().since(&before).hash_rebuilds, 0,
                "with reserved capacity every merge must be incremental"
            );
        }
        // The merged hash layer must answer lookup-for-lookup identically
        // to one built from scratch over the union: same entry positions,
        // same range-query results, same membership.
        let union_flat: Vec<u32> = union.iter().flat_map(|&(a, b)| [a, b]).collect();
        let fresh = Hisa::build(&d, spec, &union_flat).unwrap();
        prop_assert_eq!(full.to_sorted_tuples(), fresh.to_sorted_tuples());
        for key in 0..41u32 {
            prop_assert_eq!(
                full.key_start_position(&[key]),
                fresh.key_start_position(&[key]),
                "hash entry position for key {}", key
            );
            let got: BTreeSet<u32> = full
                .range_query(&[key])
                .map(|r| full.row(r as usize)[1])
                .collect();
            let expected: BTreeSet<u32> = fresh
                .range_query(&[key])
                .map(|r| fresh.row(r as usize)[1])
                .collect();
            prop_assert_eq!(got, expected, "range query for key {}", key);
        }
    }

    #[test]
    fn delta_reuse_merge_keeps_secondary_indices_consistent(
        base in edges_strategy(25, 120),
        extra in edges_strategy(25, 60),
    ) {
        let d = device();
        let mut storage = RelationStorage::new(&d, "Edge", 2, DEFAULT_LOAD_FACTOR).unwrap();
        let base_flat: Vec<u32> = base.iter().flat_map(|&(a, b)| [a, b]).collect();
        storage.load_full_batch(&TupleBatch::new(2, base_flat.to_vec())).unwrap();
        // Materialize a secondary index before the merge so the reuse path
        // has to keep it consistent.
        let _ = storage.full_mut().unwrap().index_on(&d, &[1]).unwrap();
        // Delta must be sorted, deduplicated, and disjoint from full.
        let mut delta_set: BTreeSet<(u32, u32)> = extra.iter().copied().collect();
        for &(a, b) in &base {
            delta_set.remove(&(a, b));
        }
        let delta_flat: Vec<u32> = delta_set.iter().flat_map(|&(a, b)| [a, b]).collect();
        storage.set_delta_batch(&TupleBatch::from_sorted_unique_flat(2, delta_flat.to_vec())).unwrap();
        storage.merge_delta_into_full(&EbmConfig::default()).unwrap();

        // The merged secondary index must agree with an index built from
        // scratch over the union.
        let mut union: BTreeSet<(u32, u32)> = base.iter().copied().collect();
        union.extend(delta_set.iter().copied());
        let union_flat: Vec<u32> = union.iter().flat_map(|&(a, b)| [a, b]).collect();
        let fresh = Hisa::build(&d, IndexSpec::new(2, vec![1]), &union_flat).unwrap();
        let merged = storage.full_mut().unwrap().index_on(&d, &[1]).unwrap();
        prop_assert_eq!(merged.len(), union.len());
        prop_assert_eq!(merged.to_sorted_tuples(), fresh.to_sorted_tuples());
        for key in 0..25u32 {
            prop_assert_eq!(
                merged.range_query(&[key]).count(),
                fresh.range_query(&[key]).count(),
                "range size for key {}", key
            );
        }
    }

    #[test]
    fn hisa_behaves_like_a_set_with_range_queries(edges in edges_strategy(40, 300)) {
        let d = device();
        let flat: Vec<u32> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        let hisa = Hisa::build(&d, IndexSpec::new(2, vec![0]), &flat).unwrap();
        let model: BTreeSet<(u32, u32)> = edges.iter().copied().collect();
        prop_assert_eq!(hisa.len(), model.len());
        // Membership agrees on present and absent tuples.
        for &(a, b) in edges.iter().take(20) {
            prop_assert!(hisa.contains(&[a, b]));
            prop_assert_eq!(hisa.contains(&[b.wrapping_add(41), a]), model.contains(&(b.wrapping_add(41), a)));
        }
        // Range queries return exactly the model's per-key groups.
        for key in 0..40u32 {
            let expected: BTreeSet<u32> = model.iter().filter(|t| t.0 == key).map(|t| t.1).collect();
            let got: BTreeSet<u32> = hisa
                .range_query(&[key])
                .map(|row| hisa.row(row as usize)[1])
                .collect();
            prop_assert_eq!(got, expected);
        }
    }

    #[test]
    fn hisa_merge_equals_set_union(
        left in edges_strategy(30, 150),
        right in edges_strategy(30, 150),
    ) {
        let d = device();
        let left_flat: Vec<u32> = left.iter().flat_map(|&(a, b)| [a, b]).collect();
        // Keep the delta disjoint from full, as the engine guarantees.
        let left_set: BTreeSet<(u32, u32)> = left.iter().copied().collect();
        let right_disjoint: Vec<(u32, u32)> = right
            .iter()
            .copied()
            .filter(|t| !left_set.contains(t))
            .collect();
        let right_flat: Vec<u32> = right_disjoint.iter().flat_map(|&(a, b)| [a, b]).collect();
        let mut full = Hisa::build(&d, IndexSpec::new(2, vec![0]), &left_flat).unwrap();
        let delta = Hisa::build(&d, IndexSpec::new(2, vec![0]), &right_flat).unwrap();
        full.merge_from(&delta).unwrap();
        let mut union: BTreeSet<(u32, u32)> = left_set;
        union.extend(right_disjoint.iter().copied());
        prop_assert_eq!(full.len(), union.len());
        let merged: BTreeSet<(u32, u32)> = full
            .iter_rows()
            .map(|row| (row[0], row[1]))
            .collect();
        prop_assert_eq!(merged, union);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn reach_agrees_with_bfs_reference(edges in edges_strategy(30, 120)) {
        let graph = EdgeList::new("prop", edges.into_iter().filter(|(a, b)| a != b).collect());
        let d = device();
        let result = reach::run(&d, &graph, gpulog_tests::config_from_env()).unwrap();
        prop_assert_eq!(result.reach_size, reach::reference_closure(&graph).len());
    }

    #[test]
    fn sg_agrees_with_naive_reference(edges in edges_strategy(16, 40)) {
        let graph = EdgeList::new("prop", edges.into_iter().filter(|(a, b)| a != b).collect());
        let d = device();
        let result = sg::run(&d, &graph, gpulog_tests::config_from_env()).unwrap();
        prop_assert_eq!(result.sg_size, sg::reference_sg(&graph).len());
    }
}
