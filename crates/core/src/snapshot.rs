//! Immutable fixpoint snapshots — the read side of the serving layer.
//!
//! A [`FixpointSnapshot`] is a cheaply-clonable, immutable view of every
//! relation's full version as it stood when a fixpoint settled. The engine
//! publishes one through [`crate::GpulogEngine::snapshot`] after a run (the
//! publish point is the end of [`crate::GpulogEngine::run`], which settles
//! every relation first, so every deferred merge is folded in); the relation
//! versions inside are shared via `Arc` with the engine's storage, and the
//! writer's next merge copy-on-writes its own full version instead of
//! mutating the shared one (see [`crate::relation::RelationStorage`]).
//! Cloning a snapshot — or handing it to another thread — therefore costs
//! two reference-count bumps per relation, never a data copy.
//!
//! Queries answer from the relations' canonical (full-key) HISA indices:
//! membership probes hit the open-addressing hash table, and point lookups
//! and key-range scans binary-search the canonical sorted index (see
//! [`gpulog_hisa::Hisa::sorted_prefix_range`]). No query allocates device
//! memory or mutates anything, so any number of reader threads can share
//! one snapshot.

use crate::relation::RelationVersion;
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable, shareable view of one completed fixpoint.
///
/// See the [module docs](self) for the publish protocol. Obtained from
/// [`crate::GpulogEngine::snapshot`]; all accessors take `&self` and the
/// type is `Send + Sync`, so readers on other threads query it freely while
/// the engine materializes the next fixpoint.
#[derive(Debug, Clone)]
pub struct FixpointSnapshot {
    inner: Arc<SnapshotInner>,
}

#[derive(Debug)]
struct SnapshotInner {
    generation: u64,
    names: Vec<String>,
    ids: HashMap<String, usize>,
    arities: Vec<usize>,
    relations: Vec<Arc<RelationVersion>>,
}

impl FixpointSnapshot {
    pub(crate) fn new(
        generation: u64,
        names: Vec<String>,
        arities: Vec<usize>,
        relations: Vec<Arc<RelationVersion>>,
    ) -> Self {
        let ids = names
            .iter()
            .enumerate()
            .map(|(id, name)| (name.clone(), id))
            .collect();
        FixpointSnapshot {
            inner: Arc::new(SnapshotInner {
                generation,
                names,
                ids,
                arities,
                relations,
            }),
        }
    }

    /// The `(key columns, width)` of every index the relation's version
    /// carries beside its canonical one, sorted (see
    /// [`RelationVersion::index_keys`]); `None` for an unknown relation.
    pub fn index_keys(&self, relation: &str) -> Option<Vec<(Vec<usize>, usize)>> {
        self.relation(relation).map(RelationVersion::index_keys)
    }

    /// Which completed fixpoint this snapshot captures (1 for the first
    /// run, incremented per completed run).
    pub fn generation(&self) -> u64 {
        self.inner.generation
    }

    /// The names of all relations, in declaration order.
    pub fn relation_names(&self) -> &[String] {
        &self.inner.names
    }

    fn relation(&self, name: &str) -> Option<&RelationVersion> {
        self.inner
            .ids
            .get(name)
            .map(|&id| self.inner.relations[id].as_ref())
    }

    /// A relation's arity, or `None` for unknown relations.
    pub fn arity(&self, relation: &str) -> Option<usize> {
        self.inner
            .ids
            .get(relation)
            .map(|&id| self.inner.arities[id])
    }

    /// Number of tuples in a relation, or `None` for unknown relations.
    pub fn relation_size(&self, relation: &str) -> Option<usize> {
        self.relation(relation).map(RelationVersion::len)
    }

    /// Membership probe: whether the relation contains exactly `tuple`.
    /// `false` for unknown relations or wrong arities.
    pub fn contains(&self, relation: &str, tuple: &[u32]) -> bool {
        self.relation(relation)
            .is_some_and(|version| version.canonical().contains(tuple))
    }

    /// Point (or prefix) lookup: every tuple whose leading columns equal
    /// `prefix`, in canonical (lexicographic) order. An empty prefix
    /// returns the whole relation; `None` for unknown relations.
    pub fn lookup(&self, relation: &str, prefix: &[u32]) -> Option<Vec<Vec<u32>>> {
        let canonical = self.relation(relation)?.canonical();
        let span = canonical.sorted_prefix_range(prefix);
        Some(canonical.sorted_rows(span).collect())
    }

    /// Key-range scan: every tuple in `lo..hi` (lexicographic on the full
    /// tuple, `lo` inclusive, `hi` exclusive), in canonical order. `None`
    /// for unknown relations.
    pub fn scan_range(&self, relation: &str, lo: &[u32], hi: &[u32]) -> Option<Vec<Vec<u32>>> {
        let canonical = self.relation(relation)?.canonical();
        let span = canonical.sorted_span(lo, hi);
        Some(canonical.sorted_rows(span).collect())
    }

    /// All tuples of a relation in canonical (lexicographic) order,
    /// flattened row-major. Identical fixpoints produce identical buffers
    /// regardless of the shard count or merge schedule that computed them, so
    /// this is the byte-comparable form of a relation.
    pub fn sorted_tuples_flat(&self, relation: &str) -> Option<Vec<u32>> {
        let canonical = self.relation(relation)?.canonical();
        let span = 0..canonical.len();
        Some(canonical.sorted_rows(span).flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::GpulogEngine;
    use gpulog_device::profile::DeviceProfile;
    use gpulog_device::Device;

    const REACH: &str = r"
        .decl Edge(x: number, y: number)
        .input Edge
        .decl Reach(x: number, y: number)
        .output Reach
        Reach(x, y) :- Edge(x, y).
        Reach(x, y) :- Edge(x, z), Reach(z, y).
    ";

    fn engine() -> GpulogEngine {
        let d = Device::with_workers(DeviceProfile::nvidia_h100(), 4);
        let mut e = GpulogEngine::builder(&d).program(REACH).build().unwrap();
        e.add_facts("Edge", [[0u32, 1], [1, 2], [2, 3]]).unwrap();
        e.run().unwrap();
        e
    }

    #[test]
    fn snapshot_is_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync + Clone>() {}
        assert_send_sync::<FixpointSnapshot>();
        let e = engine();
        let snap = e.snapshot().unwrap();
        let copy = snap.clone();
        assert!(Arc::ptr_eq(&snap.inner, &copy.inner));
    }

    #[test]
    fn queries_answer_from_the_canonical_index() {
        let e = engine();
        let snap = e.snapshot().unwrap();
        assert_eq!(snap.generation(), 1);
        assert_eq!(snap.arity("Reach"), Some(2));
        assert_eq!(snap.relation_size("Reach"), Some(6));
        assert_eq!(snap.relation_size("Nope"), None);
        assert!(snap.contains("Reach", &[0, 3]));
        assert!(!snap.contains("Reach", &[3, 0]));
        // Point lookup on the leading column.
        assert_eq!(
            snap.lookup("Reach", &[0]).unwrap(),
            vec![vec![0, 1], vec![0, 2], vec![0, 3]]
        );
        assert_eq!(snap.lookup("Reach", &[7]).unwrap(), Vec::<Vec<u32>>::new());
        assert!(snap.lookup("Nope", &[0]).is_none());
        // Range scan across leading keys 1..3.
        assert_eq!(
            snap.scan_range("Reach", &[1], &[3]).unwrap(),
            vec![vec![1, 2], vec![1, 3], vec![2, 3]]
        );
        // The byte-comparable form is fully sorted.
        let flat = snap.sorted_tuples_flat("Reach").unwrap();
        assert_eq!(flat, vec![0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3]);
        assert_eq!(snap.relation_names().len(), 2);
    }
}
