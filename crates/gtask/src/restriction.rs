//! The graph partition table and its restrictions (paper §4.2, Figure 6).

use std::collections::BTreeMap;
use std::fmt;
use wisegraph_graph::AttrKind;

/// A restriction on the number of unique values of one edge attribute
/// within a gTask.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Restriction {
    /// `uniq(attr) = k`: at most `k` distinct values per gTask.
    Exact(u64),
    /// `uniq(attr) = min`: prefer gTasks with few distinct values (drives
    /// the sort order but does not bound task size).
    Min,
    /// No restriction.
    Free,
}

/// The graph partition table: one restriction per edge attribute.
///
/// Attributes not mentioned are unrestricted (`Free`). Iteration order over
/// entries is the insertion-independent `AttrKind` order, which also defines
/// the sort-key order of the greedy partitioner.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct PartitionTable {
    entries: BTreeMap<AttrKind, Restriction>,
}

impl PartitionTable {
    /// Creates an empty (fully unrestricted) table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `uniq(attr) = k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn exact(mut self, attr: AttrKind, k: u64) -> Self {
        assert!(k > 0, "uniq(attr) = 0 is meaningless");
        self.entries.insert(attr, Restriction::Exact(k));
        self
    }

    /// Adds `uniq(attr) = min`.
    pub fn min(mut self, attr: AttrKind) -> Self {
        self.entries.insert(attr, Restriction::Min);
        self
    }

    /// Looks up the restriction for an attribute (`Free` if absent).
    pub fn restriction(&self, attr: AttrKind) -> Restriction {
        self.entries
            .get(&attr)
            .copied()
            .unwrap_or(Restriction::Free)
    }

    /// Attributes with an `Exact` bound, in canonical order.
    pub fn exact_attrs(&self) -> Vec<(AttrKind, u64)> {
        self.entries
            .iter()
            .filter_map(|(&a, &r)| match r {
                Restriction::Exact(k) => Some((a, k)),
                _ => None,
            })
            .collect()
    }

    /// Attributes with a `Min` preference, in canonical order.
    pub fn min_attrs(&self) -> Vec<AttrKind> {
        self.entries
            .iter()
            .filter_map(|(&a, &r)| matches!(r, Restriction::Min).then_some(a))
            .collect()
    }

    /// The partitioner's sort-key order — the one statement of it: `Min`
    /// attributes first (grouping similar values so their unique count per
    /// task stays small), then `Exact` attributes from the tightest bound
    /// to the loosest (so `uniq(edge-type)=1 & uniq(src-id)=K` groups by
    /// type before batching sources — otherwise every type change would cut
    /// a batch short), ties in canonical order. The edge id, which makes
    /// the order total, follows implicitly as the last key.
    pub fn sort_key_attrs(&self) -> Vec<AttrKind> {
        let mut exact = self.exact_attrs();
        exact.sort_by_key(|&(_, k)| k);
        let mut key = self.min_attrs();
        key.extend(exact.iter().map(|&(a, _)| a));
        key
    }

    /// All restricted attributes (exact or min).
    pub fn restricted_attrs(&self) -> Vec<AttrKind> {
        self.entries.keys().copied().collect()
    }

    // ---- The classic plans of Figure 7 as special cases --------------

    /// Figure 7(b): vertex-centric, `uniq(dst-id) = 1`.
    pub fn vertex_centric() -> Self {
        Self::new().exact(AttrKind::DstId, 1)
    }

    /// Figure 7(e): edge-centric, `uniq(edge-id) = 1`.
    pub fn edge_centric() -> Self {
        Self::new().exact(AttrKind::EdgeId, 1)
    }

    /// Figure 7(f): 2-D partition, `uniq(dst-id) = k & uniq(src-id) = k`.
    pub fn two_d(k: u64) -> Self {
        Self::new().exact(AttrKind::DstId, k).exact(AttrKind::SrcId, k)
    }

    /// Figure 7(d): per-destination, per-type,
    /// `uniq(dst-id) = 1 & uniq(edge-type) = 1`.
    pub fn dst_and_type() -> Self {
        Self::new()
            .exact(AttrKind::DstId, 1)
            .exact(AttrKind::EdgeType, 1)
    }

    /// Figure 7(g): destination-degree grouping, `uniq(dst-degree) = 1`.
    pub fn dst_degree_grouped() -> Self {
        Self::new().exact(AttrKind::DstDegree, 1)
    }

    /// Figure 7(h): `uniq(dst-id) = k & uniq(dst-degree) = min` — pads
    /// destinations with similar degrees together for high parallelism.
    pub fn dst_batch_min_degree(k: u64) -> Self {
        Self::new()
            .exact(AttrKind::DstId, k)
            .min(AttrKind::DstDegree)
    }

    /// RGCN-style source batching: `uniq(src-id) = k & uniq(edge-type) = 1`
    /// (the gTask of Figure 18a).
    pub fn src_batch_per_type(k: u64) -> Self {
        Self::new()
            .exact(AttrKind::SrcId, k)
            .exact(AttrKind::EdgeType, 1)
    }

    /// Edge-count batching: `uniq(edge-id) = k` (bounded workload per task,
    /// the plan WiseGraph finds for SAGE/GCN in Figure 15e).
    pub fn edge_batch(k: u64) -> Self {
        Self::new().exact(AttrKind::EdgeId, k)
    }
}

impl fmt::Display for PartitionTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return f.write_str("unrestricted");
        }
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(a, r)| match r {
                Restriction::Exact(k) => format!("uniq({a})={k}"),
                Restriction::Min => format!("uniq({a})=min"),
                Restriction::Free => format!("uniq({a})=free"),
            })
            .collect();
        f.write_str(&parts.join(" & "))
    }
}

/// Enumerates candidate partition tables for a model whose DFG uses the
/// given indexing attributes (paper §4: restrictions are applied to the
/// identified indexing attributes, plus inherent degree attributes).
///
/// `batch_sizes` parameterizes the `Exact(k)` variants (the paper sweeps
/// powers of two, Figure 18).
pub fn enumerate_tables(
    indexing: &[AttrKind],
    batch_sizes: &[u64],
) -> Vec<PartitionTable> {
    let mut out = vec![
        PartitionTable::vertex_centric(),
        PartitionTable::edge_centric(),
    ];
    for &k in batch_sizes {
        out.push(PartitionTable::edge_batch(k));
        out.push(PartitionTable::two_d(k));
        out.push(PartitionTable::dst_batch_min_degree(k));
        if indexing.contains(&AttrKind::EdgeType) {
            out.push(PartitionTable::src_batch_per_type(k));
            out.push(
                PartitionTable::new()
                    .exact(AttrKind::DstId, k)
                    .exact(AttrKind::EdgeType, 1),
            );
        }
        if indexing.contains(&AttrKind::SrcId) {
            out.push(PartitionTable::new().exact(AttrKind::SrcId, k));
        }
    }
    if indexing.contains(&AttrKind::EdgeType) {
        out.push(PartitionTable::dst_and_type());
    }
    out.push(PartitionTable::dst_degree_grouped());
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(
            PartitionTable::vertex_centric().to_string(),
            "uniq(dst-id)=1"
        );
        assert_eq!(
            PartitionTable::dst_batch_min_degree(3).to_string(),
            "uniq(dst-id)=3 & uniq(dst-degree)=min"
        );
        assert_eq!(PartitionTable::new().to_string(), "unrestricted");
    }

    #[test]
    fn lookup_defaults_to_free() {
        let t = PartitionTable::vertex_centric();
        assert_eq!(t.restriction(AttrKind::DstId), Restriction::Exact(1));
        assert_eq!(t.restriction(AttrKind::SrcId), Restriction::Free);
    }

    #[test]
    fn exact_and_min_attr_lists() {
        let t = PartitionTable::dst_batch_min_degree(4);
        assert_eq!(t.exact_attrs(), vec![(AttrKind::DstId, 4)]);
        assert_eq!(t.min_attrs(), vec![AttrKind::DstDegree]);
        assert_eq!(
            t.restricted_attrs(),
            vec![AttrKind::DstId, AttrKind::DstDegree]
        );
    }

    #[test]
    #[should_panic(expected = "meaningless")]
    fn exact_zero_rejected() {
        let _ = PartitionTable::new().exact(AttrKind::DstId, 0);
    }

    #[test]
    fn enumerate_covers_classics_and_model_specific() {
        let tables = enumerate_tables(
            &[AttrKind::SrcId, AttrKind::DstId, AttrKind::EdgeType],
            &[32],
        );
        assert!(tables.contains(&PartitionTable::vertex_centric()));
        assert!(tables.contains(&PartitionTable::edge_centric()));
        assert!(tables.contains(&PartitionTable::src_batch_per_type(32)));
        assert!(tables.contains(&PartitionTable::dst_and_type()));
        // Without edge-type indexing, type-restricted plans disappear.
        let untyped = enumerate_tables(&[AttrKind::SrcId, AttrKind::DstId], &[32]);
        assert!(!untyped.contains(&PartitionTable::dst_and_type()));
        assert!(untyped.len() < tables.len());
    }
}
