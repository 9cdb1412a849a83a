//! Operation partition plans: assigning DFG operations to kernels.

use std::collections::HashSet;
use wisegraph_dfg::{Dfg, NodeId};

/// An assignment of the DFG's live compute nodes to kernels.
///
/// Source nodes (`Input`, `EdgeAttr`, `UniqueValues`, `UniqueMap`) are not
/// scheduled — they are resident data. Every other live node belongs to
/// exactly one group; each group becomes one generated kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpPartition {
    groups: Vec<Vec<NodeId>>,
}

/// Returns `true` if a node is resident data rather than scheduled work.
pub fn is_source(dfg: &Dfg, id: NodeId) -> bool {
    let kind = &dfg.node(id).kind;
    matches!(kind, wisegraph_dfg::OpKind::Input { .. }) || kind.is_index_stream()
}

impl OpPartition {
    /// Builds a partition from explicit groups.
    ///
    /// # Panics
    ///
    /// Panics if the groups do not cover every live compute node exactly
    /// once, or contain source/dead nodes.
    pub fn new(dfg: &Dfg, groups: Vec<Vec<NodeId>>) -> Self {
        let live = dfg.live_set();
        let mut seen = HashSet::new();
        for g in &groups {
            for &id in g {
                assert!(live[id.0], "group contains dead node {id:?}");
                assert!(!is_source(dfg, id), "group contains source node {id:?}");
                assert!(seen.insert(id), "node {id:?} appears in two groups");
            }
        }
        for (i, alive) in live.iter().enumerate() {
            let id = NodeId(i);
            if *alive && !is_source(dfg, id) {
                assert!(
                    seen.contains(&id),
                    "live compute node {id:?} not assigned to any group"
                );
            }
        }
        Self { groups }
    }

    /// Tensor-centric partition: one kernel per operation (§2.2).
    pub fn separate(dfg: &Dfg) -> Self {
        let live = dfg.live_set();
        let groups = (0..dfg.len())
            .filter(|&i| live[i] && !is_source(dfg, NodeId(i)))
            .map(|i| vec![NodeId(i)])
            .collect();
        Self::new(dfg, groups)
    }

    /// Graph-centric partition: every operation fused into one kernel.
    pub fn fused(dfg: &Dfg) -> Self {
        let live = dfg.live_set();
        let group: Vec<NodeId> = (0..dfg.len())
            .filter(|&i| live[i] && !is_source(dfg, NodeId(i)))
            .map(NodeId)
            .collect();
        Self::new(dfg, vec![group])
    }

    /// WiseGraph's default shape: heavy dense producers (`Linear`,
    /// `PairwiseLinear`) in stand-alone kernels (they batch globally), the
    /// per-edge chain (indexing, element-wise, reductions) fused into one.
    pub fn dense_separate_rest_fused(dfg: &Dfg) -> Self {
        let live = dfg.live_set();
        let mut dense = Vec::new();
        let mut rest = Vec::new();
        for (i, &is_live) in live.iter().enumerate().take(dfg.len()) {
            let id = NodeId(i);
            if !is_live || is_source(dfg, id) {
                continue;
            }
            match dfg.node(id).kind {
                wisegraph_dfg::OpKind::Linear | wisegraph_dfg::OpKind::PairwiseLinear => {
                    dense.push(id)
                }
                _ => rest.push(id),
            }
        }
        let mut groups: Vec<Vec<NodeId>> = dense.into_iter().map(|d| vec![d]).collect();
        if !rest.is_empty() {
            groups.push(rest);
        }
        Self::new(dfg, groups)
    }

    /// The kernel groups.
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_dfg::Dim;
    use wisegraph_graph::AttrKind;

    fn rgcn_dfg() -> Dfg {
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(8)]);
        let w = d.input("W", vec![Dim::EdgeTypes, Dim::Lit(8), Dim::Lit(4)]);
        let src = d.edge_attr(AttrKind::SrcId);
        let ty = d.edge_attr(AttrKind::EdgeType);
        let dst = d.edge_attr(AttrKind::DstId);
        let hsrc = d.index(h, src);
        let wt = d.index(w, ty);
        let msg = d.per_edge_linear(hsrc, wt);
        let out = d.index_add(msg, dst, Dim::Vertices);
        d.mark_output(out);
        d
    }

    #[test]
    fn separate_yields_one_kernel_per_compute_node() {
        let d = rgcn_dfg();
        let p = OpPartition::separate(&d);
        // Compute nodes: two Index, PerEdgeLinear, IndexAdd.
        assert_eq!(p.groups().len(), 4);
        assert!(p.groups().iter().all(|g| g.len() == 1));
    }

    #[test]
    fn fused_yields_single_kernel() {
        let d = rgcn_dfg();
        let p = OpPartition::fused(&d);
        assert_eq!(p.groups().len(), 1);
        assert_eq!(p.groups()[0].len(), 4);
    }

    #[test]
    fn dense_separate_rest_fused_splits_linears() {
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(8)]);
        let w = d.input("w", vec![Dim::Lit(8), Dim::Lit(8)]);
        let src = d.edge_attr(AttrKind::SrcId);
        let dst = d.edge_attr(AttrKind::DstId);
        let proj = d.linear(h, w);
        let gathered = d.index(proj, src);
        let agg = d.index_add(gathered, dst, Dim::Vertices);
        d.mark_output(agg);
        let p = OpPartition::dense_separate_rest_fused(&d);
        assert_eq!(p.groups().len(), 2);
        // One group holds exactly the Linear.
        assert!(p
            .groups()
            .iter()
            .any(|g| g.len() == 1 && g[0] == proj));
    }

    #[test]
    #[should_panic(expected = "not assigned")]
    fn missing_node_rejected() {
        let d = rgcn_dfg();
        OpPartition::new(&d, vec![]);
    }

    #[test]
    #[should_panic(expected = "two groups")]
    fn duplicate_node_rejected() {
        let d = rgcn_dfg();
        let all: Vec<NodeId> = OpPartition::fused(&d).groups()[0].clone();
        let mut groups = vec![all.clone()];
        groups.push(vec![all[0]]);
        OpPartition::new(&d, groups);
    }
}
