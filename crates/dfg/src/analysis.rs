//! DFG analyses: indexing-attribute identification and workload accounting.

use crate::dim::Binding;
use crate::graph::{Dfg, NodeId};
use crate::op::OpKind;
use std::collections::BTreeSet;
use wisegraph_graph::AttrKind;

/// Identifies the *indexing edge attributes* of a model (paper §4.1):
/// attributes whose `EdgeAttr` streams drive indexing operations (or
/// structured aggregations) and therefore determine memory-access patterns.
pub fn indexing_attrs(dfg: &Dfg) -> BTreeSet<AttrKind> {
    let consumers = dfg.consumers();
    let mut out = BTreeSet::new();
    for (i, node) in dfg.nodes().iter().enumerate() {
        let OpKind::EdgeAttr(attr) = node.kind else {
            continue;
        };
        let used_for_indexing = consumers[i].iter().any(|&NodeId(c)| {
            matches!(
                dfg.node(NodeId(c)).kind,
                OpKind::Index
                    | OpKind::Index2D
                    | OpKind::IndexAdd { .. }
                    | OpKind::LstmAggregate { .. }
                    | OpKind::SegmentSoftmax
            )
        });
        if used_for_indexing {
            out.insert(attr);
        }
    }
    out
}

/// A workload summary: the three components of the paper's cost model
/// (§6.3): computation, memory volume, and parallelism.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Workload {
    /// Floating-point operations in neural ops.
    pub neural_flops: f64,
    /// Floating-point operations in indexing/reduction ops.
    pub indexing_flops: f64,
    /// Global-memory bytes moved by neural ops.
    pub neural_bytes: f64,
    /// Global-memory bytes moved by indexing ops.
    pub indexing_bytes: f64,
    /// Minimum of per-op parallel rows over heavy ops: a proxy for whether
    /// the plan can keep a device busy.
    pub min_parallel_rows: f64,
}

impl Workload {
    /// Total FLOPs.
    pub fn flops(&self) -> f64 {
        self.neural_flops + self.indexing_flops
    }

    /// Total bytes moved.
    pub fn bytes(&self) -> f64 {
        self.neural_bytes + self.indexing_bytes
    }
}

/// Sums the workload of every live node of the DFG under a binding.
pub fn workload(dfg: &Dfg, binding: &Binding) -> Workload {
    let live = dfg.live_set();
    let mut w = Workload {
        min_parallel_rows: f64::INFINITY,
        ..Default::default()
    };
    let mut any_heavy = false;
    for (i, node) in dfg.nodes().iter().enumerate() {
        if !live[i] {
            continue;
        }
        let in_shapes: Vec<_> = node
            .inputs
            .iter()
            .map(|&p| dfg.node(p).shape.clone())
            .collect();
        let flops = node.kind.flops(&in_shapes, &node.shape, binding);
        let bytes = node.kind.mem_bytes(&in_shapes, &node.shape, binding);
        if node.kind.is_neural() {
            w.neural_flops += flops;
            w.neural_bytes += bytes;
        } else {
            w.indexing_flops += flops;
            w.indexing_bytes += bytes;
        }
        // Parallelism proxy: rows of the output of heavy ops.
        if matches!(
            node.kind,
            OpKind::Linear
                | OpKind::PerEdgeLinear
                | OpKind::PairwiseLinear
                | OpKind::LstmAggregate { .. }
        ) {
            let rows: f64 = node.shape[..node.shape.len().saturating_sub(1)]
                .iter()
                .map(|&d| binding.eval(d) as f64)
                .product();
            w.min_parallel_rows = w.min_parallel_rows.min(rows);
            any_heavy = true;
        }
    }
    if !any_heavy {
        w.min_parallel_rows = binding.edges as f64;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Dim;
    use wisegraph_graph::Graph;

    fn paper_graph() -> Graph {
        Graph::new(
            5,
            2,
            vec![0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0],
            vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
            vec![0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0],
        )
    }

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
    fn rgcn_indexing_attrs_match_figure5b() {
        let attrs = indexing_attrs(&rgcn_dfg());
        let expect: BTreeSet<AttrKind> =
            [AttrKind::SrcId, AttrKind::EdgeType, AttrKind::DstId]
                .into_iter()
                .collect();
        assert_eq!(attrs, expect);
    }

    #[test]
    fn unused_attr_is_not_reported() {
        let mut d = rgcn_dfg();
        // An attribute stream that feeds nothing.
        d.edge_attr(AttrKind::SrcVertexType);
        let attrs = indexing_attrs(&d);
        assert!(!attrs.contains(&AttrKind::SrcVertexType));
    }

    #[test]
    fn workload_accounts_neural_and_indexing() {
        let g = paper_graph();
        let b = Binding::from_graph(&g);
        let w = workload(&rgcn_dfg(), &b);
        // PerEdgeLinear: 2·E·8·4 = 704 FLOPs.
        assert_eq!(w.neural_flops, 2.0 * 11.0 * 8.0 * 4.0);
        assert!(w.indexing_bytes > 0.0, "index ops move bytes");
        // IndexAdd contributes indexing flops (the additions).
        assert!(w.indexing_flops > 0.0);
        assert_eq!(w.min_parallel_rows, 11.0);
    }

    #[test]
    fn dead_nodes_cost_nothing() {
        let g = paper_graph();
        let b = Binding::from_graph(&g);
        let mut d = rgcn_dfg();
        let base = workload(&d, &b);
        // Add an expensive dead node.
        let h2 = d.input("h2", vec![Dim::Vertices, Dim::Lit(128)]);
        let w2 = d.input("w2", vec![Dim::Lit(128), Dim::Lit(128)]);
        let _dead = d.linear(h2, w2);
        let after = workload(&d, &b);
        assert_eq!(base, after);
    }
}
