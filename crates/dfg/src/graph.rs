//! The DFG container and its builder API.

use crate::dim::{Dim, SymShape};
use crate::op::OpKind;
use wisegraph_graph::AttrKind;

/// Identifier of a node within a [`Dfg`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// One operation instance in the DFG.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Node {
    /// The operation.
    pub kind: OpKind,
    /// Producer nodes feeding this op, in argument order.
    pub inputs: Vec<NodeId>,
    /// Inferred output shape.
    pub shape: SymShape,
}

/// A data-flow graph of GNN operations.
///
/// Nodes are appended through the builder methods, so the vector order is
/// already topological: every node's inputs precede it. The builder is
/// where well-formedness is checked, and the only place: every input and
/// output id is in range and every stored shape is the inferred one.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Dfg {
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
}

impl Dfg {
    /// Creates an empty DFG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with explicit kind and inputs, validating shapes.
    ///
    /// # Panics
    ///
    /// Panics if an input id is out of range or the shapes are invalid for
    /// the operation (the builder is used with model code where a mismatch
    /// is a programming error).
    pub fn add_node(&mut self, kind: OpKind, inputs: Vec<NodeId>) -> NodeId {
        let in_shapes: Vec<SymShape> = inputs
            .iter()
            .map(|&NodeId(i)| {
                assert!(i < self.nodes.len(), "input NodeId({i}) out of range");
                self.nodes[i].shape.clone()
            })
            .collect();
        let shape = kind
            .output_shape(&in_shapes)
            .unwrap_or_else(|e| panic!("invalid DFG node {kind:?}: {e}"));
        self.nodes.push(Node {
            kind,
            inputs,
            shape,
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Declares a dense input tensor.
    pub fn input(&mut self, name: &str, shape: SymShape) -> NodeId {
        self.add_node(
            OpKind::Input {
                name: name.to_string(),
                shape,
            },
            vec![],
        )
    }

    /// Declares an edge-attribute index stream.
    pub fn edge_attr(&mut self, attr: AttrKind) -> NodeId {
        self.add_node(OpKind::EdgeAttr(attr), vec![])
    }

    /// Gather along the first dimension.
    pub fn index(&mut self, data: NodeId, idx: NodeId) -> NodeId {
        self.add_node(OpKind::Index, vec![data, idx])
    }

    /// Gather along the first two dimensions.
    pub fn index2d(&mut self, data: NodeId, idx1: NodeId, idx2: NodeId) -> NodeId {
        self.add_node(OpKind::Index2D, vec![data, idx1, idx2])
    }

    /// Scatter-add into `out` rows.
    pub fn index_add(&mut self, data: NodeId, idx: NodeId, out: Dim) -> NodeId {
        self.add_node(OpKind::IndexAdd { out }, vec![data, idx])
    }

    /// Dense matrix product with a shared weight.
    pub fn linear(&mut self, x: NodeId, w: NodeId) -> NodeId {
        self.add_node(OpKind::Linear, vec![x, w])
    }

    /// Row-wise product with per-row weights.
    pub fn per_edge_linear(&mut self, x: NodeId, w: NodeId) -> NodeId {
        self.add_node(OpKind::PerEdgeLinear, vec![x, w])
    }

    /// All-pairs product (`(A ⊗ C)` of the Index-2D merge).
    pub fn pairwise_linear(&mut self, x: NodeId, w: NodeId) -> NodeId {
        self.add_node(OpKind::PairwiseLinear, vec![x, w])
    }

    /// LSTM aggregation over in-neighbors per destination vertex.
    pub fn lstm_aggregate(
        &mut self,
        x: NodeId,
        dst: NodeId,
        wx: NodeId,
        wh: NodeId,
        b: NodeId,
        hidden: usize,
    ) -> NodeId {
        self.add_node(
            OpKind::LstmAggregate { hidden },
            vec![x, dst, wx, wh, b],
        )
    }

    /// Element-wise addition.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add_node(OpKind::Add, vec![a, b])
    }

    /// Element-wise multiplication.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add_node(OpKind::Mul, vec![a, b])
    }

    /// ReLU activation.
    pub fn relu(&mut self, a: NodeId) -> NodeId {
        self.add_node(OpKind::Relu, vec![a])
    }

    /// Leaky ReLU activation.
    pub fn leaky_relu(&mut self, a: NodeId) -> NodeId {
        self.add_node(OpKind::LeakyRelu, vec![a])
    }

    /// Degree normalization of a `[V, F]` tensor.
    pub fn scale_by_degree_inv(&mut self, x: NodeId) -> NodeId {
        self.add_node(OpKind::ScaleByDegreeInv, vec![x])
    }

    /// Per-segment softmax of edge scores.
    pub fn segment_softmax(&mut self, scores: NodeId, seg: NodeId) -> NodeId {
        self.add_node(OpKind::SegmentSoftmax, vec![scores, seg])
    }

    /// Row scaling by a per-row scalar.
    pub fn scale_rows(&mut self, x: NodeId, s: NodeId) -> NodeId {
        self.add_node(OpKind::ScaleRowsByScalar, vec![x, s])
    }

    /// Column concatenation.
    pub fn concat_cols(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.add_node(OpKind::ConcatCols, vec![a, b])
    }

    /// Drops a trailing singleton column.
    pub fn squeeze_col(&mut self, a: NodeId) -> NodeId {
        self.add_node(OpKind::SqueezeCol, vec![a])
    }

    /// Marks a node as a DFG output.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range, as [`Dfg::add_node`] does for an
    /// input id.
    pub fn mark_output(&mut self, id: NodeId) {
        assert!(id.0 < self.nodes.len(), "output {id:?} out of range");
        self.outputs.push(id);
    }

    /// The declared outputs.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// All nodes, in topological (insertion) order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the DFG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access one node.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// For each node, the list of nodes that consume its output.
    pub fn consumers(&self) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for &NodeId(p) in &n.inputs {
                out[p].push(NodeId(i));
            }
        }
        out
    }

    /// Returns the set of nodes reachable (backwards) from the outputs:
    /// the live part of the graph.
    pub fn live_set(&self) -> Vec<bool> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = self.outputs.iter().map(|o| o.0).collect();
        while let Some(i) = stack.pop() {
            if live[i] {
                continue;
            }
            live[i] = true;
            stack.extend(self.nodes[i].inputs.iter().map(|p| p.0));
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_rgcn_like_dfg() {
        // Figure 2(c): h[src] and W[type] through MLP, reduced by dst.
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

        assert_eq!(d.len(), 9);
        assert_eq!(d.node(out).shape, vec![Dim::Vertices, Dim::Lit(4)]);
        assert_eq!(d.node(hsrc).shape, vec![Dim::Edges, Dim::Lit(8)]);
        assert_eq!(
            d.node(wt).shape,
            vec![Dim::Edges, Dim::Lit(8), Dim::Lit(4)]
        );
    }

    #[test]
    fn consumers_and_liveness() {
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(4)]);
        let w = d.input("w", vec![Dim::Lit(4), Dim::Lit(2)]);
        let dead = d.input("unused", vec![Dim::Lit(1)]);
        let y = d.linear(h, w);
        d.mark_output(y);

        let cons = d.consumers();
        assert_eq!(cons[h.0], vec![y]);
        assert_eq!(cons[w.0], vec![y]);
        assert!(cons[dead.0].is_empty());

        let live = d.live_set();
        assert!(live[h.0] && live[w.0] && live[y.0]);
        assert!(!live[dead.0]);
    }

    #[test]
    #[should_panic(expected = "invalid DFG node")]
    fn builder_rejects_bad_shapes() {
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(4)]);
        let w = d.input("w", vec![Dim::Lit(5), Dim::Lit(2)]);
        d.linear(h, w);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_bad_ids() {
        let mut d = Dfg::new();
        d.add_node(OpKind::Relu, vec![NodeId(3)]);
    }
}
