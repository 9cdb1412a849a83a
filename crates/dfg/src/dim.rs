//! Symbolic tensor dimensions and their concrete bindings.
//!
//! Workload accounting must be evaluated both for the whole graph (plan
//! comparison) and per gTask (pattern analysis), so tensor shapes in the DFG
//! are symbolic: `[|V|, 128]`, `[uniq(src-id), F]`, etc. A [`Binding`]
//! supplies the concrete numbers for one scope.

use std::collections::HashMap;
use wisegraph_graph::{AttrKind, Graph};

/// One symbolic dimension of a tensor shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Number of vertices in the scope.
    Vertices,
    /// Number of edges in the scope.
    Edges,
    /// Number of distinct values of an edge attribute in the scope
    /// (`uniq(attr)` in the paper's notation).
    Unique(AttrKind),
    /// Number of edge types of the graph (a model constant).
    EdgeTypes,
    /// A literal (model-defined) extent such as a feature dimension.
    Lit(usize),
}

/// A symbolic tensor shape.
pub type SymShape = Vec<Dim>;

/// Number of distinct values, counted in a bitmap sized by the largest.
fn distinct<T: Into<u64>>(vals: impl Iterator<Item = T> + Clone) -> usize {
    let vals = vals.map(Into::into);
    let Some(max) = vals.clone().max() else {
        return 0;
    };
    let mut seen = vec![false; max as usize + 1];
    vals.filter(|&v| !std::mem::replace(&mut seen[v as usize], true))
        .count()
}

/// Concrete values for every symbolic dimension in one scope.
#[derive(Clone, Debug, Default)]
pub struct Binding {
    /// `|V|` in this scope.
    pub vertices: usize,
    /// `|E|` in this scope.
    pub edges: usize,
    /// Number of edge types of the model/graph.
    pub edge_types: usize,
    /// `uniq(attr)` per attribute in this scope.
    pub unique: HashMap<AttrKind, usize>,
}

impl Binding {
    /// Builds the whole-graph binding: `uniq(attr)` over all edges, read off
    /// the graph's degree arrays instead of scanning the edges.
    ///
    /// Cost: O(|V|) plus a scan of `etype`. A vertex id occurs as a
    /// source (destination) iff its out- (in-) degree is non-zero, so the
    /// id, degree and vertex-type counts are counts over those live
    /// vertices; every edge id is distinct.
    pub fn from_graph(g: &Graph) -> Self {
        let live = |deg: &[u32]| deg.iter().filter(|&&d| d > 0).count();
        let degrees = |deg: &[u32]| distinct(deg.iter().copied().filter(|&d| d > 0));
        // An untyped graph reads vertex type 0 for every endpoint.
        let types = |deg: &[u32]| match g.vertex_types() {
            Some(t) => distinct(t.iter().zip(deg).filter(|&(_, &d)| d > 0).map(|(&t, _)| t)),
            None => usize::from(g.num_edges() > 0),
        };
        let (out_deg, in_deg) = (g.out_degree(), g.in_degree());
        let unique = HashMap::from([
            (AttrKind::EdgeId, g.num_edges()),
            (AttrKind::SrcId, live(out_deg)),
            (AttrKind::DstId, live(in_deg)),
            (AttrKind::EdgeType, distinct(g.etype().iter().copied())),
            (AttrKind::SrcDegree, degrees(out_deg)),
            (AttrKind::DstDegree, degrees(in_deg)),
            (AttrKind::SrcVertexType, types(out_deg)),
            (AttrKind::DstVertexType, types(in_deg)),
        ]);
        Binding {
            vertices: g.num_vertices(),
            edges: g.num_edges(),
            edge_types: g.num_edge_types(),
            unique,
        }
    }

    /// Evaluates a symbolic dimension.
    ///
    /// # Panics
    ///
    /// Panics if a `Unique` attribute was not recorded in this binding.
    pub fn eval(&self, dim: Dim) -> usize {
        match dim {
            Dim::Vertices => self.vertices,
            Dim::Edges => self.edges,
            Dim::EdgeTypes => self.edge_types,
            Dim::Lit(n) => n,
            Dim::Unique(a) => *self
                .unique
                .get(&a)
                .unwrap_or_else(|| panic!("no unique count recorded for {a}")),
        }
    }

    /// Evaluates a full shape to its element count.
    pub fn numel(&self, shape: &SymShape) -> usize {
        shape.iter().map(|&d| self.eval(d)).product()
    }

    /// Evaluates a full shape to concrete extents.
    pub fn concrete(&self, shape: &SymShape) -> Vec<usize> {
        shape.iter().map(|&d| self.eval(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_graph() -> Graph {
        Graph::new(
            5,
            2,
            vec![0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0],
            vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
            vec![0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0],
        )
    }

    #[test]
    fn whole_graph_binding() {
        let g = paper_graph();
        let b = Binding::from_graph(&g);
        assert_eq!(b.vertices, 5);
        assert_eq!(b.edges, 11);
        assert_eq!(b.edge_types, 2);
        assert_eq!(b.eval(Dim::Unique(AttrKind::SrcId)), 5);
        assert_eq!(b.eval(Dim::Unique(AttrKind::DstId)), 5);
        assert_eq!(b.eval(Dim::Unique(AttrKind::EdgeType)), 2);
        assert_eq!(b.eval(Dim::Unique(AttrKind::EdgeId)), 11);
    }

    #[test]
    fn shape_evaluation() {
        let g = paper_graph();
        let b = Binding::from_graph(&g);
        let shape: SymShape = vec![Dim::Vertices, Dim::Lit(128)];
        assert_eq!(b.numel(&shape), 5 * 128);
        assert_eq!(b.concrete(&shape), vec![5, 128]);
        let w: SymShape = vec![Dim::EdgeTypes, Dim::Lit(4), Dim::Lit(8)];
        assert_eq!(b.numel(&w), 2 * 4 * 8);
    }
}
