//! The core edge-list graph type with typed edge attributes.

use crate::attr::AttrKind;
use crate::digest::Fnv64;
use std::sync::OnceLock;

/// A directed graph in coordinate (edge-list) form with edge types.
///
/// Edges are stored as parallel arrays `src[e]`, `dst[e]`, `etype[e]`;
/// the edge's own id is its index. Vertex types are optional (used only to
/// model the partition table's *unused attributes* row).
///
/// In GNN convention an edge `(src, dst)` carries a message from the source
/// to the destination vertex.
#[derive(Clone, Debug)]
pub struct Graph {
    num_vertices: usize,
    num_edge_types: usize,
    src: Vec<u32>,
    dst: Vec<u32>,
    etype: Vec<u32>,
    vertex_type: Option<Vec<u32>>,
    in_degree: Vec<u32>,
    out_degree: Vec<u32>,
    /// Memo of [`Graph::content_key`]. Sound because a graph is immutable
    /// once built: the only builder that changes content on an existing
    /// value, `with_vertex_types`, resets it.
    content_key: OnceLock<u64>,
}

impl Graph {
    /// Builds a graph from parallel edge arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays have different lengths, any endpoint is out of
    /// bounds, or any edge type is `>= num_edge_types`.
    pub fn new(
        num_vertices: usize,
        num_edge_types: usize,
        src: Vec<u32>,
        dst: Vec<u32>,
        etype: Vec<u32>,
    ) -> Self {
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        assert_eq!(src.len(), etype.len(), "src/etype length mismatch");
        let mut in_degree = vec![0u32; num_vertices];
        let mut out_degree = vec![0u32; num_vertices];
        for (&s, (&d, &t)) in src.iter().zip(dst.iter().zip(etype.iter())) {
            assert!((s as usize) < num_vertices, "src {s} out of bounds");
            assert!((d as usize) < num_vertices, "dst {d} out of bounds");
            assert!(
                (t as usize) < num_edge_types.max(1),
                "edge type {t} out of bounds"
            );
            out_degree[s as usize] += 1;
            in_degree[d as usize] += 1;
        }
        Self {
            num_vertices,
            num_edge_types: num_edge_types.max(1),
            src,
            dst,
            etype,
            vertex_type: None,
            in_degree,
            out_degree,
            content_key: OnceLock::new(),
        }
    }

    /// Builds an untyped graph (all edges get type 0).
    pub fn untyped(num_vertices: usize, src: Vec<u32>, dst: Vec<u32>) -> Self {
        let etype = vec![0u32; src.len()];
        Self::new(num_vertices, 1, src, dst, etype)
    }

    /// Attaches per-vertex types (for the unused-attribute table rows).
    ///
    /// # Panics
    ///
    /// Panics if `types.len() != num_vertices`.
    pub fn with_vertex_types(mut self, types: Vec<u32>) -> Self {
        assert_eq!(types.len(), self.num_vertices, "vertex type length");
        self.vertex_type = Some(types);
        self.content_key = OnceLock::new();
        self
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.src.len()
    }

    /// Number of distinct edge types.
    pub fn num_edge_types(&self) -> usize {
        self.num_edge_types
    }

    /// Source vertex ids, one per edge.
    pub fn src(&self) -> &[u32] {
        &self.src
    }

    /// Destination vertex ids, one per edge.
    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// Edge types, one per edge.
    pub fn etype(&self) -> &[u32] {
        &self.etype
    }

    /// In-degrees (number of incoming edges) per vertex.
    pub fn in_degree(&self) -> &[u32] {
        &self.in_degree
    }

    /// Out-degrees per vertex.
    pub fn out_degree(&self) -> &[u32] {
        &self.out_degree
    }

    /// Vertex types, one per vertex, when attached.
    pub fn vertex_types(&self) -> Option<&[u32]> {
        self.vertex_type.as_deref()
    }

    /// Content digest of the graph, computed on first use and then read
    /// from the graph: FNV-1a over the vertex/edge/type counts and the full
    /// `src`/`dst`/`etype` arrays, then — only when vertex types are
    /// attached — a marker and the type array (so an untyped graph keeps
    /// the digest it always had). Two graphs share a key iff every
    /// attribute a partition table can restrict on is identical. This is
    /// the graph component of the planning cache's keys.
    pub fn content_key(&self) -> u64 {
        *self.content_key.get_or_init(|| {
            let mut h = Fnv64::new();
            h.write_u64(self.num_vertices as u64);
            h.write_u64(self.num_edges() as u64);
            h.write_u64(self.num_edge_types as u64);
            for column in [&self.src, &self.dst, &self.etype] {
                for &x in column {
                    h.write_u32(x);
                }
            }
            if let Some(types) = &self.vertex_type {
                h.write(b"vertex-types");
                for &t in types {
                    h.write_u32(t);
                }
            }
            h.finish()
        })
    }

    /// Returns the value of an edge attribute for edge `e`.
    ///
    /// This is the single accessor the partitioner uses: every attribute the
    /// graph partition table can restrict on is funneled through here.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds.
    #[inline]
    pub fn edge_attr(&self, kind: AttrKind, e: usize) -> u64 {
        match kind {
            AttrKind::EdgeId => e as u64,
            AttrKind::SrcId => self.src[e] as u64,
            AttrKind::DstId => self.dst[e] as u64,
            AttrKind::EdgeType => self.etype[e] as u64,
            AttrKind::DstDegree => self.in_degree[self.dst[e] as usize] as u64,
            AttrKind::SrcDegree => self.out_degree[self.src[e] as usize] as u64,
            AttrKind::SrcVertexType => self
                .vertex_type
                .as_ref()
                .map_or(0, |t| t[self.src[e] as usize] as u64),
            AttrKind::DstVertexType => self
                .vertex_type
                .as_ref()
                .map_or(0, |t| t[self.dst[e] as usize] as u64),
        }
    }

    /// Returns a new graph with vertices renamed by `perm` (old id → new id).
    ///
    /// Edge order is preserved; only endpoint ids change. Used to compose a
    /// Metis/Rabbit-style reordering with gTask partitioning (§4.3).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..num_vertices`.
    pub fn relabel(&self, perm: &[u32]) -> Graph {
        assert_eq!(perm.len(), self.num_vertices, "permutation length");
        let mut seen = vec![false; self.num_vertices];
        for &p in perm {
            assert!(
                (p as usize) < self.num_vertices && !seen[p as usize],
                "perm is not a permutation"
            );
            seen[p as usize] = true;
        }
        let src = self.src.iter().map(|&s| perm[s as usize]).collect();
        let dst = self.dst.iter().map(|&d| perm[d as usize]).collect();
        let mut g = Graph::new(
            self.num_vertices,
            self.num_edge_types,
            src,
            dst,
            self.etype.clone(),
        );
        if let Some(vt) = &self.vertex_type {
            let mut new_vt = vec![0u32; self.num_vertices];
            for (old, &new) in perm.iter().enumerate() {
                new_vt[new as usize] = vt[old];
            }
            g.vertex_type = Some(new_vt);
        }
        g
    }

    /// Returns the subgraph induced by the given edge subset, with vertices
    /// renumbered compactly. Returns `(subgraph, vertex_map)` where
    /// `vertex_map[new_id] = old_id`.
    ///
    /// # Panics
    ///
    /// Panics if an edge index is out of bounds.
    pub fn edge_subgraph(&self, edges: &[usize]) -> (Graph, Vec<u32>) {
        let mut remap = vec![u32::MAX; self.num_vertices];
        let mut vmap: Vec<u32> = Vec::new();
        let map_vertex = |v: u32, remap: &mut Vec<u32>, vmap: &mut Vec<u32>| -> u32 {
            if remap[v as usize] == u32::MAX {
                remap[v as usize] = vmap.len() as u32;
                vmap.push(v);
            }
            remap[v as usize]
        };
        let mut src = Vec::with_capacity(edges.len());
        let mut dst = Vec::with_capacity(edges.len());
        let mut etype = Vec::with_capacity(edges.len());
        for &e in edges {
            src.push(map_vertex(self.src[e], &mut remap, &mut vmap));
            dst.push(map_vertex(self.dst[e], &mut remap, &mut vmap));
            etype.push(self.etype[e]);
        }
        let g = Graph::new(vmap.len(), self.num_edge_types, src, dst, etype);
        (g, vmap)
    }

    /// Estimated bytes to store this graph's topology (u32 COO + types).
    pub fn topology_bytes(&self) -> usize {
        self.num_edges() * (4 + 4 + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_graph() -> Graph {
        // The 5-vertex, 11-edge example of Figure 5(a):
        // Edge ID:   0 1 2 3 4 5 6 7 8 9 10
        // Dst ID:    0 0 1 1 1 2 2 2 3 3 4
        // Src ID:    0 1 0 1 2 2 3 4 3 4 0
        // Edge type: a a a a b a b b b b a   (a=0, b=1)
        Graph::new(
            5,
            2,
            vec![0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0],
            vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
            vec![0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0],
        )
    }

    #[test]
    fn construction_and_degrees() {
        let g = paper_graph();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 11);
        assert_eq!(g.in_degree(), &[2, 3, 3, 2, 1]);
        assert_eq!(g.out_degree(), &[3, 2, 2, 2, 2]);
    }

    #[test]
    fn edge_attr_matches_figure5() {
        let g = paper_graph();
        assert_eq!(g.edge_attr(AttrKind::EdgeId, 4), 4);
        assert_eq!(g.edge_attr(AttrKind::SrcId, 4), 2);
        assert_eq!(g.edge_attr(AttrKind::DstId, 4), 1);
        assert_eq!(g.edge_attr(AttrKind::EdgeType, 4), 1);
        assert_eq!(g.edge_attr(AttrKind::DstDegree, 4), 3);
        assert_eq!(g.edge_attr(AttrKind::SrcDegree, 4), 2);
    }

    #[test]
    fn vertex_types_default_to_zero() {
        let g = paper_graph();
        assert_eq!(g.edge_attr(AttrKind::SrcVertexType, 0), 0);
        let g = g.with_vertex_types(vec![0, 1, 2, 3, 4]);
        assert_eq!(g.edge_attr(AttrKind::SrcVertexType, 4), 2);
        assert_eq!(g.edge_attr(AttrKind::DstVertexType, 4), 1);
    }

    #[test]
    fn content_key_tracks_content_not_identity() {
        let g = paper_graph();
        assert_eq!(g.content_key(), paper_graph().content_key());
        assert_eq!(g.content_key(), g.clone().content_key());
        let perm: Vec<u32> = (0..5).rev().collect();
        assert_ne!(g.content_key(), g.relabel(&perm).content_key());
        // Attaching vertex types after the key was read must not serve the
        // untyped memo; different types are different content.
        let typed = g.clone().with_vertex_types(vec![0, 1, 0, 1, 0]);
        assert_ne!(typed.content_key(), g.content_key());
        assert_ne!(
            typed.content_key(),
            g.clone()
                .with_vertex_types(vec![0, 1, 0, 1, 1])
                .content_key()
        );
        assert_eq!(
            typed.relabel(&perm).content_key(),
            g.relabel(&perm)
                .with_vertex_types(vec![0, 1, 0, 1, 0])
                .content_key()
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rejects_bad_endpoint() {
        Graph::untyped(2, vec![0, 2], vec![1, 0]);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = paper_graph();
        // Reverse the vertex ids.
        let perm: Vec<u32> = (0..5).rev().collect();
        let r = g.relabel(&perm);
        assert_eq!(r.num_edges(), g.num_edges());
        // Edge 4 was (2 -> 1); now (2 -> 3).
        assert_eq!(r.src()[4], 2);
        assert_eq!(r.dst()[4], 3);
        // Degree multiset is preserved.
        let mut a = g.in_degree().to_vec();
        let mut b = r.in_degree().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutation() {
        paper_graph().relabel(&[0, 0, 1, 2, 3]);
    }

    #[test]
    fn edge_subgraph_compacts_vertices() {
        let g = paper_graph();
        let (sub, vmap) = g.edge_subgraph(&[5, 6, 7]); // edges into vertex 2
        assert_eq!(sub.num_edges(), 3);
        // Vertices touched: 2 (src of 5 and dst of all), 3, 4.
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(vmap.len(), 3);
        // Every subgraph edge maps back to an original edge.
        for i in 0..3 {
            let (s, d) = (vmap[sub.src()[i] as usize], vmap[sub.dst()[i] as usize]);
            assert_eq!(d, 2);
            assert!([2, 3, 4].contains(&s));
        }
    }
}
