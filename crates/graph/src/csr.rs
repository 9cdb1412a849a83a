//! Compressed sparse row adjacency built from an edge-list graph.

use crate::graph::Graph;

/// CSR adjacency: one row per vertex, listing its in-edges
/// ([`Csr::in_of`]) or its out-edges ([`Csr::out_of`]).
///
/// [`Csr::row`]`(v)` pairs each edge of row `v` with the vertex at its
/// other end. Each row lists its edges by ascending edge id, in both
/// CSRs: the rows laid end to end are the edge list sorted by `(row, edge
/// id)`. A row of `in_of` is thus the paper's vertex-centric gTask
/// (`uniq(dst-id) = 1`), and a walk of it sums in the order of a
/// scatter-add by edge id.
#[derive(Clone, Debug)]
pub struct Csr {
    offsets: Vec<usize>,
    endpoints: Vec<u32>,
    edge_ids: Vec<u32>,
}

impl Csr {
    /// Builds an in-edge CSR (rows are destination vertices).
    pub fn in_of(g: &Graph) -> Self {
        Self::build(g.num_vertices(), g.dst(), g.src())
    }

    /// Builds an out-edge CSR (rows are source vertices).
    pub fn out_of(g: &Graph) -> Self {
        Self::build(g.num_vertices(), g.src(), g.dst())
    }

    fn build(num_vertices: usize, rows: &[u32], cols: &[u32]) -> Self {
        let mut counts = vec![0usize; num_vertices + 1];
        for &r in rows {
            counts[r as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut endpoints = vec![0u32; rows.len()];
        let mut edge_ids = vec![0u32; rows.len()];
        for (e, (&r, &c)) in rows.iter().zip(cols.iter()).enumerate() {
            let slot = cursor[r as usize];
            endpoints[slot] = c;
            edge_ids[slot] = e as u32;
            cursor[r as usize] += 1;
        }
        Self {
            offsets,
            endpoints,
            edge_ids,
        }
    }

    /// Number of stored edges.
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Degree of row `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Row `v` as two parallel slices: neighbor endpoints and their original
    /// edge ids, so position `i` of the row is `(row.0[i], row.1[i])`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn row(&self, v: usize) -> (&[u32], &[u32]) {
        let range = self.offsets[v]..self.offsets[v + 1];
        (&self.endpoints[range.clone()], &self.edge_ids[range])
    }

    /// The neighbor endpoints of row `v` with their original edge ids.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (endpoints, edge_ids) = self.row(v);
        endpoints.iter().copied().zip(edge_ids.iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{rmat, RmatParams};

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
    fn in_csr_matches_degrees() {
        let g = paper_graph();
        let csr = Csr::in_of(&g);
        assert_eq!(csr.num_edges(), 11);
        for v in 0..5 {
            assert_eq!(csr.degree(v), g.in_degree()[v] as usize);
        }
    }

    #[test]
    fn neighbors_carry_edge_ids() {
        let g = paper_graph();
        let csr = Csr::in_of(&g);
        let nbrs: Vec<(u32, u32)> = csr.neighbors(1).collect();
        // Vertex 1 receives edges 2, 3, 4 from sources 0, 1, 2.
        assert_eq!(nbrs, vec![(0, 2), (1, 3), (2, 4)]);
    }

    #[test]
    fn out_csr_is_transpose() {
        let g = paper_graph();
        let out = Csr::out_of(&g);
        let nbrs: Vec<u32> = out.neighbors(0).map(|(v, _)| v).collect();
        // Vertex 0 sends edges to 0 (edge 0), 1 (edge 2), 4 (edge 10).
        assert_eq!(nbrs, vec![0, 1, 4]);
        // Round trip: every out-edge appears exactly once.
        let total: usize = (0..5).map(|v| out.degree(v)).sum();
        assert_eq!(total, g.num_edges());
    }

    /// The order stated on [`Csr`], on a typed RMAT with duplicate edges
    /// and self-loops: both CSRs' rows, laid end to end, are a
    /// `(row, edge id)` sort of the edge list.
    #[test]
    fn rows_list_their_edges_by_ascending_id() {
        let g = rmat(&RmatParams::standard(90, 700, 61).with_edge_types(3));
        let edges: Vec<_> = g.src().iter().zip(g.dst()).collect();
        assert!(edges.iter().any(|(s, d)| s == d), "a self-loop");
        let unique: std::collections::HashSet<_> = edges.iter().collect();
        assert!(unique.len() < edges.len(), "a duplicate edge");
        for (csr, rows, cols) in [
            (Csr::in_of(&g), g.dst(), g.src()),
            (Csr::out_of(&g), g.src(), g.dst()),
        ] {
            let mut want: Vec<(u32, u32, u32)> = (0..g.num_edges())
                .map(|e| (rows[e], e as u32, cols[e]))
                .collect();
            want.sort_unstable();
            let got: Vec<(u32, u32, u32)> = (0..g.num_vertices())
                .flat_map(|v| {
                    let (ends, ids) = csr.row(v);
                    ends.iter().zip(ids).map(move |(&c, &e)| (v as u32, e, c))
                })
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn empty_rows_have_zero_degree() {
        let g = Graph::untyped(4, vec![0], vec![1]);
        let csr = Csr::in_of(&g);
        assert_eq!(csr.degree(0), 0);
        assert_eq!(csr.degree(1), 1);
        assert_eq!(csr.degree(2), 0);
        assert_eq!(csr.degree(3), 0);
    }
}
