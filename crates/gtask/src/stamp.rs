//! Epoch-stamped dense value sets and the code columns that size them.
//!
//! Edge-attribute values are small non-negative integers — vertex and edge
//! ids, degrees, type codes — so "which values has this gTask seen" is a
//! table lookup, not a hash probe: `stamp[v] == epoch` means `v` is in the
//! set, and [`StampSet::clear`] bumps the epoch instead of touching the
//! table. One set serves every gTask of a partition scan (and every task of
//! a verifier recount) with O(1) insert, lookup and clear.
//!
//! A value is not always small: a vertex-type code may be 3·10⁹ on a
//! three-vertex graph. A [`Column`] holds an attribute's values over a list
//! of edges as `u32` codes and, when the largest value exceeds the bucket
//! budget of the list (`bucket_budget`), replaces them by their dense
//! rank, which keeps their order and their distinct count. A table is
//! sized by its column's code range, never by a raw value.
//!
//! A [`Recount`] pairs the two over a whole graph: the distinct-value
//! count of any edge list, in one pass over it, with each attribute's
//! column built once.

use wisegraph_graph::{AttrKind, Graph};

/// The most buckets a counting pass or a stamp table over `n` edges may
/// take: `n`, but at least 2¹⁶ so small inputs never compact.
pub(crate) fn bucket_budget(n: usize) -> usize {
    n.max(1 << 16)
}

/// One attribute's values over a list of edges, as codes below
/// [`Column::len`]: the values themselves when they fit the list's bucket
/// budget, their dense rank otherwise. Either way codes compare like the
/// values and two edges share a code exactly when they share a value.
#[derive(Clone, Debug)]
pub struct Column {
    /// One code per edge of the list, in list order.
    pub codes: Vec<u32>,
    /// One past the largest code: the stamp-table length the column needs.
    pub len: usize,
}

impl Column {
    /// `attr`'s column over `edges` (edge ids of `g`).
    pub fn new(g: &Graph, attr: AttrKind, edges: impl ExactSizeIterator<Item = usize>) -> Self {
        let budget = bucket_budget(edges.len());
        // Every attribute value is a `u32` of the graph or an edge id,
        // which a plan keeps below 2³².
        let mut codes: Vec<u32> = edges.map(|e| g.edge_attr(attr, e) as u32).collect();
        let mut len = codes.iter().max().map_or(0, |&m| m as usize + 1);
        if len > budget {
            let mut values = codes.clone();
            values.sort_unstable();
            values.dedup();
            for c in &mut codes {
                *c = values.partition_point(|&v| v < *c) as u32;
            }
            len = values.len();
        }
        Self { codes, len }
    }
}

/// A set of `u32` codes below a fixed bound, backed by one `u32` stamp per
/// code: memory is `4 · len` bytes for the `len` it was made with.
#[derive(Debug)]
pub struct StampSet {
    stamp: Vec<u32>,
    epoch: u32,
    len: usize,
}

impl StampSet {
    /// An empty set of codes below `len` (a [`Column::len`]).
    pub fn with_len(len: usize) -> Self {
        Self {
            stamp: vec![0; len],
            epoch: 1,
            len: 0,
        }
    }

    /// Number of distinct codes inserted since the last [`clear`](Self::clear).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing was inserted since the last [`clear`](Self::clear).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True when `v` was inserted since the last [`clear`](Self::clear).
    pub fn contains(&self, v: u32) -> bool {
        self.stamp.get(v as usize).is_some_and(|&s| s == self.epoch)
    }

    /// Adds `v`; returns whether it was new.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not below the set's bound.
    pub fn insert(&mut self, v: u32) -> bool {
        let s = &mut self.stamp[v as usize];
        if *s == self.epoch {
            return false;
        }
        *s = self.epoch;
        self.len += 1;
        true
    }

    /// Empties the set in O(1) (O(table) once every `u32::MAX` clears, when
    /// the epoch wraps).
    pub fn clear(&mut self) {
        self.len = 0;
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Length of the stamp table.
    #[cfg(test)]
    pub(crate) fn table_len(&self) -> usize {
        self.stamp.len()
    }
}

/// Distinct-value recount over lists of a graph's edges, from the graph
/// alone (never from a plan's recorded counts): the one count the plan
/// verifiers (`P002`, `C001`), the plan pricer and the outlier classifier
/// share. Each attribute's [`Column`] is built over every edge of the
/// graph on its first use (span `gtask.recount.column`), so a sparse value
/// is dense-ranked before it can size a table, and is kept with one
/// [`StampSet`] reused across lists, so recounting every task of a plan is
/// O(E) and one recount serves every plan of its graph.
#[derive(Debug)]
pub struct Recount<'g> {
    g: &'g Graph,
    cols: Vec<(AttrKind, Column, StampSet)>,
}

impl<'g> Recount<'g> {
    /// A recount of `g`'s attributes; no column is built yet.
    pub fn new(g: &'g Graph) -> Self {
        Self { g, cols: Vec::new() }
    }

    /// The graph whose edges this recount counts.
    pub fn graph(&self) -> &'g Graph {
        self.g
    }

    /// Distinct values of `attr` over `edges` (ids of the graph's edges).
    pub fn unique(&mut self, attr: AttrKind, edges: &[u32]) -> usize {
        self.unique_by(attr, edges, |_, _| {})
    }

    /// [`unique`](Self::unique), also calling `first(edge, code)` with each
    /// edge whose value no earlier edge of `edges` holds and that value's
    /// code in `attr`'s column.
    pub fn unique_by(
        &mut self,
        attr: AttrKind,
        edges: &[u32],
        mut first: impl FnMut(u32, u32),
    ) -> usize {
        let i = match self.cols.iter().position(|c| c.0 == attr) {
            Some(i) => i,
            None => {
                let _sp = wisegraph_obs::span!("gtask.recount.column", attr = attr as u8);
                let col = Column::new(self.g, attr, 0..self.g.num_edges());
                let seen = StampSet::with_len(col.len);
                self.cols.push((attr, col, seen));
                self.cols.len() - 1
            }
        };
        let (_, col, seen) = &mut self.cols[i];
        seen.clear();
        for &e in edges {
            let code = col.codes[e as usize];
            if seen.insert(code) {
                first(e, code);
            }
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_and_clear() {
        let mut s = StampSet::with_len(70_001);
        assert!(s.is_empty() && !s.contains(0) && !s.contains(u32::MAX));
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.insert(0));
        assert!(s.insert(70_000));
        assert!(s.contains(7) && s.contains(0) && s.contains(70_000));
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty() && !s.contains(7) && !s.contains(70_000));
        assert!(s.insert(7));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn epoch_wrap_resets_the_table() {
        let mut s = StampSet::with_len(8);
        s.insert(3);
        s.epoch = u32::MAX;
        s.insert(5);
        s.clear();
        assert_eq!(s.epoch, 1);
        // Value 3 was stamped with epoch 1 long ago; it must not reappear.
        assert!(!s.contains(3) && !s.contains(5));
        assert!(s.insert(3));
    }

    #[test]
    fn sparse_columns_are_dense_ranked_in_order() {
        let types = vec![0, 3_000_000_000, 7];
        let g = Graph::untyped(3, vec![0, 1, 2, 1], vec![1, 2, 0, 0]).with_vertex_types(types);
        let col = Column::new(&g, AttrKind::DstVertexType, 0..g.num_edges());
        // dst types 3e9, 7, 0, 0 → ranks 2, 1, 0, 0.
        assert_eq!(col.codes, [2, 1, 0, 0]);
        assert_eq!(col.len, 3);
        // A dense column keeps its values.
        let col = Column::new(&g, AttrKind::DstId, 0..g.num_edges());
        assert_eq!((col.codes, col.len), (vec![1, 2, 0, 0], 3));
    }
}
