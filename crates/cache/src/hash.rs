//! Deterministic content hashing for cache keys.
//!
//! Keys are FNV-1a 64-bit digests of the raw topology arrays (graphs) or
//! of the value's own fields via `#[derive(Hash)]` (tables, DFGs). FNV is
//! not cryptographic — it does not need to be: the store is an in-process
//! correctness cache, not a trust boundary, and what matters is that the
//! digest is a pure function of the content so identical inputs hit and
//! changed inputs miss.

use std::hash::Hash;
use wisegraph_dfg::Dfg;
use wisegraph_graph::Graph;
use wisegraph_gtask::PartitionTable;

pub use wisegraph_graph::digest::Fnv64;

/// Content hash of a graph: [`Graph::content_key`] — vertex/edge/type
/// counts, the full `src`/`dst`/`etype` arrays and, when present, the
/// vertex types. The graph memoises it, so only the first lookup against a
/// graph pays the O(E) fold.
pub fn hash_graph(g: &Graph) -> u64 {
    g.content_key()
}

/// Content hash of a graph restricted to a live edge subset: the delta
/// path's graph component. Covers the counts plus, per live edge, its id
/// and endpoints/type (plus the endpoints' vertex types when the graph
/// carries them), so inserting or deleting an edge changes the hash (and
/// therefore invalidates the old entries) while leaving unrelated live
/// sets alone. `live` must be sorted ascending for a canonical
/// digest — [`IncrementalPlan::live_edges`] returns it that way.
///
/// [`IncrementalPlan::live_edges`]: wisegraph_gtask::IncrementalPlan::live_edges
pub fn hash_graph_edges(g: &Graph, live: &[usize]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(g.num_vertices() as u64);
    h.write_u64(g.num_edge_types() as u64);
    h.write_u64(live.len() as u64);
    for &e in live {
        h.write_u64(e as u64);
        h.write_u32(g.src()[e]);
        h.write_u32(g.dst()[e]);
        h.write_u32(g.etype()[e]);
        if let Some(types) = g.vertex_types() {
            h.write_u32(types[g.src()[e] as usize]);
            h.write_u32(types[g.dst()[e] as usize]);
        }
    }
    h.finish()
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = Fnv64::new();
    value.hash(&mut h);
    h.finish()
}

/// Content hash of a partition table: its restriction set in canonical
/// (`AttrKind`) order, so builder order does not matter.
pub fn hash_table(table: &PartitionTable) -> u64 {
    hash_of(table)
}

/// Content hash of a model DFG: every node (op, inputs, recorded shape)
/// in id order, then the output list.
pub fn hash_dfg(dfg: &Dfg) -> u64 {
    hash_of(dfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_dfg::{Dim, NodeId, OpKind};
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_graph::AttrKind;

    /// The digest the cache computed itself before `Graph` memoised it:
    /// keys of untyped graphs must not move.
    #[test]
    fn graph_hash_of_an_untyped_graph_is_the_plain_fnv_fold() {
        let g = rmat(&RmatParams::standard(64, 500, 11).with_edge_types(2));
        let mut h = Fnv64::new();
        h.write_u64(g.num_vertices() as u64);
        h.write_u64(g.num_edges() as u64);
        h.write_u64(g.num_edge_types() as u64);
        for &x in g.src().iter().chain(g.dst()).chain(g.etype()) {
            h.write_u32(x);
        }
        assert_eq!(hash_graph(&g), h.finish());
    }

    #[test]
    fn vertex_types_are_part_of_both_graph_hashes() {
        let g = rmat(&RmatParams::standard(64, 500, 14).with_edge_types(2));
        let a = g
            .clone()
            .with_vertex_types((0..64).map(|v| v % 2).collect());
        let b = g
            .clone()
            .with_vertex_types((0..64).map(|v| v % 3).collect());
        assert_ne!(hash_graph(&a), hash_graph(&g));
        assert_ne!(hash_graph(&a), hash_graph(&b));
        let live: Vec<usize> = (0..g.num_edges()).step_by(2).collect();
        assert_ne!(hash_graph_edges(&a, &live), hash_graph_edges(&g, &live));
        assert_ne!(hash_graph_edges(&a, &live), hash_graph_edges(&b, &live));
    }

    #[test]
    fn graph_hash_distinguishes_topology() {
        let g1 = rmat(&RmatParams::standard(64, 500, 11).with_edge_types(2));
        let g2 = rmat(&RmatParams::standard(64, 500, 12).with_edge_types(2));
        assert_ne!(hash_graph(&g1), hash_graph(&g2));
        assert_eq!(hash_graph(&g1), hash_graph(&g1));
    }

    #[test]
    fn live_set_hash_tracks_membership() {
        let g = rmat(&RmatParams::standard(64, 500, 13).with_edge_types(2));
        let all: Vec<usize> = (0..g.num_edges()).collect();
        let most: Vec<usize> = (1..g.num_edges()).collect();
        assert_ne!(hash_graph_edges(&g, &all), hash_graph_edges(&g, &most));
        assert_eq!(hash_graph_edges(&g, &all), hash_graph_edges(&g, &all));
    }

    #[test]
    fn table_hash_tracks_every_field() {
        let base = PartitionTable::src_batch_per_type(8);
        // Builder order must not matter: entries are canonically ordered.
        let reordered = PartitionTable::new()
            .exact(AttrKind::EdgeType, 1)
            .exact(AttrKind::SrcId, 8);
        assert_eq!(base, reordered);
        assert_eq!(hash_table(&base), hash_table(&reordered));
        let changed = [
            ("a bound", PartitionTable::src_batch_per_type(9)),
            ("Exact -> Min", base.clone().min(AttrKind::SrcId)),
            ("an entry fewer", PartitionTable::new().exact(AttrKind::EdgeType, 1)),
            (
                "another attribute",
                PartitionTable::new()
                    .exact(AttrKind::EdgeType, 1)
                    .exact(AttrKind::DstId, 8),
            ),
        ];
        for (what, t) in &changed {
            assert_ne!(hash_table(t), hash_table(&base), "{what}");
        }
    }

    /// A small scatter DFG assembled from parts through the checked
    /// builder, so each test case can change exactly one of them.
    fn dfg_with(
        name: &str,
        width: usize,
        idx_input: usize,
        act: OpKind,
        outputs: &[usize],
    ) -> Dfg {
        let mut d = Dfg::new();
        let h = d.input(name, vec![Dim::Vertices, Dim::Lit(width)]);
        let src = d.edge_attr(AttrKind::SrcId);
        let dst = d.edge_attr(AttrKind::DstId);
        assert_eq!((h, src, dst), (NodeId(0), NodeId(1), NodeId(2)));
        let msg = d.index(h, NodeId(idx_input));
        let agg = d.index_add(msg, dst, Dim::Vertices);
        d.add_node(act, vec![agg]);
        for &o in outputs {
            d.mark_output(NodeId(o));
        }
        d
    }

    #[test]
    fn dfg_hash_tracks_every_field() {
        let base = || dfg_with("h", 4, 1, OpKind::Relu, &[5]);
        assert_eq!(base(), base());
        assert_eq!(hash_dfg(&base()), hash_dfg(&base()));
        let changed = [
            ("input name", dfg_with("x", 4, 1, OpKind::Relu, &[5])),
            ("input shape", dfg_with("h", 5, 1, OpKind::Relu, &[5])),
            ("input id", dfg_with("h", 4, 2, OpKind::Relu, &[5])),
            ("op kind", dfg_with("h", 4, 1, OpKind::LeakyRelu, &[5])),
            ("output list", dfg_with("h", 4, 1, OpKind::Relu, &[5, 4])),
            ("no outputs", dfg_with("h", 4, 1, OpKind::Relu, &[])),
        ];
        for (what, d) in &changed {
            assert_ne!(hash_dfg(d), hash_dfg(&base()), "{what}");
        }
    }
}
