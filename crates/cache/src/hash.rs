//! Deterministic content hashing for cache keys.
//!
//! Keys are FNV-1a 64-bit digests of the canonical byte encodings from
//! [`crate::artifact`] (tables, DFGs) or of the raw topology arrays
//! (graphs). FNV is not cryptographic — it does not need to be: the store
//! is an in-process correctness cache, not a trust boundary, and what
//! matters is that the digest is a pure, platform-independent function of
//! the content so identical inputs hit and changed inputs miss.

use crate::artifact;
use wisegraph_dfg::Dfg;
use wisegraph_graph::Graph;
use wisegraph_gtask::PartitionTable;

pub use wisegraph_graph::digest::Fnv64;

/// Hash of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

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

/// Content hash of a partition table (its restriction set), via the
/// canonical byte encoding.
pub fn hash_table(table: &PartitionTable) -> u64 {
    fnv64(&artifact::encode_table(table))
}

/// Content hash of a model DFG, via the canonical byte encoding.
pub fn hash_dfg(dfg: &Dfg) -> u64 {
    fnv64(&artifact::encode_dfg(dfg))
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn table_hash_tracks_restrictions() {
        let a = PartitionTable::vertex_centric();
        let b = PartitionTable::edge_centric();
        let c = PartitionTable::src_batch_per_type(8);
        let c2 = PartitionTable::new()
            .exact(AttrKind::EdgeType, 1)
            .exact(AttrKind::SrcId, 8);
        assert_ne!(hash_table(&a), hash_table(&b));
        // Builder order must not matter: entries are canonically ordered.
        assert_eq!(hash_table(&c), hash_table(&c2));
    }
}
