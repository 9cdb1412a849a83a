//! Vertex-range sharding for multi-device execution (paper §5.4).
//!
//! Devices own contiguous destination-vertex ranges, so the owner of a
//! vertex (and of its embedding row, and of its row in every reduction
//! output) is a pure function of the vertex id and the shard boundaries.
//! Vertex ownership comes from one rule, [`ShardSpec::balanced`]: a prefix
//! sum over in-edges per destination, so every device's data-parallel plan
//! holds about `|E| / D` edges however skewed the degree distribution is.
//! The even split [`ShardSpec::new`] remains for index spaces without
//! per-index work to balance (feature columns, source groups). The graph
//! *structure* is replicated on every device; only embeddings and reduction
//! rows are partitioned. From the replicated structure each device derives,
//! deterministically, both its own halo (the remote sources its edges
//! gather from) and every peer's, which is what lets the push-style
//! collectives in `kernels::cluster` run without a handshake round.

use crate::graph::Graph;
use std::ops::Range;

/// A contiguous sharding of an index range over `num_shards` devices:
/// shard `d` owns `bounds[d]..bounds[d + 1]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// `num_shards + 1` non-decreasing boundaries from 0 to the index count.
    bounds: Vec<usize>,
}

impl ShardSpec {
    /// Shards `num_vertices` indices over `num_shards` devices in
    /// contiguous ranges of `ceil(num_vertices / num_shards)` — the split
    /// for feature columns and source groups, and the even-vertex baseline
    /// the closed-form cost models assume.
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    pub fn new(num_vertices: usize, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let chunk = num_vertices.div_ceil(num_shards).max(1);
        let mut bounds: Vec<usize> =
            (0..num_shards).map(|d| (d * chunk).min(num_vertices)).collect();
        bounds.push(num_vertices);
        Self { bounds }
    }

    /// The vertex ownership of `g` over `num_shards` devices: boundary `k`
    /// is the first vertex at which the running in-edge count reaches
    /// `k / num_shards` of `|E|`. Every shard's in-edge count is therefore
    /// below `|E| / num_shards` plus the largest in-degree, and the ranges
    /// stay contiguous, which is what keeps destination-filtered plans
    /// slot-preserving. Shards may be empty (a hub vertex can hold several
    /// shards' worth of edges; an edgeless graph goes to the last shard).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards == 0`.
    pub fn balanced(g: &Graph, num_shards: usize) -> Self {
        assert!(num_shards > 0, "need at least one shard");
        let mut bounds = Vec::with_capacity(num_shards + 1);
        bounds.push(0);
        let mut before = 0usize; // in-edges of vertices below `v`
        for (v, &deg) in g.in_degree().iter().enumerate() {
            while bounds.len() < num_shards
                && before * num_shards >= bounds.len() * g.num_edges()
            {
                bounds.push(v);
            }
            before += deg as usize;
        }
        bounds.resize(num_shards, g.num_vertices());
        bounds.push(g.num_vertices());
        Self { bounds }
    }

    /// Number of shards (devices).
    pub fn num_shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Total vertices being sharded.
    pub fn num_vertices(&self) -> usize {
        self.bounds[self.num_shards()]
    }

    /// The shard owning vertex `v`: the one whose range contains it.
    pub fn owner(&self, v: u32) -> usize {
        let inner = &self.bounds[1..self.num_shards()];
        inner.partition_point(|&b| b <= v as usize)
    }

    /// The contiguous vertex range shard `d` owns. Shards may own an empty
    /// range (more shards than vertices, or a hub vertex spanning several
    /// shards' worth of edges).
    ///
    /// # Panics
    ///
    /// Panics if `d >= num_shards`.
    pub fn owned_range(&self, d: usize) -> Range<usize> {
        assert!(d < self.num_shards(), "shard {d} out of range");
        self.bounds[d]..self.bounds[d + 1]
    }

    /// The sources shard `d`'s edges gather from that live on other
    /// shards: sorted, deduplicated — the halo rows a data-parallel
    /// all-to-all must deliver to `d`. Edges are attributed to the shard
    /// owning their *destination*.
    pub fn remote_unique_src(&self, g: &Graph, d: usize) -> Vec<u32> {
        let own = self.owned_range(d);
        let mut seen = vec![false; g.num_vertices()];
        for (&s, &t) in g.src().iter().zip(g.dst()) {
            // Unconditional store: which edges cross is unpredictable.
            seen[s as usize] |= own.contains(&(t as usize)) & !own.contains(&(s as usize));
        }
        (0..g.num_vertices() as u32).filter(|&s| seen[s as usize]).collect()
    }

    /// Largest remote-unique-source count over all shards — the quantity
    /// the all-to-all volume formulas charge for.
    pub fn max_remote_unique_src(&self, g: &Graph) -> usize {
        (0..self.num_shards())
            .map(|d| self.remote_unique_src(g, d).len())
            .max()
            .unwrap_or(0)
    }

    /// Edge ids whose destination shard is `d` — the edge subset of `d`'s
    /// data-parallel plan.
    pub fn owned_dst_edges(&self, g: &Graph, d: usize) -> Vec<usize> {
        let own = self.owned_range(d);
        g.dst()
            .iter()
            .enumerate()
            .filter(|&(_, &v)| own.contains(&(v as usize)))
            .map(|(e, _)| e)
            .collect()
    }
}

/// A fixed decomposition of the vertex id space into `num_groups`
/// contiguous source ranges, *independent of the device count*: the
/// compute-then-reduce schedule partitions edges by source group and sums
/// the per-group partial aggregates in ascending global group order, so
/// its float summation sequence — and therefore its output bits — do not
/// change when the groups are re-distributed over a different number of
/// devices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SrcGroups {
    spec: ShardSpec,
}

impl SrcGroups {
    /// The canonical group count. Eight divides evenly over the 1/2/4/8
    /// device sweeps the determinism suite runs.
    pub const CANONICAL: usize = 8;

    /// Decomposes `num_vertices` sources into `num_groups` contiguous
    /// ranges.
    ///
    /// # Panics
    ///
    /// Panics if `num_groups == 0`.
    pub fn new(num_vertices: usize, num_groups: usize) -> Self {
        Self {
            spec: ShardSpec::new(num_vertices, num_groups),
        }
    }

    /// Number of groups.
    pub fn num_groups(&self) -> usize {
        self.spec.num_shards()
    }

    /// The group owning source vertex `v`.
    pub fn group_of(&self, v: u32) -> usize {
        self.spec.owner(v)
    }

    /// The groups device `d` of `devices` executes: a contiguous range of
    /// group ids, split evenly.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0` or `d >= devices`.
    pub fn groups_of_device(&self, d: usize, devices: usize) -> Range<usize> {
        ShardSpec::new(self.num_groups(), devices).owned_range(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{rmat, RmatParams};

    #[test]
    fn ranges_cover_vertices_exactly_once() {
        for (v, d) in [(5usize, 1usize), (11, 2), (11, 4), (3, 8), (100, 7)] {
            let s = ShardSpec::new(v, d);
            let mut next = 0;
            for shard in 0..d {
                let r = s.owned_range(shard);
                assert_eq!(r.start, next, "{v} vertices / {d} shards");
                assert!(r.end >= r.start);
                for vid in r.clone() {
                    assert_eq!(s.owner(vid as u32), shard);
                }
                next = r.end;
            }
            assert_eq!(next, v);
        }
    }

    #[test]
    fn balanced_boundaries_follow_the_in_edge_prefix_sum() {
        // In-degrees 0, 4, 1, 1, 0, 2 (8 edges): quarter marks fall inside
        // vertex 1, so shards 1 and 2 of four start right after it.
        let dst = vec![1, 1, 1, 1, 2, 3, 5, 5];
        let g = Graph::untyped(6, vec![0; dst.len()], dst);
        let ranges = |d: usize| -> Vec<Range<usize>> {
            let s = ShardSpec::balanced(&g, d);
            (0..d).map(|k| s.owned_range(k)).collect()
        };
        assert_eq!(ShardSpec::balanced(&g, 1).owned_range(0), 0..6);
        assert_eq!(ranges(2), [0..2, 2..6]);
        assert_eq!(ranges(4), [0..2, 2..2, 2..4, 4..6]);
        let s = ShardSpec::balanced(&g, 4);
        assert_eq!((0..6).map(|v| s.owner(v)).collect::<Vec<_>>(), [0, 0, 2, 2, 3, 3]);
        // No edges: nothing to balance, the last shard owns every vertex.
        let empty = Graph::untyped(3, vec![], vec![]);
        let s = ShardSpec::balanced(&empty, 3);
        assert_eq!(s.owned_range(2), 0..3);
        assert_eq!(s.owner(1), 2);
    }

    #[test]
    fn halo_is_exactly_the_non_owned_sources() {
        let g = rmat(&RmatParams::standard(60, 400, 17));
        let s = ShardSpec::balanced(&g, 4);
        let mut total_edges = 0;
        for d in 0..4 {
            let own = s.owned_range(d);
            let halo = s.remote_unique_src(&g, d);
            // Sorted, deduplicated, disjoint from the owned range.
            assert!(halo.windows(2).all(|w| w[0] < w[1]));
            assert!(halo.iter().all(|&v| !own.contains(&(v as usize))));
            let edges = s.owned_dst_edges(&g, d);
            for &e in &edges {
                let src = g.src()[e] as usize;
                assert!(own.contains(&src) || halo.binary_search(&(src as u32)).is_ok());
            }
            total_edges += edges.len();
        }
        assert_eq!(total_edges, g.num_edges());
        assert!(s.max_remote_unique_src(&g) > 0);
    }

    #[test]
    fn single_shard_has_no_halo() {
        let g = rmat(&RmatParams::standard(40, 200, 19));
        let s = ShardSpec::new(g.num_vertices(), 1);
        assert!(s.remote_unique_src(&g, 0).is_empty());
        assert_eq!(s.owned_dst_edges(&g, 0).len(), g.num_edges());
    }

    #[test]
    fn src_groups_partition_edges_and_ignore_device_count() {
        let g = rmat(&RmatParams::standard(50, 300, 23));
        let groups = SrcGroups::new(g.num_vertices(), SrcGroups::CANONICAL);
        for &s in g.src() {
            assert!(groups.group_of(s) < groups.num_groups());
        }
        // The group → device assignment re-chunks, but the groups (and
        // hence per-group edge sets) are the same for every device count.
        for devices in 1..=8usize {
            let mut covered = vec![false; groups.num_groups()];
            for d in 0..devices {
                for grp in groups.groups_of_device(d, devices) {
                    assert!(!covered[grp]);
                    covered[grp] = true;
                }
            }
            assert!(covered.iter().all(|&x| x), "{devices} devices");
        }
    }
}
