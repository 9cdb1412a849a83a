//! The greedy sort-and-scan graph partitioner (paper §4.2).
//!
//! "We first sort the edges of the graph according to edge attributes
//! involved in the restrictions. Then we scan these edges in order. If a
//! restriction condition is satisfied after including the current edge, we
//! add it to the current gTask's graph data. If any restrictions are not
//! satisfied after adding the current edge, we stop the graph partition for
//! the current gTask and start a new gTask."
//!
//! The sort key is [`PartitionTable::sort_key_attrs`] followed by the edge
//! id; the scan enforces only `Exact` bounds.
//!
//! Both halves run at memory speed and write the plan's flat arrays
//! ([`Tasks`]) directly. The edge ids are put in ascending order (already
//! so for `partition` and for the ascending live sets of the delta path),
//! and every key attribute is read once per edge into a `u32` [`Column`].
//! The order is a permutation of `u32` positions built by stable LSD
//! counting passes from the last key column to the first; adjacent columns
//! share one pass over their mixed-radix composite code while its range
//! fits the bucket budget (≈ |E|), so `uniq(edge-type)=1 & uniq(src-id)=K`
//! sorts in one pass. A pass whose codes are already in order is skipped
//! after one sequential read, and a plan whose every pass is skipped
//! gathers nothing. Otherwise the edge ids and the key columns are gathered
//! into scan order once, so the scan reads them sequentially. It tracks
//! each restricted attribute's distinct values in a [`StampSet`] sized by
//! its column's code range, so admitting an edge is a table lookup per
//! restriction, and closing a gTask pushes one offset and one `uniq` row.

use crate::restriction::{PartitionTable, Restriction};
use crate::stamp::{bucket_budget, Column, StampSet};
use crate::task::{edge_id, PartitionPlan, Tasks};
use wisegraph_graph::{AttrKind, Graph};

/// Partitions the graph into gTasks according to the table.
///
/// Complexity: O(E · C) for the C-column counting sort plus an O(E · R)
/// scan over the R restricted attributes — the light-weight method the
/// paper uses so plans can be regenerated per candidate table.
pub fn partition(g: &Graph, table: &PartitionTable) -> PartitionPlan {
    partition_ids(g, table, (0..g.num_edges()).map(edge_id).collect())
}

/// Partitions a subset of the graph's edges into gTasks.
///
/// Tasks reference the *original* edge ids from `edges`, so the resulting
/// plan executes against the full graph while covering only the given live
/// set. This is the rebuild primitive of the incremental/delta path
/// (`IncrementalPlan`) and the from-scratch reference the repair-equivalence
/// pass (`C001`) compares against; `partition` is the whole-graph special
/// case. The result is a pure function of the edge *multiset*, independent
/// of caller order; duplicate ids in `edges` produce duplicate coverage —
/// callers pass a set.
pub fn partition_edges(g: &Graph, table: &PartitionTable, edges: &[usize]) -> PartitionPlan {
    let mut ids: Vec<u32> = edges.iter().map(|&e| edge_id(e)).collect();
    if !ids.is_sorted() {
        ids.sort_unstable();
    }
    partition_ids(g, table, ids)
}

/// Partitions the edge ids `ids`, ascending.
fn partition_ids(g: &Graph, table: &PartitionTable, ids: Vec<u32>) -> PartitionPlan {
    let mut sp = wisegraph_obs::span!("gtask.partition", edges = ids.len());
    let key_attrs = table.sort_key_attrs();
    let cols: Vec<Column> = key_attrs
        .iter()
        .map(|&attr| Column::new(g, attr, ids.iter().map(|&e| e as usize)))
        .collect();
    let (ids, cols) = match key_order(&cols) {
        None => (ids, cols),
        Some(order) => {
            let gather = |v: &[u32]| -> Vec<u32> { order.iter().map(|&i| v[i as usize]).collect() };
            let cols = cols
                .into_iter()
                .map(|c| Column {
                    codes: gather(&c.codes),
                    len: c.len,
                })
                .collect();
            (gather(&ids), cols)
        }
    };

    // Scan. `Min` attributes are tracked like `Exact` ones with no bound,
    // which yields their achieved uniqueness for the task metadata.
    let mut tracked = track(table, &key_attrs, cols);
    let mut tasks = Tasks::new(table.restricted_attrs());
    let mut row = vec![0; tasks.attrs.len()];
    let n = ids.len();
    tasks.edges = ids;
    let mut close = |tasks: &mut Tasks, tracked: &mut [Tracked], at: usize| {
        for t in tracked.iter_mut() {
            row[t.slot] = t.seen.len() as u32;
            t.seen.clear();
        }
        tasks.offsets.push(edge_id(at));
        tasks.uniq.extend_from_slice(&row);
    };
    for at in 0..n {
        // Would adding this edge violate any Exact bound?
        let violates = tracked.iter().any(|t| {
            !t.seen.contains(t.codes[at]) && t.seen.len() as u64 + 1 > t.bound
        });
        if violates {
            close(&mut tasks, &mut tracked, at);
        }
        for t in tracked.iter_mut() {
            t.seen.insert(t.codes[at]);
        }
    }
    if n > 0 {
        close(&mut tasks, &mut tracked, n);
    }

    sp.arg("tasks", tasks.len());
    PartitionPlan {
        table: table.clone(),
        tasks,
    }
}

/// One restricted attribute during the scan: its codes in scan order, its
/// bound, its slot in the plan's `uniq` rows, and the distinct codes the
/// open gTask holds.
struct Tracked {
    codes: Vec<u32>,
    bound: u64,
    slot: usize,
    seen: StampSet,
}

/// The scan state of each key attribute, from its column in scan order.
fn track(table: &PartitionTable, key_attrs: &[AttrKind], cols: Vec<Column>) -> Vec<Tracked> {
    let attrs = table.restricted_attrs();
    key_attrs
        .iter()
        .zip(cols)
        .map(|(&attr, col)| Tracked {
            bound: match table.restriction(attr) {
                Restriction::Exact(k) => k,
                Restriction::Min | Restriction::Free => u64::MAX,
            },
            slot: attrs.iter().position(|&a| a == attr).expect("a key attribute is restricted"),
            seen: StampSet::with_len(col.len),
            codes: col.codes,
        })
        .collect()
}

/// The stable order of positions into `cols` by their codes, the first
/// column most significant and ties in position order: LSD counting passes
/// from the last column to the first, adjacent columns sharing one pass
/// over their mixed-radix composite code while its range fits the bucket
/// budget. A pass whose codes are already in order is skipped after one
/// sequential read; `None` means every pass was.
fn key_order(cols: &[Column]) -> Option<Vec<u32>> {
    let n = cols.first().map_or(0, |c| c.codes.len());
    if n == 0 {
        return None;
    }
    let budget = bucket_budget(n);
    let mut order: Option<Vec<u32>> = None;
    let mut keys: Vec<u32> = Vec::with_capacity(n);
    let mut hi = cols.len();
    while hi > 0 {
        let mut lo = hi - 1;
        let mut range = cols[lo].len;
        while lo > 0 && range.saturating_mul(cols[lo - 1].len) <= budget {
            lo -= 1;
            range *= cols[lo].len;
        }
        let group = &cols[lo..hi];
        let code = |i: usize| group.iter().fold(0, |k, c| k * c.len as u32 + c.codes[i]);
        keys.clear();
        match &order {
            None => keys.extend((0..n).map(code)),
            Some(o) => keys.extend(o.iter().map(|&i| code(i as usize))),
        }
        if !keys.is_sorted() {
            // next[k] = where the next position with code k goes.
            let mut next = vec![0u32; range + 1];
            for &k in &keys {
                next[k as usize + 1] += 1;
            }
            for k in 0..range {
                next[k + 1] += next[k];
            }
            let from = order.take().unwrap_or_else(|| (0..n as u32).collect());
            let mut to = vec![0; n];
            for (&k, &i) in keys.iter().zip(&from) {
                let slot = &mut next[k as usize];
                to[*slot as usize] = i;
                *slot += 1;
            }
            order = Some(to);
        }
        hi = lo;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_testkit::prelude::*;

    /// `attr`'s distinct count over `t`, recounted from the graph.
    fn uniq(g: &Graph, t: crate::GTask<'_>, attr: AttrKind) -> usize {
        crate::Recount::new(g).unique(attr, t.edges)
    }

    fn paper_graph() -> Graph {
        Graph::new(
            5,
            2,
            vec![0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0],
            vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
            vec![0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0],
        )
    }

    fn covers_all_edges_once(plan: &PartitionPlan, num_edges: usize) -> bool {
        let mut seen = vec![false; num_edges];
        for t in &plan.tasks {
            for &e in t.edges {
                let e = e as usize;
                if seen[e] {
                    return false;
                }
                seen[e] = true;
            }
        }
        seen.into_iter().all(|s| s)
    }

    #[test]
    fn vertex_centric_one_task_per_destination() {
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::vertex_centric());
        // 5 destinations, all with in-edges → 5 tasks.
        assert_eq!(plan.num_tasks(), 5);
        assert!(covers_all_edges_once(&plan, g.num_edges()));
        for t in &plan.tasks {
            assert_eq!(uniq(&g, t, AttrKind::DstId), 1);
        }
    }

    #[test]
    fn edge_centric_one_task_per_edge() {
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::edge_centric());
        assert_eq!(plan.num_tasks(), g.num_edges());
        assert!(plan.tasks.iter().all(|t| t.num_edges() == 1));
    }

    #[test]
    fn dst_and_type_partition_matches_figure7d() {
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::dst_and_type());
        assert!(covers_all_edges_once(&plan, g.num_edges()));
        for t in &plan.tasks {
            assert_eq!(uniq(&g, t, AttrKind::DstId), 1);
            assert_eq!(uniq(&g, t, AttrKind::EdgeType), 1);
        }
        // Figure 7(d): destinations 1 and 2 each split into two tasks
        // (types a and b); 0, 3, 4 are single-type → 7 tasks total.
        assert_eq!(plan.num_tasks(), 7);
    }

    #[test]
    fn dst_degree_grouping_matches_figure7g() {
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::dst_degree_grouped());
        for t in &plan.tasks {
            assert_eq!(uniq(&g, t, AttrKind::DstDegree), 1);
        }
        // In-degrees are [2, 3, 3, 2, 1] → three distinct degrees → 3 tasks.
        assert_eq!(plan.num_tasks(), 3);
    }

    #[test]
    fn min_restriction_groups_similar_degrees() {
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::dst_batch_min_degree(3));
        assert!(covers_all_edges_once(&plan, g.num_edges()));
        for t in &plan.tasks {
            assert!(uniq(&g, t, AttrKind::DstId) <= 3);
        }
        // Sorting by degree first, the K=3 destination groups mix degrees
        // as little as possible: uniq(dst-degree) per task stays ≤ 2 here.
        for t in &plan.tasks {
            assert!(uniq(&g, t, AttrKind::DstDegree) <= 2);
        }
    }

    #[test]
    fn src_batch_per_type_bounds_hold() {
        let g = rmat(&RmatParams::standard(128, 2000, 33).with_edge_types(4));
        let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
        assert!(covers_all_edges_once(&plan, g.num_edges()));
        for t in &plan.tasks {
            assert!(uniq(&g, t, AttrKind::SrcId) <= 8);
            assert_eq!(uniq(&g, t, AttrKind::EdgeType), 1);
        }
    }

    #[test]
    fn two_d_partition_bounds_hold() {
        let g = rmat(&RmatParams::standard(64, 1000, 35));
        let plan = partition(&g, &PartitionTable::two_d(4));
        for t in &plan.tasks {
            assert!(uniq(&g, t, AttrKind::DstId) <= 4);
            assert!(uniq(&g, t, AttrKind::SrcId) <= 4);
        }
    }

    #[test]
    fn unrestricted_table_yields_single_task() {
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::new());
        assert_eq!(plan.num_tasks(), 1);
        assert_eq!(plan.tasks.task(0).num_edges(), g.num_edges());
    }

    #[test]
    fn recorded_uniq_counts_are_correct() {
        let g = rmat(&RmatParams::standard(64, 800, 36).with_edge_types(4));
        let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
        for t in &plan.tasks {
            // The scan-recorded counts must match a fresh recount.
            let recount = |attr: AttrKind| {
                let mut v: Vec<u64> =
                    t.edges.iter().map(|&e| g.edge_attr(attr, e as usize)).collect();
                v.sort_unstable();
                v.dedup();
                v.len()
            };
            assert_eq!(t.uniq(AttrKind::SrcId), Some(recount(AttrKind::SrcId)));
            assert_eq!(t.uniq(AttrKind::EdgeType), Some(recount(AttrKind::EdgeType)));
        }
    }

    #[test]
    fn sparse_attribute_values_size_no_table() {
        // A vertex-type code of 3e9 must not size a 12 GB stamp table.
        let g = Graph::untyped(3, vec![0, 1, 2, 2, 0], vec![1, 2, 0, 1, 2])
            .with_vertex_types(vec![0, 3_000_000_000, 7]);
        let table = PartitionTable::new().exact(AttrKind::DstVertexType, 1);
        let plan = partition(&g, &table);
        // Destination types 3e9, 7, 0, 3e9, 7 → one task per type, in
        // type order.
        let lists: Vec<Vec<u32>> = plan.tasks.iter().map(|t| t.edges.to_vec()).collect();
        assert_eq!(lists, [vec![2], vec![1, 4], vec![0, 3]]);
        let key_attrs = table.sort_key_attrs();
        let cols = key_attrs
            .iter()
            .map(|&attr| Column::new(&g, attr, 0..g.num_edges()))
            .collect();
        for t in track(&table, &key_attrs, cols) {
            assert!(t.seen.table_len() <= 3, "{}", t.seen.table_len());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every plan covers every edge exactly once, and all Exact bounds
        /// hold for every generated task.
        fn partition_invariants(
            seed in 0u64..1000,
            k in 1u64..16,
            table_idx in 0usize..6,
        ) {
            let g = rmat(&RmatParams::standard(96, 700, seed).with_edge_types(3));
            let table = match table_idx {
                0 => PartitionTable::vertex_centric(),
                1 => PartitionTable::edge_centric(),
                2 => PartitionTable::two_d(k),
                3 => PartitionTable::src_batch_per_type(k),
                4 => PartitionTable::dst_batch_min_degree(k),
                _ => PartitionTable::edge_batch(k),
            };
            let plan = partition(&g, &table);
            prop_assert!(covers_all_edges_once(&plan, g.num_edges()));
            for t in &plan.tasks {
                prop_assert!(t.num_edges() > 0);
                for (attr, bound) in table.exact_attrs() {
                    prop_assert!(
                        uniq(&g, t, attr) as u64 <= bound,
                        "uniq({attr}) exceeded {bound} in task"
                    );
                }
            }
        }
    }
}
