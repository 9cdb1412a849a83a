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
//! Both halves run at memory speed. Every key attribute is extracted once
//! per edge into a column; the order is then built by stable LSD counting
//! passes, one column at a time from the edge id up to the leading key —
//! O(E) per 16-bit digit of the column's largest value, with no limit on
//! the number of columns and a pass skipped when its column is already in
//! order (the edge-id pass always is for `partition` and for the ascending
//! live sets of the delta path). The scan tracks each restricted
//! attribute's distinct values in a [`StampSet`], so admitting an edge is a
//! table lookup per restriction and closing a gTask is O(1).

use crate::restriction::{PartitionTable, Restriction};
use crate::stamp::StampSet;
use crate::task::{GTask, PartitionPlan};
use std::ops::Range;
use wisegraph_graph::{AttrKind, Graph};

/// Partitions the graph into gTasks according to the table.
///
/// Complexity: O(E · C) for the C-column radix sort plus an O(E · R) scan
/// over the R restricted attributes — the light-weight method the paper
/// uses so plans can be regenerated per candidate table.
pub fn partition(g: &Graph, table: &PartitionTable) -> PartitionPlan {
    let all: Vec<usize> = (0..g.num_edges()).collect();
    partition_edges(g, table, &all)
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
    let mut sp = wisegraph_obs::span!("gtask.partition", edges = edges.len());
    // One column per restricted attribute, in sort-key order, indexed by
    // position in `edges`.
    let key_attrs = table.sort_key_attrs();
    let cols: Vec<Vec<u64>> = key_attrs
        .iter()
        .map(|&attr| edges.iter().map(|&e| g.edge_attr(attr, e)).collect())
        .collect();

    // LSD: the least significant key (the edge id) first, the leading key
    // last; every pass is stable, so earlier passes break later ties.
    let mut order: Vec<usize> = (0..edges.len()).collect();
    let mut scratch = vec![0; edges.len()];
    sort_by_column(&mut order, &mut scratch, |i| edges[i] as u64);
    for col in cols.iter().rev() {
        sort_by_column(&mut order, &mut scratch, |i| col[i]);
    }

    // Scan. `Min` attributes are tracked like `Exact` ones with no bound,
    // which yields their achieved uniqueness for the task metadata.
    let mut tracked: Vec<Tracked> = key_attrs
        .iter()
        .zip(&cols)
        .map(|(&attr, values)| Tracked {
            attr,
            values,
            bound: match table.restriction(attr) {
                Restriction::Exact(k) => k,
                Restriction::Min | Restriction::Free => u64::MAX,
            },
            seen: StampSet::new(),
        })
        .collect();
    let mut tasks: Vec<GTask> = Vec::new();
    let mut close = |tracked: &mut [Tracked], range: Range<usize>| {
        if range.is_empty() {
            return;
        }
        tasks.push(GTask {
            edges: order[range].iter().map(|&i| edges[i]).collect(),
            uniq: tracked.iter().map(|t| (t.attr, t.seen.len())).collect(),
        });
        for t in tracked.iter_mut() {
            t.seen.clear();
        }
    };
    let mut start = 0;
    for (at, &i) in order.iter().enumerate() {
        // Would adding this edge violate any Exact bound?
        let violates = tracked
            .iter()
            .any(|t| !t.seen.contains(t.values[i]) && t.seen.len() as u64 + 1 > t.bound);
        if violates {
            close(&mut tracked, start..at);
            start = at;
        }
        for t in tracked.iter_mut() {
            t.seen.insert(t.values[i]);
        }
    }
    close(&mut tracked, start..order.len());

    sp.arg("tasks", tasks.len());
    PartitionPlan {
        table: table.clone(),
        tasks,
    }
}

/// One restricted attribute during the scan: its column, its bound, and the
/// distinct values the open gTask holds.
struct Tracked<'a> {
    attr: AttrKind,
    values: &'a [u64],
    bound: u64,
    seen: StampSet,
}

/// Stably sorts `order` — positions into a key column — by `key`, in LSD
/// counting passes over 16-bit digits up to the column's actual maximum
/// (the histogram of the top digit is sized by that maximum, so a column of
/// edge types costs a handful of buckets, not 65 536). `scratch` is the
/// ping-pong buffer, as long as `order`. A column already in order is left
/// alone after one read.
fn sort_by_column(order: &mut Vec<usize>, scratch: &mut Vec<usize>, key: impl Fn(usize) -> u64) {
    const DIGIT_BITS: u32 = 16;
    const DIGIT_MASK: u64 = (1 << DIGIT_BITS) - 1;
    let (mut max, mut prev, mut sorted) = (0, 0, true);
    for &i in order.iter() {
        let k = key(i);
        sorted &= prev <= k;
        prev = k;
        max = max.max(k);
    }
    if sorted {
        return;
    }
    let mut shift = 0;
    while shift < u64::BITS && max >> shift > 0 {
        let digit = |i: usize| ((key(i) >> shift) & DIGIT_MASK) as usize;
        let buckets = (max >> shift).min(DIGIT_MASK) as usize + 1;
        // next[d] = where the next element with digit d goes.
        let mut next = vec![0usize; buckets + 1];
        for &i in order.iter() {
            next[digit(i) + 1] += 1;
        }
        for d in 0..buckets {
            next[d + 1] += next[d];
        }
        for &i in order.iter() {
            let d = digit(i);
            scratch[next[d]] = i;
            next[d] += 1;
        }
        std::mem::swap(order, scratch);
        shift += DIGIT_BITS;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_testkit::prelude::*;

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
            for &e in &t.edges {
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
            assert_eq!(t.uniq_of(&g, AttrKind::DstId), 1);
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
            assert_eq!(t.uniq_of(&g, AttrKind::DstId), 1);
            assert_eq!(t.uniq_of(&g, AttrKind::EdgeType), 1);
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
            assert_eq!(t.uniq_of(&g, AttrKind::DstDegree), 1);
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
            assert!(t.uniq_of(&g, AttrKind::DstId) <= 3);
        }
        // Sorting by degree first, the K=3 destination groups mix degrees
        // as little as possible: uniq(dst-degree) per task stays ≤ 2 here.
        for t in &plan.tasks {
            assert!(t.uniq_of(&g, AttrKind::DstDegree) <= 2);
        }
    }

    #[test]
    fn src_batch_per_type_bounds_hold() {
        let g = rmat(&RmatParams::standard(128, 2000, 33).with_edge_types(4));
        let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
        assert!(covers_all_edges_once(&plan, g.num_edges()));
        for t in &plan.tasks {
            assert!(t.uniq_of(&g, AttrKind::SrcId) <= 8);
            assert_eq!(t.uniq_of(&g, AttrKind::EdgeType), 1);
        }
    }

    #[test]
    fn two_d_partition_bounds_hold() {
        let g = rmat(&RmatParams::standard(64, 1000, 35));
        let plan = partition(&g, &PartitionTable::two_d(4));
        for t in &plan.tasks {
            assert!(t.uniq_of(&g, AttrKind::DstId) <= 4);
            assert!(t.uniq_of(&g, AttrKind::SrcId) <= 4);
        }
    }

    #[test]
    fn unrestricted_table_yields_single_task() {
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::new());
        assert_eq!(plan.num_tasks(), 1);
        assert_eq!(plan.tasks[0].num_edges(), g.num_edges());
    }

    #[test]
    fn recorded_uniq_counts_are_correct() {
        let g = rmat(&RmatParams::standard(64, 800, 36).with_edge_types(4));
        let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
        for t in &plan.tasks {
            // The scan-recorded counts must match a fresh recount.
            let recount = |attr: AttrKind| {
                let mut v: Vec<u64> =
                    t.edges.iter().map(|&e| g.edge_attr(attr, e)).collect();
                v.sort_unstable();
                v.dedup();
                v.len()
            };
            assert_eq!(t.uniq[&AttrKind::SrcId], recount(AttrKind::SrcId));
            assert_eq!(t.uniq[&AttrKind::EdgeType], recount(AttrKind::EdgeType));
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
                        t.uniq_of(&g, attr) as u64 <= bound,
                        "uniq({attr}) exceeded {bound} in task"
                    );
                }
            }
        }
    }
}
