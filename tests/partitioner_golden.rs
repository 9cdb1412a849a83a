//! Golden-fixture tests for the greedy partitioner (paper §4.2, Figure 7).
//!
//! Each test pins the partitioner's output on the paper's example graph to a
//! hand-computed plan: the exact task boundaries AND the exact edge order
//! inside each task, not just the invariants. The restriction tables are the
//! special cases of §4 — `uniq(dst-id)=1` must reproduce the vertex-centric
//! plan, `uniq(edge-id)=1` the edge-centric plan, `uniq(dst-id)=k &
//! uniq(src-id)=k` the 2-D plan, `uniq(src-id)=min` a source-sorted single
//! task, and the empty table the identity plan.
//!
//! The fixture graph (Figure 7a's heterogeneous graph):
//!
//! ```text
//! edge id :  0  1  2  3  4  5  6  7  8  9 10
//! src     :  0  1  0  1  2  2  3  4  3  4  0
//! dst     :  0  0  1  1  1  2  2  2  3  3  4
//! type    :  a  a  a  a  b  a  b  b  b  b  a
//! ```

use wisegraph::graph::{AttrKind, Graph};
use wisegraph::gtask::{partition, PartitionPlan, PartitionTable};

fn paper_graph() -> Graph {
    Graph::new(
        5,
        2,
        vec![0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0],
        vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
        vec![0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0],
    )
}

/// The plan's tasks as bare edge-id lists, in plan order.
fn edge_lists(plan: &PartitionPlan) -> Vec<Vec<usize>> {
    plan.tasks.iter().map(|t| t.edges.iter().map(|&e| e as usize).collect()).collect()
}

#[test]
fn uniq_dst_1_reproduces_the_vertex_centric_plan() {
    // Sort key [dst-id, edge-id]; the scan cuts at every destination
    // change. One task per destination, edges in id order within each.
    let plan = partition(&paper_graph(), &PartitionTable::vertex_centric());
    assert_eq!(
        edge_lists(&plan),
        vec![vec![0, 1], vec![2, 3, 4], vec![5, 6, 7], vec![8, 9], vec![10]]
    );
    for t in &plan.tasks {
        assert_eq!(t.uniq(AttrKind::DstId).unwrap(), 1);
    }
}

#[test]
fn uniq_edge_1_reproduces_the_edge_centric_plan() {
    // Every edge id is unique, so the bound cuts after every edge: the
    // plan degenerates to one singleton task per edge, in id order.
    let plan = partition(&paper_graph(), &PartitionTable::edge_centric());
    let expected: Vec<Vec<usize>> = (0..11).map(|e| vec![e]).collect();
    assert_eq!(edge_lists(&plan), expected);
    for t in &plan.tasks {
        assert_eq!(t.uniq(AttrKind::EdgeId).unwrap(), 1);
    }
}

#[test]
fn uniq_src_2_and_dst_2_reproduce_the_2d_plan() {
    // Sort key [src-id, dst-id, edge-id] (src-id precedes dst-id in the
    // canonical attribute order). Scan order is
    //   e0(0,0) e2(0,1) e10(0,4) e1(1,0) e3(1,1) e4(2,1) e5(2,2)
    //   e6(3,2) e8(3,3) e7(4,2) e9(4,3)
    // and the ≤2-sources × ≤2-destinations bound cuts at e10 (3rd dst of
    // src 0), e3 (3rd dst of {0,1} block), and e6 (3rd src of the block).
    let plan = partition(&paper_graph(), &PartitionTable::two_d(2));
    assert_eq!(
        edge_lists(&plan),
        vec![vec![0, 2], vec![10, 1], vec![3, 4, 5], vec![6, 8, 7, 9]]
    );
    for t in &plan.tasks {
        assert!(t.uniq(AttrKind::SrcId).unwrap() <= 2);
        assert!(t.uniq(AttrKind::DstId).unwrap() <= 2);
    }
}

#[test]
fn uniq_src_min_sorts_by_source_without_cutting() {
    // `min` drives the sort but never cuts, so the whole graph stays one
    // task with edges grouped by source — the layout a gather-friendly
    // kernel wants — and the achieved uniq(src-id) is recorded.
    let g = paper_graph();
    let plan = partition(&g, &PartitionTable::new().min(AttrKind::SrcId));
    assert_eq!(
        edge_lists(&plan),
        vec![vec![0, 2, 10, 1, 3, 4, 5, 6, 8, 7, 9]]
    );
    assert_eq!(plan.tasks.task(0).uniq(AttrKind::SrcId).unwrap(), 5);
}

#[test]
fn unrestricted_table_is_the_identity_plan() {
    // No restricted attribute → no sort, no cut: one task, original order.
    let g = paper_graph();
    let plan = partition(&g, &PartitionTable::new());
    assert_eq!(edge_lists(&plan), vec![(0..11).collect::<Vec<usize>>()]);
    assert!(plan.tasks.task(0).uniq_row().is_empty());
}

#[test]
fn uniq_dst_and_type_1_reproduces_figure7d() {
    // Destinations 1 and 2 mix types a and b, so each splits in two; the
    // other destinations are single-type. Equal bounds tie-break on the
    // canonical attribute order, so the sort key is [dst-id, edge-type]
    // and the per-destination runs split by type in place.
    let plan = partition(&paper_graph(), &PartitionTable::dst_and_type());
    assert_eq!(
        edge_lists(&plan),
        vec![
            vec![0, 1],
            vec![2, 3],
            vec![4],
            vec![5],
            vec![6, 7],
            vec![8, 9],
            vec![10]
        ]
    );
}
