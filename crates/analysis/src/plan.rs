//! Plan verification (codes `P001`–`P004`).
//!
//! A [`PartitionPlan`] is legal when (paper §4.2):
//!
//! 1. its gTasks cover every edge of the graph *exactly once* (`P001`);
//! 2. every gTask honors every `Exact(k)` restriction of its table, and
//!    the unique counts the partitioner recorded match an independent
//!    recount, [`wisegraph_gtask::Recount`] (`P002`);
//! 3. no gTask is empty (`P003`);
//! 4. the concatenated edge sequence is monotone in the partitioner's
//!    sort-key order — [`wisegraph_gtask::PartitionTable::sort_key_attrs`],
//!    then the edge id (`P004`). The engine's chunking inherits locality
//!    from exactly this order.
//!
//! Everything is recomputed from the graph; nothing recorded in the plan
//! is trusted. The passes walk the plan's task ranges over its one edge
//! array.

use crate::{push_capped, Code, Diagnostic, Span};
use wisegraph_graph::Graph;
use wisegraph_gtask::{PartitionPlan, Recount};

/// Statically verifies a partition plan against its graph and table.
/// Returns all findings; an empty vector means the plan is provably legal.
pub fn verify_plan(g: &Graph, plan: &PartitionPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let num_edges = g.num_edges();
    let exact = plan.table.exact_attrs();
    let min_attrs = plan.table.min_attrs();

    // --- P001: exact-once coverage -----------------------------------
    let mut count = vec![0u32; num_edges];
    // Tasks holding out-of-range ids are excluded from attribute checks
    // (recounting them would index past the attribute arrays).
    let mut task_in_range = vec![true; plan.tasks.len()];
    let mut range_diags = Vec::new();
    for (ti, task) in plan.tasks.iter().enumerate() {
        for &e in task.edges {
            let e = e as usize;
            if e >= num_edges {
                task_in_range[ti] = false;
                range_diags.push(Diagnostic::error(
                    Code::PlanEdgeCoverage,
                    Span::Task(ti),
                    format!("edge id {e} is out of range (the graph has {num_edges} edges)"),
                ));
            } else {
                count[e] += 1;
            }
        }
    }
    push_capped(&mut out, range_diags);
    let mut coverage_diags = Vec::new();
    for (e, &c) in count.iter().enumerate() {
        if c == 0 {
            coverage_diags.push(
                Diagnostic::error(
                    Code::PlanEdgeCoverage,
                    Span::Edge(e),
                    format!("edge {e} is not covered by any gTask"),
                )
                .with_suggestion("regenerate the plan with the greedy partitioner"),
            );
        } else if c > 1 {
            coverage_diags.push(Diagnostic::error(
                Code::PlanEdgeCoverage,
                Span::Edge(e),
                format!("edge {e} is covered by {c} gTasks (must be exactly one)"),
            ));
        }
    }
    push_capped(&mut out, coverage_diags);

    // --- P002/P003: per-task restriction satisfaction ----------------
    let mut restr_diags = Vec::new();
    let mut recount = Recount::new(g);
    for (ti, task) in plan.tasks.iter().enumerate() {
        if task.edges.is_empty() {
            out.push(
                Diagnostic::error(
                    Code::PlanEmptyTask,
                    Span::Task(ti),
                    "gTask holds no edges",
                )
                .with_suggestion("drop empty tasks when constructing plans by hand"),
            );
            continue;
        }
        if !task_in_range[ti] {
            continue;
        }
        for &(attr, k) in &exact {
            let actual = recount.unique(attr, task.edges);
            if actual as u64 > k {
                restr_diags.push(
                    Diagnostic::error(
                        Code::PlanRestriction,
                        Span::Task(ti),
                        format!(
                            "uniq({attr}) = {actual} violates the restriction uniq({attr}) = {k}"
                        ),
                    )
                    .with_suggestion("split the task or loosen the table's bound"),
                );
            }
            if let Some(recorded) = task.uniq(attr) {
                if recorded != actual {
                    restr_diags.push(
                        Diagnostic::error(
                            Code::PlanRestriction,
                            Span::Task(ti),
                            format!(
                                "recorded uniq({attr}) = {recorded} disagrees with a fresh \
                                 recount of {actual}"
                            ),
                        )
                        .with_suggestion("the task metadata is stale; rebuild the plan"),
                    );
                }
            }
        }
        for &attr in &min_attrs {
            if task.uniq(attr).is_none() {
                restr_diags.push(Diagnostic::warning(
                    Code::PlanRestriction,
                    Span::Task(ti),
                    format!(
                        "Min-restricted attribute {attr} has no recorded unique count; \
                         the grouping quality of this task cannot be audited"
                    ),
                ));
            }
        }
    }
    push_capped(&mut out, restr_diags);

    // --- P004: monotone task bounds ----------------------------------
    // The greedy partitioner emits edges in one globally sorted pass, so a
    // legal plan's concatenated edge sequence is non-decreasing in the
    // sort key. The key ends with the edge id, making the order total: any
    // regression is a definite violation, within a task or across a task
    // boundary.
    let key_attrs = plan.table.sort_key_attrs();
    let key = |e: usize| -> Vec<u64> {
        let mut k: Vec<u64> = key_attrs.iter().map(|&a| g.edge_attr(a, e)).collect();
        k.push(e as u64);
        k
    };
    let mut order_diags = Vec::new();
    let mut prev: Option<(usize, usize, Vec<u64>)> = None;
    for (ti, task) in plan.tasks.iter().enumerate() {
        if !task_in_range[ti] {
            prev = None;
            continue;
        }
        for &e in task.edges {
            let e = e as usize;
            let k = key(e);
            if let Some((pt, pe, pk)) = &prev {
                if k < *pk {
                    let place = if *pt == ti {
                        format!("within task {ti}")
                    } else {
                        format!("across the task {pt} → {ti} boundary")
                    };
                    order_diags.push(
                        Diagnostic::error(
                            Code::PlanTaskOrder,
                            Span::Task(ti),
                            format!(
                                "edge {e} sorts before edge {pe} under the table's key \
                                 order ({place}); task bounds are not monotone"
                            ),
                        )
                        .with_suggestion(
                            "keep edges in the greedy partitioner's sorted order",
                        ),
                    );
                }
            }
            prev = Some((ti, e, k));
        }
    }
    push_capped(&mut out, order_diags);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::AttrKind;
    use wisegraph_gtask::{partition, PartitionTable, TaskList};

    fn paper_graph() -> Graph {
        Graph::new(
            5,
            2,
            vec![0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0],
            vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
            vec![0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0],
        )
    }

    fn task(edges: Vec<usize>) -> TaskList {
        (edges, Vec::new())
    }

    /// A plan of untracked tasks under the unrestricted table.
    fn plan_of(tasks: Vec<TaskList>) -> PartitionPlan {
        PartitionPlan::from_task_lists(PartitionTable::new(), Vec::new(), tasks)
    }

    #[test]
    fn partitioner_output_is_accepted() {
        let g = paper_graph();
        for table in [
            PartitionTable::new(),
            PartitionTable::vertex_centric(),
            PartitionTable::edge_centric(),
            PartitionTable::two_d(2),
            PartitionTable::dst_and_type(),
            PartitionTable::dst_batch_min_degree(3),
            PartitionTable::src_batch_per_type(2),
            PartitionTable::edge_batch(4),
            PartitionTable::dst_degree_grouped(),
        ] {
            let plan = partition(&g, &table);
            let diags = verify_plan(&g, &plan);
            assert!(diags.is_empty(), "{table}: {diags:#?}");
        }
    }

    #[test]
    fn missing_and_duplicated_edges_are_p001() {
        let g = paper_graph();
        // Edge 1 twice, edge 10 never.
        let plan = plan_of(vec![task(vec![0, 1, 2, 3, 4]), task(vec![1, 5, 6, 7, 8, 9])]);
        let diags = verify_plan(&g, &plan);
        assert!(diags.iter().any(|d| d.code == Code::PlanEdgeCoverage
            && d.message.contains("not covered")));
        assert!(diags.iter().any(|d| d.code == Code::PlanEdgeCoverage
            && d.message.contains("2 gTasks")));
    }

    #[test]
    fn out_of_range_edge_is_p001() {
        let g = paper_graph();
        let plan = plan_of(vec![task((0..g.num_edges()).collect()), task(vec![99])]);
        let diags = verify_plan(&g, &plan);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::PlanEdgeCoverage && d.message.contains("out of range")));
    }

    #[test]
    fn coverage_bursts_are_capped() {
        let g = paper_graph();
        let plan = plan_of(vec![task(vec![0])]); // 10 edges uncovered
        let diags = verify_plan(&g, &plan);
        let p001 = diags
            .iter()
            .filter(|d| d.code == Code::PlanEdgeCoverage)
            .count();
        assert_eq!(p001, 9, "8 kept + 1 summary: {diags:#?}");
    }

    #[test]
    fn violated_and_stale_restrictions_are_p002() {
        let g = paper_graph();
        // One task with every edge, claiming uniq(dst-id) = 1.
        let plan = PartitionPlan::from_task_lists(
            PartitionTable::vertex_centric(),
            vec![AttrKind::DstId],
            vec![((0..g.num_edges()).collect(), vec![1])],
        );
        let diags = verify_plan(&g, &plan);
        assert!(diags.iter().any(|d| d.code == Code::PlanRestriction
            && d.severity == crate::Severity::Error
            && d.message.contains("violates")));
        assert!(diags.iter().any(|d| d.message.contains("disagrees")));
    }

    #[test]
    fn untracked_min_attr_is_a_p002_warning() {
        let g = paper_graph();
        let real = partition(&g, &PartitionTable::dst_batch_min_degree(3));
        let drop = real.tasks.attrs().iter().position(|&a| a == AttrKind::DstDegree).unwrap();
        let mut attrs = real.tasks.attrs().to_vec();
        attrs.remove(drop);
        let mut tasks = real.task_lists();
        for (_, uniq) in &mut tasks {
            uniq.remove(drop);
        }
        let plan = PartitionPlan::from_task_lists(real.table.clone(), attrs, tasks);
        let diags = verify_plan(&g, &plan);
        assert!(diags.iter().any(|d| d.code == Code::PlanRestriction
            && d.severity == crate::Severity::Warning
            && d.message.contains("dst-degree")));
    }

    #[test]
    fn empty_task_is_p003() {
        let g = paper_graph();
        let plan = plan_of(vec![task((0..g.num_edges()).collect()), task(vec![])]);
        let diags = verify_plan(&g, &plan);
        assert!(diags.iter().any(|d| d.code == Code::PlanEmptyTask));
    }

    #[test]
    fn shuffled_edges_are_p004() {
        let g = paper_graph();
        // Unrestricted table: the key order is the edge id.
        let plan = plan_of(vec![task(vec![0, 3, 1, 2, 4, 5, 6, 7, 8, 9, 10])]);
        let diags = verify_plan(&g, &plan);
        assert!(diags.iter().any(|d| d.code == Code::PlanTaskOrder
            && d.message.contains("within task")));
    }

    #[test]
    fn swapped_tasks_are_p004() {
        let g = paper_graph();
        let real = partition(&g, &PartitionTable::vertex_centric());
        assert!(real.tasks.len() >= 2);
        let mut tasks = real.task_lists();
        tasks.swap(0, 1);
        let swapped =
            PartitionPlan::from_task_lists(real.table.clone(), real.tasks.attrs().to_vec(), tasks);
        let diags = verify_plan(&g, &swapped);
        assert!(diags.iter().any(|d| d.code == Code::PlanTaskOrder
            && d.message.contains("boundary")));
    }
}
