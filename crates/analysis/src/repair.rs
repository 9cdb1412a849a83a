//! Incremental-repair equivalence verification (code `C001`).
//!
//! The incremental path (`wisegraph_gtask::IncrementalPlan`) repairs only
//! the gTasks a delta touches, so its snapshots are *not* byte-identical
//! to a from-scratch partition — task boundaries fragment and revived
//! tasks append out of global sort order. What must hold instead
//! (`C001`) is verification equivalence over the live edge set:
//!
//! 1. the repaired plan covers exactly the live edges, each exactly once;
//! 2. every task honors every `Exact(k)` restriction of the table, and
//!    its recorded unique counts match an independent recount;
//! 3. the plan's table is the table the repair claims to maintain;
//! 4. the verification verdict (clean / not clean) is identical to that
//!    of `partition_edges(g, table, live)` run from scratch.
//!
//! All four are O(E) dense passes over edge ids — membership and coverage
//! are arrays indexed by edge id, recounts read one code column per `Exact`
//! attribute, built once and shared by both plans, into one epoch-stamped
//! value set — so the guard costs about as much as the from-scratch
//! partition of property 4, not a multiple of it, and runs inside every
//! `DynamicPlanner::apply`.
//!
//! Global monotone task order (`P004`) is deliberately *not* required
//! here: repair trades it for O(delta) work, and the engine does not
//! depend on cross-task order for correctness — only the reducers'
//! ascending merge, which keys on node ids, not task ids.

use crate::{push_capped, Code, Diagnostic, Span};
use wisegraph_graph::Graph;
use wisegraph_gtask::{partition_edges, PartitionPlan, PartitionTable, Recount};

/// Verifies that an incrementally repaired `plan` is equivalent, for
/// execution purposes, to partitioning the `live` edge set from scratch
/// under `table` (`C001`). Returns all findings; an empty vector means
/// the repair is provably as good as a rebuild.
pub fn verify_repair(
    g: &Graph,
    table: &PartitionTable,
    live: &[usize],
    plan: &PartitionPlan,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // --- table identity ----------------------------------------------
    if plan.table != *table {
        out.push(
            Diagnostic::error(
                Code::RepairDivergence,
                Span::Global,
                format!(
                    "the repaired plan carries table [{}] but the repair claims to \
                     maintain [{table}]",
                    plan.table
                ),
            )
            .with_suggestion("an IncrementalPlan never changes its table; rebuild it"),
        );
    }

    let live_set = LiveSet::new(g.num_edges(), live);
    let mut recount = Recount::new(g);
    let own = subset_findings(g, table, &live_set, &mut recount, plan);
    let own_clean = own.is_empty();
    out.extend(own);

    // --- verdict parity with a from-scratch partition ----------------
    let scratch = partition_edges(g, table, &live_set.ids);
    let scratch_findings = subset_findings(g, table, &live_set, &mut recount, &scratch);
    if scratch_findings.is_empty() != own_clean {
        out.push(
            Diagnostic::error(
                Code::RepairDivergence,
                Span::Global,
                format!(
                    "verification verdict diverges: the repaired plan has {} finding(s) \
                     but a from-scratch partition of the same {} live edges has {}",
                    if own_clean { 0 } else { 1 },
                    live_set.ids.len(),
                    scratch_findings.len()
                ),
            )
            .with_suggestion(
                "repair and rebuild must agree on legality; call rebuild_if_fragmented \
                 or investigate the repair path",
            ),
        );
    }

    out
}

/// The claimed live set as a set: membership dense over the graph's edge
/// ids, plus the distinct claimed ids in ascending order — including ids
/// the graph does not have, so they are still reported (as uncovered).
struct LiveSet {
    /// `member[e]` for every edge id `e` of the graph.
    member: Vec<bool>,
    ids: Vec<usize>,
}

impl LiveSet {
    fn new(num_edges: usize, live: &[usize]) -> Self {
        let mut member = vec![false; num_edges];
        let mut out_of_range = Vec::new();
        for &e in live {
            match member.get_mut(e) {
                Some(m) => *m = true,
                None => out_of_range.push(e),
            }
        }
        out_of_range.sort_unstable();
        out_of_range.dedup();
        let mut ids: Vec<usize> = (0..num_edges).filter(|&e| member[e]).collect();
        ids.extend(out_of_range);
        Self { member, ids }
    }
}

/// The subset analogue of [`crate::plan::verify_plan`]: exact-once
/// coverage of `live` (instead of all graph edges), `Exact` restriction
/// recounts, and no empty tasks. Order checks are intentionally absent
/// (see the module docs).
fn subset_findings(
    g: &Graph,
    table: &PartitionTable,
    live: &LiveSet,
    recount: &mut Recount<'_>,
    plan: &PartitionPlan,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let num_edges = g.num_edges();
    let exact = table.exact_attrs();

    // Coverage over the live set.
    let mut count = vec![0u32; num_edges];
    let mut task_in_range = vec![true; plan.tasks.len()];
    let mut cover_diags = Vec::new();
    for (ti, task) in plan.tasks.iter().enumerate() {
        if task.edges.is_empty() {
            cover_diags.push(
                Diagnostic::error(
                    Code::RepairDivergence,
                    Span::Task(ti),
                    "repaired plan carries an empty gTask",
                )
                .with_suggestion("snapshots must drop tombstoned task slots"),
            );
            continue;
        }
        for &e in task.edges {
            let e = e as usize;
            if e >= num_edges {
                task_in_range[ti] = false;
                cover_diags.push(Diagnostic::error(
                    Code::RepairDivergence,
                    Span::Task(ti),
                    format!("edge id {e} is out of range (the graph has {num_edges} edges)"),
                ));
            } else if !live.member[e] {
                task_in_range[ti] = false;
                cover_diags.push(Diagnostic::error(
                    Code::RepairDivergence,
                    Span::Edge(e),
                    format!("edge {e} is in the repaired plan but not in the live set"),
                ));
            } else {
                count[e] += 1;
            }
        }
    }
    for &e in &live.ids {
        // A claimed id the graph does not have is never covered.
        match count.get(e).copied().unwrap_or(0) {
            0 => cover_diags.push(Diagnostic::error(
                Code::RepairDivergence,
                Span::Edge(e),
                format!("live edge {e} is not covered by any gTask of the repaired plan"),
            )),
            1 => {}
            c => cover_diags.push(Diagnostic::error(
                Code::RepairDivergence,
                Span::Edge(e),
                format!("live edge {e} is covered by {c} gTasks (must be exactly one)"),
            )),
        }
    }
    push_capped(&mut out, cover_diags);

    // Restriction satisfaction and recorded-count honesty.
    let mut restr_diags = Vec::new();
    for (ti, task) in plan.tasks.iter().enumerate() {
        if task.edges.is_empty() || !task_in_range[ti] {
            continue;
        }
        for &(attr, k) in &exact {
            let actual = recount.unique(attr, task.edges);
            if actual as u64 > k {
                restr_diags.push(
                    Diagnostic::error(
                        Code::RepairDivergence,
                        Span::Task(ti),
                        format!(
                            "repaired gTask has uniq({attr}) = {actual}, violating the \
                             restriction uniq({attr}) = {k}"
                        ),
                    )
                    .with_suggestion("the repair must split tasks exactly like the partitioner"),
                );
            }
            if let Some(recorded) = task.uniq(attr) {
                if recorded != actual {
                    restr_diags.push(Diagnostic::error(
                        Code::RepairDivergence,
                        Span::Task(ti),
                        format!(
                            "recorded uniq({attr}) = {recorded} disagrees with a fresh \
                             recount of {actual} after repair"
                        ),
                    ));
                }
            }
        }
    }
    push_capped(&mut out, restr_diags);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_gtask::{GraphDelta, IncrementalPlan};

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
    fn repaired_snapshots_verify_clean_across_tables() {
        let g = paper_graph();
        for table in [
            PartitionTable::new(),
            PartitionTable::vertex_centric(),
            PartitionTable::two_d(2),
            PartitionTable::dst_and_type(),
            PartitionTable::src_batch_per_type(2),
        ] {
            let mut inc = IncrementalPlan::new(&g, table.clone());
            inc.apply(&g, &GraphDelta::deleting(vec![3, 7, 10]));
            inc.apply(&g, &GraphDelta::inserting(vec![7]));
            let live = inc.live_edges();
            let snap = inc.snapshot(&g);
            let diags = verify_repair(&g, &table, &live, &snap);
            assert!(diags.is_empty(), "{table}: {diags:#?}");
        }
    }

    #[test]
    fn phantom_and_missing_edges_are_c001() {
        let g = paper_graph();
        let table = PartitionTable::vertex_centric();
        let mut inc = IncrementalPlan::new(&g, table.clone());
        inc.apply(&g, &GraphDelta::deleting(vec![2]));
        let snap = inc.snapshot(&g);
        let live = inc.live_edges();

        // The snapshot covers edge 2, which the claimed live set lacks.
        let mut short = live.clone();
        short.retain(|&e| e != 0);
        let diags = verify_repair(&g, &table, &short, &snap);
        assert!(diags.iter().any(|d| d.code == Code::RepairDivergence
            && d.message.contains("not in the live set")));

        // The claimed live set has edge 2, which the snapshot lacks.
        let mut long = live;
        long.push(2);
        let diags = verify_repair(&g, &table, &long, &snap);
        assert!(diags.iter().any(|d| d.code == Code::RepairDivergence
            && d.message.contains("not covered")));
    }

    #[test]
    fn restriction_violations_after_repair_are_c001() {
        let g = paper_graph();
        let table = PartitionTable::vertex_centric();
        let inc = IncrementalPlan::new(&g, table.clone());
        let live = inc.live_edges();
        let snap = inc.snapshot(&g);
        // Merge every task into one: uniq(dst-id) explodes past Exact(1).
        let merged: Vec<usize> = snap.tasks.edges().iter().map(|&e| e as usize).collect();
        let mut tasks = snap.task_lists();
        tasks.truncate(1);
        tasks[0].0 = merged;
        let snap =
            PartitionPlan::from_task_lists(snap.table.clone(), snap.tasks.attrs().to_vec(), tasks);
        let diags = verify_repair(&g, &table, &live, &snap);
        assert!(diags.iter().any(|d| d.code == Code::RepairDivergence
            && d.message.contains("violating")));
    }

    #[test]
    fn stale_recorded_uniq_is_c001() {
        let g = paper_graph();
        let table = PartitionTable::vertex_centric();
        let inc = IncrementalPlan::new(&g, table.clone());
        let live = inc.live_edges();
        let snap = inc.snapshot(&g);
        let mut tasks = snap.task_lists();
        if let Some(v) = tasks[0].1.first_mut() {
            *v += 41;
        }
        let snap =
            PartitionPlan::from_task_lists(snap.table.clone(), snap.tasks.attrs().to_vec(), tasks);
        let diags = verify_repair(&g, &table, &live, &snap);
        assert!(diags.iter().any(|d| d.code == Code::RepairDivergence
            && d.message.contains("disagrees")));
    }

    #[test]
    fn wrong_table_is_c001() {
        let g = paper_graph();
        let inc = IncrementalPlan::new(&g, PartitionTable::vertex_centric());
        let live = inc.live_edges();
        let snap = inc.snapshot(&g);
        let diags = verify_repair(&g, &PartitionTable::edge_centric(), &live, &snap);
        assert!(diags.iter().any(|d| d.code == Code::RepairDivergence
            && d.message.contains("table")));
    }

    #[test]
    fn empty_task_in_snapshot_is_c001() {
        let g = paper_graph();
        let table = PartitionTable::new();
        let inc = IncrementalPlan::new(&g, table.clone());
        let live = inc.live_edges();
        let snap = inc.snapshot(&g);
        let mut tasks = snap.task_lists();
        tasks.push((Vec::new(), Vec::new()));
        let snap =
            PartitionPlan::from_task_lists(snap.table.clone(), snap.tasks.attrs().to_vec(), tasks);
        let diags = verify_repair(&g, &table, &live, &snap);
        assert!(diags.iter().any(|d| d.code == Code::RepairDivergence
            && d.message.contains("empty gTask")));
    }
}
