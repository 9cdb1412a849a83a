//! C001 verifier equivalence: the dense O(E) `verify_repair` against the
//! `BTreeSet`/`BTreeMap` implementation it replaced.
//!
//! `oracle_verify_repair` below *is* the previous verifier, kept as the
//! reference; the fixtures additionally pin the literal diagnostic strings
//! and their order as captured from that implementation, so neither the
//! verifier nor the oracle can drift silently. All four C001 properties are
//! exercised: table identity, exact-once coverage of the live set
//! (duplicate and out-of-range ids in `live` included), `Exact` bounds with
//! recorded-count recount, and verdict parity with a from-scratch
//! partition. The last test drives `DynamicPlanner` — which runs the
//! verifier inside every `apply` — through a 16-cycle delete/insert stream
//! at two graph sizes.

use std::collections::{BTreeMap, BTreeSet};
use wisegraph::analysis::prelude::verify_repair;
use wisegraph::analysis::{Code, Diagnostic, Severity, Span};
use wisegraph::cache::hash_table;
use wisegraph::core::dynamic::DynamicPlanner;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::Graph;
use wisegraph::gtask::{
    partition_edges, GraphDelta, IncrementalPlan, PartitionPlan, PartitionTable, TaskList,
};
use wisegraph_testkit::prelude::*;

// ---- the previous implementation, as the oracle ------------------------

fn push_capped(out: &mut Vec<Diagnostic>, found: Vec<Diagnostic>) {
    const DIAG_CAP: usize = 8;
    let extra = found.len().saturating_sub(DIAG_CAP);
    let tail = found.get(DIAG_CAP - 1).map(|d| (d.severity, d.code));
    out.extend(found.into_iter().take(DIAG_CAP));
    if let (Some((severity, code)), true) = (tail, extra > 0) {
        out.push(Diagnostic {
            severity,
            code,
            span: Span::Global,
            message: format!("... and {extra} more findings of this kind"),
            suggestion: None,
        });
    }
}

fn oracle_verify_repair(
    g: &Graph,
    table: &PartitionTable,
    live: &[usize],
    plan: &PartitionPlan,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if hash_table(&plan.table) != hash_table(table) {
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
    let live_set: BTreeSet<usize> = live.iter().copied().collect();
    let own = oracle_subset_findings(g, table, &live_set, plan);
    let own_clean = own.is_empty();
    out.extend(own);
    let live_sorted: Vec<usize> = live_set.iter().copied().collect();
    let scratch = partition_edges(g, table, &live_sorted);
    let scratch_findings = oracle_subset_findings(g, table, &live_set, &scratch);
    if scratch_findings.is_empty() != own_clean {
        out.push(
            Diagnostic::error(
                Code::RepairDivergence,
                Span::Global,
                format!(
                    "verification verdict diverges: the repaired plan has {} finding(s) \
                     but a from-scratch partition of the same {} live edges has {}",
                    if own_clean { 0 } else { 1 },
                    live_set.len(),
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

fn oracle_subset_findings(
    g: &Graph,
    table: &PartitionTable,
    live: &BTreeSet<usize>,
    plan: &PartitionPlan,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let num_edges = g.num_edges();
    let exact = table.exact_attrs();
    let mut count: BTreeMap<usize, u32> = BTreeMap::new();
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
            } else if !live.contains(&e) {
                task_in_range[ti] = false;
                cover_diags.push(Diagnostic::error(
                    Code::RepairDivergence,
                    Span::Edge(e),
                    format!("edge {e} is in the repaired plan but not in the live set"),
                ));
            } else {
                *count.entry(e).or_insert(0) += 1;
            }
        }
    }
    for &e in live {
        match count.get(&e).copied().unwrap_or(0) {
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
    let mut restr_diags = Vec::new();
    for (ti, task) in plan.tasks.iter().enumerate() {
        if task.edges.is_empty() || !task_in_range[ti] {
            continue;
        }
        for &(attr, k) in &exact {
            let mut vals: Vec<u64> =
                task.edges.iter().map(|&e| g.edge_attr(attr, e as usize)).collect();
            vals.sort_unstable();
            vals.dedup();
            let actual = vals.len();
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

// ---- fixtures ----------------------------------------------------------

fn paper_graph() -> Graph {
    Graph::new(
        5,
        2,
        vec![0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0],
        vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
        vec![0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0],
    )
}

/// `span: message`, one line per finding — everything a reader sees.
fn rendered(diags: &[Diagnostic]) -> Vec<String> {
    diags
        .iter()
        .map(|d| {
            assert_eq!(d.code, Code::RepairDivergence);
            assert_eq!(d.severity, Severity::Error);
            format!("{}: {}", d.span, d.message)
        })
        .collect()
}

/// Runs both implementations, checks they agree on every field, and
/// returns the rendered findings of the shipped one.
fn verify_both(
    g: &Graph,
    table: &PartitionTable,
    live: &[usize],
    plan: &PartitionPlan,
) -> Vec<String> {
    let got = verify_repair(g, table, live, plan);
    let want = oracle_verify_repair(g, table, live, plan);
    assert_eq!(format!("{got:#?}"), format!("{want:#?}"));
    rendered(&got)
}

/// `plan` with its task lists edited by `edit`.
fn edited(plan: &PartitionPlan, edit: impl FnOnce(&mut Vec<TaskList>)) -> PartitionPlan {
    let mut tasks = plan.task_lists();
    edit(&mut tasks);
    PartitionPlan::from_task_lists(plan.table.clone(), plan.tasks.attrs().to_vec(), tasks)
}

fn vertex_centric_snapshot(g: &Graph) -> (PartitionTable, Vec<usize>, PartitionPlan) {
    let table = PartitionTable::vertex_centric();
    let inc = IncrementalPlan::new(g, table.clone());
    (table, inc.live_edges(), inc.snapshot(g))
}

#[test]
fn duplicate_ids_in_live_are_counted_once() {
    let g = paper_graph();
    let (table, mut live, snap) = vertex_centric_snapshot(&g);
    live.extend([3, 3, 7, 0]);
    assert_eq!(verify_both(&g, &table, &live, &snap), Vec::<String>::new());
    // With an uncovered edge the divergence message counts *distinct* ids.
    let short = edited(&snap, |tasks| tasks[1].0.retain(|&e| e != 3));
    assert_eq!(
        verify_both(&g, &table, &live, &short),
        [
            "edge 3: live edge 3 is not covered by any gTask of the repaired plan",
            "global: verification verdict diverges: the repaired plan has 1 finding(s) but a \
             from-scratch partition of the same 11 live edges has 0",
        ]
    );
}

#[test]
fn out_of_range_id_in_live_is_reported_uncovered_after_the_in_range_ones() {
    let g = paper_graph();
    // The unrestricted table reads no attribute, so the from-scratch leg
    // can partition an id the graph does not have (and is then itself
    // reported out of range: both verdicts are "not clean", no divergence).
    let table = PartitionTable::new();
    let inc = IncrementalPlan::new(&g, table.clone());
    let snap = edited(&inc.snapshot(&g), |tasks| tasks[0].0.retain(|&e| e != 9));
    let live = [99, 4, 0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 99, 40];
    assert_eq!(
        verify_both(&g, &table, &live, &snap),
        [
            "edge 9: live edge 9 is not covered by any gTask of the repaired plan",
            "edge 40: live edge 40 is not covered by any gTask of the repaired plan",
            "edge 99: live edge 99 is not covered by any gTask of the repaired plan",
        ]
    );
}

#[test]
fn edge_held_by_two_tasks_is_reported_with_its_count() {
    let g = paper_graph();
    let (table, live, snap) = vertex_centric_snapshot(&g);
    // Edge 2 (dst 1) also lands in the task of dst 0: double coverage, a
    // second destination in that task, and a stale recorded count.
    let snap = edited(&snap, |tasks| tasks[0].0.push(2));
    assert_eq!(
        verify_both(&g, &table, &live, &snap),
        [
            "edge 2: live edge 2 is covered by 2 gTasks (must be exactly one)",
            "task 0: repaired gTask has uniq(dst-id) = 2, violating the restriction \
             uniq(dst-id) = 1",
            "task 0: recorded uniq(dst-id) = 1 disagrees with a fresh recount of 2 after repair",
            "global: verification verdict diverges: the repaired plan has 1 finding(s) but a \
             from-scratch partition of the same 11 live edges has 0",
        ]
    );
}

#[test]
fn uncovered_live_edges_burst_is_capped_in_ascending_order() {
    let g = paper_graph();
    let (table, live, mut snap) = vertex_centric_snapshot(&g);
    snap.tasks.truncate(1); // keeps edges 0 and 1, drops the other nine
    let got = verify_both(&g, &table, &live, &snap);
    let mut want: Vec<String> = (2..10)
        .map(|e| {
            format!("edge {e}: live edge {e} is not covered by any gTask of the repaired plan")
        })
        .collect();
    want.push("global: ... and 1 more findings of this kind".into());
    want.push(
        "global: verification verdict diverges: the repaired plan has 1 finding(s) but a \
         from-scratch partition of the same 11 live edges has 0"
            .into(),
    );
    assert_eq!(got, want);
}

#[test]
fn phantom_edge_empty_task_and_out_of_range_task_edge_keep_plan_order() {
    let g = paper_graph();
    let (table, mut live, snap) = vertex_centric_snapshot(&g);
    live.retain(|&e| e != 5); // edge 5 stays in the plan: a phantom
    let snap = edited(&snap, |tasks| {
        tasks.insert(1, (Vec::new(), vec![0]));
        tasks[4].0.push(77);
    });
    assert_eq!(
        verify_both(&g, &table, &live, &snap),
        [
            "task 1: repaired plan carries an empty gTask",
            "edge 5: edge 5 is in the repaired plan but not in the live set",
            "task 4: edge id 77 is out of range (the graph has 11 edges)",
            "global: verification verdict diverges: the repaired plan has 1 finding(s) but a \
             from-scratch partition of the same 10 live edges has 0",
        ]
    );
}

#[test]
fn wrong_table_is_reported_first() {
    let g = paper_graph();
    let (_, live, snap) = vertex_centric_snapshot(&g);
    assert_eq!(
        verify_both(&g, &PartitionTable::edge_batch(4), &live, &snap),
        [
            "global: the repaired plan carries table [uniq(dst-id)=1] but the repair claims to \
             maintain [uniq(edge-id)=4]",
        ]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random corruption of a repaired snapshot and of the claimed live
    /// set: both implementations report the same findings, field by field.
    fn dense_verifier_matches_the_btree_oracle(
        seed in 0u64..10_000,
        table_pick in 0usize..5,
        deletes in prop::collection::vec(0usize..10_000, 0..40),
        moves in prop::collection::vec((0usize..10_000, 0usize..10_000), 0..6),
        live_noise in prop::collection::vec(0usize..10_000, 0..6),
        bump in 0usize..3,
    ) {
        let g = rmat(&RmatParams::standard(40, 300, seed).with_edge_types(3));
        let e = g.num_edges();
        let table = match table_pick {
            0 => PartitionTable::vertex_centric(),
            1 => PartitionTable::edge_batch(16),
            2 => PartitionTable::src_batch_per_type(4),
            3 => PartitionTable::two_d(3),
            _ => PartitionTable::dst_and_type(),
        };
        let mut inc = IncrementalPlan::new(&g, table.clone());
        inc.apply(&g, &GraphDelta::deleting(deletes.iter().map(|&d| d % e).collect()));
        let mut live = inc.live_edges();
        let snap = edited(&inc.snapshot(&g), |tasks| {
            // Copy an arbitrary in-range edge id into an arbitrary task:
            // duplicates, phantoms and restriction violations.
            for &(t, edge) in &moves {
                if !tasks.is_empty() {
                    let ti = t % tasks.len();
                    tasks[ti].0.push(edge % e);
                }
            }
            if bump > 0 {
                if let Some(v) = tasks.first_mut().and_then(|t| t.1.first_mut()) {
                    *v += bump;
                }
            }
        });
        // Claimed-live noise: duplicates and ids the plan does not hold.
        live.extend(live_noise.iter().map(|&n| n % e));
        let got = verify_repair(&g, &table, &live, &snap);
        let want = oracle_verify_repair(&g, &table, &live, &snap);
        prop_assert_eq!(format!("{got:#?}"), format!("{want:#?}"));
    }
}

#[test]
fn sixteen_delta_cycles_stay_clean_without_rebuild_at_two_sizes() {
    for (vertices, edges) in [(60, 500), (3_000, 40_000)] {
        let g = rmat(&RmatParams::standard(vertices, edges, 29).with_edge_types(4));
        for table in [
            PartitionTable::vertex_centric(),
            PartitionTable::src_batch_per_type(16),
        ] {
            let mut planner = DynamicPlanner::new(&g, table.clone());
            let mut rng = Rng::seed_from_u64(edges as u64);
            let mut mirror: BTreeSet<usize> = (0..g.num_edges()).collect();
            for cycle in 0..16 {
                let batch: Vec<usize> = (0..g.num_edges() / 50)
                    .map(|_| rng.range_usize(0..g.num_edges()))
                    .collect();
                // Even cycles delete, odd cycles re-insert half and delete
                // the rest, so the live set keeps changing shape.
                let delta = if cycle % 2 == 0 {
                    GraphDelta::deleting(batch)
                } else {
                    let (ins, del) = batch.split_at(batch.len() / 2);
                    GraphDelta {
                        insert: ins.to_vec(),
                        delete: del.to_vec(),
                    }
                };
                for &e in &delta.delete {
                    mirror.remove(&e);
                }
                for &e in &delta.insert {
                    mirror.insert(e);
                }
                let outcome = planner.apply(&g, &delta);
                assert!(
                    outcome.is_clean() && !outcome.rebuilt,
                    "[{table}] {vertices} V cycle {cycle}: {:#?}",
                    outcome.diagnostics
                );
                let hits = planner.cache().hits();
                let plan = planner.plan(&g);
                assert_eq!(planner.cache().hits(), hits + 1, "plan() must be a hit");
                let mut covered: Vec<usize> =
                    plan.tasks.edges().iter().map(|&e| e as usize).collect();
                covered.sort_unstable();
                let want: Vec<usize> = mirror.iter().copied().collect();
                assert_eq!(covered, want, "[{table}] {vertices} V cycle {cycle}");
                assert_eq!(planner.live_edges(), want);
            }
        }
    }
}
