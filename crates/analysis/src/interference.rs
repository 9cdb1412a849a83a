//! Schedule-interference analysis and workspace lifetime (codes `R001`–`R005`).
//!
//! The engine's parallelism rests on one claim: co-scheduled gTasks never
//! step on each other. Concretely, every worker scatters into a private
//! accumulator and the partials reduce in ascending slot order, so
//! cross-task writes to the same accumulator row are *legal accumulation*
//! — unless the program's stores assume exclusive row ownership
//! (per-destination normalization, [`KernelProgram::requires_dst_complete`]),
//! in which case overlap silently corrupts the normalization. This module
//! proves the claim statically, per (graph, plan, program, threads)
//! combination:
//!
//! - [`task_access`] / [`summarize_plan`] derive each gTask's symbolic
//!   access set — globals read, accumulator rows written, exclusivity —
//!   from the same [`summarize`] access summary the fusion matcher's
//!   confinement checks consume, so matcher and verifier can never drift;
//! - [`verify_interference`] checks every pair of gTasks co-scheduled by
//!   [`deal_tasks`] across worker slots: write-write overlap that the
//!   deterministic merge does *not* handle is `R001`, and a scatter
//!   destination whose row provenance cannot be resolved statically
//!   (so disjointness cannot be proven) is `R002`;
//! - [`verify_slot_assignment`] proves a chunk-to-slot assignment gives
//!   every concurrent chunk a private slot (`R003`);
//! - [`verify_fused_access`] re-derives each fused segment's access set
//!   from the interpreted instructions it replaces and requires them to
//!   agree (`R004`) — interpreted and fused `ExecMode`s must touch the
//!   same buffers;
//! - [`verify_workspace_lifetime`] enforces the single-assignment
//!   discipline backing the workspace pool's recycle-on-overwrite
//!   semantics: a re-leased register whose previous buffer was never
//!   consumed, or a read across a release point, is `R005`.
//!
//! The dynamic counterpart is the engine's `ExecMode::Sanitize`
//! shadow-memory sanitizer, which records per-cell last writers during a
//! real execution; `wisegraph-lint` pass 7 cross-checks the two — a
//! runtime conflict on a schedule this module declared safe is a hard
//! error.

use crate::{push_capped, Code, Diagnostic, Span};
use std::collections::{btree_map::Entry, BTreeMap, BTreeSet};
use wisegraph_graph::Graph;
use wisegraph_gtask::{GTask, PartitionPlan};
use wisegraph_kernels::engine::deal_tasks;
use wisegraph_kernels::fused::{FusedOp, FusedPlan, Segment};
use wisegraph_kernels::micro::{
    global_inputs, summarize, AccessSummary, KernelProgram, MicroKernel, Reg,
};

/// The symbolic access set of one gTask under a compiled program: which
/// global buffers it reads, which accumulator rows it writes, and whether
/// its stores assume exclusive row ownership.
#[derive(Clone, Debug)]
pub struct TaskAccess {
    /// Task index in the plan.
    pub task: usize,
    /// Named global tensors the program reads (feature matrices, weight
    /// tables, prologue pseudo-globals). Read-only in task scope, shared
    /// by every worker.
    pub globals_read: BTreeSet<String>,
    /// Accumulator rows the task's scatter stores write — exact when
    /// every store's destination stream resolves to an edge attribute,
    /// `None` when some destination's provenance is unknown.
    pub write_rows: Option<BTreeSet<u64>>,
    /// `true` when the program's stores assume exclusive ownership of
    /// the rows they write: overlap with any co-scheduled writer is then
    /// an error, not an accumulation.
    pub exclusive: bool,
}

/// Derives the symbolic access set of one gTask from the shared program
/// [`AccessSummary`]: scatter destinations resolve through the summary's
/// stream provenance to edge attributes, whose value sets over the task's
/// edges are exactly the accumulator rows written.
pub fn task_access(
    g: &Graph,
    task_idx: usize,
    task: &GTask,
    program: &KernelProgram,
    summary: &AccessSummary,
) -> TaskAccess {
    let globals_read = summary
        .global_reads
        .iter()
        .map(|(_, name)| name.clone())
        .collect();
    let mut rows = BTreeSet::new();
    let mut resolvable = true;
    for &(_, _, idx) in &summary.scatter_stores {
        match summary.stream_origin.get(idx.0).copied().flatten() {
            Some(attr) => rows.extend(task.attr_rows(g, attr)),
            None => resolvable = false,
        }
    }
    TaskAccess {
        task: task_idx,
        globals_read,
        write_rows: resolvable.then_some(rows),
        exclusive: program.requires_dst_complete,
    }
}

/// Per-task access summaries for a whole plan under one compiled program.
pub fn summarize_plan(
    g: &Graph,
    plan: &PartitionPlan,
    program: &KernelProgram,
) -> Vec<TaskAccess> {
    let summary = summarize(program);
    plan.tasks
        .iter()
        .enumerate()
        .map(|(i, t)| task_access(g, i, t, program, &summary))
        .collect()
}

/// Schedule-level interference check (codes `R001`, `R002`, and a re-check
/// of `R003` on the engine's own assignment).
///
/// Models exactly what the engine will do: [`deal_tasks`]`(num_tasks,
/// threads)` deals blocks of tasks to worker slots, slot `i`'s blocks on
/// worker `i`, all slots concurrent. For every pair of co-scheduled
/// tasks (different slots) it proves write-write disjointness of the
/// accumulator rows — or proves the only overlap is plain scatter-add
/// accumulation, which the engine's ascending-order merge handles
/// deterministically. Programs whose stores assume exclusive row
/// ownership get the strict check; a destination stream whose provenance
/// cannot be resolved makes the proof impossible and is reported instead
/// of assumed safe.
///
/// Reads never interfere: named globals (including prologue
/// pseudo-globals) are read-only in task scope, and the only write target
/// outside the register file is the per-worker private accumulator.
pub fn verify_interference(
    g: &Graph,
    plan: &PartitionPlan,
    program: &KernelProgram,
    threads: usize,
) -> Vec<Diagnostic> {
    let mut found = Vec::new();
    let summary = summarize(program);
    for &(pc, _, idx) in &summary.scatter_stores {
        if summary.stream_origin.get(idx.0).copied().flatten().is_none() {
            found.push(
                Diagnostic::error(
                    Code::ScheduleReadWrite,
                    Span::KernelOp(pc),
                    format!(
                        "scatter destination stream r{} has no statically \
                         resolvable edge-attribute provenance; write sets of \
                         co-scheduled gTasks cannot be proven disjoint",
                        idx.0
                    ),
                )
                .with_suggestion(
                    "scatter by a LoadStream-ed attribute (or its Unique values)",
                ),
            );
        }
    }
    if threads == 0 || plan.num_tasks() == 0 {
        let mut out = Vec::new();
        push_capped(&mut out, found);
        return out;
    }

    let deal = deal_tasks(plan.num_tasks(), threads);
    // The engine's own assignment is the identity; prove it anyway so the
    // R003 invariant is checked on the path that matters, not only for
    // hypothetical external schedules.
    let slots: Vec<usize> = (0..deal.len()).collect();
    found.extend(slot_findings(&slots, threads));

    // Write-write: merge-safe programs need no row reasoning at all — any
    // overlap is accumulation by construction. Exclusive programs get a
    // linear-time row→first-writer sweep instead of pairwise
    // intersection.
    if program.requires_dst_complete {
        let mut slot_of = vec![0usize; plan.num_tasks()];
        for (slot, blocks) in deal.iter().enumerate() {
            for t in blocks.iter().cloned().flatten() {
                slot_of[t] = slot;
            }
        }
        let accesses = summarize_plan(g, plan, program);
        let mut owner: BTreeMap<u64, usize> = BTreeMap::new();
        let mut reported: BTreeSet<(usize, usize)> = BTreeSet::new();
        for a in &accesses {
            let Some(rows) = &a.write_rows else { continue };
            for &row in rows {
                match owner.entry(row) {
                    Entry::Vacant(v) => {
                        v.insert(a.task);
                    }
                    Entry::Occupied(o) => {
                        let first = *o.get();
                        if slot_of[first] != slot_of[a.task]
                            && reported.insert((first, a.task))
                        {
                            found.push(Diagnostic::error(
                                Code::ScheduleWriteOverlap,
                                Span::Task(a.task),
                                format!(
                                    "writes accumulator row {row} concurrently \
                                     with task {first} (worker slots {} and {}); \
                                     the program's per-destination \
                                     normalization assumes exclusive row \
                                     ownership, so this overlap is not an \
                                     accumulation the deterministic merge \
                                     handles",
                                    slot_of[a.task], slot_of[first]
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    let mut out = Vec::new();
    push_capped(&mut out, found);
    out
}

/// Proves a chunk-to-slot assignment gives every concurrently executing
/// chunk a private worker slot (code `R003`): slots in range, no two
/// chunks sharing one. The engine's identity assignment trivially passes;
/// this entry point exists so future schedulers (work stealing, sharded
/// multi-device placement) can be proven against the same invariant.
pub fn verify_slot_assignment(slots: &[usize], threads: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    push_capped(&mut out, slot_findings(slots, threads));
    out
}

fn slot_findings(slots: &[usize], threads: usize) -> Vec<Diagnostic> {
    let mut found = Vec::new();
    let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
    for (chunk, &slot) in slots.iter().enumerate() {
        if slot >= threads {
            found.push(Diagnostic::error(
                Code::ScheduleSlotCollision,
                Span::Chunk(chunk),
                format!(
                    "assigned to worker slot {slot}, but the engine has only \
                     {threads} slot(s)"
                ),
            ));
        }
        if let Some(&prev) = seen.get(&slot) {
            found.push(Diagnostic::error(
                Code::ScheduleSlotCollision,
                Span::Chunk(chunk),
                format!(
                    "chunks {prev} and {chunk} share worker slot {slot}; \
                     concurrent chunks would race on the slot's task \
                     workspace and partial accumulator"
                ),
            ));
        }
        seen.insert(slot, chunk);
    }
    found
}

/// Fused-vs-interpreted access agreement (code `R004`): for every fused
/// segment, re-derives the access set of the interpreted instructions it
/// replaces (named globals read, scatter destination stream) and requires
/// the lowered [`FusedOp`]'s wiring to match. Guarantees the interference
/// verdict proven on the interpreted program transfers to the fused
/// `ExecMode`s — both schedules touch exactly the same buffers.
pub fn verify_fused_access(
    program: &KernelProgram,
    fplan: &FusedPlan,
) -> Vec<Diagnostic> {
    let mut found = Vec::new();
    for seg in &fplan.segments {
        let Segment::Fused(fk) = seg else { continue };
        let (claimed_globals, claimed_dst): (BTreeSet<&str>, Reg) = match &fk.op {
            FusedOp::SegmentReduce { src, dst_idx, .. } => {
                ([src.as_str()].into_iter().collect(), *dst_idx)
            }
            FusedOp::EdgeBatchMatmul { src, w, dst_idx, .. } => {
                ([src.as_str(), w.as_str()].into_iter().collect(), *dst_idx)
            }
            FusedOp::PerTypeBatchedMatmul { h, w, dst_idx, .. } => {
                ([h.as_str(), w.as_str()].into_iter().collect(), *dst_idx)
            }
        };
        let mut derived_globals: BTreeSet<&str> = BTreeSet::new();
        let mut derived_dst = None;
        let mut out_of_range = false;
        for pc in fk.pcs.clone() {
            let Some(op) = program.ops.get(pc) else {
                out_of_range = true;
                continue;
            };
            derived_globals.extend(global_inputs(op));
            if let MicroKernel::ScatterAdd { idx, .. } = op {
                derived_dst = Some(*idx);
            }
        }
        if out_of_range {
            found.push(Diagnostic::error(
                Code::ScheduleFusedDivergence,
                Span::KernelOp(fk.pcs.start),
                format!(
                    "fused segment claims pcs {:?} past the end of the \
                     program ({} ops)",
                    fk.pcs,
                    program.ops.len()
                ),
            ));
            continue;
        }
        if derived_globals != claimed_globals {
            found.push(Diagnostic::error(
                Code::ScheduleFusedDivergence,
                Span::KernelOp(fk.pcs.start),
                format!(
                    "fused segment reads globals {claimed_globals:?} but the \
                     interpreted instructions it replaces read \
                     {derived_globals:?}; the two ExecModes would touch \
                     different buffers"
                ),
            ));
        }
        if derived_dst != Some(claimed_dst) {
            found.push(Diagnostic::error(
                Code::ScheduleFusedDivergence,
                Span::KernelOp(fk.pcs.start),
                format!(
                    "fused segment scatters by stream r{}, but the \
                     interpreted instructions it replaces scatter by {}",
                    claimed_dst.0,
                    derived_dst
                        .map(|r| format!("r{}", r.0))
                        .unwrap_or_else(|| "no store at all".to_string())
                ),
            ));
        }
    }
    let mut out = Vec::new();
    push_capped(&mut out, found);
    out
}

/// Workspace lifetime pass (code `R005`): liveness over registers backed
/// by pooled buffers. The workspace pool recycles a register's previous
/// buffer the moment the register is overwritten (`set_reg`), so the
/// compiled-program contract is single assignment. Two violations:
///
/// - **double-lease** — a register is written again while the buffer from
///   its previous write was never read: a lease was taken and recycled
///   unconsumed;
/// - **use-after-release** — a register is read after an overwrite
///   released the buffer its earlier value lived in; under buffer
///   recycling the read no longer observes the value the data flow
///   promised.
///
/// Compiled programs are SSA by construction ([`compile`] allocates a
/// fresh register per node) and verify clean; this pass keeps that
/// guarantee under future hand-built or transformed programs. Distinct
/// from the K002 aliasing warning, which flags a *single* instruction
/// reading and writing one register.
///
/// [`compile`]: wisegraph_kernels::micro::compile
pub fn verify_workspace_lifetime(program: &KernelProgram) -> Vec<Diagnostic> {
    let summary = summarize(program);
    let mut found = Vec::new();
    for r in 0..summary.writes.len() {
        let writes = &summary.writes[r];
        if writes.len() <= 1 {
            continue;
        }
        let reads = &summary.reads[r];
        for win in writes.windows(2) {
            let (w1, w2) = (win[0], win[1]);
            if !reads.iter().any(|&pc| pc > w1 && pc < w2) {
                found.push(
                    Diagnostic::error(
                        Code::WorkspaceLifetime,
                        Span::KernelOp(w2),
                        format!(
                            "double-lease: register r{r} is re-leased here \
                             while the buffer leased at op {w1} was never \
                             consumed; the pool recycles it unread"
                        ),
                    )
                    .with_suggestion(
                        "compiled programs assign each register exactly once; \
                         allocate a fresh register for the new value",
                    ),
                );
            }
        }
        for &rd in reads {
            if let Some(&release) = writes.iter().skip(1).rfind(|&&w| w < rd)
            {
                found.push(Diagnostic::error(
                    Code::WorkspaceLifetime,
                    Span::KernelOp(rd),
                    format!(
                        "use-after-release: reads register r{r}, but the \
                         overwrite at op {release} already released the \
                         buffer holding the value defined at op {} back to \
                         the pool",
                        writes[0]
                    ),
                ));
            }
        }
    }
    let mut out = Vec::new();
    push_capped(&mut out, found);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_gtask::{partition, PartitionTable};
    use wisegraph_kernels::fused::plan_fusion;
    use wisegraph_kernels::micro::compile;
    use wisegraph_models::ModelKind;

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
    fn shipped_models_are_interference_free_at_every_thread_count() {
        let g = paper_graph();
        for kind in [
            ModelKind::Gcn,
            ModelKind::Rgcn,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            let program = compile(&kind.layer_dfg(4, 3), &g).unwrap();
            let table = if program.requires_dst_complete {
                PartitionTable::vertex_centric()
            } else {
                PartitionTable::edge_batch(3)
            };
            let plan = partition(&g, &table);
            for threads in [1, 2, 4, 8] {
                let ds = verify_interference(&g, &plan, &program, threads);
                assert!(ds.is_empty(), "{} x{threads}: {ds:?}", kind.name());
                assert!(verify_workspace_lifetime(&program).is_empty());
                assert!(
                    verify_fused_access(&program, &plan_fusion(&program)).is_empty()
                );
            }
        }
    }

    #[test]
    fn task_access_resolves_scatter_rows_to_dst_ids() {
        let g = paper_graph();
        let program = compile(&ModelKind::Gcn.layer_dfg(4, 3), &g).unwrap();
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let accesses = summarize_plan(&g, &plan, &program);
        assert_eq!(accesses.len(), plan.num_tasks());
        for (a, task) in accesses.iter().zip(&plan.tasks) {
            let rows = a.write_rows.as_ref().expect("GCN scatter resolves");
            let expected = task.attr_rows(&g, wisegraph_graph::AttrKind::DstId);
            assert_eq!(*rows, expected);
        }
        // Vertex-centric tasks write pairwise-disjoint rows.
        let mut all = BTreeSet::new();
        for a in &accesses {
            for &r in a.write_rows.as_ref().unwrap() {
                assert!(all.insert(r), "row {r} written by two tasks");
            }
        }
    }

    #[test]
    fn slot_assignment_collisions_are_r003() {
        let clean = verify_slot_assignment(&[0, 1, 2], 3);
        assert!(clean.is_empty(), "{clean:?}");
        let shared = verify_slot_assignment(&[0, 0], 2);
        assert!(shared.iter().any(|d| d.code == Code::ScheduleSlotCollision));
        let out_of_range = verify_slot_assignment(&[5], 2);
        assert!(
            out_of_range.iter().any(|d| d.code == Code::ScheduleSlotCollision),
            "{out_of_range:?}"
        );
    }
}
