//! Fused-access agreement and workspace lifetime (codes `R004`–`R005`).
//!
//! Co-scheduled gTasks cannot step on each other: every worker scatters
//! into a private accumulator and the partials reduce in ascending slot
//! order, so overlapping writes are accumulation. No task normalizes over
//! rows another task also writes: a per-destination softmax runs once per
//! call, before the tasks, over all of the plan's edges. What is left to
//! prove about a schedule is per program:
//!
//! - [`verify_fused_access`] re-derives each fused segment's access set
//!   from the interpreted instructions it replaces and requires them to
//!   agree (`R004`) — interpreted and fused `ExecMode`s must touch the
//!   same buffers;
//! - [`verify_workspace_lifetime`] enforces the single-assignment
//!   discipline backing the workspace pool's recycle-on-overwrite
//!   semantics: a re-leased register whose previous buffer was never
//!   consumed, or a read across a release point, is `R005`.

use crate::{push_capped, Code, Diagnostic, Span};
use std::collections::BTreeSet;
use wisegraph_kernels::fused::{FusedOp, FusedPlan, Segment};
use wisegraph_kernels::micro::{global_inputs, summarize, KernelProgram, MicroKernel, Reg};

/// Fused-vs-interpreted access agreement (code `R004`): for every fused
/// segment, re-derives the access set of the interpreted instructions it
/// replaces (named globals read, scatter destination stream) and requires
/// the lowered [`FusedOp`]'s wiring to match: both `ExecMode`s touch
/// exactly the same buffers.
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
    let summary = summarize(&program.ops);
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
    use wisegraph_graph::Graph;
    use wisegraph_kernels::fused::plan_fusion;
    use wisegraph_kernels::micro::compile;
    use wisegraph_models::ModelKind;

    #[test]
    fn shipped_models_verify_clean() {
        let g = Graph::new(
            5,
            2,
            vec![0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0],
            vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
            vec![0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0],
        );
        for kind in [
            ModelKind::Gcn,
            ModelKind::Rgcn,
            ModelKind::Gat,
            ModelKind::Sage,
        ] {
            let program = compile(&kind.layer_dfg(4, 3), &g).unwrap();
            assert!(verify_workspace_lifetime(&program).is_empty(), "{}", kind.name());
            assert!(
                verify_fused_access(&program, &plan_fusion(&program)).is_empty(),
                "{}",
                kind.name()
            );
        }
    }
}
