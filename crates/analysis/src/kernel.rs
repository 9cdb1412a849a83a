//! Kernel and engine verification (codes `K001`–`K003`, `K005`–`K006`).
//!
//! A compiled [`KernelProgram`] is a straight-line sequence of
//! micro-kernels over a virtual register file. Legality is simple enough
//! to check exactly:
//!
//! * every register read must be preceded by a write, ids must be in
//!   range, and the task's work must reach the global accumulator through
//!   a `ScatterAdd` (`K001`);
//! * no micro-kernel may alias an output register with one of its inputs —
//!   the interpreter checks registers out of a recycling pool, so in-place
//!   writes would corrupt the operand (`K002`);
//! * the engine's task-to-slot dealing must put every task in exactly one
//!   block of one slot, each slot's blocks ascending (`K003`);
//! * a fused plan must cover the program's instructions exactly once, each
//!   fused segment must replace exactly the chain it claims, and no
//!   replaced intermediate register may be read outside its segment
//!   (`K005`);
//! * every fusion pattern must register an interpreter-parity test in
//!   `tests/fused_parity.rs` (`K006`).

use crate::{push_capped, Code, Diagnostic, Span};
use std::ops::Range;
use std::path::Path;
use wisegraph_kernels::engine::deal_tasks;
use wisegraph_kernels::fused::{check_replaces, FusedPattern, FusedPlan, Segment};
use wisegraph_kernels::micro::{KernelProgram, MicroKernel, Reg};

/// The registers a micro-kernel reads and the registers it writes.
/// Delegates to the executor's own [`wisegraph_kernels::micro::accesses`]
/// so the verifier and the fusion matcher can never disagree about
/// register data-flow.
pub fn accesses(op: &MicroKernel) -> (Vec<Reg>, Vec<Reg>) {
    wisegraph_kernels::micro::accesses(op)
}

/// Verifies the register discipline of a compiled program (`K001`/`K002`).
pub fn verify_program(prog: &KernelProgram) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut defined = vec![false; prog.num_regs];
    let mut found = Vec::new();
    let mut stores = 0usize;
    for (pc, op) in prog.ops.iter().enumerate() {
        let (reads, writes) = accesses(op);
        for &Reg(r) in &reads {
            if r >= prog.num_regs {
                found.push(Diagnostic::error(
                    Code::KernelUseBeforeDef,
                    Span::KernelOp(pc),
                    format!(
                        "reads register r{r}, out of range (the program declares {} registers)",
                        prog.num_regs
                    ),
                ));
            } else if !defined[r] {
                found.push(
                    Diagnostic::error(
                        Code::KernelUseBeforeDef,
                        Span::KernelOp(pc),
                        format!("reads register r{r} before any micro-kernel writes it"),
                    )
                    .with_suggestion("loads must precede computes, computes precede stores"),
                );
            }
        }
        for (wi, &Reg(w)) in writes.iter().enumerate() {
            if reads.contains(&Reg(w)) {
                found.push(
                    Diagnostic::error(
                        Code::KernelAliasing,
                        Span::KernelOp(pc),
                        format!("output register r{w} aliases an input of the same micro-kernel"),
                    )
                    .with_suggestion(
                        "registers are checked out of a recycling pool; in-place writes \
                         corrupt the operand",
                    ),
                );
            }
            if writes[..wi].contains(&Reg(w)) {
                found.push(Diagnostic::error(
                    Code::KernelAliasing,
                    Span::KernelOp(pc),
                    format!("register r{w} is written twice by the same micro-kernel"),
                ));
            }
            if w >= prog.num_regs {
                found.push(Diagnostic::error(
                    Code::KernelUseBeforeDef,
                    Span::KernelOp(pc),
                    format!(
                        "writes register r{w}, out of range (the program declares {} registers)",
                        prog.num_regs
                    ),
                ));
            } else {
                if defined[w] {
                    found.push(Diagnostic::warning(
                        Code::KernelAliasing,
                        Span::KernelOp(pc),
                        format!(
                            "register r{w} is overwritten; the earlier value is dead \
                             (harmless, but wastes a pool checkout)"
                        ),
                    ));
                }
                defined[w] = true;
            }
        }
        if matches!(op, MicroKernel::ScatterAdd { .. }) {
            stores += 1;
        }
    }
    push_capped(&mut out, found);
    if stores == 0 {
        out.push(
            Diagnostic::error(
                Code::KernelUseBeforeDef,
                Span::Global,
                "the program never scatter-adds into the global accumulator; \
                 every task's work would be discarded",
            )
            .with_suggestion("a compiled program must end in a ScatterAdd store"),
        );
    }
    out
}

/// Verifies an explicit task-to-slot dealing: `deal[s]` lists the blocks
/// of task indices worker slot `s` runs, in the order it runs them. A
/// legal dealing puts every task of `0..num_tasks` in exactly one block of
/// exactly one slot, keeps each slot's blocks ascending, and uses at most
/// `threads` slots (`K003`).
pub fn verify_chunk_ranges(
    deal: &[Vec<Range<usize>>],
    num_tasks: usize,
    threads: usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if deal.len() > threads {
        out.push(Diagnostic::error(
            Code::KernelChunkMapping,
            Span::Global,
            format!(
                "{} slots dealt for {threads} worker slots; reduction order would \
                 depend on slot reuse",
                deal.len()
            ),
        ));
    }
    let mut owned = vec![false; num_tasks];
    for (slot, blocks) in deal.iter().enumerate() {
        if blocks.iter().all(|b| b.is_empty()) {
            out.push(Diagnostic::warning(
                Code::KernelChunkMapping,
                Span::Chunk(slot),
                "chunk is empty; its worker slot does no work",
            ));
        }
        let mut floor = 0usize;
        for b in blocks {
            if b.start < floor {
                out.push(Diagnostic::error(
                    Code::KernelChunkMapping,
                    Span::Chunk(slot),
                    format!(
                        "block {b:?} starts below task {floor}, where the slot's \
                         previous block ended; a slot must run its blocks in \
                         ascending order"
                    ),
                ));
            }
            floor = floor.max(b.end);
            if b.end > num_tasks {
                out.push(Diagnostic::error(
                    Code::KernelChunkMapping,
                    Span::Chunk(slot),
                    format!("block {b:?} reaches past the plan's {num_tasks} tasks"),
                ));
            }
            let lo = b.start.min(num_tasks);
            let seen = &mut owned[lo..b.end.clamp(lo, num_tasks)];
            if let Some(k) = seen.iter().position(|&o| o) {
                out.push(Diagnostic::error(
                    Code::KernelChunkMapping,
                    Span::Chunk(slot),
                    format!(
                        "block {b:?} holds task {}, which another block already owns; \
                         overlapping chunks double-count tasks",
                        b.start + k
                    ),
                ));
            }
            seen.fill(true);
        }
    }
    let mut t = 0;
    while t < num_tasks {
        if owned[t] {
            t += 1;
            continue;
        }
        let end = (t..num_tasks).find(|&u| owned[u]).unwrap_or(num_tasks);
        out.push(Diagnostic::error(
            Code::KernelChunkMapping,
            Span::Global,
            format!("tasks {t}..{end} are assigned to no chunk"),
        ));
        t = end;
    }
    out
}

/// Verifies the engine's own deterministic task dealing for a task count
/// and thread count (`K003`). A finding here is an engine bug.
pub fn verify_chunk_mapping(num_tasks: usize, threads: usize) -> Vec<Diagnostic> {
    if num_tasks == 0 || threads == 0 {
        return Vec::new();
    }
    verify_chunk_ranges(&deal_tasks(num_tasks, threads), num_tasks, threads)
}

/// Verifies a fused execution plan against its program (`K005`):
///
/// 1. **coverage** — the plan's segments, in order, execute program
///    counters `0..ops.len()` exactly once, ascending;
/// 2. **replacement** — each fused segment structurally re-matches at its
///    start pc (same pattern, same range, same register/global wiring);
/// 3. **confinement** — no register written inside a fused segment is read
///    by any instruction outside it (skipping its materialization must be
///    unobservable).
pub fn verify_fusion(prog: &KernelProgram, fplan: &FusedPlan) -> Vec<Diagnostic> {
    let mut found = Vec::new();
    let covered = fplan.covered_pcs();
    let expect: Vec<usize> = (0..prog.ops.len()).collect();
    if covered != expect {
        found.push(
            Diagnostic::error(
                Code::KernelFusionCoverage,
                Span::Global,
                format!(
                    "fused plan executes pcs {covered:?} but the program has \
                     instructions 0..{}; fused segments must cover exactly the \
                     instructions they replace",
                    prog.ops.len()
                ),
            )
            .with_suggestion("rebuild the plan with plan_fusion on this program"),
        );
    }
    for seg in &fplan.segments {
        let Segment::Fused(fk) = seg else { continue };
        if let Err(e) = check_replaces(prog, fk) {
            found.push(Diagnostic::error(
                Code::KernelFusionCoverage,
                Span::KernelOp(fk.pcs.start),
                e,
            ));
        }
        // Independent confinement check (not derived from the matcher):
        // registers written by replaced instructions must never be read
        // outside the segment.
        for pc in fk.pcs.clone().filter(|&pc| pc < prog.ops.len()) {
            let (_, writes) = accesses(&prog.ops[pc]);
            for w in writes {
                for (other_pc, other) in prog.ops.iter().enumerate() {
                    if fk.pcs.contains(&other_pc) {
                        continue;
                    }
                    let (reads, _) = accesses(other);
                    if reads.contains(&w) {
                        found.push(Diagnostic::error(
                            Code::KernelFusionCoverage,
                            Span::KernelOp(other_pc),
                            format!(
                                "reads register r{} whose materialization the fused \
                                 segment at pcs {:?} skips",
                                w.0, fk.pcs
                            ),
                        ));
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    push_capped(&mut out, found);
    out
}

/// Verifies that every fusion pattern registers an interpreter-parity test
/// (`K006`): `tests/fused_parity.rs` under `root` must define a
/// `fn <pattern>.parity_test()` for each [`FusedPattern::ALL`] entry. The
/// same textual-scanning idiom as [`crate::obscheck`] — the check runs
/// against the source tree, so adding a pattern without wiring its
/// differential test fails `wisegraph-lint` before anything executes.
pub fn verify_fused_parity_registry(root: &Path) -> Vec<Diagnostic> {
    let harness = root.join("tests/fused_parity.rs");
    let src = match std::fs::read_to_string(&harness) {
        Ok(s) => s,
        Err(e) => {
            return vec![Diagnostic::error(
                Code::KernelFusionUntested,
                Span::Global,
                format!(
                    "cannot read the fused parity harness {}: {e}",
                    harness.display()
                ),
            )
            .with_suggestion(
                "tests/fused_parity.rs must exist and register one parity test \
                 per fusion pattern",
            )]
        }
    };
    let mut out = Vec::new();
    for p in FusedPattern::ALL {
        let needle = format!("fn {}(", p.parity_test());
        if !src.contains(&needle) {
            out.push(
                Diagnostic::error(
                    Code::KernelFusionUntested,
                    Span::Global,
                    format!(
                        "fusion pattern `{}` has no registered interpreter-parity \
                         test (expected `fn {}` in tests/fused_parity.rs)",
                        p.name(),
                        p.parity_test()
                    ),
                )
                .with_suggestion(
                    "every pattern the matcher can emit must be pinned bit-identical \
                     to the interpreter by a dedicated differential test",
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_dfg::NodeId;
    use wisegraph_graph::{AttrKind, Graph};
    use wisegraph_kernels::micro::compile;
    use wisegraph_models::ModelKind;

    fn program(ops: Vec<MicroKernel>, num_regs: usize) -> KernelProgram {
        KernelProgram {
            ops,
            edge_ops: vec![],
            num_regs,
            out_rows: 4,
            out_width: 2,
            reduce_node: NodeId(0),
            prologue: vec![],
        }
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

    #[test]
    fn compiled_models_are_clean() {
        let g = paper_graph();
        for model in [ModelKind::Gcn, ModelKind::Rgcn, ModelKind::Gat, ModelKind::Sage] {
            let dfg = model.layer_dfg(8, 4);
            let prog = compile(&dfg, &g).expect("model compiles");
            let diags = verify_program(&prog);
            assert!(diags.is_empty(), "{model:?}: {diags:#?}");
        }
    }

    #[test]
    fn store_before_load_is_k001() {
        let prog = program(
            vec![
                MicroKernel::ScatterAdd {
                    data: Reg(0),
                    idx: Reg(1),
                },
                MicroKernel::LoadStream {
                    attr: AttrKind::DstId,
                    out: Reg(1),
                },
            ],
            2,
        );
        let diags = verify_program(&prog);
        assert!(diags.iter().any(|d| d.code == Code::KernelUseBeforeDef
            && d.message.contains("before any micro-kernel writes")));
    }

    #[test]
    fn out_of_range_register_is_k001() {
        let prog = program(
            vec![MicroKernel::LoadStream {
                attr: AttrKind::SrcId,
                out: Reg(9),
            }],
            2,
        );
        let diags = verify_program(&prog);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::KernelUseBeforeDef && d.message.contains("out of range")));
    }

    #[test]
    fn missing_store_is_k001() {
        let prog = program(
            vec![MicroKernel::LoadStream {
                attr: AttrKind::SrcId,
                out: Reg(0),
            }],
            1,
        );
        let diags = verify_program(&prog);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::KernelUseBeforeDef && d.message.contains("scatter-adds")));
    }

    #[test]
    fn in_place_write_is_k002() {
        let prog = program(
            vec![
                MicroKernel::LoadStream {
                    attr: AttrKind::SrcId,
                    out: Reg(0),
                },
                MicroKernel::Elementwise {
                    op: wisegraph_kernels::micro::EwOp::Relu,
                    a: Reg(0),
                    b: None,
                    out: Reg(0),
                },
                MicroKernel::ScatterAdd {
                    data: Reg(0),
                    idx: Reg(0),
                },
            ],
            1,
        );
        let diags = verify_program(&prog);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::KernelAliasing && d.message.contains("aliases")));
    }

    #[test]
    fn unique_into_one_register_is_k002() {
        let prog = program(
            vec![
                MicroKernel::LoadStream {
                    attr: AttrKind::SrcId,
                    out: Reg(0),
                },
                MicroKernel::Unique {
                    stream: Reg(0),
                    values: Reg(1),
                    map: Reg(1),
                },
                MicroKernel::ScatterAdd {
                    data: Reg(1),
                    idx: Reg(1),
                },
            ],
            2,
        );
        let diags = verify_program(&prog);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::KernelAliasing && d.message.contains("written twice")));
    }

    #[test]
    fn engine_mapping_is_clean_across_shapes() {
        for (n, t) in [(0, 3), (1, 1), (5, 2), (7, 3), (8, 4), (1000, 16)] {
            let diags = verify_chunk_mapping(n, t);
            assert!(diags.is_empty(), "tasks={n} threads={t}: {diags:#?}");
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a slot with one block
    fn engine_mapping_edge_cases_stay_clean() {
        // More workers than tasks: every task gets a private single-task
        // chunk; surplus slots stay idle.
        for (n, t) in [(3, 10), (1, 8), (2, 1000)] {
            let diags = verify_chunk_mapping(n, t);
            assert!(diags.is_empty(), "tasks={n} threads={t}: {diags:#?}");
            let deal = deal_tasks(n, t);
            assert_eq!(deal.len(), n, "one slot per task when threads >= tasks");
        }
        // Zero tasks and zero threads: nothing runs, nothing to report.
        assert!(verify_chunk_mapping(0, 4).is_empty());
        assert!(verify_chunk_mapping(0, 0).is_empty());
        assert!(verify_chunk_mapping(5, 0).is_empty(), "engine rejects 0 threads itself");
        // Single task through any worker count maps to chunk 0 alone.
        for t in [1usize, 2, 7] {
            assert_eq!(deal_tasks(1, t), vec![vec![0..1]]);
            assert!(verify_chunk_mapping(1, t).is_empty());
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a slot with one block
    fn gap_and_overlap_are_k003() {
        let gap = verify_chunk_ranges(&[vec![0..2], vec![3..6]], 6, 2);
        assert!(gap.iter().any(|d| d.code == Code::KernelChunkMapping
            && d.message.contains("assigned to no chunk")));
        let overlap = verify_chunk_ranges(&[vec![0..3], vec![2..6]], 6, 2);
        assert!(overlap.iter().any(|d| d.code == Code::KernelChunkMapping
            && d.message.contains("overlapping")));
        let too_many = verify_chunk_ranges(&[vec![0..2], vec![2..4], vec![4..6]], 6, 2);
        assert!(too_many.iter().any(|d| d.code == Code::KernelChunkMapping
            && d.message.contains("worker slots")));
        let short = verify_chunk_ranges(&[vec![0..2]], 6, 2);
        assert!(short.iter().any(|d| d.code == Code::KernelChunkMapping
            && d.message.contains("2..6")));
        // Block-cyclic shapes: a slot's blocks must ascend, and a task two
        // slots both hold is double-counted however the blocks interleave.
        let cyclic = verify_chunk_ranges(&[vec![0..2, 4..6], vec![2..4]], 6, 2);
        assert!(cyclic.is_empty(), "{cyclic:#?}");
        let descending = verify_chunk_ranges(&[vec![4..6, 0..2], vec![2..4]], 6, 2);
        assert!(descending.iter().any(|d| d.code == Code::KernelChunkMapping
            && d.message.contains("ascending order")));
        let twice = verify_chunk_ranges(&[vec![0..2, 4..6], vec![2..5]], 6, 2);
        assert!(twice.iter().any(|d| d.code == Code::KernelChunkMapping
            && d.message.contains("overlapping")));
    }

    #[test]
    fn fusion_plans_of_compiled_models_are_clean() {
        let g = paper_graph();
        for model in [ModelKind::Gcn, ModelKind::Rgcn, ModelKind::Gat, ModelKind::Sage] {
            let dfg = model.layer_dfg(8, 4);
            let prog = compile(&dfg, &g).expect("model compiles");
            let fplan = wisegraph_kernels::fused::plan_fusion(&prog);
            let diags = verify_fusion(&prog, &fplan);
            assert!(diags.is_empty(), "{model:?}: {diags:#?}");
        }
    }

    #[test]
    fn dropped_segment_is_k005() {
        let g = paper_graph();
        let prog = compile(&ModelKind::Gcn.layer_dfg(8, 4), &g).unwrap();
        let mut fplan = wisegraph_kernels::fused::plan_fusion(&prog);
        assert!(fplan.num_fused() > 0);
        fplan.segments.pop();
        let diags = verify_fusion(&prog, &fplan);
        assert!(diags.iter().any(|d| d.code == Code::KernelFusionCoverage
            && d.message.contains("cover exactly")));
    }

    #[test]
    fn tampered_segment_is_k005() {
        let g = paper_graph();
        let prog = compile(&ModelKind::Rgcn.layer_dfg(8, 4), &g).unwrap();
        let mut fplan = wisegraph_kernels::fused::plan_fusion(&prog);
        // Shift the fused segment one instruction left: it now claims to
        // replace a chain that is not there.
        for seg in &mut fplan.segments {
            if let Segment::Fused(fk) = seg {
                fk.pcs = fk.pcs.start - 1..fk.pcs.end - 1;
            }
        }
        let diags = verify_fusion(&prog, &fplan);
        assert!(diags.iter().any(|d| d.code == Code::KernelFusionCoverage));
    }

    #[test]
    fn parity_registry_present_in_repo() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let diags = verify_fused_parity_registry(&root);
        assert!(diags.is_empty(), "{diags:#?}");
    }

    #[test]
    fn missing_parity_harness_is_k006() {
        // A directory with no tests/fused_parity.rs at all.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let diags = verify_fused_parity_registry(&root);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::KernelFusionUntested));
    }
}
