//! Fused micro-kernel codegen: pattern-matched load→compute→store chains
//! lowered to specialized, cache-blocked f32 loops.
//!
//! The interpreter in [`crate::micro`] executes one instruction at a time,
//! materializing every intermediate register in pool buffers. For the
//! five patterns that dominate GNN layers, that materialization is pure
//! overhead — each edge's gathered row is consumed exactly once by the
//! next instruction. Below, `Gather(g)` is a `Gather` whose source is a
//! global; a `Gather2D` reads a register or a global:
//!
//! * **segment-reduce** (`Gather(g)` → `ScatterAdd`): GCN/SAGE
//!   aggregation, `out[dst[i]] += h[src[i]]`.
//! * **per-type batched matmul** (`Gather(g)` of rows → `Gather(g)` of
//!   weight slices → `PerRowVecMat` → `ScatterAdd`): RGCN's
//!   relation-specific transform, `out[dst[i]] += h[src[i]] @ W[ty[i]]`.
//!
//!   The product runs the register-blocked per-row kernel
//!   ([`ops::per_row_matmul_add_into`]) straight from the source rows and
//!   weight slices to the destination rows, edge by edge in task order: no
//!   gathered rows, no product buffer, and no grouping of edges by type.
//! * **weighted segment-reduce** (`Gather(g)` of an edge value →
//!   `Squeeze` → `Gather(g)` → `ScaleRows` → `ScatterAdd`): GAT's
//!   attention-weighted aggregation, `out[dst[i]] += h[src[i]] * α[eid[i]]`.
//! * **pairwise scatter** (`Gather2D` → `ScatterAdd`): RGCN's Fig. 9
//!   forms, `out[dst[i]] += P[m1[i], m2[i]]`, with `P` a task register
//!   (extract+swap) or a prologue table.
//! * **edge score** (`Gather(g)`, `Gather(g)` → `Add` → `LeakyRelu` →
//!   `Squeeze`, one column): GAT's per-call score chain,
//!   `s[i] = leaky_relu(a[ai[i]] + b[bi[i]])`.
//!
//! [`plan_fusion`] scans both scopes of a compiled [`KernelProgram`] — the
//! per-task instructions and the per-call edge pass — for these chains and
//! replaces each with one [`FusedKernel`]; every other instruction stays an
//! interpreter step, so arbitrary programs fall back
//! instruction-by-instruction and a program with no matching chain gets
//! [`FusedPlan::interpreted`]. Either way the result is a [`FusedPlan`],
//! whose segments the one segment loop walks, per task
//! ([`crate::micro::run_task`]) and per call (the edge pass).
//!
//! # Bit-identity contract
//!
//! A plan with fused segments must produce **exactly** the bytes of the
//! interpreted plan at every thread count, and report identical Work
//! counters. The lowering therefore only applies transforms that provably
//! preserve the per-element floating-point sequence:
//!
//! * intermediate buffers are skipped, never reordered: a gather-then-add
//!   is the same additions as an add-from-source; an edge's product summed
//!   from `+0.0` in registers and then added to its destination row is the
//!   same sequence as the interpreter's product-into-a-zeroed-buffer-then-
//!   scatter;
//! * loops are unrolled across **independent output columns** (separate
//!   accumulators, no re-association): [`LANES`]-wide chunks for row adds,
//!   register tiles for the products — for every output element,
//!   contributions still arrive in ascending `k` order within ascending
//!   edge order;
//! * the interpreter's `x == 0.0` skip in `matmul_into`/`PerRowVecMat` is
//!   kept exactly (skipping `acc += 0.0 * w` does change bits for inf/NaN
//!   weights, so the skip itself is part of the contract);
//! * a product the interpreter rounds before adding (`ScaleRows` then
//!   `ScatterAdd`) is rounded before adding here too: `o += x * a`, with
//!   no fused multiply-add.
//!
//! The contract is pinned by `tests/fused_parity.rs` (differential harness
//! over every model and its compiling rewrites × table × thread count,
//! with one parity test per pattern, mapped by an exhaustive `match`) and
//! property tests with shrinking. A segment replaces exactly the instructions the matcher
//! found at its position.

use std::ops::Range;
use wisegraph_tensor::{ops, Tensor};

use crate::micro::{
    reg_stream, set_reg, summarize, AccessSummary, EwOp, Globals, KernelProgram,
    MicroKernel, Reg, RegValue, Src, TaskWorkspace,
};
use wisegraph_dfg::op::LEAKY_SLOPE;

/// Unroll width of the fused inner loops. Chosen so the autovectorizer can
/// map one unrolled group to a 128-bit SIMD lane; correctness never
/// depends on it (remainders run scalar).
pub const LANES: usize = 4;

/// The recognized fusion patterns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FusedPattern {
    /// `Gather(g)` → `ScatterAdd`.
    SegmentReduce,
    /// `Gather(g)` → `Gather(g)` → `PerRowVecMat` → `ScatterAdd`.
    PerTypeBatchedMatmul,
    /// `Gather(g)` (edge value) → `Squeeze` → `Gather(g)` → `ScaleRows`
    /// → `ScatterAdd`.
    WeightedSegmentReduce,
    /// `Gather2D` → `ScatterAdd`.
    PairwiseScatter,
    /// `Gather(g)`, `Gather(g)` → `Add` → `LeakyRelu` → `Squeeze`.
    EdgeScore,
}

impl FusedPattern {
    /// Every pattern the matcher can emit.
    pub const ALL: [FusedPattern; 5] = [
        FusedPattern::SegmentReduce,
        FusedPattern::PerTypeBatchedMatmul,
        FusedPattern::WeightedSegmentReduce,
        FusedPattern::PairwiseScatter,
        FusedPattern::EdgeScore,
    ];

    /// Stable snake-case name (diagnostics, bench output).
    pub fn name(self) -> &'static str {
        match self {
            FusedPattern::SegmentReduce => "segment_reduce",
            FusedPattern::PerTypeBatchedMatmul => "per_type_batched_matmul",
            FusedPattern::WeightedSegmentReduce => "weighted_segment_reduce",
            FusedPattern::PairwiseScatter => "pairwise_scatter",
            FusedPattern::EdgeScore => "edge_score",
        }
    }

    /// Number of interpreter instructions one fused kernel replaces.
    pub fn window(self) -> usize {
        match self {
            FusedPattern::SegmentReduce | FusedPattern::PairwiseScatter => 2,
            FusedPattern::PerTypeBatchedMatmul => 4,
            FusedPattern::WeightedSegmentReduce | FusedPattern::EdgeScore => 5,
        }
    }
}

/// The wiring of one fused kernel: global tensor names plus the stream
/// registers (produced by interpreted `LoadStream` instructions) it reads.
#[derive(Clone, Debug, PartialEq)]
pub enum FusedOp {
    /// `out[dst[i]] += src[src_idx[i]]`.
    SegmentReduce {
        /// Gathered global tensor name.
        src: String,
        /// Source-row stream register.
        src_idx: Reg,
        /// Destination-row stream register.
        dst_idx: Reg,
    },
    /// `out[dst[i]] += h[src_idx[i]] @ w[ty_idx[i]]`.
    PerTypeBatchedMatmul {
        /// Gathered global tensor name.
        h: String,
        /// Source-row stream register.
        src_idx: Reg,
        /// Global `[t, f, f']` weight name.
        w: String,
        /// Type stream register selecting the weight slice.
        ty_idx: Reg,
        /// Destination-row stream register.
        dst_idx: Reg,
    },
    /// `out[dst[i]] += src[src_idx[i]] * alpha[eid[i]]`.
    WeightedSegmentReduce {
        /// Global `[|E|, 1]` edge value holding the weights.
        alpha: String,
        /// Edge-id stream register.
        eid: Reg,
        /// Gathered global tensor name.
        src: String,
        /// Source-row stream register.
        src_idx: Reg,
        /// Destination-row stream register.
        dst_idx: Reg,
    },
    /// `out[dst[i]] += table[idx1[i], idx2[i]]`.
    PairwiseScatter {
        /// Rank-3 table (`[u, t, f']`, a pairwise product): a register, or
        /// a global such as a prologue's.
        table: Src,
        /// First-axis index stream.
        idx1: Reg,
        /// Second-axis index stream.
        idx2: Reg,
        /// Destination-row stream register.
        dst_idx: Reg,
    },
    /// `out[i] = leaky_relu(a[a_idx[i]] + b[b_idx[i]])` for one-column
    /// `a`, `b`: a rank-1 register of per-edge scores.
    EdgeScore {
        /// First gathered global.
        a: String,
        /// Its row stream.
        a_idx: Reg,
        /// Second gathered global.
        b: String,
        /// Its row stream.
        b_idx: Reg,
        /// The score register (what `Squeeze` wrote).
        out: Reg,
    },
}

/// One fused kernel: which pattern, which program counters it replaces,
/// and its register/global wiring.
#[derive(Clone, Debug, PartialEq)]
pub struct FusedKernel {
    /// The matched pattern.
    pub pattern: FusedPattern,
    /// The replaced instruction range in `KernelProgram::ops`.
    pub pcs: Range<usize>,
    /// The lowered operation.
    pub op: FusedOp,
}

/// One execution step of a fused program.
#[derive(Clone, Debug, PartialEq)]
pub enum Segment {
    /// A fused kernel replacing `pcs.len()` interpreter instructions.
    Fused(FusedKernel),
    /// A single instruction executed by the shared interpreter step.
    Interp(usize),
}

/// A fused execution plan: each scope of the program (the per-call edge
/// pass and the per-task program) partitioned into fused kernels and
/// interpreter steps, in original program order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FusedPlan {
    /// Steps covering the per-task `KernelProgram::ops` exactly once,
    /// ascending.
    pub segments: Vec<Segment>,
    /// Steps covering the per-call `KernelProgram::edge_ops` exactly once,
    /// ascending.
    pub edge_segments: Vec<Segment>,
}

impl FusedPlan {
    /// The plan that fuses nothing: every instruction of `program` its own
    /// interpreter step. Running it *is* the interpreter.
    pub fn interpreted(program: &KernelProgram) -> Self {
        Self {
            segments: (0..program.ops.len()).map(Segment::Interp).collect(),
            edge_segments: (0..program.edge_ops.len()).map(Segment::Interp).collect(),
        }
    }

    /// Number of fused segments in both scopes.
    pub fn num_fused(&self) -> usize {
        self.patterns().len()
    }

    /// Per-task interpreter instructions replaced by fused segments: what
    /// each task's run saves.
    pub fn replaced_ops(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                Segment::Fused(fk) => fk.pcs.len(),
                Segment::Interp(_) => 0,
            })
            .sum()
    }

    /// The patterns used, in execution order (edge pass first, repeats
    /// preserved).
    pub fn patterns(&self) -> Vec<FusedPattern> {
        self.edge_segments
            .iter()
            .chain(&self.segments)
            .filter_map(|s| match s {
                Segment::Fused(fk) => Some(fk.pattern),
                Segment::Interp(_) => None,
            })
            .collect()
    }

    /// Every per-task program counter the plan executes, in execution
    /// order: exactly `0..ops.len()` for a plan [`plan_fusion`] made.
    pub fn covered_pcs(&self) -> Vec<usize> {
        covered(&self.segments)
    }
}

/// The program counters `segments` execute, in execution order.
fn covered(segments: &[Segment]) -> Vec<usize> {
    let mut pcs = Vec::new();
    for s in segments {
        match s {
            Segment::Fused(fk) => pcs.extend(fk.pcs.clone()),
            Segment::Interp(pc) => pcs.push(*pc),
        }
    }
    pcs
}

/// Tries to match a fusion pattern starting at `pc` of one scope's `ops`,
/// longest window first. Confinement of the intermediate registers is
/// checked against the shared [`AccessSummary`], the same derivation the
/// cluster's placement rules read.
fn match_at(ops: &[MicroKernel], u: &AccessSummary, pc: usize) -> Option<FusedKernel> {
    let confined = |regs: &[Reg], len: usize| regs.iter().all(|r| u.confined(*r, pc, pc + len));
    if pc + 5 <= ops.len() {
        if let [MicroKernel::Gather { src: Src::Global(alpha), idx: eid, out: g1 }, MicroKernel::Squeeze { x: sx, out: sq }, MicroKernel::Gather { src: Src::Global(src), idx: si, out: g2 }, MicroKernel::ScaleRows { x, s: sc, out: m }, MicroKernel::ScatterAdd { data, idx: di }] =
            &ops[pc..pc + 5]
        {
            if sx == g1 && x == g2 && sc == sq && data == m && confined(&[*g1, *sq, *g2, *m], 5) {
                return Some(FusedKernel {
                    pattern: FusedPattern::WeightedSegmentReduce,
                    pcs: pc..pc + 5,
                    op: FusedOp::WeightedSegmentReduce {
                        alpha: alpha.clone(),
                        eid: *eid,
                        src: src.clone(),
                        src_idx: *si,
                        dst_idx: *di,
                    },
                });
            }
        }
        if let [MicroKernel::Gather { src: Src::Global(a), idx: ai, out: ga }, MicroKernel::Gather { src: Src::Global(b), idx: bi, out: gb }, MicroKernel::Elementwise { op: EwOp::Add, a: x, b: Some(y), out: sum }, MicroKernel::Elementwise { op: EwOp::LeakyRelu, a: z, b: None, out: act }, MicroKernel::Squeeze { x: sx, out }] =
            &ops[pc..pc + 5]
        {
            if x == ga && y == gb && z == sum && sx == act && confined(&[*ga, *gb, *sum, *act], 5) {
                return Some(FusedKernel {
                    pattern: FusedPattern::EdgeScore,
                    pcs: pc..pc + 5,
                    op: FusedOp::EdgeScore {
                        a: a.clone(),
                        a_idx: *ai,
                        b: b.clone(),
                        b_idx: *bi,
                        out: *out,
                    },
                });
            }
        }
    }
    if pc + 4 <= ops.len() {
        if let [MicroKernel::Gather { src: Src::Global(h), idx: si, out: g1 }, MicroKernel::Gather { src: Src::Global(w), idx: ti, out: g2 }, MicroKernel::PerRowVecMat { x, w: wr, out: m }, MicroKernel::ScatterAdd { data, idx: di }] =
            &ops[pc..pc + 4]
        {
            if x == g1 && wr == g2 && data == m && confined(&[*g1, *g2, *m], 4) {
                return Some(FusedKernel {
                    pattern: FusedPattern::PerTypeBatchedMatmul,
                    pcs: pc..pc + 4,
                    op: FusedOp::PerTypeBatchedMatmul {
                        h: h.clone(),
                        src_idx: *si,
                        w: w.clone(),
                        ty_idx: *ti,
                        dst_idx: *di,
                    },
                });
            }
        }
    }
    if pc + 2 <= ops.len() {
        if let [MicroKernel::Gather { src: Src::Global(src), idx: si, out: g1 }, MicroKernel::ScatterAdd { data, idx: di }] =
            &ops[pc..pc + 2]
        {
            if data == g1 && confined(&[*g1], 2) {
                return Some(FusedKernel {
                    pattern: FusedPattern::SegmentReduce,
                    pcs: pc..pc + 2,
                    op: FusedOp::SegmentReduce {
                        src: src.clone(),
                        src_idx: *si,
                        dst_idx: *di,
                    },
                });
            }
        }
        if let [MicroKernel::Gather2D { src, idx1, idx2, out: g }, MicroKernel::ScatterAdd { data, idx: di }] =
            &ops[pc..pc + 2]
        {
            if data == g && confined(&[*g], 2) {
                return Some(FusedKernel {
                    pattern: FusedPattern::PairwiseScatter,
                    pcs: pc..pc + 2,
                    op: FusedOp::PairwiseScatter {
                        table: src.clone(),
                        idx1: *idx1,
                        idx2: *idx2,
                        dst_idx: *di,
                    },
                });
            }
        }
    }
    None
}

/// Partitions each scope of a compiled program into fused kernels and
/// interpreter steps: a greedy left-to-right scan, longest pattern first at
/// each position. Deterministic — the same program always yields the same
/// plan, so the dispatch decision is identical at every thread count.
pub fn plan_fusion(program: &KernelProgram) -> FusedPlan {
    FusedPlan {
        segments: scan(&program.ops),
        edge_segments: scan(&program.edge_ops),
    }
}

fn scan(ops: &[MicroKernel]) -> Vec<Segment> {
    let u = summarize(ops);
    let mut segments = Vec::new();
    let mut pc = 0;
    while pc < ops.len() {
        match match_at(ops, &u, pc) {
            Some(fk) => {
                pc = fk.pcs.end;
                segments.push(Segment::Fused(fk));
            }
            None => {
                segments.push(Segment::Interp(pc));
                pc += 1;
            }
        }
    }
    segments
}

/// `acc[j] += row[j]`, unrolled in [`LANES`]-wide groups of independent
/// column accumulators.
#[inline]
fn add_row(acc: &mut [f32], row: &[f32]) {
    let mut a4 = acc.chunks_exact_mut(LANES);
    let mut r4 = row.chunks_exact(LANES);
    for (a, r) in (&mut a4).zip(&mut r4) {
        a[0] += r[0];
        a[1] += r[1];
        a[2] += r[2];
        a[3] += r[3];
    }
    for (a, &r) in a4.into_remainder().iter_mut().zip(r4.remainder()) {
        *a += r;
    }
}

/// Executes one fused kernel against the task's streams, accumulating into
/// `out` with the interpreter's exact Work accounting: the step
/// [`crate::micro::run_task`] takes for every `Segment::Fused`.
pub(crate) fn run_fused(
    program: &KernelProgram,
    fk: &FusedKernel,
    globals: Globals<'_>,
    out: &mut Tensor,
    tws: &mut TaskWorkspace,
) {
    let TaskWorkspace { regs, ws, work } = tws;
    match &fk.op {
        FusedOp::SegmentReduce { src, src_idx, dst_idx } => {
            let srct = &globals[src.as_str()];
            let n = srct.dims()[1];
            assert_eq!(n, program.out_width, "segment-reduce width mismatch");
            let si = reg_stream(regs, *src_idx);
            let di = reg_stream(regs, *dst_idx);
            let len = si.len();
            for (&s, &d) in si.iter().zip(di) {
                add_row(out.row_mut(d as usize), srct.row(s as usize));
            }
            // Same Work totals as Gather + ScatterAdd.
            work.bytes_gathered += (4 * len * n) as u64;
            work.flops += (len * n) as u64;
            work.bytes_scattered += (4 * len * n) as u64;
        }
        FusedOp::PerTypeBatchedMatmul {
            h,
            src_idx,
            w,
            ty_idx,
            dst_idx,
        } => {
            let ht = &globals[h.as_str()];
            let wt = &globals[w.as_str()];
            let f = ht.dims()[1];
            let fo = wt.dims()[2];
            assert_eq!(f, wt.dims()[1], "per-type matmul inner-dim mismatch");
            assert_eq!(fo, program.out_width, "per-type matmul width mismatch");
            let slice = f * fo;
            let si = reg_stream(regs, *src_idx);
            let ti = reg_stream(regs, *ty_idx);
            let di = reg_stream(regs, *dst_idx);
            let len = si.len();
            // Each edge's row against its type's slice, added to its
            // destination row in task order.
            let rows = si.iter().zip(ti).zip(di).map(|((&s, &t), &d)| {
                let t = t as usize;
                (ht.row(s as usize), &wt.data()[t * slice..(t + 1) * slice], d as usize)
            });
            ops::per_row_matmul_add_into(rows, [f, fo], out.data_mut());
            // Same Work totals as Gather + Gather + PerRowVecMat
            // + ScatterAdd (PerRowVecMat FLOPs are nominal: the zero-skip
            // is an execution shortcut, not less work in the model).
            work.bytes_gathered += (4 * len * f) as u64 + (4 * len * slice) as u64;
            work.flops += (2 * len * f * fo) as u64 + (len * fo) as u64;
            work.bytes_scattered += (4 * len * fo) as u64;
        }
        FusedOp::WeightedSegmentReduce {
            alpha,
            eid,
            src,
            src_idx,
            dst_idx,
        } => {
            let (at, srct) = (&globals[alpha.as_str()], &globals[src.as_str()]);
            assert_eq!(at.dims()[1], 1, "attention weights must be one column");
            let n = srct.dims()[1];
            assert_eq!(n, program.out_width, "weighted segment-reduce width mismatch");
            let ei = reg_stream(regs, *eid);
            let si = reg_stream(regs, *src_idx);
            let di = reg_stream(regs, *dst_idx);
            let len = si.len();
            for ((&e, &s), &d) in ei.iter().zip(si).zip(di) {
                let a = at.data()[e as usize];
                for (o, &x) in out.row_mut(d as usize).iter_mut().zip(srct.row(s as usize)) {
                    *o += x * a;
                }
            }
            // Same Work totals as Gather + Squeeze + Gather +
            // ScaleRows + ScatterAdd.
            work.bytes_gathered += (4 * len) as u64 + (4 * len * n) as u64;
            work.flops += (2 * len * n) as u64;
            work.bytes_scattered += (4 * len * n) as u64;
        }
        FusedOp::PairwiseScatter {
            table,
            idx1,
            idx2,
            dst_idx,
        } => {
            let t = table.tensor(regs, &globals);
            let (d1, rest) = (t.dims()[1], t.dims()[2..].iter().product::<usize>());
            assert_eq!(rest, program.out_width, "pairwise scatter width mismatch");
            let i1 = reg_stream(regs, *idx1);
            let i2 = reg_stream(regs, *idx2);
            let di = reg_stream(regs, *dst_idx);
            let len = di.len();
            for ((&a, &b), &d) in i1.iter().zip(i2).zip(di) {
                let off = (a as usize * d1 + b as usize) * rest;
                add_row(out.row_mut(d as usize), &t.data()[off..off + rest]);
            }
            // Same Work totals as Gather2D + ScatterAdd.
            work.bytes_gathered += (4 * len * rest) as u64;
            work.flops += (len * rest) as u64;
            work.bytes_scattered += (4 * len * rest) as u64;
        }
        FusedOp::EdgeScore {
            a,
            a_idx,
            b,
            b_idx,
            out: score,
        } => {
            let (at, bt) = (&globals[a.as_str()], &globals[b.as_str()]);
            assert!(
                at.dims()[1] == 1 && bt.dims()[1] == 1,
                "edge-score operands must be one column"
            );
            let ai = reg_stream(regs, *a_idx);
            let bi = reg_stream(regs, *b_idx);
            let len = ai.len();
            let mut buf = ws.take(len);
            for ((o, &x), &y) in buf.iter_mut().zip(ai).zip(bi) {
                let v = at.data()[x as usize] + bt.data()[y as usize];
                *o = if v >= 0.0 { v } else { LEAKY_SLOPE * v };
            }
            set_reg(regs, ws, *score, RegValue::Tensor(Tensor::from_vec(buf, &[len])));
            // Same Work totals as two Gathers + Add + LeakyRelu +
            // Squeeze.
            work.bytes_gathered += (8 * len) as u64;
            work.flops += (2 * len) as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{compile, run_task};
    use std::collections::HashMap;
    use wisegraph_dfg::{transform, Binding};
    use wisegraph_graph::Graph;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_gtask::{partition, PartitionTable};
    use wisegraph_models::ModelKind;
    use wisegraph_tensor::init;

    fn globals_for(g: &Graph, fi: usize, fo: usize) -> HashMap<String, Tensor> {
        let mut m = HashMap::new();
        m.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 1),
        );
        m.insert(
            "W".to_string(),
            init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 2),
        );
        m.insert("w".to_string(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 3));
        m.insert(
            "w_self".to_string(),
            init::uniform_tensor(&[fi, fo], -1.0, 1.0, 4),
        );
        m.insert(
            "w_neigh".to_string(),
            init::uniform_tensor(&[fi, fo], -1.0, 1.0, 5),
        );
        m
    }

    #[test]
    fn gcn_program_fuses_to_segment_reduce() {
        let g = rmat(&RmatParams::standard(40, 250, 21));
        let program = compile(&ModelKind::Gcn.layer_dfg(5, 4), &g).unwrap();
        let fplan = plan_fusion(&program);
        assert_eq!(fplan.patterns(), vec![FusedPattern::SegmentReduce]);
        assert_eq!(fplan.covered_pcs(), (0..program.ops.len()).collect::<Vec<_>>());
    }

    #[test]
    fn rgcn_program_fuses_to_per_type_batched_matmul() {
        let g = rmat(&RmatParams::standard(40, 250, 23).with_edge_types(3));
        let program = compile(&ModelKind::Rgcn.layer_dfg(4, 3), &g).unwrap();
        let fplan = plan_fusion(&program);
        assert_eq!(fplan.patterns(), vec![FusedPattern::PerTypeBatchedMatmul]);
        assert_eq!(fplan.covered_pcs(), (0..program.ops.len()).collect::<Vec<_>>());
    }

    #[test]
    fn gat_program_fuses_its_score_chain_and_weighted_aggregation() {
        // The edge pass's score chain and each task's attention-weighted
        // aggregation (gather α, gather rows, scale, scatter) both fuse.
        let g = rmat(&RmatParams::standard(40, 250, 25));
        let program = compile(&ModelKind::Gat.layer_dfg(4, 3), &g).unwrap();
        let fplan = plan_fusion(&program);
        assert_eq!(
            fplan.patterns(),
            vec![FusedPattern::EdgeScore, FusedPattern::WeightedSegmentReduce]
        );
        assert_eq!(fplan.covered_pcs(), (0..program.ops.len()).collect::<Vec<_>>());
        assert_eq!(
            covered(&fplan.edge_segments),
            (0..program.edge_ops.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn transformed_rgcn_fuses_to_pairwise_scatter() {
        let g = rmat(&RmatParams::standard(40, 250, 29).with_edge_types(3));
        let (dfg, _) = transform::optimize(&ModelKind::Rgcn.layer_dfg(4, 3), &Binding::from_graph(&g));
        let program = compile(&dfg, &g).unwrap();
        let fplan = plan_fusion(&program);
        assert_eq!(fplan.patterns(), vec![FusedPattern::PairwiseScatter]);
        assert_eq!(fplan.covered_pcs(), (0..program.ops.len()).collect::<Vec<_>>());
    }

    #[test]
    fn a_program_matching_nothing_runs_interpreted() {
        // GCN's extract-only candidate gathers the unique sources' rows
        // and then rows of that register: no chain matches.
        let g = rmat(&RmatParams::standard(40, 250, 31));
        let program = transform::candidates(&ModelKind::Gcn.layer_dfg(4, 3), &Binding::from_graph(&g))
            .iter()
            .map(|dfg| compile(dfg, &g).unwrap())
            .find(|p| p.ops.iter().any(|k| matches!(k, MicroKernel::Gather { src: Src::Reg(_), .. })))
            .expect("GCN has an extract-only candidate");
        let fplan = plan_fusion(&program);
        assert_eq!(fplan.num_fused(), 0);
        assert_eq!(fplan, FusedPlan::interpreted(&program));
    }

    #[test]
    fn fused_task_is_bit_identical_to_interpreter() {
        let g = rmat(&RmatParams::standard(60, 400, 27).with_edge_types(3));
        let (fi, fo) = (6, 5);
        for kind in [ModelKind::Gcn, ModelKind::Rgcn, ModelKind::Sage] {
            let program = compile(&kind.layer_dfg(fi, fo), &g).unwrap();
            let fplan = plan_fusion(&program);
            assert!(fplan.num_fused() > 0, "{}", kind.name());
            let globals = globals_for(&g, fi, fo);
            let plan = partition(&g, &PartitionTable::edge_batch(32));
            let mut a = Tensor::zeros(&[program.out_rows, program.out_width]);
            let mut b = Tensor::zeros(&[program.out_rows, program.out_width]);
            let mut tws_a = TaskWorkspace::new();
            let mut tws_b = TaskWorkspace::new();
            let interp = FusedPlan::interpreted(&program);
            for task in &plan.tasks {
                run_task(&program, &interp, &g, &globals, task.edges, &mut a, &mut tws_a);
                run_task(&program, &fplan, &g, &globals, task.edges, &mut b, &mut tws_b);
            }
            assert_eq!(a.data(), b.data(), "{}", kind.name());
        }
    }
}
