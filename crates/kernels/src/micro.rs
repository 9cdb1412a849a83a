//! Composable micro-kernels (paper §5.3): an explicit kernel IR, a
//! compiler from DFG fragments, and a per-gTask CPU executor.
//!
//! "WiseGraph prepares multiple micro-kernels for data loading and
//! computation, with each micro-kernel representing a specific operation.
//! By composing these micro-kernels, we can generate a GPU kernel with
//! operations partitioned in." This module is that composition made
//! concrete: [`compile`] turns the edge-dependent part of a DFG into a
//! [`KernelProgram`] of micro-kernels executed once per gTask (data
//! loading → compute → scatter), plus an *epilogue* of whole-graph
//! operations (degree normalization, shared projections, joins) evaluated
//! once after all tasks. A per-destination softmax and the score chain
//! feeding it are not per-task work: they run once per call over the
//! plan's edges ([`KernelProgram::edge_ops`]), and the tasks read the
//! result by edge id.
//!
//! The prologue and the epilogue are dense phases evaluated by vertex row
//! (`DenseEval`), which [`compile`] guarantees every prologue tensor and
//! output has; `eval_prologue` / `run_epilogue` run them in one block for
//! the allocating reference executor only.
//!
//! The instruction set ([`MicroKernel`]) has one instruction per
//! operation. A tensor operand that may be a global or a task register is
//! one [`Src`]: a gather or a pairwise product reads either through the
//! same instruction, and [`Src::reg`] / [`Src::global`] are where the two
//! are told apart.
//!
//! The executor is numerically validated against the reference DFG
//! interpreter; the cost model in [`crate::generate`] prices the same
//! composition analytically.

use crate::fused::{run_fused, FusedPlan, Segment};
use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;
use wisegraph_dfg::{Dfg, Dim, NodeId, OpKind};
use wisegraph_dfg::op::LEAKY_SLOPE;
use wisegraph_graph::digest::Fnv64;
use wisegraph_graph::{AttrKind, Graph};
use wisegraph_gtask::PartitionPlan;
use wisegraph_obs::{keys, span, Class, Counters};
use wisegraph_tensor::{ops, Tensor, Workspace};

/// A virtual register holding one per-task value.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Reg(pub usize);

/// Element-wise micro-kernel operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EwOp {
    /// Addition of two registers.
    Add,
    /// Multiplication of two registers.
    Mul,
    /// ReLU of one register.
    Relu,
    /// Leaky ReLU of one register.
    LeakyRelu,
}

/// Where an instruction's tensor operand lives: a named global tensor (a
/// model input, a prologue pseudo-global or an edge value) or a task
/// register. An instruction reads either through the same field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Src {
    /// A named global tensor.
    Global(String),
    /// A task register.
    Reg(Reg),
}

impl Src {
    /// The register this operand reads, if it is one.
    pub fn reg(&self) -> Option<Reg> {
        match self {
            Src::Reg(r) => Some(*r),
            Src::Global(_) => None,
        }
    }

    /// The global tensor this operand names, if it is one.
    pub fn global(&self) -> Option<&str> {
        match self {
            Src::Global(name) => Some(name),
            Src::Reg(_) => None,
        }
    }

    /// The tensor this operand reads in a task.
    pub(crate) fn tensor<'r>(&self, regs: &'r [Option<RegValue>], globals: &'r Globals<'_>) -> &'r Tensor {
        match self {
            Src::Global(name) => &globals[name.as_str()],
            Src::Reg(r) => reg_tensor(regs, *r),
        }
    }
}

/// One micro-kernel: a data-loading, compute, or store step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MicroKernel {
    /// Load the task's stream of an edge attribute.
    LoadStream {
        /// Which attribute.
        attr: AttrKind,
        /// Destination register (index stream).
        out: Reg,
    },
    /// Deduplicate a stream into unique values and a position map.
    Unique {
        /// Source stream register.
        stream: Reg,
        /// Unique values (index stream).
        values: Reg,
        /// Edge → position map (index stream).
        map: Reg,
    },
    /// Gather leading-axis slices by an index register: `out[i] =
    /// src[idx[i]]` — rows of a rank-2 tensor, `[f, f']` slices of a
    /// rank-3 weight. [`compile`] gathers from a register of rank 2 only.
    Gather {
        /// Source tensor.
        src: Src,
        /// Slice indices.
        idx: Reg,
        /// Gathered slices.
        out: Reg,
    },
    /// 2-D gather from a rank-3 tensor: `out[i] = src[idx1[i], idx2[i]]`.
    Gather2D {
        /// Source rank-3 tensor.
        src: Src,
        /// First index stream.
        idx1: Reg,
        /// Second index stream.
        idx2: Reg,
        /// Result.
        out: Reg,
    },
    /// All-pairs product: `out[u, t] = x[u] @ w[t]`.
    Pairwise {
        /// Unique input rows `[u, f]`.
        x: Reg,
        /// Weights `[t, f, f']`.
        w: Src,
        /// Result `[u, t, f']`.
        out: Reg,
    },
    /// Dense product of a register with a global weight: `out = x @ W`.
    MatMat {
        /// Input rows.
        x: Reg,
        /// Global weight name.
        w: String,
        /// Result.
        out: Reg,
    },
    /// Row-wise product with per-row weights: `out[i] = x[i] @ w[i]`.
    PerRowVecMat {
        /// Input rows `[n, f]`.
        x: Reg,
        /// Per-row weights `[n, f, f']`.
        w: Reg,
        /// Result `[n, f']`.
        out: Reg,
    },
    /// Element-wise arithmetic.
    Elementwise {
        /// Operation.
        op: EwOp,
        /// First operand.
        a: Reg,
        /// Second operand (binary ops only).
        b: Option<Reg>,
        /// Result.
        out: Reg,
    },
    /// Drops a trailing singleton column: `[n, 1]` → `[n]`.
    Squeeze {
        /// Input register.
        x: Reg,
        /// Result register.
        out: Reg,
    },
    /// Softmax over the rows grouped by destination. [`compile`] places it
    /// in the per-call edge pass only, where the rows are all of the
    /// plan's edges.
    SegmentSoftmax {
        /// Rank-1 scores.
        scores: Reg,
        /// Segment ids: the destination stream, the only one [`compile`]
        /// accepts.
        seg: Reg,
        /// Result.
        out: Reg,
    },
    /// Scales row `i` of `x` by scalar `s[i]`.
    ScaleRows {
        /// Row data.
        x: Reg,
        /// Per-row scalars (rank-1).
        s: Reg,
        /// Result.
        out: Reg,
    },
    /// Scatter-add the register's rows into the task's global output:
    /// `out_global[idx[i]] += data[i]`.
    ScatterAdd {
        /// Row data.
        data: Reg,
        /// Destination rows.
        idx: Reg,
    },
}

/// A compiled kernel: micro-kernels run once per gTask, writing into a
/// shared `[rows, width]` accumulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelProgram {
    /// The composed micro-kernels, in execution order.
    pub ops: Vec<MicroKernel>,
    /// The per-call edge pass (`run_edge_pass`): micro-kernels run once
    /// per call, before any task, over all of the plan's edges. Each
    /// `SegmentSoftmax` here publishes its result to `ops` as the
    /// `[|E|, 1]` pseudo-global `edge_value_name` of its output
    /// register. Empty unless the layer normalizes per destination.
    pub edge_ops: Vec<MicroKernel>,
    /// Number of virtual registers, shared by `edge_ops` and `ops`.
    pub num_regs: usize,
    /// Output accumulator rows (`|V|`).
    pub out_rows: usize,
    /// Output accumulator width.
    pub out_width: usize,
    /// The DFG node whose value the accumulator holds (the `IndexAdd`).
    pub reduce_node: NodeId,
    /// Edge-independent intermediate nodes precomputed once before the
    /// tasks run, exposed to the per-task program as pseudo-globals named
    /// `__pre_<node>`.
    pub prologue: Vec<NodeId>,
    /// FNV-1a digest of the DFG the program was compiled from, over the
    /// `Hash` impl the planning cache keys programs on: a call under any
    /// other DFG is an error.
    pub dfg_digest: u64,
}

/// Pseudo-global name of a precomputed (prologue) node.
pub fn prologue_name(id: NodeId) -> String {
    format!("__pre_{}", id.0)
}

/// Pseudo-global name of the edge-rowed value the per-call edge pass
/// leaves in register `r`.
pub(crate) fn edge_value_name(r: Reg) -> String {
    format!("__edge_{}", r.0)
}

/// The named tensors a per-task program reads: the caller's globals and,
/// beside them, the call's prologue pseudo-globals ([`prologue_name`]) and
/// edge values (`edge_value_name`) — a borrowed view, so no call copies
/// a global to add them.
#[derive(Clone, Copy)]
pub struct Globals<'a> {
    base: &'a HashMap<String, Tensor>,
    pre: &'a [(String, Tensor)],
    edge: &'a [(String, Tensor)],
}

impl<'a> Globals<'a> {
    /// `base` with the prologue tensors `pre` (`eval_prologue`'s pairs).
    pub fn with_prologue(
        base: &'a HashMap<String, Tensor>,
        pre: &'a [(String, Tensor)],
    ) -> Self {
        Globals { base, pre, edge: &[] }
    }

    /// These globals with the edge values `edge` ([`run_edge_pass`]'s
    /// pairs).
    pub(crate) fn with_edge_values(self, edge: &'a [(String, Tensor)]) -> Self {
        Globals { edge, ..self }
    }

    /// The tensor bound to `name`, if any.
    pub fn get(&self, name: &str) -> Option<&'a Tensor> {
        let find = |pairs: &'a [(String, Tensor)]| {
            pairs.iter().find(|(n, _)| n == name).map(|(_, t)| t)
        };
        find(self.edge)
            .or_else(|| find(self.pre))
            .or_else(|| self.base.get(name))
    }
}

impl<'a> From<&'a HashMap<String, Tensor>> for Globals<'a> {
    fn from(base: &'a HashMap<String, Tensor>) -> Self {
        Globals::with_prologue(base, &[])
    }
}

impl std::ops::Index<&str> for Globals<'_> {
    type Output = Tensor;

    fn index(&self, name: &str) -> &Tensor {
        self.get(name).unwrap_or_else(|| panic!("global tensor `{name}` missing"))
    }
}

/// A per-task register value.
#[derive(Clone, Debug)]
pub(crate) enum RegValue {
    Tensor(Tensor),
    Stream(Vec<u32>),
}

/// Exact work totals accumulated while a worker executes tasks. The
/// `tasks`/`edges`/`flops`/`bytes_*` fields are pure functions of program
/// and inputs ([`Class::Work`]), independent of how tasks are spread over
/// workers *and* of whether the interpreter or the fused code path ran
/// them. The `fused_*` fields describe how the work was executed
/// (interpreter vs. [`crate::fused`] segments) and are therefore
/// [`Class::Resource`].
#[derive(Default)]
pub(crate) struct KernelWork {
    pub(crate) tasks: u64,
    pub(crate) edges: u64,
    pub(crate) flops: u64,
    pub(crate) bytes_gathered: u64,
    pub(crate) bytes_scattered: u64,
    pub(crate) fused_tasks: u64,
    pub(crate) fused_micro_ops: u64,
}

/// Per-worker execution state: a register file reused across tasks plus the
/// scratch-buffer pool ([`Workspace`]) backing the register values.
///
/// One `TaskWorkspace` is owned by exactly one worker; values left in the
/// registers after a task are recycled into the pool when the next task
/// starts, so a worker processing thousands of same-shaped tasks allocates
/// only during the first one.
#[derive(Default)]
pub struct TaskWorkspace {
    pub(crate) regs: Vec<Option<RegValue>>,
    pub(crate) ws: Workspace,
    pub(crate) work: KernelWork,
}

impl TaskWorkspace {
    /// Creates an empty task workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counter snapshot: the buffer pool's `pool.*` resource counters plus
    /// this worker's `kernel.*` work totals (tasks, edges, FLOPs, bytes
    /// gathered/scattered).
    pub fn stats(&self) -> Counters {
        let mut c = self.ws.stats();
        c.add_class(keys::KERNEL_TASKS, self.work.tasks, Class::Work);
        c.add_class(keys::KERNEL_EDGES, self.work.edges, Class::Work);
        c.add_class(keys::KERNEL_FLOPS, self.work.flops, Class::Work);
        c.add_class(keys::KERNEL_BYTES_GATHERED, self.work.bytes_gathered, Class::Work);
        c.add_class(keys::KERNEL_BYTES_SCATTERED, self.work.bytes_scattered, Class::Work);
        // How the work was executed (fused vs. interpreted) is a resource
        // property: identical at a fixed dispatch mode, but free to differ
        // between the interpreter baseline and the fused path.
        c.add_class(keys::KERNEL_FUSED_TASKS, self.work.fused_tasks, Class::Resource);
        c.add_class(
            keys::KERNEL_FUSED_MICRO_OPS,
            self.work.fused_micro_ops,
            Class::Resource,
        );
        c
    }

    /// Clears the register file for a new task, recycling held values.
    pub(crate) fn prepare(&mut self, num_regs: usize) {
        let TaskWorkspace { regs, ws, work: _ } = self;
        for r in 0..regs.len() {
            release(regs, ws, Reg(r));
        }
        regs.resize_with(num_regs, || None);
    }
}

/// Reads a tensor register by reference.
pub(crate) fn reg_tensor(regs: &[Option<RegValue>], r: Reg) -> &Tensor {
    match regs[r.0].as_ref().expect("register assigned") {
        RegValue::Tensor(t) => t,
        RegValue::Stream(_) => panic!("expected tensor in register {r:?}"),
    }
}

/// Reads a stream register by reference.
pub(crate) fn reg_stream(regs: &[Option<RegValue>], r: Reg) -> &[u32] {
    match regs[r.0].as_ref().expect("register assigned") {
        RegValue::Stream(s) => s,
        RegValue::Tensor(_) => panic!("expected stream in register {r:?}"),
    }
}

/// Empties a register, recycling whatever value it held.
fn release(regs: &mut [Option<RegValue>], ws: &mut Workspace, r: Reg) {
    if let Some(v) = regs[r.0].take() {
        recycle_value(ws, v);
    }
}

/// Hands a register value's buffer back to the pool.
fn recycle_value(ws: &mut Workspace, v: RegValue) {
    match v {
        RegValue::Tensor(t) => ws.recycle(t),
        RegValue::Stream(s) => ws.give_u32(s),
    }
}

/// Writes a register, recycling whatever value it held before.
pub(crate) fn set_reg(regs: &mut [Option<RegValue>], ws: &mut Workspace, r: Reg, v: RegValue) {
    release(regs, ws, r);
    regs[r.0] = Some(v);
}

/// Compilation error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompileError(pub String);

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "micro-kernel compile error: {}", self.0)
    }
}

impl std::error::Error for CompileError {}

/// Edge-dependence: reachable from an edge-attribute stream *without*
/// passing through an `IndexAdd` (the reduction re-anchors data at the
/// vertex set, so its consumers run in the epilogue).
fn edge_dependence(dfg: &Dfg) -> Vec<bool> {
    let mut edge_dep = vec![false; dfg.len()];
    for (i, node) in dfg.nodes().iter().enumerate() {
        if node.kind.is_index_stream() {
            edge_dep[i] = true;
        }
        if node.inputs.iter().any(|p| {
            edge_dep[p.0] && !matches!(dfg.node(*p).kind, OpKind::IndexAdd { .. })
        }) {
            edge_dep[i] = true;
        }
    }
    edge_dep
}

/// Splits the DFG at its reduction: nodes that depend on edge streams and
/// feed the single `IndexAdd` become the per-task program, except that a
/// `SegmentSoftmax` and the nodes feeding it become the per-call edge
/// pass; everything else (degree normalization, shared projections, joins
/// with edge-independent branches) is the prologue or the epilogue,
/// evaluated once.
///
/// # Errors
///
/// Fails if the DFG does not split at one live `IndexAdd` of literal
/// width, or if a prologue tensor or an output has no vertex rows of fixed
/// extents (literal widths, the edge-type count).
pub fn compile(dfg: &Dfg, g: &Graph) -> Result<KernelProgram, CompileError> {
    let live = dfg.live_set();
    let edge_dep = edge_dependence(dfg);
    // The unique live IndexAdd is the reduction frontier.
    let reduces: Vec<usize> = dfg
        .nodes()
        .iter()
        .enumerate()
        .filter(|(i, n)| live[*i] && matches!(n.kind, OpKind::IndexAdd { .. }))
        .map(|(i, _)| i)
        .collect();
    let [reduce] = reduces.as_slice() else {
        return Err(CompileError(format!(
            "expected exactly one live IndexAdd, found {}",
            reduces.len()
        )));
    };
    let reduce = NodeId(*reduce);
    // No edge-dependent node may escape except through the reduction.
    let consumers = dfg.consumers();
    for (i, node) in dfg.nodes().iter().enumerate() {
        if !live[i] || !edge_dep[i] || i == reduce.0 {
            continue;
        }
        let _ = node;
        let all_edge_dep_consumers = consumers[i].iter().all(|c| edge_dep[c.0]);
        if !all_edge_dep_consumers || dfg.outputs().contains(&NodeId(i)) {
            return Err(CompileError(format!(
                "edge-dependent node {i} escapes without passing the reduction"
            )));
        }
    }

    // A softmax normalizes over all of a destination's in-edges, which a
    // task need not hold: it and the chain feeding it run in the per-call
    // edge pass, and the per-task program stops at its result.
    let softmaxes: Vec<NodeId> = (0..=reduce.0)
        .filter(|&i| live[i] && dfg.node(NodeId(i)).kind == OpKind::SegmentSoftmax)
        .map(NodeId)
        .collect();
    let per_call = ancestors_of(dfg, &softmaxes, &[]);
    let per_task = ancestors_of(dfg, &[reduce], &softmaxes);
    let mut lower = Lowering { dfg, next_reg: 0, prologue: Vec::new() };
    let (mut call, mut task) = (Scope::default(), Scope::default());
    for i in (0..=reduce.0).filter(|&i| live[i] && edge_dep[i]) {
        let id = NodeId(i);
        if per_call[i] {
            lower.node(id, &mut call)?;
        }
        if per_task[i] && softmaxes.contains(&id) {
            lower.edge_value(id, call.reg_of[&id], &mut task);
        } else if per_task[i] {
            lower.node(id, &mut task)?;
        }
    }

    // Output shape from the reduction node.
    let out_width = match dfg.node(reduce).shape.last() {
        Some(&wisegraph_dfg::Dim::Lit(w)) => w,
        _ => {
            return Err(CompileError(
                "reduction output must have a literal width".into(),
            ))
        }
    };
    // The dense phases split a prologue tensor or an output by vertex row
    // (the engine's workers, a device's owned rows), so each needs rows of
    // extents known before any row exists.
    if let Some(id) =
        lower.prologue.iter().chain(dfg.outputs()).find(|id| row_dims(dfg, g, **id).is_none())
    {
        return Err(CompileError(format!(
            "node {} is a prologue tensor or an output without vertex rows of fixed extents",
            id.0
        )));
    }
    Ok(KernelProgram {
        ops: task.ops,
        edge_ops: call.ops,
        num_regs: lower.next_reg,
        out_rows: g.num_vertices(),
        out_width,
        reduce_node: reduce,
        prologue: lower.prologue,
        dfg_digest: dfg_digest(dfg),
    })
}

/// FNV-1a of `dfg`'s `Hash` impl: what [`KernelProgram::dfg_digest`]
/// records and [`check_call`] compares.
fn dfg_digest(dfg: &Dfg) -> u64 {
    let mut h = Fnv64::new();
    dfg.hash(&mut h);
    h.finish()
}

/// The micro-kernels of one scope of a program — the per-call edge pass
/// or the per-task program — and the registers holding the values of the
/// nodes lowered into it.
#[derive(Default)]
struct Scope {
    ops: Vec<MicroKernel>,
    reg_of: HashMap<NodeId, Reg>,
    /// Unique streams get a values/map register pair, allocated lazily.
    unique_regs: HashMap<AttrKind, (Reg, Reg)>,
}

/// What [`compile`]'s scopes share: one register numbering and one
/// prologue.
struct Lowering<'d> {
    dfg: &'d Dfg,
    next_reg: usize,
    prologue: Vec<NodeId>,
}

impl Lowering<'_> {
    fn alloc(&mut self) -> Reg {
        self.next_reg += 1;
        Reg(self.next_reg - 1)
    }

    /// Node `p` as an operand of scope `s`: its register there, a model
    /// input, or an edge-independent intermediate precomputed once (a
    /// prologue pseudo-global).
    fn resolve(&mut self, p: NodeId, s: &Scope) -> Src {
        if let Some(&r) = s.reg_of.get(&p) {
            return Src::Reg(r);
        }
        if let OpKind::Input { name, .. } = &self.dfg.node(p).kind {
            return Src::Global(name.clone());
        }
        if !self.prologue.contains(&p) {
            self.prologue.push(p);
        }
        Src::Global(prologue_name(p))
    }

    /// Task scope `s` reads softmax node `id`, which the edge pass left in
    /// register `r`: each task gathers its edges' rows of the `[|E|, 1]`
    /// edge value and squeezes them to the weights a softmax yields.
    fn edge_value(&mut self, id: NodeId, r: Reg, s: &mut Scope) {
        let (eid, rows, out) = (self.alloc(), self.alloc(), self.alloc());
        s.ops.push(MicroKernel::LoadStream { attr: AttrKind::EdgeId, out: eid });
        s.ops.push(MicroKernel::Gather { src: Src::Global(edge_value_name(r)), idx: eid, out: rows });
        s.ops.push(MicroKernel::Squeeze { x: rows, out });
        s.reg_of.insert(id, out);
    }

    /// Appends node `id`'s micro-kernels to scope `s`.
    fn node(&mut self, id: NodeId, s: &mut Scope) -> Result<(), CompileError> {
        let dfg = self.dfg;
        let node = dfg.node(id);
        match &node.kind {
            OpKind::EdgeAttr(a) => {
                let out = self.alloc();
                s.ops.push(MicroKernel::LoadStream { attr: *a, out });
                s.reg_of.insert(id, out);
            }
            OpKind::UniqueValues(a) | OpKind::UniqueMap(a) => {
                let (values, map) = *s.unique_regs.entry(*a).or_insert_with(|| {
                    let stream = self.alloc();
                    let values = self.alloc();
                    let map = self.alloc();
                    s.ops.push(MicroKernel::LoadStream { attr: *a, out: stream });
                    s.ops.push(MicroKernel::Unique {
                        stream,
                        values,
                        map,
                    });
                    (values, map)
                });
                s.reg_of.insert(
                    id,
                    if matches!(node.kind, OpKind::UniqueValues(_)) {
                        values
                    } else {
                        map
                    },
                );
            }
            OpKind::Index => {
                let idx = s.reg_of[&node.inputs[1]];
                let out = self.alloc();
                let data = node.inputs[0];
                let rank = dfg.node(data).shape.len();
                let src = self.resolve(data, s);
                if src.reg().is_some() && rank != 2 {
                    return Err(CompileError(format!(
                        "no micro-kernel gathers from a rank-{rank} task register (node {})",
                        data.0
                    )));
                }
                s.ops.push(MicroKernel::Gather { src, idx, out });
                s.reg_of.insert(id, out);
            }
            OpKind::Index2D => {
                let idx1 = s.reg_of[&node.inputs[1]];
                let idx2 = s.reg_of[&node.inputs[2]];
                let out = self.alloc();
                let src = self.resolve(node.inputs[0], s);
                s.ops.push(MicroKernel::Gather2D { src, idx1, idx2, out });
                s.reg_of.insert(id, out);
            }
            OpKind::Linear => {
                let x = *s.reg_of.get(&node.inputs[0]).ok_or_else(|| {
                    CompileError("Linear lhs must be task-local".into())
                })?;
                let Src::Global(w) = self.resolve(node.inputs[1], s) else {
                    return Err(CompileError("Linear weight must be edge-independent".into()));
                };
                let out = self.alloc();
                s.ops.push(MicroKernel::MatMat { x, w, out });
                s.reg_of.insert(id, out);
            }
            OpKind::PerEdgeLinear => {
                let x = s.reg_of[&node.inputs[0]];
                let w = s.reg_of[&node.inputs[1]];
                let out = self.alloc();
                s.ops.push(MicroKernel::PerRowVecMat { x, w, out });
                s.reg_of.insert(id, out);
            }
            OpKind::PairwiseLinear => {
                let x = *s.reg_of.get(&node.inputs[0]).ok_or_else(|| {
                    CompileError("PairwiseLinear lhs must be task-local".into())
                })?;
                let out = self.alloc();
                let w = self.resolve(node.inputs[1], s);
                s.ops.push(MicroKernel::Pairwise { x, w, out });
                s.reg_of.insert(id, out);
            }
            OpKind::Add | OpKind::Mul | OpKind::Relu | OpKind::LeakyRelu => {
                let a = s.reg_of[&node.inputs[0]];
                let b = node.inputs.get(1).map(|p| s.reg_of[p]);
                let op = match node.kind {
                    OpKind::Add => EwOp::Add,
                    OpKind::Mul => EwOp::Mul,
                    OpKind::Relu => EwOp::Relu,
                    _ => EwOp::LeakyRelu,
                };
                let out = self.alloc();
                s.ops.push(MicroKernel::Elementwise { op, a, b, out });
                s.reg_of.insert(id, out);
            }
            OpKind::SqueezeCol => {
                let x = s.reg_of[&node.inputs[0]];
                let out = self.alloc();
                s.ops.push(MicroKernel::Squeeze { x, out });
                s.reg_of.insert(id, out);
            }
            OpKind::SegmentSoftmax => {
                // Segments are destinations: a device that owns whole
                // destinations then runs an exact edge pass on its shard.
                let seg_node = node.inputs[1];
                if dfg.node(seg_node).kind != OpKind::EdgeAttr(AttrKind::DstId) {
                    return Err(CompileError(format!(
                        "segment softmax must be segmented by the destination-id \
                         attribute, node {} is not",
                        seg_node.0
                    )));
                }
                let scores = s.reg_of[&node.inputs[0]];
                let seg = s.reg_of[&seg_node];
                let out = self.alloc();
                s.ops.push(MicroKernel::SegmentSoftmax { scores, seg, out });
                s.reg_of.insert(id, out);
            }
            OpKind::ScaleRowsByScalar => {
                let x = s.reg_of[&node.inputs[0]];
                let sreg = s.reg_of[&node.inputs[1]];
                let out = self.alloc();
                s.ops.push(MicroKernel::ScaleRows { x, s: sreg, out });
                s.reg_of.insert(id, out);
            }
            OpKind::IndexAdd { .. } => {
                let data = s.reg_of[&node.inputs[0]];
                let idx = s.reg_of[&node.inputs[1]];
                s.ops.push(MicroKernel::ScatterAdd { data, idx });
            }
            other => {
                return Err(CompileError(format!(
                    "operation {other:?} is not supported in per-task programs"
                )));
            }
        }
        Ok(())
    }
}

/// All-pairs product `out[u, t] = x[u] @ w[t]` for `[u, f]` × `[t, f, f']`
/// into a zeroed `u * t * f'` buffer: one strided dense-kernel call per
/// weight slice, writing that slice's `f'` columns of every `[t, f']` row.
fn pairwise_into(x: View<'_>, w: View<'_>, out: &mut [f32]) {
    let (u, f) = (x.lead, x.rest[0]);
    let (t, fo) = (w.lead, w.rest[1]);
    assert_eq!(w.rest[0], f, "pairwise inner dimensions differ: {f} vs {}", w.rest[0]);
    assert_eq!(out.len(), u * t * fo, "pairwise output buffer mismatch");
    if u == 0 {
        return;
    }
    for b in 0..t {
        let wb = &w.data[b * f * fo..(b + 1) * f * fo];
        ops::matmul_strided_into(x.data, wb, [u, f, fo], &mut out[b * fo..], t * fo);
    }
}

/// Runs one gTask: executes `plan`'s segments over the task's `edges`,
/// accumulating into `out` and drawing every register value from `tws`.
/// This is the only per-task runner — the interpreter is
/// [`FusedPlan::interpreted`], the optimized path [`crate::fused::plan_fusion`],
/// and any plan over `program` produces the same bytes in `out` and the
/// same Work counters; only the `kernel.fused_*` resource counters tell
/// plans apart.
///
/// # Panics
///
/// Panics if `plan` does not belong to `program` (register or width
/// mismatches), a register is used before assignment, or a global tensor
/// is missing (compilation guarantees well-formed programs for valid
/// inputs).
pub fn run_task<'a>(
    program: &KernelProgram,
    plan: &FusedPlan,
    g: &Graph,
    globals: impl Into<Globals<'a>>,
    edges: &[u32],
    out: &mut Tensor,
    tws: &mut TaskWorkspace,
) {
    let mut sp = span!(
        "kernel.task",
        edges = edges.len(),
        segments = plan.segments.len()
    );
    let globals = globals.into();
    tws.prepare(program.num_regs);
    tws.work.tasks += 1;
    tws.work.edges += edges.len() as u64;
    let replaced = plan.replaced_ops();
    if replaced > 0 {
        tws.work.fused_tasks += 1;
        tws.work.fused_micro_ops += replaced as u64;
    }
    let flops_before = tws.work.flops;
    run_segments(program, &program.ops, &plan.segments, g, globals, edges, out, tws, |_, _| {});
    sp.arg("flops", tws.work.flops - flops_before);
}

/// Walks `segments`, a plan of one scope's `ops`, over `edges`: a fused
/// segment runs its kernel, an interpreter step its instruction. After
/// each segment, `done(pcs, tws)` sees the program counters it covered.
#[allow(clippy::too_many_arguments)]
fn run_segments(
    program: &KernelProgram,
    ops: &[MicroKernel],
    segments: &[Segment],
    g: &Graph,
    globals: Globals<'_>,
    edges: &[u32],
    out: &mut Tensor,
    tws: &mut TaskWorkspace,
    mut done: impl FnMut(Range<usize>, &mut TaskWorkspace),
) {
    for seg in segments {
        let pcs = match seg {
            Segment::Interp(pc) => {
                exec_op(program, &ops[*pc], g, globals, edges, out, tws);
                *pc..*pc + 1
            }
            Segment::Fused(fk) => {
                run_fused(program, fk, globals, out, tws);
                fk.pcs.clone()
            }
        };
        done(pcs, tws);
    }
}

/// Whether every row of `op`'s result is a function of the same row of its
/// per-edge operands alone (and of globals): run over any contiguous
/// chunk of the edges, it computes exactly those rows of the whole run.
/// A gather is, exactly when its source is a global: a register source
/// holds the task's values, not one row per edge.
fn row_local(op: &MicroKernel) -> bool {
    match op {
        MicroKernel::Gather { src, .. } | MicroKernel::Gather2D { src, .. } => src.reg().is_none(),
        MicroKernel::LoadStream { .. }
        | MicroKernel::MatMat { .. }
        | MicroKernel::PerRowVecMat { .. }
        | MicroKernel::Elementwise { .. }
        | MicroKernel::Squeeze { .. }
        | MicroKernel::ScaleRows { .. } => true,
        MicroKernel::Unique { .. }
        | MicroKernel::Pairwise { .. }
        | MicroKernel::SegmentSoftmax { .. }
        | MicroKernel::ScatterAdd { .. } => false,
    }
}

/// The program's per-call edge pass ([`KernelProgram::edge_ops`]) under a
/// [`FusedPlan`]'s edge segments, run over a plan's edges in plan order
/// (tasks in order, each task's edges in order). Its leading row-local
/// segments may run over contiguous chunks of the edges, each in its own
/// workspace ([`EdgePass::run_row_local`]); the rest runs over all of them
/// in one workspace ([`EdgePass::run_rest`]), which then holds the values
/// the pass publishes ([`EdgePass::publish`]): per `SegmentSoftmax`,
/// `(`[`edge_value_name`]`, [|E|, 1] tensor)` holding each plan edge's
/// value at its edge id, zero at edges the plan does not hold. Its FLOPs
/// and bytes count once, split over the workspaces that ran it.
///
/// Each destination's max and sum see its in-edges in plan order. On a
/// plan that holds every in-edge of a destination in one task, that is the
/// float sequence the task alone would see; a device that owns whole
/// destinations sees the sequence of the whole plan.
pub(crate) struct EdgePass<'a> {
    program: &'a KernelProgram,
    segments: &'a [Segment],
    /// Leading segments whose instructions are all [`row_local`].
    split: usize,
    /// Registers a `SegmentSoftmax` writes: what the pass publishes.
    published: Vec<Reg>,
    /// The program counters reading and writing each register.
    reads: Vec<Vec<usize>>,
    writes: Vec<Vec<usize>>,
}

impl<'a> EdgePass<'a> {
    /// The edge pass of `program` under `fplan`, or `None` when the
    /// program has none.
    pub(crate) fn new(program: &'a KernelProgram, fplan: &'a FusedPlan) -> Option<Self> {
        let ops = &program.edge_ops;
        if ops.is_empty() {
            return None;
        }
        let segments = fplan.edge_segments.as_slice();
        let split = segments
            .iter()
            .take_while(|seg| match seg {
                Segment::Interp(pc) => row_local(&ops[*pc]),
                Segment::Fused(fk) => ops[fk.pcs.clone()].iter().all(row_local),
            })
            .count();
        let published = ops
            .iter()
            .filter_map(|op| match op {
                MicroKernel::SegmentSoftmax { out, .. } => Some(*out),
                _ => None,
            })
            .collect();
        let AccessSummary { reads, writes, .. } = summarize(ops);
        Some(EdgePass { program, segments, split, published, reads, writes })
    }

    /// Runs `segments` over `edges` in `tws`. A register goes back to the
    /// pool after its last read, so the chain cycles through a few
    /// `|E|`-long buffers instead of parking one per instruction.
    fn run(
        &self,
        segments: &[Segment],
        g: &Graph,
        globals: Globals<'_>,
        edges: &[u32],
        tws: &mut TaskWorkspace,
    ) {
        // The pass stores nothing into an accumulator.
        let mut no_acc = Tensor::zeros(&[0, self.program.out_width]);
        let ops = &self.program.edge_ops;
        run_segments(self.program, ops, segments, g, globals, edges, &mut no_acc, tws, |pcs, tws| {
            for (r, at) in self.reads.iter().enumerate() {
                if at.last().is_some_and(|pc| pcs.contains(pc)) && !self.published.contains(&Reg(r)) {
                    release(&mut tws.regs, &mut tws.ws, Reg(r));
                }
            }
        });
    }

    /// Runs the leading row-local segments over `edges`, one contiguous
    /// chunk of the plan's, in a freshly prepared `tws`.
    pub(crate) fn run_row_local(
        &self,
        g: &Graph,
        globals: Globals<'_>,
        edges: &[u32],
        tws: &mut TaskWorkspace,
    ) {
        tws.prepare(self.program.num_regs);
        self.run(&self.segments[..self.split], g, globals, edges, tws);
    }

    /// The registers the row-local segments leave for the rest. Their rows
    /// over consecutive chunks of the edges, joined in chunk order
    /// ([`join_rows`]), are their rows over all of them.
    pub(crate) fn handoff(&self) -> Vec<Reg> {
        let split_pc = match self.segments.get(self.split) {
            Some(Segment::Interp(pc)) => *pc,
            Some(Segment::Fused(fk)) => fk.pcs.start,
            None => self.program.edge_ops.len(),
        };
        (0..self.reads.len())
            .filter(|&r| {
                self.writes[r].iter().any(|&pc| pc < split_pc)
                    && self.reads[r].iter().any(|&pc| pc >= split_pc)
            })
            .map(Reg)
            .collect()
    }

    /// Runs the remaining segments over all of `edges` in `tws`, whose
    /// registers hold the [`EdgePass::handoff`] values of all of `edges`.
    pub(crate) fn run_rest(
        &self,
        g: &Graph,
        globals: Globals<'_>,
        edges: &[u32],
        tws: &mut TaskWorkspace,
    ) {
        self.run(&self.segments[self.split..], g, globals, edges, tws);
    }

    /// The values the pass published, read from `tws` once
    /// [`EdgePass::run_rest`] ran there over `edges`.
    pub(crate) fn publish(
        &self,
        g: &Graph,
        edges: &[u32],
        tws: &TaskWorkspace,
    ) -> Vec<(String, Tensor)> {
        let publish = |&r: &Reg| {
            let mut value = vec![0.0; g.num_edges()];
            for (&e, &v) in edges.iter().zip(reg_tensor(&tws.regs, r).data()) {
                value[e as usize] = v;
            }
            (edge_value_name(r), Tensor::from_vec(value, &[g.num_edges(), 1]))
        };
        self.published.iter().map(publish).collect()
    }
}

/// Runs the program's per-call edge pass ([`EdgePass`]) over `plan`'s
/// edges in `tws` alone, and returns the values it publishes.
pub(crate) fn run_edge_pass(
    program: &KernelProgram,
    fplan: &FusedPlan,
    g: &Graph,
    plan: &PartitionPlan,
    globals: Globals<'_>,
    tws: &mut TaskWorkspace,
) -> Vec<(String, Tensor)> {
    let Some(pass) = EdgePass::new(program, fplan) else {
        return Vec::new();
    };
    let edges = plan.tasks.edges();
    let _sp = span!("engine.edge_prologue", edges = edges.len());
    pass.run_row_local(g, globals, edges, tws);
    pass.run_rest(g, globals, edges, tws);
    pass.publish(g, edges, tws)
}

/// Joins register `r`'s values over consecutive chunks of the edges,
/// held by `chunks` in chunk order, into one value over all of them in
/// `chunks[0]`, in a buffer from its pool; each chunk's value goes back to
/// its own pool.
///
/// # Panics
///
/// Panics if a chunk's register is empty or the chunks hold values of
/// different kinds or row extents.
pub(crate) fn join_rows(r: Reg, chunks: &mut [&mut TaskWorkspace]) {
    if chunks.len() < 2 {
        return;
    }
    let parts: Vec<RegValue> = chunks
        .iter_mut()
        .map(|c| c.regs[r.0].take().expect("handoff register assigned"))
        .collect();
    let ws = &mut chunks[0].ws;
    let joined = match &parts[0] {
        RegValue::Stream(_) => {
            let streams: Vec<&[u32]> = parts
                .iter()
                .map(|p| match p {
                    RegValue::Stream(s) => s.as_slice(),
                    RegValue::Tensor(_) => panic!("register {r:?} mixes kinds"),
                })
                .collect();
            let mut all = ws.take_u32(streams.iter().map(|s| s.len()).sum());
            concat(&streams, &mut all);
            RegValue::Stream(all)
        }
        RegValue::Tensor(first) => {
            let row = &first.dims()[1..];
            let tensors: Vec<&Tensor> = parts
                .iter()
                .map(|p| match p {
                    RegValue::Tensor(t) if &t.dims()[1..] == row => t,
                    _ => panic!("register {r:?} mixes kinds or row extents"),
                })
                .collect();
            let datas: Vec<&[f32]> = tensors.iter().map(|t| t.data()).collect();
            let mut all = ws.take(datas.iter().map(|d| d.len()).sum());
            concat(&datas, &mut all);
            let rows = tensors.iter().map(|t| t.dims()[0]).sum();
            RegValue::Tensor(Tensor::from_vec(all, &[&[rows], row].concat()))
        }
    };
    for (c, part) in chunks.iter_mut().zip(parts) {
        recycle_value(&mut c.ws, part);
    }
    chunks[0].regs[r.0] = Some(joined);
}

/// `parts` one after another into `out`, exactly as long.
fn concat<T: Copy>(parts: &[&[T]], out: &mut [T]) {
    let mut at = 0;
    for p in parts {
        out[at..at + p.len()].copy_from_slice(p);
        at += p.len();
    }
}

/// The sorted distinct values of `stream` and each position's index among
/// them (what `dfg::interp::unique_and_map` returns), in buffers from `ws`.
fn unique_into(stream: &[u32], ws: &mut Workspace) -> (Vec<u32>, Vec<u32>) {
    let mut uniq = ws.take_u32(stream.len());
    uniq.copy_from_slice(stream);
    uniq.sort_unstable();
    uniq.dedup();
    let mut map = ws.take_u32(stream.len());
    for (m, v) in map.iter_mut().zip(stream) {
        *m = uniq.binary_search(v).expect("value present") as u32;
    }
    (uniq, map)
}

/// The `len`-long slices of `src` starting at `starts`, one after another
/// into `out`.
fn copy_slices(src: &[f32], len: usize, starts: impl Iterator<Item = usize>, out: &mut [f32]) {
    for (n, at) in starts.enumerate() {
        out[n * len..(n + 1) * len].copy_from_slice(&src[at..at + len]);
    }
}

/// Executes a single micro-kernel instruction against the task workspace:
/// the step [`run_task`] and [`run_edge_pass`] take for every
/// instruction they interpret.
pub(crate) fn exec_op(
    program: &KernelProgram,
    op: &MicroKernel,
    g: &Graph,
    globals: Globals<'_>,
    edges: &[u32],
    out: &mut Tensor,
    tws: &mut TaskWorkspace,
) {
    let TaskWorkspace { regs, ws, work } = tws;
    // Every arm but `ScatterAdd` yields the register it writes last.
    let (dst, value) = match op {
        MicroKernel::LoadStream { attr, out } => {
            let mut s = ws.take_u32(edges.len());
            for (slot, &e) in s.iter_mut().zip(edges.iter()) {
                *slot = g.edge_attr(*attr, e as usize) as u32;
            }
            work.bytes_gathered += 4 * edges.len() as u64;
            (*out, RegValue::Stream(s))
        }
        MicroKernel::Unique { stream, values, map } => {
            let (u, m) = unique_into(reg_stream(regs, *stream), ws);
            set_reg(regs, ws, *values, RegValue::Stream(u));
            (*map, RegValue::Stream(m))
        }
        MicroKernel::Gather { src, idx, out } => {
            let srct = src.tensor(regs, &globals);
            let slice: usize = srct.dims()[1..].iter().product();
            let i = reg_stream(regs, *idx);
            let mut data = ws.take(i.len() * slice);
            copy_slices(srct.data(), slice, i.iter().map(|&r| r as usize * slice), &mut data);
            work.bytes_gathered += (4 * i.len() * slice) as u64;
            let dims = [&[i.len()], &srct.dims()[1..]].concat();
            (*out, RegValue::Tensor(Tensor::from_vec(data, &dims)))
        }
        MicroKernel::Gather2D { src, idx1, idx2, out } => {
            let srct = src.tensor(regs, &globals);
            let (d1, rest): (usize, usize) = (srct.dims()[1], srct.dims()[2..].iter().product());
            let i1 = reg_stream(regs, *idx1);
            let i2 = reg_stream(regs, *idx2);
            let starts = i1.iter().zip(i2).map(|(&a, &b)| (a as usize * d1 + b as usize) * rest);
            let mut data = ws.take(i1.len() * rest);
            copy_slices(srct.data(), rest, starts, &mut data);
            work.bytes_gathered += (4 * i1.len() * rest) as u64;
            (*out, RegValue::Tensor(Tensor::from_vec(data, &[i1.len(), rest])))
        }
        MicroKernel::Pairwise { x, w, out } => {
            let xv = reg_tensor(regs, *x);
            let wv = w.tensor(regs, &globals);
            let (u, td, fo) = (xv.dims()[0], wv.dims()[0], wv.dims()[2]);
            let mut buf = ws.take(u * td * fo);
            pairwise_into(xv.into(), wv.into(), &mut buf);
            work.flops += (2 * u * xv.dims()[1] * td * fo) as u64;
            (*out, RegValue::Tensor(Tensor::from_vec(buf, &[u, td, fo])))
        }
        MicroKernel::MatMat { x, w, out } => {
            let xv = reg_tensor(regs, *x);
            let wt = &globals[w.as_str()];
            let (m, n) = (xv.dims()[0], wt.dims()[1]);
            let mut buf = ws.take(m * n);
            ops::matmul_into(xv, wt, &mut buf);
            work.flops += (2 * m * xv.dims()[1] * n) as u64;
            (*out, RegValue::Tensor(Tensor::from_vec(buf, &[m, n])))
        }
        MicroKernel::PerRowVecMat { x, w, out } => {
            let xv = reg_tensor(regs, *x);
            let wv = reg_tensor(regs, *w);
            let (n, f) = (xv.dims()[0], xv.dims()[1]);
            let fo = wv.dims()[2];
            let mut data = ws.take(n * fo);
            let (x, w) = (xv.data(), wv.data());
            let rows = (0..n).map(|i| (&x[i * f..(i + 1) * f], &w[i * f * fo..(i + 1) * f * fo], i));
            ops::per_row_matmul_add_into(rows, [f, fo], &mut data);
            // Nominal FLOPs (the kernel's zero-skip is an execution
            // shortcut, not less work in the model).
            work.flops += (2 * n * f * fo) as u64;
            (*out, RegValue::Tensor(Tensor::from_vec(data, &[n, fo])))
        }
        MicroKernel::Elementwise { op, a, b, out } => {
            let av = reg_tensor(regs, *a);
            let mut buf = ws.take(av.numel());
            match (op, b) {
                (EwOp::Add, Some(b)) => ops::add_into(av, reg_tensor(regs, *b), &mut buf),
                (EwOp::Mul, Some(b)) => ops::mul_into(av, reg_tensor(regs, *b), &mut buf),
                (EwOp::Relu, _) => ops::relu_into(av, &mut buf),
                (EwOp::LeakyRelu, _) => ops::leaky_relu_into(av, LEAKY_SLOPE, &mut buf),
                _ => panic!("binary elementwise without second operand"),
            }
            work.flops += av.numel() as u64;
            (*out, RegValue::Tensor(Tensor::from_vec(buf, av.dims())))
        }
        MicroKernel::Squeeze { x, out } => {
            let xv = reg_tensor(regs, *x);
            let mut buf = ws.take(xv.numel());
            buf.copy_from_slice(xv.data());
            (*out, RegValue::Tensor(Tensor::from_vec(buf, &[xv.dims()[0]])))
        }
        MicroKernel::SegmentSoftmax { scores, seg, out } => {
            let sc = reg_tensor(regs, *scores);
            let segs = reg_stream(regs, *seg);
            let mut buf = ws.take(segs.len());
            ops::segment_softmax_into(sc, segs, g.num_vertices(), &mut buf);
            // max + exp + sum + divide passes, ~5 ops per element.
            work.flops += 5 * segs.len() as u64;
            (*out, RegValue::Tensor(Tensor::from_vec(buf, &[segs.len()])))
        }
        MicroKernel::ScaleRows { x, s, out } => {
            let xv = reg_tensor(regs, *x);
            let sv = reg_tensor(regs, *s);
            let mut buf = ws.take(xv.numel());
            ops::scale_rows_into(xv, sv, &mut buf);
            work.flops += xv.numel() as u64;
            (*out, RegValue::Tensor(Tensor::from_vec(buf, xv.dims())))
        }
        MicroKernel::ScatterAdd { data, idx } => {
            let d = reg_tensor(regs, *data);
            let i = reg_stream(regs, *idx);
            let width = program.out_width;
            for (row, &dst) in i.iter().enumerate() {
                let orow = out.row_mut(dst as usize);
                let drow = &d.data()[row * width..(row + 1) * width];
                for (o, &v) in orow.iter_mut().zip(drow) {
                    *o += v;
                }
            }
            work.flops += (i.len() * width) as u64;
            work.bytes_scattered += (4 * i.len() * width) as u64;
            return;
        }
    };
    set_reg(regs, ws, dst, value);
}

/// Register data-flow of one micro-kernel instruction: `(reads, writes)`.
///
/// The single source of truth for which virtual registers an instruction
/// consumes and produces, read through [`summarize`] by the fusion matcher
/// in [`crate::fused`] and the cluster's placement rules.
pub(crate) fn accesses(op: &MicroKernel) -> (Vec<Reg>, Vec<Reg>) {
    match op {
        MicroKernel::LoadStream { out, .. } => (vec![], vec![*out]),
        MicroKernel::Unique { stream, values, map } => {
            (vec![*stream], vec![*values, *map])
        }
        MicroKernel::Gather { src, idx, out } => {
            (src.reg().into_iter().chain([*idx]).collect(), vec![*out])
        }
        MicroKernel::Gather2D {
            src,
            idx1,
            idx2,
            out,
        } => (src.reg().into_iter().chain([*idx1, *idx2]).collect(), vec![*out]),
        MicroKernel::Pairwise { x, w, out } => {
            ([*x].into_iter().chain(w.reg()).collect(), vec![*out])
        }
        MicroKernel::MatMat { x, out, .. } => (vec![*x], vec![*out]),
        MicroKernel::PerRowVecMat { x, w, out } => (vec![*x, *w], vec![*out]),
        MicroKernel::Elementwise { a, b, out, .. } => {
            let mut r = vec![*a];
            r.extend(b.iter().copied());
            (r, vec![*out])
        }
        MicroKernel::Squeeze { x, out } => (vec![*x], vec![*out]),
        MicroKernel::SegmentSoftmax { scores, seg, out } => {
            (vec![*scores, *seg], vec![*out])
        }
        MicroKernel::ScaleRows { x, s, out } => (vec![*x, *s], vec![*out]),
        MicroKernel::ScatterAdd { data, idx } => (vec![*data, *idx], vec![]),
    }
}

/// The global tensor one instruction reads, if any. Together with
/// [`accesses`] this is the complete access set of a micro-kernel: named
/// globals are read-only in task scope, and the only write target outside
/// the register file is the task's accumulator (via `ScatterAdd`).
pub(crate) fn global_inputs(op: &MicroKernel) -> Option<&str> {
    match op {
        MicroKernel::Gather { src, .. } | MicroKernel::Gather2D { src, .. } => src.global(),
        MicroKernel::Pairwise { w, .. } => w.global(),
        MicroKernel::MatMat { w, .. } => Some(w),
        _ => None,
    }
}

/// Whole-program access summary: per-register def/use program counters
/// and index-stream provenance, all derived from [`accesses`] and the
/// operands of the ops themselves.
///
/// One derivation serves every consumer — the fusion matcher's
/// register-confinement checks in [`crate::fused`] and the cluster's
/// placement rules — so they can never drift apart on what a program
/// touches.
#[derive(Clone, Debug, Default)]
pub(crate) struct AccessSummary {
    /// Program counters reading each register, ascending.
    pub(crate) reads: Vec<Vec<usize>>,
    /// Program counters writing each register, ascending.
    pub(crate) writes: Vec<Vec<usize>>,
    /// For registers holding index streams, the edge attribute their
    /// values are drawn from, when that provenance is statically exact:
    /// `LoadStream` loads the attribute directly and `Unique`'s `values`
    /// output keeps the value domain of its input stream. Anything else —
    /// including multiply-written registers — is `None`.
    pub(crate) stream_origin: Vec<Option<AttrKind>>,
}

impl AccessSummary {
    /// `true` when register `r` is written exactly once, inside `lo..hi`,
    /// and read only after that write and before `hi` — i.e. the value
    /// never escapes the window, so skipping its materialization is
    /// unobservable.
    pub(crate) fn confined(&self, r: Reg, lo: usize, hi: usize) -> bool {
        let w = &self.writes[r.0];
        w.len() == 1
            && w[0] >= lo
            && w[0] < hi
            && self.reads[r.0].iter().all(|&pc| pc > w[0] && pc < hi)
    }
}

/// Builds the [`AccessSummary`] of a straight-line sequence of
/// micro-kernels — a program's `ops` or its `edge_ops`. The tables cover
/// every register the sequence names.
pub(crate) fn summarize(ops: &[MicroKernel]) -> AccessSummary {
    let max_reg = ops
        .iter()
        .flat_map(|op| {
            let (r, w) = accesses(op);
            r.into_iter().chain(w)
        })
        .map(|Reg(r)| r + 1)
        .max()
        .unwrap_or(0);
    let mut s = AccessSummary {
        reads: vec![Vec::new(); max_reg],
        writes: vec![Vec::new(); max_reg],
        stream_origin: vec![None; max_reg],
    };
    for (pc, op) in ops.iter().enumerate() {
        let (reads, writes) = accesses(op);
        for Reg(r) in reads {
            s.reads[r].push(pc);
        }
        for Reg(w) in writes {
            s.writes[w].push(pc);
        }
        match op {
            MicroKernel::LoadStream { attr, out } => {
                s.stream_origin[out.0] = Some(*attr);
            }
            MicroKernel::Unique { stream, values, map } => {
                s.stream_origin[values.0] = s.stream_origin[stream.0];
                s.stream_origin[map.0] = None;
            }
            _ => {}
        }
    }
    // Provenance is only exact under single assignment; a multiply-written
    // stream register could hold either origin at a use site.
    for r in 0..max_reg {
        if s.writes[r].len() != 1 {
            s.stream_origin[r] = None;
        }
    }
    s
}

/// The nodes `targets` depend on, walking inputs backwards but not past
/// the nodes `stop` (whose values the caller already holds).
fn ancestors_of(dfg: &Dfg, targets: &[NodeId], stop: &[NodeId]) -> Vec<bool> {
    let mut wanted = vec![false; dfg.len()];
    for t in targets {
        wanted[t.0] = true;
    }
    for (i, node) in dfg.nodes().iter().enumerate().rev() {
        if wanted[i] && !stop.contains(&NodeId(i)) {
            for p in &node.inputs {
                wanted[p.0] = true;
            }
        }
    }
    wanted
}

/// Whether a node's value has one row per vertex. Decided from the symbolic
/// shape, never from a tensor's extents: a weight whose leading extent
/// happens to equal `|V|` is still a weight.
pub(crate) fn vertex_rowed(dfg: &Dfg, id: NodeId) -> bool {
    dfg.node(id).shape.first() == Some(&Dim::Vertices)
}

/// The extents of one row of a vertex-rowed node, when its symbolic shape
/// fixes them without a binding (literal widths, the edge-type count): what
/// the engine needs to allocate the node's `[|V|, …]` tensor before any of
/// its rows exists. `None` for every other node.
pub(crate) fn row_dims(dfg: &Dfg, g: &Graph, id: NodeId) -> Option<Vec<usize>> {
    let (first, rest) = dfg.node(id).shape.split_first()?;
    if *first != Dim::Vertices {
        return None;
    }
    rest.iter()
        .map(|d| match d {
            Dim::Lit(n) => Some(*n),
            Dim::EdgeTypes => Some(g.num_edge_types()),
            _ => None,
        })
        .collect()
}

/// Checks, on the calling thread, that a call's plan and program belong to
/// `g` — every edge id of `plan` is one of `g`'s edges and `program` has
/// one output row per vertex of `g` — that `program` was compiled from
/// `dfg`, and that `globals` binds every live input of `dfg` to a tensor of
/// its declared extents, read from `g` without a `Binding`. Names `dfg`
/// does not read are allowed.
///
/// # Errors
///
/// Names the out-of-range edge id, a program of another DFG, the
/// mismatched row count, or the first input that is missing or has other
/// extents.
pub(crate) fn check_call(
    program: &KernelProgram,
    dfg: &Dfg,
    g: &Graph,
    plan: &PartitionPlan,
    globals: &HashMap<String, Tensor>,
) -> Result<(), CompileError> {
    if let Some(&e) = plan.tasks.edges().iter().max().filter(|&&e| e as usize >= g.num_edges()) {
        return Err(CompileError(format!(
            "the plan holds edge id {e}, but the graph has {} edges",
            g.num_edges()
        )));
    }
    if program.dfg_digest != dfg_digest(dfg) {
        return Err(CompileError("the program was compiled from another DFG".into()));
    }
    if program.out_rows != g.num_vertices() {
        return Err(CompileError(format!(
            "the program was compiled for {} vertex rows, but the graph has {} vertices",
            program.out_rows,
            g.num_vertices()
        )));
    }
    let live = dfg.live_set();
    for node in dfg.nodes().iter().zip(live).filter_map(|(n, l)| l.then_some(n)) {
        let OpKind::Input { name, shape } = &node.kind else { continue };
        let Some(t) = globals.get(name) else {
            return Err(CompileError(format!("input `{name}` is not among the globals")));
        };
        let fits = t.dims().len() == shape.len()
            && shape.iter().zip(t.dims()).all(|(d, &n)| match d {
                Dim::Vertices => n == g.num_vertices(),
                Dim::Edges => n == g.num_edges(),
                Dim::EdgeTypes => n == g.num_edge_types(),
                Dim::Lit(k) => n == *k,
                // Per-task extents; no input is declared with one.
                Dim::Unique(_) => true,
            });
        if !fits {
            return Err(CompileError(format!(
                "input `{name}` has extents {:?}, which its declared shape {shape:?} rules out",
                t.dims()
            )));
        }
    }
    Ok(())
}

/// Borrowed operand of a dense row kernel: `lead` rows of extents `rest`.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f32],
    lead: usize,
    rest: &'a [usize],
}

impl<'a> View<'a> {
    fn new(data: &'a [f32], dims: &'a [usize]) -> Self {
        let (lead, rest) = dims.split_first().map_or((1, dims), |(l, r)| (*l, r));
        View { data, lead, rest }
    }

    fn dims(&self) -> Vec<usize> {
        let mut d = vec![self.lead];
        d.extend_from_slice(self.rest);
        d
    }
}

impl<'a> From<&'a Tensor> for View<'a> {
    fn from(t: &'a Tensor) -> Self {
        View::new(t.data(), t.dims())
    }
}

/// A dense value while one row block is evaluated: the block's rows of a
/// vertex-rowed tensor, or all of one that is not. Borrowed when it is a
/// caller's seed or a finished target slice, owned when it was computed
/// into a scratch buffer.
pub(crate) struct DenseVal<'a> {
    data: Cow<'a, [f32]>,
    dims: Vec<usize>,
}

impl DenseVal<'_> {
    fn into_tensor(self) -> Tensor {
        Tensor::from_vec(self.data.into_owned(), &self.dims)
    }
}

/// Where the rows of one dense node go: `(node, slice)` pairs a caller
/// wants written in place, each slice zero-filled and exactly as long as
/// the node's rows of the block. A node is claimed (removed) when written.
pub(crate) type Targets<'v> = Vec<(NodeId, &'v mut [f32])>;

/// Buffers finished blocks hand back ([`recycle`]), so a worker walking
/// its row range allocates during its first block only.
pub(crate) type Scratch = Vec<Vec<f32>>;

/// Computes node `id`'s rows with `kernel` — straight into the node's
/// target slice when `targets` lists one, into a zero-filled scratch
/// buffer otherwise — and returns them as a value of extents `dims`.
///
/// # Panics
///
/// Panics if the claimed target does not hold exactly `dims` elements.
pub(crate) fn fill<'v>(
    id: NodeId,
    dims: Vec<usize>,
    targets: &mut Targets<'v>,
    scratch: &mut Scratch,
    kernel: impl FnOnce(&mut [f32]),
) -> DenseVal<'v> {
    let len: usize = dims.iter().product();
    let data = match targets.iter().position(|(t, _)| *t == id) {
        Some(k) => {
            let out = targets.swap_remove(k).1;
            assert_eq!(out.len(), len, "target of dense node {} has the wrong extents", id.0);
            kernel(out);
            Cow::Borrowed(&*out)
        }
        None => {
            let mut out = match scratch.pop() {
                Some(mut buf) => {
                    buf.clear();
                    buf.resize(len, 0.0);
                    buf
                }
                None => vec![0.0; len],
            };
            kernel(&mut out);
            Cow::Owned(out)
        }
    };
    DenseVal { data, dims }
}

/// Empties `values`, handing every owned buffer back to `scratch`.
pub(crate) fn recycle(values: &mut [Option<DenseVal<'_>>], scratch: &mut Scratch) {
    for v in values {
        if let Some(DenseVal { data: Cow::Owned(buf), .. }) = v.take() {
            scratch.push(buf);
        }
    }
}

/// `out[i] = f(a[i], b[i])` for operands of one shape.
fn zip_rows(a: View<'_>, b: View<'_>, out: &mut [f32], f: impl Fn(f32, f32) -> f32) {
    assert_eq!(a.data.len(), b.data.len(), "element-wise op shape mismatch");
    for (o, (&x, &y)) in out.iter_mut().zip(a.data.iter().zip(b.data)) {
        *o = f(x, y);
    }
}

/// `out[i] = f(a[i])`.
fn map_rows(a: View<'_>, out: &mut [f32], f: impl Fn(f32) -> f32) {
    for (o, &x) in out.iter_mut().zip(a.data) {
        *o = f(x);
    }
}

/// One dense phase of a layer — the prologue or the epilogue — as a
/// function of a vertex-row block: which nodes to evaluate, from which
/// tensors. Built once per call and shared by the workers, each of which
/// walks its row range block by block through [`DenseEval::block`].
pub(crate) struct DenseEval<'a> {
    dfg: &'a Dfg,
    g: &'a Graph,
    globals: Globals<'a>,
    wanted: Vec<bool>,
}

impl<'a> DenseEval<'a> {
    /// The edge-independent intermediates the per-task program gathers
    /// from.
    pub(crate) fn prologue(
        program: &KernelProgram,
        dfg: &'a Dfg,
        g: &'a Graph,
        globals: Globals<'a>,
    ) -> Self {
        let wanted = ancestors_of(dfg, &program.prologue, &[]);
        DenseEval { dfg, g, globals, wanted }
    }

    /// The nodes the outputs need downstream of the reduction, whose rows
    /// the caller seeds; what the prologue already computed for the
    /// per-task program is not computed again.
    pub(crate) fn epilogue(
        dfg: &'a Dfg,
        g: &'a Graph,
        globals: Globals<'a>,
        reduce_node: NodeId,
    ) -> Self {
        let wanted = ancestors_of(dfg, dfg.outputs(), &[reduce_node]);
        DenseEval { dfg, g, globals, wanted }
    }

    /// An empty value table for [`DenseEval::block`], indexed by node.
    pub(crate) fn values<'v>(&self) -> Vec<Option<DenseVal<'v>>> {
        (0..self.dfg.len()).map(|_| None).collect()
    }

    /// Operand `p` over vertex rows `rows`: a value already in the table,
    /// or the rows of (all of, when it is not vertex-rowed) an input
    /// tensor, borrowed in place.
    fn operand<'x>(
        &'x self,
        values: &'x [Option<DenseVal<'_>>],
        rows: &Range<usize>,
        p: NodeId,
    ) -> Option<View<'x>> {
        if let Some(v) = &values[p.0] {
            return Some(View::new(&v.data, &v.dims));
        }
        let OpKind::Input { name, .. } = &self.dfg.node(p).kind else {
            return None;
        };
        let t = &self.globals[name];
        if !vertex_rowed(self.dfg, p) {
            return Some(t.into());
        }
        let w = t.numel() / self.g.num_vertices().max(1);
        Some(View {
            data: &t.data()[rows.start * w..rows.end * w],
            lead: rows.len(),
            rest: &t.dims()[1..],
        })
    }

    /// Evaluates the phase's nodes for vertex rows `rows`, in topological
    /// order, into `values` (entries already present are the caller's
    /// seeds — vertex-rowed ones holding rows `rows` — and are kept);
    /// [`fill`] decides where each node's rows are written. Every
    /// operation here computes an output row from the same row of its
    /// vertex-rowed operands alone, so a row's bits do not depend on which
    /// rows are evaluated with it, in how many blocks, or on which thread.
    /// A node whose operation is not dense or whose operands are
    /// unavailable is left out of `values`, and its target in `targets`.
    pub(crate) fn block<'v>(
        &self,
        rows: &Range<usize>,
        values: &mut [Option<DenseVal<'v>>],
        targets: &mut Targets<'v>,
        scratch: &mut Scratch,
    ) {
        for (i, node) in self.dfg.nodes().iter().enumerate() {
            if !self.wanted[i]
                || values[i].is_some()
                || matches!(node.kind, OpKind::Input { .. })
            {
                continue;
            }
            let val = {
                let arg = |k: usize| {
                    node.inputs.get(k).and_then(|p| self.operand(values, rows, *p))
                };
                let (Some(a), b) = (arg(0), arg(1)) else { continue };
                if b.is_none() && node.inputs.len() > 1 {
                    continue;
                }
                let dims = match (&node.kind, b) {
                    (OpKind::Linear, Some(b)) => vec![a.lead, b.rest[0]],
                    (OpKind::PairwiseLinear, Some(b)) => vec![a.lead, b.lead, b.rest[1]],
                    (OpKind::ConcatCols, Some(b)) => vec![a.lead, a.rest[0] + b.rest[0]],
                    (OpKind::Add | OpKind::Mul, Some(_))
                    | (OpKind::Relu | OpKind::LeakyRelu | OpKind::ScaleByDegreeInv, _) => {
                        a.dims()
                    }
                    _ => continue,
                };
                fill(NodeId(i), dims, targets, scratch, |out| match (&node.kind, b) {
                    (OpKind::Linear, Some(b)) => {
                        let (m, k, n) = (a.lead, a.rest[0], b.rest[0]);
                        assert_eq!(b.lead, k, "matmul inner dimensions differ: {k} vs {}", b.lead);
                        ops::matmul_strided_into(a.data, b.data, [m, k, n], out, n)
                    }
                    (OpKind::PairwiseLinear, Some(b)) => pairwise_into(a, b, out),
                    (OpKind::Add, Some(b)) => zip_rows(a, b, out, |x, y| x + y),
                    (OpKind::Mul, Some(b)) => zip_rows(a, b, out, |x, y| x * y),
                    (OpKind::Relu, _) => map_rows(a, out, |x| x.max(0.0)),
                    (OpKind::LeakyRelu, _) => {
                        map_rows(a, out, |x| if x >= 0.0 { x } else { LEAKY_SLOPE * x })
                    }
                    (OpKind::ScaleByDegreeInv, _) => {
                        let n = a.rest[0];
                        out.copy_from_slice(a.data);
                        for (r, &d) in self.g.in_degree()[rows.clone()].iter().enumerate() {
                            let s = 1.0 / (d.max(1) as f32);
                            for v in &mut out[r * n..(r + 1) * n] {
                                *v *= s;
                            }
                        }
                    }
                    (OpKind::ConcatCols, Some(b)) => {
                        let (n1, n2) = (a.rest[0], b.rest[0]);
                        assert_eq!(a.lead, b.lead, "concat_cols row-count mismatch");
                        for r in 0..a.lead {
                            let o = &mut out[r * (n1 + n2)..(r + 1) * (n1 + n2)];
                            o[..n1].copy_from_slice(&a.data[r * n1..(r + 1) * n1]);
                            o[n1..].copy_from_slice(&b.data[r * n2..(r + 1) * n2]);
                        }
                    }
                    _ => unreachable!("extents were computed for this operation"),
                })
            };
            values[i] = Some(val);
        }
    }

    /// Every row in one block on the calling thread: the unblocked
    /// evaluation the engine's row-blocked phases are pinned against.
    fn all_rows<'v>(&self, mut values: Vec<Option<DenseVal<'v>>>) -> Vec<Option<DenseVal<'v>>> {
        let rows = 0..self.g.num_vertices();
        self.block(&rows, &mut values, &mut Vec::new(), &mut Vec::new());
        values
    }
}

/// Evaluates the epilogue — the DFG nodes after (or independent of) the
/// reduction, given the accumulated reduction value — every row in one
/// block on the calling thread: the serial reference the engine's
/// row-blocked reduce + epilogue phase is pinned against. An output that
/// is the reduction itself is `reduced`, moved.
///
/// # Panics
///
/// Panics if an epilogue node uses an unsupported operation (the per-task
/// compiler accepts the DFG first, so this indicates an internal error) or
/// a global tensor is missing.
pub(crate) fn run_epilogue(
    dfg: &Dfg,
    g: &Graph,
    globals: &HashMap<String, Tensor>,
    reduce_node: NodeId,
    reduced: Tensor,
) -> Vec<Tensor> {
    let _sp = span!("kernel.epilogue");
    let eval = DenseEval::epilogue(dfg, g, globals.into(), reduce_node);
    let dims = reduced.dims().to_vec();
    let mut values = eval.values();
    values[reduce_node.0] = Some(DenseVal { data: Cow::Owned(reduced.into_vec()), dims });
    let mut values = eval.all_rows(values);
    let mut computed: HashMap<NodeId, Tensor> = dfg
        .outputs()
        .iter()
        .filter_map(|o| Some((*o, values[o.0].take()?.into_tensor())))
        .collect();
    list_outputs(dfg, &mut computed)
}

/// The DFG's outputs in listing order, each moved out of `computed`;
/// copied only for an output that is listed again.
///
/// # Panics
///
/// Panics if an output was not computed.
pub(crate) fn list_outputs(dfg: &Dfg, computed: &mut HashMap<NodeId, Tensor>) -> Vec<Tensor> {
    let outs = dfg.outputs();
    outs.iter()
        .enumerate()
        .map(|(k, o)| {
            if outs[k + 1..].contains(o) {
                computed.get(o).cloned()
            } else {
                computed.remove(o)
            }
            .unwrap_or_else(|| panic!("output node {} not computed", o.0))
        })
        .collect()
}

/// Evaluates the program's prologue — the edge-independent intermediates
/// the per-task program gathers from (e.g. the pairwise table, hoisted
/// projections) — as `(`[`prologue_name`]`, tensor)` pairs in
/// `program.prologue` order, every row in one block on the calling thread:
/// the serial reference the engine's row-blocked prologue phase is pinned
/// against.
///
/// # Errors
///
/// Fails if a prologue node is not evaluable from `globals` alone.
pub(crate) fn eval_prologue(
    program: &KernelProgram,
    dfg: &Dfg,
    g: &Graph,
    globals: &HashMap<String, Tensor>,
) -> Result<Vec<(String, Tensor)>, CompileError> {
    let eval = DenseEval::prologue(program, dfg, g, globals.into());
    let mut values = eval.all_rows(eval.values());
    program
        .prologue
        .iter()
        .map(|id| {
            let v = values[id.0].take().ok_or_else(|| not_evaluable(*id))?;
            Ok((prologue_name(*id), v.into_tensor()))
        })
        .collect()
}

/// The error of a prologue node the dense evaluator cannot compute.
pub(crate) fn not_evaluable(id: NodeId) -> CompileError {
    CompileError(format!("prologue node {} not evaluable", id.0))
}

/// Evaluates every edge-independent, live, dense node of the DFG once.
pub fn eval_edge_independent_public(
    dfg: &Dfg,
    g: &Graph,
    globals: &HashMap<String, Tensor>,
) -> HashMap<NodeId, Tensor> {
    let edge_dep = edge_dependence(dfg);
    let wanted: Vec<bool> =
        dfg.live_set().iter().zip(&edge_dep).map(|(&l, &e)| l && !e).collect();
    let eval = DenseEval { dfg, g, globals: globals.into(), wanted };
    eval.all_rows(eval.values())
        .into_iter()
        .enumerate()
        .filter_map(|(i, v)| Some((NodeId(i), v?.into_tensor())))
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::engine::Engine;
    use wisegraph_dfg::interp::execute;
    use wisegraph_dfg::{transform, Binding};
    use wisegraph_dfg::op::LEAKY_SLOPE;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_gtask::restriction::enumerate_tables;
    use wisegraph_gtask::{partition, PartitionTable};
    use wisegraph_models::ModelKind;
    use wisegraph_tensor::init;
    use wisegraph_testkit::prop::TestCaseError;
    use wisegraph_testkit::{prop_assert, proptest};

    /// A value for every input the four models' layer DFGs read.
    pub(crate) fn globals_for(g: &Graph, fi: usize, fo: usize) -> HashMap<String, Tensor> {
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
        m.insert("a_src".into(), init::uniform_tensor(&[fo, 1], -1.0, 1.0, 6));
        m.insert("a_dst".into(), init::uniform_tensor(&[fo, 1], -1.0, 1.0, 7));
        m
    }

    #[test]
    fn compiled_gcn_matches_interpreter() {
        let g = rmat(&RmatParams::standard(70, 500, 31).with_edge_types(2));
        let (fi, fo) = (5, 4);
        let dfg = ModelKind::Gcn.layer_dfg(fi, fo);
        let globals = globals_for(&g, fi, fo);
        let reference = &execute(&dfg, &g, &globals).unwrap()[0];
        for table in [
            PartitionTable::vertex_centric(),
            PartitionTable::edge_batch(16),
            PartitionTable::two_d(4),
        ] {
            let plan = partition(&g, &table);
            let got = &Engine::new(1).execute(&dfg, &g, &plan, &globals).unwrap()[0];
            assert!(
                reference.allclose(got, 1e-3),
                "{table}: diff {}",
                reference.max_abs_diff(got)
            );
        }
    }

    #[test]
    fn compiled_rgcn_matches_interpreter() {
        let g = rmat(&RmatParams::standard(60, 400, 33).with_edge_types(3));
        let (fi, fo) = (4, 3);
        let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
        let globals = globals_for(&g, fi, fo);
        let reference = &execute(&dfg, &g, &globals).unwrap()[0];
        let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
        let got = &Engine::new(1).execute(&dfg, &g, &plan, &globals).unwrap()[0];
        assert!(
            reference.allclose(got, 1e-3),
            "diff {}",
            reference.max_abs_diff(got)
        );
    }

    #[test]
    fn compiled_transformed_rgcn_matches_interpreter() {
        // The transformed DFG (unique extraction + pairwise + Index2D)
        // compiles to dedup/pairwise micro-kernels and still matches.
        let g = rmat(&RmatParams::standard(40, 300, 35).with_edge_types(3));
        let (fi, fo) = (4, 3);
        let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
        let binding = Binding::from_graph(&g);
        let (opt, _) = transform::optimize(&dfg, &binding);
        let globals = globals_for(&g, fi, fo);
        let reference = &execute(&dfg, &g, &globals).unwrap()[0];
        let plan = partition(&g, &PartitionTable::src_batch_per_type(16));
        let got = &Engine::new(1).execute(&opt, &g, &plan, &globals).unwrap()[0];
        assert!(
            reference.allclose(got, 1e-3),
            "diff {}",
            reference.max_abs_diff(got)
        );
    }

    #[test]
    fn compiled_sage_epilogue_join() {
        // SAGE joins an edge-independent branch (self projection) in the
        // epilogue.
        let g = rmat(&RmatParams::standard(50, 350, 37));
        let (fi, fo) = (4, 3);
        let dfg = ModelKind::Sage.layer_dfg(fi, fo);
        let globals = globals_for(&g, fi, fo);
        let reference = &execute(&dfg, &g, &globals).unwrap()[0];
        let plan = partition(&g, &PartitionTable::edge_batch(32));
        let got = &Engine::new(1).execute(&dfg, &g, &plan, &globals).unwrap()[0];
        assert!(
            reference.allclose(got, 1e-3),
            "diff {}",
            reference.max_abs_diff(got)
        );
    }

    #[test]
    fn compiled_gat_runs_on_every_plan() {
        // The softmax and its score chain run once per call; each task
        // runs the weighted aggregation, reading α by edge id.
        let g = rmat(&RmatParams::standard(40, 300, 39));
        let (fi, fo) = (4, 3);
        let dfg = ModelKind::Gat.layer_dfg(fi, fo);
        let program = compile(&dfg, &g).unwrap();
        assert!(matches!(
            program.edge_ops.last(),
            Some(MicroKernel::SegmentSoftmax { .. })
        ));
        assert_eq!(program.ops.len(), 8);
        assert!(!program.ops.iter().any(|k| matches!(k, MicroKernel::SegmentSoftmax { .. })));

        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 91),
        );
        globals.insert(
            "w".to_string(),
            init::uniform_tensor(&[fi, fo], -1.0, 1.0, 92),
        );
        globals.insert(
            "a_src".to_string(),
            init::uniform_tensor(&[fo, 1], -1.0, 1.0, 93),
        );
        globals.insert(
            "a_dst".to_string(),
            init::uniform_tensor(&[fo, 1], -1.0, 1.0, 94),
        );
        let reference = &execute(&dfg, &g, &globals).unwrap()[0];
        // Whole destinations per task, and destinations split across
        // tasks.
        for table in [PartitionTable::vertex_centric(), PartitionTable::edge_batch(7)] {
            let plan = partition(&g, &table);
            let got = &Engine::new(1).execute(&dfg, &g, &plan, &globals).unwrap()[0];
            assert!(
                reference.allclose(got, 1e-3),
                "{table}: diff {}",
                reference.max_abs_diff(got)
            );
        }
    }

    #[test]
    fn segment_softmax_compiles_only_segmented_by_destination() {
        let g = rmat(&RmatParams::standard(40, 300, 45));
        // What the rewrites make of GAT keeps the dst-id segment stream.
        let gat = ModelKind::Gat.layer_dfg(4, 3);
        for cand in transform::candidates(&gat, &Binding::from_graph(&g)) {
            assert!(!compile(&cand, &g).unwrap().edge_ops.is_empty());
        }
        // Segmented by source, a device owning whole destinations would
        // not hold whole segments.
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(1)]);
        let src = d.edge_attr(AttrKind::SrcId);
        let dst = d.edge_attr(AttrKind::DstId);
        let hs = d.index(h, src);
        let scores = d.squeeze_col(hs);
        let alpha = d.segment_softmax(scores, src);
        let weighted = d.scale_rows(hs, alpha);
        let out = d.index_add(weighted, dst, Dim::Vertices);
        d.mark_output(out);
        let err = compile(&d, &g).unwrap_err();
        assert!(err.0.contains("destination-id"), "{err}");
    }

    #[test]
    fn dense_row_kernels_replay_tensor_ops_bit_for_bit() {
        // One node per dense operation, evaluated by the row kernels in
        // one block and in ragged blocks, against the `tensor::ops` chain.
        let g = rmat(&RmatParams::standard(37, 260, 47).with_edge_types(3));
        let (v, fi, fo) = (g.num_vertices(), 4, 3);
        let mut dfg = Dfg::new();
        let h = dfg.input("h", vec![Dim::Vertices, Dim::Lit(fi)]);
        let w = dfg.input("w", vec![Dim::Lit(fi), Dim::Lit(fo)]);
        let wt = dfg.input("W", vec![Dim::EdgeTypes, Dim::Lit(fi), Dim::Lit(fo)]);
        let lin = dfg.linear(h, w);
        let relu = dfg.relu(lin);
        let leaky = dfg.leaky_relu(lin);
        let add = dfg.add(relu, leaky);
        let mul = dfg.mul(add, lin);
        let scaled = dfg.scale_by_degree_inv(mul);
        let cat = dfg.concat_cols(scaled, lin);
        let pair = dfg.pairwise_linear(h, wt);
        dfg.mark_output(cat);
        dfg.mark_output(pair);

        let mut globals = globals_for(&g, fi, fo);
        // Exact zeros exercise the multiply-skip, negatives the gates.
        let mut hd = init::uniform_tensor(&[v, fi], -1.0, 1.0, 48).into_vec();
        hd.iter_mut().step_by(5).for_each(|x| *x = 0.0);
        hd.iter_mut().skip(2).step_by(7).for_each(|x| *x = -0.0);
        globals.insert("h".into(), Tensor::from_vec(hd, &[v, fi]));
        let (ht, wg, wtg) = (&globals["h"], &globals["w"], &globals["W"]);

        let want_lin = ops::matmul(ht, wg);
        let want_add = ops::add(&ops::relu(&want_lin), &ops::leaky_relu(&want_lin, LEAKY_SLOPE));
        let want_mul = ops::mul(&want_add, &want_lin);
        let scales: Vec<f32> =
            g.in_degree().iter().map(|&d| 1.0 / (d.max(1) as f32)).collect();
        let want_scaled = ops::scale_rows(&want_mul, &Tensor::from_vec(scales, &[v]));
        let want_cat = ops::concat_cols(&want_scaled, &want_lin);
        let types = g.num_edge_types();
        let mut want_pair = vec![0.0f32; v * types * fo];
        for t in 0..types {
            let slice = wtg.data()[t * fi * fo..(t + 1) * fi * fo].to_vec();
            let per_type = ops::matmul(ht, &Tensor::from_vec(slice, &[fi, fo]));
            for u in 0..v {
                want_pair[(u * types + t) * fo..(u * types + t + 1) * fo]
                    .copy_from_slice(per_type.row(u));
            }
        }
        let bits = |x: &[f32]| x.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();

        let all = eval_edge_independent_public(&dfg, &g, &globals);
        assert_eq!(bits(all[&cat].data()), bits(want_cat.data()));
        assert_eq!(all[&cat].dims(), want_cat.dims());
        assert_eq!(bits(all[&pair].data()), bits(&want_pair));
        assert_eq!(all[&pair].dims(), [v, types, fo]);

        // The same rows in ragged blocks, written straight into targets.
        let eval = DenseEval {
            dfg: &dfg,
            g: &g,
            globals: (&globals).into(),
            wanted: vec![true; dfg.len()],
        };
        let (mut got_cat, mut got_pair) = (vec![0.0; v * 2 * fo], vec![0.0; v * types * fo]);
        let (mut rest_cat, mut rest_pair) = (got_cat.as_mut_slice(), got_pair.as_mut_slice());
        let mut scratch = Scratch::new();
        let mut values = eval.values();
        for rows in [0..1, 1..14, 14..14, 14..v] {
            let (c, tail_c) = rest_cat.split_at_mut(rows.len() * 2 * fo);
            let (p, tail_p) = rest_pair.split_at_mut(rows.len() * types * fo);
            (rest_cat, rest_pair) = (tail_c, tail_p);
            let mut targets: Targets<'_> = vec![(cat, c), (pair, p)];
            eval.block(&rows, &mut values, &mut targets, &mut scratch);
            assert!(targets.is_empty());
            recycle(&mut values, &mut scratch);
        }
        assert_eq!(bits(&got_cat), bits(want_cat.data()));
        assert_eq!(bits(&got_pair), bits(&want_pair));
    }

    /// A graph of `v` vertices and `e` random edges of `types` types: the
    /// draws reach no edges, one vertex, isolated vertices and one type.
    fn small_graph(v: usize, e: usize, types: usize, seed: u64) -> Graph {
        let mut rng = wisegraph_testkit::rng::Rng::seed_from_u64(seed);
        let mut draw = |n: usize| (0..e).map(|_| rng.below(n as u64) as u32).collect();
        let (src, dst, ty) = (draw(v), draw(v), draw(types));
        Graph::new(v, types, src, dst, ty)
    }

    proptest! {
        #![proptest_config(wisegraph_testkit::prop::ProptestConfig::with_cases(32))]

        /// Compile implies run: every candidate DFG of every model, under
        /// every enumerable table and a few thread counts, either fails in
        /// `compile` or runs on the engine to the interpreter's output.
        /// The only compile errors are SAGE-LSTM's and the gather from a
        /// rank-3 register of RGCN's extracted candidate.
        fn every_candidate_is_a_compile_error_or_matches_the_interpreter(
            v in 1usize..14,
            e in 0usize..48,
            types in 1usize..4,
            seed in 0u64..1000,
        ) {
            let g = small_graph(v, e, types, seed);
            let (fi, fo) = (5, 4);
            let mut globals = globals_for(&g, fi, fo);
            for (name, dims, seed) in [
                ("a_src", vec![fo, 1], 51),
                ("a_dst", vec![fo, 1], 52),
                ("wx", vec![fi, 4 * fo], 53),
                ("wh", vec![fo, 4 * fo], 54),
                ("b", vec![4 * fo], 55),
                ("w_out", vec![fo, fo], 56),
            ] {
                globals.insert(name.into(), init::uniform_tensor(&dims, -1.0, 1.0, seed));
            }
            let attrs = [AttrKind::SrcId, AttrKind::DstId, AttrKind::EdgeType];
            let plans: Vec<_> = enumerate_tables(&attrs, &[2, 8])
                .iter()
                .map(|t| partition(&g, t))
                .collect();
            for model in ModelKind::ALL {
                let base = model.layer_dfg(fi, fo);
                for (c, dfg) in transform::candidates(&base, &Binding::from_graph(&g))
                    .iter()
                    .enumerate()
                {
                    let program = match compile(dfg, &g) {
                        Ok(p) => p,
                        Err(e) => {
                            let expected = model == ModelKind::SageLstm
                                || (model == ModelKind::Rgcn
                                    && c >= 2
                                    && e.0.contains("rank-3 task register"));
                            prop_assert!(expected, "{} candidate {c}: {e}", model.name());
                            continue;
                        }
                    };
                    prop_assert!(model != ModelKind::SageLstm);
                    let want = &execute(dfg, &g, &globals).unwrap()[0];
                    for plan in &plans {
                        for threads in [1, 2, 3] {
                            let ctx = format!(
                                "{} candidate {c} on {} at {threads}",
                                model.name(),
                                plan.table
                            );
                            let got = Engine::new(threads)
                                .execute_program(&program, dfg, &g, plan, &globals)
                                .map_err(|e| TestCaseError(format!("{ctx}: {e}")))?;
                            prop_assert!(want.allclose(&got[0], 1e-3), "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_unique_matches_the_interpreter() {
        let mut rng = wisegraph_testkit::rng::Rng::seed_from_u64(61);
        let mut ws = Workspace::new();
        let mut streams = vec![Vec::new(), vec![7, 7, 7], vec![u32::MAX, 0, u32::MAX]];
        for (len, range) in [(40, 30u64), (40, 1_000_000), (300, 9)] {
            streams.push((0..len).map(|_| rng.below(range) as u32).collect());
        }
        for stream in &streams {
            let (u, m) = unique_into(stream, &mut ws);
            assert_eq!(
                (u.clone(), m.clone()),
                wisegraph_dfg::interp::unique_and_map(stream),
                "{stream:?}"
            );
            ws.give_u32(u);
            ws.give_u32(m);
        }
        // Every buffer came from, and went back to, the pool.
        assert_eq!(ws.open_leases(), 0);
    }

    #[test]
    fn program_structure_is_sensible() {
        let g = rmat(&RmatParams::standard(20, 100, 41).with_edge_types(2));
        let dfg = ModelKind::Rgcn.layer_dfg(3, 2);
        let program = compile(&dfg, &g).unwrap();
        // Loads streams, gathers h and W, multiplies, scatters.
        let gathered: Vec<_> = program
            .ops
            .iter()
            .filter_map(|k| match k {
                MicroKernel::Gather { src, .. } => src.global(),
                _ => None,
            })
            .collect();
        assert_eq!(gathered, ["h", "W"]);
        assert!(program
            .ops
            .iter()
            .any(|k| matches!(k, MicroKernel::PerRowVecMat { .. })));
        assert!(matches!(
            program.ops.last(),
            Some(MicroKernel::ScatterAdd { .. })
        ));
        assert_eq!(program.out_width, 2);

        // Every model × compiling rewrite: (model, candidate, [ops,
        // edge_ops, prologue] lengths, num_regs, fused patterns,
        // compatible placements).
        let g = rmat(&RmatParams::standard(40, 300, 45).with_edge_types(3));
        let (fi, fo) = (5, 4);
        let globals = globals_for(&g, fi, fo);
        let mut got = Vec::new();
        for model in ModelKind::ALL {
            let base = model.layer_dfg(fi, fo);
            for (c, dfg) in transform::candidates(&base, &Binding::from_graph(&g)).iter().enumerate() {
                let Ok(p) = compile(dfg, &g) else { continue };
                let patterns: Vec<_> = crate::fused::plan_fusion(&p)
                    .patterns()
                    .into_iter()
                    .map(|f| f.name())
                    .collect();
                let placements: Vec<_> = crate::cluster::compatible_placements(&p, &g, &globals)
                    .into_iter()
                    .map(|k| k.name())
                    .collect();
                let lens = [p.ops.len(), p.edge_ops.len(), p.prologue.len()];
                got.push(format!(
                    "{} {c} {lens:?} {} [{}] [{}]",
                    model.name(),
                    p.num_regs,
                    patterns.join(", "),
                    placements.join(", ")
                ));
            }
        }
        let (dp, ptc) = ("data_parallel", "project_then_communicate");
        let (ctr, tp) = ("compute_then_reduce", "tensor_parallel");
        let want = [
            format!("RGCN 0 [7, 0, 0] 6 [per_type_batched_matmul] [{dp}, {ctr}, {tp}]"),
            format!("RGCN 1 [5, 0, 1] 4 [pairwise_scatter] [{dp}, {ptc}]"),
            format!("RGCN 3 [10, 0, 0] 11 [pairwise_scatter] [{dp}, {ctr}, {tp}]"),
            format!("GAT 0 [8, 8, 3] 15 [edge_score, weighted_segment_reduce] [{dp}, {ptc}]"),
            format!("GAT 1 [8, 8, 3] 15 [edge_score, weighted_segment_reduce] [{dp}, {ptc}]"),
            format!("GAT 2 [10, 13, 3] 25 [] [{dp}, {ptc}]"),
            format!("GAT 3 [10, 13, 3] 25 [] [{dp}, {ptc}]"),
            format!("SAGE 0 [4, 0, 0] 3 [segment_reduce] [{dp}, {ctr}, {tp}]"),
            format!("SAGE 1 [4, 0, 0] 3 [segment_reduce] [{dp}, {ctr}, {tp}]"),
            format!("SAGE 2 [6, 0, 0] 6 [] [{dp}, {ctr}, {tp}]"),
            format!("SAGE 3 [6, 0, 0] 6 [] [{dp}, {ctr}, {tp}]"),
            format!("GCN 0 [4, 0, 0] 3 [segment_reduce] [{dp}, {ctr}, {tp}]"),
            format!("GCN 1 [4, 0, 0] 3 [segment_reduce] [{dp}, {ctr}, {tp}]"),
            format!("GCN 2 [6, 0, 0] 6 [] [{dp}, {ctr}, {tp}]"),
            format!("GCN 3 [6, 0, 0] 6 [] [{dp}, {ctr}, {tp}]"),
        ];
        assert_eq!(got, want);
    }
}
