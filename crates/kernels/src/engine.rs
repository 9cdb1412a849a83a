//! Parallel gTask execution engine.
//!
//! gTasks are independent units of work (their scatter targets only
//! overlap additively), so the compiled per-task programs parallelize
//! across CPU threads the way thread blocks parallelize across SMs. A call
//! is three phases, each spread over all of the engine's workers, so a
//! layer's critical path is its work ÷ threads:
//!
//! 1. **Prologue** (programs that have one): each worker owns a contiguous
//!    range of vertex rows and evaluates the edge-independent intermediates
//!    for it, `ROW_BLOCK` rows at a time, into its slice of the prologue
//!    tensors.
//! 2. **Tasks**: a program with a per-call edge pass (a per-destination
//!    softmax) first runs it over the plan's edges, in plan order: its
//!    row-local head on every worker over a contiguous chunk of the edges,
//!    the softmax and the publishing on the calling thread
//!    (`Engine::edge_pass`); then [`deal_tasks`] deals the plan's tasks to
//!    worker slots, and each worker accumulates into a private
//!    `[|V|, width]` partial.
//! 3. **Reduce + epilogue**: each worker owns a contiguous range of vertex
//!    rows again; per block it adds the partials' rows in ascending slot
//!    order and runs the epilogue chain on them straight into its slice of
//!    the output, while the block is still in cache.
//!
//! Every dense operation computes an output row from the same row of its
//! operands, so a row's bits depend neither on the block size nor on the
//! thread count; the sum a row sees is a pure function of `(plan,
//! threads)` through [`deal_tasks`]. Results are therefore bit-identical
//! run to run at a fixed thread count, bit-identical across thread counts
//! for plans whose tasks do not share destination rows across slots, and
//! bit-identical to the allocating reference ([`execute_parallel_alloc`]).
//!
//! An [`Engine`] owns one [`TaskWorkspace`] and one partial per worker
//! slot, both persisting across calls: a caller executing the same plan
//! on every step re-uses every buffer after the first call.
//!
//! [`Engine::execute`], [`Engine::execute_program`] and
//! [`Engine::accumulate_program`] are the entry points; all three accept
//! any plan and run every gTask through [`run_task`] under the plan the
//! engine's [`ExecMode`] selects. The prologue and reduce + epilogue
//! phases read a [`Globals`] view and the latter takes a row range, so a
//! cluster device (`crate::cluster`) runs the same phases over the rows
//! it holds and owns.

use crate::fused::{plan_fusion, FusedPlan};
use crate::micro::{
    check_call, compile, eval_prologue, fill, join_rows, list_outputs, not_evaluable,
    prologue_name, recycle, row_dims, run_edge_pass, run_epilogue, run_task, CompileError,
    DenseEval, EdgePass, Globals, KernelProgram, Scratch, Targets, TaskWorkspace,
};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use wisegraph_dfg::{Dfg, NodeId};
use wisegraph_graph::Graph;
use wisegraph_gtask::PartitionPlan;
use wisegraph_obs::{keys, span, with_lane, Class, Counters, Session};
use wisegraph_tensor::{ops, Tensor};

/// Vertex rows per block of a dense phase. A block's intermediates (a few
/// `[ROW_BLOCK, F]` buffers) stay in L2 from one operation of the chain to
/// the next instead of making a `[|V|, F]` round trip through memory each.
/// Measured on the AR-size graph at F = 64, two threads: 128 / 512 /
/// 2 048 rows alike within run-to-run noise (SAGE's dense phases 29–39 /
/// 30–34 / 25–49 ms); one block per worker loses the gain (72–74 ms).
const ROW_BLOCK: usize = 512;

/// Most consecutive tasks dealt to a slot at a time. Tasks are sorted by
/// the plan's restriction keys, so a block keeps their locality while the
/// round-robin spreads a power-law graph's heavy stretch over all slots.
/// Measured per-worker edge skew on the three benchmark tables (vertex-
/// centric / edge-batch 64 / src-batch-per-type 64, RMAT, AR size) at 32:
/// 1.008 / 1.003 / 1.036 at two threads and 1.19–1.27 at four, against
/// 1.42 / 1.00 / 1.34 and 1.93 for one contiguous chunk per slot.
const TASK_BLOCK: usize = 32;

/// The deterministic task-to-slot assignment shared by [`Engine`] and
/// [`execute_parallel_alloc`]: `deal_tasks(n, t)[s]` lists, in ascending
/// order, the ranges of task indices worker slot `s` runs. Blocks of
/// consecutive tasks — `TASK_BLOCK` of them, fewer when `n` is too small
/// to give every slot a full block — go round-robin to at most `threads`
/// slots; one slot runs `0..n` in order. A pure function of its two
/// arguments, so its tests check exact-once coverage directly, and the
/// order in which a destination row's addends meet is a function of
/// `(plan, threads)` alone.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn deal_tasks(num_tasks: usize, threads: usize) -> Vec<Vec<Range<usize>>> {
    assert!(threads > 0, "need at least one worker");
    let block = num_tasks.div_ceil(threads).clamp(1, TASK_BLOCK);
    let mut slots = vec![Vec::new(); threads.min(num_tasks.div_ceil(block))];
    for (b, start) in (0..num_tasks).step_by(block).enumerate() {
        slots[b % threads].push(start..(start + block).min(num_tasks));
    }
    slots
}

/// Persistent state of one worker: its task workspace and the partial
/// accumulator it scatters into.
#[derive(Default)]
struct WorkerSlot {
    tws: TaskWorkspace,
    acc: Option<Tensor>,
}

/// Which [`FusedPlan`] the engine runs compiled per-task programs under.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Run [`plan_fusion`]'s plan: matched chains as fused kernels, every
    /// other instruction as an interpreter step (a program with no matched
    /// chain runs fully interpreted). The default.
    #[default]
    Fused,
    /// Run [`FusedPlan::interpreted`]: the instruction-at-a-time reference.
    Interpret,
}

/// A reusable parallel executor with persistent per-worker workspaces.
pub struct Engine {
    slots: Vec<Mutex<WorkerSlot>>,
    mode: ExecMode,
    lane_base: u32,
    /// Largest per-worker edge skew of any execution so far, in permille.
    edge_skew: AtomicU64,
}

/// What the reduce phase adds up: the program (for the reduction node and
/// width) and the per-slot partials, in slot order.
type Reduce<'a> = (&'a KernelProgram, &'a [Tensor]);

impl Engine {
    /// Creates an engine with `threads` worker slots in the default
    /// [`ExecMode::Fused`].
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        Self::with_mode(threads, ExecMode::default())
    }

    /// Creates an engine with `threads` worker slots and an explicit
    /// execution mode. The differential harness in `tests/fused_parity.rs`
    /// runs [`ExecMode::Interpret`] against [`ExecMode::Fused`] engines.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_mode(threads: usize, mode: ExecMode) -> Self {
        Self::with_lane_base(threads, mode, 0)
    }

    /// Creates an engine whose worker slots record observability spans on
    /// lanes `lane_base + 1 ..= lane_base + threads`. A multi-device
    /// cluster gives each device engine a disjoint lane range so
    /// concurrently running devices never interleave their span streams
    /// on one lane — the `(lane, seq)` merge stays deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub(crate) fn with_lane_base(threads: usize, mode: ExecMode, lane_base: u32) -> Self {
        assert!(threads > 0, "need at least one worker");
        Self {
            slots: (0..threads).map(|_| Mutex::new(WorkerSlot::default())).collect(),
            mode,
            lane_base,
            edge_skew: AtomicU64::new(0),
        }
    }

    /// Number of worker slots.
    pub fn threads(&self) -> usize {
        self.slots.len()
    }

    /// The engine's execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Merged counters across all worker slots, honoring each metric's
    /// policy (counts sum; peaks take the per-worker maximum), plus the
    /// engine's own `engine.threads` and, once tasks ran,
    /// `engine.worker_edge_skew_permille`.
    pub fn stats(&self) -> Counters {
        let mut c = Counters::new();
        for s in &self.slots {
            c.merge(&s.lock().expect("engine slot poisoned").tws.stats());
        }
        c.record_max(keys::ENGINE_THREADS, self.threads() as u64, Class::Resource);
        let skew = self.edge_skew.load(Ordering::Relaxed);
        if skew > 0 {
            c.record_max(keys::ENGINE_WORKER_EDGE_SKEW, skew, Class::Resource);
        }
        c
    }

    /// Executes a compiled plan across the engine's workers and returns the
    /// DFG outputs. Buffers and accumulators persist into the next call.
    ///
    /// # Errors
    ///
    /// Returns the compile error if the DFG cannot run per task, or an
    /// error naming a DFG input that `globals` lacks or binds to a tensor
    /// of other extents (see [`Engine::execute_program`]).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn execute(
        &self,
        dfg: &Dfg,
        g: &Graph,
        plan: &PartitionPlan,
        globals: &HashMap<String, Tensor>,
    ) -> Result<Vec<Tensor>, CompileError> {
        let program = compile(dfg, g)?;
        self.execute_program(&program, dfg, g, plan, globals)
    }

    /// Executes an *already compiled* program — the cache-aware entry
    /// point. A warm planning cache hands a stored [`KernelProgram`]
    /// straight to this method and skips [`compile`] entirely;
    /// [`Engine::execute`] is the compile-then-run convenience wrapper.
    /// The program must have been compiled from this `dfg` against this
    /// `g` (the epilogue re-walks the DFG from `program.reduce_node`).
    ///
    /// # Errors
    ///
    /// Returns an error, before any worker starts, if `plan` holds an edge
    /// id `g` does not have, `program` was compiled from another DFG or
    /// for another vertex count, `globals` lacks an input the DFG reads or
    /// binds one to a tensor whose extents differ from the input's declared
    /// shape (names the DFG does not read are allowed), or a prologue node
    /// cannot be evaluated.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn execute_program(
        &self,
        program: &KernelProgram,
        dfg: &Dfg,
        g: &Graph,
        plan: &PartitionPlan,
        globals: &HashMap<String, Tensor>,
    ) -> Result<Vec<Tensor>, CompileError> {
        check_call(program, dfg, g, plan, globals)?;
        let _sp = span!(
            "engine.execute",
            tasks = plan.tasks.len(),
            threads = self.threads()
        );
        let pre = self.prologue_phase(program, dfg, g, globals.into())?;
        let view = Globals::with_prologue(globals, &pre);
        Ok(self.reduce_tasks(program, dfg, g, plan, view, 0..program.out_rows))
    }

    /// Runs the per-task portion of a compiled program and returns the raw
    /// reduction accumulator, skipping the epilogue — the building block of
    /// the compute-then-reduce and tensor-parallel schedules, which move
    /// partial accumulators through collectives before one deterministic
    /// epilogue finishes the layer. Any prologue pseudo-globals the
    /// program gathers from must already be present in `all_globals`
    /// (under their [`prologue_name`] keys). A per-call edge pass runs
    /// over `plan`'s edges, so its softmax normalizes over the in-edges
    /// `plan` holds.
    ///
    /// # Errors
    ///
    /// Returns an error if a prologue pseudo-global is missing.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn accumulate_program<'a>(
        &self,
        program: &KernelProgram,
        g: &Graph,
        plan: &PartitionPlan,
        all_globals: impl Into<Globals<'a>>,
    ) -> Result<Tensor, CompileError> {
        let all_globals = all_globals.into();
        let _sp = span!(
            "engine.accumulate",
            tasks = plan.tasks.len(),
            threads = self.threads()
        );
        if let Some(id) =
            program.prologue.iter().find(|id| all_globals.get(&prologue_name(**id)).is_none())
        {
            return Err(CompileError(format!("prologue node {} not supplied", id.0)));
        }
        let partials = self.task_phase(program, g, plan, all_globals);
        let outs = [(program.reduce_node, vec![program.out_width])];
        let reduced = self
            .dense_phase(&outs, 0..program.out_rows, Some((program, &partials)), None)
            .expect("the reduction claims its own target")
            .swap_remove(0);
        self.park(partials);
        Ok(reduced)
    }

    /// The task phase, then the reduce + epilogue phase over vertex rows
    /// `rows`: rows `rows` of the DFG outputs (a cluster device asks for
    /// its owned rows).
    pub(crate) fn reduce_tasks(
        &self,
        program: &KernelProgram,
        dfg: &Dfg,
        g: &Graph,
        plan: &PartitionPlan,
        globals: Globals<'_>,
        rows: Range<usize>,
    ) -> Vec<Tensor> {
        let partials = self.task_phase(program, g, plan, globals);
        let outs = self.epilogue_phase(program, dfg, g, globals, &partials, rows);
        self.park(partials);
        outs
    }

    /// Runs `work(slot, share)` for every share on its own scoped thread —
    /// share `wi` as worker slot `wi`, recording on lane `lane_base + wi +
    /// 1` of whatever capture the calling thread is in (lane 0 belongs to
    /// the driver), which makes a trace's track layout a function of the
    /// deterministic slot assignment rather than of OS thread identity —
    /// and returns the results in slot order.
    fn on_workers<S: Send, R: Send>(
        &self,
        shares: Vec<S>,
        work: impl Fn(usize, S) -> R + Sync,
    ) -> Vec<R> {
        let session = Session::current();
        std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .into_iter()
                .enumerate()
                .map(|(wi, share)| {
                    let (work, session) = (&work, &session);
                    let lane = self.lane_base + wi as u32 + 1;
                    scope.spawn(move || with_lane(session, lane, || work(wi, share)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    }

    /// The prologue phase: the program's prologue tensors over every
    /// vertex row, evaluated in row blocks on the workers, as
    /// `(`[`prologue_name`]`, tensor)` pairs in `program.prologue` order.
    ///
    /// # Errors
    ///
    /// Fails if a prologue node is not evaluable from `globals` alone.
    pub(crate) fn prologue_phase(
        &self,
        program: &KernelProgram,
        dfg: &Dfg,
        g: &Graph,
        globals: Globals<'_>,
    ) -> Result<Vec<(String, Tensor)>, CompileError> {
        let ids = &program.prologue;
        if ids.is_empty() {
            return Ok(Vec::new());
        }
        let outs: Vec<_> = ids.iter().map(|id| (*id, vertex_row(dfg, g, *id))).collect();
        let eval = DenseEval::prologue(program, dfg, g, globals);
        let tensors = self
            .dense_phase(&outs, 0..g.num_vertices(), None, Some(&eval))
            .map_err(not_evaluable)?;
        Ok(ids.iter().map(|id| prologue_name(*id)).zip(tensors).collect())
    }

    /// The reduce + epilogue phase over vertex rows `rows`: those rows of
    /// every DFG output, from the full-height `partials` (added in slot
    /// order as the reduction's rows).
    pub(crate) fn epilogue_phase(
        &self,
        program: &KernelProgram,
        dfg: &Dfg,
        g: &Graph,
        globals: Globals<'_>,
        partials: &[Tensor],
        rows: Range<usize>,
    ) -> Vec<Tensor> {
        // One allocation per distinct output node.
        let mut nodes: Vec<NodeId> = Vec::new();
        for o in dfg.outputs() {
            if !nodes.contains(o) {
                nodes.push(*o);
            }
        }
        let outs: Vec<_> = nodes.iter().map(|o| (*o, vertex_row(dfg, g, *o))).collect();
        let eval = DenseEval::epilogue(dfg, g, globals, program.reduce_node);
        let tensors = self
            .dense_phase(&outs, rows, Some((program, partials)), Some(&eval))
            .unwrap_or_else(|id| panic!("output node {} not computed", id.0));
        list_outputs(dfg, &mut nodes.into_iter().zip(tensors).collect())
    }

    /// A dense phase on the workers: freshly allocated `[rows, …]` tensors
    /// for the vertex-rowed nodes `outs` (node, extents of one row), in
    /// that order. Worker `w` owns the `w`-th of `threads` contiguous
    /// shares of `rows` and walks it in [`ROW_BLOCK`]-row blocks, writing
    /// each node's rows straight into the block's slice of its tensor:
    /// with `reduce`, the reduction node's rows are the partials' rows
    /// added in ascending slot order (all zero when no task ran); with
    /// `eval`, the phase's chain then runs on the block.
    ///
    /// The sum starts from the first partial instead of from `+0.0`: an
    /// accumulator cell starts at `+0.0` and is only ever added to, and
    /// `x + y` is `-0.0` only when both are, so no partial holds a `-0.0`
    /// for the dropped `0.0 +` to have turned into `+0.0` (pinned by
    /// `tests::an_accumulator_cell_never_holds_negative_zero`).
    ///
    /// # Errors
    ///
    /// Returns the first node of `outs` the phase could not compute.
    fn dense_phase(
        &self,
        outs: &[(NodeId, Vec<usize>)],
        rows: Range<usize>,
        reduce: Option<Reduce<'_>>,
        eval: Option<&DenseEval<'_>>,
    ) -> Result<Vec<Tensor>, NodeId> {
        let t = self.threads();
        let bound = |w: usize| rows.start + rows.len() * w / t;
        let widths: Vec<usize> = outs.iter().map(|(_, d)| d.iter().product()).collect();
        let mut tensors: Vec<Tensor> = outs
            .iter()
            .map(|(_, d)| Tensor::zeros(&[&[rows.len()], d.as_slice()].concat()))
            .collect();
        // shares[w][k]: worker w's rows of tensor k.
        let mut shares: Vec<Vec<&mut [f32]>> = (0..t).map(|_| Vec::new()).collect();
        for (tensor, width) in tensors.iter_mut().zip(&widths) {
            let mut rest = tensor.data_mut();
            for (w, share) in shares.iter_mut().enumerate() {
                let (head, tail) = rest.split_at_mut((bound(w + 1) - bound(w)) * width);
                share.push(head);
                rest = tail;
            }
        }
        let missing = self.on_workers(shares, |wi, mut share| {
            let own = bound(wi)..bound(wi + 1);
            let _sp = match (reduce, eval) {
                (None, _) => span!("engine.prologue", slot = wi, rows = own.len()),
                (Some(_), Some(_)) => span!("engine.epilogue", slot = wi, rows = own.len()),
                (Some(_), None) => span!("engine.reduce", slot = wi, rows = own.len()),
            };
            let mut scratch = Scratch::new();
            let mut values = eval.map_or_else(Vec::new, DenseEval::values);
            for start in own.clone().step_by(ROW_BLOCK) {
                let block = start..(start + ROW_BLOCK).min(own.end);
                let mut targets: Targets<'_> = Vec::with_capacity(outs.len());
                for ((rest, width), (id, _)) in share.iter_mut().zip(&widths).zip(outs) {
                    let (head, tail) =
                        std::mem::take(rest).split_at_mut(block.len() * width);
                    *rest = tail;
                    targets.push((*id, head));
                }
                if let Some((program, partials)) = reduce {
                    let (id, w) = (program.reduce_node, program.out_width);
                    let cells = block.start * w..block.end * w;
                    let dims = vec![block.len(), w];
                    let sum = fill(id, dims, &mut targets, &mut scratch, |out| {
                        let Some((first, rest)) = partials.split_first() else { return };
                        out.copy_from_slice(&first.data()[cells.clone()]);
                        for p in rest {
                            for (o, &x) in out.iter_mut().zip(&p.data()[cells.clone()]) {
                                *o += x;
                            }
                        }
                    });
                    // The epilogue's seed; a reduce-only phase keeps no table.
                    if let Some(seed) = values.get_mut(id.0) {
                        *seed = Some(sum);
                    }
                }
                if let Some(eval) = eval {
                    eval.block(&block, &mut values, &mut targets, &mut scratch);
                    recycle(&mut values, &mut scratch);
                }
                if let Some((id, _)) = targets.first() {
                    return Some(*id);
                }
            }
            None
        });
        match missing.into_iter().flatten().next() {
            Some(id) => Err(id),
            None => Ok(tensors),
        }
    }

    /// The task phase: runs the program's edge pass in slot 0's workspace
    /// ([`run_edge_pass`], so its Work counts once at every thread count),
    /// deals the plan's tasks over the worker slots ([`deal_tasks`]), runs
    /// them under the plan the engine's mode selects, and returns the
    /// per-slot partials in slot order ([`Engine::park`] them after the
    /// reduce).
    fn task_phase(
        &self,
        program: &KernelProgram,
        g: &Graph,
        plan: &PartitionPlan,
        all_globals: Globals<'_>,
    ) -> Vec<Tensor> {
        // Per program, before any worker starts, so the same plan runs at
        // every thread count.
        let fplan = match self.mode {
            ExecMode::Fused => plan_fusion(program),
            ExecMode::Interpret => FusedPlan::interpreted(program),
        };
        let edge_values = self.edge_pass(program, &fplan, g, plan, all_globals);
        let all_globals = all_globals.with_edge_values(&edge_values);
        let deal = deal_tasks(plan.tasks.len(), self.threads());
        let results = self.on_workers(deal, |wi, blocks| {
            let tasks: usize = blocks.iter().map(Range::len).sum();
            let _wsp = span!("engine.worker", slot = wi, tasks = tasks);
            let mut slot = self.slots[wi].lock().expect("engine slot poisoned");
            // Reuse last call's accumulator when the shape still fits;
            // `fill(0.0)` makes it indistinguishable from a fresh zero
            // tensor.
            let mut acc = match slot.acc.take() {
                Some(mut t) if t.dims() == [program.out_rows, program.out_width] => {
                    t.data_mut().fill(0.0);
                    t
                }
                _ => Tensor::zeros(&[program.out_rows, program.out_width]),
            };
            let mut edges = 0u64;
            for t in blocks.into_iter().flatten() {
                let task = plan.tasks.task(t);
                edges += task.edges.len() as u64;
                run_task(program, &fplan, g, all_globals, task.edges, &mut acc, &mut slot.tws);
            }
            (acc, edges)
        });
        let mut partials = Vec::with_capacity(results.len());
        let (mut total, mut most) = (0u64, 0u64);
        for (acc, edges) in results {
            partials.push(acc);
            total += edges;
            most = most.max(edges);
        }
        // Busiest worker's edges over the mean of all slots.
        if let Some(skew) = (most * self.threads() as u64 * 1000).checked_div(total) {
            self.edge_skew.fetch_max(skew, Ordering::Relaxed);
        }
        partials
    }

    /// The program's per-call edge pass ([`EdgePass`]): worker `w` runs
    /// its row-local segments over the `w`-th of `threads` contiguous
    /// chunks of the plan's edges in slot `w`'s workspace, then slot 0
    /// joins the chunks' values in order, runs the rest (the softmax) over
    /// all of them and publishes, on the calling thread. Chunking only
    /// splits rows, so the published values are those of one workspace
    /// walking every edge ([`run_edge_pass`]) at every thread count.
    fn edge_pass(
        &self,
        program: &KernelProgram,
        fplan: &FusedPlan,
        g: &Graph,
        plan: &PartitionPlan,
        globals: Globals<'_>,
    ) -> Vec<(String, Tensor)> {
        let Some(pass) = EdgePass::new(program, fplan) else {
            return Vec::new();
        };
        let edges = plan.tasks.edges();
        let _sp = span!("engine.edge_prologue", edges = edges.len());
        let t = self.threads();
        let bound = |w: usize| edges.len() * w / t;
        // Each slot's lock is released when its worker returns.
        self.on_workers((0..t).collect(), |wi, _| {
            let _wsp = span!("engine.edge_chunk", slot = wi, edges = bound(wi + 1) - bound(wi));
            let mut slot = self.slots[wi].lock().expect("engine slot poisoned");
            pass.run_row_local(g, globals, &edges[bound(wi)..bound(wi + 1)], &mut slot.tws);
        });
        let mut slots: Vec<_> =
            self.slots.iter().map(|s| s.lock().expect("engine slot poisoned")).collect();
        let mut chunks: Vec<&mut TaskWorkspace> = slots.iter_mut().map(|s| &mut s.tws).collect();
        for r in pass.handoff() {
            join_rows(r, &mut chunks);
        }
        let tws = chunks.swap_remove(0);
        pass.run_rest(g, globals, edges, tws);
        pass.publish(g, edges, tws)
    }

    /// Parks the partials back in their slots for the next call.
    fn park(&self, partials: Vec<Tensor>) {
        for (slot, p) in self.slots.iter().zip(partials) {
            slot.lock().expect("engine slot poisoned").acc = Some(p);
        }
    }
}

/// One vertex row's extents of prologue node or output `id`: [`compile`]
/// admits no program without them, compiled from `dfg` against `g`.
fn vertex_row(dfg: &Dfg, g: &Graph, id: NodeId) -> Vec<usize> {
    row_dims(dfg, g, id).expect("`compile` admits only vertex-rowed prologue nodes and outputs")
}

/// Allocating reference executor: the same edge pass, the same
/// [`deal_tasks`] distribution and the same [`run_task`] under the
/// interpreted plan, but on the plain path — every task (and the edge
/// pass) gets a fresh [`TaskWorkspace`], every worker a fresh
/// accumulator, the partials are added to a zero tensor one after the
/// other, and prologue and epilogue each run in one block on the calling
/// thread. The reference `tests/workspace_parity.rs` compares against.
///
/// No profiler traces it. Its workers are plain scoped threads that join
/// no capture session, so under `obs::capture` it records only the
/// calling thread's spans (`engine.edge_prologue`, `kernel.epilogue`) and
/// none of its `kernel.task` spans.
///
/// # Errors
///
/// Returns the compile error if the DFG cannot run per task.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker thread panics.
pub fn execute_parallel_alloc(
    dfg: &Dfg,
    g: &Graph,
    plan: &PartitionPlan,
    globals: &HashMap<String, Tensor>,
    threads: usize,
) -> Result<Vec<Tensor>, CompileError> {
    assert!(threads > 0, "need at least one worker");
    let program = compile(dfg, g)?;
    let pre = eval_prologue(&program, dfg, g, globals)?;
    let all_globals = Globals::with_prologue(globals, &pre);
    let interp = FusedPlan::interpreted(&program);
    let edge_values =
        run_edge_pass(&program, &interp, g, plan, all_globals, &mut TaskWorkspace::new());
    let all_globals = all_globals.with_edge_values(&edge_values);

    let partials: Vec<Tensor> = std::thread::scope(|scope| {
        let handles: Vec<_> = deal_tasks(plan.tasks.len(), threads)
            .into_iter()
            .map(|blocks| {
                let (program, interp) = (&program, &interp);
                scope.spawn(move || {
                    let mut acc =
                        Tensor::zeros(&[program.out_rows, program.out_width]);
                    for t in blocks.into_iter().flatten() {
                        run_task(
                            program,
                            interp,
                            g,
                            all_globals,
                            plan.tasks.task(t).edges,
                            &mut acc,
                            &mut TaskWorkspace::new(),
                        );
                    }
                    acc
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut acc = Tensor::zeros(&[program.out_rows, program.out_width]);
    for p in &partials {
        ops::add_assign(&mut acc, p);
    }
    Ok(run_epilogue(dfg, g, globals, program.reduce_node, acc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::tests::globals_for;
    use crate::micro::MicroKernel;
    use wisegraph_dfg::interp::execute;
    use wisegraph_dfg::{transform, Binding};
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_gtask::{partition, PartitionTable};
    use wisegraph_models::ModelKind;
    use wisegraph_tensor::init;

    #[test]
    fn dealing_covers_every_task_exactly_once() {
        for (n, t) in [(0usize, 3usize), (1, 4), (7, 2), (8, 4), (9, 4), (100, 7), (1000, 3)] {
            let deal = deal_tasks(n, t);
            assert!(deal.len() <= t, "{n} tasks / {t} threads: {deal:?}");
            let mut seen = vec![0u32; n];
            for blocks in &deal {
                assert!(!blocks.is_empty(), "idle slot in {deal:?}");
                let mut floor = 0;
                for b in blocks {
                    assert!(b.start >= floor && b.end > b.start, "{deal:?}");
                    assert!(b.len() <= TASK_BLOCK, "{deal:?}");
                    floor = b.end;
                    b.clone().for_each(|task| seen[task] += 1);
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{n} tasks / {t} threads: {deal:?}");
        }
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a slot with one block
    fn dealing_edge_cases() {
        // Zero tasks: no slots, nothing scheduled.
        assert!(deal_tasks(0, 4).is_empty());
        // Single task: exactly one slot regardless of worker count.
        assert_eq!(deal_tasks(1, 8), vec![vec![0..1]]);
        // More threads than tasks: one single-task slot per task, never an
        // idle slot and never more slots than tasks.
        assert_eq!(deal_tasks(3, 10), vec![vec![0..1], vec![1..2], vec![2..3]]);
        // Too few tasks for a full block each: one even block per slot.
        assert_eq!(deal_tasks(19, 2), vec![vec![0..10], vec![10..19]]);
        // Enough tasks: full blocks, round-robin, the tail where it falls.
        assert_eq!(
            deal_tasks(100, 2),
            vec![vec![0..32, 64..96], vec![32..64, 96..100]]
        );
        // One slot runs the tasks in plan order.
        let one: Vec<usize> = deal_tasks(70, 1).into_iter().flatten().flatten().collect();
        assert_eq!(one, (0..70).collect::<Vec<_>>());
    }

    /// The licence for `p0 + p1 + …` in place of `0.0 + p0 + p1 + …`: a
    /// sum of two floats is `-0.0` only when both are, so a cell that
    /// starts at `+0.0` and is only ever added to never holds `-0.0` —
    /// and adding `+0.0` to anything else changes no bit.
    #[test]
    fn an_accumulator_cell_never_holds_negative_zero() {
        let neg_zero = (-0.0f32).to_bits();
        let specials = [
            0.0f32,
            -0.0,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
            1.0,
            -1.0,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        // Random bit patterns (subnormals, NaNs and all) from a fixed LCG.
        let mut state = 24u64;
        let mut values: Vec<f32> = specials.to_vec();
        values.extend((0..2000).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            f32::from_bits((state >> 32) as u32)
        }));
        for &cell in values.iter().filter(|c| c.to_bits() != neg_zero) {
            for &addend in &values {
                assert_ne!((cell + addend).to_bits(), neg_zero, "{cell:e} + {addend:e}");
            }
            if !cell.is_nan() {
                assert_eq!((0.0 + cell).to_bits(), cell.to_bits(), "0.0 + {cell:e}");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_and_interpreter() {
        let g = rmat(&RmatParams::standard(150, 1500, 51).with_edge_types(4));
        let (fi, fo) = (6, 5);
        let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
        let globals = globals_for(&g, fi, fo);
        let reference = &execute(&dfg, &g, &globals).unwrap()[0];
        let plan = partition(&g, &PartitionTable::src_batch_per_type(16));
        for threads in [1usize, 2, 4] {
            let got = &Engine::new(threads).execute(&dfg, &g, &plan, &globals).unwrap()[0];
            assert!(
                reference.allclose(got, 1e-3),
                "threads {threads}: diff {}",
                reference.max_abs_diff(got)
            );
        }
    }

    #[test]
    fn parallel_gcn_with_epilogue() {
        let g = rmat(&RmatParams::standard(120, 1000, 53));
        let (fi, fo) = (5, 4);
        let dfg = ModelKind::Gcn.layer_dfg(fi, fo);
        let globals = globals_for(&g, fi, fo);
        let reference = &execute(&dfg, &g, &globals).unwrap()[0];
        let plan = partition(&g, &PartitionTable::edge_batch(64));
        let got = &Engine::new(3).execute(&dfg, &g, &plan, &globals).unwrap()[0];
        assert!(reference.allclose(got, 1e-3));
    }

    #[test]
    fn single_task_plan_runs() {
        let g = rmat(&RmatParams::standard(30, 200, 55));
        let dfg = ModelKind::Gcn.layer_dfg(3, 2);
        let globals = globals_for(&g, 3, 2);
        let plan = partition(&g, &PartitionTable::new()); // one task
        assert_eq!(plan.num_tasks(), 1);
        let got = &Engine::new(4).execute(&dfg, &g, &plan, &globals).unwrap()[0];
        let reference = &execute(&dfg, &g, &globals).unwrap()[0];
        assert!(reference.allclose(got, 1e-3));
    }

    #[test]
    fn engine_reuses_buffers_across_calls() {
        let g = rmat(&RmatParams::standard(100, 800, 57).with_edge_types(3));
        let (fi, fo) = (5, 4);
        let base = ModelKind::Rgcn.layer_dfg(fi, fo);
        // The Fig. 9 extract+swap rewrite, the last candidate and what
        // `transform::optimize` picks at benchmark size, dedups sources
        // and types per task (`Unique`).
        let transformed = transform::candidates(&base, &Binding::from_graph(&g))
            .pop()
            .expect("RGCN has rewrites");
        assert!(compile(&transformed, &g)
            .unwrap()
            .ops
            .iter()
            .any(|k| matches!(k, MicroKernel::Unique { .. })));
        let globals = globals_for(&g, fi, fo);
        let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
        for dfg in [base, transformed] {
            let engine = Engine::new(2);
            let first = engine.execute(&dfg, &g, &plan, &globals).unwrap();
            let after_first = engine.stats();
            let second = engine.execute(&dfg, &g, &plan, &globals).unwrap();
            let after_second = engine.stats();
            // Identical inputs → bit-identical outputs.
            assert_eq!(first[0].data(), second[0].data());
            // The second call must be served (almost) entirely from the pool.
            assert!(
                after_second.count(keys::POOL_REUSED) > after_first.count(keys::POOL_REUSED)
            );
            assert_eq!(
                after_second.count(keys::POOL_CREATED),
                after_first.count(keys::POOL_CREATED),
                "steady state must not allocate new buffers"
            );
            // Work counters double exactly: the second call does the same work.
            assert_eq!(
                after_second.count(keys::KERNEL_EDGES),
                2 * after_first.count(keys::KERNEL_EDGES)
            );
            assert_eq!(
                after_second.count(keys::KERNEL_FLOPS),
                2 * after_first.count(keys::KERNEL_FLOPS)
            );
        }
    }

    /// The reduce + epilogue phase over a row range returns those rows of
    /// the serial full epilogue, bit for bit, at two workers: what a
    /// cluster device asks for its owned rows.
    #[test]
    fn row_range_epilogue_equals_the_full_epilogue_rows() {
        let g = rmat(&RmatParams::standard(45, 320, 43).with_edge_types(2));
        let (v, fi, fo) = (g.num_vertices(), 4, 3);
        let globals = globals_for(&g, fi, fo);
        let (engine, view) = (Engine::new(2), Globals::from(&globals));
        for model in [ModelKind::Gcn, ModelKind::Rgcn, ModelKind::Gat, ModelKind::Sage] {
            let dfg = model.layer_dfg(fi, fo);
            let program = compile(&dfg, &g).unwrap();
            // Any accumulator will do: the epilogue is a function of it.
            let acc = init::uniform_tensor(&[v, program.out_width], -1.0, 1.0, 8);
            let full = run_epilogue(&dfg, &g, &globals, program.reduce_node, acc.clone());
            for rows in [0..v, 0..0, 0..7, 7..31, 31..v] {
                let partials = std::slice::from_ref(&acc);
                let got = engine.epilogue_phase(&program, &dfg, &g, view, partials, rows.clone());
                assert_eq!(got.len(), full.len());
                for (a, b) in full.iter().zip(&got) {
                    let w = a.numel() / v;
                    assert_eq!(b.dims()[0], rows.len(), "{}", model.name());
                    assert_eq!(
                        &a.data()[rows.start * w..rows.end * w],
                        b.data(),
                        "{} rows {rows:?}",
                        model.name()
                    );
                }
            }
        }
    }

    #[test]
    fn engine_matches_allocating_reference_bitwise() {
        let g = rmat(&RmatParams::standard(90, 700, 59).with_edge_types(2));
        let (fi, fo) = (4, 3);
        let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
        let globals = globals_for(&g, fi, fo);
        let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
        for threads in [1usize, 2, 4] {
            let a = execute_parallel_alloc(&dfg, &g, &plan, &globals, threads)
                .unwrap();
            let b = Engine::new(threads).execute(&dfg, &g, &plan, &globals).unwrap();
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.data(), y.data(), "threads {threads}");
            }
        }
    }
}
