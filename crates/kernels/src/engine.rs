//! Parallel gTask execution engine.
//!
//! gTasks are independent units of work (their scatter targets only
//! overlap additively), so the compiled per-task programs parallelize
//! across CPU threads the way thread blocks parallelize across SMs: each
//! worker accumulates into a private buffer, and the buffers reduce at the
//! end. Work is distributed by contiguous chunks of tasks (tasks are
//! sorted by the plan's restriction keys, so chunks inherit locality).
//!
//! An [`Engine`] owns one [`TaskWorkspace`] and one accumulator per worker,
//! both persisting across [`Engine::execute`] calls: chunk `i` always runs
//! on worker slot `i`, so a training loop executing the same plan every
//! epoch re-uses every buffer after the first call. The slot assignment is
//! deterministic and the final reduction runs in ascending worker order,
//! which keeps results bit-identical to the allocating reference path
//! ([`execute_parallel_alloc`]).
//!
//! [`Engine::execute`], [`Engine::execute_program`] and
//! [`Engine::accumulate_program`] are the entry points; all three end in
//! the same worker phase, which runs every gTask through
//! [`run_task`] under the plan the engine's [`ExecMode`] selects.

use crate::fused::{plan_fusion, FusedPlan};
use crate::micro::{
    compile, eval_prologue, plan_is_dst_complete, prologue_name, run_epilogue,
    run_task, CompileError, Shadow, TaskWorkspace,
};
use std::collections::HashMap;
use std::sync::Mutex;
use wisegraph_dfg::Dfg;
use wisegraph_graph::Graph;
use wisegraph_gtask::PartitionPlan;
use wisegraph_obs::{keys, span, with_lane, Class, Counters, Session};
use wisegraph_tensor::{ops, Tensor};

/// The deterministic chunk-to-slot assignment shared by [`Engine::execute`]
/// and [`execute_parallel_alloc`]: tasks split into at most `threads`
/// contiguous ranges in ascending order, and chunk `i` always runs on
/// worker slot `i`. Exposed as a pure function so the static verifier
/// (`wisegraph-analysis`) can prove the mapping covers every task exactly
/// once without running anything.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn chunk_ranges(
    num_tasks: usize,
    threads: usize,
) -> Vec<std::ops::Range<usize>> {
    assert!(threads > 0, "need at least one worker");
    let chunk = num_tasks.div_ceil(threads).max(1);
    (0..num_tasks)
        .step_by(chunk)
        .map(|start| start..(start + chunk).min(num_tasks))
        .collect()
}

/// Persistent state of one worker: its task workspace and the partial
/// accumulator it scatters into.
#[derive(Default)]
struct WorkerSlot {
    tws: TaskWorkspace,
    acc: Option<Tensor>,
}

/// Which [`FusedPlan`] the engine runs compiled per-task programs under,
/// and whether it records a shadow log while doing so.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ExecMode {
    /// Run [`plan_fusion`]'s plan: matched chains as fused kernels, every
    /// other instruction as an interpreter step (a program with no matched
    /// chain runs fully interpreted). The default.
    #[default]
    Fused,
    /// Run [`FusedPlan::interpreted`]: the instruction-at-a-time reference.
    Interpret,
    /// Shadow-memory sanitizer: run the interpreted plan while
    /// recording, per accumulator cell, the last writer `(worker, task)`;
    /// after the workers join, cross-check the records against the
    /// engine's merge contract. Cross-task writes to the same cell are
    /// legal accumulation for plain scatter-add programs (the ascending
    /// reduce handles them deterministically) but a hard error for
    /// programs whose stores assume exclusive row ownership
    /// (per-destination normalization). Outputs are bit-identical to
    /// [`ExecMode::Fused`]; expect interpreter wall-clock plus recording
    /// overhead — this mode is for validation (`wisegraph-lint` pass 7,
    /// schedule bring-up), not production runs.
    Sanitize,
}

/// One sanitizer conflict record: an accumulator row written by two
/// different gTasks under a program whose stores assume exclusive row
/// ownership.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShadowConflict {
    /// The contested accumulator row.
    pub row: usize,
    /// First recorded writer, as `(worker slot, task index)`.
    pub first: (usize, usize),
    /// Last recorded writer, as `(worker slot, task index)`.
    pub last: (usize, usize),
}

/// What one sanitized execution observed. Retrieved via
/// [`Engine::last_sanitize`] after running in [`ExecMode::Sanitize`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SanitizeReport {
    /// Distinct accumulator cells (rows) written at least once.
    pub cells_tracked: u64,
    /// Individual row-writes recorded and checked.
    pub writes_checked: u64,
    /// Cells written by more than one gTask where the overlap is plain
    /// accumulation the deterministic merge handles.
    pub shared_cells: u64,
    /// Exclusive-ownership violations (empty unless the program requires
    /// a destination-complete plan). Capped at [`SHADOW_CONFLICT_CAP`]
    /// records; the run still fails on the first one.
    pub conflicts: Vec<ShadowConflict>,
}

/// Maximum conflict records retained in a [`SanitizeReport`].
pub const SHADOW_CONFLICT_CAP: usize = 8;

/// Cumulative sanitizer state across an engine's lifetime.
#[derive(Default)]
struct SanitizeStats {
    runs: u64,
    cells: u64,
    writes: u64,
    shared: u64,
    conflicts: u64,
    last: Option<SanitizeReport>,
}

/// A reusable parallel executor with persistent per-worker workspaces.
pub struct Engine {
    slots: Vec<Mutex<WorkerSlot>>,
    mode: ExecMode,
    sanitize: Mutex<SanitizeStats>,
    lane_base: u32,
}

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
    pub fn with_lane_base(threads: usize, mode: ExecMode, lane_base: u32) -> Self {
        assert!(threads > 0, "need at least one worker");
        Self {
            slots: (0..threads).map(|_| Mutex::new(WorkerSlot::default())).collect(),
            mode,
            sanitize: Mutex::new(SanitizeStats::default()),
            lane_base,
        }
    }

    /// The shadow-memory record of the most recent sanitized execution, or
    /// `None` before the first [`ExecMode::Sanitize`] run. Also populated
    /// when a sanitized run fails on a conflict, so callers can inspect
    /// what the shadow map saw.
    pub fn last_sanitize(&self) -> Option<SanitizeReport> {
        self.sanitize
            .lock()
            .expect("sanitize state poisoned")
            .last
            .clone()
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
    /// engine's own `engine.threads`.
    pub fn stats(&self) -> Counters {
        let mut c = Counters::new();
        for s in &self.slots {
            c.merge(&s.lock().expect("engine slot poisoned").tws.stats());
        }
        c.record_max(keys::ENGINE_THREADS, self.threads() as u64, Class::Resource);
        let s = self.sanitize.lock().expect("sanitize state poisoned");
        if s.runs > 0 {
            c.add_class(keys::SANITIZE_CELLS, s.cells, Class::Resource);
            c.add_class(keys::SANITIZE_WRITES, s.writes, Class::Resource);
            c.add_class(keys::SANITIZE_SHARED_CELLS, s.shared, Class::Resource);
            c.add_class(keys::SANITIZE_CONFLICTS, s.conflicts, Class::Resource);
        }
        c
    }

    /// Merges the per-worker shadow logs into a per-cell last-writer map
    /// and checks them against the merge contract: cross-task writes to
    /// one cell are legal accumulation for plain scatter-add programs, a
    /// hard error when the program's stores assume exclusive row
    /// ownership. Workers merge in ascending slot order, so first/last
    /// writer attribution is deterministic. Always updates the engine's
    /// cumulative sanitize state and [`Engine::last_sanitize`], including
    /// on the error path.
    fn check_shadows(
        &self,
        program: &crate::micro::KernelProgram,
        shadows: &[Vec<(u32, u32)>],
    ) -> Result<(), CompileError> {
        use std::collections::btree_map::Entry;
        use std::collections::BTreeMap;
        // Per cell: (first writer, last writer, written by >1 distinct
        // task), writers as (worker slot, task index).
        type CellState = ((usize, usize), (usize, usize), bool);
        let mut cells: BTreeMap<u32, CellState> = BTreeMap::new();
        let mut writes = 0u64;
        for (wi, shadow) in shadows.iter().enumerate() {
            for &(row, task) in shadow {
                writes += 1;
                let task = task as usize;
                match cells.entry(row) {
                    Entry::Vacant(v) => {
                        v.insert(((wi, task), (wi, task), false));
                    }
                    Entry::Occupied(mut o) => {
                        let e = o.get_mut();
                        if e.1 .1 != task {
                            e.2 = true;
                        }
                        e.1 = (wi, task);
                    }
                }
            }
        }
        let multi = cells.values().filter(|e| e.2).count() as u64;
        let exclusive = program.requires_dst_complete;
        let mut conflicts = Vec::new();
        if exclusive {
            for (&row, &(first, last, m)) in &cells {
                if m {
                    if conflicts.len() == SHADOW_CONFLICT_CAP {
                        break;
                    }
                    conflicts.push(ShadowConflict {
                        row: row as usize,
                        first,
                        last,
                    });
                }
            }
        }
        let report = SanitizeReport {
            cells_tracked: cells.len() as u64,
            writes_checked: writes,
            shared_cells: if exclusive { 0 } else { multi },
            conflicts,
        };
        let first_conflict = report.conflicts.first().copied();
        {
            let mut s = self.sanitize.lock().expect("sanitize state poisoned");
            s.runs += 1;
            s.cells += report.cells_tracked;
            s.writes += report.writes_checked;
            s.shared += report.shared_cells;
            if exclusive {
                s.conflicts += multi;
            }
            s.last = Some(report);
        }
        if let Some(c) = first_conflict {
            return Err(CompileError(format!(
                "sanitizer: {multi} accumulator cell(s) written by multiple \
                 gTasks under a per-destination-normalizing program; first \
                 conflict: row {} written by task {} (worker {}) and task {} \
                 (worker {})",
                c.row, c.first.1, c.first.0, c.last.1, c.last.0
            )));
        }
        Ok(())
    }

    /// Executes a compiled plan across the engine's workers and returns the
    /// DFG outputs. Buffers and accumulators persist into the next call.
    ///
    /// # Errors
    ///
    /// Returns the compile error if the DFG cannot run per task.
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
    /// Returns an error if the program needs a destination-complete plan
    /// and `plan` is not, or a prologue node cannot be evaluated.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn execute_program(
        &self,
        program: &crate::micro::KernelProgram,
        dfg: &Dfg,
        g: &Graph,
        plan: &PartitionPlan,
        globals: &HashMap<String, Tensor>,
    ) -> Result<Vec<Tensor>, CompileError> {
        let _sp = span!(
            "engine.execute",
            tasks = plan.tasks.len(),
            threads = self.threads()
        );
        // In Sanitize mode the static precondition is deliberately NOT
        // enforced up front: the run proceeds mechanically and the shadow
        // map must catch the resulting cross-task ownership violation
        // itself — that is exactly the static-vs-dynamic cross-check the
        // lint harness exercises.
        if program.requires_dst_complete
            && self.mode != ExecMode::Sanitize
            && !plan_is_dst_complete(g, plan)
        {
            return Err(CompileError(
                "per-destination normalization requires a destination-complete plan"
                    .into(),
            ));
        }
        let mut all_globals = globals.clone();
        if !program.prologue.is_empty() {
            let _psp = span!("engine.prologue", nodes = program.prologue.len());
            all_globals.extend(eval_prologue(program, dfg, g, globals)?);
        }
        let acc = self.reduce_tasks(program, g, plan, &all_globals)?;
        Ok(run_epilogue(dfg, g, globals, program.reduce_node, acc))
    }

    /// Runs the per-task portion of a compiled program and returns the raw
    /// reduction accumulator, skipping the epilogue — the building block of
    /// the compute-then-reduce and tensor-parallel schedules, which move
    /// partial accumulators through collectives before one deterministic
    /// epilogue finishes the layer. Any prologue pseudo-globals the
    /// program gathers from must already be present in `all_globals`
    /// (under their [`prologue_name`] keys).
    ///
    /// # Errors
    ///
    /// Returns an error if a prologue pseudo-global is missing, or the
    /// program needs a destination-complete plan and `plan` is not.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn accumulate_program(
        &self,
        program: &crate::micro::KernelProgram,
        g: &Graph,
        plan: &PartitionPlan,
        all_globals: &HashMap<String, Tensor>,
    ) -> Result<Tensor, CompileError> {
        let _sp = span!(
            "engine.accumulate",
            tasks = plan.tasks.len(),
            threads = self.threads()
        );
        if program.requires_dst_complete
            && self.mode != ExecMode::Sanitize
            && !plan_is_dst_complete(g, plan)
        {
            return Err(CompileError(
                "per-destination normalization requires a destination-complete plan"
                    .into(),
            ));
        }
        for id in &program.prologue {
            if !all_globals.contains_key(&prologue_name(*id)) {
                return Err(CompileError(format!(
                    "prologue node {} not supplied",
                    id.0
                )));
            }
        }
        self.reduce_tasks(program, g, plan, all_globals)
    }

    /// The shared worker phase: distributes the plan's tasks over the
    /// worker slots, runs them under the plan the engine's mode selects,
    /// checks shadows when sanitizing, and reduces the per-worker partials
    /// in ascending slot order. Checks no precondition of the plan: the
    /// public entry points (and the cluster, once per shard) do.
    pub(crate) fn reduce_tasks(
        &self,
        program: &crate::micro::KernelProgram,
        g: &Graph,
        plan: &PartitionPlan,
        all_globals: &HashMap<String, Tensor>,
    ) -> Result<Tensor, CompileError> {
        // Per program, before any worker starts, so the same plan runs at
        // every thread count.
        let (fplan, sanitizing) = match self.mode {
            ExecMode::Fused => (plan_fusion(program), false),
            ExecMode::Interpret => (FusedPlan::interpreted(program), false),
            ExecMode::Sanitize => (FusedPlan::interpreted(program), true),
        };
        // Workers record into whatever capture the calling thread is in.
        let session = Session::current();

        let results: Vec<(Tensor, Vec<(u32, u32)>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunk_ranges(plan.tasks.len(), self.threads())
                .into_iter()
                .enumerate()
                .map(|(wi, range)| {
                    let first_task = range.start;
                    let tasks = &plan.tasks[range];
                    let (fplan, session) = (&fplan, &session);
                    let slot = &self.slots[wi];
                    let lane = self.lane_base + wi as u32 + 1;
                    // Lane 0 belongs to the driver thread; worker slot `wi`
                    // records on lane `lane_base + wi + 1`, making the
                    // trace's track layout a function of the deterministic
                    // slot assignment rather than of OS thread identity.
                    scope.spawn(move || {
                        with_lane(session, lane, || {
                            let _wsp =
                                span!("engine.worker", slot = wi, tasks = tasks.len());
                            let mut slot = slot.lock().expect("engine slot poisoned");
                            // Reuse last call's accumulator when the shape still
                            // fits; `fill(0.0)` makes it indistinguishable from a
                            // fresh zero tensor.
                            let mut acc = match slot.acc.take() {
                                Some(mut t)
                                    if t.dims()
                                        == [program.out_rows, program.out_width] =>
                                {
                                    t.data_mut().fill(0.0);
                                    t
                                }
                                _ => Tensor::zeros(&[
                                    program.out_rows,
                                    program.out_width,
                                ]),
                            };
                            let mut shadow = Vec::new();
                            for (k, task) in tasks.iter().enumerate() {
                                run_task(
                                    program,
                                    fplan,
                                    g,
                                    all_globals,
                                    &task.edges,
                                    &mut acc,
                                    &mut slot.tws,
                                    sanitizing.then(|| Shadow {
                                        task: first_task + k,
                                        log: &mut shadow,
                                    }),
                                );
                            }
                            (acc, shadow)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        let (partials, shadows): (Vec<Tensor>, Vec<Vec<(u32, u32)>>) =
            results.into_iter().unzip();

        if sanitizing {
            self.check_shadows(program, &shadows)?;
        }

        // Reduce in ascending worker order (same order as the sequential
        // `acc = acc + p` of the allocating path), then park the partials
        // back in their slots for the next call.
        let _rsp = span!("engine.reduce", partials = partials.len());
        let mut acc = Tensor::zeros(&[program.out_rows, program.out_width]);
        for p in &partials {
            ops::add_assign(&mut acc, p);
        }
        for (wi, p) in partials.into_iter().enumerate() {
            self.slots[wi].lock().expect("engine slot poisoned").acc = Some(p);
        }
        Ok(acc)
    }
}

/// Allocating reference executor: identical work distribution to
/// [`Engine::execute`] and the same [`run_task`] under the interpreted
/// plan, but every task gets a fresh [`TaskWorkspace`] and every worker a
/// fresh accumulator — the alloc-per-call behavior the workspace path
/// eliminates. The reference `tests/workspace_parity.rs` compares against.
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
    if program.requires_dst_complete && !plan_is_dst_complete(g, plan) {
        return Err(CompileError(
            "per-destination normalization requires a destination-complete plan"
                .into(),
        ));
    }
    let mut all_globals = globals.clone();
    all_globals.extend(eval_prologue(&program, dfg, g, globals)?);
    let interp = FusedPlan::interpreted(&program);

    let partials: Vec<Tensor> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunk_ranges(plan.tasks.len(), threads)
            .into_iter()
            .map(|range| {
                let tasks = &plan.tasks[range];
                let (program, interp, all_globals) = (&program, &interp, &all_globals);
                scope.spawn(move || {
                    let mut acc =
                        Tensor::zeros(&[program.out_rows, program.out_width]);
                    for task in tasks {
                        run_task(
                            program,
                            interp,
                            g,
                            all_globals,
                            &task.edges,
                            &mut acc,
                            &mut TaskWorkspace::new(),
                            None,
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
    use wisegraph_dfg::interp::execute;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_gtask::{partition, PartitionTable};
    use wisegraph_models::ModelKind;
    use wisegraph_tensor::init;

    #[test]
    fn chunk_ranges_cover_every_task_exactly_once() {
        for (n, t) in [(0usize, 3usize), (1, 4), (7, 2), (8, 4), (9, 4), (100, 7)] {
            let ranges = chunk_ranges(n, t);
            assert!(ranges.len() <= t, "{n} tasks / {t} threads: {ranges:?}");
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "{n} tasks / {t} threads: {ranges:?}");
                assert!(r.end > r.start, "empty chunk in {ranges:?}");
                next = r.end;
            }
            assert_eq!(next, n, "{n} tasks / {t} threads: {ranges:?}");
        }
    }

    #[test]
    fn chunk_ranges_edge_cases() {
        // Zero tasks: no chunks, nothing scheduled.
        assert!(chunk_ranges(0, 4).is_empty());
        // Single task: exactly one chunk regardless of worker count.
        assert_eq!(chunk_ranges(1, 8), vec![0..1]);
        // More threads than tasks: one single-task chunk per task, never
        // an empty chunk and never more chunks than tasks.
        let ranges = chunk_ranges(3, 10);
        assert_eq!(ranges, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn sanitize_mode_is_bit_identical_to_the_default() {
        let g = rmat(&RmatParams::standard(120, 900, 61).with_edge_types(3));
        let (fi, fo) = (5, 4);
        let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 11),
        );
        globals.insert(
            "W".to_string(),
            init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 12),
        );
        let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
        for threads in [1usize, 2, 4] {
            let auto = Engine::new(threads).execute(&dfg, &g, &plan, &globals).unwrap();
            let engine = Engine::with_mode(threads, ExecMode::Sanitize);
            let sanitized = engine.execute(&dfg, &g, &plan, &globals).unwrap();
            for (a, b) in auto.iter().zip(sanitized.iter()) {
                assert_eq!(a.data(), b.data(), "threads {threads}");
            }
            let rep = engine.last_sanitize().expect("sanitized run recorded");
            assert!(rep.conflicts.is_empty());
            assert_eq!(rep.writes_checked, g.num_edges() as u64);
            assert!(rep.cells_tracked > 0);
            let stats = engine.stats();
            assert_eq!(
                stats.count(keys::SANITIZE_WRITES),
                rep.writes_checked,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn sanitizer_catches_exclusive_ownership_conflict() {
        // GAT's segment softmax assumes each task owns its destination
        // rows. An edge-batch plan splits destinations across tasks; the
        // static precondition would reject it, Sanitize mode instead runs
        // it and the shadow map must catch the conflict dynamically.
        let g = rmat(&RmatParams::standard(40, 300, 63));
        let (fi, fo) = (4, 3);
        let dfg = ModelKind::Gat.layer_dfg(fi, fo);
        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 13),
        );
        globals.insert("w".to_string(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 14));
        globals.insert(
            "a_src".to_string(),
            init::uniform_tensor(&[fo, 1], -1.0, 1.0, 15),
        );
        globals.insert(
            "a_dst".to_string(),
            init::uniform_tensor(&[fo, 1], -1.0, 1.0, 16),
        );
        let plan = partition(&g, &PartitionTable::edge_batch(16));
        let engine = Engine::with_mode(2, ExecMode::Sanitize);
        let err = engine
            .execute(&dfg, &g, &plan, &globals)
            .expect_err("overlapping destinations must fail under sanitize");
        assert!(err.to_string().contains("sanitizer"), "{err}");
        let rep = engine.last_sanitize().expect("report kept on error path");
        assert!(!rep.conflicts.is_empty());
        assert!(engine.stats().count(keys::SANITIZE_CONFLICTS) > 0);
        // The same combination under the default mode is rejected statically
        // instead.
        let auto_err = Engine::new(2)
            .execute(&dfg, &g, &plan, &globals)
            .expect_err("static precondition");
        assert!(auto_err.to_string().contains("destination-complete"));
    }

    #[test]
    fn parallel_matches_sequential_and_interpreter() {
        let g = rmat(&RmatParams::standard(150, 1500, 51).with_edge_types(4));
        let (fi, fo) = (6, 5);
        let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 1),
        );
        globals.insert(
            "W".to_string(),
            init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 2),
        );
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
        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 3),
        );
        globals.insert("w".to_string(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 4));
        let reference = &execute(&dfg, &g, &globals).unwrap()[0];
        let plan = partition(&g, &PartitionTable::edge_batch(64));
        let got = &Engine::new(3).execute(&dfg, &g, &plan, &globals).unwrap()[0];
        assert!(reference.allclose(got, 1e-3));
    }

    #[test]
    fn single_task_plan_runs() {
        let g = rmat(&RmatParams::standard(30, 200, 55));
        let dfg = ModelKind::Gcn.layer_dfg(3, 2);
        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), 3], -1.0, 1.0, 5),
        );
        globals.insert("w".to_string(), init::uniform_tensor(&[3, 2], -1.0, 1.0, 6));
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
        let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 7),
        );
        globals.insert(
            "W".to_string(),
            init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 8),
        );
        let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
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

    #[test]
    fn engine_matches_allocating_reference_bitwise() {
        let g = rmat(&RmatParams::standard(90, 700, 59).with_edge_types(2));
        let (fi, fo) = (4, 3);
        let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 9),
        );
        globals.insert(
            "W".to_string(),
            init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 10),
        );
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
