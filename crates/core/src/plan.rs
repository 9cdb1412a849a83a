//! Executable plans and their evaluation.
//!
//! An [`ExecutionPlan`] is the product of joint partitioning for one model
//! layer: the graph partition (gTasks, with the table that made them), the
//! (possibly transformed) DFG, the operation partition, and the kernel
//! context derived from the plan's data patterns. The patterns are counted
//! once per partition ([`Patterns::count`]) and the plan applies its DFG's
//! rules on top of them ([`ExecutionPlan::new`]), so a search that prices
//! many DFG and grouping variants of one table partitions and counts it
//! once. Evaluating a plan prices its kernels on the device model under
//! the caller's whole-graph [`Binding`] and schedules its per-task work
//! onto execution units.

use wisegraph_dfg::{transform, Binding, Dfg};
use wisegraph_graph::{AttrKind, Graph};
use wisegraph_gtask::{partition, GTask, PartitionPlan, PartitionTable, Recount, Restriction};
use wisegraph_kernels::{
    generate::{boundary_bytes, generate_kernels},
    GeneratedKernel, KernelContext, OpPartition,
};
use wisegraph_sim::{schedule, ComputeClass, DeviceSpec};

/// How the operation partition groups the DFG.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpPartitionKind {
    /// Every op in its own kernel.
    Separate,
    /// Everything fused.
    Fused,
    /// Dense producers separate, per-edge chain fused.
    DenseSeparateRestFused,
}

impl OpPartitionKind {
    /// All candidates considered by the optimizer.
    pub const ALL: [OpPartitionKind; 3] = [
        OpPartitionKind::Separate,
        OpPartitionKind::Fused,
        OpPartitionKind::DenseSeparateRestFused,
    ];

    /// Builds the concrete partition for a DFG.
    pub fn build(self, dfg: &Dfg) -> OpPartition {
        match self {
            OpPartitionKind::Separate => OpPartition::separate(dfg),
            OpPartitionKind::Fused => OpPartition::fused(dfg),
            OpPartitionKind::DenseSeparateRestFused => {
                OpPartition::dense_separate_rest_fused(dfg)
            }
        }
    }
}

/// One layer's joint plan.
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    /// The generated gTasks and the table that generated them.
    pub partition: PartitionPlan,
    /// The (possibly transformed) DFG.
    pub dfg: Dfg,
    /// Operation partition choice.
    pub op_partition: OpPartitionKind,
    /// Kernel-generation context derived from the plan's data patterns.
    pub ctx: KernelContext,
}

/// Simulated evaluation of a plan.
#[derive(Clone, Copy, Debug)]
pub struct PlanEstimate {
    /// Forward time (seconds) with uniform task scheduling.
    pub time: f64,
    /// Transient (materialized-intermediate) device memory in bytes.
    pub transient_bytes: f64,
}

/// The gTask data patterns of one partition (§5.1) that the kernel context
/// reads, counted in one pass over its tasks. A task's distinct count of an
/// attribute is its recorded `uniq` row when the plan tracks the attribute
/// (every plan producer records its table's `Exact` attributes), a
/// [`Recount`] otherwise.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Patterns {
    /// *Batched data*: the median, over tasks, of the largest `Exact(k > 1)`
    /// attribute's achieved uniqueness; 1 when the table batches nothing or
    /// the plan has no tasks.
    pub batch_rows: usize,
    /// *Duplicated data*: `Σ uniq(src) / edges`, the fraction of raw
    /// per-edge source gathers left after per-task dedup (1 without edges).
    pub gather_dedup: f64,
    /// Scatter fragmentation: `Σ uniq(dst) / edges`, one read-modify-write
    /// per (task, destination) fragment.
    pub scatter_dedup: f64,
    /// For a DFG with an LSTM aggregation, the padding a batched LSTM
    /// pays: within one batch every sequence is padded to the longest, so
    /// a task wastes `max(degree) / mean(degree)` over its destinations;
    /// this is the edge-weighted mean of that over tasks, times the
    /// destinations' fragmentation (a destination split across tasks
    /// re-loads and serializes its LSTM state per fragment). Plans
    /// restricting `uniq(dst-degree)` (exactly or to `min`) keep it near 1.
    pub lstm_padding: Option<f64>,
}

impl Patterns {
    /// Counts `plan`'s patterns for plans running `dfg` or another DFG of
    /// its model (span `core.plan.patterns`); `recount` is a recount of the
    /// plan's graph. The LSTM padding, the one pattern that needs its own
    /// pass over the tasks, is counted only when `dfg` has an LSTM
    /// aggregation.
    pub fn count(recount: &mut Recount<'_>, plan: &PartitionPlan, dfg: &Dfg) -> Self {
        let _sp = wisegraph_obs::span!("core.plan.patterns", tasks = plan.num_tasks());
        let batched: Vec<AttrKind> = plan
            .table
            .exact_attrs()
            .iter()
            .filter(|&&(_, k)| k > 1)
            .map(|&(a, _)| a)
            .collect();
        let lstm = has_lstm(dfg);
        let uniq = |recount: &mut Recount<'_>, task: GTask<'_>, attr: AttrKind| {
            task.uniq(attr).unwrap_or_else(|| recount.unique(attr, task.edges))
        };
        let mut rows = Vec::with_capacity(plan.num_tasks());
        let (mut src_loads, mut fragments) = (0usize, 0usize);
        let (mut weighted, mut total) = (0.0f64, 0.0f64);
        for task in &plan.tasks {
            rows.push(batched.iter().map(|&a| uniq(recount, task, a)).max().unwrap_or(1));
            src_loads += uniq(recount, task, AttrKind::SrcId);
            fragments += uniq(recount, task, AttrKind::DstId);
            if lstm {
                weighted += lstm_task_padding(recount, task) * task.num_edges() as f64;
                total += task.num_edges() as f64;
            }
        }
        rows.sort_unstable();
        let edges = plan.total_edges();
        let lstm_padding = lstm.then(|| {
            let pad = if total > 0.0 { weighted / total } else { 1.0 };
            let all_dsts = recount.unique(AttrKind::DstId, plan.tasks.edges());
            pad * (fragments as f64 / all_dsts.max(1) as f64)
        });
        Self {
            batch_rows: rows.get(rows.len() / 2).map_or(1, |&r| r.max(1)),
            gather_dedup: if edges == 0 {
                1.0
            } else {
                (src_loads as f64 / edges as f64).clamp(0.0, 1.0)
            },
            scatter_dedup: (fragments as f64 / edges.max(1) as f64).clamp(0.0, 1.0),
            lstm_padding,
        }
    }
}

/// `max(degree) / mean(degree)` over `task`'s destinations (1 for a task
/// without edges).
fn lstm_task_padding(recount: &mut Recount<'_>, task: GTask<'_>) -> f64 {
    let g = recount.graph();
    // Degrees are integers, so their sum is exact in any order.
    let (mut max, mut sum) = (0.0f64, 0.0f64);
    let dsts = recount.unique_by(AttrKind::DstId, task.edges, |e, _| {
        let deg = g.in_degree()[g.dst()[e as usize] as usize] as f64;
        max = max.max(deg);
        sum += deg;
    });
    let mean = sum / dsts as f64;
    if mean > 0.0 {
        max / mean
    } else {
        1.0
    }
}

fn has_lstm(dfg: &Dfg) -> bool {
    dfg.nodes()
        .iter()
        .any(|n| matches!(n.kind, wisegraph_dfg::OpKind::LstmAggregate { .. }))
}

fn has_per_edge_linear(dfg: &Dfg) -> bool {
    let live = dfg.live_set();
    dfg.nodes().iter().enumerate().any(|(i, n)| {
        live[i] && matches!(n.kind, wisegraph_dfg::OpKind::PerEdgeLinear)
    })
}

/// The kernel context of running `dfg` over `plan`, whose patterns are
/// `p`: the DFG's rules applied on top of the counted patterns. A
/// `PerEdgeLinear` batch needs a single weight per task
/// (`uniq(edge-type) = 1`); dedup is realized only for the unique rows
/// that fit on chip; LSTM padding applies only to an LSTM aggregation.
fn kernel_context(p: &Patterns, plan: &PartitionPlan, dfg: &Dfg) -> KernelContext {
    let batch = if has_per_edge_linear(dfg)
        && plan.table.restriction(AttrKind::EdgeType) != Restriction::Exact(1)
    {
        // Mixed weights within a task: no matrix batching possible.
        1
    } else {
        p.batch_rows
    };
    // Dedup happens in shared memory: only the unique rows that fit on
    // chip are loaded once. Batches wider than the on-chip row budget
    // realize proportionally less of the plan's deduplication.
    let width = gather_width(dfg).max(1);
    let rows_fit = (49_152 / (4 * width)).max(1) as f64;
    let realized = (rows_fit / batch.max(1) as f64).min(1.0);
    let effective_dedup = p.gather_dedup * realized + 1.0 * (1.0 - realized);
    let mut ctx = KernelContext::gtask(plan.num_tasks() as f64, batch)
        .with_gather_dedup(effective_dedup)
        .with_scatter_dedup(p.scatter_dedup);
    if has_lstm(dfg) {
        let padding = p.lstm_padding.expect("patterns counted for an LSTM DFG");
        ctx = ctx.with_lstm_padding(padding);
    }
    ctx
}

/// The widest feature dimension any live `Index` gather produces — the row
/// width that must fit in shared memory for per-task dedup.
fn gather_width(dfg: &Dfg) -> usize {
    let live = dfg.live_set();
    dfg.nodes()
        .iter()
        .enumerate()
        .filter(|(i, n)| {
            live[*i]
                && matches!(
                    n.kind,
                    wisegraph_dfg::OpKind::Index | wisegraph_dfg::OpKind::Index2D
                )
        })
        .filter_map(|(_, n)| match n.shape.last() {
            Some(&wisegraph_dfg::Dim::Lit(w)) => Some(w),
            _ => None,
        })
        .max()
        .unwrap_or(1)
}

impl ExecutionPlan {
    /// A plan running `dfg` over `partition`, whose patterns are `patterns`
    /// ([`Patterns::count`]). The context rules apply to the DFG that will
    /// actually run (e.g. the per-edge-weight constraint disappears once
    /// the transformation replaces `PerEdgeLinear` with a pairwise table).
    pub fn new(
        patterns: &Patterns,
        partition: PartitionPlan,
        dfg: Dfg,
        op_partition: OpPartitionKind,
    ) -> Self {
        let ctx = kernel_context(patterns, &partition, &dfg);
        Self {
            partition,
            dfg,
            op_partition,
            ctx,
        }
    }

    /// Partitions the graph by `table` and builds the plan of `base_dfg`
    /// transform-optimized under the whole-scope binding.
    pub fn build(
        g: &Graph,
        table: PartitionTable,
        base_dfg: &Dfg,
        op_partition: OpPartitionKind,
    ) -> Self {
        let (dfg, _) = transform::optimize(base_dfg, &Binding::from_graph(g));
        let part = partition(g, &table);
        let patterns = Patterns::count(&mut Recount::new(g), &part, &dfg);
        Self::new(&patterns, part, dfg, op_partition)
    }

    /// Generates this plan's kernels under `binding`, its graph's
    /// whole-scope binding.
    pub fn kernels(&self, binding: &Binding) -> Vec<GeneratedKernel> {
        let part = self.op_partition.build(&self.dfg);
        generate_kernels(&self.dfg, binding, &part, &self.ctx)
    }

    /// Per-gTask durations of this plan's fused (per-task) `kernels` under
    /// uniform execution: each task occupies a batch slot, so underfilled
    /// tasks are padded to the plan's batch granularity.
    pub fn task_durations(&self, kernels: &[GeneratedKernel], dev: &DeviceSpec) -> Vec<f64> {
        // Only per-task kernels (those whose parallelism comes from tasks)
        // are spread over tasks; pure dense kernels run monolithically.
        let per_task_time: f64 = kernels
            .iter()
            .filter(|k| {
                !matches!(
                    k.cost.class,
                    ComputeClass::DenseMatmul | ComputeClass::Elementwise
                )
            })
            .map(|k| dev.kernel_time(&k.cost) - dev.launch_latency)
            .sum();
        let median = self.partition.median_task_edges().max(1);
        let padded: Vec<f64> = self
            .partition
            .tasks
            .iter()
            .map(|t| t.num_edges().max(median) as f64)
            .collect();
        let total_padded: f64 = padded.iter().sum();
        padded
            .into_iter()
            .map(|p| per_task_time * p / total_padded.max(1.0))
            .collect()
    }

    /// Evaluates the plan under `binding`, its graph's whole-scope
    /// binding: kernel roofline times, with the per-task kernels replaced
    /// by a list-scheduled makespan so load imbalance is visible.
    pub fn estimate(&self, binding: &Binding, dev: &DeviceSpec) -> PlanEstimate {
        let part = self.op_partition.build(&self.dfg);
        let kernels = generate_kernels(&self.dfg, binding, &part, &self.ctx);
        let mut time = 0.0;
        for k in &kernels {
            time += dev.kernel_time(&k.cost);
        }
        // Imbalance correction: replace the ideal per-task span by the
        // scheduled makespan (uniform priorities).
        let durations = self.task_durations(&kernels, dev);
        if !durations.is_empty() {
            let ideal: f64 = durations.iter().sum::<f64>() / dev.num_sms as f64;
            let scheduled = schedule::makespan_uniform(&durations, dev.num_sms);
            time += scheduled - ideal;
        }
        PlanEstimate {
            time,
            transient_bytes: boundary_bytes(&self.dfg, binding, &part),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_models::ModelKind;

    fn test_graph() -> Graph {
        rmat(&RmatParams::standard(2000, 30_000, 17).with_edge_types(4))
    }

    fn patterns(g: &Graph, table: PartitionTable) -> Patterns {
        let dfg = ModelKind::Gcn.layer_dfg(8, 8);
        Patterns::count(&mut Recount::new(g), &partition(g, &table), &dfg)
    }

    #[test]
    fn batch_rows_reflects_table() {
        let g = test_graph();
        assert_eq!(patterns(&g, PartitionTable::vertex_centric()).batch_rows, 1);
        let b = patterns(&g, PartitionTable::src_batch_per_type(32)).batch_rows;
        assert!(b > 4 && b <= 32, "batch {b}");
        assert_eq!(patterns(&g, PartitionTable::edge_batch(64)).batch_rows, 64);
    }

    #[test]
    fn gtask_plan_beats_vertex_centric_for_rgcn() {
        let g = test_graph();
        let dev = DeviceSpec::a100_pcie();
        let dfg = ModelKind::Rgcn.layer_dfg(64, 64);
        let vc_part = partition(&g, &PartitionTable::vertex_centric());
        let vc = ExecutionPlan::new(
            &Patterns::count(&mut Recount::new(&g), &vc_part, &dfg),
            vc_part,
            dfg.clone(),
            OpPartitionKind::Fused,
        );
        let ours = ExecutionPlan::build(
            &g,
            PartitionTable::src_batch_per_type(64),
            &dfg,
            OpPartitionKind::DenseSeparateRestFused,
        );
        let binding = Binding::from_graph(&g);
        let t_vc = vc.estimate(&binding, &dev).time;
        let t_ours = ours.estimate(&binding, &dev).time;
        assert!(
            t_ours < t_vc / 2.0,
            "ours {t_ours} vs vertex-centric {t_vc}"
        );
    }

    #[test]
    fn estimate_is_positive_and_memory_sane() {
        let g = test_graph();
        let dev = DeviceSpec::a100_pcie();
        let dfg = ModelKind::Gcn.layer_dfg(32, 32);
        let binding = Binding::from_graph(&g);
        for kind in OpPartitionKind::ALL {
            let plan = ExecutionPlan::build(
                &g,
                PartitionTable::edge_batch(64),
                &dfg,
                kind,
            );
            let est = plan.estimate(&binding, &dev);
            assert!(est.time > 0.0);
            assert!(est.transient_bytes >= 0.0);
        }
        // Fused keeps everything on chip.
        let fused = ExecutionPlan::build(
            &g,
            PartitionTable::edge_batch(64),
            &dfg,
            OpPartitionKind::Fused,
        );
        assert_eq!(fused.estimate(&binding, &dev).transient_bytes, 0.0);
    }

    #[test]
    fn task_durations_cover_all_tasks() {
        let g = test_graph();
        let dev = DeviceSpec::a100_pcie();
        let dfg = ModelKind::Gcn.layer_dfg(32, 32);
        let plan = ExecutionPlan::build(
            &g,
            PartitionTable::vertex_centric(),
            &dfg,
            OpPartitionKind::Fused,
        );
        let d = plan.task_durations(&plan.kernels(&Binding::from_graph(&g)), &dev);
        assert_eq!(d.len(), plan.partition.num_tasks());
        assert!(d.iter().all(|&t| t >= 0.0));
        assert!(d.iter().sum::<f64>() > 0.0);
    }
}
