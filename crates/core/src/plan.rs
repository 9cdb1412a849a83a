//! Executable plans and their evaluation.
//!
//! An [`ExecutionPlan`] is the product of joint partitioning for one model
//! layer: the graph partition (gTasks, with the table that made them), the
//! (possibly transformed) DFG, the operation partition, and the kernel
//! context derived from the plan's data patterns. A plan is built from a
//! partition the caller holds ([`ExecutionPlan::new`]), so a search that
//! prices many DFG and grouping variants of one table partitions it once.
//! The data-pattern rules count distinct values with
//! [`wisegraph_gtask::Recount`], the recount the plan verifier uses.
//! Evaluating a plan prices its kernels on the device model and schedules
//! its per-task work onto execution units.

use wisegraph_dfg::{transform, Binding, Dfg};
use wisegraph_graph::{AttrKind, Graph};
use wisegraph_gtask::{partition, PartitionPlan, PartitionTable, Recount};
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

/// The batch size the plan's gTasks offer to kernels: the median, over
/// tasks, of the largest `Exact(k > 1)` attribute's achieved uniqueness
/// (the *batched data* pattern of §5.1). Plans restricting everything to
/// one value offer no batching.
pub fn plan_batch_rows(g: &Graph, plan: &PartitionPlan) -> usize {
    let batched_attrs: Vec<AttrKind> = plan
        .table
        .exact_attrs()
        .iter()
        .filter(|&&(_, k)| k > 1)
        .map(|&(a, _)| a)
        .collect();
    if batched_attrs.is_empty() {
        return 1;
    }
    let mut sizes: Vec<usize> = plan
        .tasks
        .iter()
        .map(|t| {
            batched_attrs
                .iter()
                .map(|&a| t.uniq_of(g, a))
                .max()
                .unwrap_or(1)
        })
        .collect();
    sizes.sort_unstable();
    sizes[sizes.len() / 2].max(1)
}

/// `Σ uniq(attr)` over the plan's tasks: the recorded counts when the plan
/// tracks `attr`, a recount from the graph otherwise.
fn distinct_sum(g: &Graph, plan: &PartitionPlan, attr: AttrKind) -> usize {
    if let Some(j) = plan.tasks.attrs().iter().position(|&a| a == attr) {
        return plan.tasks.iter().map(|t| t.uniq_row()[j] as usize).sum();
    }
    let mut recount = Recount::new(g, [attr]);
    plan.tasks.iter().map(|t| recount.unique(0, t.edges)).sum()
}

/// Gather-deduplication factor of a plan: the fraction of raw per-edge
/// source gathers that remain after per-task dedup (the *duplicated data*
/// pattern, §5.1). Plans grouping edges by source read each unique source
/// row once per task.
pub fn plan_gather_dedup(g: &Graph, plan: &PartitionPlan) -> f64 {
    let total: usize = plan.total_edges();
    if total == 0 {
        return 1.0;
    }
    let unique_loads = distinct_sum(g, plan, AttrKind::SrcId);
    (unique_loads as f64 / total as f64).clamp(0.0, 1.0)
}

/// Edge-weighted mean, over tasks, of the padding a batched LSTM pays:
/// within one batch every sequence is padded to the longest, so the waste
/// is `max(degree) / mean(degree)` over the task's destinations. Plans
/// restricting `uniq(dst-degree)` (exactly or to `min`) keep this near 1.
pub fn plan_lstm_padding(g: &Graph, plan: &PartitionPlan) -> f64 {
    let mut recount = Recount::new(g, [AttrKind::DstId]);
    let mut weighted = 0.0f64;
    let mut total = 0.0f64;
    let mut pairs = 0usize;
    for task in &plan.tasks {
        // Degrees are integers, so their sum is exact in any order.
        let (mut max, mut sum) = (0.0f64, 0.0f64);
        let dsts = recount.unique_by(0, task.edges, |e| {
            let deg = g.in_degree()[g.dst()[e as usize] as usize] as f64;
            max = max.max(deg);
            sum += deg;
        });
        let mean = sum / dsts as f64;
        let pad = if mean > 0.0 { max / mean } else { 1.0 };
        weighted += pad * task.num_edges() as f64;
        total += task.num_edges() as f64;
        pairs += dsts;
    }
    let pad = if total > 0.0 { weighted / total } else { 1.0 };
    // Fragmentation: if a destination's in-edges are split across tasks,
    // its LSTM state must be re-loaded and serialized per fragment.
    let all_dsts = recount.unique(0, plan.tasks.edges());
    let frag = pairs as f64 / all_dsts.max(1) as f64;
    pad * frag
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

/// Builds the kernel context for a plan, applying the data-pattern rules
/// the plan's gTasks reveal: batch size, gather dedup, LSTM padding, and
/// the per-edge-weight constraint (a `PerEdgeLinear` batch needs a single
/// weight per task, i.e. `uniq(edge-type) = 1`).
fn derive_ctx(g: &Graph, plan: &PartitionPlan, dfg: &Dfg) -> KernelContext {
    let mut batch = plan_batch_rows(g, plan);
    if has_per_edge_linear(dfg)
        && plan.table.restriction(AttrKind::EdgeType) != wisegraph_gtask::Restriction::Exact(1)
    {
        // Mixed weights within a task: no matrix batching possible.
        batch = 1;
    }
    // Dedup happens in shared memory: only the unique rows that fit on
    // chip are loaded once. Batches wider than the on-chip row budget
    // realize proportionally less of the plan's deduplication.
    let width = gather_width(dfg).max(1);
    let rows_fit = (49_152 / (4 * width)).max(1) as f64;
    let dedup = plan_gather_dedup(g, plan);
    let realized = (rows_fit / batch.max(1) as f64).min(1.0);
    let effective_dedup = dedup * realized + 1.0 * (1.0 - realized);
    // Scatter fragmentation: one read-modify-write per (task, destination)
    // fragment.
    let fragments = distinct_sum(g, plan, AttrKind::DstId);
    let scatter = (fragments as f64 / plan.total_edges().max(1) as f64).clamp(0.0, 1.0);
    let mut ctx = KernelContext::gtask(plan.num_tasks() as f64, batch)
        .with_gather_dedup(effective_dedup)
        .with_scatter_dedup(scatter);
    if has_lstm(dfg) {
        ctx = ctx.with_lstm_padding(plan_lstm_padding(g, plan));
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
    /// A plan running `dfg` over `partition`, a partition of `g`: derives
    /// the kernel context from the gTask patterns. The context rules apply
    /// to the DFG that will actually run (e.g. the per-edge-weight
    /// constraint disappears once the transformation replaces
    /// `PerEdgeLinear` with a pairwise table).
    pub fn new(
        g: &Graph,
        partition: PartitionPlan,
        dfg: Dfg,
        op_partition: OpPartitionKind,
    ) -> Self {
        let ctx = derive_ctx(g, &partition, &dfg);
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
        Self::new(g, partition(g, &table), dfg, op_partition)
    }

    /// Generates this plan's kernels.
    pub fn kernels(&self, g: &Graph) -> Vec<GeneratedKernel> {
        let binding = Binding::from_graph(g);
        let part = self.op_partition.build(&self.dfg);
        generate_kernels(&self.dfg, &binding, &part, &self.ctx)
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

    /// Evaluates the plan: kernel roofline times, with the per-task kernels
    /// replaced by a list-scheduled makespan so load imbalance is visible.
    pub fn estimate(&self, g: &Graph, dev: &DeviceSpec) -> PlanEstimate {
        let binding = Binding::from_graph(g);
        let part = self.op_partition.build(&self.dfg);
        let kernels = generate_kernels(&self.dfg, &binding, &part, &self.ctx);
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
            transient_bytes: boundary_bytes(&self.dfg, &binding, &part),
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

    #[test]
    fn batch_rows_reflects_table() {
        let g = test_graph();
        let vc = partition(&g, &PartitionTable::vertex_centric());
        assert_eq!(plan_batch_rows(&g, &vc), 1);
        let batched = partition(&g, &PartitionTable::src_batch_per_type(32));
        let b = plan_batch_rows(&g, &batched);
        assert!(b > 4 && b <= 32, "batch {b}");
        let eb = partition(&g, &PartitionTable::edge_batch(64));
        assert_eq!(plan_batch_rows(&g, &eb), 64);
    }

    #[test]
    fn gtask_plan_beats_vertex_centric_for_rgcn() {
        let g = test_graph();
        let dev = DeviceSpec::a100_pcie();
        let dfg = ModelKind::Rgcn.layer_dfg(64, 64);
        let vc = ExecutionPlan::new(
            &g,
            partition(&g, &PartitionTable::vertex_centric()),
            dfg.clone(),
            OpPartitionKind::Fused,
        );
        let ours = ExecutionPlan::build(
            &g,
            PartitionTable::src_batch_per_type(64),
            &dfg,
            OpPartitionKind::DenseSeparateRestFused,
        );
        let t_vc = vc.estimate(&g, &dev).time;
        let t_ours = ours.estimate(&g, &dev).time;
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
        for kind in OpPartitionKind::ALL {
            let plan = ExecutionPlan::build(
                &g,
                PartitionTable::edge_batch(64),
                &dfg,
                kind,
            );
            let est = plan.estimate(&g, &dev);
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
        assert_eq!(fused.estimate(&g, &dev).transient_bytes, 0.0);
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
        let d = plan.task_durations(&plan.kernels(&g), &dev);
        assert_eq!(d.len(), plan.partition.num_tasks());
        assert!(d.iter().all(|&t| t >= 0.0));
        assert!(d.iter().sum::<f64>() > 0.0);
    }
}
