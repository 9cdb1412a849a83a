//! Joint optimization: differentiated scheduling of outlier gTasks (§6.2).
//!
//! After classifying gTasks (underfill / overfill / frequent-value), the
//! scheduler rewrites their execution:
//!
//! - **underfill** tasks drop the batched micro-kernel and run edge-wise —
//!   no padding waste — at *low* priority (they fill scheduling gaps);
//! - **overfill** tasks get extra compute resources (a dedicated kernel
//!   with more thread blocks and shared memory) and the *highest* priority
//!   so they start first and do not produce a long tail;
//! - **frequent-value** tasks fetch precomputed shared work, roughly
//!   halving their duration.

use crate::plan::ExecutionPlan;
use wisegraph_dfg::Binding;
use wisegraph_gtask::outlier::{classify_outliers, summarize, OutlierSummary};
use wisegraph_gtask::{OutlierKind, Recount};
use wisegraph_sim::{schedule, DeviceSpec};

// The three multipliers below are assumed, not measured — ROADMAP
// scheduling item (4) replaces them with ratios taken on the real engine.

/// Edge-wise execution is this factor less efficient *per edge* than
/// batched execution (but pays no padding).
const EDGEWISE_PENALTY: f64 = 2.0;
/// Duration multiplier for overfill tasks given extra resources.
const OVERFILL_SPEEDUP: f64 = 0.7;
/// Duration multiplier for frequent-value tasks after precomputing the
/// shared workload.
const FREQUENT_SPEEDUP: f64 = 0.5;

/// The outcome of scheduling one plan with and without differentiation.
#[derive(Clone, Copy, Debug)]
pub struct ScheduleComparison {
    /// Makespan with uniform execution (seconds).
    pub uniform: f64,
    /// Makespan with differentiated outlier execution (seconds).
    pub differentiated: f64,
    /// Share of uniform execution time spent in outlier tasks.
    pub outlier_time_fraction: f64,
    /// Outlier classification summary.
    pub summary: OutlierSummary,
}

/// Schedules the plan's per-task work uniformly and with differentiated
/// outlier handling, returning both makespans. `binding` and `recount` are
/// the whole-scope binding and a recount of the plan's graph.
pub fn compare_scheduling(
    plan: &ExecutionPlan,
    binding: &Binding,
    recount: &mut Recount<'_>,
    dev: &DeviceSpec,
) -> ScheduleComparison {
    let durations = plan.task_durations(&plan.kernels(binding), dev);
    let classes = classify_outliers(recount, &plan.partition);
    let summary = summarize(&plan.partition, &classes);
    let uniform = schedule::makespan_uniform(&durations, dev.num_sms);

    let outlier_time: f64 = durations
        .iter()
        .zip(classes.iter())
        .filter(|(_, c)| c.is_some())
        .map(|(&d, _)| d)
        .sum();
    let total_time: f64 = durations.iter().sum();

    let median_edges = plan.partition.median_task_edges().max(1) as f64;
    let tasks: Vec<schedule::ScheduledTask> = durations
        .iter()
        .zip(classes.iter())
        .zip(plan.partition.tasks.iter())
        .map(|((&d, class), task)| match class {
            // Underfill: edge-wise execution removes batch padding. The
            // uniform duration was padded to the median task size; the
            // edge-wise version costs per actual edge, with a per-edge
            // efficiency penalty, and runs last.
            Some(OutlierKind::Underfill) => {
                let padded_units = (task.num_edges() as f64).max(median_edges);
                let edgewise = d * (task.num_edges() as f64 / padded_units) * EDGEWISE_PENALTY;
                schedule::ScheduledTask {
                    // Never worse than the padded batch execution.
                    duration: edgewise.min(d),
                    priority: -1,
                }
            }
            Some(OutlierKind::Overfill) => schedule::ScheduledTask {
                duration: d * OVERFILL_SPEEDUP,
                priority: 2,
            },
            Some(OutlierKind::FrequentValue) => schedule::ScheduledTask {
                duration: d * FREQUENT_SPEEDUP,
                priority: 1,
            },
            None => schedule::ScheduledTask {
                duration: d,
                priority: 0,
            },
        })
        .collect();
    let differentiated = schedule::makespan(&tasks, dev.num_sms);

    ScheduleComparison {
        uniform,
        differentiated,
        outlier_time_fraction: if total_time > 0.0 {
            outlier_time / total_time
        } else {
            0.0
        },
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{OpPartitionKind, Patterns};
    use wisegraph_dfg::Dfg;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_graph::Graph;
    use wisegraph_gtask::{partition, PartitionTable};
    use wisegraph_models::ModelKind;

    /// `dfg`'s fused plan over `table`, compared on `g`.
    fn compare(g: &Graph, table: &PartitionTable, dfg: Dfg) -> ScheduleComparison {
        let mut recount = Recount::new(g);
        let part = partition(g, table);
        let patterns = Patterns::count(&mut recount, &part, &dfg);
        let plan = ExecutionPlan::new(&patterns, part, dfg, OpPartitionKind::Fused);
        let dev = DeviceSpec::a100_pcie();
        compare_scheduling(&plan, &Binding::from_graph(g), &mut recount, &dev)
    }

    #[test]
    fn differentiation_never_hurts_on_skewed_graphs() {
        // Power-law graph + vertex-centric: hub vertices create overfill
        // tasks and a long tail; differentiated execution shortens it.
        let g = rmat(&RmatParams::standard(4000, 60_000, 3).with_edge_types(4));
        let cmp = compare(&g, &PartitionTable::vertex_centric(), ModelKind::Gat.layer_dfg(64, 64));
        assert!(
            cmp.differentiated <= cmp.uniform * 1.001,
            "uniform {} vs differentiated {}",
            cmp.uniform,
            cmp.differentiated
        );
        assert!(cmp.summary.overfill > 0, "hubs should overfill: {:?}", cmp.summary);
    }

    #[test]
    fn outlier_fraction_is_substantial_on_power_law() {
        // §7.3: "52.9% of execution time is spent on outlier gTasks on
        // average" — a large share, driven by the degree skew.
        let g = rmat(&RmatParams::standard(4000, 60_000, 5).with_edge_types(4));
        let table = PartitionTable::new()
            .exact(wisegraph_graph::AttrKind::DstId, 1)
            .exact(wisegraph_graph::AttrKind::EdgeId, 32);
        let cmp = compare(&g, &table, ModelKind::Rgcn.layer_dfg(64, 64));
        assert!(
            cmp.outlier_time_fraction > 0.2,
            "outlier fraction {}",
            cmp.outlier_time_fraction
        );
    }

    #[test]
    fn balanced_plans_see_little_change() {
        let g = rmat(&RmatParams::standard(2000, 30_000, 7));
        let cmp = compare(&g, &PartitionTable::edge_batch(32), ModelKind::Gcn.layer_dfg(32, 32));
        // Edge batching is balanced by construction: differentiation
        // changes the makespan by < 20%.
        let ratio = cmp.differentiated / cmp.uniform;
        assert!((0.5..=1.01).contains(&ratio), "ratio {ratio}");
    }
}
