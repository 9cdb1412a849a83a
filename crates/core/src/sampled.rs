//! Sampled-graph training support (§6.3 "Working with sampled graph
//! training", Figure 21).
//!
//! Two observations make WiseGraph practical for sampled training:
//!
//! 1. subgraphs drawn by the same sampler share structure, so a plan tuned
//!    on a few samples transfers to the rest (no per-iteration tuning);
//! 2. graph partitioning by the chosen table can run on CPU threads
//!    overlapped with training, so its overhead hides behind the epoch.

use crate::plan::{ExecutionPlan, OpPartitionKind, Patterns};
use crate::optimizer::WiseGraph;
use wisegraph_baselines::single::LayerDims;
use wisegraph_dfg::{transform, Binding};
use wisegraph_graph::sample::{neighbor_sample, SampleConfig, SampledSubgraph};
use wisegraph_graph::{Csr, Graph};
use wisegraph_gtask::{partition, PartitionTable, Recount};
use wisegraph_models::ModelKind;
use wisegraph_obs::clock::Stopwatch;

/// Sample `i` of a stream drawn from `cfg`: the sampler run with seed
/// `cfg.seed + i`.
fn nth_sample(g: &Graph, csr: &Csr, cfg: &SampleConfig, i: usize) -> SampledSubgraph {
    neighbor_sample(
        g,
        csr,
        &SampleConfig {
            seed: cfg.seed + i as u64,
            ..cfg.clone()
        },
    )
}

/// Relative performance of reusing one searched plan across fresh samples,
/// versus re-optimizing per sample (Figure 21a's `full-opt` vs `reuse`).
///
/// Returns the mean, over samples, of `t_optimal / t_reused` (≤ 1).
pub fn plan_reuse_relative_perf(
    g: &Graph,
    model: ModelKind,
    dims: &LayerDims,
    wg: &WiseGraph,
    cfg: &SampleConfig,
    num_samples: usize,
) -> f64 {
    assert!(num_samples >= 2, "need a tuning sample plus test samples");
    let csr = Csr::in_of(g);
    // Tune on the first sample.
    let first = nth_sample(g, &csr, cfg, 0);
    let tuned = wg.optimize(&first.graph, model, dims);
    let table = tuned.per_layer[0].partition.table.clone();
    let op = tuned.per_layer[0].op_partition;
    let mut ratios = Vec::new();
    for i in 1..num_samples {
        let sub = nth_sample(g, &csr, cfg, i);
        // Reused plan: same table + op partition, re-partition only.
        let dfg = model.layer_dfg(dims.hidden, dims.hidden);
        let reused = ExecutionPlan::build(&sub.graph, table.clone(), &dfg, op);
        let t_reused = reused.estimate(&Binding::from_graph(&sub.graph), &wg.device).time;
        // Per-sample optimum.
        let opt = wg.optimize(&sub.graph, model, dims);
        let t_opt = opt.time_per_iter
            / (dims.layers as f64 * wisegraph_baselines::single::TRAIN_FACTOR);
        ratios.push((t_opt / t_reused).min(1.0));
    }
    ratios.iter().sum::<f64>() / ratios.len() as f64
}

/// Wall-clock times of sampling alone versus sampling plus plan-driven
/// partitioning, with the partitioning fanned out over `threads` CPU
/// threads (Figure 21b). Returns `(sample_seconds, sample_plus_partition
/// _seconds)` for `num_samples` subgraphs.
pub fn sampling_overhead(
    g: &Graph,
    table: &PartitionTable,
    cfg: &SampleConfig,
    num_samples: usize,
    threads: usize,
) -> (f64, f64) {
    assert!(threads > 0, "need at least one thread");
    let csr = Csr::in_of(g);
    let t = Stopwatch::start();
    let subs: Vec<_> = (0..num_samples)
        .map(|i| nth_sample(g, &csr, cfg, i))
        .collect();
    let sample_time = t.elapsed_seconds();

    let t = Stopwatch::start();
    std::thread::scope(|s| {
        for chunk in subs.chunks(num_samples.div_ceil(threads)) {
            s.spawn(move || {
                for sub in chunk {
                    let plan = partition(&sub.graph, table);
                    std::hint::black_box(plan.num_tasks());
                }
            });
        }
    });
    let partition_time = t.elapsed_seconds();
    (sample_time, sample_time + partition_time)
}

/// Convenience: one full sampled-training iteration estimate (sample →
/// partition with a reused plan → simulated execution).
pub fn sampled_iteration_estimate(
    g: &Graph,
    model: ModelKind,
    dims: &LayerDims,
    wg: &WiseGraph,
    table: &PartitionTable,
    op: OpPartitionKind,
    seed: u64,
) -> f64 {
    let csr = Csr::in_of(g);
    let sub = neighbor_sample(g, &csr, &SampleConfig::paper_default(seed));
    let g = &sub.graph;
    let part = partition(g, table);
    let repr_dfg = model.layer_dfg(dims.hidden, dims.hidden);
    let patterns = Patterns::count(&mut Recount::new(g), &part, &repr_dfg);
    let binding = Binding::from_graph(g);
    let mut total = 0.0;
    for l in 0..dims.layers {
        let (fi, fo) = dims.layer_io(l);
        let dfg = transform::optimize(&model.layer_dfg(fi, fo), &binding).0;
        let plan = ExecutionPlan::new(&patterns, part.clone(), dfg, op);
        total += plan.estimate(&binding, &wg.device).time;
    }
    total * wisegraph_baselines::single::TRAIN_FACTOR
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_sim::DeviceSpec;

    fn parent_graph() -> Graph {
        rmat(&RmatParams::standard(20_000, 200_000, 31).with_edge_types(4))
    }

    #[test]
    fn reused_plans_stay_near_optimal() {
        // Figure 21a: reuse achieves ~91% of full optimization.
        let g = parent_graph();
        let wg = WiseGraph::new(DeviceSpec::a100_pcie());
        let dims = LayerDims {
            f_in: 64,
            hidden: 64,
            classes: 16,
            layers: 2,
        };
        let cfg = SampleConfig {
            num_seeds: 200,
            fanouts: vec![10, 10],
            seed: 1,
        };
        let rel =
            plan_reuse_relative_perf(&g, ModelKind::Rgcn, &dims, &wg, &cfg, 3);
        assert!(
            rel > 0.6,
            "reused plan should stay near optimal, got {rel}"
        );
    }

    #[test]
    fn partition_overhead_adds_to_sampling() {
        // Wall-clock durations are reported by Figure 21b, not asserted.
        let g = parent_graph();
        let cfg = SampleConfig {
            num_seeds: 800,
            fanouts: vec![15, 10],
            seed: 5,
        };
        let (s, t) = sampling_overhead(&g, &PartitionTable::two_d(8), &cfg, 2, 2);
        assert!(t >= s);
    }

    #[test]
    fn sampled_iteration_estimate_is_positive() {
        let g = parent_graph();
        let wg = WiseGraph::new(DeviceSpec::a100_pcie());
        let dims = LayerDims {
            f_in: 64,
            hidden: 64,
            classes: 16,
            layers: 3,
        };
        let t = sampled_iteration_estimate(
            &g,
            ModelKind::Sage,
            &dims,
            &wg,
            &PartitionTable::edge_batch(64),
            OpPartitionKind::Fused,
            7,
        );
        assert!(t > 0.0);
    }
}
