//! Sampled-graph training support (§6.3 "Working with sampled graph
//! training", Figure 21).
//!
//! Two observations make WiseGraph practical for sampled training:
//!
//! 1. subgraphs drawn by the same sampler share structure, so a plan tuned
//!    on a few samples transfers to the rest (no per-iteration tuning);
//! 2. graph partitioning by the chosen table can run on CPU threads
//!    overlapped with training, so its overhead hides behind the epoch.

use crate::plan::{ExecutionPlan, OpPartitionKind};
use crate::optimizer::WiseGraph;
use std::collections::HashMap;
use wisegraph_baselines::single::LayerDims;
use wisegraph_graph::sample::{neighbor_sample, SampleConfig, SampledSubgraph};
use wisegraph_graph::{Csr, Graph};
use wisegraph_gtask::{partition, PartitionTable};
use wisegraph_kernels::engine::Engine;
use wisegraph_models::ModelKind;
use wisegraph_obs::clock::Stopwatch;
use wisegraph_obs::{keys, Class, Counters};
use wisegraph_tensor::init;

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
    let table = tuned.per_layer[0].table.clone();
    let op = tuned.per_layer[0].op_partition;
    let mut ratios = Vec::new();
    for i in 1..num_samples {
        let sub = nth_sample(g, &csr, cfg, i);
        // Reused plan: same table + op partition, re-partition only.
        let dfg = model.layer_dfg(dims.hidden, dims.hidden);
        let reused = ExecutionPlan::build(&sub.graph, table.clone(), &dfg, op);
        let t_reused = reused.estimate(&sub.graph, &wg.device).time;
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

/// Deterministic work accounting for the partition fan-out in
/// [`sampling_overhead`]: draws the same subgraphs, splits them across
/// `threads` workers exactly as the timed path does
/// (`chunks(num_samples.div_ceil(threads))`), and records the number of
/// edges partitioned by each worker under the `fanout.*` counter keys:
/// `fanout.worker.NN.edges` per worker, [`keys::FANOUT_TOTAL_EDGES`]
/// summed across workers, and [`keys::FANOUT_CRITICAL_EDGES`] — the
/// longest per-worker entry, i.e. the fan-out's critical path — so
/// overhead claims can be asserted on work counters instead of noisy
/// wall-clock times. All keys are [`Class::Work`].
pub fn partition_fanout_work(
    g: &Graph,
    table: &PartitionTable,
    cfg: &SampleConfig,
    num_samples: usize,
    threads: usize,
) -> Counters {
    assert!(threads > 0, "need at least one thread");
    let csr = Csr::in_of(g);
    let subs: Vec<_> = (0..num_samples)
        .map(|i| nth_sample(g, &csr, cfg, i))
        .collect();
    let mut c = Counters::new();
    for (w, chunk) in subs.chunks(num_samples.div_ceil(threads)).enumerate() {
        let edges: u64 = chunk
            .iter()
            .map(|sub| partition(&sub.graph, table).total_edges() as u64)
            .sum();
        c.add(keys::fanout_worker_edges(w), edges);
        c.add(keys::FANOUT_TOTAL_EDGES, edges);
        c.record_max(keys::FANOUT_CRITICAL_EDGES, edges, Class::Work);
    }
    c
}

/// Executes one GCN layer on each of `num_samples` sampled subgraphs
/// through a single persistent [`Engine`], returning the merged workspace
/// counters.
///
/// This is the buffer-pool analogue of plan reuse (observation 1 above):
/// subgraphs drawn by the same sampler have similar sizes, so they fall
/// into the same power-of-two size classes and the engine's per-worker
/// pools — warmed by the first sample — serve every later sample without
/// fresh allocation.
///
/// # Panics
///
/// Panics if `threads == 0` or the GCN layer fails to compile per task.
pub fn sampled_execution_reuse(
    g: &Graph,
    table: &PartitionTable,
    cfg: &SampleConfig,
    num_samples: usize,
    threads: usize,
    (f_in, f_out): (usize, usize),
) -> Counters {
    let csr = Csr::in_of(g);
    let engine = Engine::new(threads);
    let dfg = ModelKind::Gcn.layer_dfg(f_in, f_out);
    let w = init::uniform_tensor(&[f_in, f_out], -1.0, 1.0, cfg.seed ^ 0x5EED);
    for i in 0..num_samples {
        let sub = nth_sample(g, &csr, cfg, i);
        let plan = partition(&sub.graph, table);
        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(
                &[sub.graph.num_vertices(), f_in],
                -1.0,
                1.0,
                cfg.seed + i as u64,
            ),
        );
        globals.insert("w".to_string(), w.clone());
        engine
            .execute(&dfg, &sub.graph, &plan, &globals)
            .expect("GCN layer executes per task");
    }
    engine.stats()
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
    let mut total = 0.0;
    for l in 0..dims.layers {
        let (fi, fo) = dims.layer_io(l);
        let dfg = model.layer_dfg(fi, fo);
        let plan = ExecutionPlan::build(&sub.graph, table.clone(), &dfg, op);
        total += plan.estimate(&sub.graph, &wg.device).time;
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
    fn more_threads_shrink_partition_overhead() {
        // The wall-clock version of this assertion was flaky (CI boxes may
        // expose one core, where fanning out cannot win), so the claim is
        // made on deterministic work counters: fanning the same samples
        // over 4 workers conserves total partitioning work while strictly
        // shrinking the per-worker critical path.
        let g = parent_graph();
        let cfg = SampleConfig {
            num_seeds: 800,
            fanouts: vec![15, 10],
            seed: 5,
        };
        let table = PartitionTable::two_d(8);
        let w1 = partition_fanout_work(&g, &table, &cfg, 8, 1);
        let w4 = partition_fanout_work(&g, &table, &cfg, 8, 4);
        let workers = |c: &Counters| {
            (0..8)
                .map(|i| c.count(&keys::fanout_worker_edges(i)))
                .filter(|&e| e > 0)
                .count()
        };
        assert_eq!(workers(&w1), 1);
        assert_eq!(workers(&w4), 4, "8 samples over 4 workers → 4 chunks of 2");
        let total = w1.count(keys::FANOUT_TOTAL_EDGES);
        assert!(total > 0, "samples must contain edges");
        assert_eq!(
            w1.count(keys::FANOUT_CRITICAL_EDGES),
            total,
            "one worker's critical path is the whole job"
        );
        assert_eq!(
            w4.count(keys::FANOUT_TOTAL_EDGES),
            total,
            "fan-out must conserve total partitioning work"
        );
        let critical = w4.count(keys::FANOUT_CRITICAL_EDGES);
        assert!(
            critical < total,
            "critical path {critical} must shrink below the serial total {total}"
        );
        let again = partition_fanout_work(&g, &table, &cfg, 8, 4);
        assert_eq!(
            wisegraph_obs::counters_to_json(&again),
            wisegraph_obs::counters_to_json(&w4),
            "work accounting must be deterministic run to run"
        );
        // The timed path still exists and agrees on shape; its durations
        // are reported, not asserted.
        let (s, t) = sampling_overhead(&g, &table, &cfg, 2, 2);
        assert!(t >= s);
    }

    #[test]
    fn persistent_engine_recycles_across_samples() {
        let g = rmat(&RmatParams::standard(5_000, 40_000, 13));
        let cfg = SampleConfig {
            num_seeds: 100,
            fanouts: vec![10, 5],
            seed: 21,
        };
        let stats = sampled_execution_reuse(
            &g,
            &PartitionTable::edge_batch(64),
            &cfg,
            4,
            2,
            (16, 8),
        );
        assert!(
            stats.count(keys::POOL_REUSED) > 0,
            "samples after the first must reuse"
        );
        let ratio = wisegraph_obs::pool_reuse_ratio(&stats);
        assert!(ratio > 0.5, "pool should serve most checkouts, ratio {ratio}");
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
