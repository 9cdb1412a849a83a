//! Figure 21 — applying WiseGraph to sampled-graph training.
//!
//! (a) Relative performance of reusing the partition plan searched on one
//!     sampled subgraph across fresh subgraphs, versus re-optimizing per
//!     subgraph (paper: reuse keeps ~91%).
//! (b) Wall-clock of sampling alone vs sampling + plan-driven partitioning
//!     as CPU threads increase, against the (simulated) epoch time —
//!     showing the partition overhead can be fully overlapped.

use wisegraph_baselines::single::LayerDims;
use wisegraph_bench::{build_dataset, print_table};
use wisegraph_core::plan::OpPartitionKind;
use wisegraph_core::sampled::{
    plan_reuse_relative_perf, sampled_iteration_estimate, sampling_overhead,
};
use wisegraph_core::WiseGraph;
use wisegraph_graph::sample::SampleConfig;
use wisegraph_graph::DatasetKind;
use wisegraph_gtask::PartitionTable;
use wisegraph_models::ModelKind;
use wisegraph_sim::DeviceSpec;

fn main() {
    let dev = DeviceSpec::a100_pcie();

    // (a) plan reuse.
    let mut rows = Vec::new();
    for kind in [DatasetKind::Papers, DatasetKind::FriendSter] {
        let (g, spec) = build_dataset(kind);
        let dims = LayerDims {
            f_in: spec.feature_dim,
            hidden: 64,
            classes: spec.num_classes,
            layers: 2,
        };
        let wg = WiseGraph::new(dev);
        let cfg = SampleConfig {
            num_seeds: 500,
            fanouts: vec![15, 10],
            seed: 1,
        };
        let rel = plan_reuse_relative_perf(&g, ModelKind::Rgcn, &dims, &wg, &cfg, 4);
        rows.push(vec![
            spec.kind.short_name().to_string(),
            "1.00".to_string(),
            format!("{rel:.2}"),
        ]);
    }
    print_table(
        "Figure 21(a): relative performance of plan reuse on sampled graphs",
        &["Dataset", "full-opt", "reuse"],
        &rows,
    );
    println!("Paper: reuse keeps ~0.91 of full per-sample optimization.");

    // (b) partition overhead overlap.
    let (g, spec) = build_dataset(DatasetKind::Papers);
    let cfg = SampleConfig::paper_default(3);
    let table = PartitionTable::src_batch_per_type(128);
    let samples = 8;
    // Simulated per-iteration training time of the sampled workload
    // (what the GPU is busy with while the CPU prepares the next batch).
    let wg = WiseGraph::new(dev);
    let dims = LayerDims {
        f_in: spec.feature_dim,
        hidden: 256,
        classes: spec.num_classes,
        layers: 3,
    };
    let epoch_like = sampled_iteration_estimate(
        &g,
        ModelKind::Sage,
        &dims,
        &wg,
        &table,
        OpPartitionKind::Fused,
        5,
    ) * samples as f64
        * spec.scale();
    let mut rows = Vec::new();
    for threads in [1usize, 2, 4] {
        let (sample, total) = sampling_overhead(&g, &table, &cfg, samples, threads);
        rows.push(vec![
            threads.to_string(),
            format!("{:.3}", sample),
            format!("{:.3}", total),
            format!("{:.3}", epoch_like),
            (total < epoch_like).to_string(),
        ]);
    }
    print_table(
        "Figure 21(b): CPU sampling/partitioning wall-clock (s) vs training time",
        &[
            "CPU threads",
            "sample only",
            "sample+partition",
            "training (simulated)",
            "fully overlapped",
        ],
        &rows,
    );
    println!(
        "\nPaper shape: with enough CPU threads the sample+partition time \
         drops below the epoch time and is fully hidden."
    );
}
