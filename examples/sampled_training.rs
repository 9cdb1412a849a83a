//! Sampled-graph (mini-batch) training with plan reuse.
//!
//! Full-graph training does not fit every budget; the paper's §6.3 extends
//! WiseGraph to sampled training: tune the partition plan on a few sampled
//! subgraphs, then reuse it for all later iterations while the CPU
//! partitions the next batch in the background.
//!
//! Run with: `cargo run --example sampled_training`

use wisegraph::baselines::single::LayerDims;
use wisegraph::core::plan::ExecutionPlan;
use wisegraph::core::WiseGraph;
use wisegraph::dfg::Binding;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::sample::{neighbor_sample, SampleConfig};
use wisegraph::graph::Csr;
use wisegraph::models::ModelKind;
use wisegraph::sim::DeviceSpec;

fn main() {
    let full = rmat(&RmatParams::standard(100_000, 1_200_000, 5).with_edge_types(8));
    let csr = Csr::in_of(&full);
    println!(
        "full graph: {}V / {}E; sampling 1000 seeds, fan-out 20-15-10",
        full.num_vertices(),
        full.num_edges()
    );

    // Tune once on the first sampled subgraph.
    let device = DeviceSpec::a100_pcie();
    let wisegraph = WiseGraph::new(device);
    let dims = LayerDims {
        f_in: 128,
        hidden: 128,
        classes: 40,
        layers: 3,
    };
    let first = neighbor_sample(&full, &csr, &SampleConfig::paper_default(0));
    let tuned = wisegraph.optimize(&first.graph, ModelKind::Rgcn, &dims);
    let table = tuned.per_layer[0].partition.table.clone();
    let op = tuned.per_layer[0].op_partition;
    println!("tuned plan: {table} / {op:?}");

    // Reuse the plan across fresh samples: partition-only per iteration.
    println!("\niterating with the reused plan:");
    for it in 1..=5u64 {
        let sub = neighbor_sample(&full, &csr, &SampleConfig::paper_default(it));
        let dfg = ModelKind::Rgcn.layer_dfg(dims.hidden, dims.hidden);
        let plan = ExecutionPlan::build(&sub.graph, table.clone(), &dfg, op);
        let est = plan.estimate(&Binding::from_graph(&sub.graph), &device);
        println!(
            "  iter {it}: subgraph {}V/{}E -> {} gTasks, {:.3} ms/layer",
            sub.graph.num_vertices(),
            sub.graph.num_edges(),
            plan.partition.num_tasks(),
            est.time * 1e3
        );
    }
    println!(
        "\nNo re-tuning per iteration: sampled subgraphs share the same \
         structural pattern, so the plan transfers (§6.3, Figure 21)."
    );
}
