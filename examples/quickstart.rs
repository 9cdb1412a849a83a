//! Quickstart: optimize a GNN workload with WiseGraph end to end.
//!
//! Builds a power-law graph, asks WiseGraph to jointly partition graph
//! data and operations for an RGCN layer stack, and compares the resulting
//! execution plan against the classic baselines — the paper's headline
//! experiment in miniature.
//!
//! Run with: `cargo run --example quickstart`

use wisegraph::baselines::{Baseline, LayerDims};
use wisegraph::core::WiseGraph;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::models::ModelKind;
use wisegraph::sim::DeviceSpec;

fn main() {
    // 1. Graph data: 50K vertices, 600K edges, 8 relation types, skewed
    //    like a real-world graph.
    let graph = rmat(&RmatParams::standard(50_000, 600_000, 42).with_edge_types(8));
    println!(
        "graph: {} vertices, {} edges, {} edge types",
        graph.num_vertices(),
        graph.num_edges(),
        graph.num_edge_types()
    );

    // 2. Model: a 3-layer RGCN, 128-d inputs, 256-d hidden, 40 classes.
    let model = ModelKind::Rgcn;
    let dims = LayerDims::paper_single(128, 40);

    // 3. Let WiseGraph search the joint partition space.
    let device = DeviceSpec::a100_pcie();
    let wisegraph = WiseGraph::new(device);
    let optimized = wisegraph.optimize(&graph, model, &dims);

    let plan = &optimized.per_layer[0];
    println!("\nchosen graph partition:   {}", plan.partition.table);
    println!("chosen operation partition: {:?}", plan.op_partition);
    println!(
        "gTasks: {} (median {} edges), batch {} rows per task",
        plan.partition.num_tasks(),
        plan.partition.median_task_edges(),
        plan.ctx.batch_rows
    );
    println!(
        "simulated training iteration: {:.2} ms",
        optimized.time_per_iter * 1e3
    );

    // 4. Compare with the baselines the paper evaluates against.
    println!("\nbaseline comparison (per iteration):");
    for b in Baseline::columns_for(model) {
        let est = b.estimate(&graph, model, &dims, &device);
        println!(
            "  {:<10} {:>8.2} ms{}",
            b.label(model),
            est.time_per_iter * 1e3,
            if est.oom { "  (OOM)" } else { "" }
        );
    }
    println!(
        "  {:<10} {:>8.2} ms  <- WiseGraph",
        "Our-gT",
        optimized.time_per_iter * 1e3
    );

    println!(
        "\nsearch: {} plans evaluated, {} pruned by the cost model",
        optimized.trace.evaluated(),
        optimized.trace.pruned
    );
}
