//! Multi-GPU planning for a recommendation-scale graph.
//!
//! Recommendation systems are one of the paper's motivating applications:
//! bipartite-ish user/item graphs too large for one device. This example
//! partitions a large interaction graph across 4 simulated A100s and shows
//! how WiseGraph's operation placement (communicate inputs vs. outputs,
//! §5.4) adapts per layer while the static strategies (DGL data parallel,
//! P3 hybrid) do not.
//!
//! Run with: `cargo run --example recommender_multigpu`

use wisegraph::baselines::single::LayerDims;
use wisegraph::baselines::{MultiGpuSystem, MultiStack};
use wisegraph::core::multi;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::models::ModelKind;

fn main() {
    // Interaction graph: 200K users+items, 3M interactions, heavy skew
    // (popular items).
    let graph = rmat(&RmatParams::standard(200_000, 3_000_000, 99));
    let stack = MultiStack::paper_quad();
    println!(
        "interaction graph: {}V / {}E on {} devices over PCIe",
        graph.num_vertices(),
        graph.num_edges(),
        stack.fabric.num_devices
    );

    let dims = LayerDims {
        f_in: 256, // rich item embeddings
        hidden: 64,
        classes: 32,
        layers: 2,
    };

    println!("\nper-layer communication placement (WiseGraph):");
    for l in 0..dims.layers {
        let (fi, fo) = dims.layer_io(l);
        let comm = multi::best_placement_comm(&graph, &stack, fi, fo);
        let remote = wisegraph::graph::ShardSpec::new(graph.num_vertices(), 4)
            .max_remote_unique_src(&graph) as f64;
        let input_side = stack.fabric.all_to_all(remote * fi as f64 * 4.0);
        let output_side = stack
            .fabric
            .reduce_scatter(graph.num_vertices() as f64 * fo as f64 * 4.0);
        let choice = if (comm - input_side).abs() < 1e-12 {
            "communicate inputs (all-to-all)"
        } else if (comm - output_side).abs() < 1e-12 {
            "compute first, reduce outputs"
        } else {
            "project first, then all-to-all"
        };
        println!(
            "  layer {l}: {fi}->{fo}, {:.2} ms -- {choice}",
            comm * 1e3
        );
    }

    println!("\nepoch time comparison (SAGE):");
    for sys in [MultiGpuSystem::Dgl, MultiGpuSystem::Roc] {
        let t = sys.iteration_time(&graph, ModelKind::Sage, &dims, &stack);
        println!("  {:<10} {:>8.2} ms", sys.name(), t * 1e3);
    }
    let ours = multi::iteration_time(&graph, ModelKind::Sage, &dims, &stack);
    println!("  {:<10} {:>8.2} ms  <- WiseGraph", "WiseGraph", ours * 1e3);
}
