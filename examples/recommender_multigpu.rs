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
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::ShardSpec;
use wisegraph::models::ModelKind;
use wisegraph::sim::{PlacementKind, PlacementVolumes};

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
    let remote = ShardSpec::new(graph.num_vertices(), stack.fabric.num_devices)
        .max_remote_unique_src(&graph) as f64;
    for l in 0..dims.layers {
        let (fi, fo) = dims.layer_io(l);
        let (kind, _) =
            MultiGpuSystem::WiseGraph.layer_time(&graph, ModelKind::Sage, l, (fi, fo), &stack);
        let comm = PlacementVolumes::new(remote, graph.num_vertices(), fi, fo, fi)
            .comm_time(kind, &stack.fabric);
        let choice = match kind {
            PlacementKind::DataParallel => "communicate inputs (all-to-all)",
            PlacementKind::ComputeThenReduce => "compute first, reduce outputs",
            PlacementKind::ProjectThenCommunicate => "project first, then all-to-all",
            PlacementKind::TensorParallel => unreachable!("the closed form never splits columns"),
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
    let ours = MultiGpuSystem::WiseGraph.iteration_time(&graph, ModelKind::Sage, &dims, &stack);
    println!("  {:<10} {:>8.2} ms  <- WiseGraph", "WiseGraph", ours * 1e3);
}
