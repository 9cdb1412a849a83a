//! Figure 16 — throughput as the search advances through its three stages
//! (graph partition → operation partition → joint optimization), with the
//! DGL throughput as the reference line.
//!
//! Expected shape: the graph-partition stage helps most for SAGE-LSTM and
//! GCN; the operation-partition stage is the big win for RGCN (and GAT);
//! joint optimization adds a final improvement for every model; the final
//! point clears the DGL line.

use wisegraph_baselines::{Baseline, LayerDims};
use wisegraph_bench::build_dataset;
use wisegraph_core::{SearchStage, WiseGraph};
use wisegraph_graph::DatasetKind;
use wisegraph_models::ModelKind;
use wisegraph_sim::DeviceSpec;

fn main() {
    let (g, spec) = build_dataset(DatasetKind::Arxiv);
    let dev = DeviceSpec::a100_pcie();
    let dims = LayerDims::paper_single(spec.feature_dim, spec.num_classes);
    let edges = g.num_edges() as f64;

    for model in [
        ModelKind::Rgcn,
        ModelKind::Gat,
        ModelKind::SageLstm,
        ModelKind::Gcn,
    ] {
        let out = WiseGraph::new(dev).optimize(&g, model, &dims);
        // DGL reference throughput (per-layer forward, same normalization
        // as the trace points).
        let dgl = Baseline::Dgl.estimate(&g, model, &dims, &dev);
        let dgl_layer_fwd = dgl.time_per_iter
            / (dims.layers as f64 * wisegraph_baselines::single::TRAIN_FACTOR);
        let dgl_tp = edges / dgl_layer_fwd;

        println!(
            "\n## Figure 16 ({}): throughput (M edges/s) per search step \
             [DGL line: {:.1}]",
            model.name(),
            dgl_tp / 1e6
        );
        println!("| Step | Stage | Throughput | Best so far |");
        println!("|---|---|---|---|");
        let best = out.trace.best_so_far();
        for (i, (&(stage, tp), &b)) in
            out.trace.points.iter().zip(best.iter()).enumerate()
        {
            let stage_name = match stage {
                SearchStage::GraphPartition => "Graph Partition",
                SearchStage::OperationPartition => "Operation Partition",
                SearchStage::JointOptimization => "Joint Optimization",
            };
            println!(
                "| {} | {} | {:.1} | {:.1} |",
                i,
                stage_name,
                tp / 1e6,
                b / 1e6
            );
        }
        let final_best = best.last().copied().unwrap_or(0.0);
        println!(
            "\nFinal vs DGL: {:.2}x ({})",
            final_best / dgl_tp,
            if final_best > dgl_tp {
                "above the DGL line"
            } else {
                "below the DGL line"
            }
        );
        println!(
            "Search cost: {} plans evaluated, {} pruned by the cost model",
            out.trace.evaluated(),
            out.trace.pruned
        );
    }
}
