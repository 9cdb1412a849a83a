//! Figure 17 — execution-time breakdown with and without
//! duplication-aware DFG transformation, on AR and PA-S.
//!
//! The baseline runs the original (user-written) DFG; the optimized
//! version runs the transformed DFG with the same kernels. Time is split
//! into indexing and neural components per kernel class.
//!
//! Expected shape: RGCN's neural time shrinks dramatically on AR (paper:
//! −92.7%, many sources share an edge type); SAGE shows no duplication win
//! on AR but a large one on PA-S (paper: −78.5%; fewer destinations than
//! sources).

use wisegraph_baselines::single::LayerDims;
use wisegraph_bench::{build_dataset, print_table};
use wisegraph_core::plan::{ExecutionPlan, OpPartitionKind, Patterns};
use wisegraph_dfg::{analysis, transform, Binding};
use wisegraph_graph::DatasetKind;
use wisegraph_gtask::{partition, PartitionTable, Recount};
use wisegraph_models::ModelKind;
use wisegraph_sim::DeviceSpec;

/// Splits a plan's simulated time into (indexing, neural) components.
fn breakdown(plan: &ExecutionPlan, binding: &Binding, dev: &DeviceSpec) -> (f64, f64) {
    let mut indexing = 0.0;
    let mut neural = 0.0;
    for k in plan.kernels(binding) {
        let t = dev.kernel_time(&k.cost);
        // A kernel's time divides by its bottleneck: compute-side time is
        // "neural", the rest is data movement.
        let occ = dev.occupancy(k.cost.parallel_tasks);
        let compute = k.cost.flops / (dev.effective_flops(k.cost.class) * occ);
        let neural_part = compute.min(t);
        neural += neural_part;
        indexing += t - neural_part;
    }
    (indexing, neural)
}

fn table_for(model: ModelKind) -> PartitionTable {
    match model {
        ModelKind::Rgcn => PartitionTable::src_batch_per_type(128),
        _ => PartitionTable::edge_batch(128),
    }
}

fn main() {
    let dev = DeviceSpec::a100_pcie();
    for kind in [DatasetKind::Arxiv, DatasetKind::PapersSample] {
        let (g, spec) = build_dataset(kind);
        let dims = LayerDims::paper_single(spec.feature_dim, spec.num_classes);
        let (fi, fo) = dims.layer_io(1);
        let binding = Binding::from_graph(&g);
        let mut recount = Recount::new(&g);
        let mut rows = Vec::new();
        for model in [ModelKind::Rgcn, ModelKind::Gat, ModelKind::Sage] {
            let dfg = model.layer_dfg(fi, fo);
            let part = partition(&g, &table_for(model));
            let patterns = Patterns::count(&mut recount, &part, &dfg);
            let transformed = transform::optimize(&dfg, &binding).0;
            let optimized =
                ExecutionPlan::new(&patterns, part.clone(), transformed, OpPartitionKind::Fused);
            let baseline = ExecutionPlan::new(&patterns, part, dfg, OpPartitionKind::Fused);
            let (bi, bn) = breakdown(&baseline, &binding, &dev);
            let (oi, on) = breakdown(&optimized, &binding, &dev);
            let total_b = bi + bn;
            // Neural reduction measured in FLOPs: the share of neural
            // computation the transformation eliminates outright.
            let wf_b = analysis::workload(&baseline.dfg, &binding);
            let wf_o = analysis::workload(&optimized.dfg, &binding);
            let neural_red = if wf_b.neural_flops > 0.0 {
                100.0 * (1.0 - wf_o.neural_flops / wf_b.neural_flops)
            } else {
                0.0
            };
            rows.push(vec![
                model.name().to_string(),
                format!("{:.0}% / {:.0}%", 100.0 * bi / total_b, 100.0 * bn / total_b),
                format!(
                    "{:.0}% / {:.0}%",
                    100.0 * oi / total_b,
                    100.0 * on / total_b
                ),
                format!("{neural_red:.1}%"),
                format!("{:.1}%", 100.0 * (1.0 - (oi + on) / total_b)),
            ]);
        }
        print_table(
            &format!(
                "Figure 17 ({}): normalized time, baseline vs transformed DFG",
                spec.kind.short_name()
            ),
            &[
                "Model",
                "baseline idx/NN",
                "optimized idx/NN",
                "neural reduction",
                "total reduction",
            ],
            &rows,
        );
    }
    println!(
        "\nPaper shape: RGCN neural time cut by ~93% on AR; SAGE untouched \
         on AR but cut by ~79% on PA-S (fewer destinations than sources)."
    );
}
