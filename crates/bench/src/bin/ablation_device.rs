//! Ablation — plan adaptivity across device generations.
//!
//! WiseGraph's plans are chosen by a device-aware cost model, so the same
//! (graph, model) pair should get different plans — and different
//! batch sizes — on devices with different compute/bandwidth balances.
//! This harness optimizes RGCN and GCN on V100, A100 and H100 models and
//! reports the chosen plan and the cross-device slowdown of reusing
//! another device's plan.

use wisegraph_baselines::single::LayerDims;
use wisegraph_bench::{build_dataset, print_table};
use wisegraph_core::plan::ExecutionPlan;
use wisegraph_core::WiseGraph;
use wisegraph_dfg::Binding;
use wisegraph_graph::DatasetKind;
use wisegraph_models::ModelKind;
use wisegraph_sim::DeviceSpec;

fn main() {
    let (g, spec) = build_dataset(DatasetKind::Arxiv);
    let binding = Binding::from_graph(&g);
    let dims = LayerDims::paper_single(spec.feature_dim, spec.num_classes);
    let devices = [
        ("V100", DeviceSpec::v100()),
        ("A100", DeviceSpec::a100_pcie()),
        ("H100", DeviceSpec::h100()),
    ];
    for model in [ModelKind::Rgcn, ModelKind::Gcn] {
        let mut chosen: Vec<(String, ExecutionPlan, f64)> = Vec::new();
        for (name, dev) in devices {
            let wg = WiseGraph::new(dev);
            let out = wg.optimize(&g, model, &dims);
            chosen.push((
                name.to_string(),
                out.per_layer[1].clone(),
                out.time_per_iter,
            ));
        }
        let mut rows = Vec::new();
        for (i, (name, plan, time)) in chosen.iter().enumerate() {
            // Cross-check: run every other device's plan on this device.
            let dev = devices[i].1;
            let worst_foreign = chosen
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, (_, p, _))| p.estimate(&binding, &dev).time)
                .fold(0.0f64, f64::max);
            let own = plan.estimate(&binding, &dev).time;
            rows.push(vec![
                name.clone(),
                plan.partition.table.to_string(),
                plan.ctx.batch_rows.to_string(),
                format!("{:.3} ms", time * 1e3),
                format!("{:.2}x", worst_foreign / own),
            ]);
        }
        print_table(
            &format!(
                "Device adaptivity ({}): chosen plan per device",
                model.name()
            ),
            &[
                "Device",
                "chosen graph plan",
                "batch",
                "iteration",
                "worst foreign-plan slowdown",
            ],
            &rows,
        );
    }
    println!(
        "\nThe cost model re-evaluates the plan space per device. On this \
         workload the optimum is robust across V100/A100/H100 (their \
         compute/bandwidth balances scale roughly together); a foreign \
         plan's slowdown above 1.00x would indicate a device-specific \
         optimum."
    );
}
