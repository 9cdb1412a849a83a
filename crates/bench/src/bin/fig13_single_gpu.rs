//! Figure 13 — single-GPU per-iteration time across five models, five
//! datasets and all applicable systems (including WiseGraph's gTask-based
//! execution). White cells (OOM) are printed as `OOM`.
//!
//! Expected shape: WiseGraph fastest everywhere; ~2.6× over the best
//! baseline on complex models (RGCN, GAT, SAGE-LSTM) and ~1.13× on simple
//! ones (SAGE, GCN); tensor-centric OOMs on large-edge datasets where
//! graph-centric still runs.

use wisegraph_baselines::{Baseline, LayerDims};
use wisegraph_bench::{build_dataset, fmt_ms, geomean, print_table};
use wisegraph_core::WiseGraph;
use wisegraph_graph::DatasetKind;
use wisegraph_models::ModelKind;
use wisegraph_sim::DeviceSpec;

fn main() {
    let dev = DeviceSpec::a100_pcie();
    let built: Vec<_> = DatasetKind::SINGLE_GPU.iter().map(|&k| build_dataset(k)).collect();

    let mut speedups_complex = Vec::new();
    let mut speedups_simple = Vec::new();
    for model in ModelKind::ALL {
        let columns = Baseline::columns_for(model);
        let mut headers: Vec<String> =
            columns.iter().map(|b| b.label(model).to_string()).collect();
        headers.insert(0, "Dataset".to_string());
        headers.push("Our-gT".to_string());
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

        let mut rows = Vec::new();
        for (g, spec) in &built {
            let dims = LayerDims::paper_single(spec.feature_dim, spec.num_classes);
            let scale = spec.scale();
            let mut row = vec![spec.kind.short_name().to_string()];
            let mut best_baseline = f64::INFINITY;
            for b in &columns {
                let est = b.estimate(g, model, &dims, &dev);
                let oom = est.memory_bytes * scale > dev.mem_capacity;
                if !oom {
                    best_baseline = best_baseline.min(est.time_per_iter * scale);
                }
                row.push(fmt_ms(est.time_per_iter * scale, oom));
            }
            let wg = WiseGraph::new(dev);
            let ours = wg.optimize(g, model, &dims);
            let ours_oom = ours.memory_bytes * scale > dev.mem_capacity;
            let ours_time = ours.time_per_iter * scale;
            row.push(fmt_ms(ours_time, ours_oom));
            rows.push(row);
            if best_baseline.is_finite() && !ours_oom {
                let s = best_baseline / ours_time;
                if model.is_complex() {
                    speedups_complex.push(s);
                } else {
                    speedups_simple.push(s);
                }
            }
        }
        print_table(
            &format!("Figure 13 ({}): per-iteration time (ms)", model.name()),
            &header_refs,
            &rows,
        );
    }
    println!(
        "\nGeomean speedup of Our-gT over the best baseline: complex models \
         {:.2}x (paper: 2.64x), simple models {:.2}x (paper: 1.13x)",
        geomean(&speedups_complex),
        geomean(&speedups_simple)
    );
}
