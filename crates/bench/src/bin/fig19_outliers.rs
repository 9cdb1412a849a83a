//! Figure 19 — differentiated execution of outlier gTasks on AR.
//!
//! For each model, the plan the paper calls out (frequent-value outliers
//! for RGCN, overfill for GAT, underfill for the rest) is scheduled
//! uniformly and with differentiated outlier handling (§6.2).
//!
//! Expected shape: a large share of uniform execution time sits in outlier
//! tasks (paper: 52.9% on average); differentiated execution cuts outlier
//! time by ~60% and total time by ~33%.

use wisegraph_baselines::single::LayerDims;
use wisegraph_bench::{build_dataset, print_table};
use wisegraph_core::joint::compare_scheduling;
use wisegraph_core::plan::{ExecutionPlan, OpPartitionKind};
use wisegraph_dfg::Binding;
use wisegraph_graph::{AttrKind, DatasetKind};
use wisegraph_gtask::{PartitionTable, Recount};
use wisegraph_models::ModelKind;
use wisegraph_sim::DeviceSpec;

/// The restriction whose outlier class the paper highlights per model.
fn table_for(model: ModelKind) -> PartitionTable {
    match model {
        // dst-id=1 & edge-id=K: hub destinations recur across tasks
        // (frequent values).
        ModelKind::Rgcn => PartitionTable::new()
            .exact(AttrKind::DstId, 1)
            .exact(AttrKind::EdgeId, 32),
        // src=K & type=1: high-degree sources overfill tasks.
        ModelKind::Gat => PartitionTable::new().exact(AttrKind::SrcId, 64),
        // dst batches: low-degree destinations underfill.
        _ => PartitionTable::new()
            .exact(AttrKind::DstId, 1)
            .exact(AttrKind::EdgeId, 64),
    }
}

fn main() {
    let (g, spec) = build_dataset(DatasetKind::Arxiv);
    let dev = DeviceSpec::a100_pcie();
    let dims = LayerDims::paper_single(spec.feature_dim, spec.num_classes);
    let (fi, fo) = dims.layer_io(1);
    let binding = Binding::from_graph(&g);
    let mut recount = Recount::new(&g);
    let mut rows = Vec::new();
    let mut outlier_fracs = Vec::new();
    let mut total_reductions = Vec::new();
    for model in ModelKind::ALL {
        let dfg = model.layer_dfg(fi, fo);
        let plan =
            ExecutionPlan::build(&g, table_for(model), &dfg, OpPartitionKind::Fused);
        let cmp = compare_scheduling(&plan, &binding, &mut recount, &dev);
        let reduction = 100.0 * (1.0 - cmp.differentiated / cmp.uniform);
        rows.push(vec![
            model.name().to_string(),
            format!(
                "{}u/{}o/{}f of {}",
                cmp.summary.underfill,
                cmp.summary.overfill,
                cmp.summary.frequent,
                cmp.summary.regular
                    + cmp.summary.underfill
                    + cmp.summary.overfill
                    + cmp.summary.frequent
            ),
            format!("{:.1}%", 100.0 * cmp.outlier_time_fraction),
            format!("{:.3}ms", cmp.uniform * 1e3),
            format!("{:.3}ms", cmp.differentiated * 1e3),
            format!("{reduction:.1}%"),
        ]);
        outlier_fracs.push(cmp.outlier_time_fraction);
        total_reductions.push(reduction);
    }
    print_table(
        "Figure 19: uniform vs differentiated gTask execution (AR)",
        &[
            "Model",
            "outliers (under/over/freq of total)",
            "outlier time share",
            "uniform",
            "differentiated",
            "total reduction",
        ],
        &rows,
    );
    println!(
        "\nMean outlier time share: {:.1}% (paper: 52.9%); mean total \
         reduction: {:.1}% (paper: 33.1%)",
        100.0 * outlier_fracs.iter().sum::<f64>() / outlier_fracs.len() as f64,
        total_reductions.iter().sum::<f64>() / total_reductions.len() as f64
    );
}
