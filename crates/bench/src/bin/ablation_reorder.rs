//! Ablation — composing Metis/Rabbit-style vertex reordering with gTask
//! partitioning (paper §4.3).
//!
//! "Metis-style and WiseGraph graph partition work at different levels and
//! can be combined: we can first use Metis-style work to produce the
//! reordered graph with better locality, and then apply WiseGraph graph
//! partition on it." This ablation measures, for each reordering, the edge
//! span (locality proxy), the per-task gather dedup the same partition
//! table achieves, and the simulated plan time.

use wisegraph_baselines::single::LayerDims;
use wisegraph_bench::{build_dataset, print_table};
use wisegraph_core::plan::{ExecutionPlan, OpPartitionKind, Patterns};
use wisegraph_dfg::{transform, Binding};
use wisegraph_graph::reorder;
use wisegraph_graph::DatasetKind;
use wisegraph_gtask::{partition, PartitionTable, Recount};
use wisegraph_models::ModelKind;
use wisegraph_sim::DeviceSpec;

fn main() {
    let (g, spec) = build_dataset(DatasetKind::Arxiv);
    let dev = DeviceSpec::a100_pcie();
    let dims = LayerDims::paper_single(spec.feature_dim, spec.num_classes);
    let (fi, fo) = dims.layer_io(1);
    let dfg = ModelKind::Gcn.layer_dfg(fi, fo);
    let table = PartitionTable::two_d(48);

    let identity: Vec<u32> = (0..g.num_vertices() as u32).collect();
    let orders: Vec<(&str, Vec<u32>)> = vec![
        ("original", identity),
        ("degree-sorted", reorder::degree_order(&g)),
        ("bfs-clustered (Metis-like)", reorder::bfs_cluster_order(&g)),
        (
            "label-propagation (Rabbit-like)",
            reorder::label_propagation_order(&g, 2),
        ),
    ];

    let mut rows = Vec::new();
    for (name, perm) in orders {
        let rg = g.relabel(&perm);
        let span = reorder::edge_span(&g, &perm);
        let binding = Binding::from_graph(&rg);
        let plan = partition(&rg, &table);
        let patterns = Patterns::count(&mut Recount::new(&rg), &plan, &dfg);
        let tasks = plan.num_tasks();
        let transformed = transform::optimize(&dfg, &binding).0;
        let eplan = ExecutionPlan::new(&patterns, plan, transformed, OpPartitionKind::Fused);
        let t = eplan.estimate(&binding, &dev).time;
        rows.push(vec![
            name.to_string(),
            format!("{span:.4}"),
            tasks.to_string(),
            format!("{:.3}", patterns.gather_dedup),
            format!("{:.3} ms", t * 1e3),
        ]);
    }
    print_table(
        "Ablation: vertex reordering composed with gTask 2D partitioning (GCN, AR)",
        &[
            "Reordering",
            "edge span",
            "#tasks",
            "gather dedup",
            "simulated layer time",
        ],
        &rows,
    );
    println!(
        "\nExpected: locality-improving reorderings reduce the edge span and \
         let the same partition table produce denser tasks (lower dedup \
         factor → less gather traffic)."
    );
}
