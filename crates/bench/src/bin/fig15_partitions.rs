//! Figure 15 — visualizing the graph partition plans WiseGraph finds per
//! model, against vertex-centric.
//!
//! The paper scatter-plots edges (source × destination) colored by task id
//! on a 512-vertex AR subgraph. This harness runs the real optimizer on an
//! AR-like 512-vertex graph, reports the chosen partition table per model,
//! prints plan statistics, and writes `results/fig15_<plan>.csv` files
//! (`src,dst,task`) for external plotting.
//!
//! Expected shape (paper §7.3): RGCN's plan restricts edge-type; GAT
//! groups edges sharing sources; SAGE-LSTM groups by destination degree;
//! SAGE/GCN bound the edge count per task.

use std::io::Write as _;
use wisegraph_baselines::single::LayerDims;
use wisegraph_bench::print_table;
use wisegraph_core::WiseGraph;
use wisegraph_graph::generate::{rmat, RmatParams};
use wisegraph_gtask::{partition, PartitionTable};
use wisegraph_models::ModelKind;
use wisegraph_sim::DeviceSpec;

fn dump_csv(name: &str, g: &wisegraph_graph::Graph, assignment: &[u32]) {
    let path = format!("results/fig15_{name}.csv");
    let mut f = std::fs::File::create(&path).expect("create csv");
    writeln!(f, "src,dst,task").unwrap();
    for (e, task) in assignment.iter().enumerate().take(g.num_edges()) {
        writeln!(f, "{},{},{}", g.src()[e], g.dst()[e], task).unwrap();
    }
    eprintln!("wrote {path}");
}

fn main() {
    // AR-like 512-vertex subgraph: same average degree, power-law skew.
    let g = rmat(&RmatParams::standard(512, 7000, 15).with_edge_types(8));
    let dev = DeviceSpec::a100_pcie();
    let mut rows = Vec::new();

    // Reference: vertex-centric.
    let vc = partition(&g, &PartitionTable::vertex_centric());
    rows.push(vec![
        "(a) vertex-centric".to_string(),
        vc.table.to_string(),
        vc.num_tasks().to_string(),
        vc.median_task_edges().to_string(),
        vc.max_task_edges().to_string(),
    ]);
    dump_csv("vertex_centric", &g, &vc.task_of_edge(g.num_edges()));

    for model in ModelKind::ALL {
        let wg = WiseGraph::new(dev);
        let dims = LayerDims::paper_single(64, 16);
        let out = wg.optimize(&g, model, &dims);
        let plan = &out.per_layer[0].partition;
        rows.push(vec![
            format!("gTask for {}", model.name()),
            plan.table.to_string(),
            plan.num_tasks().to_string(),
            plan.median_task_edges().to_string(),
            plan.max_task_edges().to_string(),
        ]);
        dump_csv(
            &model.name().to_lowercase().replace('-', "_"),
            &g,
            &plan.task_of_edge(g.num_edges()),
        );
    }
    print_table(
        "Figure 15: partition plans found per model (512-vertex AR subgraph)",
        &["Plan", "Restrictions", "#tasks", "median edges", "max edges"],
        &rows,
    );
    println!(
        "\nPaper shape: each model gets a different, model-adapted plan; \
         task counts and shapes differ from vertex-centric."
    );
}
