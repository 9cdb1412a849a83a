//! Inspector — gTask-level data patterns of a plan (paper §5.1, Figure 4c).
//!
//! Prints, for several partition tables on an AR-like graph, the
//! distribution of the three data patterns across gTasks: duplication
//! factors per attribute, batch sizes, and the changing-data-volume ratio.
//! This is the raw signal the operation partitioner consumes. Distinct
//! counts come from one `Recount` of the graph.

use wisegraph_bench::{build_dataset, print_table};
use wisegraph_graph::{AttrKind, DatasetKind};
use wisegraph_gtask::{partition, PartitionTable, Recount};

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p) as usize;
    sorted[idx]
}

fn main() {
    let (g, _) = build_dataset(DatasetKind::Arxiv);
    let tables = [
        PartitionTable::vertex_centric(),
        PartitionTable::src_batch_per_type(64),
        PartitionTable::two_d(32),
        PartitionTable::dst_batch_min_degree(64),
        PartitionTable::edge_batch(64),
    ];
    let mut recount = Recount::new(&g);
    let mut rows = Vec::new();
    for table in tables {
        let plan = partition(&g, &table);
        let mut dup_src = Vec::new();
        let mut batch_src = Vec::new();
        let mut volume = Vec::new();
        for task in &plan.tasks {
            let src = recount.unique(AttrKind::SrcId, task.edges).max(1) as f64;
            let dst = recount.unique(AttrKind::DstId, task.edges).max(1) as f64;
            dup_src.push(task.num_edges() as f64 / src);
            batch_src.push(src);
            volume.push(dst / src);
        }
        dup_src.sort_by(|a, b| a.partial_cmp(b).unwrap());
        batch_src.sort_by(|a, b| a.partial_cmp(b).unwrap());
        volume.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rows.push(vec![
            table.to_string(),
            plan.num_tasks().to_string(),
            format!(
                "{:.1} / {:.1}",
                percentile(&dup_src, 0.5),
                percentile(&dup_src, 0.95)
            ),
            format!(
                "{:.0} / {:.0}",
                percentile(&batch_src, 0.5),
                percentile(&batch_src, 0.95)
            ),
            format!(
                "{:.2} / {:.2}",
                percentile(&volume, 0.5),
                percentile(&volume, 0.95)
            ),
        ]);
    }
    print_table(
        "gTask data patterns per plan (p50 / p95 over tasks, AR analogue)",
        &[
            "Plan",
            "#tasks",
            "src duplication",
            "src batch",
            "volume ratio (dst/src)",
        ],
        &rows,
    );
    println!(
        "\nReading guide: duplication > 1 → DFG transformation opportunity; \
         batch size → kernel parallelization; volume ratio < 1 → communicate \
         after computing (multi-device placement)."
    );
}
