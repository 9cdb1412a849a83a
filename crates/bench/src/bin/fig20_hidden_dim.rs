//! Figure 20 — multi-device execution time of the first GCN layer as the
//! hidden dimension sweeps 2^5..2^10, on PA-S and FS-S.
//!
//! Expected shape: P3 (tensor parallel first layer) wins over DGL (data
//! parallel) at small hidden dims and loses as the hidden dim approaches
//! or exceeds the feature dim; WiseGraph's volume-driven operation
//! placement tracks the lower envelope and is consistently fastest.

use wisegraph_baselines::{MultiGpuSystem, MultiStack};
use wisegraph_bench::{build_dataset, fmt_ms, print_table};
use wisegraph_graph::DatasetKind;
use wisegraph_models::ModelKind;

fn main() {
    let stack = MultiStack::paper_quad();
    for kind in [DatasetKind::PapersSample, DatasetKind::FriendSterSample] {
        let (g, spec) = build_dataset(kind);
        let f_in = spec.feature_dim;
        let mut rows = Vec::new();
        for exp in 5..=10u32 {
            let hidden = 1usize << exp;
            let time = |sys: MultiGpuSystem| {
                let (_, t) = sys.layer_time(&g, ModelKind::Gcn, 0, (f_in, hidden), &stack);
                t
            };
            let dgl = time(MultiGpuSystem::Dgl);
            let p3 = time(MultiGpuSystem::P3);
            let we = time(MultiGpuSystem::WiseGraph);
            let winner = if we <= dgl && we <= p3 {
                "ours"
            } else if dgl < p3 {
                "DGL"
            } else {
                "P3"
            };
            rows.push(vec![
                hidden.to_string(),
                fmt_ms(dgl, false),
                fmt_ms(p3, false),
                fmt_ms(we, false),
                winner.to_string(),
            ]);
        }
        print_table(
            &format!(
                "Figure 20 ({}): first GCN layer time (ms) vs hidden dim, F={}",
                spec.kind.short_name(),
                f_in
            ),
            &["Hidden", "DGL", "P3", "Ours", "fastest"],
            &rows,
        );
    }
    println!(
        "\nPaper shape: the static strategies trade places as the hidden \
         dim crosses the feature dim; WiseGraph is fastest at every point."
    );
}
