//! Table 3 — preprocessing overhead of joint optimization versus the other
//! necessary steps of training SAGE, on PA and AR.
//!
//! Substitution note: the paper runs graph processing "in parallel using
//! GPU" (§6.3); this reproduction's partitioner is single-threaded CPU
//! code on a scaled-down graph. The table therefore reports (a) the
//! *measured* CPU wall-clock of the full search at the generated scale and
//! (b) a projection of the paper's GPU-parallel processing at paper scale
//! (sort-and-scan is bandwidth-bound: ~4 passes over 24 B/edge per
//! evaluated plan at half HBM bandwidth, plus per-plan tuning time).
//!
//! Expected shape: joint optimization is a one-shot cost comparable to the
//! setup steps and a small fraction of convergence.

use wisegraph_obs::clock::Stopwatch;
use wisegraph_baselines::single::LayerDims;
use wisegraph_bench::{build_dataset, fmt_s, print_table};
use wisegraph_core::WiseGraph;
use wisegraph_graph::DatasetKind;
use wisegraph_models::ModelKind;
use wisegraph_sim::DeviceSpec;

fn main() {
    let dev = DeviceSpec::a100_pcie();
    let mut columns: Vec<Vec<String>> = Vec::new();
    let mut names = Vec::new();
    for kind in [DatasetKind::Papers, DatasetKind::Arxiv] {
        names.push(kind.short_name());
        // "Disk to DRAM": generating/ingesting the graph stands in for
        // reading it from disk; measured for real, scaled to paper size.
        let t0 = Stopwatch::start();
        let (g, spec) = build_dataset(kind);
        let ingest = t0.elapsed_seconds() * spec.scale();

        // "Train initialization": building features/weights.
        let t0 = Stopwatch::start();
        let _feats = wisegraph_tensor::init::uniform_tensor(
            &[g.num_vertices(), spec.feature_dim],
            -1.0,
            1.0,
            7,
        );
        let init = t0.elapsed_seconds() * spec.scale();

        // "Joint optimization": the real three-stage search, measured.
        let dims = LayerDims {
            f_in: spec.feature_dim,
            hidden: 32,
            classes: spec.num_classes,
            layers: 3,
        };
        let wg = WiseGraph::new(dev);
        let t0 = Stopwatch::start();
        let out = wg.optimize(&g, ModelKind::Sage, &dims);
        let joint_cpu = t0.elapsed_seconds();

        // GPU-parallel projection at paper scale: bandwidth-bound
        // sort-and-scan per evaluated plan + per-plan kernel tuning.
        let passes = 4.0;
        let bytes_per_edge = 24.0;
        let joint_gpu = out.trace.evaluated() as f64
            * (spec.paper_edges as f64 * bytes_per_edge * passes / (0.5 * dev.mem_bw)
                + 0.05);

        // "Convergence": 100 epochs of simulated training plus a full
        // inference pass per epoch, at paper scale.
        let epoch = out.time_per_iter * spec.scale();
        let inference = epoch / 3.0; // forward only
        let convergence = (epoch + inference) * 100.0;

        columns.push(vec![
            fmt_s(init),
            fmt_s(ingest),
            fmt_s(convergence),
            format!("{joint_cpu:.1} (measured CPU, 1/{:.0} scale)", spec.scale()),
            fmt_s(joint_gpu),
            format!("{:.2}%", 100.0 * joint_gpu / convergence),
        ]);
    }
    let rows: Vec<Vec<String>> = (0..6)
        .map(|i| {
            let label = [
                "Train initialization",
                "Disk to DRAM",
                "Convergence (100 epochs)",
                "Joint optimization (CPU, generated graph)",
                "Joint optimization (GPU projection, paper scale)",
                "Joint / convergence",
            ][i];
            let mut row = vec![label.to_string()];
            for c in &columns {
                row.push(c[i].clone());
            }
            row
        })
        .collect();
    print_table(
        "Table 3: processing time (s) for training SAGE",
        &["Step", names[0], names[1]],
        &rows,
    );
    println!(
        "\nPaper: joint optimization 100s vs 18915s convergence on PA (0.5%), \
         12s vs 662s on AR (1.8%); WiseGraph's tuning is a one-shot cost. \
         Note the paper's convergence figure includes framework/host \
         overheads our simulator does not model."
    );
}
