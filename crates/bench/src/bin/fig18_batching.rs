//! Figure 18 — throughput of the generated kernels as the data-batching
//! restriction K sweeps from 1 to "INF" (everything in one task per
//! restricted group).
//!
//! (a) RGCN with `uniq(src-id)=K & uniq(edge-type)=1`;
//! (b) SAGE-LSTM with `uniq(dst-degree)=min & uniq(dst-id)=K`.
//!
//! Expected shape: K=1 is very slow (no batching); throughput climbs with
//! K; at INF the kernel degenerates (spilled intermediates / lost task
//! parallelism) and falls below the best K — paper: 4.33× (RGCN) and
//! 6.10× (SAGE-LSTM) between the best K and the edge-wise/tensor-centric
//! endpoints.

use wisegraph_baselines::single::LayerDims;
use wisegraph_bench::{build_dataset, print_table};
use wisegraph_core::plan::{ExecutionPlan, OpPartitionKind, Patterns};
use wisegraph_dfg::{transform, Binding};
use wisegraph_graph::{AttrKind, DatasetKind};
use wisegraph_gtask::{partition, PartitionTable, Recount};
use wisegraph_models::ModelKind;
use wisegraph_sim::DeviceSpec;

fn sweep(
    g: &wisegraph_graph::Graph,
    dev: &DeviceSpec,
    model: ModelKind,
    fi: usize,
    fo: usize,
    table_of: impl Fn(u64) -> PartitionTable,
    ks: &[u64],
) -> Vec<(String, f64)> {
    let binding = Binding::from_graph(g);
    let dfg = transform::optimize(&model.layer_dfg(fi, fo), &binding).0;
    let mut recount = Recount::new(g);
    let edges = g.num_edges() as f64;
    ks.iter()
        .map(|&k| {
            let part = partition(g, &table_of(k));
            let patterns = Patterns::count(&mut recount, &part, &dfg);
            let plan = ExecutionPlan::new(&patterns, part, dfg.clone(), OpPartitionKind::Fused);
            let t = plan.estimate(&binding, dev).time;
            let label = if k >= g.num_edges() as u64 {
                "INF".to_string()
            } else {
                k.to_string()
            };
            (label, edges / t)
        })
        .collect()
}

fn main() {
    let (g, spec) = build_dataset(DatasetKind::Arxiv);
    let dev = DeviceSpec::a100_pcie();
    let dims = LayerDims::paper_single(spec.feature_dim, spec.num_classes);
    let (fi, fo) = dims.layer_io(1);
    let inf = g.num_edges() as u64 + 1;

    // (a) RGCN, uniq(src-id)=K & uniq(edge-type)=1.
    let ks: Vec<u64> = vec![1, 32, 64, 128, 256, inf];
    let series = sweep(
        &g,
        &dev,
        ModelKind::Rgcn,
        fi,
        fo,
        PartitionTable::src_batch_per_type,
        &ks,
    );
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(k, tp)| vec![k.clone(), format!("{:.1}", tp / 1e6)])
        .collect();
    print_table(
        "Figure 18(a): RGCN throughput vs K (uniq(src-id)=K & uniq(edge-type)=1)",
        &["K", "Throughput (M edges/s)"],
        &rows,
    );
    let best = series
        .iter()
        .map(|&(_, tp)| tp)
        .fold(0.0f64, f64::max);
    let endpoints = series[0].1.max(series.last().unwrap().1);
    println!(
        "Best-K over max(K=1, INF): {:.2}x (paper: 4.33x)",
        best / endpoints
    );

    // (b) SAGE-LSTM, uniq(dst-degree)=min & uniq(dst-id)=K.
    let ks: Vec<u64> = vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];
    let series = sweep(
        &g,
        &dev,
        ModelKind::SageLstm,
        fi,
        fo,
        |k| {
            PartitionTable::new()
                .exact(AttrKind::DstId, k)
                .min(AttrKind::DstDegree)
        },
        &ks,
    );
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|(k, tp)| vec![k.clone(), format!("{:.2}", tp / 1e6)])
        .collect();
    print_table(
        "Figure 18(b): SAGE-LSTM throughput vs K (uniq(dst-degree)=min & uniq(dst-id)=K)",
        &["K", "Throughput (M edges/s)"],
        &rows,
    );
    let best = series.iter().map(|&(_, tp)| tp).fold(0.0f64, f64::max);
    println!(
        "Best-K over K=1: {:.2}x (paper: 6.10x)",
        best / series[0].1
    );
}
