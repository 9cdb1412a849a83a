//! Microbenchmarks of the real CPU micro-kernels, on the in-repo testkit
//! bench harness (warmup + median-of-N + JSON to `target/testkit-bench/`).
//!
//! These ground the simulator's calibration: the *relative* throughput of
//! edge-by-edge versus batched execution, and of coalesced versus random
//! gathers, must point the same way on real hardware as in the device
//! model (Figures 10 and 18 rely on that ordering).
//!
//! Run with `cargo bench --offline`; `WG_BENCH_SAMPLES` scales the
//! per-case sample count.

use wisegraph_graph::generate::{rmat, RmatParams};
use wisegraph_gtask::{partition, PartitionTable};
use wisegraph_kernels::exec;
use wisegraph_tensor::{init, ops, Tensor};
use wisegraph_testkit::bench::{black_box, Bench};

fn bench_gather_scatter(bench: &mut Bench) {
    let n = 20_000;
    let f = 64;
    let x = init::uniform_tensor(&[n, f], -1.0, 1.0, 1);
    let g = rmat(&RmatParams::standard(n, 8 * n, 3));
    let random_idx: Vec<u32> = g.src().to_vec();
    let mut sorted_idx = random_idx.clone();
    sorted_idx.sort_unstable();

    bench
        .group("gather_rows")
        .sample_size(20)
        .bench_function("random", || {
            black_box(ops::gather_rows(black_box(&x), black_box(&random_idx)));
        })
        .bench_function("sorted", || {
            black_box(ops::gather_rows(black_box(&x), black_box(&sorted_idx)));
        });

    let src = ops::gather_rows(&x, &random_idx);
    bench
        .group("index_add_rows")
        .sample_size(20)
        .bench_function("scatter_add", || {
            black_box(ops::index_add_rows(n, black_box(&src), black_box(g.dst())));
        });
}

fn bench_matmul_shapes(bench: &mut Bench) {
    // Batched tall-skinny matmuls vs one dense product: how throughput
    // scales with the batch dimension K.
    let f = 64;
    let w = init::uniform_tensor(&[f, f], -1.0, 1.0, 5);
    let mut group = bench.group("matmul_batch_rows");
    group.sample_size(20);
    for k in [1usize, 8, 64, 512] {
        let x = init::uniform_tensor(&[k, f], -1.0, 1.0, 7);
        group.bench_function(&k.to_string(), || {
            black_box(ops::matmul(black_box(&x), black_box(&w)));
        });
    }
}

fn bench_rgcn_kernels(bench: &mut Bench) {
    // The Figure 10 pair: edge-by-edge vs batched RGCN message passing.
    let g = rmat(&RmatParams::standard(4000, 40_000, 11).with_edge_types(4));
    let f = 32;
    let h = init::uniform_tensor(&[4000, f], -1.0, 1.0, 13);
    let w = init::uniform_tensor(&[4, f, f], -1.0, 1.0, 17);
    let plan = partition(&g, &PartitionTable::src_batch_per_type(64));

    bench
        .group("rgcn_message_passing")
        .sample_size(10)
        .bench_function("edge_by_edge", || {
            black_box(exec::rgcn_edge_by_edge(
                black_box(&g),
                black_box(&h),
                black_box(&w),
            ));
        })
        .bench_function("batched_k64", || {
            black_box(exec::rgcn_batched(
                black_box(&g),
                black_box(&plan),
                black_box(&h),
                black_box(&w),
            ));
        });
}

fn bench_aggregation(bench: &mut Bench) {
    let g = rmat(&RmatParams::standard(8000, 80_000, 19));
    let h = init::uniform_tensor(&[8000, 64], -1.0, 1.0, 23);
    let plan = partition(&g, &PartitionTable::vertex_centric());

    bench
        .group("neighbor_aggregation")
        .sample_size(10)
        .bench_function("edgewise", || {
            black_box(exec::aggregate_sum_edgewise(black_box(&g), black_box(&h)));
        })
        .bench_function("tasked_vertex_centric", || {
            black_box(exec::aggregate_sum_tasked(
                black_box(&g),
                black_box(&plan),
                black_box(&h),
            ));
        });
}

fn bench_partitioner(bench: &mut Bench) {
    // The greedy sort-and-scan partitioner itself (Table 3's overhead story).
    let g = rmat(&RmatParams::standard(20_000, 200_000, 29).with_edge_types(8));
    let mut group = bench.group("greedy_partitioner");
    group.sample_size(10);
    for (name, table) in [
        ("vertex_centric", PartitionTable::vertex_centric()),
        ("src_batch_per_type", PartitionTable::src_batch_per_type(64)),
        ("dst_batch_min_degree", PartitionTable::dst_batch_min_degree(64)),
    ] {
        group.bench_function(name, || {
            black_box(partition(black_box(&g), black_box(&table)));
        });
    }
}

fn bench_autograd_layer(bench: &mut Bench) {
    // One trainable GCN layer forward+backward: the accuracy experiment's
    // per-epoch building block.
    use wisegraph_models::{Gcn, GnnModel};
    use wisegraph_tensor::Tape;
    let g = rmat(&RmatParams::standard(2000, 16_000, 31));
    let feats: Tensor = init::uniform_tensor(&[2000, 32], -1.0, 1.0, 37);
    let model = Gcn::new(&[32, 32, 8], 41);
    bench
        .group("trainable_gcn")
        .sample_size(10)
        .bench_function("forward_backward", || {
            let tape = Tape::new();
            let x = tape.input(feats.clone());
            let out = model.forward(&tape, &g, x);
            let loss = tape.mean(out.logits);
            tape.backward(loss);
            black_box(tape.grad(out.params[0]));
        });
}

fn main() {
    let mut bench = Bench::new("microkernels");
    bench_gather_scatter(&mut bench);
    bench_matmul_shapes(&mut bench);
    bench_rgcn_kernels(&mut bench);
    bench_aggregation(&mut bench);
    bench_partitioner(&mut bench);
    bench_autograd_layer(&mut bench);
    bench.finish();
}
