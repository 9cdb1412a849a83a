//! Determinism guarantees: every randomized component of the repro is
//! seeded, and the same seed must give bit-identical results — across two
//! consecutive runs in one process, and when the same work is computed
//! concurrently from many threads. Reproducibility of the paper's tables
//! and figures depends on this.
//!
//! "Bit-identical" is literal: floating-point outputs are compared via
//! `f32::to_bits`, not with a tolerance.

use wisegraph::graph::generate::{labeled_graph, rmat, LabeledParams, RmatParams};
use wisegraph::graph::sample::{neighbor_sample, SampleConfig};
use wisegraph::graph::{Csr, Graph};
use wisegraph::gtask::{partition, PartitionPlan, PartitionTable};
use wisegraph::tensor::init;

fn graph_fingerprint(g: &Graph) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    (g.src().to_vec(), g.dst().to_vec(), g.etype().to_vec())
}

fn plan_fingerprint(p: &PartitionPlan) -> Vec<(Vec<usize>, Vec<usize>)> {
    p.task_lists()
}

#[test]
fn rmat_is_bit_identical_across_runs() {
    let params = RmatParams::standard(2000, 16_000, 42).with_edge_types(4);
    let a = rmat(&params);
    let b = rmat(&params);
    assert_eq!(graph_fingerprint(&a), graph_fingerprint(&b));
    // And a different seed actually changes the stream.
    let c = rmat(&RmatParams::standard(2000, 16_000, 43).with_edge_types(4));
    assert_ne!(graph_fingerprint(&a), graph_fingerprint(&c));
}

#[test]
fn labeled_graph_is_bit_identical_across_runs() {
    let params = LabeledParams {
        num_vertices: 500,
        seed: 7,
        ..LabeledParams::default()
    };
    let a = labeled_graph(&params);
    let b = labeled_graph(&params);
    assert_eq!(graph_fingerprint(&a.graph), graph_fingerprint(&b.graph));
    assert_eq!(a.labels, b.labels);
    assert_eq!(a.train_idx, b.train_idx);
    assert_eq!(a.test_idx, b.test_idx);
    let bits = |f: &[f32]| f.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(&a.features), bits(&b.features));
}

#[test]
fn neighbor_sampling_is_bit_identical_across_runs() {
    let g = rmat(&RmatParams::standard(3000, 30_000, 9));
    let csr = Csr::in_of(&g);
    let cfg = SampleConfig {
        num_seeds: 64,
        fanouts: vec![10, 5],
        seed: 11,
    };
    let a = neighbor_sample(&g, &csr, &cfg);
    let b = neighbor_sample(&g, &csr, &cfg);
    assert_eq!(a.seeds, b.seeds);
    assert_eq!(a.vertex_map, b.vertex_map);
    assert_eq!(graph_fingerprint(&a.graph), graph_fingerprint(&b.graph));
}

#[test]
fn tensor_init_is_bit_identical_across_runs() {
    let a = init::uniform_tensor(&[128, 64], -1.0, 1.0, 3);
    let b = init::uniform_tensor(&[128, 64], -1.0, 1.0, 3);
    let bits = |t: &wisegraph::tensor::Tensor| {
        t.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
    };
    assert_eq!(bits(&a), bits(&b));
    assert_ne!(bits(&a), bits(&init::uniform_tensor(&[128, 64], -1.0, 1.0, 4)));
}

#[test]
fn partition_plans_are_identical_across_runs() {
    let g = rmat(&RmatParams::standard(1000, 8000, 17).with_edge_types(4));
    for table in [
        PartitionTable::vertex_centric(),
        PartitionTable::two_d(8),
        PartitionTable::src_batch_per_type(16),
        PartitionTable::dst_batch_min_degree(8),
    ] {
        let a = partition(&g, &table);
        let b = partition(&g, &table);
        assert_eq!(
            plan_fingerprint(&a),
            plan_fingerprint(&b),
            "plan for `{table}` differs between runs"
        );
    }
}

/// The full seeded pipeline (generate → sample → partition) run
/// concurrently from 1, 2, 4, and 8 threads must produce exactly the
/// single-threaded result on every thread: no iteration-order or
/// shared-state dependence anywhere.
#[test]
fn seeded_pipeline_is_identical_across_thread_counts() {
    let run = || {
        let g = rmat(&RmatParams::standard(1500, 12_000, 23).with_edge_types(4));
        let csr = Csr::in_of(&g);
        let sub = neighbor_sample(
            &g,
            &csr,
            &SampleConfig {
                num_seeds: 32,
                fanouts: vec![8, 4],
                seed: 29,
            },
        );
        let plan = partition(&sub.graph, &PartitionTable::two_d(8));
        (
            graph_fingerprint(&g),
            sub.vertex_map.clone(),
            graph_fingerprint(&sub.graph),
            plan_fingerprint(&plan),
        )
    };
    let reference = run();
    for threads in [1usize, 2, 4, 8] {
        let results: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(run)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(
                r, &reference,
                "thread {i} of {threads} diverged from the sequential result"
            );
        }
    }
}
