//! Workspace-path / allocating-path parity (bit-identical).
//!
//! The buffer pool only changes where memory comes from, never what is
//! computed: pooled buffers are zero-filled on checkout and the allocating
//! `ops` wrappers delegate to the same `_into` kernels the workspace path
//! uses. These tests pin that invariant end to end — for every model the
//! engine can run, the persistent-workspace executor must produce exactly
//! the bytes of the allocating executor at the same thread count.
//!
//! Parity is asserted per thread count only: changing the thread count
//! changes the reduction chunking, and float addition is not associative.

use std::collections::HashMap;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::Graph;
use wisegraph::gtask::{partition, PartitionTable};
use wisegraph::kernels::engine::{execute_parallel_alloc, Engine};
use wisegraph::models::ModelKind;
use wisegraph::tensor::{init, Tensor};

fn globals_for(g: &Graph, fi: usize, fo: usize) -> HashMap<String, Tensor> {
    let mut m = HashMap::new();
    m.insert(
        "h".to_string(),
        init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 11),
    );
    m.insert(
        "W".to_string(),
        init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 12),
    );
    m.insert("w".to_string(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 13));
    m.insert(
        "w_self".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 14),
    );
    m.insert(
        "w_neigh".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 15),
    );
    m.insert(
        "a_src".to_string(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 16),
    );
    m.insert(
        "a_dst".to_string(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 17),
    );
    m
}

/// The per-model seeded workload: graph + partition table the model's
/// compiled program accepts (GAT's per-destination softmax needs a
/// destination-complete plan).
fn workload(kind: ModelKind) -> (Graph, PartitionTable) {
    match kind {
        ModelKind::Rgcn => (
            rmat(&RmatParams::standard(120, 900, 61).with_edge_types(3)),
            PartitionTable::src_batch_per_type(8),
        ),
        ModelKind::Gat => (
            rmat(&RmatParams::standard(100, 800, 63)),
            PartitionTable::vertex_centric(),
        ),
        ModelKind::Sage => (
            rmat(&RmatParams::standard(110, 850, 65)),
            PartitionTable::edge_batch(32),
        ),
        ModelKind::Gcn => (
            rmat(&RmatParams::standard(130, 1000, 67)),
            PartitionTable::two_d(4),
        ),
        ModelKind::SageLstm => unreachable!("LSTM order is not task-decomposable"),
    }
}

fn assert_parity(kind: ModelKind) {
    let (fi, fo) = (6, 5);
    let (g, table) = workload(kind);
    let dfg = kind.layer_dfg(fi, fo);
    let globals = globals_for(&g, fi, fo);
    let plan = partition(&g, &table);
    for threads in [1usize, 2, 4] {
        let alloc = execute_parallel_alloc(&dfg, &g, &plan, &globals, threads)
            .unwrap_or_else(|e| panic!("{} alloc path: {e}", kind.name()));
        let pooled = Engine::new(threads)
            .execute(&dfg, &g, &plan, &globals)
            .unwrap_or_else(|e| panic!("{} workspace path: {e}", kind.name()));
        assert_eq!(alloc.len(), pooled.len(), "{}", kind.name());
        for (a, p) in alloc.iter().zip(pooled.iter()) {
            assert_eq!(a.dims(), p.dims(), "{}", kind.name());
            assert_eq!(
                a.data(),
                p.data(),
                "{} not bit-identical at {threads} threads",
                kind.name()
            );
        }
    }
}

#[test]
fn gcn_workspace_path_is_bit_identical() {
    assert_parity(ModelKind::Gcn);
}

#[test]
fn rgcn_workspace_path_is_bit_identical() {
    assert_parity(ModelKind::Rgcn);
}

#[test]
fn gat_workspace_path_is_bit_identical() {
    assert_parity(ModelKind::Gat);
}

#[test]
fn sage_workspace_path_is_bit_identical() {
    assert_parity(ModelKind::Sage);
}

#[test]
fn warm_engine_stays_bit_identical() {
    // A warm pool (second call onward) must still match the allocating
    // path exactly — reuse may never leak state between calls.
    let (fi, fo) = (6, 5);
    let (g, table) = workload(ModelKind::Rgcn);
    let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
    let globals = globals_for(&g, fi, fo);
    let plan = partition(&g, &table);
    let engine = Engine::new(3);
    let alloc = execute_parallel_alloc(&dfg, &g, &plan, &globals, 3).unwrap();
    for call in 0..3 {
        let pooled = engine.execute(&dfg, &g, &plan, &globals).unwrap();
        assert_eq!(alloc[0].data(), pooled[0].data(), "call {call}");
    }
}
