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
use wisegraph::kernels::micro::compile;
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

/// The per-model seeded workload: graph + partition table.
fn workload(kind: ModelKind) -> (Graph, PartitionTable) {
    match kind {
        ModelKind::Rgcn => (
            rmat(&RmatParams::standard(120, 900, 61).with_edge_types(3)),
            PartitionTable::src_batch_per_type(8),
        ),
        ModelKind::Gat => (
            rmat(&RmatParams::standard(100, 800, 63)),
            PartitionTable::edge_batch(16),
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

// ---- dense phases in row blocks, tasks dealt block-cyclically ----------
//
// The engine evaluates prologue and epilogue in row blocks spread over its
// workers and starts the reduce from the first partial; the allocating
// reference evaluates both in one block on the calling thread and adds the
// partials to a zero tensor. Same dealing, so the bits must agree at every
// thread count — whatever |V| is against the row block and the thread
// count.

/// The benchmark's three tables (`examples/perfbench/inputs.rs`).
fn bench_tables() -> [PartitionTable; 3] {
    [
        PartitionTable::vertex_centric(),
        PartitionTable::edge_batch(64),
        PartitionTable::src_batch_per_type(64),
    ]
}

const MODELS: [ModelKind; 4] =
    [ModelKind::Gcn, ModelKind::Sage, ModelKind::Gat, ModelKind::Rgcn];

const THREADS: [usize; 5] = [1, 2, 3, 4, 7];

/// Engine outputs at `threads`, asserted bit-identical to the allocating
/// reference at the same thread count.
fn engine_vs_reference(
    kind: ModelKind,
    g: &Graph,
    plan: &wisegraph::gtask::PartitionPlan,
    globals: &HashMap<String, Tensor>,
    dims: (usize, usize),
    threads: usize,
) -> Vec<Tensor> {
    let dfg = kind.layer_dfg(dims.0, dims.1);
    let what = format!("{} / {} tasks / {threads} threads", kind.name(), plan.num_tasks());
    let want = execute_parallel_alloc(&dfg, g, plan, globals, threads)
        .unwrap_or_else(|e| panic!("{what}: reference: {e}"));
    let got = Engine::new(threads)
        .execute(&dfg, g, plan, globals)
        .unwrap_or_else(|e| panic!("{what}: engine: {e}"));
    assert_eq!(want.len(), got.len(), "{what}");
    for (w, o) in want.iter().zip(&got) {
        assert_eq!(w.dims(), o.dims(), "{what}");
        let (w, o): (Vec<u32>, Vec<u32>) = (
            w.data().iter().map(|x| x.to_bits()).collect(),
            o.data().iter().map(|x| x.to_bits()).collect(),
        );
        assert_eq!(w, o, "{what}: not bit-identical");
    }
    got
}

#[test]
fn dense_phases_match_the_unblocked_reference_at_every_thread_count() {
    let dims = (6, 5);
    // |V| spans several row blocks per worker with a ragged tail; fits one
    // block; is smaller than the thread count.
    for (v, e, seed) in [(1300usize, 7000usize, 71u64), (45, 320, 73), (3, 7, 75)] {
        let g = rmat(&RmatParams::standard(v, e, seed).with_edge_types(3));
        let globals = globals_for(&g, dims.0, dims.1);
        for table in bench_tables() {
            let plan = partition(&g, &table);
            for kind in MODELS {
                for threads in THREADS {
                    engine_vs_reference(kind, &g, &plan, &globals, dims, threads);
                }
            }
        }
    }
}

#[test]
fn degenerate_plans_match_the_unblocked_reference() {
    let dims = (4, 3);
    // No edge at all: no task runs, every aggregate row is zero.
    let empty = Graph::new(9, 2, vec![], vec![], vec![]);
    // One task holding every edge.
    let g = rmat(&RmatParams::standard(700, 2500, 77).with_edge_types(2));
    for (g, table) in [
        (&empty, PartitionTable::vertex_centric()),
        (&g, PartitionTable::new()),
    ] {
        let globals = globals_for(g, dims.0, dims.1);
        let plan = partition(g, &table);
        assert!(plan.num_tasks() <= 1);
        for kind in MODELS {
            for threads in THREADS {
                engine_vs_reference(kind, g, &plan, &globals, dims, threads);
            }
        }
    }
}

#[test]
fn negative_zero_features_yield_the_same_bits_at_every_thread_count() {
    // The reduce starts from the first partial instead of `+0.0`; an
    // accumulator cell never holds `-0.0` for that to matter, even when
    // every gathered value is one.
    let dims = (6, 5);
    let g = rmat(&RmatParams::standard(600, 4000, 79).with_edge_types(3));
    let mut globals = globals_for(&g, dims.0, dims.1);
    globals.insert(
        "h".to_string(),
        Tensor::from_vec(vec![-0.0; g.num_vertices() * dims.0], &[g.num_vertices(), dims.0]),
    );
    for table in bench_tables() {
        let plan = partition(&g, &table);
        for kind in MODELS {
            let mut first: Option<Vec<Vec<u32>>> = None;
            for threads in THREADS {
                let outs = engine_vs_reference(kind, &g, &plan, &globals, dims, threads);
                let bits: Vec<Vec<u32>> = outs
                    .iter()
                    .map(|t| t.data().iter().map(|x| x.to_bits()).collect())
                    .collect();
                match &first {
                    None => first = Some(bits),
                    Some(f) => assert_eq!(f, &bits, "{} at {threads}", kind.name()),
                }
            }
        }
    }
}

#[test]
fn destination_exclusive_plans_are_bit_identical_across_thread_counts() {
    // A vertex-centric task owns its destination rows, so a row's addends
    // all come from one slot whatever the dealing: T = 2 equals T = 1 bit
    // for bit. Edge-batch tasks share destination rows across slots: the
    // sum's order follows the dealing — close to T = 1, and the same bits
    // on every run at one thread count.
    let dims = (6, 5);
    let g = rmat(&RmatParams::standard(900, 9000, 81).with_edge_types(3));
    let globals = globals_for(&g, dims.0, dims.1);
    let run = |kind: ModelKind, table: &PartitionTable, threads: usize| {
        let plan = partition(&g, table);
        Engine::new(threads)
            .execute(&kind.layer_dfg(dims.0, dims.1), &g, &plan, &globals)
            .unwrap()
            .swap_remove(0)
    };
    for kind in MODELS {
        let vc = PartitionTable::vertex_centric();
        assert_eq!(
            run(kind, &vc, 1).data(),
            run(kind, &vc, 2).data(),
            "{} vertex-centric",
            kind.name()
        );
    }
    for kind in MODELS {
        let eb = PartitionTable::edge_batch(64);
        let (one, two, again) = (run(kind, &eb, 1), run(kind, &eb, 2), run(kind, &eb, 2));
        assert!(one.allclose(&two, 1e-3), "{} edge-batch", kind.name());
        assert_eq!(two.data(), again.data(), "{} edge-batch rerun", kind.name());
    }
}

#[test]
#[should_panic(expected = "worker panicked")]
fn a_panic_in_a_task_worker_surfaces() {
    let g = rmat(&RmatParams::standard(50, 300, 83));
    let mut globals = globals_for(&g, 4, 3);
    globals.remove("W");
    let plan = partition(&g, &PartitionTable::vertex_centric());
    // A program compiled from another model's DFG, which the entry check
    // does not see: RGCN's per-task gathers read `W`, which the GCN
    // call's globals lack.
    let program = compile(&ModelKind::Rgcn.layer_dfg(4, 3), &g).unwrap();
    let dfg = ModelKind::Gcn.layer_dfg(4, 3);
    let _ = Engine::new(2).execute_program(&program, &dfg, &g, &plan, &globals);
}

#[test]
#[should_panic(expected = "worker panicked")]
fn a_panic_in_a_dense_phase_worker_surfaces() {
    let g = rmat(&RmatParams::standard(50, 300, 85));
    let globals = globals_for(&g, 4, 3);
    let plan = partition(&g, &PartitionTable::vertex_centric());
    // SAGE's program run as GAT's DFG: the reduce + epilogue phase walks
    // GAT's epilogue from SAGE's reduction and multiplies operands whose
    // inner extents differ.
    let program = compile(&ModelKind::Sage.layer_dfg(4, 3), &g).unwrap();
    let dfg = ModelKind::Gat.layer_dfg(4, 3);
    let _ = Engine::new(2).execute_program(&program, &dfg, &g, &plan, &globals);
}
