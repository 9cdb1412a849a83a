//! The correctness contract of gTask-based execution: executing a DFG one
//! gTask at a time and summing the reduction outputs reproduces the
//! whole-graph result, for every partition plan.

use std::collections::HashMap;
use wisegraph::dfg::interp::{execute, execute_on_edges};
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::gtask::{partition, PartitionTable};
use wisegraph::models::ModelKind;
use wisegraph::tensor::{init, ops, Tensor};

fn inputs_for(
    g: &wisegraph::graph::Graph,
    fi: usize,
    fo: usize,
) -> HashMap<String, Tensor> {
    let mut inputs = HashMap::new();
    inputs.insert(
        "h".into(),
        init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 11),
    );
    inputs.insert(
        "W".into(),
        init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 12),
    );
    inputs
}

/// RGCN output is additive over any edge partition: Σ_task out_task == out.
#[test]
fn rgcn_is_additive_over_every_plan() {
    let g = rmat(&RmatParams::standard(80, 700, 21).with_edge_types(3));
    let (fi, fo) = (5, 4);
    let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
    let inputs = inputs_for(&g, fi, fo);
    let whole = &execute(&dfg, &g, &inputs).unwrap()[0];
    for table in [
        PartitionTable::vertex_centric(),
        PartitionTable::edge_centric(),
        PartitionTable::src_batch_per_type(8),
        PartitionTable::two_d(4),
        PartitionTable::dst_batch_min_degree(8),
        PartitionTable::edge_batch(33),
    ] {
        let plan = partition(&g, &table);
        let mut acc = Tensor::zeros(whole.dims());
        for task in &plan.tasks {
            let part = &execute_on_edges(&dfg, &g, &inputs, task.edges).unwrap()[0];
            acc = ops::add(&acc, part);
        }
        assert!(
            whole.allclose(&acc, 1e-3),
            "{table}: per-task sum diverges by {}",
            whole.max_abs_diff(&acc)
        );
    }
}

/// The same contract holds for the *transformed* RGCN DFG (unique value
/// extraction + indexing swapping are applied per task scope).
#[test]
fn transformed_rgcn_is_additive() {
    use wisegraph::dfg::{transform, Binding};
    let g = rmat(&RmatParams::standard(50, 400, 23).with_edge_types(4));
    let (fi, fo) = (4, 3);
    let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
    let binding = Binding::from_graph(&g);
    let (opt, _) = transform::optimize(&dfg, &binding);
    let inputs = inputs_for(&g, fi, fo);
    let whole = &execute(&dfg, &g, &inputs).unwrap()[0];
    let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
    let mut acc = Tensor::zeros(whole.dims());
    for task in &plan.tasks {
        let part = &execute_on_edges(&opt, &g, &inputs, task.edges).unwrap()[0];
        acc = ops::add(&acc, part);
    }
    assert!(
        whole.allclose(&acc, 1e-3),
        "transformed per-task sum diverges by {}",
        whole.max_abs_diff(&acc)
    );
}

/// GAT's per-destination softmax is NOT edge-additive: running the whole
/// layer per task is exact only for tasks that hold entire destinations
/// (uniq(dst-id)=1 tasks contain all of a destination's in-edges). That is
/// why the compiled program runs the softmax once per call over the plan's
/// edges and leaves the tasks only the additive weighted aggregation.
#[test]
fn gat_requires_destination_complete_tasks() {
    let g = rmat(&RmatParams::standard(60, 500, 25));
    let (fi, fo) = (4, 3);
    let dfg = ModelKind::Gat.layer_dfg(fi, fo);
    let mut inputs = HashMap::new();
    inputs.insert(
        "h".into(),
        init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 31),
    );
    inputs.insert("w".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 32));
    inputs.insert(
        "a_src".into(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 33),
    );
    inputs.insert(
        "a_dst".into(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 34),
    );
    let whole = &execute(&dfg, &g, &inputs).unwrap()[0];

    // Destination-complete plan: exact.
    let plan = partition(&g, &PartitionTable::vertex_centric());
    let mut acc = Tensor::zeros(whole.dims());
    for task in &plan.tasks {
        let part = &execute_on_edges(&dfg, &g, &inputs, task.edges).unwrap()[0];
        acc = ops::add(&acc, part);
    }
    assert!(
        whole.allclose(&acc, 1e-3),
        "whole-destination tasks must be exact: diff {}",
        whole.max_abs_diff(&acc)
    );

    // Destination-splitting plan: softmax normalization breaks.
    let plan = partition(&g, &PartitionTable::edge_batch(7));
    let mut acc = Tensor::zeros(whole.dims());
    for task in &plan.tasks {
        let part = &execute_on_edges(&dfg, &g, &inputs, task.edges).unwrap()[0];
        acc = ops::add(&acc, part);
    }
    assert!(
        !whole.allclose(&acc, 1e-3),
        "splitting destinations must change per-destination softmax results"
    );
}
