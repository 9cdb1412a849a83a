//! Determinism harness for the cluster's exchange record and the
//! critical-path report replayed from it.
//!
//! The cluster logs every collective message once per side in its
//! `ExchangeLog` and records per-device phase timelines whose logical
//! costs are pure functions of (graph, plan, placement, device count).
//! This suite pins that contract the same way `obs_determinism.rs` pins
//! the counter layer:
//!
//! * the exchange log's events and the Work-class attribution report
//!   (`AttributionReport::work_json`) are byte-identical across repeated
//!   runs AND across per-device engine thread counts 1/2/4, at each of
//!   2/4/8 devices — the wall-clock overlay may differ, the gateable view
//!   may not;
//! * a log that lost a send or a receive, or timelines missing a device
//!   the log names, fail the replay instead of pricing a partial run.

use std::collections::HashMap;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::Graph;
use wisegraph::gtask::{partition, PartitionTable};
use wisegraph::kernels::cluster::{compatible_placements, Direction};
use wisegraph::kernels::micro::compile;
use wisegraph::kernels::ClusterEngine;
use wisegraph::models::ModelKind;
use wisegraph::sim::PlacementKind;
use wisegraph::tensor::{init, Tensor};

/// Device counts the stability sweep runs at.
const DEVICES: [usize; 3] = [2, 4, 8];
/// Per-device engine worker threads the Work view must be invariant to.
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];
const MODELS: [ModelKind; 4] = [
    ModelKind::Gcn,
    ModelKind::Rgcn,
    ModelKind::Gat,
    ModelKind::Sage,
];

fn globals_for(g: &Graph, fi: usize, fo: usize) -> HashMap<String, Tensor> {
    let mut m = HashMap::new();
    m.insert(
        "h".to_string(),
        init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 61),
    );
    m.insert(
        "W".to_string(),
        init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 62),
    );
    m.insert("w".to_string(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 63));
    m.insert(
        "w_self".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 64),
    );
    m.insert(
        "w_neigh".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 65),
    );
    m.insert(
        "a_src".to_string(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 66),
    );
    m.insert(
        "a_dst".to_string(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 67),
    );
    m
}

/// Every model × compatible placement × {2,4,8} devices: the exchange
/// log and the Work-class attribution report are byte-identical across
/// a repeated run and across the 1/2/4 per-device thread sweep.
#[test]
fn exchange_log_and_work_report_are_bit_stable() {
    let (fi, fo) = (6, 5);
    let g = rmat(&RmatParams::standard(140, 1100, 71).with_edge_types(3));
    let globals = globals_for(&g, fi, fo);
    let plan = partition(&g, &PartitionTable::vertex_centric());
    for kind in MODELS {
        let dfg = kind.layer_dfg(fi, fo);
        let program = compile(&dfg, &g).unwrap();
        for placement in compatible_placements(&program, &g, &globals) {
            for devices in DEVICES {
                let ctx = format!(
                    "{} × {} × {devices} devices",
                    kind.name(),
                    placement.name()
                );
                let mut log_ref: Option<String> = None;
                let mut work_ref: Option<String> = None;
                // Thread sweep plus one repeat of the middle count: the
                // repeat pins run-to-run identity, the sweep pins
                // thread-count invariance.
                for threads in [1usize, 2, 2, 4] {
                    assert!(THREAD_SWEEP.contains(&threads));
                    let cluster = ClusterEngine::new(devices, threads);
                    let run = cluster
                        .execute_program(&program, &dfg, &g, &plan, &globals, placement)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    let log = format!("{:?}", run.exchange.events);
                    let work = run
                        .attribution()
                        .unwrap_or_else(|e| panic!("{ctx}: attribution: {e}"))
                        .work_json();
                    match &log_ref {
                        None => log_ref = Some(log),
                        Some(first) => assert_eq!(
                            first, &log,
                            "{ctx}: exchange log varies ({threads} threads)"
                        ),
                    }
                    match &work_ref {
                        None => work_ref = Some(work),
                        Some(first) => assert_eq!(
                            first, &work,
                            "{ctx}: Work-class report varies ({threads} threads)"
                        ),
                    }
                }
            }
        }
    }
}

/// A send without its receive, a receive without its send, and an edge
/// to a device past the timelines are each an error, not a report.
#[test]
fn broken_exchange_records_fail_attribution() {
    let (fi, fo) = (6, 5);
    let g = rmat(&RmatParams::standard(140, 1100, 71).with_edge_types(3));
    let globals = globals_for(&g, fi, fo);
    let plan = partition(&g, &PartitionTable::vertex_centric());
    let dfg = ModelKind::Gcn.layer_dfg(fi, fo);
    let run = ClusterEngine::new(3, 1)
        .execute(&dfg, &g, &plan, &globals, PlacementKind::DataParallel)
        .unwrap();
    assert!(run.attribution().is_ok());
    for direction in [Direction::Sent, Direction::Received] {
        let mut broken = run.clone();
        let i = broken.exchange.events.iter().rposition(|e| e.direction == direction).unwrap();
        broken.exchange.events.remove(i);
        let err = broken.attribution().unwrap_err();
        assert!(err.contains("unmatched"), "{direction:?}: {err}");
    }
    let mut broken = run.clone();
    broken.timelines.pop();
    let err = broken.attribution().unwrap_err();
    assert!(err.contains("device 2 outside"), "{err}");
}
