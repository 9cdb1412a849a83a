//! Differential sharded-cluster / single-engine harness.
//!
//! The cluster layer (`wisegraph::kernels::cluster`) runs one real engine
//! per simulated device and moves embeddings through deterministic
//! collectives. Its contract: for every model, partition table, device
//! count, and *compatible* placement schedule, the assembled outputs
//! match a plain single-engine run — bit-for-bit for the halo schedules
//! (data-parallel, project-then-communicate) and tensor parallelism,
//! whose kernels are row- or column-independent and whose exchanged
//! buffers travel verbatim. Compute-then-reduce re-associates the
//! partial-aggregate sums (canonical source-group order instead of
//! worker order), so it is pinned numerically close to the single engine
//! and *bit-stable across device counts* instead.
//!
//! A second suite pins the joint optimizer's placement selection to the
//! shared Figure-11 volume arithmetic: the schedule the executor selects
//! is exactly the one an independent recomputation predicts.

use std::collections::HashMap;
use wisegraph::dfg::analysis::indexing_attrs;
use wisegraph::baselines::multi::MultiStack;
use wisegraph::core::sharded::select_placement;
use wisegraph::dfg::{transform, Binding, Dfg};
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::{Graph, ShardSpec};
use wisegraph::gtask::restriction::enumerate_tables;
use wisegraph::gtask::{partition, PartitionPlan, PartitionTable};
use wisegraph::kernels::cluster::compatible_placements;
use wisegraph::kernels::engine::Engine;
use wisegraph::kernels::micro::compile;
use wisegraph::kernels::ClusterEngine;
use wisegraph::models::ModelKind;
use wisegraph::sim::{PlacementKind, PlacementVolumes};
use wisegraph::tensor::{init, Tensor};

/// Device counts the parity sweep runs at (1 pins the degenerate
/// single-device cluster to the plain engine too).
const DEVICES: [usize; 4] = [1, 2, 4, 8];
/// Engine worker threads per device (also the single-engine reference's
/// thread count — parity holds per thread count only).
const THREADS: usize = 2;
const BATCH_SIZES: [u64; 2] = [4, 32];
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
        init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 51),
    );
    m.insert(
        "W".to_string(),
        init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 52),
    );
    m.insert("w".to_string(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 53));
    m.insert(
        "w_self".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 54),
    );
    m.insert(
        "w_neigh".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 55),
    );
    m.insert(
        "a_src".to_string(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 56),
    );
    m.insert(
        "a_dst".to_string(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 57),
    );
    m
}

fn allclose(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data().iter())
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + y.abs()))
}

/// Runs `dfg` on a `devices`-device cluster under `placement` and checks
/// the outputs against the single engine's `reference`: bit-for-bit for
/// every schedule but compute-then-reduce, which is held numerically close
/// and bit-stable across device counts (its first run is kept in `anchor`).
#[allow(clippy::too_many_arguments)]
fn check_cluster_run(
    dfg: &Dfg,
    g: &Graph,
    plan: &PartitionPlan,
    globals: &HashMap<String, Tensor>,
    placement: PlacementKind,
    devices: usize,
    reference: &[Tensor],
    anchor: &mut Option<Vec<Tensor>>,
    ctx: &str,
) {
    let run = ClusterEngine::new(devices, THREADS)
        .execute(dfg, g, plan, globals, placement)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert!(run.exchange.is_conserved(), "{ctx}: unbalanced exchange");
    assert_eq!(reference.len(), run.outputs.len(), "{ctx}");
    if placement != PlacementKind::ComputeThenReduce {
        for (a, b) in reference.iter().zip(&run.outputs) {
            let differ = a.data().iter().zip(b.data()).filter(|(x, y)| x.to_bits() != y.to_bits());
            let (n, max) = differ.fold((0, 0.0f32), |(n, m), (x, y)| (n + 1, m.max((x - y).abs())));
            assert!(
                a.dims() == b.dims() && n == 0,
                "{ctx}: {n} of {} elements differ from the single engine, max abs error {max}",
                a.numel()
            );
        }
        return;
    }
    for (a, b) in reference.iter().zip(&run.outputs) {
        assert!(allclose(b, a, 1e-3), "{ctx}: diverged from the single engine");
    }
    match anchor {
        None => *anchor = Some(run.outputs),
        Some(first) => {
            for (a, b) in first.iter().zip(&run.outputs) {
                assert_eq!(a.data(), b.data(), "{ctx}: bits changed with the device count");
            }
        }
    }
}

/// The full sweep: every model × every enumerable table × {1,2,4,8}
/// devices × every placement the compiled program supports.
#[test]
fn all_models_all_tables_all_devices_match_single_engine() {
    let (fi, fo) = (6, 5);
    let g = rmat(&RmatParams::standard(140, 1100, 71).with_edge_types(3));
    let globals = globals_for(&g, fi, fo);
    let mut combos = 0usize;
    for kind in MODELS {
        let dfg = kind.layer_dfg(fi, fo);
        let program = compile(&dfg, &g).unwrap();
        let indexing: Vec<_> = indexing_attrs(&dfg).into_iter().collect();
        for table in enumerate_tables(&indexing, &BATCH_SIZES) {
            let plan = partition(&g, &table);
            let reference = Engine::new(THREADS)
                .execute(&dfg, &g, &plan, &globals)
                .unwrap_or_else(|e| panic!("{} × [{table}]: reference: {e}", kind.name()));
            for placement in compatible_placements(&program, &g, &globals) {
                // Device-count anchor for the compute-then-reduce
                // bit-stability claim.
                let mut anchor: Option<Vec<Tensor>> = None;
                for devices in DEVICES {
                    let ctx = format!(
                        "{} × [{table}] × {} × {devices} devices",
                        kind.name(),
                        placement.name()
                    );
                    check_cluster_run(
                        &dfg, &g, &plan, &globals, placement, devices, &reference, &mut anchor, &ctx,
                    );
                    combos += 1;
                }
            }
        }
    }
    // Every model must have contributed, with multiple placements each.
    assert!(combos >= 60, "only {combos} combinations exercised");
}

/// Every compiling rewrite of every model (`transform::candidates`) ×
/// every compatible placement × 2 and 4 devices on the vertex-centric
/// plan. A rewrite moves work between the prologue and the per-task
/// program, so the tensors whose halo rows travel differ from the
/// untransformed DFG's: RGCN's prologue-table rewrite gathers its
/// projected table only through a 2-D gather, whose halo rows
/// project-then-communicate has to ship too.
#[test]
fn every_compiling_rewrite_matches_single_engine() {
    let (fi, fo) = (6, 5);
    let g = rmat(&RmatParams::standard(140, 1100, 71).with_edge_types(3));
    let globals = globals_for(&g, fi, fo);
    let plan = partition(&g, &PartitionTable::vertex_centric());
    let mut combos = 0usize;
    for kind in MODELS {
        let base = kind.layer_dfg(fi, fo);
        for (c, dfg) in transform::candidates(&base, &Binding::from_graph(&g)).iter().enumerate() {
            let Ok(program) = compile(dfg, &g) else { continue };
            let reference = Engine::new(THREADS)
                .execute(dfg, &g, &plan, &globals)
                .unwrap_or_else(|e| panic!("{} candidate {c}: reference: {e}", kind.name()));
            for placement in compatible_placements(&program, &g, &globals) {
                let mut anchor = None;
                for devices in [2, 4] {
                    let ctx = format!(
                        "{} candidate {c} × {} × {devices} devices",
                        kind.name(),
                        placement.name()
                    );
                    check_cluster_run(
                        dfg, &g, &plan, &globals, placement, devices, &reference, &mut anchor, &ctx,
                    );
                    combos += 1;
                }
            }
        }
    }
    assert!(combos >= 60, "only {combos} combinations exercised");
}

/// A weight stays replicated even when its leading extent happens to equal
/// `|V|`: vertex-rowedness is read from the DFG's symbolic shapes, not from
/// tensor extents. GAT with `|V| == f_out` (`a_src`/`a_dst` are
/// `[f_out, 1]`) and GCN with `|V| == f_in` (`w` is `[f_in, f_out]`) used
/// to have those weights masked to each device's owned rows.
#[test]
fn weights_whose_leading_extent_equals_the_vertex_count_stay_replicated() {
    let v = 16;
    let g = rmat(&RmatParams::standard(v, 120, 77));
    let plan = partition(&g, &PartitionTable::vertex_centric());
    for (kind, fi, fo) in [(ModelKind::Gat, 5, v), (ModelKind::Gcn, v, 5)] {
        let globals = globals_for(&g, fi, fo);
        let dfg = kind.layer_dfg(fi, fo);
        let program = compile(&dfg, &g).unwrap();
        let reference = Engine::new(1).execute(&dfg, &g, &plan, &globals).unwrap();
        for placement in compatible_placements(&program, &g, &globals) {
            let ctx = format!("{} × {}", kind.name(), placement.name());
            let run = ClusterEngine::new(2, 1)
                .execute(&dfg, &g, &plan, &globals, placement)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(reference.len(), run.outputs.len(), "{ctx}");
            for (a, b) in reference.iter().zip(run.outputs.iter()) {
                if placement == PlacementKind::ComputeThenReduce {
                    // Re-associates the partial sums (module docs).
                    assert!(allclose(b, a, 1e-3), "{ctx}: diverged from the single engine");
                } else {
                    assert_eq!(a.data(), b.data(), "{ctx}: not bit-identical");
                }
            }
        }
    }
}

/// The placement the sharded executor selects is the one the shared
/// volume model predicts, for every model × table. The closed-form cost
/// model prices its placements with the same module
/// (`baselines::multi`'s own tests), so the two multi-device stories
/// cannot drift apart.
#[test]
fn predicted_placement_matches_executed_selection() {
    let (fi, fo) = (6, 5);
    let g = rmat(&RmatParams::standard(140, 1100, 71).with_edge_types(3));
    let globals = globals_for(&g, fi, fo);
    let stack = MultiStack::paper_quad();
    let devices = stack.fabric.num_devices;
    let fabric = &stack.fabric;
    let mut checked = 0usize;
    for kind in MODELS {
        let dfg = kind.layer_dfg(fi, fo);
        let program = compile(&dfg, &g).unwrap();
        let indexing: Vec<_> = indexing_attrs(&dfg).into_iter().collect();
        for table in enumerate_tables(&indexing, &BATCH_SIZES) {
            let plan = partition(&g, &table);
            let choice = select_placement(&program, &g, &globals, devices, fabric, fi, fo);
            // Independent recomputation from the shared module.
            let remote = ShardSpec::balanced(&g, devices).max_remote_unique_src(&g);
            let vols =
                PlacementVolumes::new(remote as f64, g.num_vertices(), fi, fo, program.out_width);
            let compat = compatible_placements(&program, &g, &globals);
            let (expect, expect_t) = vols.best(&compat, fabric);
            assert_eq!(choice.placement, expect, "{} × [{table}]", kind.name());
            assert_eq!(choice.comm_time, expect_t, "{} × [{table}]", kind.name());
            assert_eq!(choice.candidates.len(), compat.len());
            // The executed run honors the selection.
            let cluster = ClusterEngine::new(2, THREADS);
            let run = cluster
                .execute(&dfg, &g, &plan, &globals, choice.placement)
                .unwrap_or_else(|e| panic!("{} × [{table}]: {e}", kind.name()));
            assert_eq!(run.placement, choice.placement);
            checked += 1;
        }
    }
    assert!(checked >= 20, "only {checked} combinations checked");
}
