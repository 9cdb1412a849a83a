//! Failure-injection and degenerate-input tests: the system must handle
//! pathological graphs gracefully (empty features, isolated vertices,
//! self-loops, single-type graphs, hub-only topologies).

use std::collections::HashMap;
use wisegraph::baselines::{Baseline, LayerDims};
use wisegraph::core::plan::{ExecutionPlan, OpPartitionKind};
use wisegraph::core::WiseGraph;
use wisegraph::dfg::interp::execute;
use wisegraph::dfg::Binding;
use wisegraph::graph::Graph;
use wisegraph::gtask::{partition, PartitionTable};
use wisegraph::models::ModelKind;
use wisegraph::sim::DeviceSpec;
use wisegraph::tensor::{init, Tensor};

/// A single self-loop: the smallest legal graph.
#[test]
fn single_self_loop() {
    let g = Graph::untyped(1, vec![0], vec![0]);
    for table in [
        PartitionTable::vertex_centric(),
        PartitionTable::edge_centric(),
        PartitionTable::two_d(4),
    ] {
        let plan = partition(&g, &table);
        assert_eq!(plan.num_tasks(), 1);
        assert_eq!(plan.total_edges(), 1);
    }
    let dfg = ModelKind::Gcn.layer_dfg(3, 2);
    let mut inputs: HashMap<String, Tensor> = HashMap::new();
    inputs.insert("h".into(), Tensor::ones(&[1, 3]));
    inputs.insert("w".into(), Tensor::ones(&[3, 2]));
    let out = &execute(&dfg, &g, &inputs).unwrap()[0];
    assert_eq!(out.dims(), &[1, 2]);
    assert!(out.all_finite());
}

/// Many isolated vertices: aggregation outputs zero rows, models must not
/// produce NaNs (degree normalization divides by max(deg, 1)).
#[test]
fn mostly_isolated_vertices() {
    let g = Graph::untyped(100, vec![0, 1], vec![2, 2]);
    let dfg = ModelKind::Sage.layer_dfg(4, 3);
    let mut inputs: HashMap<String, Tensor> = HashMap::new();
    inputs.insert("h".into(), init::uniform_tensor(&[100, 4], -1.0, 1.0, 1));
    inputs.insert("w_self".into(), init::uniform_tensor(&[4, 3], -1.0, 1.0, 2));
    inputs.insert("w_neigh".into(), init::uniform_tensor(&[4, 3], -1.0, 1.0, 3));
    let out = &execute(&dfg, &g, &inputs).unwrap()[0];
    assert!(out.all_finite(), "degree normalization must not divide by 0");
}

/// Sampling nothing is not an error: an empty graph, or no seeds, yields
/// an empty subgraph.
#[test]
fn empty_samples_are_empty_subgraphs() {
    use wisegraph::graph::sample::{neighbor_sample, SampleConfig};
    use wisegraph::graph::Csr;

    let empty = Graph::untyped(0, vec![], vec![]);
    let g = wisegraph::graph::generate::rmat(
        &wisegraph::graph::generate::RmatParams::standard(100, 800, 3),
    );
    for (g, num_seeds) in [(&empty, 10), (&empty, 0), (&g, 0)] {
        let cfg = SampleConfig {
            num_seeds,
            fanouts: vec![5, 5],
            seed: 1,
        };
        let sub = neighbor_sample(g, &Csr::in_of(g), &cfg);
        assert_eq!(sub.graph.num_vertices(), 0);
        assert_eq!(sub.graph.num_edges(), 0);
        assert!(sub.vertex_map.is_empty() && sub.seeds.is_empty());
    }
}

/// A pure star (one hub) stresses every outlier path at once.
#[test]
fn star_graph_full_pipeline() {
    let n = 600;
    let src: Vec<u32> = (1..n as u32).collect();
    let dst = vec![0u32; n - 1];
    let g = Graph::untyped(n, src, dst);
    let dev = DeviceSpec::a100_pcie();
    let wg = WiseGraph::new(dev);
    let dims = LayerDims::paper_single(16, 4);
    for model in [ModelKind::Gcn, ModelKind::Gat] {
        let out = wg.optimize(&g, model, &dims);
        assert!(out.time_per_iter.is_finite() && out.time_per_iter > 0.0);
        assert!(!out.oom);
    }
}

/// A graph where every edge has the same type behaves identically under
/// type-restricted and unrestricted tables.
#[test]
fn single_type_graph_type_restriction_is_noop() {
    let g = wisegraph::graph::generate::rmat(
        &wisegraph::graph::generate::RmatParams::standard(200, 1500, 9),
    );
    let a = partition(&g, &PartitionTable::vertex_centric());
    let b = partition(&g, &PartitionTable::dst_and_type());
    assert_eq!(a.num_tasks(), b.num_tasks());
    let sizes = |p: &wisegraph::gtask::PartitionPlan| {
        let mut s: Vec<usize> = p.tasks.iter().map(|t| t.num_edges()).collect();
        s.sort_unstable();
        s
    };
    assert_eq!(sizes(&a), sizes(&b));
}

/// Degenerate feature dimensions (width 1) flow through every model DFG.
#[test]
fn width_one_features() {
    let g = wisegraph::graph::generate::rmat(
        &wisegraph::graph::generate::RmatParams::standard(50, 300, 5)
            .with_edge_types(2),
    );
    for model in ModelKind::ALL {
        let dfg = model.layer_dfg(1, 1);
        let mut inputs: HashMap<String, Tensor> = HashMap::new();
        inputs.insert("h".into(), init::uniform_tensor(&[50, 1], -1.0, 1.0, 1));
        inputs.insert("W".into(), init::uniform_tensor(&[2, 1, 1], -1.0, 1.0, 2));
        inputs.insert("w".into(), init::uniform_tensor(&[1, 1], -1.0, 1.0, 3));
        inputs.insert("a_src".into(), init::uniform_tensor(&[1, 1], -1.0, 1.0, 4));
        inputs.insert("a_dst".into(), init::uniform_tensor(&[1, 1], -1.0, 1.0, 5));
        inputs.insert("wx".into(), init::uniform_tensor(&[1, 4], -1.0, 1.0, 6));
        inputs.insert("wh".into(), init::uniform_tensor(&[1, 4], -1.0, 1.0, 7));
        inputs.insert("b".into(), init::uniform_tensor(&[4], -1.0, 1.0, 8));
        inputs.insert("w_out".into(), init::uniform_tensor(&[1, 1], -1.0, 1.0, 9));
        inputs.insert("w_self".into(), init::uniform_tensor(&[1, 1], -1.0, 1.0, 10));
        inputs.insert("w_neigh".into(), init::uniform_tensor(&[1, 1], -1.0, 1.0, 11));
        let out = execute(&dfg, &g, &inputs)
            .unwrap_or_else(|e| panic!("{}: {e}", model.name()));
        assert!(out[0].all_finite(), "{}", model.name());
    }
}

/// Plans built on a subgraph with a missing edge type (type id never used)
/// still estimate and execute.
#[test]
fn sparse_type_usage() {
    // 4 declared types but only type 0 and 3 appear.
    let g = Graph::new(
        20,
        4,
        vec![0, 1, 2, 3, 4, 5],
        vec![1, 2, 3, 4, 5, 6],
        vec![0, 0, 3, 3, 0, 3],
    );
    let dev = DeviceSpec::a100_pcie();
    let dfg = ModelKind::Rgcn.layer_dfg(4, 4);
    let plan = ExecutionPlan::build(
        &g,
        PartitionTable::src_batch_per_type(4),
        &dfg,
        OpPartitionKind::Fused,
    );
    let est = plan.estimate(&Binding::from_graph(&g), &dev);
    assert!(est.time.is_finite() && est.time > 0.0);
    // Baselines too.
    let dims = LayerDims {
        f_in: 4,
        hidden: 4,
        classes: 2,
        layers: 2,
    };
    for b in Baseline::columns_for(ModelKind::Rgcn) {
        let e = b.estimate(&g, ModelKind::Rgcn, &dims, &dev);
        assert!(e.time_per_iter.is_finite());
    }
}

/// The fused kernels unroll output columns in `LANES`-wide chunks with a
/// scalar remainder loop; feature dims that are below, straddle, and
/// just-past lane multiples (1, 3, 5, 7, 17) must all stay bit-identical
/// to the interpreter — across every fusion pattern.
#[test]
fn fused_parity_at_odd_feature_dims() {
    use wisegraph::dfg::{Dfg, Dim};
    use wisegraph::graph::AttrKind;
    use wisegraph::kernels::engine::{Engine, ExecMode};
    use wisegraph::kernels::fused::{plan_fusion, LANES};
    use wisegraph::kernels::micro::compile;

    let g = wisegraph::graph::generate::rmat(
        &wisegraph::graph::generate::RmatParams::standard(60, 450, 31)
            .with_edge_types(3),
    );
    assert_eq!(LANES, 4, "dims below cover the lane remainder paths");
    for dim in [1usize, 3, 5, 7, 17] {
        // The models cover SegmentReduce (GCN) and PerTypeBatchedMatmul
        // (RGCN); a hand-built gather→project→scatter layer matches no
        // pattern and runs interpreted under both modes.
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(dim)]);
        let w = d.input("w", vec![Dim::Lit(dim), Dim::Lit(dim)]);
        let src = d.edge_attr(AttrKind::SrcId);
        let dst = d.edge_attr(AttrKind::DstId);
        let hsrc = d.index(h, src);
        let proj = d.linear(hsrc, w);
        let out = d.index_add(proj, dst, Dim::Vertices);
        d.mark_output(out);

        let gcn = ModelKind::Gcn.layer_dfg(dim, dim);
        let rgcn = ModelKind::Rgcn.layer_dfg(dim, dim);
        for (name, dfg) in [("matmul", &d), ("gcn", &gcn), ("rgcn", &rgcn)] {
            if name != "matmul" {
                let program = compile(dfg, &g).unwrap();
                assert!(
                    plan_fusion(&program).num_fused() > 0,
                    "{name} dim {dim}: nothing fused"
                );
            }
            let mut globals: HashMap<String, Tensor> = HashMap::new();
            globals.insert(
                "h".into(),
                init::uniform_tensor(&[g.num_vertices(), dim], -1.0, 1.0, 41),
            );
            globals.insert(
                "w".into(),
                init::uniform_tensor(&[dim, dim], -1.0, 1.0, 42),
            );
            globals.insert(
                "W".into(),
                init::uniform_tensor(&[3, dim, dim], -1.0, 1.0, 43),
            );
            let plan = partition(&g, &PartitionTable::edge_batch(32));
            for threads in [1usize, 2, 4] {
                let a = Engine::with_mode(threads, ExecMode::Interpret)
                    .execute(dfg, &g, &plan, &globals)
                    .unwrap();
                let b = Engine::with_mode(threads, ExecMode::Fused)
                    .execute(dfg, &g, &plan, &globals)
                    .unwrap();
                assert_eq!(
                    a[0].data(),
                    b[0].data(),
                    "{name} dim {dim} not bit-identical at {threads} threads"
                );
            }
        }
    }
}

/// A gTask with zero edges is a legal (if degenerate) input to the
/// runner: under the fused plan it must leave the output untouched and
/// account exactly one task, zero edges, zero flops — the same as under
/// the interpreted plan.
#[test]
fn zero_edge_gtask_is_a_fused_noop() {
    use wisegraph::kernels::fused::{plan_fusion, FusedPlan};
    use wisegraph::kernels::micro::{compile, run_task, TaskWorkspace};
    use wisegraph::obs::Class;

    let g = wisegraph::graph::generate::rmat(
        &wisegraph::graph::generate::RmatParams::standard(40, 250, 33),
    );
    let dfg = ModelKind::Gcn.layer_dfg(4, 3);
    let program = compile(&dfg, &g).unwrap();
    let fplan = plan_fusion(&program);
    assert!(fplan.num_fused() > 0);
    let mut globals: HashMap<String, Tensor> = HashMap::new();
    globals.insert("h".into(), init::uniform_tensor(&[40, 4], -1.0, 1.0, 51));
    globals.insert("w".into(), init::uniform_tensor(&[4, 3], -1.0, 1.0, 52));

    let empty: [u32; 0] = [];
    let mut a = Tensor::zeros(&[program.out_rows, program.out_width]);
    let mut b = a.clone();
    let mut tws_i = TaskWorkspace::new();
    let mut tws_f = TaskWorkspace::new();
    let interp = FusedPlan::interpreted(&program);
    run_task(&program, &interp, &g, &globals, &empty, &mut a, &mut tws_i);
    run_task(&program, &fplan, &g, &globals, &empty, &mut b, &mut tws_f);
    assert_eq!(a.data(), b.data());
    assert!(b.data().iter().all(|&x| x == 0.0), "no edges may write output");
    let wi = tws_i.stats().only(&[Class::Work]);
    let wf = tws_f.stats().only(&[Class::Work]);
    assert_eq!(
        wisegraph::obs::counters_to_json(&wi),
        wisegraph::obs::counters_to_json(&wf)
    );
    assert_eq!(wi.count(wisegraph::obs::keys::KERNEL_TASKS), 1);
    assert_eq!(wi.count(wisegraph::obs::keys::KERNEL_EDGES), 0);
}

/// Optimizer output is deterministic: two searches on the same input give
/// identical plans and times.
#[test]
fn optimizer_is_deterministic() {
    let g = wisegraph::graph::generate::rmat(
        &wisegraph::graph::generate::RmatParams::standard(800, 9000, 77)
            .with_edge_types(3),
    );
    let dims = LayerDims::paper_single(32, 8);
    let a = WiseGraph::new(DeviceSpec::a100_pcie()).optimize(&g, ModelKind::Rgcn, &dims);
    let b = WiseGraph::new(DeviceSpec::a100_pcie()).optimize(&g, ModelKind::Rgcn, &dims);
    assert_eq!(a.per_layer[0].partition.table, b.per_layer[0].partition.table);
    assert_eq!(a.per_layer[0].op_partition, b.per_layer[0].op_partition);
    assert!((a.time_per_iter - b.time_per_iter).abs() < 1e-12);
}

/// An edgeless graph has plans without tasks: the plan search prices them
/// (one batch row, no dedup) instead of indexing an empty task list, for
/// every model.
#[test]
fn optimizer_searches_an_edgeless_graph() {
    let g = Graph::untyped(10, vec![], vec![]);
    let dims = LayerDims::paper_single(8, 4);
    for model in ModelKind::ALL {
        let out = WiseGraph::new(DeviceSpec::a100_pcie()).optimize(&g, model, &dims);
        assert!(out.time_per_iter.is_finite(), "{}", model.name());
        assert_eq!(out.per_layer.len(), dims.layers, "{}", model.name());
        assert!(out.per_layer.iter().all(|p| p.partition.num_tasks() == 0));
    }
}

/// Degenerate shards. In-edge-balanced boundaries make empty shards
/// ordinary: a star's hub holds every device's share of the edges, a
/// graph with few destinations leaves devices without an edge, and more
/// devices than vertices leaves them without a row. Every compatible
/// placement must still return the single engine's bits (compute-then-
/// reduce: the same bits at every device count) and a conserved exchange.
#[test]
fn degenerate_shards_match_the_single_engine() {
    use wisegraph::kernels::cluster::compatible_placements;
    use wisegraph::kernels::engine::Engine;
    use wisegraph::kernels::micro::compile;
    use wisegraph::kernels::ClusterEngine;
    use wisegraph::sim::PlacementKind;

    let n = 40u32;
    let graphs = [
        // Star: all edges into vertex 7.
        ("star", Graph::untyped(n as usize, (0..n).collect(), vec![7; n as usize])),
        // Two destinations at the far ends: every shard between them is
        // edgeless.
        (
            "two_sinks",
            Graph::untyped(
                n as usize,
                (0..n).collect(),
                (0..n).map(|e| if e % 2 == 0 { 0 } else { n - 1 }).collect(),
            ),
        ),
        // Fewer vertices than devices at 4, 8 and 16.
        ("three_vertices", Graph::untyped(3, vec![0, 1, 2, 2], vec![1, 2, 0, 1])),
    ];
    let (fi, fo) = (5, 4);
    for (name, g) in &graphs {
        let v = g.num_vertices();
        let mut globals: HashMap<String, Tensor> = HashMap::new();
        globals.insert("h".into(), init::uniform_tensor(&[v, fi], -1.0, 1.0, 61));
        globals.insert("w".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 62));
        globals.insert("W".into(), init::uniform_tensor(&[1, fi, fo], -1.0, 1.0, 63));
        globals.insert("w_self".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 64));
        globals.insert("w_neigh".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 65));
        globals.insert("a_src".into(), init::uniform_tensor(&[fo, 1], -1.0, 1.0, 66));
        globals.insert("a_dst".into(), init::uniform_tensor(&[fo, 1], -1.0, 1.0, 67));
        let plan = partition(g, &PartitionTable::vertex_centric());
        for model in [ModelKind::Gcn, ModelKind::Rgcn, ModelKind::Gat, ModelKind::Sage] {
            let dfg = model.layer_dfg(fi, fo);
            let program = compile(&dfg, g).unwrap();
            let reference = Engine::new(2).execute(&dfg, g, &plan, &globals).unwrap();
            for placement in compatible_placements(&program, g, &globals) {
                let mut anchor: Option<Vec<Tensor>> = None;
                for devices in [2usize, 4, 8, 16] {
                    let ctx = format!(
                        "{name} × {} × {} × {devices} devices",
                        model.name(),
                        placement.name()
                    );
                    let run = ClusterEngine::new(devices, 2)
                        .execute(&dfg, g, &plan, &globals, placement)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    assert!(run.exchange.is_conserved(), "{ctx}: unbalanced exchange");
                    let expect = if placement == PlacementKind::ComputeThenReduce {
                        anchor.get_or_insert_with(|| run.outputs.clone())
                    } else {
                        &reference
                    };
                    for (a, b) in expect.iter().zip(run.outputs.iter()) {
                        assert_eq!(a.dims(), b.dims(), "{ctx}");
                        assert_eq!(a.data(), b.data(), "{ctx}: bits differ");
                    }
                }
            }
        }
    }
}

/// Malformed globals are an error on the calling thread, never a panic in
/// a worker or device thread: a missing weight, and embeddings with too
/// few rows or too many columns, each come back from both runners as an
/// error that names the input.
#[test]
fn malformed_globals_are_errors_on_both_runners() {
    use wisegraph::graph::generate::{rmat, RmatParams};
    use wisegraph::kernels::engine::Engine;
    use wisegraph::kernels::ClusterEngine;
    use wisegraph::sim::PlacementKind;

    let g = rmat(&RmatParams::standard(100, 800, 43));
    let (v, fi, fo) = (g.num_vertices(), 6, 3);
    let dfg = ModelKind::Gcn.layer_dfg(fi, fo);
    let plan = partition(&g, &PartitionTable::vertex_centric());
    let mut good: HashMap<String, Tensor> = HashMap::new();
    good.insert("h".into(), init::uniform_tensor(&[v, fi], -1.0, 1.0, 71));
    good.insert("w".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 72));
    // A name the DFG does not read is allowed.
    good.insert("unused".into(), Tensor::ones(&[2, 2]));
    assert!(Engine::new(2).execute(&dfg, &g, &plan, &good).is_ok());

    let mut no_w = good.clone();
    no_w.remove("w");
    let mut short_h = good.clone();
    short_h.insert("h".into(), init::uniform_tensor(&[v - 10, fi], -1.0, 1.0, 73));
    let mut wide_h = good.clone();
    wide_h.insert("h".into(), init::uniform_tensor(&[v, fi + 1], -1.0, 1.0, 74));
    let cases = [("no w", no_w, "`w`"), ("short h", short_h, "`h`"), ("wide h", wide_h, "`h`")];
    for (case, globals, name) in cases {
        let err = Engine::new(2)
            .execute(&dfg, &g, &plan, &globals)
            .expect_err(case);
        assert!(err.to_string().contains(name), "{case}: {err}");
        for placement in [PlacementKind::DataParallel, PlacementKind::TensorParallel] {
            let err = ClusterEngine::new(2, 2)
                .execute(&dfg, &g, &plan, &globals, placement)
                .expect_err(case);
            assert!(err.to_string().contains(name), "{case} × {}: {err}", placement.name());
        }
    }
}

/// A plan or a program built for another graph is an error on the calling
/// thread too: a plan holding edge ids past the graph's, and a program
/// compiled for another vertex count, come back from both runners as an
/// error that names the mismatch.
#[test]
fn plans_and_programs_of_another_graph_are_errors_on_both_runners() {
    use wisegraph::graph::generate::{rmat, RmatParams};
    use wisegraph::kernels::engine::Engine;
    use wisegraph::kernels::micro::compile;
    use wisegraph::kernels::ClusterEngine;
    use wisegraph::sim::PlacementKind;

    let g = rmat(&RmatParams::standard(50, 300, 83));
    let big = rmat(&RmatParams::standard(80, 600, 83));
    let (fi, fo) = (4, 3);
    let dfg = ModelKind::Gcn.layer_dfg(fi, fo);
    let mut globals: HashMap<String, Tensor> = HashMap::new();
    globals.insert("h".into(), init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 75));
    globals.insert("w".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 76));
    let own = partition(&g, &PartitionTable::vertex_centric());
    let program = compile(&dfg, &g).unwrap();
    assert!(Engine::new(2).execute_program(&program, &dfg, &g, &own, &globals).is_ok());

    let foreign_plan = partition(&big, &PartitionTable::vertex_centric());
    let foreign_program = compile(&dfg, &big).unwrap();
    let cases = [
        ("foreign plan", &program, &foreign_plan, "edge id"),
        ("foreign program", &foreign_program, &own, "vertex rows"),
    ];
    for (case, program, plan, what) in cases {
        let err = Engine::new(2)
            .execute_program(program, &dfg, &g, plan, &globals)
            .expect_err(case);
        assert!(err.to_string().contains(what), "{case}: {err}");
        for placement in [PlacementKind::DataParallel, PlacementKind::TensorParallel] {
            let err = ClusterEngine::new(2, 2)
                .execute_program(program, &dfg, &g, plan, &globals, placement)
                .expect_err(case);
            assert!(err.to_string().contains(what), "{case} × {}: {err}", placement.name());
        }
    }
}

/// The dense phases split prologue tensors and outputs by vertex row,
/// so `compile` rejects a program with one that has no vertex rows of
/// fixed extents, before any runner sees it.
#[test]
fn prologue_tensors_and_outputs_need_vertex_rows() {
    use wisegraph::dfg::{Dfg, Dim, NodeId};
    use wisegraph::graph::generate::{rmat, RmatParams};
    use wisegraph::graph::AttrKind;
    use wisegraph::kernels::engine::Engine;
    use wisegraph::kernels::micro::compile;

    let g = rmat(&RmatParams::standard(40, 300, 49));
    let (v, fi, fo) = (g.num_vertices(), 4, 3);
    let aggregate = |d: &mut Dfg, x: NodeId| {
        let (src, dst) = (d.edge_attr(AttrKind::SrcId), d.edge_attr(AttrKind::DstId));
        let rows = d.index(x, src);
        let out = d.index_add(rows, dst, Dim::Vertices);
        d.mark_output(out);
    };
    let mut globals: HashMap<String, Tensor> = HashMap::new();
    globals.insert("h".into(), init::uniform_tensor(&[v, fi], -1.0, 1.0, 8));
    globals.insert("w".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 9));
    globals.insert("x".into(), init::uniform_tensor(&[v, fi], -1.0, 1.0, 10));
    globals.insert("u".into(), init::uniform_tensor(&[fo, fo], -1.0, 1.0, 11));
    let plan = partition(&g, &PartitionTable::vertex_centric());
    let rejected = |d: &Dfg, id: NodeId| {
        let err = compile(d, &g).unwrap_err();
        assert!(err.to_string().contains(&format!("node {} ", id.0)), "{err}");
        assert!(Engine::new(2).execute(d, &g, &plan, &globals).is_err());
    };

    // A second output that is a weight-only product.
    let mut d = Dfg::new();
    let h = d.input("h", vec![Dim::Vertices, Dim::Lit(fi)]);
    aggregate(&mut d, h);
    assert!(compile(&d, &g).is_ok());
    let w = d.input("w", vec![Dim::Lit(fi), Dim::Lit(fo)]);
    let u = d.input("u", vec![Dim::Lit(fo), Dim::Lit(fo)]);
    let ww = d.linear(w, u);
    d.mark_output(ww);
    rejected(&d, ww);

    // A per-task gather from a projection whose rows are a literal
    // extent, not the vertices.
    let mut d = Dfg::new();
    let x = d.input("x", vec![Dim::Lit(v), Dim::Lit(fi)]);
    let w = d.input("w", vec![Dim::Lit(fi), Dim::Lit(fo)]);
    let xw = d.linear(x, w);
    aggregate(&mut d, xw);
    rejected(&d, xw);
}
