//! Broken-fixture tests for the static verifier: each fixture violates
//! exactly one invariant and must trigger the documented diagnostic code
//! (DESIGN.md §8). Together they cover every code the verifier can emit,
//! P001–P004, D001–D003, O001–O002 and C001, plus a clean positive
//! control and GAT on a plan that splits destinations, through every
//! runner. Three more fixtures pin invariants that task dealing, fusion
//! and sharding guarantee by construction, with no code of their own.

use std::collections::{BTreeMap, HashMap};
use wisegraph::analysis::prelude::*;
use wisegraph::analysis::verify_execution;
use wisegraph::dfg::{Binding, Dfg, Dim, NodeId, OpKind};
use wisegraph::graph::{AttrKind, Graph};
use wisegraph::gtask::{partition, GTask, PartitionPlan, PartitionTable};
use wisegraph::kernels::micro::compile;
use wisegraph::models::ModelKind;

/// The worked example of paper Figure 3: 5 vertices, 2 edge types, 11 edges.
fn paper_graph() -> Graph {
    Graph::new(
        5,
        2,
        vec![0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0],
        vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
        vec![0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0],
    )
}

fn task(edges: Vec<usize>) -> GTask {
    GTask {
        edges,
        uniq: BTreeMap::new(),
    }
}

fn has(diags: &[Diagnostic], code: Code, needle: &str) -> bool {
    diags
        .iter()
        .any(|d| d.code == code && d.message.contains(needle))
}

// ---------------------------------------------------------------- plans

#[test]
fn p001_overlapping_task_edge_ranges() {
    let g = paper_graph();
    // Edges 4 and 5 appear in both tasks; edge 10 is never covered.
    let plan = PartitionPlan {
        table: PartitionTable::new(),
        tasks: vec![task(vec![0, 1, 2, 3, 4, 5]), task(vec![4, 5, 6, 7, 8, 9])],
    };
    let diags = verify_plan(&g, &plan);
    assert!(has(&diags, Code::PlanEdgeCoverage, "2 gTasks"), "{diags:#?}");
    assert!(has(&diags, Code::PlanEdgeCoverage, "not covered"), "{diags:#?}");
}

#[test]
fn p002_restriction_violated() {
    let g = paper_graph();
    // vertex_centric demands uniq(dst-id) = 1 per task; one task holding
    // every edge has uniq(dst-id) = 5.
    let plan = PartitionPlan {
        table: PartitionTable::vertex_centric(),
        tasks: vec![task((0..g.num_edges()).collect())],
    };
    let diags = verify_plan(&g, &plan);
    assert!(has(&diags, Code::PlanRestriction, "violates"), "{diags:#?}");
}

#[test]
fn p003_empty_task() {
    let g = paper_graph();
    let plan = PartitionPlan {
        table: PartitionTable::new(),
        tasks: vec![task((0..g.num_edges()).collect()), task(vec![])],
    };
    let diags = verify_plan(&g, &plan);
    assert!(has(&diags, Code::PlanEmptyTask, "no edges"), "{diags:#?}");
}

#[test]
fn p004_non_monotone_task_bounds() {
    let g = paper_graph();
    let mut plan = partition(&g, &PartitionTable::vertex_centric());
    assert!(plan.tasks.len() >= 2);
    plan.tasks.swap(0, 1);
    let diags = verify_plan(&g, &plan);
    assert!(has(&diags, Code::PlanTaskOrder, "boundary"), "{diags:#?}");
}

// ----------------------------------------------------------------- DFGs

#[test]
fn d001_dangling_node_reference() {
    let mut dfg = Dfg::new();
    let r = dfg.add_node_unchecked(OpKind::Relu, vec![NodeId(42)], vec![Dim::Edges]);
    dfg.mark_output(r);
    let diags = verify_dfg(&dfg, None);
    assert!(has(&diags, Code::DfgIllFormed, "dangling"), "{diags:#?}");
}

#[test]
fn d002_shape_mismatched_dfg() {
    // Add of a [V, 3] and a [V, 5] tensor: inference rejects it, and the
    // claimed output shape is unreachable.
    let mut dfg = Dfg::new();
    let a = dfg.input("a", vec![Dim::Vertices, Dim::Lit(3)]);
    let b = dfg.input("b", vec![Dim::Vertices, Dim::Lit(5)]);
    let s = dfg.add_node_unchecked(OpKind::Add, vec![a, b], vec![Dim::Vertices, Dim::Lit(3)]);
    dfg.mark_output(s);
    let diags = verify_dfg(&dfg, Some(&Binding::default()));
    assert!(
        has(&diags, Code::DfgShapeMismatch, "shape inference fails"),
        "{diags:#?}"
    );
}

#[test]
fn d003_rewrite_that_drops_an_indexing_attribute() {
    let original = ModelKind::Gcn.layer_dfg(8, 4);
    // A "rewrite" that forgot the src-id gather entirely.
    let mut broken = Dfg::new();
    let h = broken.input("h", vec![Dim::Vertices, Dim::Lit(4)]);
    let r = broken.relu(h);
    broken.mark_output(r);
    let diags = verify_rewrite(&original, &broken, "lossy-pass");
    assert!(
        has(&diags, Code::DfgRewriteChanged, "indexing-attribute set"),
        "{diags:#?}"
    );
}

// ------------------------------------------------------- instrumentation

#[test]
fn o001_uninstrumented_execution_path() {
    use wisegraph::analysis::obscheck::check_sources;
    // `execute` loops over tasks but neither opens a span nor calls
    // anything that does.
    let src = "pub fn execute(tasks: &[u32]) -> u32 {\n    tasks.iter().map(|t| helper(*t)).sum()\n}\nfn helper(t: u32) -> u32 { t }\n";
    let diags = check_sources(&[("engine.rs", src, &["execute"])]);
    assert!(
        has(&diags, Code::ObsUncovered, "without an enclosing"),
        "{diags:#?}"
    );
    assert_eq!(Code::ObsUncovered.as_str(), "O001");
    // The fix — a span anywhere along the intra-set call chain — clears it.
    let fixed = "pub fn execute(tasks: &[u32]) -> u32 {\n    tasks.iter().map(|t| helper(*t)).sum()\n}\nfn helper(t: u32) -> u32 {\n    let _s = wisegraph_obs::span!(\"kernel.task\");\n    t\n}\n";
    assert!(check_sources(&[("engine.rs", fixed, &["execute"])]).is_empty());
}

#[test]
fn o001_shipped_sources_are_covered() {
    use wisegraph::analysis::obscheck::verify_instrumentation;
    let report =
        verify_instrumentation(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(report.is_clean(), "{report}");
}

#[test]
fn o002_schedule_phase_not_span_covered() {
    use wisegraph::analysis::obscheck::check_phase_sources;
    // A halo schedule that runs its engines directly, bypassing the
    // phase-recording mailbox calls: the attribution report would never
    // see its compute or exchange.
    let src = "fn run_halo_schedule(&self) -> Vec<u32> {\n    self.engines.iter().map(|e| e.run()).collect()\n}\nfn exchange(&mut self, round: u32) {\n    self.drain(round)\n}\n";
    let req: &[(&str, &[&str])] = &[
        ("run_halo_schedule", &["record_compute", ".exchange("]),
        ("exchange", &["cluster.phase.exchange", "span!"]),
    ];
    let diags = check_phase_sources(&[("cluster.rs", src, req)]);
    assert_eq!(diags.len(), 2, "{diags:#?}");
    assert!(
        has(&diags, Code::ObsPhaseUncovered, "missing phase instrumentation"),
        "{diags:#?}"
    );
    assert_eq!(Code::ObsPhaseUncovered.as_str(), "O002");
    // The fix — routing the phases through their spans / recording
    // calls — clears both.
    let fixed = "fn run_halo_schedule(&self, mb: &mut Mailbox) -> Vec<u32> {\n    let outs = mb.record_compute(|| self.run());\n    mb.exchange(0);\n    outs\n}\nfn exchange(&mut self, round: u32) {\n    let _s = span!(\"cluster.phase.exchange\", round = round);\n    self.drain(round)\n}\n";
    assert!(check_phase_sources(&[("cluster.rs", fixed, req)]).is_empty());
    // A renamed (missing) function is reported, not skipped.
    let gone: &[(&str, &[&str])] = &[("run_devices", &["cluster.device"])];
    let diags = check_phase_sources(&[("cluster.rs", src, gone)]);
    assert!(has(&diags, Code::ObsPhaseUncovered, "not found"), "{diags:#?}");
}

#[test]
fn o002_shipped_sources_are_phase_covered() {
    use wisegraph::analysis::obscheck::verify_phase_instrumentation;
    let report =
        verify_phase_instrumentation(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
    assert!(report.is_clean(), "{report}");
}

// --------------------------------------------------- cache & repair

#[test]
fn c001_repaired_plan_divergence() {
    use wisegraph::gtask::{GraphDelta, IncrementalPlan};
    let g = paper_graph();
    let table = PartitionTable::vertex_centric();
    let mut inc = IncrementalPlan::new(&g, table.clone());
    inc.apply(&g, &GraphDelta::deleting(vec![4, 8]));
    let live = inc.live_edges();
    let snap = inc.snapshot(&g);
    // The honest repair verifies clean.
    assert!(verify_repair(&g, &table, &live, &snap).is_empty());
    // A doctored snapshot that still covers a deleted edge is C001.
    let mut bad = snap.clone();
    bad.tasks[0].edges.push(4);
    let diags = verify_repair(&g, &table, &live, &bad);
    assert!(
        has(&diags, Code::RepairDivergence, "not in the live set"),
        "{diags:#?}"
    );
    // A snapshot missing a live edge is C001 too.
    let mut lossy = snap;
    lossy.tasks[0].edges.clear();
    lossy.tasks[0].edges.push(live[0]);
    let diags = verify_repair(&g, &table, &live, &lossy);
    assert!(
        has(&diags, Code::RepairDivergence, "not covered"),
        "{diags:#?}"
    );
    assert_eq!(Code::RepairDivergence.as_str(), "C001");
}

// ------------------------------------------------ destination ownership

/// GAT on a plan that splits destinations across tasks (`edge_batch(3)`)
/// runs on every runner: the softmax runs once per call over the plan's
/// edges, so each runner matches the interpreter; the allocating reference
/// matches the engine bit for bit at each thread count, and each cluster
/// placement matches the one-thread engine, since a device owns whole
/// destinations. The verifier reports the combination clean.
#[test]
fn dst_splitting_plans_run_on_every_runner() {
    use wisegraph::dfg::interp::execute;
    use wisegraph::kernels::cluster::compatible_placements;
    use wisegraph::kernels::engine::{execute_parallel_alloc, Engine};
    use wisegraph::kernels::ClusterEngine;
    use wisegraph::tensor::init;
    let g = paper_graph();
    let dfg = ModelKind::Gat.layer_dfg(8, 4);
    let prog = compile(&dfg, &g).expect("GAT compiles");
    let mut globals = HashMap::new();
    globals.insert(
        "h".to_string(),
        init::uniform_tensor(&[g.num_vertices(), 8], -1.0, 1.0, 1),
    );
    globals.insert("w".to_string(), init::uniform_tensor(&[8, 4], -1.0, 1.0, 2));
    globals.insert("a_src".to_string(), init::uniform_tensor(&[4, 1], -1.0, 1.0, 3));
    globals.insert("a_dst".to_string(), init::uniform_tensor(&[4, 1], -1.0, 1.0, 4));
    let want = &execute(&dfg, &g, &globals).unwrap()[0];
    let close = |got: &[wisegraph::tensor::Tensor], ctx: &str| {
        assert!(want.allclose(&got[0], 1e-3), "{ctx}: diff {}", want.max_abs_diff(&got[0]));
    };

    let split = partition(&g, &PartitionTable::edge_batch(3));
    assert!(split.tasks.iter().any(|t| {
        let first = g.dst()[t.edges[0]];
        t.edges.iter().any(|&e| g.dst()[e] != first)
    }));
    for threads in [1, 2, 4] {
        let got = Engine::new(threads).execute(&dfg, &g, &split, &globals).unwrap();
        close(&got, &format!("Engine × {threads}"));
        let alloc = execute_parallel_alloc(&dfg, &g, &split, &globals, threads).unwrap();
        assert_eq!(alloc[0].data(), got[0].data(), "execute_parallel_alloc × {threads}");
    }
    let one = Engine::new(1).execute(&dfg, &g, &split, &globals).unwrap();
    let placements = compatible_placements(&prog, &g, &globals);
    assert!(!placements.is_empty());
    for &placement in &placements {
        let run = ClusterEngine::new(2, 1)
            .execute(&dfg, &g, &split, &globals, placement)
            .unwrap_or_else(|e| panic!("{}: {e}", placement.name()));
        close(&run.outputs, placement.name());
        assert_eq!(run.outputs[0].data(), one[0].data(), "{}", placement.name());
    }
    let report = verify_execution(&dfg, &g, &split);
    assert!(report.is_clean() && report.warning_count() == 0, "{report}");
}

// ------------------------------------------ guaranteed by construction

// The invariants below have no diagnostic code: the code that makes the
// object guarantees them, and these fixtures pin that guarantee.

/// The engine's dealing leaves no gap: every task lands in exactly one
/// block, for any task and thread count.
#[test]
#[allow(clippy::single_range_in_vec_init)] // a slot with one block
fn k003_gapped_chunk_mapping() {
    use std::ops::Range;
    use wisegraph::kernels::engine::deal_tasks;
    let counts = |deal: &[Vec<Range<usize>>], n: usize| {
        let mut seen = vec![0u32; n];
        deal.iter().flatten().flat_map(|b| b.clone()).for_each(|t| seen[t] += 1);
        seen
    };
    // The mapping dealing must never produce: tasks 3 and 4 in no chunk.
    let gapped = [vec![0..3], vec![5..9]];
    assert_eq!(counts(&gapped, 9), [1, 1, 1, 0, 0, 1, 1, 1, 1]);
    for (n, threads) in [(9, 4), (0, 3), (1, 8), (100, 7), (5000, 16)] {
        let seen = counts(&deal_tasks(n, threads), n);
        assert!(seen.iter().all(|&c| c == 1), "{n} tasks × {threads} threads");
    }
}

/// Every pattern the matcher can emit has a parity harness: the
/// exhaustive `match` picks a layer that fuses into it, and the fused
/// engine matches the interpreter bit for bit on the paper graph.
#[test]
fn k006_missing_parity_harness() {
    use wisegraph::kernels::engine::{Engine, ExecMode};
    use wisegraph::kernels::fused::{plan_fusion, FusedPattern};
    use wisegraph::tensor::init;
    let g = paper_graph();
    let (fi, fo) = (6, 5);
    let mut globals = HashMap::new();
    globals.insert(
        "h".to_string(),
        init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 1),
    );
    globals.insert(
        "W".to_string(),
        init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 2),
    );
    globals.insert("w".to_string(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 3));
    for pattern in FusedPattern::ALL {
        let dfg = match pattern {
            FusedPattern::SegmentReduce => ModelKind::Gcn.layer_dfg(fi, fo),
            FusedPattern::EdgeBatchMatmul => {
                // Gather → project → scatter: no built-in model keeps the
                // projection on the edge stream.
                let mut d = Dfg::new();
                let h = d.input("h", vec![Dim::Vertices, Dim::Lit(fi)]);
                let w = d.input("w", vec![Dim::Lit(fi), Dim::Lit(fo)]);
                let src = d.edge_attr(AttrKind::SrcId);
                let dst = d.edge_attr(AttrKind::DstId);
                let hsrc = d.index(h, src);
                let proj = d.linear(hsrc, w);
                let out = d.index_add(proj, dst, Dim::Vertices);
                d.mark_output(out);
                d
            }
            FusedPattern::PerTypeBatchedMatmul => ModelKind::Rgcn.layer_dfg(fi, fo),
        };
        let prog = compile(&dfg, &g).expect("compiles");
        assert!(plan_fusion(&prog).patterns().contains(&pattern), "{}", pattern.name());
        for table in [PartitionTable::vertex_centric(), PartitionTable::edge_batch(3)] {
            let plan = partition(&g, &table);
            for threads in [1, 2] {
                let run = |mode| {
                    Engine::with_mode(threads, mode)
                        .execute(&dfg, &g, &plan, &globals)
                        .unwrap()
                };
                let (a, b) = (run(ExecMode::Interpret), run(ExecMode::Fused));
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.data(), y.data(), "{} × [{table}] × {threads}", pattern.name());
                }
            }
        }
    }
}

/// Sharding splits a plan's edges: each device's destination-filtered
/// plan keeps every task slot, and together they hold each edge exactly
/// as often as the plan does. A plan that repeats an edge would put it on
/// a device twice, so P001 rejects that plan before it is sharded.
#[test]
fn s001_duplicated_edge_across_device_plans() {
    use wisegraph::graph::ShardSpec;
    let g = paper_graph();
    let shard_counts = |plan: &PartitionPlan, devices: usize| {
        let spec = ShardSpec::balanced(&g, devices);
        let mut seen = vec![0u32; g.num_edges()];
        for dev in 0..devices {
            let own = spec.owned_range(dev);
            let local = plan.filtered(&g, |e| own.contains(&(g.dst()[e] as usize)));
            assert_eq!(local.num_tasks(), plan.num_tasks(), "device {dev} of {devices}");
            local.tasks.iter().flat_map(|t| &t.edges).for_each(|&e| seen[e] += 1);
        }
        seen
    };
    // Edge 3 appears twice in the plan; each copy lands on exactly one
    // device's filtered plan, so the union covers it twice.
    let dup = PartitionPlan {
        table: PartitionTable::new(),
        tasks: vec![task(vec![0, 1, 2, 3]), task(vec![3, 4, 5, 6, 7, 8, 9, 10])],
    };
    assert_eq!(shard_counts(&dup, 2)[3], 2);
    let diags = verify_plan(&g, &dup);
    assert!(has(&diags, Code::PlanEdgeCoverage, "edge 3 is covered by 2"), "{diags:#?}");
    // The honest plan at any device count: every edge on exactly one device.
    let good = partition(&g, &PartitionTable::vertex_centric());
    for devices in [1usize, 2, 3, 5, 8] {
        let seen = shard_counts(&good, devices);
        assert!(seen.iter().all(|&c| c == 1), "{devices} devices: {seen:?}");
    }
}

// ------------------------------------------------------------- controls

#[test]
fn clean_inputs_produce_clean_reports() {
    let g = paper_graph();
    for model in [ModelKind::Gcn, ModelKind::Rgcn, ModelKind::Sage] {
        let dfg = model.layer_dfg(8, 4);
        for table in [
            PartitionTable::vertex_centric(),
            PartitionTable::edge_centric(),
            PartitionTable::two_d(2),
        ] {
            let plan = partition(&g, &table);
            let report = verify_execution(&dfg, &g, &plan);
            assert!(
                report.is_clean() && report.warning_count() == 0,
                "{model:?} × {table}: {report}"
            );
        }
    }
}

#[test]
fn every_documented_code_has_a_triggering_fixture() {
    // The exhaustive match names each code's fixture in this file: a new
    // code does not compile until it has one.
    let fixture = |code: Code| -> fn() {
        match code {
            Code::PlanEdgeCoverage => p001_overlapping_task_edge_ranges,
            Code::PlanRestriction => p002_restriction_violated,
            Code::PlanEmptyTask => p003_empty_task,
            Code::PlanTaskOrder => p004_non_monotone_task_bounds,
            Code::DfgIllFormed => d001_dangling_node_reference,
            Code::DfgShapeMismatch => d002_shape_mismatched_dfg,
            Code::DfgRewriteChanged => d003_rewrite_that_drops_an_indexing_attribute,
            Code::ObsUncovered => o001_uninstrumented_execution_path,
            Code::ObsPhaseUncovered => o002_schedule_phase_not_span_covered,
            Code::RepairDivergence => c001_repaired_plan_divergence,
        }
    };
    for code in [
        Code::PlanEdgeCoverage,
        Code::PlanRestriction,
        Code::PlanEmptyTask,
        Code::PlanTaskOrder,
        Code::DfgIllFormed,
        Code::DfgShapeMismatch,
        Code::DfgRewriteChanged,
        Code::ObsUncovered,
        Code::ObsPhaseUncovered,
        Code::RepairDivergence,
    ] {
        let _ = fixture(code);
    }
}
