//! Broken-fixture tests for the static verifier: each fixture violates
//! exactly one invariant and must trigger the documented diagnostic code
//! (DESIGN.md §8). Together they cover every code the verifier can emit,
//! P001–P004, D001–D003, K001–K003, K005–K006, O001–O002, C001,
//! R004–R005, and S001–S003, plus a clean positive control and GAT on a
//! plan that splits destinations, through every runner.

use std::collections::{BTreeMap, HashMap};
use wisegraph::analysis::prelude::*;
use wisegraph::analysis::verify_execution;
use wisegraph::dfg::{Binding, Dfg, Dim, NodeId, OpKind};
use wisegraph::graph::{AttrKind, Graph};
use wisegraph::gtask::{partition, GTask, PartitionPlan, PartitionTable};
use wisegraph::kernels::micro::{compile, EwOp, MicroKernel, Reg};
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

// -------------------------------------------------------------- kernels

fn raw_program(ops: Vec<MicroKernel>, num_regs: usize) -> wisegraph::kernels::micro::KernelProgram {
    wisegraph::kernels::micro::KernelProgram {
        ops,
        edge_ops: vec![],
        num_regs,
        out_rows: 5,
        out_width: 4,
        reduce_node: NodeId(0),
        prologue: vec![],
    }
}

#[test]
fn k001_store_before_load() {
    // The ScatterAdd reads r0/r1 before the loads that define them.
    let prog = raw_program(
        vec![
            MicroKernel::ScatterAdd {
                data: Reg(0),
                idx: Reg(1),
            },
            MicroKernel::LoadStream {
                attr: AttrKind::SrcId,
                out: Reg(0),
            },
            MicroKernel::LoadStream {
                attr: AttrKind::DstId,
                out: Reg(1),
            },
        ],
        2,
    );
    let diags = verify_program(&prog);
    assert!(
        has(&diags, Code::KernelUseBeforeDef, "before any micro-kernel writes"),
        "{diags:#?}"
    );
}

#[test]
fn k002_workspace_aliasing() {
    let prog = raw_program(
        vec![
            MicroKernel::LoadStream {
                attr: AttrKind::SrcId,
                out: Reg(0),
            },
            // In-place Relu: out aliases the operand's pooled buffer.
            MicroKernel::Elementwise {
                op: EwOp::Relu,
                a: Reg(0),
                b: None,
                out: Reg(0),
            },
            MicroKernel::ScatterAdd {
                data: Reg(0),
                idx: Reg(0),
            },
        ],
        1,
    );
    let diags = verify_program(&prog);
    assert!(has(&diags, Code::KernelAliasing, "aliases"), "{diags:#?}");
}

#[test]
#[allow(clippy::single_range_in_vec_init)] // a slot with one block
fn k003_gapped_chunk_mapping() {
    let diags = verify_chunk_ranges(&[vec![0..3], vec![5..9]], 9, 4);
    assert!(
        has(&diags, Code::KernelChunkMapping, "assigned to no chunk"),
        "{diags:#?}"
    );
}

#[test]
fn k005_fusion_plan_dropping_instructions() {
    use wisegraph::kernels::fused::plan_fusion;
    let g = paper_graph();
    let dfg = ModelKind::Gcn.layer_dfg(8, 4);
    let prog = compile(&dfg, &g).expect("GCN compiles");
    let mut fplan = plan_fusion(&prog);
    // A plan that silently drops its last segment no longer covers the
    // program: the fused run would skip real instructions.
    fplan.segments.pop();
    let diags = verify_fusion(&prog, &fplan);
    assert!(
        has(&diags, Code::KernelFusionCoverage, "cover exactly"),
        "{diags:#?}"
    );
    assert_eq!(Code::KernelFusionCoverage.as_str(), "K005");
    // The untampered plan is clean.
    assert!(verify_fusion(&prog, &plan_fusion(&prog)).is_empty());
}

#[test]
fn k006_missing_parity_harness() {
    // A tree with no tests/fused_parity.rs: every pattern is unregistered.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let diags = verify_fused_parity_registry(&root);
    assert!(!diags.is_empty());
    assert!(diags.iter().all(|d| d.code == Code::KernelFusionUntested));
    assert_eq!(Code::KernelFusionUntested.as_str(), "K006");
    // This repo's harness registers every pattern.
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    assert!(verify_fused_parity_registry(repo).is_empty());
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
    for threads in [1, 3] {
        let report = verify_execution(&dfg, &g, &split, threads);
        assert!(report.is_clean() && report.warning_count() == 0, "{report}");
    }
}

#[test]
fn r004_fused_segment_diverging_from_interpreted_accesses() {
    use wisegraph::kernels::fused::{plan_fusion, FusedOp, Segment};
    let g = paper_graph();
    let dfg = ModelKind::Gcn.layer_dfg(8, 4);
    let prog = compile(&dfg, &g).expect("GCN compiles");
    let mut fplan = plan_fusion(&prog);
    assert!(fplan.num_fused() > 0, "GCN must fuse for this fixture");
    // The honest plan agrees with the interpreted access sets.
    assert!(verify_fused_access(&prog, &fplan).is_empty());
    // Rewire the first fused segment's scatter stream: the fused ExecMode
    // would now write via a different stream than the interpreter.
    for seg in &mut fplan.segments {
        if let Segment::Fused(fk) = seg {
            match &mut fk.op {
                FusedOp::SegmentReduce { dst_idx, .. }
                | FusedOp::EdgeBatchMatmul { dst_idx, .. }
                | FusedOp::PerTypeBatchedMatmul { dst_idx, .. } => *dst_idx = Reg(97),
            }
            break;
        }
    }
    let diags = verify_fused_access(&prog, &fplan);
    assert!(
        has(&diags, Code::ScheduleFusedDivergence, "scatters by stream"),
        "{diags:#?}"
    );
    assert_eq!(Code::ScheduleFusedDivergence.as_str(), "R004");
}

#[test]
fn r005_workspace_lifetime_violations() {
    // r0 is leased twice with the first buffer never consumed, then read
    // after the overwrite released it: both R005 shapes in one program.
    let prog = raw_program(
        vec![
            MicroKernel::LoadStream {
                attr: AttrKind::SrcId,
                out: Reg(0),
            },
            MicroKernel::LoadStream {
                attr: AttrKind::DstId,
                out: Reg(0),
            },
            MicroKernel::Elementwise {
                op: EwOp::Relu,
                a: Reg(0),
                b: None,
                out: Reg(1),
            },
        ],
        2,
    );
    let diags = verify_workspace_lifetime(&prog);
    assert!(has(&diags, Code::WorkspaceLifetime, "double-lease"), "{diags:#?}");
    assert!(
        has(&diags, Code::WorkspaceLifetime, "use-after-release"),
        "{diags:#?}"
    );
    assert_eq!(Code::WorkspaceLifetime.as_str(), "R005");
    // Compiled programs are SSA by construction: clean.
    let g = paper_graph();
    let compiled = compile(&ModelKind::Gcn.layer_dfg(8, 4), &g).unwrap();
    assert!(verify_workspace_lifetime(&compiled).is_empty());
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
            for threads in [1, 3] {
                let report = verify_execution(&dfg, &g, &plan, threads);
                assert!(
                    report.is_clean() && report.warning_count() == 0,
                    "{model:?} × {table}: {report}"
                );
            }
        }
    }
}

// ------------------------------------------------------------- sharding

#[test]
fn s001_duplicated_edge_across_device_plans() {
    let g = paper_graph();
    // Edge 3 appears twice in the plan; each copy lands on exactly one
    // device's filtered plan, so the union covers it twice.
    let plan = PartitionPlan {
        table: PartitionTable::new(),
        tasks: vec![task(vec![0, 1, 2, 3]), task(vec![3, 4, 5, 6, 7, 8, 9, 10])],
    };
    let diags = verify_shard_coverage(&g, &plan, 2);
    assert!(has(&diags, Code::ShardCoverage, "instead of exactly one"), "{diags:#?}");
    assert_eq!(Code::ShardCoverage.as_str(), "S001");
    // Zero devices is its own S001.
    assert!(!verify_shard_coverage(&g, &plan, 0).is_empty());
    // The honest plan at any device count is clean.
    let good = partition(&g, &PartitionTable::vertex_centric());
    for devices in [1usize, 2, 3, 5, 8] {
        assert!(verify_shard_coverage(&g, &good, devices).is_empty());
    }
}

#[test]
fn s002_dropped_message_breaks_conservation() {
    use wisegraph::kernels::cluster::{Direction, ExchangeEvent, ExchangeLog};
    let sent = ExchangeEvent {
        collective: "all_to_all",
        round: 0,
        from: 0,
        to: 1,
        bytes: 64,
        direction: Direction::Sent,
    };
    let received = ExchangeEvent {
        direction: Direction::Received,
        ..sent.clone()
    };
    let balanced = ExchangeLog {
        events: vec![sent.clone(), received],
    };
    assert!(verify_exchange(&balanced).is_empty());
    let dropped = ExchangeLog { events: vec![sent] };
    let diags = verify_exchange(&dropped);
    assert!(has(&diags, Code::ExchangeConservation, "not conserved"), "{diags:#?}");
    assert_eq!(Code::ExchangeConservation.as_str(), "S002");
}

#[test]
fn s003_gat_prologue_under_tensor_parallelism() {
    use wisegraph::sim::PlacementKind;
    use wisegraph::tensor::init;
    let g = paper_graph();
    // GAT hoists its projections into the prologue and its softmax into
    // the per-call edge pass; tensor parallelism column-slices neither.
    let dfg = ModelKind::Gat.layer_dfg(4, 3);
    let program = compile(&dfg, &g).unwrap();
    let mut globals = std::collections::HashMap::new();
    globals.insert(
        "h".to_string(),
        init::uniform_tensor(&[g.num_vertices(), 4], -1.0, 1.0, 1),
    );
    globals.insert("w".to_string(), init::uniform_tensor(&[4, 3], -1.0, 1.0, 2));
    globals.insert("a_src".to_string(), init::uniform_tensor(&[3, 1], -1.0, 1.0, 3));
    globals.insert("a_dst".to_string(), init::uniform_tensor(&[3, 1], -1.0, 1.0, 4));
    let diags = verify_placement(&program, &globals, PlacementKind::TensorParallel);
    assert!(
        has(&diags, Code::PlacementIncompatible, "tensor_parallel: hoisted prologue"),
        "{diags:#?}"
    );
    assert_eq!(Code::PlacementIncompatible.as_str(), "S003");
    assert!(
        verify_placement(&program, &globals, PlacementKind::DataParallel).is_empty()
    );
}

#[test]
fn every_documented_code_has_a_triggering_fixture() {
    // Meta-check: the codes asserted across this file cover the verifier's
    // whole vocabulary, so a new code cannot land without a fixture.
    let covered = [
        Code::PlanEdgeCoverage,
        Code::PlanRestriction,
        Code::PlanEmptyTask,
        Code::PlanTaskOrder,
        Code::DfgIllFormed,
        Code::DfgShapeMismatch,
        Code::DfgRewriteChanged,
        Code::KernelUseBeforeDef,
        Code::KernelAliasing,
        Code::KernelChunkMapping,
        Code::KernelFusionCoverage,
        Code::KernelFusionUntested,
        Code::ObsUncovered,
        Code::RepairDivergence,
        Code::ScheduleFusedDivergence,
        Code::WorkspaceLifetime,
        Code::ShardCoverage,
        Code::ExchangeConservation,
        Code::PlacementIncompatible,
    ];
    let strs: Vec<&str> = covered.iter().map(|c| c.as_str()).collect();
    for family in ["P", "D", "K", "O", "C", "R", "S"] {
        assert!(strs.iter().any(|s| s.starts_with(family)));
    }
    assert_eq!(strs.len(), 19);
}
