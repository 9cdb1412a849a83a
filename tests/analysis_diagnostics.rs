//! Broken-fixture tests for the static verifier: each fixture violates
//! exactly one invariant and must trigger the documented diagnostic code
//! (DESIGN.md §8). Together they cover every code the verifier can emit,
//! P001–P004 and C001, plus GAT on a plan that splits destinations,
//! through every runner. The clean positive control sweeps every built-in
//! model, rewrite candidate, partition table and canned repair on one RMAT
//! graph. Five more fixtures pin invariants that the DFG builder, task
//! dealing, fusion and sharding guarantee by construction, with no code of
//! their own. Two span captures check that the shipped code records the
//! spans its consumers read and that a cluster run's phase spans account
//! for all of its engine work.

use std::collections::HashMap;
use wisegraph::analysis::prelude::*;
use wisegraph::cache::PlanCache;
use wisegraph::core::plan::Patterns;
use wisegraph::core::{execute_sharded_layer, select_placement};
use wisegraph::dfg::{Binding, Dfg, Dim, NodeId};
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::{AttrKind, Graph};
use wisegraph::gtask::{
    partition, GraphDelta, IncrementalPlan, PartitionPlan, PartitionTable, Recount, TaskList,
};
use wisegraph::kernels::cluster::compatible_placements;
use wisegraph::kernels::engine::Engine;
use wisegraph::kernels::micro::compile;
use wisegraph::kernels::train::{aggregate, aggregate_typed};
use wisegraph::kernels::ClusterEngine;
use wisegraph::models::ModelKind;
use wisegraph::obs::critical::logical_cost;
use wisegraph::obs::span::{Phase, SpanEvent};
use wisegraph::obs::{capture, PhaseKind, Trace};
use wisegraph::sim::Fabric;
use wisegraph::tensor::{init, Tape, Tensor};

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

fn task(edges: Vec<usize>) -> TaskList {
    (edges, Vec::new())
}

/// A plan of untracked tasks under `table`.
fn plan_of(table: PartitionTable, tasks: Vec<TaskList>) -> PartitionPlan {
    PartitionPlan::from_task_lists(table, Vec::new(), tasks)
}

/// `plan` with its task lists edited by `edit`.
fn edited(plan: &PartitionPlan, edit: impl FnOnce(&mut Vec<TaskList>)) -> PartitionPlan {
    let mut tasks = plan.task_lists();
    edit(&mut tasks);
    PartitionPlan::from_task_lists(plan.table.clone(), plan.tasks.attrs().to_vec(), tasks)
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
    let plan = plan_of(
        PartitionTable::new(),
        vec![task(vec![0, 1, 2, 3, 4, 5]), task(vec![4, 5, 6, 7, 8, 9])],
    );
    let diags = verify_plan(&g, &plan);
    assert!(has(&diags, Code::PlanEdgeCoverage, "2 gTasks"), "{diags:#?}");
    assert!(has(&diags, Code::PlanEdgeCoverage, "not covered"), "{diags:#?}");
}

#[test]
fn p002_restriction_violated() {
    let g = paper_graph();
    // vertex_centric demands uniq(dst-id) = 1 per task; one task holding
    // every edge has uniq(dst-id) = 5.
    let plan = plan_of(PartitionTable::vertex_centric(), vec![task((0..g.num_edges()).collect())]);
    let diags = verify_plan(&g, &plan);
    assert!(has(&diags, Code::PlanRestriction, "violates"), "{diags:#?}");
}

#[test]
fn p003_empty_task() {
    let g = paper_graph();
    let plan = plan_of(
        PartitionTable::new(),
        vec![task((0..g.num_edges()).collect()), task(vec![])],
    );
    let diags = verify_plan(&g, &plan);
    assert!(has(&diags, Code::PlanEmptyTask, "no edges"), "{diags:#?}");
}

#[test]
fn p004_non_monotone_task_bounds() {
    let g = paper_graph();
    let plan = partition(&g, &PartitionTable::vertex_centric());
    assert!(plan.tasks.len() >= 2);
    let plan = edited(&plan, |tasks| tasks.swap(0, 1));
    let diags = verify_plan(&g, &plan);
    assert!(has(&diags, Code::PlanTaskOrder, "boundary"), "{diags:#?}");
}

// ----------------------------------------------------------------- DFGs
//
// The two tests below keep the names of the retired D001/D002 DFG checks
// and pin what the builder guarantees in their place: a dangling id or an
// uninferable shape panics where the DFG is built.

/// Runs `build` and returns its panic message; fails if it does not panic.
fn panic_message(build: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build))
        .expect_err("the DFG builder accepted an ill-formed DFG");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn d001_dangling_node_reference() {
    let msg = panic_message(|| {
        let mut dfg = Dfg::new();
        dfg.edge_attr(AttrKind::SrcId);
        dfg.mark_output(NodeId(42));
    });
    assert!(msg.contains("out of range"), "{msg}");
}

#[test]
fn d002_shape_mismatched_dfg() {
    // Add of a [V, 3] and a [V, 5] tensor: inference rejects it.
    let msg = panic_message(|| {
        let mut dfg = Dfg::new();
        let a = dfg.input("a", vec![Dim::Vertices, Dim::Lit(3)]);
        let b = dfg.input("b", vec![Dim::Vertices, Dim::Lit(5)]);
        dfg.add(a, b);
    });
    assert!(msg.contains("invalid DFG node"), "{msg}");
}

// ------------------------------------------------------- instrumentation
//
// The two tests below keep the names of the retired O001/O002 source-text
// span scans. They check the same property, that the shipped code records
// the spans its consumers read, on real calls under `obs::capture` instead
// of on the source text.

/// An RMAT graph and every global the built-in models read, for the span
/// captures.
fn traced_inputs() -> (Graph, HashMap<String, Tensor>) {
    let g = rmat(&RmatParams::standard(200, 1600, 17).with_edge_types(3));
    let (fi, fo) = (6, 4);
    let mut inputs = HashMap::new();
    for (name, dims, seed) in [
        ("h", vec![g.num_vertices(), fi], 1),
        ("W", vec![g.num_edge_types(), fi, fo], 2),
        ("w", vec![fi, fo], 3),
        ("w_self", vec![fi, fo], 4),
        ("w_neigh", vec![fi, fo], 5),
        ("a_src", vec![fo, 1], 6),
        ("a_dst", vec![fo, 1], 7),
    ] {
        inputs.insert(name.to_string(), init::uniform_tensor(&dims, -1.0, 1.0, seed));
    }
    (g, inputs)
}

/// The models the engine executes.
const MODELS: [ModelKind; 4] = [
    ModelKind::Gcn,
    ModelKind::Rgcn,
    ModelKind::Gat,
    ModelKind::Sage,
];

/// Asserts that `trace` holds at least one span of each name.
fn assert_spans(trace: &Trace, names: &[&str], ctx: &str) {
    for name in names {
        assert!(trace.span_count(name) > 0, "{ctx}: no `{name}` span");
    }
}

/// The value of span argument `key`, if the event carries it.
fn arg(e: &SpanEvent, key: &str) -> Option<u64> {
    e.args.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
}

/// Every traced entry point records the spans its consumers read
/// (`wisegraph-prof`'s timeline and skew tables, perfbench's per-layer
/// metrics), checked on a real call rather than on the source text.
///
/// `engine::execute_parallel_alloc` is left out: it is a test reference
/// no profiler traces, and its workers run outside the capture session.
#[test]
fn o001_shipped_sources_are_covered() {
    let (g, inputs) = traced_inputs();
    let (fi, fo) = (6, 4);
    let plan = partition(&g, &PartitionTable::vertex_centric());

    for model in MODELS {
        let dfg = model.layer_dfg(fi, fo);
        let program = compile(&dfg, &g).expect("compiles");
        let mut names = vec!["engine.execute", "engine.worker", "kernel.task", "engine.epilogue"];
        if model == ModelKind::Gat {
            names.extend(["engine.prologue", "engine.edge_prologue"]);
        }
        let engine = Engine::new(2);
        let (_, trace) = capture(|| engine.execute(&dfg, &g, &plan, &inputs).unwrap());
        assert_spans(&trace, &names, &format!("{} execute", model.name()));
        let (_, trace) = capture(|| {
            engine.execute_program(&program, &dfg, &g, &plan, &inputs).unwrap()
        });
        assert_spans(&trace, &names, &format!("{} execute_program", model.name()));
    }

    let dfg = ModelKind::Gcn.layer_dfg(fi, fo);
    let program = compile(&dfg, &g).expect("compiles");
    let (_, trace) = capture(|| {
        Engine::new(2).accumulate_program(&program, &g, &plan, &inputs).unwrap()
    });
    assert_spans(&trace, &["engine.accumulate", "engine.worker", "kernel.task"], "accumulate");

    let fabric = Fabric::pcie4_quad();
    let (_, trace) = capture(|| select_placement(&program, &g, &inputs, 2, &fabric, fi, fo));
    assert_spans(&trace, &["sharded.select_placement"], "select_placement");
    let (_, trace) = capture(|| {
        let cluster = ClusterEngine::new(2, 1);
        execute_sharded_layer(&cluster, &dfg, &g, &plan, &inputs, &fabric, fi, fo, 0).unwrap()
    });
    assert_spans(&trace, &["sharded.execute"], "execute_sharded_layer");

    for (typed, ctx) in [(false, "training aggregation"), (true, "typed training aggregation")] {
        let (_, trace) = capture(|| {
            let tape = Tape::new();
            let h = tape.param(init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 8));
            let out = if typed {
                aggregate_typed(&tape, &g, h)
            } else {
                aggregate(&tape, &g, h)
            };
            tape.backward(tape.sum(out));
        });
        assert_spans(&trace, &["train.aggregate.forward", "train.aggregate.backward"], ctx);
    }

    let (_, trace) = capture(|| partition(&g, &PartitionTable::edge_batch(32)));
    assert_spans(&trace, &["gtask.partition"], "partition");
    let mut inc = IncrementalPlan::new(&g, PartitionTable::vertex_centric());
    let (_, trace) = capture(|| inc.apply(&g, &GraphDelta::deleting(vec![0, 5])));
    assert_spans(&trace, &["gtask.incremental.apply"], "IncrementalPlan::apply");
    let mut cache = PlanCache::new();
    let (_, trace) = capture(|| {
        cache.partition_cached(&g, &PartitionTable::vertex_centric());
        let transformed = cache.transform_cached(&g, &dfg);
        cache.compile_cached(&g, &transformed).unwrap()
    });
    assert_spans(&trace, &["cache.partition", "cache.transform", "cache.compile"], "PlanCache");
    let (_, trace) = capture(|| Patterns::count(&mut Recount::new(&g), &plan, &dfg));
    let names = ["core.plan.patterns", "gtask.recount.column"];
    assert_spans(&trace, &names, "Patterns::count");
}

/// A cluster run's phase spans and timelines account for all of its
/// engine work, as the critical-path attribution needs. For every model ×
/// compatible placement on 2 devices: the run has its `cluster.execute`
/// span, each device has one `cluster.device` span, each device's compute
/// segments cost at least the engine work the device did, and every
/// mailbox round has its `cluster.phase.exchange` span. A schedule that
/// runs engine work outside `record_compute` fails the cost assertion.
#[test]
fn o002_shipped_sources_are_phase_covered() {
    let (g, inputs) = traced_inputs();
    let plan = partition(&g, &PartitionTable::vertex_centric());
    for model in MODELS {
        let dfg = model.layer_dfg(6, 4);
        let program = compile(&dfg, &g).expect("compiles");
        for placement in compatible_placements(&program, &g, &inputs) {
            let ctx = format!("{} × {}", model.name(), placement.name());
            let (run, trace) = capture(|| {
                ClusterEngine::new(2, 2)
                    .execute_program(&program, &dfg, &g, &plan, &inputs, placement)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"))
            });
            assert_spans(&trace, &["cluster.execute"], &ctx);
            let begins = |name: &str, dev: u64| -> Vec<&SpanEvent> {
                trace
                    .events
                    .iter()
                    .filter(|e| e.phase == Phase::Begin && e.name == name)
                    .filter(|e| arg(e, "device") == Some(dev))
                    .collect()
            };
            assert_eq!(run.timelines.len(), 2, "{ctx}");
            for (d, timeline) in run.timelines.iter().enumerate() {
                let dev = d as u64;
                assert_eq!(begins("cluster.device", dev).len(), 1, "{ctx}: device {d}");
                let compute: u64 = timeline
                    .segments
                    .iter()
                    .filter(|s| s.kind == PhaseKind::Compute)
                    .map(|s| s.cost)
                    .sum();
                let work = logical_cost(&run.per_device[d]);
                assert!(work > 0, "{ctx}: device {d} did no engine work");
                assert!(
                    compute >= work,
                    "{ctx}: device {d}'s compute segments cost {compute}, \
                     its engine did {work}"
                );
                let rounds: Vec<u64> = timeline
                    .segments
                    .iter()
                    .filter_map(|s| match s.kind {
                        PhaseKind::Exchange { round, .. } => Some(u64::from(round)),
                        PhaseKind::Compute => None,
                    })
                    .collect();
                let mut spans: Vec<u64> = begins("cluster.phase.exchange", dev)
                    .into_iter()
                    .filter_map(|e| arg(e, "round"))
                    .collect();
                spans.sort_unstable();
                assert_eq!(spans, rounds, "{ctx}: device {d}'s exchange rounds");
            }
        }
    }
}

// --------------------------------------------------- cache & repair

#[test]
fn c001_repaired_plan_divergence() {
    let g = paper_graph();
    let table = PartitionTable::vertex_centric();
    let mut inc = IncrementalPlan::new(&g, table.clone());
    inc.apply(&g, &GraphDelta::deleting(vec![4, 8]));
    let live = inc.live_edges();
    let snap = inc.snapshot(&g);
    // The honest repair verifies clean.
    assert!(verify_repair(&g, &table, &live, &snap).is_empty());
    // A doctored snapshot that still covers a deleted edge is C001.
    let bad = edited(&snap, |tasks| tasks[0].0.push(4));
    let diags = verify_repair(&g, &table, &live, &bad);
    assert!(
        has(&diags, Code::RepairDivergence, "not in the live set"),
        "{diags:#?}"
    );
    // A snapshot missing a live edge is C001 too.
    let lossy = edited(&snap, |tasks| {
        tasks[0].0.clear();
        tasks[0].0.push(live[0]);
    });
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
/// destinations. The verifier reports the plan clean.
#[test]
fn dst_splitting_plans_run_on_every_runner() {
    use wisegraph::dfg::interp::execute;
    use wisegraph::kernels::engine::execute_parallel_alloc;
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
        let first = g.dst()[t.edges[0] as usize];
        t.edges.iter().any(|&e| g.dst()[e as usize] != first)
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
    let diags = verify_plan(&g, &split);
    assert!(diags.is_empty(), "{diags:#?}");
}

// ------------------------------------------ guaranteed by construction

// The invariants below have no diagnostic code: the code that makes the
// object guarantees them, and these fixtures pin that guarantee. The DFG
// builder's guarantee is pinned by the two DFG fixtures above.

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
    use wisegraph::kernels::engine::ExecMode;
    use wisegraph::kernels::fused::{plan_fusion, FusedPattern};
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
    globals.insert("a_src".to_string(), init::uniform_tensor(&[fo, 1], -1.0, 1.0, 4));
    globals.insert("a_dst".to_string(), init::uniform_tensor(&[fo, 1], -1.0, 1.0, 5));
    for pattern in FusedPattern::ALL {
        let dfg = match pattern {
            FusedPattern::SegmentReduce => ModelKind::Gcn.layer_dfg(fi, fo),
            FusedPattern::PerTypeBatchedMatmul => ModelKind::Rgcn.layer_dfg(fi, fo),
            FusedPattern::WeightedSegmentReduce | FusedPattern::EdgeScore => {
                ModelKind::Gat.layer_dfg(fi, fo)
            }
            FusedPattern::PairwiseScatter => {
                // The extract+swap rewrite (Fig. 9), the last candidate.
                let rgcn = ModelKind::Rgcn.layer_dfg(fi, fo);
                wisegraph::dfg::transform::candidates(&rgcn, &Binding::from_graph(&g))
                    .pop()
                    .expect("RGCN has rewrites")
            }
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
            let local =
                plan.filtered(&mut Recount::new(&g), |e| own.contains(&(g.dst()[e] as usize)));
            assert_eq!(local.num_tasks(), plan.num_tasks(), "device {dev} of {devices}");
            local.tasks.edges().iter().for_each(|&e| seen[e as usize] += 1);
        }
        seen
    };
    // Edge 3 appears twice in the plan; each copy lands on exactly one
    // device's filtered plan, so the union covers it twice.
    let dup = plan_of(
        PartitionTable::new(),
        vec![task(vec![0, 1, 2, 3]), task(vec![3, 4, 5, 6, 7, 8, 9, 10])],
    );
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

/// Every built-in model on a 300-vertex, 2 400-edge, 4-type RMAT graph:
/// every `transform::candidates` rewrite of its DFG builds (the builder
/// panics on a dangling id or a shape inference rejects), every model ×
/// `enumerate_tables` combination's plan verifies clean and the model's
/// DFG compiles for it (49 of them), and a canned delete-then-insert
/// repair verifies against a from-scratch partition on every table (16 of
/// them).
#[test]
fn clean_inputs_produce_clean_reports() {
    use wisegraph::dfg::analysis::indexing_attrs;
    use wisegraph::dfg::transform;
    use wisegraph::gtask::restriction::enumerate_tables;
    const BATCH_SIZES: [u64; 2] = [4, 32];
    let g = rmat(&RmatParams {
        num_vertices: 300,
        num_edges: 2400,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        num_edge_types: 4,
        seed: 7,
    });
    let binding = Binding::from_graph(&g);
    let mut combos = 0;
    for model in [ModelKind::Gcn, ModelKind::Rgcn, ModelKind::Gat, ModelKind::Sage] {
        let dfg = model.layer_dfg(8, 6);
        for (i, d) in transform::candidates(&dfg, &binding).iter().enumerate() {
            assert!(!d.outputs().is_empty(), "{model:?} candidate #{i} declares no outputs");
        }
        let indexing: Vec<_> = indexing_attrs(&dfg).into_iter().collect();
        for table in enumerate_tables(&indexing, &BATCH_SIZES) {
            let ctx = format!("{model:?} × [{table}]");
            let plan = partition(&g, &table);
            let diags = verify_plan(&g, &plan);
            assert!(diags.is_empty(), "{ctx}: {diags:#?}");
            compile(&dfg, &g).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            combos += 1;
        }
    }
    assert_eq!(combos, 49, "model × table combinations");

    let mut repairs = 0;
    let attrs = [AttrKind::SrcId, AttrKind::DstId, AttrKind::EdgeType];
    for table in enumerate_tables(&attrs, &BATCH_SIZES) {
        let mut inc = IncrementalPlan::new(&g, table.clone());
        inc.apply(&g, &GraphDelta::deleting((0..g.num_edges()).step_by(7).collect()));
        inc.apply(&g, &GraphDelta::inserting((0..g.num_edges()).step_by(14).collect()));
        let diags = verify_repair(&g, &table, &inc.live_edges(), &inc.snapshot(&g));
        assert!(diags.is_empty(), "repair × [{table}]: {diags:#?}");
        repairs += 1;
    }
    assert_eq!(repairs, 16, "repaired tables");
}

#[test]
fn every_documented_code_has_a_triggering_fixture() {
    // The exhaustive match names each code's fixture in this file: a new
    // code does not compile until it has one. The five codes below are
    // all the verifier has, in canonical order.
    let fixture = |code: Code| -> fn() {
        match code {
            Code::PlanEdgeCoverage => p001_overlapping_task_edge_ranges,
            Code::PlanRestriction => p002_restriction_violated,
            Code::PlanEmptyTask => p003_empty_task,
            Code::PlanTaskOrder => p004_non_monotone_task_bounds,
            Code::RepairDivergence => c001_repaired_plan_divergence,
        }
    };
    let codes = [
        Code::PlanEdgeCoverage,
        Code::PlanRestriction,
        Code::PlanEmptyTask,
        Code::PlanTaskOrder,
        Code::RepairDivergence,
    ];
    let names: Vec<&str> = codes.iter().map(|c| c.as_str()).collect();
    assert_eq!(names, ["P001", "P002", "P003", "P004", "C001"]);
    for code in codes {
        let _ = fixture(code);
    }
}
