//! Planning-cache equivalence harness (DESIGN.md §10).
//!
//! The content-addressed `PlanCache` may change *when* planning work
//! happens — never *what* executes. These tests pin that contract:
//!
//! * a warm-cache run (partition, transformed DFG, and kernel program all
//!   cloned from the store) produces bit-identical outputs and
//!   bit-identical `Class::Work` counters to an uncached run, for every
//!   model and for 1/2/4 engine threads;
//! * a delta through `DynamicPlanner` invalidates exactly the stale
//!   live-set entries, reseeds the repaired plan, and the warm execution
//!   over the new live set is bit-identical to a from-scratch partition
//!   of the same edges;
//! * warm lookups are hits (the cache actually works) and everything the
//!   cache reports is `Resource`-class, invisible to the Work view.

use std::collections::HashMap;
use wisegraph::cache::PlanCache;
use wisegraph::core::dynamic::DynamicPlanner;
use wisegraph::dfg::{transform, Binding};
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::Graph;
use wisegraph::gtask::{partition_edges, GraphDelta, PartitionTable};
use wisegraph::kernels::engine::Engine;
use wisegraph::kernels::micro::compile;
use wisegraph::models::ModelKind;
use wisegraph::obs::{counters_to_json, Class, Counters};
use wisegraph::tensor::{init, Tensor};

const THREADS: [usize; 3] = [1, 2, 4];
const DIMS: (usize, usize) = (8, 6);

fn graph() -> Graph {
    rmat(&RmatParams::standard(200, 1600, 23).with_edge_types(4))
}

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

fn work_json(c: &Counters) -> String {
    counters_to_json(&c.only(&[Class::Work]))
}

/// Warm-cache execution is bit-identical — outputs and Work counters —
/// to the uncached pipeline, for every model at 1/2/4 threads.
#[test]
fn warm_cache_runs_are_bit_identical_to_cold() {
    let g = graph();
    let (fi, fo) = DIMS;
    let globals = globals_for(&g, fi, fo);
    let table = PartitionTable::vertex_centric();
    for model in [
        ModelKind::Gcn,
        ModelKind::Rgcn,
        ModelKind::Gat,
        ModelKind::Sage,
    ] {
        let base = model.layer_dfg(fi, fo);

        // Prime one cache so the measured run below is fully warm.
        let mut cache = PlanCache::new();
        let _ = cache.partition_cached(&g, &table);
        let pre_dfg = cache.transform_cached(&g, &base);
        let _ = cache.compile_cached(&g, &pre_dfg).expect("models compile");
        let fills = cache.misses();

        for threads in THREADS {
            // Uncached reference pipeline.
            let binding = Binding::from_graph(&g);
            let (dfg, _) = transform::optimize(&base, &binding);
            let program = compile(&dfg, &g).expect("models compile");
            let plan = wisegraph::gtask::partition(&g, &table);
            let engine = Engine::new(threads);
            let cold = engine
                .execute_program(&program, &dfg, &g, &plan, &globals)
                .expect("cold run executes");
            let cold_work = work_json(&engine.stats());

            // Warm pipeline: every artifact cloned from the store.
            let w_plan = cache.partition_cached(&g, &table);
            let w_dfg = cache.transform_cached(&g, &base);
            let w_program = cache.compile_cached(&g, &w_dfg).expect("warm compile");
            let w_engine = Engine::new(threads);
            let warm = w_engine
                .execute_program(&w_program, &w_dfg, &g, &w_plan, &globals)
                .expect("warm run executes");
            let warm_work = work_json(&w_engine.stats());

            assert_eq!(cold.len(), warm.len(), "{model:?} × {threads}");
            for (a, b) in cold.iter().zip(&warm) {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "{model:?} × {threads} threads: warm output differs"
                );
            }
            assert_eq!(
                cold_work, warm_work,
                "{model:?} × {threads} threads: Work counters differ"
            );
        }
        // Every post-priming lookup was a hit: 3 stages × 3 thread counts.
        assert_eq!(cache.misses(), fills, "{model:?}: warm lookups recomputed");
        assert_eq!(cache.hits(), 9, "{model:?}: expected 9 warm hits");
    }
}

/// A delta invalidates the stale live-set entries, the repair verifies
/// clean, and warm execution over the repaired plan is bit-identical to
/// executing a from-scratch partition of the same live edges.
#[test]
fn delta_invalidates_and_repaired_execution_matches_scratch() {
    let g = graph();
    let (fi, fo) = DIMS;
    let globals = globals_for(&g, fi, fo);
    let base = ModelKind::Gcn.layer_dfg(fi, fo);
    let table = PartitionTable::vertex_centric();

    let mut dp = DynamicPlanner::new(&g, table.clone());
    let engine = Engine::new(2);
    let _ = dp.execute(&g, &base, &globals, &engine).expect("initial run");

    let delta = GraphDelta {
        insert: vec![],
        delete: (0..g.num_edges()).filter(|e| e % 5 == 0).collect(),
    };
    let out = dp.apply(&g, &delta);
    assert!(out.is_clean(), "repair diverged: {:#?}", out.diagnostics);
    assert!(!out.rebuilt);
    assert!(
        out.invalidated >= 1,
        "stale live-set entries must be dropped"
    );

    for threads in THREADS {
        let eng = Engine::new(threads);
        let warm = dp.execute(&g, &base, &globals, &eng).expect("warm run");
        let warm_work = work_json(&eng.stats());

        // From-scratch reference over the same live set.
        let live = dp.live_edges();
        let plan = partition_edges(&g, &table, &live);
        let binding = Binding::from_graph(&g);
        let (dfg, _) = transform::optimize(&base, &binding);
        let program = compile(&dfg, &g).expect("compiles");
        let reng = Engine::new(threads);
        let scratch = reng
            .execute_program(&program, &dfg, &g, &plan, &globals)
            .expect("scratch run");
        let scratch_work = work_json(&reng.stats());

        assert_eq!(warm.len(), scratch.len());
        for (a, b) in warm.iter().zip(&scratch) {
            assert_eq!(
                a.data(),
                b.data(),
                "{threads} threads: repaired-plan output diverges from scratch"
            );
        }
        assert_eq!(
            warm_work, scratch_work,
            "{threads} threads: Work counters diverge"
        );
    }
}

/// Everything the cache reports is Resource-class: the Work view of a
/// counter registry is unchanged by recording cache counters into it.
#[test]
fn cache_counters_never_touch_the_work_view() {
    let g = graph();
    let mut cache = PlanCache::new();
    let table = PartitionTable::edge_batch(32);
    let _ = cache.partition_cached(&g, &table);
    let _ = cache.partition_cached(&g, &table);
    let mut c = Counters::new();
    let before = work_json(&c);
    cache.record_counters(&mut c);
    assert_eq!(work_json(&c), before, "cache counters leaked into Work");
    assert!(!c.is_empty(), "cache counters were recorded at all");
}
