//! Differential harness for the shadow-memory sanitizer (DESIGN.md §7):
//! `ExecMode::Sanitize` must be observation-only. For every built-in
//! model × candidate partition table × 1/2/4 worker threads, a sanitized
//! run must produce outputs *bit-identical* to the default (`Fused`) engine
//! (which fuses wherever a chain matches) — the shadow recording may
//! never perturb the numerics — and must report zero conflicts on every
//! shipped schedule.

use std::collections::HashMap;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::Graph;
use wisegraph::gtask::restriction::enumerate_tables;
use wisegraph::gtask::partition;
use wisegraph::kernels::engine::{Engine, ExecMode};
use wisegraph::kernels::micro::{compile, plan_is_dst_complete};
use wisegraph::models::ModelKind;
use wisegraph::tensor::{init, Tensor};

const THREADS: [usize; 3] = [1, 2, 4];
const DIMS: (usize, usize) = (8, 6);

fn graph() -> Graph {
    rmat(&RmatParams {
        num_vertices: 120,
        num_edges: 900,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        num_edge_types: 3,
        seed: 11,
    })
}

fn globals_for(g: &Graph, fi: usize, fo: usize) -> HashMap<String, Tensor> {
    let mut m = HashMap::new();
    m.insert(
        "h".to_string(),
        init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 1),
    );
    m.insert(
        "W".to_string(),
        init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 2),
    );
    m.insert("w".to_string(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 3));
    m.insert(
        "w_self".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 4),
    );
    m.insert(
        "w_neigh".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 5),
    );
    m.insert(
        "a_src".to_string(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 6),
    );
    m.insert(
        "a_dst".to_string(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 7),
    );
    m
}

#[test]
fn sanitize_is_bit_identical_to_the_default_everywhere() {
    let g = graph();
    let (fi, fo) = DIMS;
    let globals = globals_for(&g, fi, fo);
    let mut combos = 0usize;
    for model in [
        ModelKind::Gcn,
        ModelKind::Rgcn,
        ModelKind::Gat,
        ModelKind::Sage,
    ] {
        let dfg = model.layer_dfg(fi, fo);
        let indexing: Vec<_> =
            wisegraph::analysis::prelude::effective_indexing_attrs(&dfg)
                .into_iter()
                .collect();
        let dst_complete_only = compile(&dfg, &g)
            .map(|p| p.requires_dst_complete)
            .unwrap_or(false);
        for table in enumerate_tables(&indexing, &[4, 32]) {
            let plan = partition(&g, &table);
            if dst_complete_only && !plan_is_dst_complete(&g, &plan) {
                continue;
            }
            for threads in THREADS {
                combos += 1;
                let san = Engine::with_mode(threads, ExecMode::Sanitize);
                let sanitized = san
                    .execute(&dfg, &g, &plan, &globals)
                    .unwrap_or_else(|e| {
                        panic!("{model:?} × [{table}] × {threads}: sanitize failed: {e}")
                    });
                let rep = san.last_sanitize().expect("sanitized run leaves a report");
                assert!(
                    rep.conflicts.is_empty(),
                    "{model:?} × [{table}] × {threads}: shipped schedule conflicts"
                );
                assert!(rep.writes_checked > 0, "shadow must observe the scatters");
                let auto = Engine::new(threads)
                    .execute(&dfg, &g, &plan, &globals)
                    .expect("default mode executes");
                assert_eq!(sanitized.len(), auto.len());
                for (s, a) in sanitized.iter().zip(auto.iter()) {
                    assert_eq!(s.shape(), a.shape());
                    assert!(
                        s.data() == a.data(),
                        "{model:?} × [{table}] × {threads}: sanitize diverged \
                         from the default mode"
                    );
                }
            }
        }
    }
    assert!(combos >= 36, "sweep shrank unexpectedly: {combos} combos");
}
