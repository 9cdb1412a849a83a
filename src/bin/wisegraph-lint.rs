//! `wisegraph-lint`: the pre-execution static verification gate.
//!
//! Runs every pass of `wisegraph-analysis` over every built-in model ×
//! candidate partition strategy on a synthetic RMAT graph:
//!
//! 1. the model DFG is verified (well-formedness + dimension inference);
//! 2. every repo rewrite (`cse`, `prune_dead`, each transformation
//!    candidate) is checked for interface preservation;
//! 3. every table from `enumerate_tables` is partitioned with the greedy
//!    partitioner, and the resulting plan and the DFG's compile-ability
//!    are verified: 49 model × table combinations (a compiled program is
//!    legal by construction and runs on any plan at any thread count);
//! 4. the span-instrumentation coverage of the execution entry points is
//!    checked against the shipped sources (`O001`), so `wisegraph-prof`'s
//!    timeline cannot silently lose its subjects;
//! 5. the cluster schedule phases and mailbox operations that feed the
//!    causal trace and critical-path attribution are likewise checked
//!    (`O002`);
//! 6. incremental gTask repair after a canned delta stream must verify
//!    identically to a from-scratch partition of the live set (`C001`).
//!
//! Exits nonzero if any pass reports an error, printing each diagnostic;
//! `scripts/verify.sh` runs this after the test suite. With `--json`, all
//! human-readable output is replaced by one compact JSON document on
//! stdout (`obs::json`, keys in sorted order).

use std::process::ExitCode;
use wisegraph::analysis::prelude::*;
use wisegraph::analysis::verify_execution;
use wisegraph::dfg::passes::{cse, prune_dead};
use wisegraph::dfg::transform;
use wisegraph::dfg::Binding;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::gtask::restriction::enumerate_tables;
use wisegraph::gtask::{partition, GraphDelta, IncrementalPlan};
use wisegraph::models::ModelKind;
use wisegraph::obs::json::Json;

/// `Exact(k)` batch sizes for table enumeration.
const BATCH_SIZES: [u64; 2] = [4, 32];

/// Feature dims for the lint models (matches `wisegraph-prof`).
const DIMS: (usize, usize) = (8, 6);

/// Collects diagnostics for both output formats: human lines as they
/// happen (unless `--json`), plus the JSON records rendered once at the
/// end.
struct Sink {
    json: bool,
    errors: usize,
    warnings: usize,
    records: Vec<Json>,
}

/// A JSON object from `(key, value)` pairs.
fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

impl Sink {
    fn report(&mut self, ctx: &str, report: &Report) {
        for d in &report.diagnostics {
            if !self.json {
                println!("{ctx}: {d}");
            }
            self.records.push(obj([
                ("context", Json::Str(ctx.to_string())),
                ("severity", Json::Str(d.severity.to_string())),
                ("code", Json::Str(d.code.to_string())),
                ("span", Json::Str(d.span.to_string())),
                ("message", Json::Str(d.message.clone())),
                ("suggestion", d.suggestion.clone().map_or(Json::Null, Json::Str)),
            ]));
        }
        self.errors += report.error_count();
        self.warnings += report.warning_count();
    }

    fn say(&self, line: String) {
        if !self.json {
            println!("{line}");
        }
    }
}

fn main() -> ExitCode {
    let mut json = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => json = true,
            other => {
                eprintln!("wisegraph-lint: unknown argument `{other}` (accepted: --json)");
                return ExitCode::FAILURE;
            }
        }
    }
    let params = RmatParams {
        num_vertices: 300,
        num_edges: 2400,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        num_edge_types: 4,
        seed: 7,
    };
    let g = rmat(&params);
    let binding = Binding::from_graph(&g);
    let mut sink = Sink {
        json,
        errors: 0,
        warnings: 0,
        records: Vec::new(),
    };
    sink.say(format!(
        "wisegraph-lint: RMAT graph with {} vertices, {} edges, {} edge types",
        g.num_vertices(),
        g.num_edges(),
        g.num_edge_types()
    ));

    let mut combos = 0usize;

    let models = [
        ModelKind::Gcn,
        ModelKind::Rgcn,
        ModelKind::Gat,
        ModelKind::Sage,
    ];
    for model in models {
        let dfg = model.layer_dfg(DIMS.0, DIMS.1);

        // Pass 1: the model DFG itself.
        let mut dfg_report = Report::new();
        dfg_report.extend(verify_dfg(&dfg, Some(&binding)));

        // Pass 2: every repo rewrite must preserve the interface.
        dfg_report.extend(verify_rewrite(&dfg, &cse(&dfg), "cse"));
        dfg_report.extend(verify_rewrite(&dfg, &prune_dead(&dfg), "prune_dead"));
        for (ci, cand) in transform::candidates(&dfg, &binding).iter().enumerate() {
            dfg_report.extend(verify_rewrite(&dfg, cand, &format!("candidate #{ci}")));
            dfg_report.extend(verify_dfg(cand, Some(&binding)));
        }
        sink.report(&format!("{model:?}"), &dfg_report);

        // Pass 3: every candidate table.
        let indexing: Vec<_> = effective_indexing_attrs(&dfg).into_iter().collect();
        for table in enumerate_tables(&indexing, &BATCH_SIZES) {
            let plan = partition(&g, &table);
            combos += 1;
            let report = verify_execution(&dfg, &g, &plan);
            if !report.is_clean() || report.warning_count() > 0 {
                sink.report(&format!("{model:?} × [{table}]"), &report);
            }
        }
    }

    // Pass 4: span-instrumentation coverage of the shipped sources. When
    // the binary runs from a checkout (verify.sh does), the sources are
    // under the manifest dir; installed copies skip the pass gracefully
    // by reporting the unreadable files.
    let obs_report =
        verify_instrumentation(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
    sink.report("instrumentation", &obs_report);
    sink.say(format!(
        "wisegraph-lint: instrumentation coverage checked for {} source files",
        wisegraph::analysis::obscheck::REQUIRED.len()
    ));

    // Pass 5: cluster phase coverage (O002). Every cluster schedule
    // phase and mailbox operation must keep the span / phase-recording
    // call the causal trace and critical-path attribution are built from.
    let phase_report =
        verify_phase_instrumentation(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
    sink.report("cluster phase instrumentation", &phase_report);
    sink.say(format!(
        "wisegraph-lint: cluster phase coverage checked for {} function(s)",
        wisegraph::analysis::obscheck::REQUIRED_PHASES
            .iter()
            .map(|(_, fns)| fns.len())
            .sum::<usize>()
    ));

    // Pass 6: incremental repair must verify against a from-scratch
    // partition for every candidate table (C001) after a canned
    // insert/delete stream.
    let mut repair_report = Report::new();
    let mut repairs = 0usize;
    for table in enumerate_tables(
        &[
            wisegraph::graph::AttrKind::SrcId,
            wisegraph::graph::AttrKind::DstId,
            wisegraph::graph::AttrKind::EdgeType,
        ],
        &BATCH_SIZES,
    ) {
        let mut inc = IncrementalPlan::new(&g, table.clone());
        inc.apply(
            &g,
            &GraphDelta::deleting((0..g.num_edges()).step_by(7).collect()),
        );
        inc.apply(&g, &GraphDelta::inserting((0..g.num_edges()).step_by(14).collect()));
        let live = inc.live_edges();
        let snap = inc.snapshot(&g);
        repair_report.extend(verify_repair(&g, &table, &live, &snap));
        repairs += 1;
    }
    sink.report("incremental repair", &repair_report);
    sink.say(format!("wisegraph-lint: {repairs} incremental repairs verified"));

    sink.say(format!(
        "wisegraph-lint: {combos} model×strategy combinations verified, \
         {} error(s), {} warning(s)",
        sink.errors, sink.warnings
    ));

    if json {
        let doc = obj([
            ("tool", Json::Str("wisegraph-lint".into())),
            (
                "graph",
                obj([
                    ("vertices", Json::Num(g.num_vertices() as f64)),
                    ("edges", Json::Num(g.num_edges() as f64)),
                    ("edge_types", Json::Num(g.num_edge_types() as f64)),
                ]),
            ),
            ("combos", Json::Num(combos as f64)),
            ("errors", Json::Num(sink.errors as f64)),
            ("warnings", Json::Num(sink.warnings as f64)),
            ("diagnostics", Json::Arr(sink.records)),
        ]);
        println!("{}", doc.to_string_compact());
    }

    if sink.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
