//! `wisegraph-lint`: the pre-execution static verification gate.
//!
//! Runs every pass of `wisegraph-analysis` over every built-in model ×
//! candidate partition strategy on a synthetic RMAT graph:
//!
//! 1. the model DFG is verified (well-formedness + dimension inference);
//! 2. every repo rewrite (`cse`, `prune_dead`, each transformation
//!    candidate) is checked for interface preservation;
//! 3. every table from `enumerate_tables` is partitioned with the greedy
//!    partitioner and the resulting plan, compiled program, engine chunk
//!    mapping, and fused-access / workspace-lifetime verdicts
//!    (`R004`–`R005`) are verified for several thread counts;
//! 4. the span-instrumentation coverage of the execution entry points is
//!    checked against the shipped sources (`O001`), so `wisegraph-prof`'s
//!    timeline cannot silently lose its subjects;
//! 5. the cluster schedule phases and mailbox operations that feed the
//!    causal trace and critical-path attribution are likewise checked
//!    (`O002`);
//! 6. every fusion pattern the micro-kernel codegen can emit must have a
//!    registered interpreter-parity test in `tests/fused_parity.rs`
//!    (`K006`), so a pattern cannot land without its differential harness
//!    entry; per-combination fused plans are additionally coverage-checked
//!    by `verify_execution` (`K005`);
//! 7. incremental gTask repair after a canned delta stream must verify
//!    identically to a from-scratch partition of the live set (`C001`);
//! 8. every model is *executed* on real 2- and 4-device sharded clusters
//!    with the optimizer-selected placement schedule: shard tiling and
//!    exactly-once edge coverage (`S001`), collective exchange
//!    conservation (`S002`), placement/program compatibility of the
//!    selection (`S003`), and bit-identity of the assembled outputs
//!    against a plain single-engine run.
//!
//! Exits nonzero if any pass reports an error, printing each diagnostic;
//! `scripts/verify.sh` runs this after the test suite. With `--json`, all
//! human-readable output is replaced by a single machine-readable JSON
//! document on stdout with a stable field order.

use std::collections::HashMap;
use std::process::ExitCode;
use wisegraph::analysis::prelude::*;
use wisegraph::analysis::verify_execution;
use wisegraph::dfg::passes::{cse, prune_dead};
use wisegraph::dfg::transform;
use wisegraph::dfg::Binding;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::Graph;
use wisegraph::gtask::restriction::enumerate_tables;
use wisegraph::gtask::{partition, GraphDelta, IncrementalPlan};
use wisegraph::kernels::engine::Engine;
use wisegraph::kernels::micro::compile;
use wisegraph::models::ModelKind;
use wisegraph::tensor::{init, Tensor};

/// Thread counts the chunk-mapping pass is exercised with.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// `Exact(k)` batch sizes for table enumeration.
const BATCH_SIZES: [u64; 2] = [4, 32];

/// Feature dims for the lint models (matches `wisegraph-prof`).
const DIMS: (usize, usize) = (8, 6);

/// Collects diagnostics for both output formats: human lines as they
/// happen (unless `--json`), plus a structured record list rendered once
/// at the end.
struct Sink {
    json: bool,
    errors: usize,
    warnings: usize,
    records: Vec<(String, Diagnostic)>,
}

impl Sink {
    fn report(&mut self, ctx: &str, report: &Report) {
        for d in &report.diagnostics {
            if !self.json {
                println!("{ctx}: {d}");
            }
            self.records.push((ctx.to_string(), d.clone()));
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

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Every global any model layer reads; engines ignore unused entries.
/// Mirrors `wisegraph-prof`'s fixture so lint and prof run the same
/// workloads.
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

        // Pass 3: every candidate table × thread count.
        let indexing: Vec<_> = effective_indexing_attrs(&dfg).into_iter().collect();
        for table in enumerate_tables(&indexing, &BATCH_SIZES) {
            let plan = partition(&g, &table);
            for threads in THREAD_COUNTS {
                combos += 1;
                let report = verify_execution(&dfg, &g, &plan, threads);
                if !report.is_clean() || report.warning_count() > 0 {
                    sink.report(
                        &format!("{model:?} × [{table}] × {threads} threads"),
                        &report,
                    );
                }
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

    // Pass 6: every fusion pattern must register an interpreter-parity
    // test in the differential harness (K006).
    let mut registry_report = Report::new();
    registry_report.extend(verify_fused_parity_registry(std::path::Path::new(env!(
        "CARGO_MANIFEST_DIR"
    ))));
    sink.report("fused parity registry", &registry_report);
    sink.say(format!(
        "wisegraph-lint: {} fusion patterns checked against tests/fused_parity.rs",
        wisegraph::kernels::fused::FusedPattern::ALL.len()
    ));

    // Pass 7: incremental repair must verify against a from-scratch
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

    // Pass 8: sharded multi-device execution (S001–S003). Every model
    // runs on a real 2- and 4-device cluster with the optimizer-selected
    // placement; the shard must tile and cover exactly once (S001), the
    // collective exchange log must be conserved (S002), the selected
    // placement must be compatible (S003), and the assembled outputs must
    // be bit-identical to a plain single-engine run.
    let globals = globals_for(&g, DIMS.0, DIMS.1);
    let fabric = wisegraph::sim::Fabric::pcie4_quad();
    let mut sharded_runs = 0usize;
    for model in models {
        let dfg = model.layer_dfg(DIMS.0, DIMS.1);
        let Ok(program) = compile(&dfg, &g) else { continue };
        let plan = partition(
            &g,
            &wisegraph::gtask::PartitionTable::vertex_centric(),
        );
        let reference = Engine::new(2).execute(&dfg, &g, &plan, &globals);
        for devices in [2usize, 4] {
            sharded_runs += 1;
            let ctx = format!("sharded {model:?} × {devices} devices");
            let mut shard_report = Report::new();
            shard_report.extend(verify_shard_coverage(&g, &plan, devices));
            let cluster = wisegraph::kernels::ClusterEngine::new(devices, 2);
            match wisegraph::core::sharded::execute_sharded_layer(
                &cluster, &dfg, &g, &plan, &globals, &fabric, DIMS.0, DIMS.1, 0,
            ) {
                Ok((run, choice)) => {
                    shard_report.extend(verify_placement(
                        &program, &globals, choice.placement,
                    ));
                    shard_report.extend(verify_exchange(&run.exchange));
                    // Compute-then-reduce reorders the partial-aggregate
                    // sums (group order instead of worker order), so it is
                    // numerically close but not bit-identical to the plain
                    // engine; every other schedule must match exactly.
                    if choice.placement
                        != wisegraph::sim::PlacementKind::ComputeThenReduce
                    {
                        if let Ok(reference) = &reference {
                            let identical = reference.len() == run.outputs.len()
                                && reference
                                    .iter()
                                    .zip(run.outputs.iter())
                                    .all(|(a, b)| a.data() == b.data());
                            if !identical {
                                shard_report.push(Diagnostic::error(
                                    Code::ShardCoverage,
                                    Span::Global,
                                    "sharded outputs are not bit-identical to \
                                     the single-engine reference",
                                ));
                            }
                        }
                    }
                }
                Err(e) => shard_report.push(Diagnostic::error(
                    Code::PlacementIncompatible,
                    Span::Global,
                    format!("sharded execution failed: {e}"),
                )),
            }
            if !shard_report.is_clean() {
                sink.report(&ctx, &shard_report);
            }
        }
    }
    sink.say(format!(
        "wisegraph-lint: {sharded_runs} sharded cluster runs verified \
         (shard coverage, exchange conservation, placement selection)"
    ));

    sink.say(format!(
        "wisegraph-lint: {combos} model×strategy×threads combinations verified, \
         {} error(s), {} warning(s)",
        sink.errors, sink.warnings
    ));

    if json {
        // Stable field order: tool, graph, combos, errors, warnings,
        // diagnostics.
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str("  \"tool\": \"wisegraph-lint\",\n");
        out.push_str(&format!(
            "  \"graph\": {{\"vertices\": {}, \"edges\": {}, \"edge_types\": {}}},\n",
            g.num_vertices(),
            g.num_edges(),
            g.num_edge_types()
        ));
        out.push_str(&format!("  \"combos\": {combos},\n"));
        out.push_str(&format!("  \"errors\": {},\n", sink.errors));
        out.push_str(&format!("  \"warnings\": {},\n", sink.warnings));
        out.push_str("  \"diagnostics\": [");
        for (i, (ctx, d)) in sink.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"context\": \"{}\", ", esc(ctx)));
            out.push_str(&format!("\"severity\": \"{}\", ", d.severity));
            out.push_str(&format!("\"code\": \"{}\", ", d.code));
            out.push_str(&format!("\"span\": \"{}\", ", esc(&d.span.to_string())));
            out.push_str(&format!("\"message\": \"{}\", ", esc(&d.message)));
            match &d.suggestion {
                Some(s) => out.push_str(&format!("\"suggestion\": \"{}\"", esc(s))),
                None => out.push_str("\"suggestion\": null"),
            }
            out.push('}');
        }
        if !sink.records.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}");
        println!("{out}");
    }

    if sink.errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
