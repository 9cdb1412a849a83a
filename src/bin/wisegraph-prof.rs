//! `wisegraph-prof`: the workload profiler and counter-regression gate.
//!
//! Runs one layer of each built-in model (GCN, RGCN, GAT, SAGE) under
//! every partition table on a fixed synthetic RMAT graph,
//! with full observability enabled, and emits:
//!
//! * `results/prof_<model>.json` — the deterministic work/resource
//!   counters of that model's runs (`wisegraph-obs` metrics JSON);
//! * `results/prof_trace.json` — the merged span timeline in Chrome
//!   trace-event format (open in `chrome://tracing` or Perfetto);
//! * a per-gTask workload-skew table on stdout — the paper's Figure 7/15
//!   story of how each table reshapes where the edges land — with the
//!   per-worker edge skew the engine's dealing left of it;
//! * the content-addressed [`PlanCache`]'s Resource-class hit/miss/
//!   hit-rate counters of one cold and one warm planning pass (partition +
//!   transform + compile) per model, under `planning.<model>.` —
//!   deterministic, so the baseline gate holds the warm path to a 100% hit
//!   rate;
//! * a sharded multi-device section: per model, the
//!   vertex-centric plan runs on a [`SHARD_DEVICES`]-device
//!   [`ClusterEngine`] under every compatible placement schedule; the
//!   per-device work counters and `comm.*` exchange totals land under
//!   `sharded.<model>.<placement>.`, stdout gets a device-skew /
//!   comm-volume table (tensor parallelism balances work where the halo
//!   schedules inherit the shard's edge imbalance) and an
//!   optimizer-selected-vs-data-parallel speedup table (the selection is
//!   asserted never slower).
//!
//! * a critical-path attribution section: per model, the
//!   vertex-centric plan runs at 2 and 4 devices under every compatible
//!   placement, and the replay (`obs::critical::analyze`) prices each
//!   run's device timelines against the messages of its exchange log:
//!   a critical path, a per-device busy/exchange/idle breakdown, a
//!   straggler ranking, and per-layer overlap headroom; the Work-class
//!   part lands in the baseline under
//!   `critical.<model>.<placement>.d<devices>.`, the tables print, and
//!   the deterministic report is written to `results/prof_critical.json`.
//!
//! Nothing here measures wall-clock time (`BENCHMARK.json` /
//! `examples/perfbench` does, at a size where it means something), so
//! every tracked file this tool regenerates is byte-stable.
//!
//! Modes:
//!
//! * `--check` — regression gate for `scripts/verify.sh`: re-runs the
//!   suite and asserts (a) counter snapshots are bit-identical across
//!   two consecutive runs, (b) `Work`-class counters are bit-identical
//!   across 1/2/4 engine threads, and (c) counters match
//!   `results/prof_baseline.json` within the per-class tolerance bands
//!   (`Work` exact, `Resource` within [`RESOURCE_BAND`]), with no counter
//!   recorded on one side only. Each drift names its counter's class and
//!   the FAIL line counts drifts per class, so a Resource-only drift (a
//!   pool or fused-dispatch change) reads apart from a Work one;
//! * `--write-baseline` — rewrites `results/prof_baseline.json` from the
//!   current run (commit the result deliberately).

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;
use wisegraph::cache::PlanCache;
use wisegraph::core::sharded::{device_work_skew, select_placement};
use wisegraph::kernels::cluster::compatible_placements;
use wisegraph::kernels::ClusterEngine;
use wisegraph::sim::{Fabric, PlacementKind};
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::Graph;
use wisegraph::gtask::{partition, PartitionPlan, PartitionTable};
use wisegraph::kernels::engine::Engine;
use wisegraph::kernels::micro::compile;
use wisegraph::models::ModelKind;
use wisegraph::obs::json::Json;
use wisegraph::obs::{
    capture, counters_from_json, counters_to_json, keys, trace_to_chrome_json,
    AttributionReport, Class, Counters,
};
use wisegraph::tensor::{init, Tensor};

/// Engine worker-slot count for the emitted artifacts and the baseline.
const PROFILE_THREADS: usize = 2;

/// Thread counts the `Work`-invariance gate runs at.
const CHECK_THREADS: [usize; 3] = [1, 2, 4];

/// Relative tolerance band for `Resource`-class counters in `--check`.
/// They are deterministic at a fixed thread count, but the band keeps the
/// gate from blocking legitimate pool-behavior changes on noise-free but
/// incidental values (e.g. one extra warm-up buffer).
const RESOURCE_BAND: f64 = 0.25;

/// Layer feature sizes (input, output) — same as the verifier's clean sweep
/// in `tests/analysis_diagnostics.rs`.
const DIMS: (usize, usize) = (8, 6);

/// Simulated device count for the sharded multi-device section.
const SHARD_DEVICES: usize = 4;

/// Device counts the critical-path attribution section runs at.
const CRITICAL_DEVICES: [usize; 2] = [2, 4];

fn models() -> [(ModelKind, &'static str); 4] {
    [
        (ModelKind::Gcn, "gcn"),
        (ModelKind::Rgcn, "rgcn"),
        (ModelKind::Gat, "gat"),
        (ModelKind::Sage, "sage"),
    ]
}

fn tables() -> Vec<(&'static str, PartitionTable)> {
    vec![
        ("vertex_centric", PartitionTable::vertex_centric()),
        ("edge_batch_64", PartitionTable::edge_batch(64)),
        ("two_d_8", PartitionTable::two_d(8)),
        ("src_batch_per_type_8", PartitionTable::src_batch_per_type(8)),
    ]
}

fn profile_graph() -> Graph {
    rmat(&RmatParams {
        num_vertices: 300,
        num_edges: 2400,
        a: 0.57,
        b: 0.19,
        c: 0.19,
        num_edge_types: 4,
        seed: 7,
    })
}

/// Every global any model layer reads; engines ignore unused entries.
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

/// One row of the workload-skew table.
struct SkewRow {
    model: &'static str,
    table: &'static str,
    tasks: usize,
    min_edges: usize,
    median_edges: usize,
    max_edges: usize,
    /// Edges of the busiest engine worker over the mean of all slots
    /// (`engine.worker_edge_skew_permille`): what the dealing made of the
    /// task-size skew to its left.
    worker_skew_permille: u64,
}

impl SkewRow {
    fn of(
        model: &'static str,
        table: &'static str,
        plan: &PartitionPlan,
        worker_skew_permille: u64,
    ) -> Self {
        let mut sizes: Vec<usize> =
            plan.tasks.iter().map(|t| t.num_edges()).collect();
        sizes.sort_unstable();
        SkewRow {
            model,
            table,
            tasks: sizes.len(),
            min_edges: sizes.first().copied().unwrap_or(0),
            median_edges: sizes.get(sizes.len() / 2).copied().unwrap_or(0),
            max_edges: sizes.last().copied().unwrap_or(0),
            worker_skew_permille,
        }
    }

    /// Max-over-median task size: 1.0 is perfectly balanced.
    fn skew(&self) -> f64 {
        self.max_edges as f64 / self.median_edges.max(1) as f64
    }
}

/// One sharded cluster run of the multi-device section: a model at
/// [`SHARD_DEVICES`] devices under one placement schedule.
struct ShardedRow {
    model: &'static str,
    placement: PlacementKind,
    /// Max-over-mean per-device kernel FLOPs (1.0 = perfectly balanced).
    device_skew: f64,
    /// Bytes actually moved through the collectives.
    comm_bytes: u64,
    /// Fabric-priced communication time of the placement's predicted
    /// volume (what the optimizer minimizes).
    comm_time: f64,
    /// Whether the joint optimizer selected this schedule.
    selected: bool,
}

/// One critical-path attribution run: a model's vertex-centric plan on a
/// cluster at one device count under one placement schedule.
struct CriticalRow {
    model: &'static str,
    placement: PlacementKind,
    devices: usize,
    report: AttributionReport,
}

/// Everything one suite run produces (besides the captured trace).
struct SuiteRun {
    /// Counters per model slug (keys prefixed `<table>.`).
    per_model: BTreeMap<&'static str, Counters>,
    /// All counters, keys prefixed `<model>.<table>.`.
    all: Counters,
    skew: Vec<SkewRow>,
    sharded: Vec<ShardedRow>,
    critical: Vec<CriticalRow>,
}

/// Runs every model × table once with `threads` worker slots.
fn run_suite(threads: usize) -> SuiteRun {
    let g = profile_graph();
    let (fi, fo) = DIMS;
    let globals = globals_for(&g, fi, fo);
    let mut run = SuiteRun {
        per_model: BTreeMap::new(),
        all: Counters::new(),
        skew: Vec::new(),
        sharded: Vec::new(),
        critical: Vec::new(),
    };
    for (model, slug) in models() {
        let dfg = model.layer_dfg(fi, fo);
        for (tname, table) in tables() {
            let plan = partition(&g, &table);
            let mut combo = Counters::new();
            plan.record_counters(&mut combo);
            let engine = Engine::new(threads);
            engine
                .execute(&dfg, &g, &plan, &globals)
                .expect("profiled combination executes");
            combo.merge(&engine.stats());
            run.per_model
                .entry(slug)
                .or_default()
                .merge_prefixed(tname, &combo);
            run.all.merge_prefixed(&format!("{slug}.{tname}"), &combo);
            let worker_skew = combo.count(keys::ENGINE_WORKER_EDGE_SKEW);
            run.skew.push(SkewRow::of(slug, tname, &plan, worker_skew));
        }
    }

    // Planning cold/warm: per model, run the three cached planning stages
    // (partition over every table, transform, compile) against a fresh
    // cache and then again against the now-warm cache, and record the
    // cache's hit/miss counters.
    for (model, slug) in models() {
        let dfg = model.layer_dfg(fi, fo);
        let plan_all = |cache: &mut PlanCache| {
            for (_, table) in tables() {
                let _ = cache.partition_cached(&g, &table);
            }
            let t = cache.transform_cached(&g, &dfg);
            let _ = cache.compile_cached(&g, &t);
        };
        let mut cache = PlanCache::new();
        plan_all(&mut cache); // cold: every lookup misses and stores
        plan_all(&mut cache); // warm: every lookup hits
        let mut c = Counters::new();
        cache.record_counters(&mut c);
        run.all.merge_prefixed(&format!("planning.{slug}"), &c);
    }

    // Sharded multi-device section: per model, the vertex-centric plan
    // executes on a
    // [`SHARD_DEVICES`]-device cluster under every placement schedule the
    // compiled program supports. Each run uses a fresh [`ClusterEngine`],
    // so the merged counters — per-device `device.NN.*` work plus the
    // `comm.*` exchange totals — describe exactly one execution under
    // `sharded.<slug>.<placement>.`. The comm/work keys are Work-class
    // pure functions of (graph, plan, device count, placement): gate (a)
    // holds them bit-exactly and gate (b)'s thread sweep leaves them
    // untouched by construction.
    let fabric = Fabric::pcie4_quad();
    for (model, slug) in models() {
        let dfg = model.layer_dfg(fi, fo);
        let program = compile(&dfg, &g).expect("profiled model compiles");
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let choice =
            select_placement(&program, &g, &globals, SHARD_DEVICES, &fabric, fi, fo);
        for placement in compatible_placements(&program, &g, &globals) {
            let cluster = ClusterEngine::new(SHARD_DEVICES, threads);
            let crun = cluster
                .execute_program(&program, &dfg, &g, &plan, &globals, placement)
                .expect("sharded combination executes");
            run.all.merge_prefixed(
                &format!("sharded.{slug}.{}", placement.name()),
                &cluster.stats(),
            );
            let comm_time = choice
                .candidates
                .iter()
                .find(|(p, _)| *p == placement)
                .map(|(_, t)| *t)
                .unwrap_or(f64::INFINITY);
            run.sharded.push(ShardedRow {
                model: slug,
                placement,
                device_skew: device_work_skew(&crun.per_device),
                comm_bytes: crun.exchange.bytes_sent(),
                comm_time,
                selected: placement == choice.placement,
            });
        }
    }

    // Critical-path attribution section: per model, the vertex-centric
    // plan runs at each [`CRITICAL_DEVICES`] count under every compatible
    // placement, and the replay ([`ClusterRun::attribution`]) prices the
    // device timelines against the exchange log's messages: a critical
    // path, busy/exchange/idle breakdown, straggler ranking, and
    // per-layer overlap headroom. Only the Work-class part of the report
    // lands in `run.all` (under `critical.<slug>.<placement>.d<devices>.`):
    // those keys are pure functions of (graph, plan, placement, device
    // count), so all three gates hold them bit-exactly, while the
    // wall-clock overlay stays out of the rerun-identity comparison.
    for (model, slug) in models() {
        let dfg = model.layer_dfg(fi, fo);
        let program = compile(&dfg, &g).expect("profiled model compiles");
        let plan = partition(&g, &PartitionTable::vertex_centric());
        for devices in CRITICAL_DEVICES {
            for placement in compatible_placements(&program, &g, &globals) {
                let cluster = ClusterEngine::new(devices, threads);
                let crun = cluster
                    .execute_program(&program, &dfg, &g, &plan, &globals, placement)
                    .expect("critical-path combination executes");
                let report = crun.attribution().expect("attribution analyzes");
                let mut c = Counters::new();
                report.record_counters(&mut c);
                run.all.merge_prefixed(
                    &format!("critical.{slug}.{}.d{devices}", placement.name()),
                    &c.only(&[Class::Work]),
                );
                run.critical.push(CriticalRow {
                    model: slug,
                    placement,
                    devices,
                    report,
                });
            }
        }
    }
    run
}

/// Serializes the critical-path rows as a deterministic JSON document:
/// each row embeds the report's Work-class view only, so regenerating the
/// file on another machine (or thread count) is byte-identical.
fn critical_to_json(rows: &[CriticalRow]) -> String {
    let rows_json: Vec<Json> = rows
        .iter()
        .map(|r| {
            let mut m = std::collections::BTreeMap::new();
            m.insert("model".to_string(), Json::Str(r.model.to_string()));
            m.insert(
                "placement".to_string(),
                Json::Str(r.placement.name().to_string()),
            );
            m.insert("devices".to_string(), Json::Num(r.devices as f64));
            let report = wisegraph::obs::json::parse(&r.report.work_json())
                .expect("work_json round-trips");
            m.insert("report".to_string(), report);
            Json::Obj(m)
        })
        .collect();
    let mut doc = std::collections::BTreeMap::new();
    doc.insert(
        "schema".to_string(),
        Json::Str("wisegraph-prof-critical/v1".to_string()),
    );
    doc.insert("rows".to_string(), Json::Arr(rows_json));
    Json::Obj(doc).to_string_compact()
}

/// Compares a run's counters against the committed baseline with
/// per-class tolerance bands, in both directions: a counter on one side
/// only is a violation too (Timing counters are never compared). Returns
/// the violations, each with the class of its counter.
fn check_against_baseline(current: &Counters, baseline: &Counters) -> Vec<(Class, String)> {
    let mut errs = Vec::new();
    for (name, got) in current.iter() {
        if got.class != Class::Timing && baseline.get(name).is_none() {
            let class = got.class;
            errs.push((class, format!("`{name}` was recorded but is not in the baseline ({class:?})")));
        }
    }
    for (name, want) in baseline.iter() {
        let Some(got) = current.get(name) else {
            let class = want.class;
            errs.push((class, format!("`{name}` is in the baseline but was not recorded ({class:?})")));
            continue;
        };
        let (w, g) = (want.value.as_f64(), got.value.as_f64());
        match want.class {
            Class::Work => {
                // Work counters are pure functions of the inputs: exact.
                if w.to_bits() != g.to_bits() {
                    errs.push((Class::Work, format!("`{name}` (Work): baseline {w}, got {g}")));
                }
            }
            Class::Resource => {
                let band = RESOURCE_BAND * w.abs().max(1.0);
                if (g - w).abs() > band {
                    errs.push((
                        Class::Resource,
                        format!(
                            "`{name}` (Resource): baseline {w}, got {g} \
                             (band ±{band:.1})"
                        ),
                    ));
                }
            }
            Class::Timing => {}
        }
    }
    errs
}

/// Violation counts per counter class, for the FAIL line: `Work 0,
/// Resource 215`.
fn counts_by_class(errs: &[(Class, String)]) -> String {
    [Class::Work, Class::Resource, Class::Timing]
        .iter()
        .map(|c| (c, errs.iter().filter(|(k, _)| k == c).count()))
        .filter(|&(c, n)| n > 0 || *c != Class::Timing)
        .map(|(c, n)| format!("{c:?} {n}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn write(path: &Path, contents: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(path, contents)
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wisegraph-prof: wrote {}", path.display());
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    if let Some(a) = args.iter().find(|a| *a != "--check" && *a != "--write-baseline") {
        eprintln!("wisegraph-prof: unknown argument {a}");
        eprintln!("usage: wisegraph-prof [--check] [--write-baseline]");
        return ExitCode::FAILURE;
    }
    let results = Path::new("results");

    // The profiled run: counters + spans captured together.
    let (run, trace) = capture(|| run_suite(PROFILE_THREADS));
    if let Err(e) = trace.check_nesting() {
        eprintln!("wisegraph-prof: ill-nested trace: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wisegraph-prof: {} combinations, {} span events, {} counters",
        run.skew.len(),
        trace.sorted_events().len(),
        run.all.len()
    );

    // Workload-skew table (the Figure 7/15 story in numbers).
    println!(
        "\n| model | table | gTasks | min | median | max | skew | worker skew (T={PROFILE_THREADS}) |"
    );
    println!("|---|---|---|---|---|---|---|---|");
    for r in &run.skew {
        println!(
            "| {} | {} | {} | {} | {} | {} | {:.2} | {:.3} |",
            r.model,
            r.table,
            r.tasks,
            r.min_edges,
            r.median_edges,
            r.max_edges,
            r.skew(),
            r.worker_skew_permille as f64 / 1000.0
        );
    }
    println!();

    // Sharded multi-device tables: per-device work skew and real exchanged
    // bytes for every placement a model supports at SHARD_DEVICES devices,
    // then the optimizer's selection against the always-data-parallel
    // default. Tensor parallelism replicates every vertex's row work and
    // splits columns, so its device skew sits at 1.00 while the halo
    // schedules inherit the shard's edge imbalance.
    println!(
        "| model | placement | device skew (max/mean) | comm bytes | comm time (µs) | selected |"
    );
    println!("|---|---|---|---|---|---|");
    for r in &run.sharded {
        println!(
            "| {} | {} | {:.2} | {} | {:.2} | {} |",
            r.model,
            r.placement.name(),
            r.device_skew,
            r.comm_bytes,
            r.comm_time * 1e6,
            if r.selected { "yes" } else { "" }
        );
    }
    println!();
    println!("| model | selected placement | selected comm (µs) | data-parallel comm (µs) | speedup |");
    println!("|---|---|---|---|---|");
    let mut worst_select_speedup = f64::INFINITY;
    for (_, slug) in models() {
        let Some(sel) = run.sharded.iter().find(|r| r.model == slug && r.selected)
        else {
            continue;
        };
        let Some(dp) = run
            .sharded
            .iter()
            .find(|r| r.model == slug && r.placement == PlacementKind::DataParallel)
        else {
            continue;
        };
        let speedup = dp.comm_time / sel.comm_time.max(f64::MIN_POSITIVE);
        worst_select_speedup = worst_select_speedup.min(speedup);
        println!(
            "| {} | {} | {:.2} | {:.2} | {:.2}x |",
            slug,
            sel.placement.name(),
            sel.comm_time * 1e6,
            dp.comm_time * 1e6,
            speedup
        );
    }
    if worst_select_speedup.is_finite() {
        println!(
            "\nwisegraph-prof: optimizer-selected placement is never slower than \
             data-parallel (worst speedup {worst_select_speedup:.2}x)\n"
        );
        // The selector minimizes over a candidate set that contains
        // data-parallel, so this cannot regress silently.
        assert!(
            worst_select_speedup >= 1.0,
            "selected placement slower than always-data-parallel"
        );
    }

    // Critical-path attribution tables. The percentages are logical
    // fractions of the makespan — deterministic, not wall clock — and the
    // headroom column is the idle a posted-early send could have reclaimed
    // (bounded by the sender's prior compute).
    println!(
        "| model | placement | devices | critical len | steps | busy % | exch % | idle % | straggler | headroom |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    for r in &run.critical {
        let d = r.report.devices.len();
        let mut busy = 0.0;
        let mut exch = 0.0;
        let mut idle = 0.0;
        for i in 0..d {
            let (b, e, w) = r.report.fractions(i);
            busy += b;
            exch += e;
            idle += w;
        }
        let n = d.max(1) as f64;
        println!(
            "| {} | {} | {} | {} | {} | {:.1} | {:.1} | {:.1} | {} | {} |",
            r.model,
            r.placement.name(),
            r.devices,
            r.report.makespan,
            r.report.critical_path.len(),
            100.0 * busy / n,
            100.0 * exch / n,
            100.0 * idle / n,
            r.report.straggler(),
            r.report.headroom_total(),
        );
    }
    println!();
    println!("| model | placement | device | busy | exchange | idle wait | finish |");
    println!("|---|---|---|---|---|---|---|");
    for r in &run.critical {
        if r.devices != SHARD_DEVICES {
            continue;
        }
        for a in &r.report.devices {
            println!(
                "| {} | {} | {} | {} | {} | {} | {} |",
                r.model,
                r.placement.name(),
                a.device,
                a.busy,
                a.exchange,
                a.idle_wait,
                a.finish,
            );
        }
    }
    println!();
    write(
        &results.join("prof_critical.json"),
        &critical_to_json(&run.critical),
    );

    for (slug, c) in &run.per_model {
        write(&results.join(format!("prof_{slug}.json")), &counters_to_json(c));
    }
    write(&results.join("prof_trace.json"), &trace_to_chrome_json(&trace));

    if write_baseline {
        write(
            &results.join("prof_baseline.json"),
            &counters_to_json(&run.all),
        );
    }

    if !check {
        return ExitCode::SUCCESS;
    }

    // Gate (a): two consecutive runs produce bit-identical counters.
    let (rerun, _) = capture(|| run_suite(PROFILE_THREADS));
    if counters_to_json(&rerun.all) != counters_to_json(&run.all) {
        eprintln!(
            "wisegraph-prof: FAIL — counter snapshots differ between two \
             consecutive runs"
        );
        return ExitCode::FAILURE;
    }
    println!("wisegraph-prof: run-to-run counters bit-identical");

    // Gate (b): Work counters are invariant across thread counts.
    let work_views: Vec<String> = CHECK_THREADS
        .iter()
        .map(|&t| {
            let (r, _) = capture(|| run_suite(t));
            counters_to_json(&r.all.only(&[Class::Work]))
        })
        .collect();
    if work_views.iter().any(|v| v != &work_views[0]) {
        eprintln!(
            "wisegraph-prof: FAIL — Work-class counters vary across \
             {CHECK_THREADS:?} threads"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "wisegraph-prof: Work counters bit-identical across {CHECK_THREADS:?} threads"
    );

    // Gate (c): tolerance bands against the committed baseline.
    let baseline_path = results.join("prof_baseline.json");
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!(
                "wisegraph-prof: FAIL — cannot read {} ({e}); run \
                 `wisegraph-prof --write-baseline` and commit the result",
                baseline_path.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let baseline = match counters_from_json(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("wisegraph-prof: FAIL — malformed baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let errs = check_against_baseline(&run.all, &baseline);
    if !errs.is_empty() {
        for (_, e) in &errs {
            eprintln!("wisegraph-prof: baseline drift: {e}");
        }
        eprintln!(
            "wisegraph-prof: FAIL — {} counter(s) outside tolerance ({}); if \
             the change is intended, rerun with --write-baseline and commit",
            errs.len(),
            counts_by_class(&errs)
        );
        return ExitCode::FAILURE;
    }
    println!(
        "wisegraph-prof: {} baseline counters within tolerance — PASS",
        baseline.len()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_check_flags_a_counter_on_either_side_only() {
        let mut shared = Counters::new();
        shared.add_class("kernel.edges", 7, Class::Work);
        shared.add_class("pool.buffers_reused", 3, Class::Resource);
        let mut extra = shared.clone();
        extra.add_class("kernel.flops", 5, Class::Work);
        assert!(check_against_baseline(&shared, &shared).is_empty());
        let recorded_only = check_against_baseline(&extra, &shared);
        assert_eq!(recorded_only.len(), 1, "{recorded_only:?}");
        assert_eq!(recorded_only[0].0, Class::Work);
        assert!(recorded_only[0].1.contains("`kernel.flops` was recorded"));
        assert!(recorded_only[0].1.ends_with("(Work)"), "{recorded_only:?}");
        let baseline_only = check_against_baseline(&shared, &extra);
        assert_eq!(baseline_only.len(), 1, "{baseline_only:?}");
        assert!(baseline_only[0].1.contains("`kernel.flops` is in the baseline"));
        assert!(baseline_only[0].1.ends_with("(Work)"), "{baseline_only:?}");
        // The FAIL line counts violations per class.
        let mut drifted = shared.clone();
        drifted.add_class("pool.buffers_reused", 100, Class::Resource);
        let mixed = check_against_baseline(&drifted, &extra);
        assert_eq!(counts_by_class(&mixed), "Work 1, Resource 1", "{mixed:?}");
        // Timing counters are never compared.
        let mut timed = shared.clone();
        timed.set_gauge("wall.busy_ns", 1.0, Class::Timing);
        assert!(check_against_baseline(&timed, &shared).is_empty());
    }
}
