//! The generic part of the benchmark: spans, statistics, the step loop
//! every workload runs under, and the result line the driver reads.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use wisegraph::obs::clock::{now_ns, Stopwatch};

use crate::host;

/// Engine worker threads (= `nproc` of the box the bounds were taken on).
pub const ENGINE_THREADS: usize = 2;
/// `peak_rss_mb` is read after this many timed steps (or at the end of a
/// shorter pass). Engine pools, tape pools and the plan cache all grow with
/// every step, so the high-water mark at exit rises with the number of steps
/// completed — with speed. A fixed amount of work makes it comparable.
const RSS_STEPS: usize = 16;

/// Sizes of one run. `full` is what `BENCHMARK.json` describes; `smoke`
/// only proves that every workload runs and prints every metric.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// RMAT vertices / edges of the forward, sampled, planning and sharded
    /// workloads (the AR analogue at full scale).
    pub vertices: usize,
    pub edges: usize,
    /// Seed vertices of one neighbour sample.
    pub sample_seeds: usize,
    /// Vertices of the labeled training graph (degree 14).
    pub train_vertices: usize,
    /// How often set-up is repeated; `setup_s` is the median.
    pub setup_reps: usize,
    /// Repetitions of each extra (†) measurement of the traced pass.
    pub extra_reps: usize,
    /// Stop after this many timed steps (smoke) instead of after `seconds`.
    pub max_steps: Option<usize>,
}

impl Scale {
    pub const FULL: Scale = Scale {
        vertices: 42_250,
        edges: 575_000,
        sample_seeds: 1000,
        train_vertices: 8_000,
        setup_reps: 3,
        extra_reps: 3,
        max_steps: None,
    };
    pub const SMOKE: Scale = Scale {
        vertices: 2_000,
        edges: 24_000,
        sample_seeds: 100,
        train_vertices: 500,
        setup_reps: 1,
        extra_reps: 1,
        max_steps: Some(1),
    };
}

/// What one child process was asked to do.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// One harness span: a timed call into a public function of one layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub step: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder. Off, `span` only calls through.
#[derive(Default)]
pub struct Tracer {
    on: Cell<bool>,
    step: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn set_on(&self, on: bool) {
        self.on.set(on);
    }

    pub fn is_on(&self) -> bool {
        self.on.get()
    }

    pub fn set_step(&self, step: u64) {
        self.step.set(step);
    }

    /// Times `f` as a child of the innermost open span.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on.get() {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_ns: now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                step: self.step.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let r = f();
        self.spans.borrow_mut()[id].end_ns = now_ns();
        self.open.borrow_mut().pop();
        r
    }

    /// Closes spans a panic left open, so later spans get the right parent.
    fn close_after_panic(&self) {
        let now = now_ns();
        for id in self.open.borrow_mut().drain(..) {
            self.spans.borrow_mut()[id].end_ns = now;
        }
    }

    /// Median duration (ms) of the spans called `name`, if any ran.
    pub fn median_ms(&self, name: &str) -> Option<f64> {
        let spans = self.spans.borrow();
        let d: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect();
        (!d.is_empty()).then(|| median(&d))
    }

    /// Per timed step, the summed duration (ms) of spans called `name`.
    pub fn step_sums_ms(&self, name: &str) -> Vec<f64> {
        let mut by_step: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.borrow().iter() {
            if s.name == name && s.step > 0 {
                *by_step.entry(s.step).or_default() += s.ms();
            }
        }
        by_step.into_values().collect()
    }

    /// Writes the spans and a per-name summary (count, median, self-time
    /// median = span minus its children) as JSON; returns the smallest share
    /// of a timed step that its case spans cover.
    fn write(&self, path: &std::path::Path, workload: &str) -> std::io::Result<f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let e = by_name.entry(&s.name).or_default();
            e.0.push(s.ms());
            e.1.push(s.ms() - child_ns[i] as f64 / 1e6);
        }
        let mut coverage = f64::INFINITY;
        for (i, s) in spans.iter().enumerate() {
            if s.name == "step" && s.end_ns > s.start_ns {
                coverage = coverage.min(child_ns[i] as f64 / (s.end_ns - s.start_ns) as f64);
            }
        }
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"min_step_coverage\":{coverage:?},\"summary\":{{"
        );
        for (i, (name, (total, own))) in by_name.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            out.push_str(&format!(
                "{sep}\"{name}\":{{\"count\":{},\"median_ms\":{:?},\"self_median_ms\":{:?}}}",
                total.len(),
                median(total),
                median(own)
            ));
        }
        out.push_str("},\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"step\":{}}}",
                s.name, s.start_ns, s.end_ns, s.step
            ));
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(coverage)
    }
}

pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(v: &[f64], pct: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest whole percentile with at least ten samples beyond it; the
/// median when the sample is too small to have such a tail.
pub fn tail_pct(samples: usize) -> f64 {
    if samples < 20 {
        return 50.0;
    }
    (100.0 * (1.0 - 10.0 / samples as f64)).floor().max(50.0)
}

/// Runs `f` `reps` times under a span called `name`; median in ms.
pub fn time_median<R>(tr: &Tracer, name: &str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let ms: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let sw = Stopwatch::start();
            std::hint::black_box(tr.span(name, &mut f));
            sw.elapsed_ns() as f64 / 1e6
        })
        .collect();
    median(&ms)
}

/// Metric name → value. Units come from `BENCHMARK.json`.
pub type Metrics = BTreeMap<String, f64>;

/// One case of a workload's fixed list.
pub struct Case {
    pub name: &'static str,
    /// Edges one execution of the case processes (for `edges_per_s`). Read
    /// after the warm-up step, so a workload may take it from its inputs.
    pub edges: usize,
    /// Per-layer metric that receives the case's median time, if the case
    /// is a single call into one layer.
    pub layer_ms: Option<String>,
}

/// What `finish` may use: the spans, the median time of each case, and
/// where to put metrics and operation counts.
pub struct Finish<'a> {
    pub tr: &'a Tracer,
    pub case_ms: &'a [f64],
    pub metrics: &'a mut Metrics,
    pub ops: &'a mut Ops,
}

impl Finish<'_> {
    pub fn set(&mut self, metric: impl Into<String>, value: f64) {
        self.metrics.insert(metric.into(), value);
    }

    /// Sets `metric` to the median of the spans called `span`, if any ran.
    pub fn set_from_span(&mut self, metric: impl Into<String>, span: &str) {
        if let Some(ms) = self.tr.median_ms(span) {
            self.set(metric, ms);
        }
    }
}

/// A workload: inputs made from the seed, a fixed list of cases, and the
/// output checks. Everything a case needs beyond one public call (or short
/// call chain) is prepared in `setup`.
pub trait Workload: Sized {
    /// Reference outputs the warm-up step is compared with. Computing it is
    /// the harness's own work and is not part of `setup_s`.
    type Oracle;

    /// Generates inputs, plans where the workload plans once, builds engines.
    fn setup(cfg: &Config, tr: &Tracer) -> Self;
    fn cases(&self) -> Vec<Case>;
    /// The timed part of one case execution. Keeps its output for `check`.
    fn run(&mut self, case: usize, step: u64, tr: &Tracer) -> Result<(), String>;
    /// Untimed: checks the output `run` kept. Step 0 is the warm-up step.
    fn check(&mut self, case: usize, step: u64, tr: &Tracer) -> Result<(), String>;
    /// Untimed hook after the last case of a step.
    fn end_step(&mut self, _step: u64) {}
    fn oracle(&self) -> Self::Oracle;
    /// Compares the warm-up step's outputs with the oracle.
    fn check_oracle(&self, oracle: &Self::Oracle) -> Result<(), String>;
    /// Per-layer metrics; when `cfg.trace`, also the extra (†) measurements.
    fn finish(&mut self, cfg: &Config, f: &mut Finish);
}

/// Operations attempted / failed: one operation is one case execution or
/// one output check that stands alone (oracle, replay).
#[derive(Default, Debug)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
    }
}

pub struct RunResult {
    pub ops: Ops,
    pub metrics: Metrics,
    /// Smallest share of a traced step covered by its case spans.
    pub step_coverage: Option<f64>,
}

/// Runs one case: the timed call (an `Err` or a panic fails it), then the
/// untimed output check. Returns the timed duration in ms.
fn run_case<W: Workload>(
    w: &mut W,
    case: &Case,
    idx: usize,
    step: u64,
    tr: &Tracer,
    ops: &mut Ops,
) -> f64 {
    let sw = Stopwatch::start();
    let ran = catch_unwind(AssertUnwindSafe(|| {
        tr.span(case.name, || w.run(idx, step, tr))
    }));
    let ms = sw.elapsed_ns() as f64 / 1e6;
    let outcome = match ran {
        Ok(Ok(())) => catch_unwind(AssertUnwindSafe(|| w.check(idx, step, tr)))
            .unwrap_or_else(|_| Err("output check panicked".into())),
        Ok(Err(e)) => Err(e),
        Err(_) => {
            tr.close_after_panic();
            Err("panicked".into())
        }
    };
    ops.record(&format!("{} step {step}", case.name), outcome);
    ms
}

/// Set-up (repeated), the timed pass, and the metrics of one run.
pub fn run<W: Workload>(cfg: &Config) -> RunResult {
    let tr = Tracer::default();
    tr.set_on(cfg.trace);
    let mut ops = Ops::default();
    let mut metrics = Metrics::new();

    // Set-up, `setup_reps` times from scratch; the last state is measured.
    let mut setup_s = Vec::new();
    let mut oracle: Option<W::Oracle> = None;
    let mut state: Option<W> = None;
    for _ in 0..cfg.scale.setup_reps {
        drop(state.take());
        tr.set_step(0);
        let sw = Stopwatch::start();
        let mut w = tr.span("setup", || W::setup(cfg, &tr));
        let cases = w.cases();
        for (i, c) in cases.iter().enumerate() {
            run_case(&mut w, c, i, 0, &tr, &mut ops);
        }
        w.end_step(0);
        let mut elapsed = sw.elapsed_seconds();
        let reference = oracle.get_or_insert_with(|| {
            let reference = w.oracle();
            host::reset_vm_hwm();
            reference
        });
        let sw = Stopwatch::start();
        ops.record("oracle check", w.check_oracle(reference));
        elapsed += sw.elapsed_seconds();
        setup_s.push(elapsed);
        state = Some(w);
    }
    drop(oracle); // free the reference outputs before the timed pass
    let mut w = state.expect("setup_reps >= 1");
    let cases = w.cases();

    // The timed pass. A traced run leaves every fourth step untraced, so the
    // tracing overhead is measured inside the same process and both kinds
    // of step see the same drift of the box.
    let mut plain_step_ms = Vec::new();
    let mut step_ms = Vec::new();
    let mut case_ms: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let pass = Stopwatch::start();
    let mut step = 0u64;
    loop {
        let elapsed = pass.elapsed_seconds();
        let enough = match cfg.scale.max_steps {
            Some(n) => step_ms.len() >= n,
            None => elapsed >= cfg.seconds && !step_ms.is_empty(),
        };
        if enough {
            break;
        }
        let plain = cfg.trace && step.is_multiple_of(4);
        tr.set_on(cfg.trace && !plain);
        step += 1;
        tr.set_step(step);
        let mut times = vec![0.0; cases.len()];
        tr.span("step", || {
            for (i, c) in cases.iter().enumerate() {
                times[i] = run_case(&mut w, c, i, step, &tr, &mut ops);
            }
            w.end_step(step);
        });
        let total: f64 = times.iter().sum();
        if !cfg.trace && step_ms.len() + 1 == RSS_STEPS {
            metrics.insert("peak_rss_mb".into(), host::vm_hwm_mib());
        }
        if plain {
            plain_step_ms.push(total);
        } else {
            step_ms.push(total);
            for (i, t) in times.iter().enumerate() {
                case_ms[i].push(*t);
            }
        }
    }
    tr.set_on(cfg.trace);
    tr.set_step(0);

    let case_median: Vec<f64> = case_ms.iter().map(|v| median(v)).collect();
    let p50 = median(&step_ms);
    if cfg.trace {
        for (c, ms) in cases.iter().zip(&case_median) {
            if let Some(key) = &c.layer_ms {
                metrics.insert(key.clone(), *ms);
            }
        }
        let pct = tail_pct(step_ms.len());
        metrics.insert("harness.step_samples".into(), step_ms.len() as f64);
        metrics.insert("harness.step_tail_pct".into(), pct);
        metrics.insert("harness.step_ms_tail".into(), percentile(&step_ms, pct));
        let overhead = if plain_step_ms.is_empty() {
            0.0
        } else {
            p50 / median(&plain_step_ms) - 1.0
        };
        metrics.insert("harness.trace_overhead_frac".into(), overhead);
        host::probes(&tr, cfg, &mut metrics);
    } else {
        let rates: Vec<f64> = cases
            .iter()
            .zip(&case_median)
            .map(|(c, ms)| c.edges as f64 / (ms / 1e3))
            .collect();
        let geomean = (rates.iter().map(|r| r.ln()).sum::<f64>() / rates.len() as f64).exp();
        metrics.insert("setup_s".into(), median(&setup_s));
        metrics.insert("step_ms_p50".into(), p50);
        metrics.insert("edges_per_s".into(), geomean);
    }
    w.finish(
        cfg,
        &mut Finish {
            tr: &tr,
            case_ms: &case_median,
            metrics: &mut metrics,
            ops: &mut ops,
        },
    );
    let mut step_coverage = None;
    if cfg.trace {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let path = std::path::Path::new(&dir)
            .join("perfbench")
            .join(format!("trace_{}.json", cfg.workload));
        match tr.write(&path, &cfg.workload) {
            Ok(c) => step_coverage = Some(c),
            Err(e) => ops.record("trace file", Err(format!("{}: {e}", path.display()))),
        }
    } else {
        metrics
            .entry("peak_rss_mb".into())
            .or_insert_with(host::vm_hwm_mib);
    }
    RunResult {
        ops,
        metrics,
        step_coverage,
    }
}
