//! `perfbench`: the repo's benchmark. Five named workloads, the same
//! end-to-end metrics on each, and a traced per-crate breakdown, all taken
//! from outside by timing calls into public functions. `BENCHMARK.json` at
//! the repo root names the workloads, metrics, units and bounds; this
//! harness reads them from there. See `README.md` beside this file.
//!
//! ```text
//! cargo run --release --offline --example perfbench -- --all [--seed N]
//! cargo run --release --offline --example perfbench -- --repeat 3 --check [--seed N]
//! cargo run --release --offline --example perfbench -- --smoke
//! cargo run --release --offline --example perfbench -- \
//!     --workload fwd_full --seed 1 --seconds 18 --trace 0      (one run, as the driver makes it)
//! ```

mod fwd_full;
mod harness;
mod host;
mod inputs;
mod plan_full;
mod sampled_stream;
mod sharded_d2;
mod train_tape;

use std::collections::{BTreeMap, BTreeSet};
use std::process::{Command, ExitCode};

use harness::{median, Config, Metrics, RunResult, Scale};
use wisegraph::obs::json::{parse, Json};

/// Value column of a per-layer metric the workload does not exercise.
const NOT_EXERCISED: &str = "-";

/// One metric as `BENCHMARK.json` declares it.
struct MetricSpec {
    name: String,
    unit: String,
    higher_is_better: bool,
    /// Share of the median by which an end-to-end metric may get worse.
    bound: f64,
}

struct Spec {
    run_seconds: f64,
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn load_spec() -> Result<Spec, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let doc = parse(&text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json: no `{key}` list"))
    };
    let text_of = |j: &Json, key: &str| {
        j.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("BENCHMARK.json: entry without `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|j| {
                Ok(MetricSpec {
                    name: text_of(j, "name")?,
                    unit: text_of(j, "unit")?,
                    higher_is_better: text_of(j, "better")? == "higher",
                    bound: j.get("bound").and_then(Json::as_num).unwrap_or(0.0),
                })
            })
            .collect()
    };
    Ok(Spec {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_num)
            .ok_or("BENCHMARK.json: no `run_seconds`")?,
        workloads: list("workloads")?
            .iter()
            .map(|j| text_of(j, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

fn run_workload(cfg: &Config) -> Option<RunResult> {
    Some(match cfg.workload.as_str() {
        "fwd_full" => harness::run::<fwd_full::FwdFull>(cfg),
        "sampled_stream" => harness::run::<sampled_stream::SampledStream>(cfg),
        "plan_full" => harness::run::<plan_full::PlanFull>(cfg),
        "sharded_d2" => harness::run::<sharded_d2::ShardedD2>(cfg),
        "train_tape" => harness::run::<train_tape::TrainTape>(cfg),
        _ => return None,
    })
}

/// One measured run in this process: every metric by name with its unit,
/// then the result line the driver reads. A run that measured is `Ok(true)`
/// even when operations failed: the result line says so.
fn measure(cfg: &Config, spec: &Spec) -> Result<bool, String> {
    let mut result = run_workload(cfg).ok_or_else(|| {
        format!(
            "unknown workload `{}`; BENCHMARK.json names {:?}",
            cfg.workload, spec.workloads
        )
    })?;
    let declared = if cfg.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for name in result.metrics.keys() {
        if !declared.iter().any(|m| &m.name == name) {
            result.ops.record(
                "metric table",
                Err(format!("`{name}` is printed but not in BENCHMARK.json")),
            );
        }
    }
    let mut fields = Vec::new();
    for m in declared {
        let measured = result.metrics.get(&m.name).copied();
        match measured {
            Some(v) if v.is_finite() => {
                println!("{:<16} {:<52} {v:>16.4} {}", cfg.workload, m.name, m.unit)
            }
            Some(v) => result
                .ops
                .record("metric table", Err(format!("`{}` is {v}", m.name))),
            // A layer this workload does not exercise reads 0 on the result line.
            None if cfg.trace => println!(
                "{:<16} {:<52} {:>16} {}",
                cfg.workload, m.name, NOT_EXERCISED, m.unit
            ),
            None => result.ops.record(
                "metric table",
                Err(format!("`{}` was not measured", m.name)),
            ),
        }
        let value = measured.filter(|v| v.is_finite()).unwrap_or(0.0);
        fields.push(format!(
            "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            m.name, m.unit
        ));
    }
    if let Some(c) = result.step_coverage {
        println!(
            "{:<16} case spans cover at least {:.1} % of every traced step",
            cfg.workload,
            100.0 * c
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.ops.failed == 0,
        result.ops.attempted,
        result.ops.failed,
        fields.join(",")
    );
    Ok(true)
}

/// What a child run printed: its metric lines, and the result line parsed.
struct Report {
    text: Vec<String>,
    correct: bool,
    attempted: u64,
    metrics: Metrics,
}

impl Report {
    /// Metrics the child measured, as opposed to layers it does not
    /// exercise, which read 0 on the result line.
    fn measured(&self) -> impl Iterator<Item = &str> {
        self.text.iter().filter_map(|l| {
            let mut columns = l.split_whitespace().skip(1);
            let (name, value) = (columns.next()?, columns.next()?);
            (value != NOT_EXERCISED).then_some(name)
        })
    }
}

/// Runs one workload in a child process and waits for it.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut text: Vec<String> = stdout.lines().map(str::to_string).collect();
    let doc = parse(&text.pop().unwrap_or_default())
        .map_err(|e| format!("{workload}: no result line ({e})"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or(format!("{workload}: result line lacks `metrics`"))?
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("value").and_then(Json::as_num).unwrap_or(f64::NAN),
            )
        })
        .collect();
    Ok(Report {
        text,
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: doc.get("attempted").and_then(Json::as_num).unwrap_or(0.0) as u64,
        metrics,
    })
}

/// `--all`: every workload in its own child, untraced then traced. The
/// children print every metric by name with its unit.
fn all(spec: &Spec, seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    for w in &spec.workloads {
        for trace in [false, true] {
            let r = child(w, seed, seconds, trace, false)?;
            println!("{}", r.text.join("\n"));
            println!("{w:<16} {} operations, correct {}", r.attempted, r.correct);
            ok &= r.correct;
        }
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
        let trace = std::fs::read_to_string(format!("{dir}/perfbench/trace_{w}.json"))
            .map_err(|e| e.to_string())?;
        ok &= parse(&trace)?
            .get("min_step_coverage")
            .and_then(Json::as_num)
            .is_some_and(|c| c >= 0.9);
    }
    Ok(ok)
}

/// `--repeat n --check`: two sets of `n` untraced runs per workload with
/// the same seeds; fails when the medians of the two sets differ by more
/// than a metric's own bound.
fn repeat_check(spec: &Spec, seed: u64, seconds: f64, n: usize) -> Result<bool, String> {
    let mut ok = true;
    println!("host.loadavg_1m {:.2} before the first set (a busy box, not the code, may explain a disagreement)", host::loadavg_1m());
    for w in &spec.workloads {
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = Default::default();
        for set in &mut sets {
            for i in 0..n {
                let r = child(w, seed + i as u64, seconds, false, false)?;
                ok &= r.correct;
                for m in &spec.end_to_end {
                    set.entry(&m.name)
                        .or_default()
                        .push(r.metrics.get(&m.name).copied().unwrap_or(f64::NAN));
                }
            }
        }
        for m in &spec.end_to_end {
            let (a, b) = (
                median(&sets[0][m.name.as_str()]),
                median(&sets[1][m.name.as_str()]),
            );
            let worse = if m.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            let agree = worse.abs() <= m.bound;
            ok &= agree;
            println!(
                "{w:<16} {:<14} set A {:?} median {a:.4} | set B {:?} median {b:.4} {} | {:+.1} % (bound {:.0} %) {}",
                m.name,
                sets[0][m.name.as_str()],
                sets[1][m.name.as_str()],
                m.unit,
                100.0 * worse,
                100.0 * m.bound,
                if agree { "ok" } else { "DISAGREE" }
            );
        }
        println!("host.loadavg_1m {:.2} after {w}", host::loadavg_1m());
    }
    Ok(ok)
}

/// `--smoke`: every workload once at toy size, untraced and traced; fails
/// when the metrics printed and the metrics `BENCHMARK.json` names differ.
fn smoke(spec: &Spec) -> Result<bool, String> {
    let mut ok = true;
    let mut layers_seen = BTreeSet::new();
    for w in &spec.workloads {
        let plain = child(w, 1, 0.0, false, true)?;
        ok &= plain.correct;
        for m in &spec.end_to_end {
            if !plain.metrics.get(&m.name).is_some_and(|v| *v > 0.0) {
                println!("smoke: {w} did not print a positive `{}`", m.name);
                ok = false;
            }
        }
        let traced = child(w, 1, 0.0, true, true)?;
        ok &= traced.correct;
        layers_seen.extend(traced.measured().map(str::to_string));
        println!(
            "smoke: {w} ran {} + {} operations",
            plain.attempted, traced.attempted
        );
    }
    for m in &spec.per_layer {
        if !layers_seen.contains(&m.name) {
            println!("smoke: no workload measured `{}`", m.name);
            ok = false;
        }
    }
    Ok(ok)
}

/// Parses the arguments and runs the mode they name; `Ok(false)` is a
/// benchmark that ran and found something wrong.
fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
    };
    let number = |name: &str, default: f64| match value(name) {
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("{name} {v}: not a number")),
        None => Ok(default),
    };
    let spec = load_spec()?;
    let (seed, seconds) = (
        number("--seed", 1.0)? as u64,
        number("--seconds", spec.run_seconds)?,
    );
    if let Some(workload) = value("--workload") {
        let cfg = Config {
            workload: workload.clone(),
            seed,
            seconds,
            trace: value("--trace").is_some_and(|t| t == "1"),
            scale: if flag("--smoke") {
                Scale::SMOKE
            } else {
                Scale::FULL
            },
        };
        measure(&cfg, &spec)
    } else if flag("--smoke") {
        smoke(&spec)
    } else if flag("--check") {
        repeat_check(
            &spec,
            seed,
            seconds,
            (number("--repeat", 3.0)? as usize).max(2),
        )
    } else if flag("--all") {
        all(&spec, seed, seconds)
    } else {
        Err("usage: perfbench --all | --repeat N --check | --smoke | --workload W --seed N --seconds S --trace 0|1".into())
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
