//! `wisegraph` — command-line front end to the optimizer.
//!
//! ```text
//! wisegraph generate --vertices 50000 --edges 600000 --types 8 --out g.bin
//! wisegraph partition g.bin --table src-type --k 64
//! wisegraph optimize g.bin --model rgcn --features 128 --classes 40
//! wisegraph datasets
//! ```

use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use wisegraph::baselines::{Baseline, LayerDims};
use wisegraph::core::WiseGraph;
use wisegraph::graph::generate::{rmat, RmatParams, MAX_RMAT_VERTICES};
use wisegraph::graph::{io, DatasetKind, Graph};
use wisegraph::gtask::{partition, PartitionTable};
use wisegraph::models::ModelKind;
use wisegraph::sim::DeviceSpec;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  wisegraph generate --vertices N --edges M [--types T] [--seed S] --out PATH\n  \
         wisegraph partition PATH [--table vertex|edge|2d|src-type|dst-mindeg|edge-batch] [--k K]\n  \
         wisegraph optimize PATH --model gcn|sage|sage-lstm|gat|rgcn [--features F] [--hidden H] [--classes C]\n  \
         wisegraph datasets"
    );
    ExitCode::FAILURE
}

/// The value of flag `name`: `None` when the flag is absent, and an error
/// when it is given without a value (last, or followed by another flag).
fn flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
        _ => Err(format!("{name} needs a value")),
    }
}

/// The value of numeric flag `name`, or `default` when it is absent. A
/// flag without a value, a value that does not parse and one below `min`
/// are errors.
fn flag_num<T: FromStr + PartialOrd + Display>(
    args: &[String],
    name: &str,
    default: T,
    min: T,
) -> Result<T, String> {
    let Some(v) = flag(args, name)? else {
        return Ok(default);
    };
    match v.parse::<T>() {
        Ok(n) if n >= min => Ok(n),
        _ => Err(format!("{name} must be an integer >= {min}, got '{v}'")),
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    io::load(path).map_err(|e| format!("cannot load graph from {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::FAILURE
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(command) = args.first() else {
        return Ok(usage());
    };
    match command.as_str() {
        "generate" => {
            let v = flag_num(args, "--vertices", 10_000usize, 1)?;
            if v as u64 > MAX_RMAT_VERTICES {
                return Err(format!(
                    "--vertices must be at most {MAX_RMAT_VERTICES} (vertex ids are 32-bit), got {v}"
                ));
            }
            let e = flag_num(args, "--edges", 100_000usize, 1)?;
            let t = flag_num(args, "--types", 1usize, 1)?;
            let seed = flag_num(args, "--seed", 42u64, 0)?;
            let Some(out) = flag(args, "--out")? else {
                eprintln!("error: --out PATH is required");
                return Ok(usage());
            };
            let g = rmat(&RmatParams::standard(v, e, seed).with_edge_types(t));
            io::save(&g, &out).map_err(|err| format!("cannot write {out}: {err}"))?;
            println!(
                "wrote {out}: {} vertices, {} edges, {} types",
                g.num_vertices(),
                g.num_edges(),
                g.num_edge_types()
            );
            Ok(ExitCode::SUCCESS)
        }
        "partition" => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                return Ok(usage());
            };
            let g = load_graph(path)?;
            let k = flag_num(args, "--k", 64u64, 1)?;
            let table = match flag(args, "--table")?.as_deref().unwrap_or("vertex") {
                "vertex" => PartitionTable::vertex_centric(),
                "edge" => PartitionTable::edge_centric(),
                "2d" => PartitionTable::two_d(k),
                "src-type" => PartitionTable::src_batch_per_type(k),
                "dst-mindeg" => PartitionTable::dst_batch_min_degree(k),
                "edge-batch" => PartitionTable::edge_batch(k),
                other => {
                    eprintln!("error: unknown table '{other}'");
                    return Ok(usage());
                }
            };
            let plan = partition(&g, &table);
            println!("table:        {}", plan.table);
            println!("gTasks:       {}", plan.num_tasks());
            println!("median edges: {}", plan.median_task_edges());
            println!("max edges:    {}", plan.max_task_edges());
            Ok(ExitCode::SUCCESS)
        }
        "optimize" => {
            let Some(path) = args.get(1).filter(|a| !a.starts_with("--")) else {
                return Ok(usage());
            };
            let g = load_graph(path)?;
            let model = match flag(args, "--model")?.as_deref().unwrap_or("gcn") {
                "gcn" => ModelKind::Gcn,
                "sage" => ModelKind::Sage,
                "sage-lstm" => ModelKind::SageLstm,
                "gat" => ModelKind::Gat,
                "rgcn" => ModelKind::Rgcn,
                other => {
                    eprintln!("error: unknown model '{other}'");
                    return Ok(usage());
                }
            };
            let dims = LayerDims {
                f_in: flag_num(args, "--features", 128usize, 1)?,
                hidden: flag_num(args, "--hidden", 256usize, 1)?,
                classes: flag_num(args, "--classes", 40usize, 1)?,
                layers: flag_num(args, "--layers", 3usize, 1)?,
            };
            let device = DeviceSpec::a100_pcie();
            let out = WiseGraph::new(device).optimize(&g, model, &dims);
            println!("model:        {}", model.name());
            println!("graph plan:   {}", out.per_layer[0].partition.table);
            println!("op partition: {:?}", out.per_layer[0].op_partition);
            println!(
                "gTasks:       {} (batch {} rows)",
                out.per_layer[0].partition.num_tasks(),
                out.per_layer[0].ctx.batch_rows
            );
            println!(
                "iteration:    {:.3} ms{}",
                out.time_per_iter * 1e3,
                if out.oom { "  [exceeds device memory]" } else { "" }
            );
            for b in Baseline::columns_for(model) {
                let est = b.estimate(&g, model, &dims, &device);
                println!(
                    "  vs {:<10} {:>10.3} ms{}",
                    b.label(model),
                    est.time_per_iter * 1e3,
                    if est.oom { "  [OOM]" } else { "" }
                );
            }
            println!(
                "search:       {} evaluated, {} pruned",
                out.trace.evaluated(),
                out.trace.pruned
            );
            Ok(ExitCode::SUCCESS)
        }
        "datasets" => {
            println!(
                "{:<6} {:>12} {:>14} {:>10} {:>8} {:>6}",
                "name", "paper |V|", "paper |E|", "gen |V|", "gen |E|", "dim"
            );
            for kind in DatasetKind::ALL {
                let s = kind.spec();
                println!(
                    "{:<6} {:>12} {:>14} {:>10} {:>8} {:>6}",
                    kind.short_name(),
                    s.paper_vertices,
                    s.paper_edges,
                    s.gen_vertices,
                    s.gen_edges,
                    s.feature_dim
                );
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Ok(usage()),
    }
}
