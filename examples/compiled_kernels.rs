//! Micro-kernel composition in action: compile a model layer to an
//! explicit kernel program and execute it per gTask.
//!
//! Shows the three-phase execution WiseGraph generates (paper §5.3):
//! a *prologue* of edge-independent precomputation, a *per-task program*
//! of composed micro-kernels, and an *epilogue* of whole-graph operations
//! — and verifies the result against the reference interpreter.
//!
//! Run with: `cargo run --example compiled_kernels`

use std::collections::HashMap;
use std::time::Instant;
use wisegraph::dfg::interp::execute;
use wisegraph::dfg::{transform, Binding};
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::gtask::{partition, PartitionTable};
use wisegraph::kernels::engine::Engine;
use wisegraph::kernels::micro::compile;
use wisegraph::models::ModelKind;
use wisegraph::tensor::init;

fn main() {
    let g = rmat(&RmatParams::standard(20_000, 250_000, 7).with_edge_types(8));
    let (fi, fo) = (64, 64);
    let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
    let binding = Binding::from_graph(&g);
    let (optimized, _) = transform::optimize(&dfg, &binding);

    let mut globals = HashMap::new();
    globals.insert(
        "h".to_string(),
        init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 1),
    );
    globals.insert(
        "W".to_string(),
        init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 2),
    );

    // Show the compiled program.
    let program = compile(&optimized, &g).expect("RGCN compiles");
    println!(
        "compiled kernel: {} micro-kernels, {} registers, {} prologue \
         precomputations",
        program.ops.len(),
        program.num_regs,
        program.prologue.len()
    );
    for (i, op) in program.ops.iter().enumerate() {
        println!("  [{i}] {op:?}");
    }

    // Execute per gTask and compare against the reference interpreter.
    let plan = partition(&g, &PartitionTable::src_batch_per_type(128));
    println!("\nplan: {} -> {} gTasks", plan.table, plan.num_tasks());

    let t0 = Instant::now();
    let reference = &execute(&dfg, &g, &globals).unwrap()[0];
    let t_interp = t0.elapsed();

    let t0 = Instant::now();
    let sequential = &Engine::new(1).execute(&optimized, &g, &plan, &globals).unwrap()[0];
    let t_seq = t0.elapsed();

    let t0 = Instant::now();
    let parallel = &Engine::new(2).execute(&optimized, &g, &plan, &globals).unwrap()[0];
    let t_par = t0.elapsed();

    println!(
        "\ninterpreter (naive DFG):     {:>8.1} ms",
        t_interp.as_secs_f64() * 1e3
    );
    println!(
        "compiled per-gTask kernels:  {:>8.1} ms (diff {:.2e})",
        t_seq.as_secs_f64() * 1e3,
        reference.max_abs_diff(sequential)
    );
    println!(
        "parallel engine (2 threads): {:>8.1} ms (diff {:.2e})",
        t_par.as_secs_f64() * 1e3,
        reference.max_abs_diff(parallel)
    );
    assert!(reference.allclose(sequential, 1e-2));
    assert!(reference.allclose(parallel, 1e-2));
    println!("\nall three executions agree.");
}
