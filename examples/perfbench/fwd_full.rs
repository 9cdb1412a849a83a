//! `fwd_full`: steady-state forward on the whole graph, planning paid in
//! set-up. Four model × table plans through one 2-thread `Engine`: a
//! dst-exclusive plan (GCN vertex-centric), one that scatters across slots
//! (SAGE edge-batch), a compute-bound fused chain (RGCN src-batch-per-type)
//! and an interpreted dst-complete model (GAT vertex-centric).

use std::collections::HashMap;

use wisegraph::dfg::{transform, Binding, Dfg};
use wisegraph::graph::Graph;
use wisegraph::gtask::{partition, PartitionPlan};
use wisegraph::kernels::engine::{Engine, ExecMode};
use wisegraph::kernels::micro::{
    compile, eval_edge_independent_public, prologue_name, KernelProgram,
};
use wisegraph::models::ModelKind;
use wisegraph::tensor::Tensor;

use crate::harness::{time_median, Case, Config, Finish, Tracer, Workload, ENGINE_THREADS};
use crate::inputs::{
    ar_graph, check_bits, check_close, model_globals, model_slug, reference, tables, F,
};

/// (case, model, index into `tables()`).
const CASES: [(&str, ModelKind, usize); 4] = [
    ("gcn.vertex_centric", ModelKind::Gcn, 0),
    ("sage.edge_batch_64", ModelKind::Sage, 1),
    ("rgcn.src_batch_per_type_64", ModelKind::Rgcn, 2),
    ("gat.vertex_centric", ModelKind::Gat, 0),
];

struct Planned {
    name: &'static str,
    model: ModelKind,
    table: usize,
    base: Dfg,
    dfg: Dfg,
    program: KernelProgram,
    /// Output of the latest execution, and of the warm-up step.
    last: Option<Tensor>,
    first: Option<Tensor>,
}

pub struct FwdFull {
    g: Graph,
    globals: HashMap<String, Tensor>,
    plans: Vec<PartitionPlan>,
    planned: Vec<Planned>,
    engine: Engine,
}

impl Workload for FwdFull {
    type Oracle = Vec<Tensor>;

    fn setup(cfg: &Config, tr: &Tracer) -> Self {
        let g = ar_graph(cfg);
        let globals = model_globals(&g, F, F, cfg.seed);
        let plans = tables()
            .iter()
            .map(|(slug, table)| {
                tr.span(&format!("gtask.partition.{slug}"), || partition(&g, table))
            })
            .collect();
        let binding = Binding::from_graph(&g);
        let planned = CASES
            .iter()
            .map(|&(name, model, table)| {
                let base = model.layer_dfg(F, F);
                let dfg = tr.span("dfg.transform.optimize", || {
                    transform::optimize(&base, &binding).0
                });
                let program = tr
                    .span("kernels.micro.compile", || compile(&dfg, &g))
                    .expect("model compiles");
                Planned {
                    name,
                    model,
                    table,
                    base,
                    dfg,
                    program,
                    last: None,
                    first: None,
                }
            })
            .collect();
        FwdFull {
            g,
            globals,
            plans,
            planned,
            engine: Engine::new(ENGINE_THREADS),
        }
    }

    fn cases(&self) -> Vec<Case> {
        self.planned
            .iter()
            .map(|p| Case {
                name: p.name,
                edges: self.g.num_edges(),
                layer_ms: Some(format!("kernels.engine.{}.ms", p.name)),
            })
            .collect()
    }

    fn run(&mut self, case: usize, _step: u64, _tr: &Tracer) -> Result<(), String> {
        let p = &mut self.planned[case];
        let out = self
            .engine
            .execute_program(
                &p.program,
                &p.dfg,
                &self.g,
                &self.plans[p.table],
                &self.globals,
            )
            .map_err(|e| e.0)?;
        p.last = out.into_iter().next();
        Ok(())
    }

    fn check(&mut self, case: usize, _step: u64, _tr: &Tracer) -> Result<(), String> {
        let p = &mut self.planned[case];
        let out = p.last.take().ok_or("no output")?;
        match &p.first {
            Some(first) => check_bits(&out, first),
            None => {
                p.first = Some(out);
                Ok(())
            }
        }
    }

    fn oracle(&self) -> Vec<Tensor> {
        self.planned
            .iter()
            .map(|p| reference(p.model, &p.base, &self.g, &self.globals))
            .collect()
    }

    fn check_oracle(&self, oracle: &Vec<Tensor>) -> Result<(), String> {
        for (p, want) in self.planned.iter().zip(oracle) {
            let got = p.first.as_ref().ok_or("warm-up step produced no output")?;
            check_close(got, want).map_err(|e| format!("{}: {e}", p.name))?;
        }
        Ok(())
    }

    fn finish(&mut self, cfg: &Config, f: &mut Finish) {
        if !cfg.trace {
            return;
        }
        for ((slug, _), plan) in tables().iter().zip(&self.plans) {
            f.set_from_span(
                format!("gtask.partition.{slug}.ms"),
                &format!("gtask.partition.{slug}"),
            );
            f.set(
                format!("gtask.partition.{slug}.tasks"),
                plan.num_tasks() as f64,
            );
        }
        f.set_from_span("dfg.transform.optimize_ms", "dfg.transform.optimize");
        f.set_from_span("kernels.micro.compile_ms", "kernels.micro.compile");

        // † Extra measurements, after the timed steps.
        let reps = cfg.scale.extra_reps;
        let single = Engine::new(1);
        let interp = Engine::with_mode(ENGINE_THREADS, ExecMode::Interpret);
        let (g, globals) = (&self.g, &self.globals);
        for (i, p) in self.planned.iter().enumerate() {
            let slug = p.name;
            let plan = &self.plans[p.table];
            let t1 = time_median(f.tr, &format!("kernels.engine.{slug}.t1"), reps, || {
                single
                    .execute_program(&p.program, &p.dfg, g, plan, globals)
                    .expect("single-thread run")
            });
            f.set(format!("kernels.engine.{slug}.t1_ms"), t1);
            let mut all = globals.clone();
            let pre = eval_edge_independent_public(&p.dfg, g, globals);
            for id in &p.program.prologue {
                all.insert(prologue_name(*id), pre[id].clone());
            }
            let acc = time_median(
                f.tr,
                &format!("kernels.engine.{slug}.accumulate"),
                reps,
                || {
                    self.engine
                        .accumulate_program(&p.program, g, plan, &all)
                        .expect("accumulate run")
                },
            );
            f.set(format!("kernels.engine.{slug}.accumulate_ms"), acc);
            if p.model != ModelKind::Gat {
                let model = model_slug(p.model);
                let slow = time_median(
                    f.tr,
                    &format!("kernels.fused.{model}.interpret"),
                    reps,
                    || {
                        interp
                            .execute_program(&p.program, &p.dfg, g, plan, globals)
                            .expect("interpreted run")
                    },
                );
                f.set(
                    format!("kernels.fused.{model}.speedup"),
                    slow / f.case_ms[i],
                );
            }
        }
        // GCN (case 0) splits cleanly: its per-task program is gather →
        // scatter-add (aggregation, bandwidth-bound) and its epilogue is the
        // `[V,F]·[F,F]` update (compute-bound). Bytes and FLOPs are computed,
        // not counted: one gathered and one accumulated row of F floats per edge.
        let (v, e) = (g.num_vertices() as f64, g.num_edges() as f64);
        let accumulate_ms = f.metrics["kernels.engine.gcn.vertex_centric.accumulate_ms"];
        let agg_rate = 2.0 * e * F as f64 * 4.0 / 1e9 / (accumulate_ms / 1e3);
        let update_ms = (f.case_ms[0] - accumulate_ms).max(1e-6);
        let update_rate = 2.0 * v * (F * F) as f64 / 1e9 / (update_ms / 1e3);
        f.set("kernels.engine.agg_gbytes_per_s", agg_rate);
        f.set(
            "kernels.engine.agg_bw_frac",
            agg_rate / f.metrics["host.copy_gbytes_per_s"],
        );
        f.set("kernels.engine.update_gflops", update_rate);
        f.set(
            "kernels.engine.update_flops_frac",
            update_rate / f.metrics["host.fma_gflops"],
        );
    }
}
