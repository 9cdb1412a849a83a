//! `plan_full`: planning is the step (Table 3). `cold` plans GCN and RGCN
//! under three tables against a fresh `PlanCache`, `warm` repeats the same
//! calls against the cache `cold` filled, `delta` deletes 1 % of the edges
//! through the `DynamicPlanner`, re-inserts them and asks for the plan.

use wisegraph::analysis::repair::verify_repair;
use wisegraph::cache::{hash_dfg, PlanCache};
use wisegraph::core::dynamic::{DynamicPlanner, RepairOutcome};
use wisegraph::dfg::{transform, Binding, Dfg};
use wisegraph::graph::Graph;
use wisegraph::gtask::{partition, GraphDelta, IncrementalPlan, PartitionPlan, PartitionTable};
use wisegraph::kernels::engine::Engine;
use wisegraph::kernels::micro::{compile, KernelProgram};
use wisegraph::models::ModelKind;
use wisegraph_testkit::rng::Rng;

use crate::harness::{time_median, Case, Config, Finish, Tracer, Workload, ENGINE_THREADS};
use crate::inputs::{ar_graph, model_globals, tables, F};

/// Everything one planning pass returns.
struct Planned {
    plans: Vec<PartitionPlan>,
    dfgs: Vec<Dfg>,
    programs: Vec<KernelProgram>,
}

pub struct PlanFull {
    seed: u64,
    g: Graph,
    bases: [Dfg; 2],
    /// 1 % of the edge ids, ascending.
    delta: Vec<usize>,
    cache: PlanCache,
    dynamic: DynamicPlanner,
    cold: Option<Planned>,
    warm: Option<Planned>,
    repaired: Option<(RepairOutcome, RepairOutcome, PartitionPlan)>,
    stored_mb: f64,
}

/// The planning calls of one model layer set: three partitions, then
/// transform + compile per model.
fn plan_all(
    cache: &mut PlanCache,
    g: &Graph,
    bases: &[Dfg],
    tr: &Tracer,
) -> Result<Planned, String> {
    let plans = tables()
        .iter()
        .map(|(slug, table)| {
            tr.span(&format!("cache.partition_cached.{slug}"), || {
                cache.partition_cached(g, table)
            })
        })
        .collect();
    let mut dfgs = Vec::new();
    let mut programs = Vec::new();
    for base in bases {
        let dfg = tr.span("cache.transform_cached", || cache.transform_cached(g, base));
        programs.push(
            tr.span("cache.compile_cached", || cache.compile_cached(g, &dfg))
                .map_err(|e| e.0)?,
        );
        dfgs.push(dfg);
    }
    Ok(Planned {
        plans,
        dfgs,
        programs,
    })
}

fn covers_every_edge(plan: &PartitionPlan, g: &Graph) -> Result<(), String> {
    let covered: usize = plan.tasks.iter().map(|t| t.num_edges()).sum();
    if covered == g.num_edges() {
        Ok(())
    } else {
        Err(format!("plan covers {covered} of {} edges", g.num_edges()))
    }
}

impl Workload for PlanFull {
    type Oracle = ();

    fn setup(cfg: &Config, _tr: &Tracer) -> Self {
        let g = ar_graph(cfg);
        let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xde17a);
        let mut delta: Vec<usize> = (0..g.num_edges() / 100)
            .map(|_| rng.range_usize(0..g.num_edges()))
            .collect();
        delta.sort_unstable();
        delta.dedup();
        let dynamic = DynamicPlanner::new(&g, PartitionTable::vertex_centric());
        PlanFull {
            seed: cfg.seed,
            bases: [
                ModelKind::Gcn.layer_dfg(F, F),
                ModelKind::Rgcn.layer_dfg(F, F),
            ],
            delta,
            cache: PlanCache::new(),
            dynamic,
            cold: None,
            warm: None,
            repaired: None,
            stored_mb: 0.0,
            g,
        }
    }

    fn cases(&self) -> Vec<Case> {
        // cold and warm each plan the graph under three tables; delta
        // repairs and re-verifies the one live plan twice.
        let e = self.g.num_edges();
        vec![
            Case {
                name: "cold",
                edges: 3 * e,
                layer_ms: None,
            },
            Case {
                name: "warm",
                edges: 3 * e,
                layer_ms: None,
            },
            Case {
                name: "delta",
                edges: 2 * e,
                layer_ms: None,
            },
        ]
    }

    fn run(&mut self, case: usize, _step: u64, tr: &Tracer) -> Result<(), String> {
        match case {
            0 => {
                self.cache = PlanCache::new();
                self.cold = Some(plan_all(&mut self.cache, &self.g, &self.bases, tr)?);
            }
            1 => self.warm = Some(plan_all(&mut self.cache, &self.g, &self.bases, tr)?),
            _ => {
                let (g, d) = (&self.g, &mut self.dynamic);
                let removed = tr.span("core.dynamic.apply", || {
                    d.apply(g, &GraphDelta::deleting(self.delta.clone()))
                });
                let restored = tr.span("core.dynamic.apply", || {
                    d.apply(g, &GraphDelta::inserting(self.delta.clone()))
                });
                let plan = tr.span("core.dynamic.plan", || d.plan(g));
                self.repaired = Some((removed, restored, plan));
            }
        }
        Ok(())
    }

    fn check(&mut self, case: usize, _step: u64, _tr: &Tracer) -> Result<(), String> {
        match case {
            0 => {
                let cold = self.cold.as_ref().ok_or("no cold plan")?;
                if self.cache.hits() != 0 {
                    return Err(format!(
                        "cold pass hit the cache {} times",
                        self.cache.hits()
                    ));
                }
                self.stored_mb = self.cache.stored_bytes() as f64 / (1 << 20) as f64;
                cold.plans
                    .iter()
                    .try_for_each(|p| covers_every_edge(p, &self.g))
            }
            1 => {
                let (cold, warm) = (
                    self.cold.take().ok_or("no cold plan")?,
                    self.warm.take().ok_or("no warm plan")?,
                );
                let lookups = (cold.plans.len() + 2 * cold.dfgs.len()) as u64;
                if self.cache.hits() != lookups {
                    return Err(format!(
                        "warm pass hit {} of {lookups} lookups",
                        self.cache.hits()
                    ));
                }
                let same = cold.plans == warm.plans
                    && cold
                        .dfgs
                        .iter()
                        .zip(&warm.dfgs)
                        .all(|(a, b)| hash_dfg(a) == hash_dfg(b))
                    && cold.programs.iter().zip(&warm.programs).all(|(a, b)| {
                        a.ops == b.ops && a.prologue == b.prologue && a.out_width == b.out_width
                    });
                if same {
                    Ok(())
                } else {
                    Err("warm plan differs from the cold plan".into())
                }
            }
            _ => {
                let (removed, restored, plan) = self.repaired.take().ok_or("no repaired plan")?;
                for (what, o) in [("delete", &removed), ("insert", &restored)] {
                    if !o.is_clean() || o.rebuilt {
                        return Err(format!(
                            "{what} repair: {} finding(s), rebuilt {}",
                            o.diagnostics.len(),
                            o.rebuilt
                        ));
                    }
                }
                if removed.stats.removed != self.delta.len()
                    || restored.stats.inserted != self.delta.len()
                {
                    return Err(format!(
                        "delta of {} edges applied as {:?} / {:?}",
                        self.delta.len(),
                        removed.stats,
                        restored.stats
                    ));
                }
                covers_every_edge(&plan, &self.g)
            }
        }
    }

    fn oracle(&self) {}

    fn check_oracle(&self, _oracle: &()) -> Result<(), String> {
        Ok(())
    }

    fn finish(&mut self, cfg: &Config, f: &mut Finish) {
        if !cfg.trace {
            return;
        }
        let reps = cfg.scale.extra_reps;
        let g = &self.g;
        f.set("cache.stored_mb", self.stored_mb);
        f.set_from_span("core.dynamic.apply_ms", "core.dynamic.apply");

        // † The stages a cold pass is made of, called without the cache;
        // what is left of `cold` is hashing, encoding and storing.
        let mut uncached_ms = 0.0;
        for (slug, table) in tables() {
            let mut tasks = 0;
            let ms = time_median(f.tr, &format!("gtask.partition.{slug}"), reps, || {
                tasks = partition(g, &table).num_tasks()
            });
            f.set(format!("gtask.partition.{slug}.ms"), ms);
            f.set(format!("gtask.partition.{slug}.tasks"), tasks as f64);
            uncached_ms += ms;
        }
        let binding = Binding::from_graph(g);
        for base in &self.bases {
            let dfg = transform::optimize(base, &binding).0;
            uncached_ms += time_median(f.tr, "dfg.transform.optimize", reps, || {
                transform::optimize(base, &binding)
            });
            uncached_ms += time_median(f.tr, "kernels.micro.compile", reps, || compile(&dfg, g));
        }
        f.set_from_span("dfg.transform.optimize_ms", "dfg.transform.optimize");
        f.set_from_span("kernels.micro.compile_ms", "kernels.micro.compile");
        let graph_key = time_median(f.tr, "cache.graph_key", reps, || PlanCache::graph_key(g));
        f.set("cache.graph_key_ms", graph_key);
        f.set("cache.cold_store_ms", (f.case_ms[0] - uncached_ms).max(0.0));
        // Every lookup hashes the graph before it finds its entry.
        let lookups = (tables().len() + 2 * self.bases.len()) as f64;
        f.set(
            "cache.hit_decode_ms",
            (f.case_ms[1] - lookups * graph_key).max(0.0),
        );

        // † The repair itself and its verifier, outside the planner.
        let table = PartitionTable::vertex_centric();
        let mut inc = IncrementalPlan::new(g, table.clone());
        let (remove, restore) = (
            GraphDelta::deleting(self.delta.clone()),
            GraphDelta::inserting(self.delta.clone()),
        );
        let mut deleted = false;
        let apply = time_median(f.tr, "gtask.incremental.apply", 2 * reps, || {
            deleted = !deleted;
            inc.apply(g, if deleted { &remove } else { &restore })
        });
        f.set("gtask.incremental.apply_ms", apply);
        let (live, snapshot) = (inc.live_edges(), inc.snapshot(g));
        let verify = time_median(f.tr, "analysis.repair.verify_repair", reps, || {
            verify_repair(g, &table, &live, &snapshot)
        });
        f.set("analysis.repair.verify_ms", verify);
        let globals = model_globals(g, F, F, self.seed);
        let engine = Engine::new(ENGINE_THREADS);
        let execute = time_median(f.tr, "core.dynamic.execute", reps, || {
            self.dynamic
                .execute(g, &self.bases[0], &globals, &engine)
                .expect("dynamic execute")
        });
        f.set("core.dynamic.execute_ms", execute);
    }
}
