//! `sampled_stream`: the Fig. 21 iteration. Every case draws a fresh
//! neighbour sample, plans it through a `PlanCache` and executes it — the
//! same engine, partitioner and cache as the other workloads, used on short
//! calls whose keys never repeat.

use std::collections::HashMap;

use wisegraph::baselines::single::LayerDims;
use wisegraph::cache::PlanCache;
use wisegraph::core::WiseGraph;
use wisegraph::dfg::Dfg;
use wisegraph::graph::sample::{neighbor_sample, SampleConfig, SampledSubgraph};
use wisegraph::graph::{Csr, Graph};
use wisegraph::gtask::{partition, PartitionTable};
use wisegraph::kernels::engine::Engine;
use wisegraph::kernels::micro::compile;
use wisegraph::models::ModelKind;
use wisegraph::sim::DeviceSpec;
use wisegraph::tensor::Tensor;

use crate::harness::{median, time_median, Case, Config, Finish, Tracer, Workload, ENGINE_THREADS};
use crate::inputs::{ar_graph, check_bits, check_close, model_globals, reference, F};

struct Stream {
    name: &'static str,
    model: ModelKind,
    table: PartitionTable,
    base: Dfg,
    /// Sample and output of the latest execution, and of the warm-up step.
    last: Option<(SampledSubgraph, Tensor)>,
    first: Option<(SampledSubgraph, Tensor)>,
}

pub struct SampledStream {
    seed: u64,
    sample_seeds: usize,
    g: Graph,
    csr: Csr,
    /// Weights, plus `h` for the current sample (gathered from `features`).
    globals: HashMap<String, Tensor>,
    features: Tensor,
    streams: Vec<Stream>,
    engine: Engine,
    cache: PlanCache,
    steps: u64,
}

impl SampledStream {
    fn sample(&self, case: usize, step: u64) -> SampledSubgraph {
        let mut cfg = SampleConfig::paper_default(
            self.seed.wrapping_mul(1_000_003) + step * 16 + case as u64,
        );
        cfg.num_seeds = self.sample_seeds;
        neighbor_sample(&self.g, &self.csr, &cfg)
    }

    fn gather_features(&self, sub: &SampledSubgraph) -> Tensor {
        let mut data = Vec::with_capacity(sub.vertex_map.len() * F);
        for &v in &sub.vertex_map {
            data.extend_from_slice(self.features.row(v as usize));
        }
        Tensor::from_vec(data, &[sub.vertex_map.len(), F])
    }
}

impl Workload for SampledStream {
    /// Per case: the reference output on the warm-up step's sample.
    type Oracle = Vec<Tensor>;

    fn setup(cfg: &Config, _tr: &Tracer) -> Self {
        let g = ar_graph(cfg);
        let csr = Csr::in_of(&g);
        let mut globals = model_globals(&g, F, F, cfg.seed);
        let features = globals.remove("h").expect("features");
        let stream = |name, model: ModelKind, table| Stream {
            name,
            model,
            table,
            base: model.layer_dfg(F, F),
            last: None,
            first: None,
        };
        SampledStream {
            seed: cfg.seed,
            sample_seeds: cfg.scale.sample_seeds,
            g,
            csr,
            globals,
            features,
            streams: vec![
                stream(
                    "gcn.edge_batch_64",
                    ModelKind::Gcn,
                    PartitionTable::edge_batch(64),
                ),
                stream(
                    "rgcn.src_batch_per_type_64",
                    ModelKind::Rgcn,
                    PartitionTable::src_batch_per_type(64),
                ),
            ],
            engine: Engine::new(ENGINE_THREADS),
            cache: PlanCache::new(),
            steps: 0,
        }
    }

    fn cases(&self) -> Vec<Case> {
        // ~100 K edges per paper-default sample; the exact count varies.
        let edges = self.streams[0]
            .first
            .as_ref()
            .map_or(1, |(s, _)| s.graph.num_edges());
        self.streams
            .iter()
            .map(|s| Case {
                name: s.name,
                edges,
                layer_ms: None,
            })
            .collect()
    }

    fn run(&mut self, case: usize, step: u64, tr: &Tracer) -> Result<(), String> {
        let sub = tr.span("graph.sample.neighbor", || self.sample(case, step));
        let h = tr.span("harness.gather_features", || self.gather_features(&sub));
        self.globals.insert("h".into(), h);
        let s = &self.streams[case];
        let cache = &mut self.cache;
        let plan = tr.span("cache.partition_cached", || {
            cache.partition_cached(&sub.graph, &s.table)
        });
        let dfg = tr.span("cache.transform_cached", || {
            cache.transform_cached(&sub.graph, &s.base)
        });
        let program = tr
            .span("cache.compile_cached", || {
                cache.compile_cached(&sub.graph, &dfg)
            })
            .map_err(|e| e.0)?;
        let out = tr
            .span("kernels.engine.execute_program", || {
                self.engine
                    .execute_program(&program, &dfg, &sub.graph, &plan, &self.globals)
            })
            .map_err(|e| e.0)?;
        let out = out.into_iter().next().ok_or("no output")?;
        self.streams[case].last = Some((sub, out));
        Ok(())
    }

    fn check(&mut self, case: usize, _step: u64, _tr: &Tracer) -> Result<(), String> {
        let s = &mut self.streams[case];
        let (sub, out) = s.last.take().ok_or("no output")?;
        if out.dims() != [sub.graph.num_vertices(), F] || !out.all_finite() {
            return Err(format!(
                "output {:?} is misshapen or not finite",
                out.dims()
            ));
        }
        if s.first.is_none() {
            s.first = Some((sub, out));
        }
        Ok(())
    }

    fn end_step(&mut self, _step: u64) {
        self.steps += 1;
    }

    fn oracle(&self) -> Vec<Tensor> {
        self.streams
            .iter()
            .map(|s| {
                let (sub, _) = s.first.as_ref().expect("warm-up step ran");
                let mut globals = self.globals.clone();
                globals.insert("h".into(), self.gather_features(sub));
                reference(s.model, &s.base, &sub.graph, &globals)
            })
            .collect()
    }

    fn check_oracle(&self, oracle: &Vec<Tensor>) -> Result<(), String> {
        for (s, want) in self.streams.iter().zip(oracle) {
            let (_, got) = s.first.as_ref().ok_or("warm-up step produced no output")?;
            check_close(got, want).map_err(|e| format!("{}: {e}", s.name))?;
        }
        Ok(())
    }

    fn finish(&mut self, cfg: &Config, f: &mut Finish) {
        let lookups = self.cache.hits() + self.cache.misses();
        let hit_ratio = self.cache.hits() as f64 / lookups.max(1) as f64;
        let growth_mb_per_iter =
            self.cache.stored_bytes() as f64 / (1 << 20) as f64 / self.steps.max(1) as f64;
        // Replay the warm-up step's samples: after a whole pass of other
        // samples the outputs must still be bit-identical.
        f.tr.set_on(false);
        for case in 0..self.streams.len() {
            let first = self.streams[case].first.take();
            let replay = self.run(case, 0, f.tr).and_then(|()| {
                let (_, out) = self.streams[case].last.take().ok_or("no output")?;
                check_bits(&out, &first.as_ref().ok_or("no warm-up output")?.1)
            });
            f.ops
                .record(&format!("{} replay", self.streams[case].name), replay);
            self.streams[case].first = first;
        }
        f.tr.set_on(cfg.trace);
        if !cfg.trace {
            return;
        }
        let step_median = |name| median(&f.tr.step_sums_ms(name));
        f.set(
            "graph.sample.neighbor_ms",
            step_median("graph.sample.neighbor"),
        );
        f.set(
            "gtask.partition.sampled_ms",
            step_median("cache.partition_cached"),
        );
        f.set(
            "kernels.engine.sampled.ms",
            step_median("kernels.engine.execute_program"),
        );
        f.set("cache.sampled.hit_ratio", hit_ratio);
        f.set("cache.sampled.growth_mb_per_iter", growth_mb_per_iter);

        // † Per-edge cost of the sampled GCN execution against the same
        // model and table on the full graph.
        let reps = cfg.scale.extra_reps;
        let gcn = &self.streams[0];
        let (sub, _) = gcn.first.as_ref().expect("warm-up step ran");
        let mut globals = self.globals.clone();
        globals.insert("h".into(), self.features.clone());
        let plan = partition(&self.g, &gcn.table);
        let program = compile(&gcn.base, &self.g).expect("gcn compiles");
        let full_ms = time_median(f.tr, "kernels.engine.full_graph", reps, || {
            self.engine
                .execute_program(&program, &gcn.base, &self.g, &plan, &globals)
                .expect("full-graph run")
        });
        // The step sum holds one execution per stream; compare GCN alone.
        globals.insert("h".into(), self.gather_features(sub));
        let sub_plan = partition(&sub.graph, &gcn.table);
        let sub_program = compile(&gcn.base, &sub.graph).expect("gcn compiles");
        let sub_ms = time_median(f.tr, "kernels.engine.sampled_gcn", reps.max(5), || {
            self.engine
                .execute_program(&sub_program, &gcn.base, &sub.graph, &sub_plan, &globals)
                .expect("sampled run")
        });
        let per_edge = |ms: f64, g: &Graph| ms / g.num_edges() as f64;
        f.set(
            "kernels.engine.sampled.per_edge_vs_full",
            per_edge(sub_ms, &sub.graph) / per_edge(full_ms, &self.g),
        );

        // † §6.3 tunes the plan once on the first sampled subgraph.
        let dims = LayerDims {
            f_in: F,
            hidden: F,
            classes: 40,
            layers: 2,
        };
        let search = WiseGraph::new(DeviceSpec::a100_pcie());
        let ms = time_median(f.tr, "core.optimizer.optimize", 1, || {
            search.optimize(&sub.graph, ModelKind::Gcn, &dims)
        });
        f.set("core.optimizer.gcn.search_ms", ms);
    }
}
