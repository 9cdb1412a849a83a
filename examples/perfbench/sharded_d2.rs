//! `sharded_d2`: one layer (F 64→32) of the vertex-centric plan on a
//! 2-device × 1-thread `ClusterEngine`. Data-parallel inherits the shard's
//! edge skew, tensor-parallel is the balanced control, and `gat.selected`
//! pays compile + placement selection through `execute_sharded_layer`.

use std::collections::HashMap;

use wisegraph::core::sharded::{device_work_skew, execute_sharded_layer, select_placement};
use wisegraph::dfg::Dfg;
use wisegraph::graph::{Graph, ShardSpec};
use wisegraph::gtask::{partition, PartitionPlan, PartitionTable};
use wisegraph::kernels::cluster::compatible_placements;
use wisegraph::kernels::engine::Engine;
use wisegraph::kernels::micro::{compile, KernelProgram};
use wisegraph::kernels::{ClusterEngine, ClusterRun};
use wisegraph::models::ModelKind;
use wisegraph::sim::{Fabric, PlacementKind};
use wisegraph::tensor::Tensor;

use crate::harness::{median, time_median, Case, Config, Finish, Tracer, Workload};
use crate::inputs::{ar_graph, check_bits, model_globals, model_slug, F};

const F_OUT: usize = 32;
/// Simulated devices, one engine thread each.
const CLUSTER_DEVICES: usize = 2;
const MODELS: [ModelKind; 3] = [ModelKind::Gcn, ModelKind::Rgcn, ModelKind::Gat];
/// (case, index into `MODELS`, placement; `None` = selected per layer).
const CASES: [(&str, usize, Option<PlacementKind>); 4] = [
    ("gcn.data_parallel", 0, Some(PlacementKind::DataParallel)),
    (
        "gcn.tensor_parallel",
        0,
        Some(PlacementKind::TensorParallel),
    ),
    ("rgcn.data_parallel", 1, Some(PlacementKind::DataParallel)),
    ("gat.selected", 2, None),
];

pub struct ShardedD2 {
    g: Graph,
    globals: HashMap<String, Tensor>,
    plan: PartitionPlan,
    dfgs: Vec<Dfg>,
    programs: Vec<KernelProgram>,
    cluster: ClusterEngine,
    fabric: Fabric,
    last: Option<ClusterRun>,
    /// Per case: the warm-up step's output, then per traced step the share
    /// of device wall time spent blocked in receives, and the bytes sent.
    first: Vec<Option<Tensor>>,
    idle_share: Vec<Vec<f64>>,
    comm_mb: Vec<f64>,
}

impl ShardedD2 {
    fn single_engine(&self, engine: &Engine, model: usize) -> Tensor {
        engine
            .execute_program(
                &self.programs[model],
                &self.dfgs[model],
                &self.g,
                &self.plan,
                &self.globals,
            )
            .expect("single-engine run")
            .swap_remove(0)
    }

    fn on_cluster(
        &self,
        cluster: &ClusterEngine,
        model: usize,
        placement: PlacementKind,
    ) -> ClusterRun {
        cluster
            .execute_program(
                &self.programs[model],
                &self.dfgs[model],
                &self.g,
                &self.plan,
                &self.globals,
                placement,
            )
            .expect("cluster run")
    }
}

/// Largest shard's in-edge count over the mean, for an even vertex split.
fn edge_skew(g: &Graph, devices: usize) -> f64 {
    let spec = ShardSpec::new(g.num_vertices(), devices);
    let counts: Vec<usize> = (0..devices)
        .map(|d| spec.owned_dst_edges(g, d).len())
        .collect();
    *counts.iter().max().expect("devices > 0") as f64 / (g.num_edges() as f64 / devices as f64)
}

impl Workload for ShardedD2 {
    type Oracle = Vec<Tensor>;

    fn setup(cfg: &Config, tr: &Tracer) -> Self {
        let g = ar_graph(cfg);
        let globals = model_globals(&g, F, F_OUT, cfg.seed);
        let plan = tr.span("gtask.partition.vertex_centric", || {
            partition(&g, &PartitionTable::vertex_centric())
        });
        let dfgs: Vec<Dfg> = MODELS.iter().map(|m| m.layer_dfg(F, F_OUT)).collect();
        let programs = dfgs
            .iter()
            .map(|d| compile(d, &g).expect("model compiles"))
            .collect();
        ShardedD2 {
            g,
            globals,
            plan,
            dfgs,
            programs,
            cluster: ClusterEngine::new(CLUSTER_DEVICES, 1),
            fabric: Fabric::pcie4_quad(),
            last: None,
            first: vec![None; CASES.len()],
            idle_share: vec![Vec::new(); CASES.len()],
            comm_mb: vec![0.0; CASES.len()],
        }
    }

    fn cases(&self) -> Vec<Case> {
        CASES
            .iter()
            .map(|&(name, _, _)| Case {
                name,
                edges: self.g.num_edges(),
                layer_ms: Some(format!("kernels.cluster.{name}.d2_ms")),
            })
            .collect()
    }

    fn run(&mut self, case: usize, _step: u64, _tr: &Tracer) -> Result<(), String> {
        let (_, model, placement) = CASES[case];
        let run = match placement {
            Some(p) => self.cluster.execute_program(
                &self.programs[model],
                &self.dfgs[model],
                &self.g,
                &self.plan,
                &self.globals,
                p,
            ),
            None => execute_sharded_layer(
                &self.cluster,
                &self.dfgs[model],
                &self.g,
                &self.plan,
                &self.globals,
                &self.fabric,
                F,
                F_OUT,
                0,
            )
            .map(|(run, _)| run),
        };
        self.last = Some(run.map_err(|e| e.0)?);
        Ok(())
    }

    fn check(&mut self, case: usize, step: u64, tr: &Tracer) -> Result<(), String> {
        let run = self.last.take().ok_or("no output")?;
        if !run.exchange.is_conserved() {
            return Err("exchange log is not conserved".into());
        }
        self.comm_mb[case] = run.exchange.bytes_sent() as f64 / (1 << 20) as f64;
        if tr.is_on() && step > 0 {
            let report = run.attribution()?;
            let idle: u64 = report.devices.iter().map(|d| d.idle_wall_ns).sum();
            let wall: u64 = report
                .devices
                .iter()
                .map(|d| d.busy_wall_ns + d.exchange_wall_ns + d.idle_wall_ns)
                .sum();
            self.idle_share[case].push(idle as f64 / wall.max(1) as f64);
        }
        let out = run.outputs.into_iter().next().ok_or("no output tensor")?;
        // The warm-up output is held to the single engine bit for bit
        // (`check_oracle`), so equality with it is equality with the engine.
        match &self.first[case] {
            Some(first) => check_bits(&out, first),
            None => {
                self.first[case] = Some(out);
                Ok(())
            }
        }
    }

    fn oracle(&self) -> Vec<Tensor> {
        let engine = Engine::new(1);
        (0..MODELS.len())
            .map(|m| self.single_engine(&engine, m))
            .collect()
    }

    /// Halo (data-parallel, project-then-communicate) and tensor-parallel
    /// schedules move rows verbatim, so they reproduce the single-thread
    /// single engine bit for bit.
    fn check_oracle(&self, oracle: &Vec<Tensor>) -> Result<(), String> {
        for (case, &(name, model, _)) in CASES.iter().enumerate() {
            let got = self.first[case]
                .as_ref()
                .ok_or("warm-up step produced no output")?;
            check_bits(got, &oracle[model]).map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }

    fn finish(&mut self, cfg: &Config, f: &mut Finish) {
        if !cfg.trace {
            return;
        }
        let reps = cfg.scale.extra_reps;
        for (case, &(name, _, _)) in CASES.iter().enumerate() {
            f.set(
                format!("kernels.cluster.{name}.d2_idle_share"),
                median(&self.idle_share[case]),
            );
            f.set(
                format!("kernels.cluster.{name}.comm_mb"),
                self.comm_mb[case],
            );
        }
        f.set_from_span(
            "gtask.partition.vertex_centric.ms",
            "gtask.partition.vertex_centric",
        );
        f.set(
            "gtask.partition.vertex_centric.tasks",
            self.plan.num_tasks() as f64,
        );
        let g = &self.g;
        f.set("graph.shard.d2_edge_skew", edge_skew(g, 2));
        f.set("graph.shard.d4_edge_skew", edge_skew(g, 4));
        f.set(
            "graph.shard.d2_remote_unique_src",
            ShardSpec::new(g.num_vertices(), 2).max_remote_unique_src(g) as f64,
        );

        // † The plain single-thread engine each device count is up against.
        let single = Engine::new(1);
        for (model, kind) in MODELS.iter().enumerate() {
            let slug = model_slug(*kind);
            let t1 = time_median(f.tr, &format!("kernels.engine.{slug}.t1"), reps, || {
                self.single_engine(&single, model)
            });
            let case = CASES
                .iter()
                .position(|c| c.1 == model)
                .expect("every model has a case");
            f.set(
                format!("kernels.cluster.{slug}.d2_speedup_vs_t1"),
                t1 / f.case_ms[case],
            );
        }
        // † Placement selection alone, and what it selected for GAT against
        // the fastest placement GAT can run, measured.
        let gat = 2;
        let mut selected = PlacementKind::DataParallel;
        let select_ms = time_median(f.tr, "core.sharded.select_placement", reps, || {
            selected = select_placement(
                &self.programs[gat],
                g,
                &self.globals,
                CLUSTER_DEVICES,
                &self.fabric,
                F,
                F_OUT,
            )
            .placement;
        });
        f.set("core.sharded.select_placement_ms", select_ms);
        let mut selected_ms = f64::NAN;
        let mut best_ms = f64::INFINITY;
        for placement in compatible_placements(&self.programs[gat], g, &self.globals) {
            let ms = time_median(
                f.tr,
                &format!("kernels.cluster.gat.{}", placement.name()),
                reps,
                || self.on_cluster(&self.cluster, gat, placement),
            );
            best_ms = best_ms.min(ms);
            if placement == selected {
                selected_ms = ms;
            }
        }
        f.set("core.sharded.gat.selected_over_best", selected_ms / best_ms);

        // † Four devices exceed the cores of the box, so only counts: FLOP
        // skew per schedule and the logical critical path per model.
        for (placement, model) in [
            (PlacementKind::DataParallel, 0),
            (PlacementKind::TensorParallel, 0),
            (PlacementKind::ProjectThenCommunicate, gat),
        ] {
            let run =
                f.tr.span(&format!("kernels.cluster.d4.{}", placement.name()), || {
                    self.on_cluster(&ClusterEngine::new(4, 1), model, placement)
                });
            f.set(
                format!("kernels.cluster.{}.d4_flop_skew", placement.name()),
                device_work_skew(&run.per_device),
            );
        }
        for (model, kind) in MODELS.iter().enumerate() {
            let run = self.on_cluster(
                &ClusterEngine::new(4, 1),
                model,
                PlacementKind::DataParallel,
            );
            let report = run.attribution().expect("attribution analyzes");
            let slug = model_slug(*kind);
            f.set(
                format!("obs.critical.{slug}.d4_makespan"),
                report.makespan as f64,
            );
            f.set(
                format!("obs.critical.{slug}.d4_headroom"),
                report.headroom_total() as f64,
            );
        }
    }
}
