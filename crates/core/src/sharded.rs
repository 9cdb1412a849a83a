//! Sharded multi-device execution with optimizer-selected placement.
//!
//! This is the executable end of the §5.4 story: the graph is partitioned
//! across N simulated devices (each a real engine on its own thread,
//! `wisegraph_kernels::cluster`), and the *placement* of communication
//! relative to computation is chosen per layer by the same
//! changing-data-volume arithmetic the closed-form cost model uses
//! ([`wisegraph_sim::PlacementVolumes`], also behind
//! [`wisegraph_baselines::MultiGpuSystem::layer_time`]). The selector
//! only considers schedules the compiled program can actually run
//! ([`compatible_placements`]), which is where the executed path goes
//! beyond the closed form: tensor parallelism needs a sliceable weight,
//! compute-then-reduce needs a prologue-free source-gathering program.

use std::collections::HashMap;

use wisegraph_dfg::Dfg;
use wisegraph_graph::{Graph, ShardSpec};
use wisegraph_gtask::PartitionPlan;
use wisegraph_kernels::cluster::{compatible_placements, ClusterEngine, ClusterRun};
use wisegraph_kernels::micro::{compile, CompileError, KernelProgram};
use wisegraph_obs::{keys, span, Counters};
use wisegraph_sim::{Fabric, PlacementKind, PlacementVolumes};
use wisegraph_tensor::Tensor;

/// The outcome of pricing a layer's compatible placements.
#[derive(Clone, Debug)]
pub struct PlacementChoice {
    /// The selected (cheapest-communication) schedule.
    pub placement: PlacementKind,
    /// Its fabric-priced communication time (seconds).
    pub comm_time: f64,
    /// Every compatible candidate with its priced communication time, in
    /// [`PlacementKind::ALL`] order.
    pub candidates: Vec<(PlacementKind, f64)>,
}

/// Prices every placement the compiled `program` can run and returns the
/// cheapest, using the shared Figure-11 volume arithmetic with the largest
/// per-device remote-unique source count of the cluster's `devices`-way
/// vertex ownership ([`ShardSpec::balanced`]). `f_in`/`f_out` are the
/// layer's embedding widths; the accumulator width comes from the program
/// itself.
///
/// # Panics
///
/// Panics if `devices` is zero.
pub fn select_placement(
    program: &KernelProgram,
    g: &Graph,
    globals: &HashMap<String, Tensor>,
    devices: usize,
    fabric: &Fabric,
    f_in: usize,
    f_out: usize,
) -> PlacementChoice {
    let remote = ShardSpec::balanced(g, devices).max_remote_unique_src(g) as f64;
    price_placements(program, g, globals, devices, remote, fabric, f_in, f_out)
}

/// [`select_placement`] given the halo size `remote`.
#[allow(clippy::too_many_arguments)]
fn price_placements(
    program: &KernelProgram,
    g: &Graph,
    globals: &HashMap<String, Tensor>,
    devices: usize,
    remote: f64,
    fabric: &Fabric,
    f_in: usize,
    f_out: usize,
) -> PlacementChoice {
    let mut sp = span!("sharded.select_placement", devices = devices);
    let vols = PlacementVolumes::new(remote, g.num_vertices(), f_in, f_out, program.out_width);
    let compat = compatible_placements(program, g, globals);
    let candidates: Vec<(PlacementKind, f64)> = compat
        .iter()
        .map(|&p| (p, vols.comm_time(p, fabric)))
        .collect();
    let (placement, comm_time) = vols.best(&compat, fabric);
    // Span args are numeric; record the candidate's ALL-order index.
    sp.arg(
        "placement",
        PlacementKind::ALL.iter().position(|&p| p == placement).unwrap_or(0) as u64,
    );
    PlacementChoice {
        placement,
        comm_time,
        candidates,
    }
}

/// Compiles model layer `layer`, selects the cheapest compatible
/// placement for the cluster's device count, and executes it. `layer` is
/// stamped on the cluster's phase spans and timeline segments
/// ([`ClusterEngine::set_layer`]) so per-layer overlap
/// headroom in the [`ClusterRun::attribution`] report names the layer
/// that could have posted its sends earlier; single-layer runs pass 0.
///
/// # Errors
///
/// Fails if the DFG does not compile or the selected schedule's runtime
/// preconditions fail (see [`ClusterEngine::execute`]).
///
/// # Panics
///
/// Panics if a device or worker thread panics.
#[allow(clippy::too_many_arguments)]
pub fn execute_sharded_layer(
    cluster: &ClusterEngine,
    dfg: &Dfg,
    g: &Graph,
    plan: &PartitionPlan,
    globals: &HashMap<String, Tensor>,
    fabric: &Fabric,
    f_in: usize,
    f_out: usize,
    layer: u32,
) -> Result<(ClusterRun, PlacementChoice), CompileError> {
    let mut sp = span!(
        "sharded.execute",
        devices = cluster.devices(),
        layer = layer
    );
    let program = compile(dfg, g)?;
    // The halo size comes from the shard state the cluster holds for this
    // (graph, plan) — the same state the run below executes from.
    let choice = price_placements(
        &program,
        g,
        globals,
        cluster.devices(),
        cluster.max_remote_unique_src(g, plan) as f64,
        fabric,
        f_in,
        f_out,
    );
    cluster.set_layer(layer);
    let run = cluster.execute_program(&program, dfg, g, plan, globals, choice.placement)?;
    sp.arg("comm_bytes", run.exchange.bytes_sent());
    Ok((run, choice))
}

/// Max-over-mean device work ratio from per-device counter snapshots,
/// measured in kernel FLOPs (1.0 = perfectly balanced). Tensor
/// parallelism splits columns instead of vertices, so it sits at ~1.0
/// where graph-partition schedules inherit the shard skew.
pub fn device_work_skew(per_device: &[Counters]) -> f64 {
    let flops: Vec<u64> = per_device
        .iter()
        .map(|c| c.count(keys::KERNEL_FLOPS))
        .collect();
    let max = flops.iter().copied().max().unwrap_or(0) as f64;
    let mean = flops.iter().sum::<u64>() as f64 / flops.len().max(1) as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_gtask::{partition, PartitionTable};
    use wisegraph_models::ModelKind;
    use wisegraph_tensor::init;

    #[test]
    fn selection_agrees_with_the_executed_run() {
        let g = rmat(&RmatParams::standard(120, 950, 31));
        let (f_in, f_out) = (6, 4);
        let dfg = ModelKind::Gcn.layer_dfg(f_in, f_out);
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), f_in], -1.0, 1.0, 91),
        );
        globals.insert(
            "w".to_string(),
            init::uniform_tensor(&[f_in, f_out], -1.0, 1.0, 92),
        );
        let cluster = ClusterEngine::new(2, 2);
        let fabric = Fabric::pcie4_quad();
        let (run, choice) = execute_sharded_layer(
            &cluster, &dfg, &g, &plan, &globals, &fabric, f_in, f_out, 0,
        )
        .expect("sharded run");
        assert_eq!(run.placement, choice.placement);
        assert!(run.exchange.is_conserved());
        assert!(choice
            .candidates
            .iter()
            .all(|&(_, t)| t >= choice.comm_time));
        assert!(device_work_skew(&run.per_device) >= 1.0);
    }
}
