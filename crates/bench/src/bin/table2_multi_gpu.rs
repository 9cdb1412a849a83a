//! Table 2 — multi-GPU training epoch time (seconds) on 4× A100 / PCIe 4.0.
//!
//! Full-graph training on PA and FS (hidden 32), sampled-graph training on
//! PA-S and FS-S (hidden 256, one epoch = enough iterations to cover the
//! training set with 1000 seeds each). `N/A` marks systems that do not
//! support the mode (ROC/DGCL are full-graph systems; P3 targets sampled
//! training), as in the paper.
//!
//! Expected shape: WiseGraph fastest everywhere; ~2.27× over the best
//! baseline for full-graph, ~1.83× for sampled.
//!
//! A second section leaves the cost model and *actually runs* the sharded
//! executor (`wisegraph_kernels::cluster`) on the PA-S analogue graph at
//! 1/2/4 simulated devices: the joint optimizer picks the placement
//! schedule, real buffers move through the deterministic collectives, and
//! each row reports the schedule chosen, the bytes exchanged, the
//! per-device work skew, and a repeat-run bit-identity check.

use std::collections::HashMap;

use wisegraph_baselines::single::LayerDims;
use wisegraph_baselines::{MultiGpuSystem, MultiStack};
use wisegraph_bench::{build_dataset, fmt_s, geomean, print_table};
use wisegraph_core::sharded::{device_work_skew, execute_sharded_layer};
use wisegraph_graph::DatasetKind;
use wisegraph_gtask::{partition, PartitionTable};
use wisegraph_kernels::ClusterEngine;
use wisegraph_models::ModelKind;
use wisegraph_tensor::init;

fn main() {
    let stack = MultiStack::paper_quad();
    let model = ModelKind::Sage;
    let mut rows = Vec::new();
    let mut full_speedups = Vec::new();
    let mut sampled_speedups = Vec::new();

    let configs = [
        (DatasetKind::Papers, false),
        (DatasetKind::FriendSter, false),
        (DatasetKind::PapersSample, true),
        (DatasetKind::FriendSterSample, true),
    ];
    for (kind, sampled) in configs {
        let (g, spec) = build_dataset(kind);
        let dims = LayerDims {
            f_in: spec.feature_dim,
            hidden: if sampled { 256 } else { 32 },
            classes: spec.num_classes,
            layers: 3,
        };
        // Full-graph: one iteration per epoch; sampled: the training set
        // (60% of vertices) visited 1000 seeds at a time.
        let iters_per_epoch = if sampled {
            (spec.paper_vertices as f64 * 0.6 / 1000.0).max(1.0)
        } else {
            1.0
        };
        // Per-iteration work scales with graph size for full-graph
        // training; a sampled iteration is fixed-size (defined by seeds ×
        // fan-out), so only the iteration count scales.
        let scale = if sampled { 1.0 } else { spec.scale() };

        let mut row = vec![spec.kind.short_name().to_string()];
        let mut best = f64::INFINITY;
        for sys in MultiGpuSystem::BASELINES {
            if !sys.supports(sampled) {
                row.push("N/A".to_string());
                continue;
            }
            let t = sys.iteration_time(&g, model, &dims, &stack) * scale * iters_per_epoch;
            best = best.min(t);
            row.push(fmt_s(t));
        }
        let t_ours = MultiGpuSystem::WiseGraph.iteration_time(&g, model, &dims, &stack)
            * scale
            * iters_per_epoch;
        row.push(fmt_s(t_ours));
        rows.push(row);
        if sampled {
            sampled_speedups.push(best / t_ours);
        } else {
            full_speedups.push(best / t_ours);
        }
    }
    print_table(
        "Table 2: multi-GPU training epoch time (s), 4x A100 / PCIe 4.0",
        &["Dataset", "DGL", "ROC", "DGCL", "P3", "WiseGraph"],
        &rows,
    );
    println!(
        "\nSpeedup over best baseline: full-graph {:.2}x (paper: 2.27x), \
         sampled {:.2}x (paper: 1.83x)",
        geomean(&full_speedups),
        geomean(&sampled_speedups)
    );

    // Side experiment from §7.2: full-graph *inference* on PA vs MGG
    // (paper: 8.71 s WiseGraph vs 25.24 s MGG, 2.90×).
    let (g, spec) = build_dataset(DatasetKind::Papers);
    let dims = LayerDims {
        f_in: spec.feature_dim,
        hidden: 32,
        classes: spec.num_classes,
        layers: 3,
    };
    let mgg = MultiGpuSystem::Mgg.forward_time(&g, model, &dims, &stack) * spec.scale();
    let ours_inf = MultiGpuSystem::WiseGraph.forward_time(&g, model, &dims, &stack) * spec.scale();
    println!(
        "\nFull-graph inference on PA: MGG {:.2} s vs WiseGraph {:.2} s \
         ({:.2}x; paper: 25.24 s vs 8.71 s, 2.90x)",
        mgg,
        ours_inf,
        mgg / ours_inf
    );

    // Real sharded runs: one SAGE layer on the PA-S analogue, executed on
    // an actual device cluster per device count. The optimizer selects
    // the placement from the shared Figure-11 volumes; each run repeats
    // once to pin the collectives' bit determinism in the artifact.
    let (g, _spec) = build_dataset(DatasetKind::PapersSample);
    let (fi, fo) = (16usize, 32usize);
    let kind = ModelKind::Sage;
    let dfg = kind.layer_dfg(fi, fo);
    let plan = partition(&g, &PartitionTable::vertex_centric());
    let mut globals = HashMap::new();
    globals.insert(
        "h".to_string(),
        init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 21),
    );
    globals.insert(
        "w_self".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 22),
    );
    globals.insert(
        "w_neigh".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 23),
    );
    let mut shard_rows = Vec::new();
    for devices in [1usize, 2, 4] {
        let fabric = &stack.fabric;
        let cluster = ClusterEngine::new(devices, 2);
        let (run, choice) =
            execute_sharded_layer(&cluster, &dfg, &g, &plan, &globals, fabric, fi, fo, 0)
                .expect("sharded PA-S run executes");
        let repeat_cluster = ClusterEngine::new(devices, 2);
        let (again, _) = execute_sharded_layer(
            &repeat_cluster, &dfg, &g, &plan, &globals, fabric, fi, fo, 0,
        )
        .expect("sharded PA-S rerun executes");
        let identical = run
            .outputs
            .iter()
            .zip(again.outputs.iter())
            .all(|(a, b)| a.data() == b.data());
        assert!(identical, "sharded run not deterministic at {devices} devices");
        shard_rows.push(vec![
            devices.to_string(),
            choice.placement.name().to_string(),
            run.exchange.bytes_sent().to_string(),
            format!("{:.2}", device_work_skew(&run.per_device)),
            "yes".to_string(),
        ]);
    }
    print_table(
        "Real sharded execution: SAGE on PA-S analogue, optimizer-selected placement",
        &[
            "Devices",
            "Placement",
            "Comm bytes",
            "Device skew",
            "Repeat bit-identical",
        ],
        &shard_rows,
    );
}
