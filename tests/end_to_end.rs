//! Cross-crate integration tests: the full WiseGraph pipeline from graph
//! data to optimized plans, execution, and training.

use wisegraph::baselines::{Baseline, LayerDims};
use wisegraph::core::plan::{ExecutionPlan, OpPartitionKind, Patterns};
use wisegraph::core::WiseGraph;
use wisegraph::dfg::interp::execute;
use wisegraph::dfg::Binding;
use wisegraph::graph::generate::{labeled_graph, rmat, LabeledParams, RmatParams};
use wisegraph::graph::Graph;
use wisegraph::gtask::{classify_outliers, partition, PartitionTable, Recount};
use wisegraph::models::ModelKind;
use wisegraph::sim::DeviceSpec;
use wisegraph::tensor::{init, Tensor};
use std::collections::HashMap;

fn test_graph(seed: u64) -> Graph {
    rmat(&RmatParams::standard(3000, 40_000, seed).with_edge_types(6))
}

/// The headline pipeline: optimize every model on a power-law graph and
/// beat the strongest baseline.
#[test]
fn full_pipeline_beats_baselines_for_every_model() {
    let g = test_graph(1);
    let dev = DeviceSpec::a100_pcie();
    let dims = LayerDims::paper_single(64, 16);
    let wg = WiseGraph::new(dev);
    for model in ModelKind::ALL {
        let ours = wg.optimize(&g, model, &dims);
        assert!(!ours.oom, "{} should fit", model.name());
        let best = Baseline::columns_for(model)
            .into_iter()
            .map(|b| b.estimate(&g, model, &dims, &dev).time_per_iter)
            .fold(f64::INFINITY, f64::min);
        assert!(
            ours.time_per_iter < best,
            "{}: ours {} vs best baseline {}",
            model.name(),
            ours.time_per_iter,
            best
        );
    }
}

/// Transformed plans must stay numerically equivalent to the naive DFG
/// when executed by the interpreter — across all models with dense inputs.
#[test]
fn optimized_plans_execute_equivalently() {
    let g = test_graph(2);
    let binding = Binding::from_graph(&g);
    let (fi, fo) = (6, 5);
    for model in [ModelKind::Rgcn, ModelKind::Gcn, ModelKind::Sage] {
        let dfg = model.layer_dfg(fi, fo);
        let plan = ExecutionPlan::build(
            &g,
            PartitionTable::src_batch_per_type(16),
            &dfg,
            OpPartitionKind::Fused,
        );
        let mut inputs: HashMap<String, Tensor> = HashMap::new();
        inputs.insert(
            "h".into(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 3),
        );
        inputs.insert(
            "W".into(),
            init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 4),
        );
        inputs.insert("w".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 5));
        inputs.insert(
            "w_self".into(),
            init::uniform_tensor(&[fi, fo], -1.0, 1.0, 6),
        );
        inputs.insert(
            "w_neigh".into(),
            init::uniform_tensor(&[fi, fo], -1.0, 1.0, 7),
        );
        let base = &execute(&dfg, &g, &inputs).unwrap()[0];
        let opt = &execute(&plan.dfg, &g, &inputs).unwrap()[0];
        assert!(
            base.allclose(opt, 1e-3),
            "{}: transformed plan diverges by {}",
            model.name(),
            base.max_abs_diff(opt)
        );
        let _ = binding.edges;
    }
}

/// The greedy partitioner, outlier classifier, and scheduler compose
/// without losing edges — across a grid of tables.
#[test]
fn partition_outlier_schedule_composition() {
    let g = test_graph(3);
    let dev = DeviceSpec::a100_pcie();
    let binding = Binding::from_graph(&g);
    let mut recount = Recount::new(&g);
    for table in [
        PartitionTable::vertex_centric(),
        PartitionTable::src_batch_per_type(32),
        PartitionTable::two_d(8),
        PartitionTable::dst_batch_min_degree(16),
        PartitionTable::edge_batch(64),
    ] {
        let plan = partition(&g, &table);
        assert_eq!(plan.total_edges(), g.num_edges(), "{table}");
        let classes = classify_outliers(&mut recount, &plan);
        assert_eq!(classes.len(), plan.num_tasks());
        let dfg = ModelKind::Gcn.layer_dfg(16, 16);
        let patterns = Patterns::count(&mut recount, &plan, &dfg);
        let eplan = ExecutionPlan::new(&patterns, plan, dfg, OpPartitionKind::Fused);
        let cmp =
            wisegraph::core::joint::compare_scheduling(&eplan, &binding, &mut recount, &dev);
        assert!(cmp.differentiated <= cmp.uniform * 1.001, "{table}");
    }
}

/// Real training on a labeled graph converges for all trainable models.
#[test]
fn training_converges_end_to_end() {
    use wisegraph::core::trainer::train_full_graph;
    use wisegraph::models::{Gat, Gcn, GnnModel, Rgcn, Sage};
    let data = labeled_graph(&LabeledParams {
        num_vertices: 400,
        num_classes: 5,
        feature_dim: 16,
        num_edge_types: 3,
        homophily: 0.85,
        noise: 0.6,
        seed: 17,
        ..Default::default()
    });
    let dims = [16usize, 24, 5];
    let mut models: Vec<Box<dyn GnnModel>> = vec![
        Box::new(Gcn::new(&dims, 1)),
        Box::new(Sage::new(&dims, 2)),
        Box::new(Gat::new(&dims, 3)),
        Box::new(Rgcn::new(&dims, 3, 4)),
    ];
    for model in &mut models {
        let stats = train_full_graph(model.as_mut(), &data, 25, 0.01);
        let last = stats.last().unwrap();
        assert!(
            last.loss < stats[0].loss,
            "{}: loss did not drop",
            model.name()
        );
        assert!(
            last.test_accuracy > 0.5,
            "{}: accuracy {}",
            model.name(),
            last.test_accuracy
        );
    }
}

/// OOM detection: a Reddit-scale tensor-centric plan must not fit, while
/// WiseGraph's fused plan must.
#[test]
fn memory_pressure_differentiates_systems() {
    use wisegraph::graph::DatasetKind;
    let spec = DatasetKind::Reddit.spec();
    let g = spec.build();
    let dev = DeviceSpec::a100_pcie();
    let dims = LayerDims::paper_single(spec.feature_dim, spec.num_classes);
    let pyg = Baseline::PygT.estimate(&g, ModelKind::Gat, &dims, &dev);
    assert!(
        pyg.memory_bytes * spec.scale() > dev.mem_capacity,
        "tensor-centric GAT must exceed device memory at full scale"
    );
    let wg = WiseGraph::new(dev);
    let ours = wg.optimize(&g, ModelKind::Gat, &dims);
    assert!(
        ours.memory_bytes * spec.scale() < dev.mem_capacity,
        "WiseGraph's fused plan must fit: {} bytes",
        ours.memory_bytes * spec.scale()
    );
}

/// Multi-GPU: WiseGraph's placement is never worse than both static
/// strategies on any layer shape.
#[test]
fn placement_lower_envelope() {
    use wisegraph::baselines::{MultiGpuSystem, MultiStack};
    let g = test_graph(4);
    let stack = MultiStack::paper_quad();
    for f_in in [32usize, 128, 512] {
        for hidden in [16usize, 64, 256] {
            let time = |sys: MultiGpuSystem| {
                let (_, t) = sys.layer_time(&g, ModelKind::Gcn, 0, (f_in, hidden), &stack);
                t
            };
            let ours = time(MultiGpuSystem::WiseGraph);
            let dgl = time(MultiGpuSystem::Dgl);
            let p3 = time(MultiGpuSystem::P3);
            assert!(
                ours <= dgl.min(p3) * 1.001,
                "f_in {f_in} hidden {hidden}: ours {ours}, dgl {dgl}, p3 {p3}"
            );
        }
    }
}
