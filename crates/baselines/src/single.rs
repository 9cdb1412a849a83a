//! Single-GPU baseline executors (the columns of Figure 13).

use wisegraph_dfg::Binding;
use wisegraph_graph::Graph;
use wisegraph_kernels::{
    generate::{boundary_bytes, generate_kernels, total_time},
    KernelContext, OpPartition,
};
use wisegraph_models::ModelKind;
use wisegraph_sim::{ComputeClass, DeviceSpec, KernelCost};

/// Forward + backward cost multiplier, assumed rather than measured: the
/// backward pass replays roughly the forward workload twice (gradients
/// w.r.t. inputs and weights). On the training path each aggregation's
/// input gradient is one more walk of its forward, over the out-edge CSR
/// rows instead of the in-edge ones (`wisegraph_kernels::train`).
pub const TRAIN_FACTOR: f64 = 3.0;

/// Layer configuration of the evaluated models (paper: 3 layers, hidden 256
/// for single-GPU; hidden 32 for multi-GPU full graph).
#[derive(Clone, Copy, Debug)]
pub struct LayerDims {
    /// Input feature dimension (Table 1 "Dim.").
    pub f_in: usize,
    /// Hidden dimension.
    pub hidden: usize,
    /// Output classes.
    pub classes: usize,
    /// Number of layers.
    pub layers: usize,
}

impl LayerDims {
    /// The paper's single-GPU setting: 3 layers, hidden 256.
    pub fn paper_single(f_in: usize, classes: usize) -> Self {
        Self {
            f_in,
            hidden: 256,
            classes,
            layers: 3,
        }
    }

    /// The `(f_in, f_out)` widths of layer `l`.
    pub fn layer_io(&self, l: usize) -> (usize, usize) {
        let fi = if l == 0 { self.f_in } else { self.hidden };
        let fo = if l + 1 == self.layers {
            self.classes
        } else {
            self.hidden
        };
        (fi, fo)
    }
}

/// Outcome of estimating one system on one workload.
#[derive(Clone, Copy, Debug)]
pub struct ExecutionEstimate {
    /// Per-training-iteration time in seconds (at the generated graph's
    /// scale; harnesses multiply by the dataset scale factor).
    pub time_per_iter: f64,
    /// Peak device memory in bytes.
    pub memory_bytes: f64,
    /// Whether the plan exceeds device memory.
    pub oom: bool,
}

/// The single-GPU baseline systems.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// PyTorch Geometric: tensor-centric, one kernel per operation, full
    /// materialization of per-edge tensors.
    PygT,
    /// DGL: tensor-centric for complex models (with fused message kernels
    /// and segmented GEMMs), graph-centric fused aggregation for simple
    /// models.
    Dgl,
    /// Seastar: vertex-centric, everything fused, edge-by-edge neural ops.
    SeastarG,
    /// GNNAdvisor: vertex-centric with neighbor grouping (small batches).
    GnnAdvisorG,
    /// TC-GNN: sparse-to-dense tiles driving tensor cores.
    TcgnnG,
}

impl Baseline {
    /// The columns of Figure 13 for a given model (complex models are only
    /// compared against PyG, DGL and Seastar; simple models add GNNAdvisor
    /// and TC-GNN).
    pub fn columns_for(model: ModelKind) -> Vec<Baseline> {
        match model {
            ModelKind::SageLstm => vec![Baseline::PygT, Baseline::Dgl],
            ModelKind::Rgcn | ModelKind::Gat => {
                vec![Baseline::PygT, Baseline::Dgl, Baseline::SeastarG]
            }
            ModelKind::Sage | ModelKind::Gcn => vec![
                Baseline::PygT,
                Baseline::Dgl,
                Baseline::GnnAdvisorG,
                Baseline::SeastarG,
                Baseline::TcgnnG,
            ],
        }
    }

    /// Display name with partition-method suffix, as in Figure 13's x-axis.
    pub fn label(self, model: ModelKind) -> &'static str {
        match self {
            Baseline::PygT => "PyG-T",
            Baseline::Dgl => {
                if model.is_complex() {
                    "DGL-T"
                } else {
                    "DGL-G"
                }
            }
            Baseline::SeastarG => "Seastar-G",
            Baseline::GnnAdvisorG => "GNNA-G",
            Baseline::TcgnnG => "TCGNN-G",
        }
    }

    /// Estimates one training iteration of `model` on `g`.
    pub fn estimate(
        self,
        g: &Graph,
        model: ModelKind,
        dims: &LayerDims,
        dev: &DeviceSpec,
    ) -> ExecutionEstimate {
        let binding = Binding::from_graph(g);
        let mut time = 0.0;
        let mut transient: f64 = 0.0;
        for l in 0..dims.layers {
            let (fi, fo) = dims.layer_io(l);
            let dfg = model.layer_dfg(fi, fo);
            let (layer_time, layer_bytes) = match self {
                Baseline::PygT => {
                    if model == ModelKind::Rgcn {
                        // PyG's RGCNConv loops over relations: one
                        // gather / matmul / scatter triple per type (no
                        // [E, F, F'] weight materialization, but 3·T
                        // launches and unsorted accesses).
                        pyg_rgcn_stream(g, fi, fo, dev)
                    } else {
                        let part = OpPartition::separate(&dfg);
                        let mut ctx = KernelContext::tensor_centric();
                        if model == ModelKind::SageLstm {
                            // PyG batches arbitrary 64-vertex chunks.
                            ctx.batch_rows = 64;
                            ctx = ctx.with_lstm_padding(chunked_lstm_padding(g, 64));
                        }
                        let ks = generate_kernels(&dfg, &binding, &part, &ctx);
                        (total_time(dev, &ks), boundary_bytes(&dfg, &binding, &part))
                    }
                }
                Baseline::Dgl => {
                    if model == ModelKind::Rgcn {
                        dgl_rgcn_stream(g, fi, fo, dev)
                    } else {
                        let part = OpPartition::dense_separate_rest_fused(&dfg);
                        // DGL's gSpMM is CSR-based: it accumulates per
                        // destination row and writes it once.
                        let dst_rows =
                            g.in_degree().iter().filter(|&&d| d > 0).count();
                        let mut ctx = KernelContext::tensor_centric()
                            .with_scatter_dedup(
                                dst_rows as f64 / g.num_edges().max(1) as f64,
                            );
                        if model == ModelKind::SageLstm {
                            // DGL's degree bucketing batches ~64 sequences
                            // per bucket and pads less than raw batching,
                            // but still pays within-bucket waste.
                            ctx.batch_rows = 64;
                            ctx = ctx.with_lstm_padding(
                                1.0 + 0.5 * (chunked_lstm_padding(g, 64) - 1.0),
                            );
                        }
                        let ks = generate_kernels(&dfg, &binding, &part, &ctx);
                        (total_time(dev, &ks), boundary_bytes(&dfg, &binding, &part))
                    }
                }
                Baseline::SeastarG => {
                    let part = OpPartition::fused(&dfg);
                    // Vertex-centric: per-destination accumulation on chip.
                    let dst_rows = g.in_degree().iter().filter(|&&d| d > 0).count();
                    let ctx = KernelContext::graph_centric(g.num_vertices() as f64)
                        .with_scatter_dedup(dst_rows as f64 / g.num_edges().max(1) as f64);
                    let ks = generate_kernels(&dfg, &binding, &part, &ctx);
                    (total_time(dev, &ks), boundary_bytes(&dfg, &binding, &part))
                }
                Baseline::GnnAdvisorG => {
                    // Neighbor grouping: small fixed batches of edges per
                    // thread group, sorted for coalescing; destination-major
                    // like vertex-centric.
                    let part = OpPartition::fused(&dfg);
                    let dst_rows = g.in_degree().iter().filter(|&&d| d > 0).count();
                    let ctx = KernelContext {
                        num_tasks: (g.num_edges() as f64 / 4.0).max(1.0),
                        batch_rows: 4,
                        coalesced: true,
                        onchip_rows: 256,
                        lstm_padding: 1.0,
                        gather_dedup: 1.0,
                        scatter_dedup: (dst_rows as f64
                            / g.num_edges().max(1) as f64)
                            .clamp(0.0, 1.0),
                    };
                    let ks = generate_kernels(&dfg, &binding, &part, &ctx);
                    (total_time(dev, &ks), boundary_bytes(&dfg, &binding, &part))
                }
                Baseline::TcgnnG => {
                    // Sparse-to-dense 16×16 tiles: tensor cores but padded
                    // tiles inflate the effective workload; tiles are
                    // destination-major, so scatters accumulate per row.
                    let part = OpPartition::fused(&dfg);
                    let dst_rows = g.in_degree().iter().filter(|&&d| d > 0).count();
                    let ctx = KernelContext {
                        num_tasks: (g.num_edges() as f64 / 16.0).max(1.0),
                        batch_rows: 16,
                        coalesced: true,
                        onchip_rows: 256,
                        lstm_padding: 1.0,
                        gather_dedup: 1.0,
                        scatter_dedup: (dst_rows as f64
                            / g.num_edges().max(1) as f64)
                            .clamp(0.0, 1.0),
                    };
                    let mut ks = generate_kernels(&dfg, &binding, &part, &ctx);
                    for k in &mut ks {
                        k.cost.flops *= 1.5; // tile padding overhead
                        k.cost.bytes *= 1.3;
                    }
                    (total_time(dev, &ks), boundary_bytes(&dfg, &binding, &part))
                }
            };
            time += layer_time;
            transient = transient.max(layer_bytes);
        }
        let persistent = persistent_bytes(g, dims);
        let memory = persistent + transient;
        ExecutionEstimate {
            time_per_iter: time * TRAIN_FACTOR,
            memory_bytes: memory,
            oom: memory > dev.mem_capacity,
        }
    }
}

/// Persistent memory: graph topology, input features, per-layer activations
/// kept for the backward pass, and weights.
pub fn persistent_bytes(g: &Graph, dims: &LayerDims) -> f64 {
    let v = g.num_vertices() as f64;
    let mut bytes = g.topology_bytes() as f64 + v * dims.f_in as f64 * 4.0;
    for l in 0..dims.layers {
        let (fi, fo) = dims.layer_io(l);
        bytes += v * fo as f64 * 4.0; // activations
        bytes += (fi * fo) as f64 * 4.0 * g.num_edge_types() as f64; // weights
    }
    bytes
}

/// LSTM padding of id-ordered vertex batches of `chunk` destinations: the
/// DGL/PyG degree-bucketing ignores gTask-style degree sorting, so every
/// batch pads to its longest sequence.
pub fn chunked_lstm_padding(g: &Graph, chunk: usize) -> f64 {
    let degs = g.in_degree();
    let mut weighted = 0.0f64;
    let mut total = 0.0f64;
    for c in degs.chunks(chunk.max(1)) {
        let max = c.iter().copied().max().unwrap_or(0) as f64;
        let sum: f64 = c.iter().map(|&d| d as f64).sum();
        if sum == 0.0 {
            continue;
        }
        let mean = sum / c.len() as f64;
        weighted += (max / mean) * sum;
        total += sum;
    }
    if total > 0.0 {
        weighted / total
    } else {
        1.0
    }
}

/// Forward compute time of one layer under the DGL strategy — the shared
/// per-device compute term of the multi-GPU estimates.
pub fn layer_compute_time(
    g: &Graph,
    model: ModelKind,
    fi: usize,
    fo: usize,
    dev: &DeviceSpec,
) -> f64 {
    if model == ModelKind::Rgcn {
        return dgl_rgcn_stream(g, fi, fo, dev).0;
    }
    let binding = Binding::from_graph(g);
    let dfg = model.layer_dfg(fi, fo);
    let part = OpPartition::dense_separate_rest_fused(&dfg);
    let ctx = KernelContext::tensor_centric();
    let ks = generate_kernels(&dfg, &binding, &part, &ctx);
    total_time(dev, &ks)
}

/// PyG's RGCN execution: per relation, a gather / dense-matmul / scatter
/// triple over that relation's edges. More kernel launches and less
/// coalescing than DGL's segmented GEMM, same `[E, F] + [E, F']`
/// materialization.
fn pyg_rgcn_stream(g: &Graph, fi: usize, fo: usize, dev: &DeviceSpec) -> (f64, f64) {
    let t = g.num_edge_types();
    let mut per_type = vec![0usize; t];
    for &ty in g.etype() {
        per_type[ty as usize] += 1;
    }
    let mut time = 0.0;
    for &et in &per_type {
        if et == 0 {
            continue;
        }
        let et = et as f64;
        let gather = KernelCost {
            flops: 0.0,
            bytes: et * fi as f64 * 4.0 * 2.0,
            parallel_tasks: et / 64.0,
            class: ComputeClass::Memory { coalesced: false },
        };
        let mm = KernelCost {
            flops: 2.0 * et * fi as f64 * fo as f64,
            bytes: (et * (fi + fo) as f64 + (fi * fo) as f64) * 4.0,
            parallel_tasks: et / 64.0,
            class: ComputeClass::DenseMatmul,
        };
        let scatter = KernelCost {
            flops: et * fo as f64,
            bytes: et * fo as f64 * 4.0 * 2.0,
            parallel_tasks: et / 64.0,
            class: ComputeClass::Memory { coalesced: false },
        };
        time += dev.kernel_time(&gather) + dev.kernel_time(&mm) + dev.kernel_time(&scatter);
    }
    let e = g.num_edges() as f64;
    (time, e * (fi + fo) as f64 * 4.0)
}

/// DGL's RGCN execution: gather, per-type segmented GEMMs (no per-edge
/// weight materialization), scatter-add — the "high-level fused" stream DGL
/// v1.0 runs for heterogeneous linear layers.
fn dgl_rgcn_stream(g: &Graph, fi: usize, fo: usize, dev: &DeviceSpec) -> (f64, f64) {
    let e = g.num_edges() as f64;
    let t = g.num_edge_types() as f64;
    let gather = KernelCost {
        flops: 0.0,
        bytes: e * fi as f64 * 4.0 * 2.0,
        parallel_tasks: e / 64.0,
        class: ComputeClass::Memory { coalesced: false },
    };
    let segmented_mm = KernelCost {
        flops: 2.0 * e * fi as f64 * fo as f64,
        bytes: (e * (fi + fo) as f64 + t * (fi * fo) as f64) * 4.0,
        parallel_tasks: e / 64.0,
        class: ComputeClass::DenseMatmul,
    };
    let scatter = KernelCost {
        flops: e * fo as f64,
        bytes: e * fo as f64 * 4.0 * 2.0,
        parallel_tasks: e / 64.0,
        class: ComputeClass::Memory { coalesced: false },
    };
    let time = dev.kernel_time(&gather)
        + dev.kernel_time(&segmented_mm)
        + dev.kernel_time(&scatter);
    // Materializes [E, fi] and [E, fo] (but never [E, fi, fo]).
    let bytes = e * (fi + fo) as f64 * 4.0;
    (time, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::DatasetKind;

    fn arxiv() -> Graph {
        DatasetKind::Arxiv.spec().build()
    }

    #[test]
    fn tensor_centric_beats_graph_centric_on_complex_models() {
        // §2.2 / Figure 13(a,b): for MLP/attention models, tensor-centric
        // (PyG/DGL) is faster than vertex-centric fused (Seastar), which
        // has ~1% compute efficiency.
        let g = arxiv();
        let dev = DeviceSpec::a100_pcie();
        let dims = LayerDims::paper_single(128, 40);
        for model in [ModelKind::Rgcn, ModelKind::Gat] {
            let dgl = Baseline::Dgl.estimate(&g, model, &dims, &dev);
            let seastar = Baseline::SeastarG.estimate(&g, model, &dims, &dev);
            assert!(
                dgl.time_per_iter < seastar.time_per_iter,
                "{}: DGL {} vs Seastar {}",
                model.name(),
                dgl.time_per_iter,
                seastar.time_per_iter
            );
        }
    }

    #[test]
    fn graph_centric_competitive_on_simple_models() {
        // Figure 13(d,e): for addition-only models, graph-centric closes
        // the gap (data movement dominates).
        let g = arxiv();
        let dev = DeviceSpec::a100_pcie();
        let dims = LayerDims::paper_single(128, 40);
        let pyg = Baseline::PygT.estimate(&g, ModelKind::Gcn, &dims, &dev);
        let seastar = Baseline::SeastarG.estimate(&g, ModelKind::Gcn, &dims, &dev);
        // Within ~4× of each other rather than the order-of-magnitude gap
        // complex models show.
        let ratio = seastar.time_per_iter / pyg.time_per_iter;
        assert!(ratio < 4.0, "ratio {ratio}");
    }

    #[test]
    fn graph_centric_is_more_memory_efficient() {
        // §7.2: "the graph-centric approach is more memory-efficient, while
        // tensor-centric suffers more from OOM".
        let g = arxiv();
        let dev = DeviceSpec::a100_pcie();
        let dims = LayerDims::paper_single(128, 40);
        for model in [ModelKind::Rgcn, ModelKind::Gat] {
            let pyg = Baseline::PygT.estimate(&g, model, &dims, &dev);
            let seastar = Baseline::SeastarG.estimate(&g, model, &dims, &dev);
            assert!(pyg.memory_bytes > seastar.memory_bytes);
        }
    }

    #[test]
    fn pyg_rgcn_goes_oom_on_dense_graphs() {
        // PyG materializes per-edge weights [E, F, F'] — OOM on Products
        // and Reddit (the white cells of Figure 13a).
        let dev = DeviceSpec::a100_pcie();
        for kind in [DatasetKind::Products, DatasetKind::Reddit] {
            let spec = kind.spec();
            let g = spec.build();
            let dims = LayerDims::paper_single(spec.feature_dim, spec.num_classes);
            // Account for the full-size graph: scale transient linearly.
            let est = Baseline::PygT.estimate(&g, ModelKind::Rgcn, &dims, &dev);
            let scaled_mem = est.memory_bytes * spec.scale();
            assert!(
                scaled_mem > dev.mem_capacity,
                "{}: {scaled_mem}",
                kind.short_name()
            );
        }
        // ... but not on Arxiv (PyG runs RGCN on AR in the paper).
        let spec = DatasetKind::Arxiv.spec();
        let g = spec.build();
        let dims = LayerDims::paper_single(spec.feature_dim, spec.num_classes);
        let est = Baseline::PygT.estimate(&g, ModelKind::Rgcn, &dims, &dev);
        assert!(est.memory_bytes * spec.scale() < dev.mem_capacity);
    }

    #[test]
    fn columns_match_figure13() {
        assert_eq!(Baseline::columns_for(ModelKind::Rgcn).len(), 3);
        assert_eq!(Baseline::columns_for(ModelKind::SageLstm).len(), 2);
        assert_eq!(Baseline::columns_for(ModelKind::Gcn).len(), 5);
        assert_eq!(Baseline::Dgl.label(ModelKind::Rgcn), "DGL-T");
        assert_eq!(Baseline::Dgl.label(ModelKind::Gcn), "DGL-G");
    }

    #[test]
    fn layer_io_shapes() {
        let dims = LayerDims::paper_single(602, 41);
        assert_eq!(dims.layer_io(0), (602, 256));
        assert_eq!(dims.layer_io(1), (256, 256));
        assert_eq!(dims.layer_io(2), (256, 41));
    }
}
