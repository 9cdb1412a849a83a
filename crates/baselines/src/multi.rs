//! Multi-GPU baseline executors (Table 2, Figure 20).
//!
//! All systems partition vertex embeddings across devices (§5.4). They
//! differ in parallel strategy and communication pattern:
//!
//! - **DGL/DistDGL**: data parallel — each device owns a vertex range and
//!   all-to-alls the remote source embeddings it needs per layer;
//! - **ROC**: data parallel with a balanced, cut-minimizing partition and
//!   computation/communication overlap;
//! - **DGCL**: data parallel with topology-aware communication scheduling
//!   (lower comm cost, higher system overhead);
//! - **P3**: hybrid — tensor parallel for the input layer (communicates
//!   `[V, hidden]` activations instead of `[V, F]` features), data parallel
//!   afterwards. Static: it always makes that choice, which loses when
//!   `hidden` is large relative to the feature dim (Figure 20).

use crate::single::{layer_compute_time, LayerDims, TRAIN_FACTOR};
use wisegraph_graph::{Graph, ShardSpec};
use wisegraph_models::ModelKind;
use wisegraph_sim::{DeviceSpec, Fabric};

/// A multi-GPU execution environment: per-device model plus interconnect.
#[derive(Clone, Copy, Debug)]
pub struct MultiStack {
    /// The per-device model.
    pub device: DeviceSpec,
    /// The interconnect.
    pub fabric: Fabric,
}

impl MultiStack {
    /// The paper's testbed: 4× A100 over PCIe 4.0.
    pub fn paper_quad() -> Self {
        Self {
            device: DeviceSpec::a100_pcie(),
            fabric: Fabric::pcie4_quad(),
        }
    }
}

/// MGG's full-graph *inference* time (forward only): fine-grained
/// intra-kernel communication/computation pipelining hides most of the
/// communication, but its kernels stay vertex-centric (no data batching)
/// and it keeps DGL-style data-parallel volumes — the gap WiseGraph's
/// operation placement and batched kernels close (§7.2: 2.90× on PA).
pub fn mgg_inference_time(
    g: &Graph,
    model: ModelKind,
    dims: &LayerDims,
    stack: &MultiStack,
) -> f64 {
    let d = stack.fabric.num_devices as f64;
    let remote = remote_rows(g, stack.fabric.num_devices);
    let mut total = 0.0;
    for l in 0..dims.layers {
        let (fi, fo) = dims.layer_io(l);
        // Vertex-centric kernels: ~2× the library-kernel compute time.
        let comp = layer_compute_time(g, model, fi, fo, &stack.device) * 2.0 / d;
        let comm = stack.fabric.all_to_all(remote * fi as f64 * 4.0);
        // Intra-kernel pipelining: near-full overlap.
        total += comp.max(comm) + 0.05 * comp.min(comm);
    }
    total
}

/// The payload of the data-parallel all-to-all under the even vertex
/// split every baseline assumes: the bottleneck device's count of *unique
/// remote* source vertices.
fn remote_rows(g: &Graph, devices: usize) -> f64 {
    ShardSpec::new(g.num_vertices(), devices).max_remote_unique_src(g) as f64
}

/// The multi-GPU baseline systems of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MultiGpuSystem {
    /// Data-parallel DGL/DistDGL.
    Dgl,
    /// ROC: balanced partition, comm/compute overlap (full-graph only).
    Roc,
    /// DGCL: communication-optimized library (full-graph only).
    Dgcl,
    /// Emulated P3: tensor parallel first layer, data parallel after
    /// (sampled-graph oriented).
    P3,
}

impl MultiGpuSystem {
    /// All systems in Table 2 column order.
    pub const ALL: [MultiGpuSystem; 4] = [
        MultiGpuSystem::Dgl,
        MultiGpuSystem::Roc,
        MultiGpuSystem::Dgcl,
        MultiGpuSystem::P3,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MultiGpuSystem::Dgl => "DGL",
            MultiGpuSystem::Roc => "ROC",
            MultiGpuSystem::Dgcl => "DGCL",
            MultiGpuSystem::P3 => "P3",
        }
    }

    /// Whether the system supports this training mode (Table 2's N/A
    /// cells): ROC and DGCL are full-graph systems; P3 targets sampled
    /// training.
    pub fn supports(self, sampled: bool) -> bool {
        match self {
            MultiGpuSystem::Dgl => true,
            MultiGpuSystem::Roc | MultiGpuSystem::Dgcl => !sampled,
            MultiGpuSystem::P3 => sampled,
        }
    }

    /// Per-iteration training time of `model` on `g` across the stack.
    pub fn iteration_time(
        self,
        g: &Graph,
        model: ModelKind,
        dims: &LayerDims,
        stack: &MultiStack,
    ) -> f64 {
        let d = stack.fabric.num_devices;
        let remote = remote_rows(g, d);
        let v = g.num_vertices() as f64;
        let mut total = 0.0;
        for l in 0..dims.layers {
            let (fi, fo) = dims.layer_io(l);
            let comp = layer_compute_time(g, model, fi, fo, &stack.device) / d as f64;
            let (comp, comm) = match self {
                MultiGpuSystem::Dgl => {
                    // Hash/range partition: moderate imbalance.
                    let comm = stack.fabric.all_to_all(remote * fi as f64 * 4.0);
                    (comp * 1.15, comm)
                }
                MultiGpuSystem::Roc => {
                    // Learned balanced partition cuts remote traffic and
                    // overlaps communication with computation.
                    let comm = stack.fabric.all_to_all(remote * 0.8 * fi as f64 * 4.0);
                    let overlapped = comp.max(comm) + 0.3 * comp.min(comm);
                    total += overlapped * TRAIN_FACTOR;
                    continue;
                }
                MultiGpuSystem::Dgcl => {
                    // Better comm schedule, heavier runtime machinery.
                    let comm = stack.fabric.all_to_all(remote * 0.85 * fi as f64 * 4.0);
                    (comp * 1.6, comm)
                }
                MultiGpuSystem::P3 => {
                    if l == 0 {
                        // Tensor parallel: features stay put; partial
                        // aggregates of the hidden activations are
                        // reduce-scattered.
                        let comm = stack.fabric.reduce_scatter(v * fo as f64 * 4.0);
                        (comp * 1.05, comm)
                    } else {
                        let comm = stack.fabric.all_to_all(remote * fi as f64 * 4.0);
                        (comp * 1.15, comm)
                    }
                }
            };
            total += (comp + comm) * TRAIN_FACTOR;
        }
        total
    }

    /// Forward-only (inference) time per iteration.
    pub fn inference_time(
        self,
        g: &Graph,
        model: ModelKind,
        dims: &LayerDims,
        stack: &MultiStack,
    ) -> f64 {
        self.iteration_time(g, model, dims, stack) / TRAIN_FACTOR
    }

    /// Time for the first GCN layer only — the Figure 20 microbenchmark.
    pub fn first_layer_time(
        self,
        g: &Graph,
        f_in: usize,
        hidden: usize,
        stack: &MultiStack,
    ) -> f64 {
        let d = stack.fabric.num_devices;
        let remote = remote_rows(g, d);
        let v = g.num_vertices() as f64;
        let comp =
            layer_compute_time(g, ModelKind::Gcn, f_in, hidden, &stack.device) / d as f64;
        let comm = match self {
            MultiGpuSystem::P3 => stack.fabric.reduce_scatter(v * hidden as f64 * 4.0),
            _ => stack.fabric.all_to_all(remote * f_in as f64 * 4.0),
        };
        comp + comm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::DatasetKind;

    fn papers_like() -> Graph {
        DatasetKind::Papers.spec().build()
    }

    #[test]
    fn remote_unique_src_bounds() {
        let g = papers_like();
        let remote = |d| ShardSpec::new(g.num_vertices(), d).max_remote_unique_src(&g);
        let r1 = remote(1);
        let r4 = remote(4);
        assert_eq!(r1, 0);
        assert!(r4 > 0);
        assert!(r4 <= g.num_vertices());
        // More devices → each chunk needs at least as many remote vertices
        // per chunk... but the per-device max payload is bounded by V.
        let r8 = remote(8);
        assert!(r8 <= g.num_vertices());
    }

    #[test]
    fn applicability_matches_table2() {
        assert!(MultiGpuSystem::Dgl.supports(false));
        assert!(MultiGpuSystem::Dgl.supports(true));
        assert!(MultiGpuSystem::Roc.supports(false));
        assert!(!MultiGpuSystem::Roc.supports(true));
        assert!(!MultiGpuSystem::P3.supports(false));
        assert!(MultiGpuSystem::P3.supports(true));
    }

    #[test]
    fn roc_beats_dgl_on_full_graph() {
        // Table 2: ROC < DGL on PA and FS.
        let g = papers_like();
        let stack = MultiStack::paper_quad();
        let dims = LayerDims {
            f_in: 128,
            hidden: 32,
            classes: 172,
            layers: 3,
        };
        let dgl = MultiGpuSystem::Dgl.iteration_time(&g, ModelKind::Sage, &dims, &stack);
        let roc = MultiGpuSystem::Roc.iteration_time(&g, ModelKind::Sage, &dims, &stack);
        let dgcl = MultiGpuSystem::Dgcl.iteration_time(&g, ModelKind::Sage, &dims, &stack);
        assert!(roc < dgl, "ROC {roc} vs DGL {dgl}");
        assert!(dgcl > roc, "DGCL {dgcl} vs ROC {roc}");
    }

    #[test]
    fn figure20_crossover_between_dgl_and_p3() {
        // P3 communicates hidden-sized activations in layer 1; DGL
        // communicates feature-sized embeddings. Small hidden → P3 wins;
        // hidden ≥ features → DGL side catches up (the static-strategy
        // weakness §5.4 calls out).
        let g = DatasetKind::FriendSterSample.spec().build();
        let stack = MultiStack::paper_quad();
        let f_in = 384;
        let p3_small =
            MultiGpuSystem::P3.first_layer_time(&g, f_in, 32, &stack);
        let dgl_small =
            MultiGpuSystem::Dgl.first_layer_time(&g, f_in, 32, &stack);
        assert!(p3_small < dgl_small, "P3 {p3_small} vs DGL {dgl_small}");
        let p3_big = MultiGpuSystem::P3.first_layer_time(&g, f_in, 1024, &stack);
        let dgl_big = MultiGpuSystem::Dgl.first_layer_time(&g, f_in, 1024, &stack);
        assert!(
            p3_big > dgl_big * 0.8,
            "at hidden=1024 P3 loses its edge: P3 {p3_big} vs DGL {dgl_big}"
        );
    }

    #[test]
    fn communication_dominates_over_pcie() {
        // The multi-GPU premise of §5.4: link bandwidth is far below
        // compute throughput, so communication is the bottleneck over PCIe
        // and reducing its volume (operation placement) is what matters.
        let g = papers_like();
        let quad = MultiStack::paper_quad();
        let dims = LayerDims {
            f_in: 128,
            hidden: 32,
            classes: 172,
            layers: 3,
        };
        let remote = remote_rows(&g, 4);
        let comm0 = quad.fabric.all_to_all(remote * 128.0 * 4.0);
        let comp0 =
            layer_compute_time(&g, ModelKind::Gcn, 128, 32, &quad.device) / 4.0;
        assert!(
            comm0 > 0.3 * comp0,
            "communication must be a major cost: comm {comm0} vs comp {comp0}"
        );
        // With a 10× faster (NVLink-class) fabric, scaling out wins
        // against one device of the same spec.
        let fast = MultiStack {
            fabric: Fabric {
                link_bw: quad.fabric.link_bw * 10.0,
                ..quad.fabric
            },
            ..quad
        };
        let single = MultiStack {
            fabric: Fabric {
                num_devices: 1,
                ..quad.fabric
            },
            ..quad
        };
        let t1 = MultiGpuSystem::Dgl.iteration_time(&g, ModelKind::Gcn, &dims, &single);
        let t4 = MultiGpuSystem::Dgl.iteration_time(&g, ModelKind::Gcn, &dims, &fast);
        assert!(t4 < t1, "t4 {t4} vs t1 {t1}");
    }
}
