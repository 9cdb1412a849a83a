//! Multi-GPU system models (Table 2, Figure 20, §7.2's MGG comparison).
//!
//! Every system partitions vertex embeddings evenly across devices (§5.4)
//! and splits the DGL-style per-layer compute ([`layer_compute_time`]) `d`
//! ways. Systems differ only in one `const` row of four values:
//!
//! - *Placement*: the [`PlacementKind`] carrying the layer's communication,
//!   priced by [`PlacementVolumes::comm_time`]. WiseGraph picks the smaller
//!   side per layer (changing data volume); P3's static tensor-parallel
//!   input layer loses when `hidden` nears the feature width (Figure 20).
//! - *Compute*: a multiplier over the library kernels. DGL pays for
//!   hash/range partition imbalance, DGCL for its runtime machinery, MGG
//!   for vertex-centric kernels without data batching. WiseGraph's is the
//!   inverse of the paper's *claimed* single-GPU speedup for the model's
//!   class (§7.2), not a measured one.
//! - *Halo*: a scale on the remote rows each device pulls. ROC's learned
//!   balanced partition and DGCL's topology-aware schedule cut traffic.
//! - *Overlap* `k`: a layer costs `max(comp, comm) + k·min(comp, comm)`.
//!   `k = 1` runs the two back to back; ROC overlaps partly, MGG's
//!   intra-kernel pipelining nearly fully, and WiseGraph's gTask-level
//!   pipelining fully.

use crate::single::{layer_compute_time, LayerDims, TRAIN_FACTOR};
use wisegraph_graph::{Graph, ShardSpec};
use wisegraph_models::ModelKind;
use wisegraph_sim::PlacementKind::{self, *};
use wisegraph_sim::{DeviceSpec, Fabric, PlacementVolumes};
use Placement::*;

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

/// The schedules of Figure 11 the closed form chooses among. Tensor
/// parallelism is left out: whether a layer can run it depends on its
/// compiled program, which only the sharded executor checks.
const FIGURE_11: [PlacementKind; 3] = [DataParallel, ProjectThenCommunicate, ComputeThenReduce];

/// How a system places each layer's communication.
#[derive(Clone, Copy, Debug)]
enum Placement {
    /// The same schedule on every layer.
    Fixed(PlacementKind),
    /// This schedule on layer 0, the other row on every later layer.
    First(PlacementKind, &'static Row),
    /// The cheapest of [`FIGURE_11`], per layer.
    Cheapest,
}

/// One system's constants (see the module docs).
#[derive(Clone, Copy, Debug)]
struct Row {
    placement: Placement,
    /// Compute multiplier for simple and complex models
    /// ([`ModelKind::is_complex`]).
    compute: [f64; 2],
    halo: f64,
    overlap: f64,
}

impl Row {
    const fn new(placement: Placement, compute: [f64; 2], halo: f64, overlap: f64) -> Self {
        Self {
            placement,
            compute,
            halo,
            overlap,
        }
    }

    /// The row that prices `layer` and the schedules it chooses among.
    fn at(&'static self, layer: usize) -> (&'static Row, &'static [PlacementKind]) {
        match &self.placement {
            Fixed(kind) => (self, std::slice::from_ref(kind)),
            First(kind, _) if layer == 0 => (self, std::slice::from_ref(kind)),
            First(_, rest) => rest.at(layer),
            Cheapest => (self, &FIGURE_11),
        }
    }
}

// Columns: placement, compute multiplier [simple, complex], halo, overlap k.
const DGL: Row = Row::new(Fixed(DataParallel), [1.15; 2], 1.0, 1.0);
const ROC: Row = Row::new(Fixed(DataParallel), [1.0; 2], 0.8, 0.3);
const DGCL: Row = Row::new(Fixed(DataParallel), [1.6; 2], 0.85, 1.0);
const P3: Row = Row::new(First(ComputeThenReduce, &DGL), [1.05; 2], 1.0, 1.0);
const MGG: Row = Row::new(Fixed(DataParallel), [2.0; 2], 1.0, 0.05);
const WISEGRAPH: Row = Row::new(Cheapest, [1.0 / 1.13, 1.0 / 2.6], 1.0, 0.0);

/// The multi-GPU systems of Table 2 and §7.2.
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
    /// MGG: pipelined full-graph inference (§7.2).
    Mgg,
    /// WiseGraph's per-layer operation placement.
    WiseGraph,
}

impl MultiGpuSystem {
    /// The Table 2 baselines in column order.
    pub const BASELINES: [MultiGpuSystem; 4] = [
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
            MultiGpuSystem::Mgg => "MGG",
            MultiGpuSystem::WiseGraph => "WiseGraph",
        }
    }

    /// Whether the system supports this training mode (Table 2's N/A
    /// cells): ROC, DGCL and MGG are full-graph systems; P3 targets
    /// sampled training.
    pub fn supports(self, sampled: bool) -> bool {
        match self {
            MultiGpuSystem::Dgl | MultiGpuSystem::WiseGraph => true,
            MultiGpuSystem::Roc | MultiGpuSystem::Dgcl | MultiGpuSystem::Mgg => !sampled,
            MultiGpuSystem::P3 => sampled,
        }
    }

    fn row(self) -> &'static Row {
        match self {
            MultiGpuSystem::Dgl => &DGL,
            MultiGpuSystem::Roc => &ROC,
            MultiGpuSystem::Dgcl => &DGCL,
            MultiGpuSystem::P3 => &P3,
            MultiGpuSystem::Mgg => &MGG,
            MultiGpuSystem::WiseGraph => &WISEGRAPH,
        }
    }

    /// Forward time of layer `layer`, `(f_in, f_out)` wide, across the
    /// stack, with the placement that carried its communication.
    pub fn layer_time(
        self,
        g: &Graph,
        model: ModelKind,
        layer: usize,
        (f_in, f_out): (usize, usize),
        stack: &MultiStack,
    ) -> (PlacementKind, f64) {
        let (row, candidates) = self.row().at(layer);
        let d = stack.fabric.num_devices;
        let halo = ShardSpec::new(g.num_vertices(), d).max_remote_unique_src(g) as f64;
        let vols = PlacementVolumes::new(halo * row.halo, g.num_vertices(), f_in, f_out, f_in);
        let (kind, comm) = vols.best(candidates, &stack.fabric);
        let comp = layer_compute_time(g, model, f_in, f_out, &stack.device) / d as f64
            * row.compute[usize::from(model.is_complex())];
        (kind, comp.max(comm) + row.overlap * comp.min(comm))
    }

    /// Forward-only (inference) time of `model` on `g` across the stack.
    pub fn forward_time(
        self,
        g: &Graph,
        model: ModelKind,
        dims: &LayerDims,
        stack: &MultiStack,
    ) -> f64 {
        (0..dims.layers)
            .map(|l| self.layer_time(g, model, l, dims.layer_io(l), stack).1)
            .sum()
    }

    /// Per-iteration training time of `model` on `g` across the stack.
    pub fn iteration_time(
        self,
        g: &Graph,
        model: ModelKind,
        dims: &LayerDims,
        stack: &MultiStack,
    ) -> f64 {
        (0..dims.layers)
            .map(|l| self.layer_time(g, model, l, dims.layer_io(l), stack).1 * TRAIN_FACTOR)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_graph::DatasetKind;

    fn papers_like() -> Graph {
        DatasetKind::Papers.spec().build()
    }

    fn first_layer(sys: MultiGpuSystem, g: &Graph, f_in: usize, hidden: usize) -> f64 {
        let stack = MultiStack::paper_quad();
        let (_, t) = sys.layer_time(g, ModelKind::Gcn, 0, (f_in, hidden), &stack);
        t
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
        let f_in = 384;
        let p3_small = first_layer(MultiGpuSystem::P3, &g, f_in, 32);
        let dgl_small = first_layer(MultiGpuSystem::Dgl, &g, f_in, 32);
        assert!(p3_small < dgl_small, "P3 {p3_small} vs DGL {dgl_small}");
        let p3_big = first_layer(MultiGpuSystem::P3, &g, f_in, 1024);
        let dgl_big = first_layer(MultiGpuSystem::Dgl, &g, f_in, 1024);
        assert!(
            p3_big > dgl_big * 0.8,
            "at hidden=1024 P3 loses its edge: P3 {p3_big} vs DGL {dgl_big}"
        );
    }

    #[test]
    fn ours_beats_dgl_and_p3_across_hidden_dims() {
        // Figure 20: WiseGraph "consistently achieves the shortest
        // execution time" while DGL and P3 each lose in some regime.
        let g = DatasetKind::FriendSterSample.spec().build();
        let f_in = 384;
        for hidden in [32usize, 64, 128, 256, 512, 1024] {
            let ours = first_layer(MultiGpuSystem::WiseGraph, &g, f_in, hidden);
            let dgl = first_layer(MultiGpuSystem::Dgl, &g, f_in, hidden);
            let p3 = first_layer(MultiGpuSystem::P3, &g, f_in, hidden);
            assert!(
                ours <= dgl * 1.001 && ours <= p3 * 1.001,
                "hidden {hidden}: ours {ours}, dgl {dgl}, p3 {p3}"
            );
        }
    }

    #[test]
    fn placement_picks_smaller_volume() {
        let g = DatasetKind::PapersSample.spec().build();
        let stack = MultiStack::paper_quad();
        let remote = ShardSpec::new(g.num_vertices(), 4).max_remote_unique_src(&g) as f64;
        let wg = MultiGpuSystem::WiseGraph;
        let ours = |io| wg.layer_time(&g, ModelKind::Gcn, 0, io, &stack).0;
        // Huge input features, tiny output: communicating after the
        // projection (volume shrinks at the embedding dimension) or
        // reducing the outputs wins, far below the input-side volume.
        let projected = stack.fabric.all_to_all(remote * 8.0 * 4.0);
        let v = g.num_vertices() as f64;
        let out_side = stack.fabric.reduce_scatter(v * 8.0 * 4.0);
        let expect = if projected <= out_side {
            PlacementKind::ProjectThenCommunicate
        } else {
            PlacementKind::ComputeThenReduce
        };
        assert_eq!(ours((1024, 8)), expect);
        let in_side = stack.fabric.all_to_all(remote * 1024.0 * 4.0);
        assert!(projected.min(out_side) < in_side / 10.0);
        // Tiny input, huge output: input-side wins.
        assert_eq!(ours((8, 1024)), PlacementKind::DataParallel);
    }

    #[test]
    fn full_epoch_beats_table2_baselines() {
        // Table 2 shape: WiseGraph fastest on full-graph multi-GPU.
        let g = DatasetKind::Papers.spec().build();
        let stack = MultiStack::paper_quad();
        let dims = LayerDims {
            f_in: 128,
            hidden: 32,
            classes: 172,
            layers: 3,
        };
        let ours = MultiGpuSystem::WiseGraph.iteration_time(&g, ModelKind::Sage, &dims, &stack);
        for &sys in &MultiGpuSystem::BASELINES[..3] {
            let t = sys.iteration_time(&g, ModelKind::Sage, &dims, &stack);
            assert!(ours < t, "{}: ours {ours} vs {t}", sys.name());
        }
    }

    /// The placement `layer_time` reports, priced with the row's halo, is
    /// the communication term it charged; WiseGraph's is the cheapest of
    /// Figure 11's three schedules.
    #[test]
    fn reported_placement_prices_the_charged_communication() {
        let g = rmat(&RmatParams::standard(140, 1100, 71).with_edge_types(3));
        let stack = MultiStack::paper_quad();
        let d = stack.fabric.num_devices;
        let halo = ShardSpec::new(g.num_vertices(), d).max_remote_unique_src(&g) as f64;
        let mut systems = MultiGpuSystem::BASELINES.to_vec();
        systems.extend([MultiGpuSystem::Mgg, MultiGpuSystem::WiseGraph]);
        for model in ModelKind::ALL {
            for (f_in, f_out) in [(1024usize, 8usize), (8, 1024), (64, 64), (128, 32)] {
                let lib = layer_compute_time(&g, model, f_in, f_out, &stack.device) / d as f64;
                for (&sys, layer) in systems.iter().flat_map(|s| [(s, 0), (s, 1)]) {
                    let ctx = format!("{sys:?} {model:?} layer {layer} ({f_in}, {f_out})");
                    let (kind, t) = sys.layer_time(&g, model, layer, (f_in, f_out), &stack);
                    let (row, _) = sys.row().at(layer);
                    let vols =
                        PlacementVolumes::new(halo * row.halo, g.num_vertices(), f_in, f_out, f_in);
                    let comm = vols.comm_time(kind, &stack.fabric);
                    let comp = lib * row.compute[usize::from(model.is_complex())];
                    assert_eq!(t, comp.max(comm) + row.overlap * comp.min(comm), "{ctx}");
                    if sys == MultiGpuSystem::WiseGraph {
                        assert_eq!(kind, vols.best(&FIGURE_11, &stack.fabric).0, "{ctx}");
                    }
                }
            }
        }
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
        let remote = ShardSpec::new(g.num_vertices(), 4).max_remote_unique_src(&g) as f64;
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
