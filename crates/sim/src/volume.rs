//! Shared Figure-11 placement-volume arithmetic.
//!
//! Both multi-device stories — the closed-form cost model
//! (`wisegraph-baselines`' `multi` module, Table 2 / Figure 20) and the real
//! sharded executor's placement selector — price the same four candidate
//! schedules from the same three quantities: the per-device remote-unique
//! source count, the vertex count, and the layer's embedding widths. This
//! module is the single home of that arithmetic, so predicted and executed
//! placement decisions cannot drift apart.

use crate::fabric::Fabric;

/// Bytes per f32 element.
const F32: f64 = 4.0;

/// The executable placement schedules of §5.4 / Figure 11 (plus the
/// NeutronTP-style tensor-parallel split, PAPERS.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PlacementKind {
    /// Communicate-then-compute: all-to-all of the unique remote *input*
    /// embeddings (`remote × f_in`), then each device aggregates its own
    /// destinations (Fig. 11b).
    DataParallel,
    /// Project-then-communicate: the projection runs on the data's home
    /// device and the *projected* embeddings travel (`remote × f_out`) —
    /// wins when volume shrinks at the embedding dimension (Fig. 11c).
    ProjectThenCommunicate,
    /// Compute-then-reduce: every device aggregates the edges whose
    /// sources it holds, partial aggregates reduce-scatter at the output
    /// volume (`V × f_out`) — wins when volume shrinks at the vertex
    /// dimension (Fig. 11d).
    ComputeThenReduce,
    /// Tensor parallelism: the hidden dimension is split, every device
    /// runs all edges on its column slice, and each device then gathers
    /// its owned rows of every peer's slice (`V × acc_width / D` sent per
    /// device). No graph-partition skew by construction.
    TensorParallel,
}

impl PlacementKind {
    /// All placements, in the canonical order.
    pub const ALL: [PlacementKind; 4] = [
        PlacementKind::DataParallel,
        PlacementKind::ProjectThenCommunicate,
        PlacementKind::ComputeThenReduce,
        PlacementKind::TensorParallel,
    ];

    /// Stable lower-case name for tables and counters.
    pub fn name(self) -> &'static str {
        match self {
            PlacementKind::DataParallel => "data_parallel",
            PlacementKind::ProjectThenCommunicate => "project_then_communicate",
            PlacementKind::ComputeThenReduce => "compute_then_reduce",
            PlacementKind::TensorParallel => "tensor_parallel",
        }
    }
}

/// The communication payloads (bytes) of each placement candidate for one
/// layer, before any fabric pricing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlacementVolumes {
    /// All-to-all payload of [`PlacementKind::DataParallel`]:
    /// `remote × f_in` floats.
    pub input_side: f64,
    /// All-to-all payload of [`PlacementKind::ProjectThenCommunicate`]:
    /// `remote × f_out` floats.
    pub projected_side: f64,
    /// Reduce-scatter payload of [`PlacementKind::ComputeThenReduce`]:
    /// `V × f_out` floats.
    pub output_side: f64,
    /// Accumulator of [`PlacementKind::TensorParallel`]: `V × acc_width`
    /// floats, where `acc_width` is the width of the reduction
    /// accumulator the column split divides. Each of the `D` devices holds
    /// a `1/D` column slice of it and sends every peer the rows that peer
    /// owns: an all-to-all of `gathered_side / D` per device.
    pub gathered_side: f64,
}

impl PlacementVolumes {
    /// Builds the candidate volumes from the sharding quantities:
    /// `remote` is the (maximum per-device) remote-unique source count,
    /// possibly scaled by a system's halo factor,
    /// `v` the vertex count, and `acc_width` the reduction accumulator
    /// width (`f_in` for gather-then-project models, `f_out` for models
    /// projecting inside the aggregation).
    pub fn new(remote: f64, v: usize, f_in: usize, f_out: usize, acc_width: usize) -> Self {
        let v = v as f64;
        Self {
            input_side: remote * f_in as f64 * F32,
            projected_side: remote * f_out as f64 * F32,
            output_side: v * f_out as f64 * F32,
            gathered_side: v * acc_width as f64 * F32,
        }
    }

    /// Fabric-priced communication time of one placement.
    pub fn comm_time(&self, p: PlacementKind, fabric: &Fabric) -> f64 {
        match p {
            PlacementKind::DataParallel => fabric.all_to_all(self.input_side),
            PlacementKind::ProjectThenCommunicate => {
                fabric.all_to_all(self.projected_side)
            }
            PlacementKind::ComputeThenReduce => fabric.reduce_scatter(self.output_side),
            PlacementKind::TensorParallel => {
                fabric.all_to_all(self.gathered_side / fabric.num_devices as f64)
            }
        }
    }

    /// The cheapest placement among `candidates` under `fabric`, with its
    /// priced communication time. Ties break toward the earlier candidate,
    /// so selection is deterministic for any candidate order.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn best(
        &self,
        candidates: &[PlacementKind],
        fabric: &Fabric,
    ) -> (PlacementKind, f64) {
        assert!(!candidates.is_empty(), "no placement candidates");
        let mut best = (candidates[0], self.comm_time(candidates[0], fabric));
        for &c in &candidates[1..] {
            let t = self.comm_time(c, fabric);
            if t < best.1 {
                best = (c, t);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn volumes_match_figure11_formulas() {
        let v = PlacementVolumes::new(100.0, 1000, 64, 16, 64);
        assert_eq!(v.input_side, 100.0 * 64.0 * 4.0);
        assert_eq!(v.projected_side, 100.0 * 16.0 * 4.0);
        assert_eq!(v.output_side, 1000.0 * 16.0 * 4.0);
        assert_eq!(v.gathered_side, 1000.0 * 64.0 * 4.0);
    }

    #[test]
    fn best_picks_the_shrinking_side() {
        let fab = Fabric::pcie4_quad();
        // Wide input, narrow output: projecting before communicating wins
        // over shipping raw inputs.
        let v = PlacementVolumes::new(500.0, 600, 1024, 8, 1024);
        let (p, t) = v.best(
            &[
                PlacementKind::DataParallel,
                PlacementKind::ProjectThenCommunicate,
                PlacementKind::ComputeThenReduce,
            ],
            &fab,
        );
        assert_eq!(p, PlacementKind::ProjectThenCommunicate);
        assert!(t < v.comm_time(PlacementKind::DataParallel, &fab));
        // Narrow input: shipping inputs wins among the Figure-11 three.
        let v = PlacementVolumes::new(500.0, 600, 8, 1024, 8);
        let figure_11 = &PlacementKind::ALL[..3];
        assert_eq!(v.best(figure_11, &fab).0, PlacementKind::DataParallel);
    }

    #[test]
    fn tensor_parallel_is_priced_by_what_each_device_sends() {
        let fab = Fabric::pcie4_quad();
        // Each of 4 devices holds a 2-column slice of the 600 × 8
        // accumulator and sends each of 3 peers its 150 owned rows of it.
        let v = PlacementVolumes::new(500.0, 600, 8, 1024, 8);
        let sent = 3.0 * 150.0 * 2.0 * 4.0;
        let t = v.comm_time(PlacementKind::TensorParallel, &fab);
        assert!((t - fab.latency - sent / fab.link_bw).abs() < 1e-15);
        // That is less than the 500-row halo data-parallel ships.
        assert_eq!(v.best(&PlacementKind::ALL, &fab).0, PlacementKind::TensorParallel);
    }

    #[test]
    fn ties_break_toward_earlier_candidate() {
        let fab = Fabric::pcie4_quad();
        let v = PlacementVolumes::new(0.0, 0, 4, 4, 4);
        let (p, _) = v.best(&PlacementKind::ALL, &fab);
        assert_eq!(p, PlacementKind::DataParallel);
    }
}
