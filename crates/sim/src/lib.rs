//! Calibrated analytic device model standing in for the paper's testbed.
//!
//! The paper evaluates on NVIDIA A100-PCIe GPUs (4x for multi-GPU, §7.1).
//! This environment has no GPU, so — per the reproduction's substitution
//! rule — every "measured" time in the benchmark harnesses is produced by
//! running the real partition/kernel-generation pipeline and costing the
//! resulting kernels with this roofline-style model:
//!
//! - [`device`]: an A100-like [`device::DeviceSpec`] (CUDA-core and
//!   tensor-core peaks, HBM bandwidth, launch latency, SM count) and the
//!   per-kernel time estimator, with efficiency factors that depend on the
//!   *compute class* (edge-wise vs. batched vs. dense) and the batching
//!   degree — the effects Figures 3 and 18 hinge on;
//! - [`schedule`]: a list scheduler over execution units that exposes
//!   long-tail effects from imbalanced gTasks and the benefit of
//!   differentiated priorities (Figure 12, Figure 19);
//! - [`fabric`]: a PCIe-like interconnect with collective cost formulas
//!   (all-to-all, reduce-scatter) for multi-device operation
//!   placement (Table 2, Figure 20);
//! - [`volume`]: the Figure-11 placement-candidate payload arithmetic,
//!   shared between the closed-form cost model and the sharded executor's
//!   placement selector so the two can never disagree.
//!
//! All estimators are deterministic, pure functions — runs are exactly
//! reproducible.

pub mod device;
pub mod fabric;
pub mod schedule;
pub mod volume;

pub use device::{ComputeClass, DeviceSpec, KernelCost};
pub use fabric::Fabric;
pub use volume::{PlacementKind, PlacementVolumes};
