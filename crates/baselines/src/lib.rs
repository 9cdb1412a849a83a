//! Baseline GNN systems, re-implemented as partition *strategies* over the
//! shared simulator.
//!
//! The paper compares WiseGraph against PyG, DGL, GNNAdvisor, Seastar and
//! TC-GNN on a single GPU (Figure 13) and DGL, ROC, DGCL and an emulated P3
//! on multiple GPUs (Table 2). Those systems differ from WiseGraph — and
//! from each other — in *how they partition graph data and operations*, so
//! we reproduce each one's strategy and price every strategy with the same
//! device model (`wisegraph-sim`), exactly as the paper itself emulates P3
//! "by reproducing the hybrid parallelism as mentioned in the paper".
//!
//! - [`single`]: single-GPU executors — tensor-centric (PyG), tensor-centric
//!   with fused message kernels and segmented GEMMs (DGL), vertex-centric
//!   fused (Seastar), neighbor-grouped (GNNAdvisor), tensor-core tiled
//!   (TC-GNN);
//! - [`multi`]: the multi-GPU closed form, one row of constants per system
//!   — data parallel with all-to-all feature exchange (DGL/DistDGL),
//!   balanced-partition overlap (ROC), communication-scheduled (DGCL),
//!   hybrid tensor/data parallelism (P3), pipelined inference (MGG), and
//!   WiseGraph's per-layer operation placement.

pub mod multi;
pub mod single;

pub use multi::{MultiGpuSystem, MultiStack};
pub use single::{Baseline, ExecutionEstimate, LayerDims};
