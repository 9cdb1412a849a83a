//! Composable micro-kernels and kernel generation (paper §5.3).
//!
//! Operation partition assigns DFG operations to GPU kernels. A kernel
//! holding several operations keeps intermediates on chip (saving global
//! memory traffic — the graph-centric advantage), while its parallelization
//! is chosen from the *batched data* pattern (edge-by-edge vs. batched
//! matrix work — Figure 10). This crate provides:
//!
//! - [`oppart`]: operation partition plans — which DFG nodes share a kernel
//!   (`separate` = tensor-centric, `fused` = graph-centric, plus arbitrary
//!   groupings);
//! - [`generate`]: composition of micro-kernel costs into per-kernel
//!   [`wisegraph_sim::KernelCost`]s, with fusion-aware memory accounting
//!   (intra-group intermediates are free; group boundaries pay traffic) and
//!   batched-data-aware compute classes;
//! - [`micro`]: the micro-kernel IR, its compiler from DFG fragments, the
//!   one per-gTask runner ([`micro::run_task`]) and the per-call edge
//!   pass, both walking a [`fused::FusedPlan`];
//! - [`fused`]: pattern-matched fusion of compiled micro-kernel chains
//!   into specialized, cache-blocked loops — a plan with fused segments is
//!   bit-identical to the interpreted plan of the same program;
//! - [`engine`]: the parallel gTask execution engine with persistent
//!   per-worker workspaces ([`micro::TaskWorkspace`]); its two
//!   [`engine::ExecMode`]s pick the plan (fused, interpreted);
//! - [`exec`]: a hand-written edge-by-edge RGCN layer, the numeric oracle
//!   independent of the IR;
//! - [`cluster`]: sharded multi-device execution — one real [`engine`]
//!   per simulated device, deterministic collectives, and the paper's
//!   placement schedules (§5.4, Figure 11) as executable strategies;
//! - [`train`]: graph aggregation as one autograd op, a walk over the
//!   graph's in-edge CSR rows forward and its out-edge CSR rows backward.

pub mod cluster;
pub mod engine;
pub mod exec;
pub mod fused;
pub mod generate;
pub mod micro;
pub mod oppart;
pub mod train;

pub use cluster::{ClusterEngine, ClusterRun, ExchangeLog};
pub use generate::{generate_kernels, GeneratedKernel, KernelContext};
pub use oppart::OpPartition;
