//! WiseGraph — joint workload partition of graph data and GNN operations.
//!
//! Rust reproduction of *WiseGraph: Optimizing GNN with Joint Workload
//! Partition of Graph and Operations* (Huang et al., EuroSys 2024).
//!
//! This facade crate re-exports every subsystem of the workspace:
//!
//! - [`tensor`]: dense tensors and reverse-mode autograd;
//! - [`graph`]: CSR/COO graph structures, synthetic datasets, sampling;
//! - [`dfg`]: the GNN operation data-flow graph IR and its transformations;
//! - [`gtask`]: the gTask abstraction — partition tables, restrictions, the
//!   greedy graph partitioner, data patterns, and outlier identification;
//! - [`sim`]: the calibrated analytic GPU and interconnect model that stands
//!   in for the paper's A100 testbed;
//! - [`kernels`]: composable micro-kernels and fused kernel generation;
//! - [`models`]: the five evaluated GNN models (GCN, SAGE, SAGE-LSTM, GAT,
//!   RGCN);
//! - [`baselines`]: tensor-centric / graph-centric / multi-GPU baseline
//!   executors;
//! - [`core`]: the end-to-end WiseGraph workflow (plan generation, joint
//!   optimization, strategy search, training);
//! - [`analysis`]: the pre-execution static verifier — plan and
//!   incremental-repair checks of a caller's inputs;
//! - [`cache`]: the content-addressed planning cache — FNV content
//!   hashing and the in-process [`PlanCache`](wisegraph_cache::PlanCache)
//!   store that lets warm runs skip partitioning, DFG optimization, and
//!   kernel compilation;
//! - [`obs`]: the hermetic tracing/metrics layer — deterministic work
//!   counters, structured spans, and the Chrome-trace/metrics exporters
//!   behind the `wisegraph-prof` binary.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end optimization run.

pub use wisegraph_analysis as analysis;
pub use wisegraph_baselines as baselines;
pub use wisegraph_cache as cache;
pub use wisegraph_core as core;
pub use wisegraph_dfg as dfg;
pub use wisegraph_graph as graph;
pub use wisegraph_gtask as gtask;
pub use wisegraph_kernels as kernels;
pub use wisegraph_models as models;
pub use wisegraph_obs as obs;
pub use wisegraph_sim as sim;
pub use wisegraph_tensor as tensor;
