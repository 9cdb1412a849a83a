//! WiseGraph: the end-to-end joint-partition workflow (paper §3, Figure 4).
//!
//! Given graph data and a GNN model, WiseGraph
//!
//! 1. identifies the model's indexing edge attributes and generates
//!    candidate **graph partition plans** (`wisegraph-gtask`);
//! 2. extracts gTask-level **data patterns** and generates candidate
//!    **operation partition plans** — DFG transformations, kernel
//!    generation contexts, operation placements (`wisegraph-dfg`,
//!    `wisegraph-kernels`);
//! 3. **jointly optimizes**: splits regular from outlier gTasks, applies
//!    differentiated scheduling, and searches the plan space with a cost
//!    model (pruning) and a plan cache.
//!
//! Modules:
//!
//! - [`plan`]: executable plans — a partition table, a transformed DFG, an
//!   operation partition, and the derived kernel context — plus their
//!   simulated time/memory evaluation;
//! - [`dynamic`]: the delta driver — incremental gTask repair, `C001`
//!   verification against a from-scratch partition, and content-keyed
//!   cache invalidation/reseeding per edge batch;
//! - [`joint`]: outlier-aware differentiated scheduling (Figure 12/19);
//! - [`optimizer`]: the staged search with pruning and caching (Figure 16,
//!   §6.3), producing the final `OptimizedModel` estimate;
//! - [`sharded`]: real sharded multi-device execution — placement
//!   selection over the compatible schedules of a compiled layer, run on
//!   a `wisegraph_kernels::cluster::ClusterEngine`;
//! - [`sampled`]: sampled-graph training support — plan reuse across
//!   subgraphs and overlapped partitioning (Figure 21);
//! - [`trainer`]: full-graph training driver for the accuracy experiments
//!   (Figure 14).

pub mod dynamic;
pub mod joint;
pub mod optimizer;
pub mod plan;
pub mod sampled;
pub mod sharded;
pub mod trainer;

pub use dynamic::{DynamicPlanner, RepairOutcome};
pub use sharded::{execute_sharded_layer, select_placement, PlacementChoice};
pub use optimizer::{OptimizedModel, SearchStage, SearchTrace, WiseGraph};
pub use plan::{ExecutionPlan, PlanEstimate};
