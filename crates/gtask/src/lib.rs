//! The gTask abstraction: joint workload partition of graph data.
//!
//! A *gTask* (paper §3) is a subset of edges produced by a graph partition
//! plan, later paired with an operation partition plan. This crate covers
//! the graph side (§4) and the analyses that feed the operation side (§5.1)
//! and the joint optimizer (§6.1):
//!
//! - [`restriction`]: the graph partition table (Figure 6) — per-attribute
//!   restrictions `uniq(attr) = k`, `uniq(attr) = min`, or unrestricted —
//!   plus constructors for the classic plans of Figure 7 (vertex-centric,
//!   edge-centric, 2-D, …) and the adaptive plan enumerator;
//! - [`partition`](mod@partition): the greedy sort-and-scan partitioner
//!   (counting sort plus one stamped scan, O(E) per key column), writing
//!   the plan's flat arrays directly;
//! - [`stamp`]: the epoch-stamped dense value set the scan counts distinct
//!   attribute values with, the code columns that size it, and the
//!   [`Recount`] the plan verifiers, the plan pricer and the outlier
//!   classifier count with (a task's distinct count is its recorded `uniq`
//!   row or a `Recount`, nothing else);
//! - [`task`]: the CSR-of-tasks [`PartitionPlan`] and the [`GTask`] view
//!   of one task with its recorded `uniq` row;
//! - [`outlier`]: identification of underfill / overfill / frequent-value
//!   outlier gTasks.

pub mod incremental;
pub mod outlier;
pub mod partition;
pub mod restriction;
pub mod stamp;
pub mod task;

pub use outlier::{classify_outliers, OutlierKind};
pub use incremental::{DeltaStats, GraphDelta, IncrementalPlan};
pub use partition::{partition, partition_edges};
pub use restriction::{PartitionTable, Restriction};
pub use stamp::{Column, Recount, StampSet};
pub use task::{GTask, PartitionPlan, TaskList, Tasks};
