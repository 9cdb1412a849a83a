//! The GNN operation data-flow graph (DFG) IR.
//!
//! A GNN model is a DFG of *indexing operations* (data movement along graph
//! structure) and *neural operations* (dense computation) — paper §2.1 and
//! Figure 2(c). This crate provides:
//!
//! - [`dim`]: symbolic tensor dimensions (`|V|`, `|E|`, `uniq(attr)`, …) and
//!   concrete [`dim::Binding`]s derived from a graph or a gTask;
//! - [`op`]: the operation vocabulary with per-op shape inference, FLOP and
//!   memory-traffic accounting;
//! - [`graph`]: the [`Dfg`] container with a builder API, validation and
//!   topological iteration;
//! - [`analysis`]: identification of *indexing edge attributes* (§4.1) and
//!   whole-DFG workload summaries;
//! - [`transform`]: the two DFG transformation rules of §5.2 — *unique value
//!   extraction* and *indexing swapping* (with Index-2D merging) — plus the
//!   workload-guided search that picks the cheapest equivalent DFG;
//! - [`interp`]: a reference interpreter that executes a DFG on a concrete
//!   graph and tensors, used to verify transformations preserve semantics.

pub mod analysis;
pub mod dim;
pub mod graph;
pub mod interp;
pub mod op;
pub mod transform;

pub use dim::{Binding, Dim, SymShape};
pub use graph::{Dfg, NodeId};
pub use op::OpKind;
