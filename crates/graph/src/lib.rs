//! Graph substrate: structures, attributes, generators, sampling, reordering.
//!
//! GNN inputs are a sparse graph plus dense per-vertex embeddings (paper §2.1).
//! This crate provides everything WiseGraph needs from the sparse side:
//!
//! - [`Graph`]: an edge-list (COO) graph with per-edge attributes (`src-id`,
//!   `dst-id`, `edge-type`) and derived inherent attributes (degrees);
//! - [`Csr`]: compressed sparse row adjacency for traversal and sampling;
//! - [`attr`]: the typed edge-attribute vocabulary used by partition tables;
//! - [`digest`]: the FNV-1a content-digest primitive behind
//!   [`Graph::content_key`];
//! - [`generate`]: RMAT-style power-law generators and labeled synthetic
//!   datasets with learnable (homophilous) structure;
//! - [`datasets`]: presets mirroring the paper's seven evaluation graphs
//!   (Table 1), scaled where the originals have billions of edges;
//! - [`sample`]: seed-plus-fanout neighbor sampling used by the sampled-graph
//!   training experiments (PA-S / FS-S, Figure 21);
//! - [`reorder`]: lightweight Metis/Rabbit-style vertex reorderings that the
//!   paper positions as composable with gTask partitioning (§4.3);
//! - [`shard`]: contiguous vertex-range sharding with halo/remote-unique
//!   index sets for multi-device execution (§5.4);
//! - [`io`]: text edge-list and compact binary graph serialization.

pub mod attr;
pub mod csr;
pub mod datasets;
pub mod digest;
pub mod generate;
pub mod graph;
pub mod io;
pub mod reorder;
pub mod sample;
pub mod shard;
pub mod stats;

pub use attr::AttrKind;
pub use csr::Csr;
pub use datasets::{DatasetKind, DatasetSpec};
pub use graph::Graph;
pub use shard::{ShardSpec, SrcGroups};
