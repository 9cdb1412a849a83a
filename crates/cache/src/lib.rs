//! Content-addressed planning cache (the "plan reuse" answer of §6.3,
//! mechanically modeled on content-addressed build stores).
//!
//! Planning a layer costs three nontrivial stages — graph partitioning
//! (O(E) per key column), DFG transform-optimization, and micro-kernel
//! compilation. All three are pure functions of content the workspace can
//! hash deterministically: the graph topology (or its live edge subset),
//! the partition table's restriction set, and the model DFG. This crate
//! keys a byte store on exactly those hashes so a warm run skips all three
//! stages and decodes the artifacts instead:
//!
//! - [`bytes`]: the byte-stable little-endian encoding layer;
//! - [`artifact`]: canonical encode/decode for [`PartitionPlan`],
//!   transformed [`Dfg`], and [`KernelProgram`] artifacts, plus the
//!   [`CachedArtifact`] registry the `C002` roundtrip-test gate walks;
//! - [`hash`]: FNV-1a content hashing of the key components;
//! - [`store`]: the [`PlanCache`] itself — cached entry points, surgical
//!   per-graph invalidation, and Resource-class hit/miss counters.
//!
//! Correctness stance: hits decode stored bytes (never return live
//! objects), decode failures degrade to misses, everything the cache
//! records in [`wisegraph_obs`] is `Resource`-class so cached and uncached
//! runs stay bit-identical in their `Work` counters — the invariant
//! `wisegraph-prof --check` enforces.
//!
//! [`PartitionPlan`]: wisegraph_gtask::PartitionPlan
//! [`Dfg`]: wisegraph_dfg::Dfg
//! [`KernelProgram`]: wisegraph_kernels::micro::KernelProgram
//! [`CachedArtifact`]: artifact::CachedArtifact
//! [`PlanCache`]: store::PlanCache

pub mod artifact;
pub mod bytes;
pub mod hash;
pub mod store;

pub use artifact::{CachedArtifact, FORMAT_VERSION};
pub use bytes::{ByteReader, ByteWriter, DecodeError};
pub use hash::{fnv64, hash_dfg, hash_graph, hash_graph_edges, hash_table, Fnv64};
pub use store::{EntryKey, PlanCache};
