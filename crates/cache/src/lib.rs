//! Content-addressed planning cache (the "plan reuse" answer of §6.3,
//! mechanically modeled on content-addressed build stores).
//!
//! Planning a layer runs three stages — graph partitioning (O(E) per key
//! column), DFG transform-optimization, and micro-kernel compilation. All
//! three are pure functions of content the workspace can hash
//! deterministically: the graph topology (or its live edge subset), the
//! partition table's restriction set, and the model DFG. This crate keys
//! an in-process store on exactly those hashes so a warm run skips all
//! three stages and clones the stored artifacts instead:
//!
//! - [`hash`]: FNV-1a content hashing of the key components;
//! - [`store`]: the [`PlanCache`] itself — cached entry points, surgical
//!   per-graph invalidation, and Resource-class hit/miss counters.
//!
//! Nothing leaves the process, so there is no serialized form; an on-disk
//! store would bring its codec, format version and fuzz tests with it.
//! Everything the cache records in [`wisegraph_obs`] is `Resource`-class,
//! so cached and uncached runs stay bit-identical in their `Work`
//! counters — the invariant `wisegraph-prof --check` enforces.
//!
//! [`PlanCache`]: store::PlanCache

pub mod hash;
pub mod store;

pub use hash::{hash_dfg, hash_graph, hash_graph_edges, hash_table, Fnv64};
pub use store::PlanCache;
