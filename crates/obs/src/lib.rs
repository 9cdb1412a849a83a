//! `wisegraph-obs` — the hermetic tracing and metrics layer.
//!
//! Every other execution crate (tensor, kernels, gtask, dfg, sim, core)
//! reports what it *did* through this one: structured [`span!`] intervals
//! for the timeline, and a [`Counters`] registry for the work itself.
//! The split matters — WiseGraph's testing story is built on determinism,
//! and wall-clock time is noise. So work counters (edges processed, FLOPs,
//! bytes gathered/scattered, partition shapes) are pure functions of the
//! inputs and bit-comparable run to run, while timestamps ride along as an
//! overlay that exporters render but gates never compare. [`critical`]
//! replays a cluster run's device timelines against the messages of its
//! exchange rounds to attribute the run's makespan.
//!
//! The crate has **zero dependencies** (it sits at the bottom of the
//! workspace graph) and owns the workspace's only monotonic-clock site
//! ([`clock`]); `testkit::hermetic::scan_sources` flags `Instant` anywhere
//! else in shipped code.
//!
//! Typical producer:
//!
//! ```
//! use wisegraph_obs::{span, Counters};
//!
//! fn process(edges: &[u32], c: &mut Counters) {
//!     let mut s = span!("demo.process", edges = edges.len());
//!     c.add(wisegraph_obs::keys::KERNEL_EDGES, edges.len() as u64);
//!     s.arg("done", 1u64);
//! }
//! ```
//!
//! Typical consumer:
//!
//! ```
//! let ((), trace) = wisegraph_obs::capture(|| {
//!     let _s = wisegraph_obs::span!("demo.step");
//! });
//! let chrome = wisegraph_obs::export::trace_to_chrome_json(&trace);
//! assert!(chrome.contains("traceEvents"));
//! ```

pub mod clock;
pub mod counters;
pub mod critical;
pub mod export;
pub mod json;
pub mod span;

pub use counters::{pool_reuse_ratio, Class, Counters, MergeKind, Metric, Value};
pub use critical::{analyze, AttributionReport, DeviceTimeline, PhaseKind, Segment};
pub use export::{counters_from_json, counters_to_json, trace_to_chrome_json};
pub use span::{capture, with_lane, Session, SpanGuard, Trace};

/// The shared metric-name vocabulary.
///
/// Components that report the same quantity must use the same key, or
/// merges silently split what should aggregate; keeping the canonical
/// names here (instead of string literals at each call site) makes the
/// compiler enforce that.
pub mod keys {
    /// Pool checkouts served by a fresh allocation ([`Resource`](crate::Class::Resource), sum).
    pub const POOL_CREATED: &str = "pool.buffers_created";
    /// Pool checkouts served from the pool ([`Resource`](crate::Class::Resource), sum).
    pub const POOL_REUSED: &str = "pool.buffers_reused";
    /// Bytes currently parked in pools ([`Resource`](crate::Class::Resource), sum).
    pub const POOL_RESIDENT: &str = "pool.resident_bytes";
    /// High-water mark of parked bytes ([`Resource`](crate::Class::Resource), max).
    pub const POOL_PEAK: &str = "pool.peak_resident_bytes";
    /// Buffers currently checked out of the pool
    /// ([`Resource`](crate::Class::Resource), gauge).
    pub const POOL_OPEN_LEASES: &str = "pool.open_leases";
    /// High-water mark of simultaneously checked-out buffers
    /// ([`Resource`](crate::Class::Resource), max).
    pub const POOL_PEAK_OPEN_LEASES: &str = "pool.peak_open_leases";

    /// High-water mark of parked bytes within one size class
    /// ([`Resource`](crate::Class::Resource), max).
    pub fn pool_class_peak(class: usize) -> String {
        format!("pool.size_class.{class:02}.peak_resident_bytes")
    }

    /// gTasks executed ([`Work`](crate::Class::Work), sum).
    pub const KERNEL_TASKS: &str = "kernel.tasks";
    /// Edges processed by kernel programs ([`Work`](crate::Class::Work), sum).
    pub const KERNEL_EDGES: &str = "kernel.edges";
    /// Floating-point operations issued ([`Work`](crate::Class::Work), sum).
    pub const KERNEL_FLOPS: &str = "kernel.flops";
    /// Bytes read by gather-style ops ([`Work`](crate::Class::Work), sum).
    pub const KERNEL_BYTES_GATHERED: &str = "kernel.bytes_gathered";
    /// Bytes written by scatter-style ops ([`Work`](crate::Class::Work), sum).
    pub const KERNEL_BYTES_SCATTERED: &str = "kernel.bytes_scattered";
    /// gTasks that ran through at least one fused segment
    /// ([`Resource`](crate::Class::Resource), sum).
    pub const KERNEL_FUSED_TASKS: &str = "kernel.fused_tasks";
    /// Micro-kernel instructions replaced by fused segments
    /// ([`Resource`](crate::Class::Resource), sum).
    pub const KERNEL_FUSED_MICRO_OPS: &str = "kernel.fused_micro_ops";

    /// gTasks produced by the partitioner ([`Work`](crate::Class::Work), sum).
    pub const PARTITION_TASKS: &str = "partition.tasks";
    /// Edges covered by the plan ([`Work`](crate::Class::Work), sum).
    pub const PARTITION_EDGES: &str = "partition.edges";
    /// Largest gTask, in edges ([`Work`](crate::Class::Work), max).
    pub const PARTITION_MAX_TASK_EDGES: &str = "partition.max_task_edges";
    /// Median gTask size, in edges ([`Work`](crate::Class::Work), max).
    pub const PARTITION_MEDIAN_TASK_EDGES: &str = "partition.median_task_edges";

    /// Edge-weighted dedup ratio (`uniq(attr) / edges`) of one attribute
    /// across a plan ([`Work`](crate::Class::Work), gauge).
    pub fn partition_dedup_ratio(attr: &str) -> String {
        format!("partition.dedup_ratio.{attr}")
    }

    /// Engine worker slots used by an execution ([`Resource`](crate::Class::Resource), max).
    pub const ENGINE_THREADS: &str = "engine.threads";
    /// Edges of an execution's busiest worker slot over the mean of all
    /// slots, in permille — 1000 is a perfectly even deal
    /// ([`Resource`](crate::Class::Resource), max).
    pub const ENGINE_WORKER_EDGE_SKEW: &str = "engine.worker_edge_skew_permille";

    /// Planning-cache lookups served from the store
    /// ([`Resource`](crate::Class::Resource), sum).
    pub const CACHE_HITS: &str = "cache.hits";
    /// Planning-cache lookups that recomputed and stored
    /// ([`Resource`](crate::Class::Resource), sum).
    pub const CACHE_MISSES: &str = "cache.misses";
    /// Cache entries dropped by key invalidation
    /// ([`Resource`](crate::Class::Resource), sum).
    pub const CACHE_INVALIDATIONS: &str = "cache.invalidations";
    /// High-water mark of live cache entries
    /// ([`Resource`](crate::Class::Resource), max).
    pub const CACHE_ENTRIES: &str = "cache.entries";
    /// High-water mark of the stored artifacts' heap payload in bytes
    /// ([`Resource`](crate::Class::Resource), max).
    pub const CACHE_STORED_BYTES: &str = "cache.stored_bytes";
    /// Hit fraction of all lookups so far, in parts per thousand
    /// ([`Resource`](crate::Class::Resource), gauge).
    pub const CACHE_HIT_RATE_PERMILLE: &str = "cache.hit_rate_permille";

    /// Total bytes moved through cluster collectives, counted once per
    /// send ([`Work`](crate::Class::Work), sum): a pure function of graph,
    /// schedule, and device count, independent of per-device thread
    /// counts.
    pub const COMM_BYTES_EXCHANGED: &str = "comm.bytes_exchanged";
    /// Point-to-point messages sent through cluster collectives
    /// ([`Work`](crate::Class::Work), sum).
    pub const COMM_MESSAGES: &str = "comm.messages";
    /// Devices participating in cluster execution
    /// ([`Resource`](crate::Class::Resource), max).
    pub const COMM_DEVICES: &str = "comm.devices";
    /// Times a cluster derived its shard state (ownership boundaries,
    /// per-device plans, halos) because the (graph, plan) presented
    /// differed from the one it held
    /// ([`Resource`](crate::Class::Resource), sum).
    pub const CLUSTER_SHARD_REBUILDS: &str = "cluster.shard.rebuilds";
    /// Bytes sent through one named collective
    /// ([`Work`](crate::Class::Work), sum).
    pub fn comm_collective_bytes(collective: &str) -> String {
        format!("comm.collective.{collective}.bytes")
    }
    /// Per-device counter prefix for [`crate::Counters::merge_prefixed`]:
    /// zero-padded so lexicographic order equals device order.
    pub fn device_prefix(device: usize) -> String {
        format!("device.{device:02}")
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn key_helpers_produce_sortable_names() {
        // Zero padding keeps lexicographic order == numeric order for the
        // worker/class counts this workspace uses.
        assert!(super::keys::pool_class_peak(2) < super::keys::pool_class_peak(10));
        assert_eq!(
            super::keys::partition_dedup_ratio("src"),
            "partition.dedup_ratio.src"
        );
        assert!(super::keys::device_prefix(2) < super::keys::device_prefix(10));
        assert_eq!(
            super::keys::comm_collective_bytes("all_gather"),
            "comm.collective.all_gather.bytes"
        );
    }
}
