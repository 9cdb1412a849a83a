//! The in-process content-addressed planning store.
//!
//! A [`PlanCache`] memoizes the three expensive planning stages —
//! partitioning, DFG transformation, kernel compilation — behind
//! content-derived keys ([`EntryKey`]): the artifact type, the
//! [`FORMAT_VERSION`], a graph component, and a subject component (table
//! hash for plans, DFG hash for rewrites and programs). Entries store the
//! artifact's canonical bytes, and a hit *decodes those bytes* rather than
//! returning a cached object, so the serialization path is exercised on
//! every reuse and a corrupt entry degrades to a miss instead of poisoning
//! the run.
//!
//! Invalidation is component-wise: [`PlanCache::invalidate_graph`] drops
//! exactly the entries whose key carries a stale graph hash — the delta
//! driver in `wisegraph-core` calls it after an edge batch changes the
//! live set, leaving entries for other graphs (and the table/DFG subjects
//! under them) intact.

use crate::artifact::{
    decode_dfg, decode_plan, decode_program, encode_dfg, encode_plan, encode_program,
    CachedArtifact, FORMAT_VERSION,
};
use crate::hash::{hash_dfg, hash_graph, hash_graph_edges, hash_table, Fnv64};
use std::collections::BTreeMap;
use wisegraph_dfg::{transform, Binding, Dfg};
use wisegraph_graph::Graph;
use wisegraph_gtask::{partition_edges, PartitionPlan, PartitionTable};
use wisegraph_kernels::micro::{compile, CompileError, KernelProgram};
use wisegraph_obs::{keys, span, Class, Counters};

/// A content-derived store key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EntryKey {
    /// Which artifact type the entry holds.
    pub artifact: CachedArtifact,
    /// Content hash of the graph component (full graph or live subset).
    pub graph: u64,
    /// Content hash of the subject: the partition table for plans, the
    /// source DFG for rewrites and compiled programs.
    pub subject: u64,
}

impl EntryKey {
    /// Folds the key (plus the format version) into a single digest —
    /// useful for logging/debugging; the store itself keys on the struct.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(u64::from(FORMAT_VERSION));
        h.write(&[self.artifact.tag()]);
        h.write_u64(self.graph);
        h.write_u64(self.subject);
        h.finish()
    }
}

/// The content-addressed planning cache.
#[derive(Debug, Default)]
pub struct PlanCache {
    entries: BTreeMap<EntryKey, Vec<u8>>,
    hits: u64,
    misses: u64,
    invalidations: u64,
    peak_entries: u64,
    peak_bytes: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialized bytes currently resident.
    pub fn stored_bytes(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }

    /// Lookups served from the store.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that recomputed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries dropped by invalidation.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    fn note_size(&mut self) {
        self.peak_entries = self.peak_entries.max(self.entries.len() as u64);
        self.peak_bytes = self.peak_bytes.max(self.stored_bytes() as u64);
    }

    /// Content hash of the full graph (all edges live).
    pub fn graph_key(g: &Graph) -> u64 {
        hash_graph(g)
    }

    /// Content hash of a live edge subset of the graph.
    pub fn graph_edges_key(g: &Graph, live: &[usize]) -> u64 {
        hash_graph_edges(g, live)
    }

    /// Cached graph partition over all edges of `g`.
    pub fn partition_cached(&mut self, g: &Graph, table: &PartitionTable) -> PartitionPlan {
        let live: Vec<usize> = (0..g.num_edges()).collect();
        self.partition_under(hash_graph(g), g, table, &live)
    }

    /// Cached graph partition over a live edge subset (the delta path).
    /// `live` must be sorted ascending (as `IncrementalPlan::live_edges`
    /// returns it) for the key to be canonical.
    pub fn partition_edges_cached(
        &mut self,
        g: &Graph,
        table: &PartitionTable,
        live: &[usize],
    ) -> PartitionPlan {
        // A sorted unique subset covering every edge IS the full graph:
        // use the full-graph key so both entry points share entries.
        let gk = if live.len() == g.num_edges() {
            hash_graph(g)
        } else {
            hash_graph_edges(g, live)
        };
        self.partition_under(gk, g, table, live)
    }

    /// Cached partition of `live` filed under a graph key the caller
    /// already holds — `wisegraph-core`'s delta driver keeps the key of its
    /// current live set, so its lookups need not re-derive it from the
    /// edges. `graph_key` must be what [`PlanCache::graph_key`] (all edges
    /// live) or [`PlanCache::graph_edges_key`] would return for `live`.
    pub fn partition_under(
        &mut self,
        graph_key: u64,
        g: &Graph,
        table: &PartitionTable,
        live: &[usize],
    ) -> PartitionPlan {
        let key = EntryKey {
            artifact: CachedArtifact::PartitionPlan,
            graph: graph_key,
            subject: hash_table(table),
        };
        let mut sp = span!("cache.partition", edges = live.len());
        if let Some(bytes) = self.entries.get(&key) {
            if let Ok(plan) = decode_plan(bytes) {
                self.hits += 1;
                sp.arg("hit", 1usize);
                return plan;
            }
            // Undecodable entry: drop it and fall through to recompute.
            self.entries.remove(&key);
            self.invalidations += 1;
        }
        self.misses += 1;
        sp.arg("hit", 0usize);
        let plan = partition_edges(g, table, live);
        self.entries.insert(key, encode_plan(&plan));
        self.note_size();
        plan
    }

    /// Cached transform-optimization of a model DFG under the graph's
    /// whole-scope binding.
    pub fn transform_cached(&mut self, g: &Graph, base: &Dfg) -> Dfg {
        let key = EntryKey {
            artifact: CachedArtifact::TransformedDfg,
            graph: hash_graph(g),
            subject: hash_dfg(base),
        };
        let mut sp = span!("cache.transform", nodes = base.len());
        if let Some(bytes) = self.entries.get(&key) {
            if let Ok(dfg) = decode_dfg(bytes) {
                self.hits += 1;
                sp.arg("hit", 1usize);
                return dfg;
            }
            self.entries.remove(&key);
            self.invalidations += 1;
        }
        self.misses += 1;
        sp.arg("hit", 0usize);
        let binding = Binding::from_graph(g);
        let (dfg, _) = transform::optimize(base, &binding);
        self.entries.insert(key, encode_dfg(&dfg));
        self.note_size();
        dfg
    }

    /// Cached micro-kernel compilation of a DFG against a graph.
    /// Compile *errors* are not cached: they are cheap to rediscover and
    /// usually mean the caller is probing an unsupported combination.
    pub fn compile_cached(
        &mut self,
        g: &Graph,
        dfg: &Dfg,
    ) -> Result<KernelProgram, CompileError> {
        let key = EntryKey {
            artifact: CachedArtifact::KernelProgram,
            graph: hash_graph(g),
            subject: hash_dfg(dfg),
        };
        let mut sp = span!("cache.compile", nodes = dfg.len());
        if let Some(bytes) = self.entries.get(&key) {
            if let Ok(p) = decode_program(bytes) {
                self.hits += 1;
                sp.arg("hit", 1usize);
                return Ok(p);
            }
            self.entries.remove(&key);
            self.invalidations += 1;
        }
        self.misses += 1;
        sp.arg("hit", 0usize);
        let p = compile(dfg, g)?;
        self.entries.insert(key, encode_program(&p));
        self.note_size();
        Ok(p)
    }

    /// Stores an externally produced plan (e.g. a repaired incremental
    /// snapshot that `wisegraph-analysis` has verified) under the given
    /// graph key, so the next lookup for that (graph, table) hits.
    pub fn insert_plan(&mut self, graph_key: u64, plan: &PartitionPlan) {
        let key = EntryKey {
            artifact: CachedArtifact::PartitionPlan,
            graph: graph_key,
            subject: hash_table(&plan.table),
        };
        self.entries.insert(key, encode_plan(plan));
        self.note_size();
    }

    /// Drops every entry whose graph component equals `graph_key` and
    /// returns how many were removed. Entries under other graph hashes —
    /// including other live-set snapshots of the same universe graph —
    /// survive.
    pub fn invalidate_graph(&mut self, graph_key: u64) -> usize {
        let doomed: Vec<EntryKey> = self
            .entries
            .keys()
            .filter(|k| k.graph == graph_key)
            .copied()
            .collect();
        for k in &doomed {
            self.entries.remove(k);
        }
        self.invalidations += doomed.len() as u64;
        doomed.len()
    }

    /// Records the cache's Resource counters (hits, misses, invalidations,
    /// entry/byte high-water marks, hit rate).
    pub fn record_counters(&self, c: &mut Counters) {
        c.add_class(keys::CACHE_HITS, self.hits, Class::Resource);
        c.add_class(keys::CACHE_MISSES, self.misses, Class::Resource);
        c.add_class(keys::CACHE_INVALIDATIONS, self.invalidations, Class::Resource);
        c.record_max(keys::CACHE_ENTRIES, self.peak_entries, Class::Resource);
        c.record_max(keys::CACHE_STORED_BYTES, self.peak_bytes, Class::Resource);
        let lookups = self.hits + self.misses;
        if lookups > 0 {
            let permille = (self.hits as f64 / lookups as f64) * 1000.0;
            c.set_gauge(keys::CACHE_HIT_RATE_PERMILLE, permille, Class::Resource);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_gtask::partition;
    use wisegraph_models::ModelKind;

    fn graph(seed: u64) -> Graph {
        rmat(&RmatParams::standard(80, 700, seed).with_edge_types(4))
    }

    #[test]
    fn partition_hits_after_first_miss_and_matches_direct() {
        let g = graph(31);
        let table = PartitionTable::src_batch_per_type(8);
        let mut cache = PlanCache::new();
        let cold = cache.partition_cached(&g, &table);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 0);
        let warm = cache.partition_cached(&g, &table);
        assert_eq!(cache.hits(), 1);
        let direct = partition(&g, &table);
        assert_eq!(cold.tasks, direct.tasks);
        assert_eq!(warm.tasks, direct.tasks);
    }

    #[test]
    fn different_graphs_and_tables_do_not_collide() {
        let g1 = graph(41);
        let g2 = graph(42);
        let mut cache = PlanCache::new();
        let a = cache.partition_cached(&g1, &PartitionTable::vertex_centric());
        let b = cache.partition_cached(&g2, &PartitionTable::vertex_centric());
        let c = cache.partition_cached(&g1, &PartitionTable::edge_batch(16));
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.len(), 3);
        assert_ne!(a.num_tasks(), 0);
        assert_ne!(b.tasks, a.tasks);
        assert_ne!(c.tasks, a.tasks);
    }

    /// Two graphs that differ only in their vertex types must not share
    /// entries: a table restricting a vertex-type attribute partitions
    /// them differently.
    #[test]
    fn graphs_differing_only_in_vertex_types_do_not_share_plans() {
        use wisegraph_graph::AttrKind;
        let g = graph(49);
        let n = g.num_vertices() as u32;
        let halves = g.clone().with_vertex_types((0..n).map(|v| v % 2).collect());
        let thirds = g.clone().with_vertex_types((0..n).map(|v| v % 3).collect());
        let table = PartitionTable::new().exact(AttrKind::SrcVertexType, 1);
        let mut cache = PlanCache::new();
        let a = cache.partition_cached(&halves, &table);
        let b = cache.partition_cached(&thirds, &table);
        assert_eq!((cache.misses(), cache.hits()), (2, 0));
        assert_eq!(a, partition(&halves, &table));
        assert_eq!(b, partition(&thirds, &table));
        assert_ne!(a.tasks, b.tasks);
        // The same holds for live subsets on the delta path.
        let live: Vec<usize> = (0..g.num_edges()).step_by(3).collect();
        let a = cache.partition_edges_cached(&halves, &table, &live);
        let b = cache.partition_edges_cached(&thirds, &table, &live);
        assert_eq!((cache.misses(), cache.hits()), (4, 0));
        assert_ne!(a.tasks, b.tasks);
    }

    #[test]
    fn transform_and_compile_hit_and_match_direct() {
        let g = graph(43);
        let base = ModelKind::Rgcn.layer_dfg(8, 6);
        let mut cache = PlanCache::new();
        let cold = cache.transform_cached(&g, &base);
        let warm = cache.transform_cached(&g, &base);
        assert_eq!(cache.hits(), 1);
        assert_eq!(crate::artifact::encode_dfg(&cold), crate::artifact::encode_dfg(&warm));

        let p_cold = cache.compile_cached(&g, &cold).unwrap();
        let p_warm = cache.compile_cached(&g, &warm).unwrap();
        assert_eq!(cache.hits(), 2);
        assert_eq!(
            crate::artifact::encode_program(&p_cold),
            crate::artifact::encode_program(&p_warm)
        );
    }

    #[test]
    fn invalidate_graph_is_surgical() {
        let g1 = graph(44);
        let g2 = graph(45);
        let mut cache = PlanCache::new();
        cache.partition_cached(&g1, &PartitionTable::vertex_centric());
        cache.partition_cached(&g1, &PartitionTable::edge_batch(8));
        cache.partition_cached(&g2, &PartitionTable::vertex_centric());
        assert_eq!(cache.len(), 3);
        let dropped = cache.invalidate_graph(PlanCache::graph_key(&g1));
        assert_eq!(dropped, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.invalidations(), 2);
        // g2's entry still hits.
        cache.partition_cached(&g2, &PartitionTable::vertex_centric());
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn live_subset_keys_are_distinct_from_full_graph() {
        let g = graph(46);
        let table = PartitionTable::vertex_centric();
        let mut cache = PlanCache::new();
        let all: Vec<usize> = (0..g.num_edges()).collect();
        let sub: Vec<usize> = (0..g.num_edges() / 2).collect();
        cache.partition_cached(&g, &table);
        let via_subset = cache.partition_edges_cached(&g, &table, &all);
        // Same content → same key → hit, even through the other entry point.
        assert_eq!(cache.hits(), 1);
        cache.partition_edges_cached(&g, &table, &sub);
        assert_eq!(cache.misses(), 2);
        assert_eq!(via_subset.total_edges(), g.num_edges());
    }

    #[test]
    fn inserted_plan_is_served_back() {
        let g = graph(47);
        let table = PartitionTable::dst_and_type();
        let plan = partition(&g, &table);
        let mut cache = PlanCache::new();
        let key = PlanCache::graph_key(&g);
        cache.insert_plan(key, &plan);
        let served = cache.partition_cached(&g, &table);
        assert_eq!(cache.hits(), 1);
        assert_eq!(served.tasks, plan.tasks);
    }

    #[test]
    fn counters_report_resource_class() {
        let g = graph(48);
        let mut cache = PlanCache::new();
        cache.partition_cached(&g, &PartitionTable::vertex_centric());
        cache.partition_cached(&g, &PartitionTable::vertex_centric());
        let mut c = Counters::new();
        cache.record_counters(&mut c);
        assert_eq!(c.count(keys::CACHE_HITS), 1);
        assert_eq!(c.count(keys::CACHE_MISSES), 1);
        assert_eq!(c.gauge(keys::CACHE_HIT_RATE_PERMILLE), Some(500.0));
        // Everything the cache reports is Resource-class: absent from the
        // Work-only view the bit-identity gates compare.
        let work_only = c.only(&[Class::Work]);
        assert_eq!(work_only.count(keys::CACHE_HITS), 0);
    }
}
