//! The in-process content-addressed planning store.
//!
//! A [`PlanCache`] memoizes the three planning stages — partitioning, DFG
//! transformation, kernel compilation — behind content-derived keys: a
//! graph component (full graph or live edge subset) and a subject
//! component (table hash for plans, DFG hash for rewrites and programs).
//! Entries are the artifacts themselves, one map per artifact type; a hit
//! returns a clone, so nothing a caller does to its copy reaches the
//! store.
//!
//! Invalidation is component-wise: [`PlanCache::invalidate_graph`] drops
//! exactly the entries whose key carries a stale graph hash — the delta
//! driver in `wisegraph-core` calls it after an edge batch changes the
//! live set, leaving entries for other graphs (and the table/DFG subjects
//! under them) intact.

use crate::hash::{hash_dfg, hash_graph, hash_graph_edges, hash_table};
use std::collections::BTreeMap;
use std::mem::{size_of, size_of_val};
use wisegraph_dfg::graph::Node;
use wisegraph_dfg::{transform, Binding, Dfg};
use wisegraph_graph::Graph;
use wisegraph_gtask::{partition, partition_edges, PartitionPlan, PartitionTable};
use wisegraph_kernels::micro::{compile, CompileError, KernelProgram};
use wisegraph_obs::{keys, span, Class, Counters};

/// A content-derived store key, within one artifact type's map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct EntryKey {
    /// Content hash of the graph component (full graph or live subset).
    graph: u64,
    /// Content hash of the subject: the partition table for plans, the
    /// source DFG for rewrites and compiled programs.
    subject: u64,
}

/// What [`PlanCache::stored_bytes`] charges for one entry: the heap
/// payload its vectors and maps hold, from their lengths (string bytes and
/// allocator slack are not counted).
trait Payload {
    fn payload_bytes(&self) -> usize;
}

impl Payload for PartitionPlan {
    /// The plan's three flat arrays: 4 B per edge id, per offset and per
    /// `uniq` entry.
    fn payload_bytes(&self) -> usize {
        let t = &self.tasks;
        let uniq = t.len() * t.attrs().len() * size_of::<u32>();
        size_of_val(t.edges()) + size_of_val(t.offsets()) + uniq
    }
}

impl Payload for Dfg {
    fn payload_bytes(&self) -> usize {
        let per_node = |n: &Node| size_of_val(&n.inputs[..]) + size_of_val(&n.shape[..]);
        size_of_val(self.nodes())
            + self.nodes().iter().map(per_node).sum::<usize>()
            + size_of_val(self.outputs())
    }
}

impl Payload for KernelProgram {
    fn payload_bytes(&self) -> usize {
        size_of_val(&self.ops[..])
            + size_of_val(&self.edge_ops[..])
            + size_of_val(&self.prologue[..])
    }
}

/// Files `value` under `key`, keeping the running byte total exact when
/// the key was already taken.
fn put<V: Payload>(map: &mut BTreeMap<EntryKey, V>, total: &mut usize, key: EntryKey, value: V) {
    *total += value.payload_bytes();
    if let Some(old) = map.insert(key, value) {
        *total -= old.payload_bytes();
    }
}

/// Drops `map`'s entries under `graph`, returning how many went.
fn drop_graph<V: Payload>(map: &mut BTreeMap<EntryKey, V>, total: &mut usize, graph: u64) -> usize {
    let before = map.len();
    map.retain(|k, v| {
        let stale = k.graph == graph;
        if stale {
            *total -= v.payload_bytes();
        }
        !stale
    });
    before - map.len()
}

/// The content-addressed planning cache.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: BTreeMap<EntryKey, PartitionPlan>,
    dfgs: BTreeMap<EntryKey, Dfg>,
    programs: BTreeMap<EntryKey, KernelProgram>,
    /// Sum of `payload_bytes` over all three maps.
    stored_bytes: usize,
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
        self.plans.len() + self.dfgs.len() + self.programs.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap payload of the artifacts currently resident, from their
    /// lengths: a plan's `4·E + 4·(T + 1) + 4·T·A` bytes (E edge ids,
    /// T tasks, A tracked attributes) plus the per-node and
    /// per-instruction records of DFGs and programs.
    pub fn stored_bytes(&self) -> usize {
        self.stored_bytes
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
        self.peak_entries = self.peak_entries.max(self.len() as u64);
        self.peak_bytes = self.peak_bytes.max(self.stored_bytes as u64);
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
        self.plan_or(hash_graph(g), table, g.num_edges(), || partition(g, table))
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
        self.plan_or(graph_key, table, live.len(), || partition_edges(g, table, live))
    }

    /// The plan filed under (`graph_key`, `table`), or `compute`'s result
    /// stored there first.
    fn plan_or(
        &mut self,
        graph_key: u64,
        table: &PartitionTable,
        edges: usize,
        compute: impl FnOnce() -> PartitionPlan,
    ) -> PartitionPlan {
        let key = EntryKey {
            graph: graph_key,
            subject: hash_table(table),
        };
        let mut sp = span!("cache.partition", edges = edges);
        if let Some(plan) = self.plans.get(&key) {
            self.hits += 1;
            sp.arg("hit", 1usize);
            return plan.clone();
        }
        self.misses += 1;
        sp.arg("hit", 0usize);
        let plan = compute();
        put(&mut self.plans, &mut self.stored_bytes, key, plan.clone());
        self.note_size();
        plan
    }

    /// Cached transform-optimization of a model DFG under the graph's
    /// whole-scope binding.
    pub fn transform_cached(&mut self, g: &Graph, base: &Dfg) -> Dfg {
        let key = EntryKey {
            graph: hash_graph(g),
            subject: hash_dfg(base),
        };
        let mut sp = span!("cache.transform", nodes = base.len());
        if let Some(dfg) = self.dfgs.get(&key) {
            self.hits += 1;
            sp.arg("hit", 1usize);
            return dfg.clone();
        }
        self.misses += 1;
        sp.arg("hit", 0usize);
        let binding = Binding::from_graph(g);
        let (dfg, _) = transform::optimize(base, &binding);
        put(&mut self.dfgs, &mut self.stored_bytes, key, dfg.clone());
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
            graph: hash_graph(g),
            subject: hash_dfg(dfg),
        };
        let mut sp = span!("cache.compile", nodes = dfg.len());
        if let Some(p) = self.programs.get(&key) {
            self.hits += 1;
            sp.arg("hit", 1usize);
            return Ok(p.clone());
        }
        self.misses += 1;
        sp.arg("hit", 0usize);
        let p = compile(dfg, g)?;
        put(&mut self.programs, &mut self.stored_bytes, key, p.clone());
        self.note_size();
        Ok(p)
    }

    /// Stores an externally produced plan (e.g. a repaired incremental
    /// snapshot that `wisegraph-analysis` has verified) under the given
    /// graph key, so the next lookup for that (graph, table) hits.
    pub fn insert_plan(&mut self, graph_key: u64, plan: PartitionPlan) {
        let key = EntryKey {
            graph: graph_key,
            subject: hash_table(&plan.table),
        };
        put(&mut self.plans, &mut self.stored_bytes, key, plan);
        self.note_size();
    }

    /// Drops every entry whose graph component equals `graph_key` and
    /// returns how many were removed. Entries under other graph hashes —
    /// including other live-set snapshots of the same universe graph —
    /// survive.
    pub fn invalidate_graph(&mut self, graph_key: u64) -> usize {
        let total = &mut self.stored_bytes;
        let dropped = drop_graph(&mut self.plans, total, graph_key)
            + drop_graph(&mut self.dfgs, total, graph_key)
            + drop_graph(&mut self.programs, total, graph_key);
        self.invalidations += dropped as u64;
        dropped
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
    use wisegraph_dfg::NodeId;
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
        let mut warm = cache.partition_cached(&g, &table);
        assert_eq!(cache.hits(), 1);
        let direct = partition(&g, &table);
        assert_eq!(cold, direct);
        assert_eq!(warm, direct);
        // A hit hands out a copy: the caller's edits never reach the store.
        warm.tasks.truncate(0);
        assert_eq!(cache.partition_cached(&g, &table), direct);
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
    }

    #[test]
    fn transform_and_compile_hit_and_match_direct() {
        let g = graph(43);
        let base = ModelKind::Rgcn.layer_dfg(8, 6);
        let mut cache = PlanCache::new();
        let (direct, _) = transform::optimize(&base, &Binding::from_graph(&g));
        let cold = cache.transform_cached(&g, &base);
        let mut warm = cache.transform_cached(&g, &base);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cold, direct);
        assert_eq!(warm, direct);
        warm.mark_output(NodeId(0));
        assert_eq!(cache.transform_cached(&g, &base), direct);

        let p_direct = compile(&direct, &g).unwrap();
        let p_cold = cache.compile_cached(&g, &direct).unwrap();
        let mut p_warm = cache.compile_cached(&g, &direct).unwrap();
        assert_eq!(cache.hits(), 3);
        assert_eq!(p_cold, p_direct);
        assert_eq!(p_warm, p_direct);
        p_warm.ops.clear();
        assert_eq!(cache.compile_cached(&g, &direct).unwrap(), p_direct);
    }

    /// `stored_bytes` is a running total; this is the sum it must equal.
    fn recounted_bytes(cache: &PlanCache) -> usize {
        let plans = cache.plans.values().map(Payload::payload_bytes);
        let dfgs = cache.dfgs.values().map(Payload::payload_bytes);
        let programs = cache.programs.values().map(Payload::payload_bytes);
        plans.chain(dfgs).chain(programs).sum()
    }

    #[test]
    fn stored_bytes_tracks_inserts_overwrites_and_invalidation() {
        let g1 = graph(50);
        let g2 = graph(51);
        let table = PartitionTable::vertex_centric();
        let mut cache = PlanCache::new();
        assert_eq!(cache.stored_bytes(), 0);

        let plan = cache.partition_cached(&g1, &table);
        // Vertex-centric tracks one attribute.
        let closed_form = 4 * g1.num_edges() + 4 * (plan.num_tasks() + 1) + 4 * plan.num_tasks();
        assert_eq!(cache.stored_bytes(), closed_form);
        cache.partition_cached(&g2, &PartitionTable::edge_batch(8));
        let dfg = cache.transform_cached(&g1, &ModelKind::Gcn.layer_dfg(8, 6));
        cache.compile_cached(&g1, &dfg).unwrap();
        assert_eq!(cache.stored_bytes(), recounted_bytes(&cache));

        // Overwriting a key with a smaller plan charges only the new one.
        let before = cache.stored_bytes();
        let mut smaller = plan.clone();
        smaller.tasks.truncate(plan.num_tasks() - 1);
        let shrink = plan.payload_bytes() - smaller.payload_bytes();
        cache.insert_plan(PlanCache::graph_key(&g1), smaller);
        assert_eq!(cache.len(), 4);
        assert!(shrink > 0);
        assert_eq!(cache.stored_bytes(), before - shrink);
        assert_eq!(cache.stored_bytes(), recounted_bytes(&cache));

        assert_eq!(cache.invalidate_graph(PlanCache::graph_key(&g1)), 3);
        assert_eq!(cache.stored_bytes(), recounted_bytes(&cache));
        assert_eq!(cache.invalidate_graph(PlanCache::graph_key(&g2)), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.stored_bytes(), 0);
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
    fn inserted_plan_is_served_back() {
        let g = graph(47);
        let table = PartitionTable::dst_and_type();
        let plan = partition(&g, &table);
        let mut cache = PlanCache::new();
        let key = PlanCache::graph_key(&g);
        cache.insert_plan(key, plan.clone());
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
