//! The dynamic-graph planning driver: incremental repair + cache reuse.
//!
//! A [`DynamicPlanner`] owns the three pieces the delta path needs and
//! keeps them coherent:
//!
//! 1. an [`IncrementalPlan`] that repairs only the gTasks an edge
//!    insert/delete stream touches (O(delta), not a repartition);
//! 2. a content-addressed [`PlanCache`] whose entries are keyed by the
//!    live edge set's content hash, so a delta invalidates exactly the
//!    entries of the *previous* live set — transformed DFGs and compiled
//!    programs keyed by the full graph survive untouched;
//! 3. the `C001` verifier ([`verify_repair`]): after every batch the
//!    repaired snapshot must verify identically to a from-scratch
//!    partition of the same live set. If it does not — which would mean a
//!    repair bug, not bad input — the planner falls back to a rebuild and
//!    reports the divergence instead of caching a corrupt plan.
//!
//! The verified snapshot is then seeded back into the cache under the new
//! live-set key, so the next [`DynamicPlanner::plan`] (and every engine
//! run behind it) is a hit.
//!
//! Cost of one [`DynamicPlanner::apply`]: the O(delta) repair plus a
//! handful of O(E) passes at memory speed — listing the live set (one scan
//! of a dense index), the snapshot, the verifier (dense coverage arrays and
//! a radix-sorted from-scratch partition) and one content hash of the new
//! live set; the snapshot moves into the cache as it is. The planner keeps
//! that hash, so [`DynamicPlanner::plan`] looks its entry up without
//! re-deriving it.

use std::collections::HashMap;

use wisegraph_analysis::repair::verify_repair;
use wisegraph_analysis::{Diagnostic, Severity};
use wisegraph_cache::PlanCache;
use wisegraph_dfg::Dfg;
use wisegraph_graph::Graph;
use wisegraph_gtask::{
    DeltaStats, GraphDelta, IncrementalPlan, PartitionPlan, PartitionTable,
};
use wisegraph_kernels::engine::Engine;
use wisegraph_kernels::micro::CompileError;
use wisegraph_obs::{span, Counters};
use wisegraph_tensor::Tensor;

/// What one delta batch did: the raw apply stats, the repair verifier's
/// findings, and how the cache reacted.
#[derive(Clone, Debug)]
pub struct RepairOutcome {
    /// Insert/delete/ignore accounting from the incremental apply.
    pub stats: DeltaStats,
    /// `C001` findings of the repaired snapshot (empty on a clean repair).
    pub diagnostics: Vec<Diagnostic>,
    /// True when the verifier rejected the repair and the planner rebuilt
    /// the plan from scratch instead of trusting it.
    pub rebuilt: bool,
    /// Cache entries dropped because their live-set key went stale.
    pub invalidated: usize,
}

impl RepairOutcome {
    /// True when the repair verified clean (no error-severity findings).
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity != Severity::Error)
    }
}

/// Incremental planning driver for a mutating edge set over a fixed
/// universe graph.
#[derive(Debug)]
pub struct DynamicPlanner {
    cache: PlanCache,
    inc: IncrementalPlan,
    /// Content key of the *current* live set — the component under which
    /// this planner's cache entries are filed, and the one invalidated
    /// when the next delta changes the set.
    graph_key: u64,
}

impl DynamicPlanner {
    /// Creates a planner with every edge of `g` live, seeding the cache
    /// with the initial (full) partition so the first lookup hits.
    pub fn new(g: &Graph, table: PartitionTable) -> Self {
        let inc = IncrementalPlan::new(g, table);
        let graph_key = PlanCache::graph_key(g);
        let mut cache = PlanCache::new();
        cache.insert_plan(graph_key, inc.snapshot(g));
        Self {
            cache,
            inc,
            graph_key,
        }
    }

    /// The canonical cache key of a live set: the full-graph hash when
    /// every edge is live (so the static and dynamic paths share entries),
    /// the subset hash otherwise. `live` must be sorted ascending.
    fn key_for(g: &Graph, live: &[usize]) -> u64 {
        if live.len() == g.num_edges() {
            PlanCache::graph_key(g)
        } else {
            PlanCache::graph_edges_key(g, live)
        }
    }

    /// Applies one insert/delete batch: repairs the affected gTasks,
    /// verifies the repaired snapshot against a from-scratch partition
    /// (`C001`), invalidates exactly the cache entries keyed by the old
    /// live set, and seeds the verified plan under the new key.
    pub fn apply(&mut self, g: &Graph, delta: &GraphDelta) -> RepairOutcome {
        let _sp = span!(
            "core.dynamic.apply",
            inserts = delta.insert.len(),
            deletes = delta.delete.len()
        );
        let stats = self.inc.apply(g, delta);
        let live = self.inc.live_edges();
        let mut snap = self.inc.snapshot(g);
        let diagnostics = verify_repair(g, self.inc.table(), &live, &snap);
        let rebuilt = diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error);
        if rebuilt {
            // Never cache a plan the verifier rejected: rebuild from the
            // live set and serve that instead.
            self.inc = IncrementalPlan::new_over(g, self.inc.table().clone(), &live);
            snap = self.inc.snapshot(g);
        }
        let invalidated = self.cache.invalidate_graph(self.graph_key);
        self.graph_key = Self::key_for(g, &live);
        self.cache.insert_plan(self.graph_key, snap);
        RepairOutcome {
            stats,
            diagnostics,
            rebuilt,
            invalidated,
        }
    }

    /// The current partition plan over the live edge set, served through
    /// the cache (a hit after every [`DynamicPlanner::apply`], since apply
    /// seeds the repaired snapshot).
    pub fn plan(&mut self, g: &Graph) -> PartitionPlan {
        let live = self.inc.live_edges();
        self.cache
            .partition_under(self.graph_key, g, self.inc.table(), &live)
    }

    /// Plans and executes `base_dfg` over the live edge set: cached
    /// transform, cached compile, cached partition, then
    /// [`Engine::execute_program`] — a fully warm call never partitions,
    /// rewrites, or compiles.
    pub fn execute(
        &mut self,
        g: &Graph,
        base_dfg: &Dfg,
        globals: &HashMap<String, Tensor>,
        engine: &Engine,
    ) -> Result<Vec<Tensor>, CompileError> {
        let plan = self.plan(g);
        let dfg = self.cache.transform_cached(g, base_dfg);
        let program = self.cache.compile_cached(g, &dfg)?;
        engine.execute_program(&program, &dfg, g, &plan, globals)
    }

    /// Edges currently live, ascending.
    pub fn live_edges(&self) -> Vec<usize> {
        self.inc.live_edges()
    }

    /// Number of live edges.
    pub fn num_live_edges(&self) -> usize {
        self.inc.num_live_edges()
    }

    /// The underlying incremental plan (read-only).
    pub fn incremental(&self) -> &IncrementalPlan {
        &self.inc
    }

    /// The underlying cache (read-only; for hit/miss assertions).
    pub fn cache(&self) -> &PlanCache {
        &self.cache
    }

    /// Records the cache's Resource-class counters into `c`.
    pub fn record_counters(&self, c: &mut Counters) {
        self.cache.record_counters(c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_models::ModelKind;
    use wisegraph_tensor::init;

    fn graph() -> Graph {
        rmat(&RmatParams::standard(60, 400, 51).with_edge_types(3))
    }

    fn globals(g: &Graph, fi: usize, fo: usize) -> HashMap<String, Tensor> {
        let mut m = HashMap::new();
        m.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 7),
        );
        m.insert(
            "w".to_string(),
            init::uniform_tensor(&[fi, fo], -1.0, 1.0, 8),
        );
        m
    }

    #[test]
    fn deltas_repair_verify_clean_and_reseed_the_cache() {
        let g = graph();
        let mut dp = DynamicPlanner::new(&g, PartitionTable::vertex_centric());
        let out = dp.apply(&g, &GraphDelta::deleting(vec![1, 5, 9, 33]));
        assert!(out.is_clean(), "{:#?}", out.diagnostics);
        assert!(!out.rebuilt);
        assert_eq!(out.stats.removed, 4);
        assert!(out.invalidated >= 1, "old live-set entries must drop");
        // The reseeded snapshot serves the next lookup as a hit.
        let before = dp.cache().hits();
        let plan = dp.plan(&g);
        assert_eq!(dp.cache().hits(), before + 1);
        assert_eq!(plan.total_edges(), g.num_edges() - 4);
    }

    #[test]
    fn reinserting_everything_returns_to_the_full_graph_key() {
        let g = graph();
        let mut dp = DynamicPlanner::new(&g, PartitionTable::edge_batch(16));
        dp.apply(&g, &GraphDelta::deleting(vec![2, 3]));
        dp.apply(&g, &GraphDelta::inserting(vec![2, 3]));
        assert_eq!(dp.num_live_edges(), g.num_edges());
        assert_eq!(dp.graph_key, PlanCache::graph_key(&g));
    }

    #[test]
    fn execute_is_fully_warm_after_one_cold_run() {
        let g = graph();
        let base = ModelKind::Gcn.layer_dfg(4, 3);
        let gl = globals(&g, 4, 3);
        let engine = Engine::new(2);
        let mut dp = DynamicPlanner::new(&g, PartitionTable::vertex_centric());
        let cold = dp.execute(&g, &base, &gl, &engine).unwrap();
        let (h0, m0) = (dp.cache().hits(), dp.cache().misses());
        let warm = dp.execute(&g, &base, &gl, &engine).unwrap();
        assert_eq!(dp.cache().misses(), m0, "warm run must not recompute");
        assert_eq!(dp.cache().hits(), h0 + 3, "plan, transform, compile all hit");
        assert_eq!(cold.len(), warm.len());
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.data(), b.data(), "warm output must be bit-identical");
        }
    }

    #[test]
    fn execute_after_delta_runs_over_the_live_subset() {
        let g = graph();
        let base = ModelKind::Gcn.layer_dfg(4, 3);
        let gl = globals(&g, 4, 3);
        let engine = Engine::new(1);
        let mut dp = DynamicPlanner::new(&g, PartitionTable::vertex_centric());
        let full = dp.execute(&g, &base, &gl, &engine).unwrap();
        let out = dp.apply(&g, &GraphDelta::deleting((0..g.num_edges() / 2).collect()));
        assert!(out.is_clean(), "{:#?}", out.diagnostics);
        let half = dp.execute(&g, &base, &gl, &engine).unwrap();
        assert_eq!(full.len(), half.len());
        // Dropping half the edges must change the aggregation output.
        assert!(full
            .iter()
            .zip(&half)
            .any(|(a, b)| a.data() != b.data()));
    }
}
