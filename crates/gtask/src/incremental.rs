//! Incremental gTask maintenance for evolving graphs.
//!
//! The paper notes: "WiseGraph is unable to tackle the situation where
//! graph structure changes dramatically at every iteration" (§6.3) — its
//! answer for sampled training is plan *reuse*. This module extends that to
//! streaming edge insertions *and deletions* over a fixed universe graph:
//! the graph holds every edge that ever existed, and the plan covers the
//! *live* subset. New edges are admitted into existing gTasks when the
//! table's restrictions still hold, spilled into fresh tasks otherwise;
//! deleted edges are pulled out of their task (leaving a tombstone when the
//! task empties); and the plan is rebuilt from scratch — over the live set
//! only, via [`partition_edges`] — once fragmentation degrades beyond a
//! threshold. Per-update cost is O(candidate tasks) for inserts and
//! O(task size · restrictions) for deletes, amortized far below the
//! O(E · key columns) full partition.
//!
//! The candidate indices are `BTreeMap`/`BTreeSet` and the live-edge index
//! is a dense array over edge ids, so the repair order — and therefore the
//! repaired plan — is a deterministic function of the update sequence (the
//! hermetic scanner forbids iteration over hash maps for exactly this
//! reason), and listing the live set is one scan.

use crate::partition::partition_edges;
use crate::restriction::PartitionTable;
use crate::task::{edge_id, PartitionPlan, Tasks};
use std::collections::{BTreeMap, BTreeSet};
use wisegraph_graph::{AttrKind, Graph};

/// A batch of edge updates against the universe graph: ids to add to and
/// remove from the live set. Deletes apply before inserts, so a delta may
/// move an edge out and back in one step.
#[derive(Debug, Clone, Default)]
pub struct GraphDelta {
    /// Edge ids to admit into the plan.
    pub insert: Vec<usize>,
    /// Edge ids to remove from the plan.
    pub delete: Vec<usize>,
}

impl GraphDelta {
    /// A delta that only inserts.
    pub fn inserting(insert: Vec<usize>) -> Self {
        Self {
            insert,
            delete: Vec::new(),
        }
    }

    /// A delta that only deletes.
    pub fn deleting(delete: Vec<usize>) -> Self {
        Self {
            insert: Vec::new(),
            delete,
        }
    }

    /// True when the delta carries no updates.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }
}

/// What a [`IncrementalPlan::apply`] call actually changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Edges newly admitted into the live set.
    pub inserted: usize,
    /// Edges removed from the live set.
    pub removed: usize,
    /// Updates that were no-ops (inserting a live edge, deleting a dead
    /// one).
    pub ignored: usize,
}

/// A partition plan that admits streamed edge insertions and deletions.
#[derive(Debug)]
pub struct IncrementalPlan {
    table: PartitionTable,
    /// Task slots; a slot with no edges is a tombstone left by deletions
    /// and is skipped by [`snapshot`](Self::snapshot) and the counts.
    tasks: Vec<TaskState>,
    /// Candidate-task index: first exact attribute's value → tasks that
    /// already contain it (value-reuse admission).
    by_key: BTreeMap<u64, Vec<usize>>,
    /// Open-task index: the tuple of `Exact(1)` attribute values → tasks
    /// with spare capacity on the looser attributes (spare-capacity
    /// admission). Entries are pruned lazily when tasks fill up.
    open_by_tight: BTreeMap<Vec<u64>, Vec<usize>>,
    /// Live-edge index: edge id → slot of the task covering it, [`DEAD`]
    /// for edges outside the live set. Grows to the largest id admitted.
    task_of: Vec<u32>,
    /// Number of non-[`DEAD`] entries of `task_of`.
    live_edges: usize,
    /// Non-tombstone task count.
    live_tasks: usize,
    /// Edges admitted since the last full rebuild.
    inserted_since_rebuild: usize,
    /// Edges removed since the last full rebuild.
    removed_since_rebuild: usize,
    /// Task count right after the last full rebuild.
    tasks_at_rebuild: usize,
}

/// `task_of` sentinel: the edge is not live.
const DEAD: u32 = u32::MAX;

#[derive(Debug)]
struct TaskState {
    edges: Vec<u32>,
    /// Distinct values per `Exact` attribute.
    uniq: Vec<BTreeSet<u64>>,
}

/// A task slot index as stored in `task_of`.
fn slot_id(ti: usize) -> u32 {
    u32::try_from(ti)
        .ok()
        .filter(|&slot| slot != DEAD)
        .expect("fewer than u32::MAX task slots")
}

impl IncrementalPlan {
    /// Builds the initial plan over *all* edges of `g` with the greedy
    /// partitioner.
    pub fn new(g: &Graph, table: PartitionTable) -> Self {
        let live: Vec<usize> = (0..g.num_edges()).collect();
        Self::new_over(g, table, &live)
    }

    /// Builds the initial plan over the given live subset of `g`'s edges.
    pub fn new_over(g: &Graph, table: PartitionTable, live: &[usize]) -> Self {
        let plan = partition_edges(g, &table, live);
        let mut this = Self {
            table,
            tasks: Vec::new(),
            by_key: BTreeMap::new(),
            open_by_tight: BTreeMap::new(),
            task_of: Vec::new(),
            live_edges: 0,
            live_tasks: 0,
            inserted_since_rebuild: 0,
            removed_since_rebuild: 0,
            tasks_at_rebuild: 0,
        };
        this.adopt(g, plan);
        this
    }

    /// The table this plan maintains.
    pub fn table(&self) -> &PartitionTable {
        &self.table
    }

    fn exact_attrs(&self) -> Vec<(AttrKind, u64)> {
        self.table.exact_attrs()
    }

    fn adopt(&mut self, g: &Graph, plan: PartitionPlan) {
        let exact = self.exact_attrs();
        self.tasks = plan
            .tasks
            .iter()
            .map(|t| {
                let uniq = exact
                    .iter()
                    .map(|&(attr, _)| {
                        t.edges.iter().map(|&e| g.edge_attr(attr, e as usize)).collect()
                    })
                    .collect();
                TaskState {
                    edges: t.edges.to_vec(),
                    uniq,
                }
            })
            .collect();
        self.by_key.clear();
        self.open_by_tight.clear();
        self.task_of.clear();
        self.task_of.resize(g.num_edges(), DEAD);
        self.live_edges = 0;
        for (i, t) in self.tasks.iter().enumerate() {
            if let Some(first) = t.uniq.first() {
                for &v in first {
                    self.by_key.entry(v).or_default().push(i);
                }
            }
            for &e in &t.edges {
                self.task_of[e as usize] = slot_id(i);
            }
            self.live_edges += t.edges.len();
            let has_spare = exact
                .iter()
                .enumerate()
                .any(|(j, &(_, bound))| (t.uniq[j].len() as u64) < bound);
            if has_spare {
                let tight = Self::tight_key_of(&exact, &t.uniq);
                if let Some(tight) = tight {
                    self.open_by_tight.entry(tight).or_default().push(i);
                }
            }
        }
        self.live_tasks = self.tasks.len();
        self.inserted_since_rebuild = 0;
        self.removed_since_rebuild = 0;
        self.tasks_at_rebuild = self.tasks.len();
    }

    /// The tuple of `Exact(1)` attribute values of a task (`None` if such
    /// an attribute has no value yet — cannot happen for nonempty tasks).
    fn tight_key_of(
        exact: &[(AttrKind, u64)],
        uniq: &[BTreeSet<u64>],
    ) -> Option<Vec<u64>> {
        exact
            .iter()
            .enumerate()
            .filter(|&(_, &(_, bound))| bound == 1)
            .map(|(j, _)| uniq[j].iter().next().copied())
            .collect()
    }

    /// Admits edge `e` of `g` into an existing task when every `Exact`
    /// bound still holds, otherwise into a fresh task. Returns `false`
    /// without changing anything when `e` is already live.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of bounds for `g`.
    pub fn insert(&mut self, g: &Graph, e: usize) -> bool {
        assert!(e < g.num_edges(), "edge {e} out of bounds");
        if self.task_of.len() <= e {
            // The universe graph grew since the plan was built.
            self.task_of.resize(g.num_edges(), DEAD);
        }
        if self.task_of[e] != DEAD {
            return false;
        }
        let exact = self.exact_attrs();
        let values: Vec<u64> = exact.iter().map(|&(a, _)| g.edge_attr(a, e)).collect();
        let fits = |t: &TaskState| -> bool {
            exact.iter().enumerate().all(|(i, &(_, bound))| {
                let set = &t.uniq[i];
                set.contains(&values[i]) || (set.len() as u64) < bound
            })
        };
        // Tier 1: tasks already containing the first restricted value.
        let tier1: Vec<usize> = match values.first() {
            Some(&v0) => self.by_key.get(&v0).cloned().unwrap_or_default(),
            None => (0..self.tasks.len().min(1)).collect(),
        };
        // Tier 2: open tasks matching the tight (bound-1) attribute values.
        let tight: Vec<u64> = exact
            .iter()
            .enumerate()
            .filter(|&(_, &(_, bound))| bound == 1)
            .map(|(i, _)| values[i])
            .collect();
        let tier2: Vec<usize> = self
            .open_by_tight
            .get(&tight)
            .cloned()
            .unwrap_or_default();
        for &ti in tier1.iter().chain(tier2.iter()) {
            if !fits(&self.tasks[ti]) {
                continue;
            }
            let was_tombstone = self.tasks[ti].edges.is_empty();
            let t = &mut self.tasks[ti];
            t.edges.push(edge_id(e));
            for (i, &v) in values.iter().enumerate() {
                let newly = t.uniq[i].insert(v);
                if newly && i == 0 {
                    self.by_key.entry(v).or_default().push(ti);
                }
            }
            // Lazily close the task if every bound is saturated.
            let full = exact
                .iter()
                .enumerate()
                .all(|(i, &(_, bound))| (self.tasks[ti].uniq[i].len() as u64) >= bound);
            if full {
                if let Some(list) = self.open_by_tight.get_mut(&tight) {
                    list.retain(|&x| x != ti);
                }
            }
            self.task_of[e] = slot_id(ti);
            self.live_edges += 1;
            if was_tombstone {
                self.live_tasks += 1;
            }
            self.inserted_since_rebuild += 1;
            return true;
        }
        // Fresh task.
        let uniq: Vec<BTreeSet<u64>> =
            values.iter().map(|&v| BTreeSet::from([v])).collect();
        self.tasks.push(TaskState {
            edges: vec![edge_id(e)],
            uniq,
        });
        let ti = self.tasks.len() - 1;
        if let Some(&v0) = values.first() {
            self.by_key.entry(v0).or_default().push(ti);
        }
        self.open_by_tight.entry(tight).or_default().push(ti);
        self.task_of[e] = slot_id(ti);
        self.live_edges += 1;
        self.live_tasks += 1;
        self.inserted_since_rebuild += 1;
        true
    }

    /// Removes edge `e` from the plan, repairing only the task that held
    /// it. Returns `false` when `e` is not live.
    ///
    /// The task's distinct-value sets are recomputed from its remaining
    /// edges; dropped first-attribute values leave the `by_key` index and a
    /// previously saturated task re-opens. A task that empties becomes a
    /// tombstone (skipped by [`snapshot`](Self::snapshot)); its slot may be
    /// re-used by a later insertion. `Exact(1)` attribute values cannot
    /// change while the task is nonempty (every edge in it shares them), so
    /// the open-task key stays stable.
    pub fn remove(&mut self, g: &Graph, e: usize) -> bool {
        let Some(slot) = self.task_of.get_mut(e).filter(|slot| **slot != DEAD) else {
            return false;
        };
        let ti = std::mem::replace(slot, DEAD) as usize;
        self.live_edges -= 1;
        let exact = self.exact_attrs();
        let was_full = exact
            .iter()
            .enumerate()
            .all(|(i, &(_, bound))| (self.tasks[ti].uniq[i].len() as u64) >= bound);
        let tight = Self::tight_key_of(&exact, &self.tasks[ti].uniq);
        let old_first: Option<BTreeSet<u64>> = self.tasks[ti].uniq.first().cloned();

        let t = &mut self.tasks[ti];
        t.edges.retain(|&x| x as usize != e);
        for (i, &(attr, _)) in exact.iter().enumerate() {
            t.uniq[i] = t.edges.iter().map(|&x| g.edge_attr(attr, x as usize)).collect();
        }
        let now_empty = t.edges.is_empty();

        // Values the first exact attribute lost → drop from by_key.
        if let (Some(old), Some(new)) = (old_first, self.tasks[ti].uniq.first()) {
            for v in old.difference(new) {
                if let Some(list) = self.by_key.get_mut(v) {
                    list.retain(|&x| x != ti);
                    if list.is_empty() {
                        self.by_key.remove(v);
                    }
                }
            }
        }

        if let Some(tight) = tight {
            if now_empty {
                // Tombstone: no longer a candidate for spare-capacity
                // admission under its old key.
                if let Some(list) = self.open_by_tight.get_mut(&tight) {
                    list.retain(|&x| x != ti);
                    if list.is_empty() {
                        self.open_by_tight.remove(&tight);
                    }
                }
            } else if was_full {
                // The task regained spare capacity.
                let list = self.open_by_tight.entry(tight).or_default();
                if !list.contains(&ti) {
                    list.push(ti);
                }
            }
        }

        if now_empty {
            self.live_tasks -= 1;
        }
        self.removed_since_rebuild += 1;
        true
    }

    /// Applies a batch of updates: deletes first, then inserts. Returns
    /// what actually changed; updates that are already reflected (inserting
    /// a live edge, deleting a dead one) are counted as ignored.
    pub fn apply(&mut self, g: &Graph, delta: &GraphDelta) -> DeltaStats {
        let mut sp = wisegraph_obs::span!(
            "gtask.incremental.apply",
            inserts = delta.insert.len(),
            deletes = delta.delete.len()
        );
        let mut stats = DeltaStats::default();
        for &e in &delta.delete {
            if self.remove(g, e) {
                stats.removed += 1;
            } else {
                stats.ignored += 1;
            }
        }
        for &e in &delta.insert {
            if self.insert(g, e) {
                stats.inserted += 1;
            } else {
                stats.ignored += 1;
            }
        }
        sp.arg("tasks", self.live_tasks);
        stats
    }

    /// The live edge ids, ascending.
    pub fn live_edges(&self) -> Vec<usize> {
        let mut live = Vec::with_capacity(self.live_edges);
        live.extend((0..self.task_of.len()).filter(|&e| self.task_of[e] != DEAD));
        live
    }

    /// Number of live edges.
    pub fn num_live_edges(&self) -> usize {
        self.live_edges
    }

    /// Fragmentation: current tasks relative to what a fresh partition of
    /// the same live edges would produce (1.0 = as good as fresh).
    pub fn fragmentation(&self, g: &Graph) -> f64 {
        self.fragmentation_against(&partition_edges(g, &self.table, &self.live_edges()))
    }

    fn fragmentation_against(&self, fresh: &PartitionPlan) -> f64 {
        self.live_tasks as f64 / fresh.num_tasks().max(1) as f64
    }

    /// Rebuilds from scratch over the live set when fragmentation exceeds
    /// `threshold` (e.g. 1.5 = 50% more tasks than a fresh partition).
    /// Returns whether a rebuild happened. The fresh partition that measures
    /// the fragmentation is the plan adopted.
    pub fn rebuild_if_fragmented(&mut self, g: &Graph, threshold: f64) -> bool {
        let fresh = partition_edges(g, &self.table, &self.live_edges());
        let rebuild = self.fragmentation_against(&fresh) > threshold;
        if rebuild {
            self.adopt(g, fresh);
        }
        rebuild
    }

    /// Snapshots the current live tasks as a [`PartitionPlan`], skipping
    /// tombstones: their edges concatenated into the plan's edge array,
    /// with a `uniq` row per task over the table's `Exact` attributes.
    /// Task order is slot order, which is deterministic for a given update
    /// sequence.
    pub fn snapshot(&self, g: &Graph) -> PartitionPlan {
        let _ = g;
        let exact = self.exact_attrs();
        let mut tasks = Tasks::new(exact.iter().map(|&(attr, _)| attr).collect());
        tasks.edges.reserve(self.live_edges);
        tasks.offsets.reserve(self.live_tasks);
        for t in self.tasks.iter().filter(|t| !t.edges.is_empty()) {
            tasks.edges.extend_from_slice(&t.edges);
            tasks.close(t.uniq.iter().map(|set| set.len() as u32));
        }
        PartitionPlan {
            table: self.table.clone(),
            tasks,
        }
    }

    /// Number of live (non-tombstone) tasks currently held.
    pub fn num_tasks(&self) -> usize {
        self.live_tasks
    }

    /// Edges admitted since the last rebuild.
    pub fn inserted_since_rebuild(&self) -> usize {
        self.inserted_since_rebuild
    }

    /// Edges removed since the last rebuild.
    pub fn removed_since_rebuild(&self) -> usize {
        self.removed_since_rebuild
    }

    /// Task count right after the last rebuild.
    pub fn tasks_at_rebuild(&self) -> usize {
        self.tasks_at_rebuild
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{rmat, RmatParams};

    /// `attr`'s distinct count over `t`, recounted from the graph.
    fn uniq(g: &Graph, t: crate::GTask<'_>, attr: AttrKind) -> usize {
        crate::Recount::new(g).unique(attr, t.edges)
    }

    /// Splits a graph into a prefix graph and the list of later edges.
    fn prefix_graph(g: &Graph, cut: usize) -> Graph {
        Graph::new(
            g.num_vertices(),
            g.num_edge_types(),
            g.src()[..cut].to_vec(),
            g.dst()[..cut].to_vec(),
            g.etype()[..cut].to_vec(),
        )
    }

    fn check_invariants(g: &Graph, plan: &PartitionPlan) {
        let mut seen = vec![false; g.num_edges()];
        for t in &plan.tasks {
            assert!(!t.edges.is_empty());
            for &e in t.edges {
                let e = e as usize;
                assert!(!seen[e], "edge {e} duplicated");
                seen[e] = true;
            }
            for (attr, bound) in plan.table.exact_attrs() {
                assert!(
                    uniq(g, t, attr) as u64 <= bound,
                    "uniq({attr}) exceeds {bound}"
                );
            }
        }
        assert!(seen.into_iter().all(|s| s), "every edge covered");
    }

    /// Like `check_invariants` but against an explicit live set.
    fn check_covers_exactly(g: &Graph, plan: &PartitionPlan, live: &[usize]) {
        let mut seen = vec![false; g.num_edges()];
        for t in &plan.tasks {
            assert!(!t.edges.is_empty());
            for &e in t.edges {
                let e = e as usize;
                assert!(!seen[e], "edge {e} duplicated");
                seen[e] = true;
            }
            for (attr, bound) in plan.table.exact_attrs() {
                assert!(uniq(g, t, attr) as u64 <= bound);
            }
        }
        let want: std::collections::BTreeSet<usize> = live.iter().copied().collect();
        for (e, &s) in seen.iter().enumerate() {
            assert_eq!(s, want.contains(&e), "edge {e} coverage mismatch");
        }
    }

    #[test]
    fn streaming_insertions_preserve_invariants() {
        let g = rmat(&RmatParams::standard(300, 4000, 101).with_edge_types(4));
        let cut = 2000;
        let g0 = prefix_graph(&g, cut);
        let table = PartitionTable::src_batch_per_type(16);
        let mut inc = IncrementalPlan::new(&g0, table);
        // Note: degrees change as edges arrive, so the stream uses the
        // final graph for attribute lookups (id/type attributes are
        // stable; this table restricts only stable attributes).
        for e in cut..g.num_edges() {
            assert!(inc.insert(&g, e));
        }
        let plan = inc.snapshot(&g);
        check_invariants(&g, &plan);
    }

    #[test]
    fn admission_reuses_existing_tasks() {
        let g = rmat(&RmatParams::standard(200, 3000, 103).with_edge_types(2));
        let cut = 1500;
        let g0 = prefix_graph(&g, cut);
        let mut inc =
            IncrementalPlan::new(&g0, PartitionTable::src_batch_per_type(32));
        let before = inc.num_tasks();
        for e in cut..g.num_edges() {
            inc.insert(&g, e);
        }
        // Far fewer new tasks than new edges: most edges join existing
        // tasks.
        let grown = inc.num_tasks() - before;
        assert!(
            grown < (g.num_edges() - cut) / 4,
            "grew {grown} tasks for {} edges",
            g.num_edges() - cut
        );
    }

    #[test]
    fn fragmentation_triggers_rebuild() {
        let g = rmat(&RmatParams::standard(150, 2400, 107).with_edge_types(2));
        let cut = 300;
        let g0 = prefix_graph(&g, cut);
        // Tight table: vertex-centric with tiny batches fragments fast
        // under out-of-order insertion.
        let table = PartitionTable::new()
            .exact(AttrKind::DstId, 1)
            .exact(AttrKind::EdgeId, 4);
        let mut inc = IncrementalPlan::new(&g0, table);
        for e in cut..g.num_edges() {
            inc.insert(&g, e);
        }
        let frag = inc.fragmentation(&g);
        let rebuilt = inc.rebuild_if_fragmented(&g, 1.05);
        if frag > 1.05 {
            assert!(rebuilt);
            assert!(inc.fragmentation(&g) <= 1.0 + 1e-9);
            assert_eq!(inc.inserted_since_rebuild(), 0);
        }
        check_invariants(&g, &inc.snapshot(&g));
    }

    #[test]
    fn incremental_matches_fresh_partition_quality_approximately() {
        let g = rmat(&RmatParams::standard(250, 4000, 109).with_edge_types(4));
        let cut = 2000;
        let g0 = prefix_graph(&g, cut);
        let table = PartitionTable::src_batch_per_type(16);
        let mut inc = IncrementalPlan::new(&g0, table.clone());
        for e in cut..g.num_edges() {
            inc.insert(&g, e);
        }
        let fresh = partition_edges(&g, &table, &inc.live_edges());
        let ratio = inc.num_tasks() as f64 / fresh.num_tasks() as f64;
        assert!(
            ratio < 2.0,
            "incremental {} vs fresh {} tasks",
            inc.num_tasks(),
            fresh.num_tasks()
        );
    }

    #[test]
    fn removal_repairs_only_the_affected_task() {
        let g = rmat(&RmatParams::standard(200, 2500, 113).with_edge_types(4));
        let table = PartitionTable::src_batch_per_type(8);
        let mut inc = IncrementalPlan::new(&g, table);
        // Delete every 7th edge.
        let doomed: Vec<usize> = (0..g.num_edges()).step_by(7).collect();
        for &e in &doomed {
            assert!(inc.remove(&g, e));
            assert!(!inc.remove(&g, e), "double delete must be a no-op");
        }
        let live = inc.live_edges();
        assert_eq!(live.len(), g.num_edges() - doomed.len());
        check_covers_exactly(&g, &inc.snapshot(&g), &live);
    }

    #[test]
    fn delete_then_reinsert_restores_coverage() {
        let g = rmat(&RmatParams::standard(120, 1500, 117).with_edge_types(2));
        let mut inc = IncrementalPlan::new(&g, PartitionTable::dst_and_type());
        let delta = GraphDelta::deleting((0..300).collect());
        let stats = inc.apply(&g, &delta);
        assert_eq!(stats.removed, 300);
        let back = GraphDelta::inserting((0..300).collect());
        let stats = inc.apply(&g, &back);
        assert_eq!(stats.inserted, 300);
        assert_eq!(inc.num_live_edges(), g.num_edges());
        check_invariants(&g, &inc.snapshot(&g));
    }

    #[test]
    fn tombstoned_slot_leaves_no_phantom_task() {
        let g = rmat(&RmatParams::standard(80, 600, 119).with_edge_types(2));
        let mut inc = IncrementalPlan::new(&g, PartitionTable::vertex_centric());
        let before = inc.num_tasks();
        // Delete all edges pointing at destination of edge 0 → its task
        // empties and must not appear in the snapshot.
        let dst0 = g.dst()[0];
        let doomed: Vec<usize> =
            (0..g.num_edges()).filter(|&e| g.dst()[e] == dst0).collect();
        for &e in &doomed {
            inc.remove(&g, e);
        }
        assert_eq!(inc.num_tasks(), before - 1);
        let plan = inc.snapshot(&g);
        assert_eq!(plan.num_tasks(), before - 1);
        assert!(plan.tasks.iter().all(|t| !t.edges.is_empty()));
    }
}
