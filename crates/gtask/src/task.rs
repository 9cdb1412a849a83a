//! gTasks and their data patterns (paper §3, §5.1).

use crate::restriction::PartitionTable;
use std::collections::BTreeMap;
use wisegraph_dfg::Binding;
use wisegraph_graph::{AttrKind, Graph};

/// One gTask: a subset of edges plus the unique-value counts the partitioner
/// observed for the table's restricted attributes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GTask {
    /// Original edge ids, in partition (sorted) order.
    pub edges: Vec<usize>,
    /// `uniq(attr)` within this task, for every restricted attribute.
    pub uniq: BTreeMap<AttrKind, usize>,
}

impl GTask {
    /// Number of edges in the task.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// `uniq(attr)` within this task, computing it from the graph if the
    /// partitioner did not track the attribute.
    pub fn uniq_of(&self, g: &Graph, attr: AttrKind) -> usize {
        if let Some(&u) = self.uniq.get(&attr) {
            return u;
        }
        let mut vals: Vec<u64> = self.edges.iter().map(|&e| g.edge_attr(attr, e)).collect();
        vals.sort_unstable();
        vals.dedup();
        vals.len()
    }

    /// Builds the symbolic-dimension binding for this task's scope.
    pub fn binding(&self, g: &Graph) -> Binding {
        Binding::from_edge_set(g, &self.edges)
    }

    /// Extracts the gTask-level data patterns of §5.1.
    pub fn data_patterns(&self, g: &Graph) -> DataPatterns {
        let attrs = [
            AttrKind::SrcId,
            AttrKind::DstId,
            AttrKind::EdgeType,
        ];
        let mut duplication = BTreeMap::new();
        let mut batch = BTreeMap::new();
        for a in attrs {
            let u = self.uniq_of(g, a);
            batch.insert(a, u);
            duplication.insert(a, self.num_edges() as f64 / u.max(1) as f64);
        }
        let src_u = batch[&AttrKind::SrcId].max(1) as f64;
        let dst_u = batch[&AttrKind::DstId].max(1) as f64;
        DataPatterns {
            duplication,
            batch,
            volume_ratio: dst_u / src_u,
        }
    }
}

/// gTask-level data patterns (paper §5.1, Figure 4c).
#[derive(Clone, Debug)]
pub struct DataPatterns {
    /// *Duplicated data*: edges per unique value (`> 1` means computation
    /// can be shared via DFG transformation).
    pub duplication: BTreeMap<AttrKind, f64>,
    /// *Batched data*: the number of unique values per attribute — the
    /// batch size available to a generated kernel.
    pub batch: BTreeMap<AttrKind, usize>,
    /// *Changing data volume*: output rows (`uniq(dst)`) over input rows
    /// (`uniq(src)`); `< 1` means computation shrinks data, so communication
    /// should follow computation in multi-device placement.
    pub volume_ratio: f64,
}

impl DataPatterns {
    /// Returns `true` if any attribute shows meaningful duplication.
    pub fn has_duplication(&self) -> bool {
        self.duplication.values().any(|&d| d > 1.5)
    }
}

/// A graph partition plan: the table that generated it plus the gTasks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionPlan {
    /// The restrictions that produced this plan.
    pub table: PartitionTable,
    /// The generated gTasks, covering every edge exactly once.
    pub tasks: Vec<GTask>,
}

impl PartitionPlan {
    /// Number of gTasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Total edges across tasks.
    pub fn total_edges(&self) -> usize {
        self.tasks.iter().map(GTask::num_edges).sum()
    }

    /// Median edges per task.
    pub fn median_task_edges(&self) -> usize {
        if self.tasks.is_empty() {
            return 0;
        }
        let mut sizes: Vec<usize> = self.tasks.iter().map(GTask::num_edges).collect();
        sizes.sort_unstable();
        sizes[sizes.len() / 2]
    }

    /// Maximum edges in any task.
    pub fn max_task_edges(&self) -> usize {
        self.tasks.iter().map(GTask::num_edges).max().unwrap_or(0)
    }

    /// Reports the plan's shape into a counter registry under the
    /// `partition.*` keys: task and edge totals, max/median task sizes,
    /// and the edge-weighted dedup ratio (`Σ uniq(attr) / Σ edges`) per
    /// restricted attribute — the quantity WiseGraph's restriction tables
    /// exist to drive below 1. Everything recorded is
    /// [`Class::Work`](wisegraph_obs::Class::Work): a pure function of
    /// graph and table.
    pub fn record_counters(&self, c: &mut wisegraph_obs::Counters) {
        use wisegraph_obs::{keys, Class};
        c.add(keys::PARTITION_TASKS, self.num_tasks() as u64);
        c.add(keys::PARTITION_EDGES, self.total_edges() as u64);
        c.record_max(
            keys::PARTITION_MAX_TASK_EDGES,
            self.max_task_edges() as u64,
            Class::Work,
        );
        c.record_max(
            keys::PARTITION_MEDIAN_TASK_EDGES,
            self.median_task_edges() as u64,
            Class::Work,
        );
        let total = self.total_edges().max(1) as f64;
        let mut uniq_totals: BTreeMap<AttrKind, usize> = BTreeMap::new();
        for t in &self.tasks {
            for (&attr, &u) in &t.uniq {
                *uniq_totals.entry(attr).or_insert(0) += u;
            }
        }
        for (attr, uniq_sum) in uniq_totals {
            c.set_gauge(
                keys::partition_dedup_ratio(&attr.to_string()),
                uniq_sum as f64 / total,
                Class::Work,
            );
        }
    }

    /// Restricts the plan to the edges `keep` accepts, preserving every
    /// task *slot*: a task whose edges are all filtered out stays in the
    /// plan as a zero-edge task. Slot preservation is what makes sharded
    /// execution deterministic across device counts — the filtered plan
    /// has the same task count as the original, so the engine's
    /// chunk-to-worker mapping (and with it every accumulator's float
    /// addition order) is identical on every device to the single-device
    /// run. `uniq` counts are recomputed over the surviving edges for the
    /// table's restricted attributes.
    pub fn filtered<F: Fn(usize) -> bool>(&self, g: &Graph, keep: F) -> PartitionPlan {
        let restricted: Vec<AttrKind> =
            self.tasks.first().map_or_else(Vec::new, |t| t.uniq.keys().copied().collect());
        let tasks = self
            .tasks
            .iter()
            .map(|t| {
                let edges: Vec<usize> =
                    t.edges.iter().copied().filter(|&e| keep(e)).collect();
                let mut uniq = BTreeMap::new();
                for &attr in &restricted {
                    let mut vals: Vec<u64> =
                        edges.iter().map(|&e| g.edge_attr(attr, e)).collect();
                    vals.sort_unstable();
                    vals.dedup();
                    uniq.insert(attr, vals.len());
                }
                GTask { edges, uniq }
            })
            .collect();
        PartitionPlan {
            table: self.table.clone(),
            tasks,
        }
    }

    /// Task-id assignment per edge (for visualization, Figure 15).
    pub fn task_of_edge(&self, num_edges: usize) -> Vec<u32> {
        let mut out = vec![u32::MAX; num_edges];
        for (t, task) in self.tasks.iter().enumerate() {
            for &e in &task.edges {
                out[e] = t as u32;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;

    fn paper_graph() -> Graph {
        Graph::new(
            5,
            2,
            vec![0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0],
            vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
            vec![0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0],
        )
    }

    #[test]
    fn data_patterns_on_type_restricted_task() {
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::src_batch_per_type(4));
        // Every task: one edge type, up to 4 unique sources.
        for task in &plan.tasks {
            let p = task.data_patterns(&g);
            assert_eq!(p.batch[&AttrKind::EdgeType], 1);
            assert!(p.batch[&AttrKind::SrcId] <= 4);
            if task.num_edges() > 1 {
                // Type is duplicated across all edges of the task.
                assert!(p.duplication[&AttrKind::EdgeType] >= 2.0);
            }
        }
    }

    #[test]
    fn volume_ratio_reflects_reduction() {
        let g = paper_graph();
        // Vertex-centric: uniq(dst) = 1 per task, so volume shrinks for any
        // task with more than one source.
        let plan = partition(&g, &PartitionTable::vertex_centric());
        for task in &plan.tasks {
            let p = task.data_patterns(&g);
            if p.batch[&AttrKind::SrcId] > 1 {
                assert!(p.volume_ratio < 1.0);
            }
        }
    }

    #[test]
    fn plan_statistics() {
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::edge_batch(4));
        assert_eq!(plan.total_edges(), g.num_edges());
        assert!(plan.max_task_edges() <= 4);
        assert!(plan.median_task_edges() >= 1);
        let assignment = plan.task_of_edge(g.num_edges());
        assert!(assignment.iter().all(|&t| t != u32::MAX));
    }

    #[test]
    fn filtered_plan_preserves_task_slots() {
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::src_batch_per_type(2));
        // Keep only edges into vertices 0..2; every slot must survive,
        // including slots left with zero edges.
        let f = plan.filtered(&g, |e| g.dst()[e] < 2);
        assert_eq!(f.num_tasks(), plan.num_tasks());
        assert_eq!(f.table, plan.table);
        let kept: usize = (0..g.num_edges()).filter(|&e| g.dst()[e] < 2).count();
        assert_eq!(f.total_edges(), kept);
        assert!(f.tasks.iter().any(|t| t.edges.is_empty()));
        for (orig, filt) in plan.tasks.iter().zip(f.tasks.iter()) {
            // Surviving edges keep their original in-task order.
            let expect: Vec<usize> =
                orig.edges.iter().copied().filter(|&e| g.dst()[e] < 2).collect();
            assert_eq!(filt.edges, expect);
            // uniq recomputed over survivors, never larger than before.
            for (attr, &u) in &filt.uniq {
                assert!(u <= orig.uniq[attr]);
                let mut fresh = filt.clone();
                fresh.uniq.clear();
                assert_eq!(u, fresh.uniq_of(&g, *attr));
            }
        }
    }

    #[test]
    fn recorded_counters_describe_the_plan() {
        use wisegraph_obs::keys;
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let mut c = wisegraph_obs::Counters::new();
        plan.record_counters(&mut c);
        assert_eq!(c.count(keys::PARTITION_TASKS), plan.num_tasks() as u64);
        assert_eq!(c.count(keys::PARTITION_EDGES), g.num_edges() as u64);
        assert_eq!(
            c.count(keys::PARTITION_MAX_TASK_EDGES),
            plan.max_task_edges() as u64
        );
        // Vertex-centric: 5 unique destinations over 11 edges.
        let dedup = c
            .gauge(&keys::partition_dedup_ratio(&AttrKind::DstId.to_string()))
            .expect("dst dedup ratio recorded");
        assert!((dedup - 5.0 / 11.0).abs() < 1e-12, "{dedup}");
    }
}
