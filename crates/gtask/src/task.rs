//! Partition plans and gTasks (paper §3).
//!
//! A plan stores its gTasks CSR-of-tasks ([`Tasks`]): one `u32` edge-id
//! array in plan order, `tasks + 1` offsets into it, the attributes the
//! plan tracks, and a dense `tasks × attrs` table of their recorded `uniq`
//! counts. A [`GTask`] is a borrowed view of one task's range. Cloning a
//! plan copies four flat arrays; executing it hands each task a slice of
//! one contiguous index stream.

use crate::restriction::PartitionTable;
use crate::stamp::Recount;
use std::ops::Range;
use wisegraph_graph::AttrKind;

/// Converts an edge id to the `u32` a plan stores. This is the one
/// statement of the limit: plans address edges by `u32`, so a graph or
/// live set a plan is built over has edge ids below 2³² — the bound the
/// engine's `LoadStream` assumes too. Every plan builder converts here.
///
/// # Panics
///
/// Panics if `e` does not fit a `u32`.
pub(crate) fn edge_id(e: usize) -> u32 {
    u32::try_from(e).expect("a plan addresses edge ids below 2^32")
}

/// One gTask: a view of a range of its plan's edges plus the unique-value
/// counts recorded for the plan's tracked attributes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GTask<'a> {
    /// Original edge ids, in plan order.
    pub edges: &'a [u32],
    attrs: &'a [AttrKind],
    uniq: &'a [u32],
}

impl<'a> GTask<'a> {
    /// Number of edges in the task.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The recorded `uniq(attr)`, when the plan tracks `attr`.
    pub fn uniq(&self, attr: AttrKind) -> Option<usize> {
        let i = self.attrs.iter().position(|&a| a == attr)?;
        Some(self.uniq[i] as usize)
    }

    /// The recorded counts, one per tracked attribute in
    /// [`Tasks::attrs`] order.
    pub fn uniq_row(&self) -> &'a [u32] {
        self.uniq
    }
}

/// A plan's gTasks, CSR-of-tasks. Task `i` holds
/// `edges[offsets[i]..offsets[i + 1]]`; a zero-edge task slot (kept by
/// [`PartitionPlan::filtered`]) is two equal offsets. Row `i` of the
/// `uniq` table holds task `i`'s recorded count of each attribute in
/// [`Tasks::attrs`]. Equality compares all four arrays.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tasks {
    pub(crate) edges: Vec<u32>,
    pub(crate) offsets: Vec<u32>,
    pub(crate) attrs: Vec<AttrKind>,
    pub(crate) uniq: Vec<u32>,
}

impl Tasks {
    /// No tasks, tracking `attrs`.
    pub(crate) fn new(attrs: Vec<AttrKind>) -> Self {
        Self {
            edges: Vec::new(),
            offsets: vec![0],
            attrs,
            uniq: Vec::new(),
        }
    }

    /// Closes a task over the edges pushed since the last close, with its
    /// `uniq` row.
    pub(crate) fn close(&mut self, uniq: impl IntoIterator<Item = u32>) {
        self.offsets.push(edge_id(self.edges.len()));
        self.uniq.extend(uniq);
    }

    /// Number of task slots.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the plan has no task slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Task `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a task index.
    pub fn task(&self, i: usize) -> GTask<'_> {
        let a = self.attrs.len();
        GTask {
            edges: &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize],
            attrs: &self.attrs,
            uniq: &self.uniq[i * a..(i + 1) * a],
        }
    }

    /// The tasks in order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            tasks: self,
            at: 0..self.len(),
        }
    }

    /// Every task's edges, concatenated in plan order.
    pub fn edges(&self) -> &[u32] {
        &self.edges
    }

    /// Task bounds: `len() + 1` offsets into [`edges`](Self::edges), from 0
    /// to the edge count, never decreasing.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The attributes each task records a `uniq` count for.
    pub fn attrs(&self) -> &[AttrKind] {
        &self.attrs
    }

    /// Keeps the first `len` tasks.
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.offsets.truncate(len + 1);
            self.edges.truncate(self.offsets[len] as usize);
            self.uniq.truncate(len * self.attrs.len());
        }
    }
}

/// Iterator over a plan's tasks ([`Tasks::iter`]).
#[derive(Clone, Debug)]
pub struct Iter<'a> {
    tasks: &'a Tasks,
    at: Range<usize>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = GTask<'a>;

    fn next(&mut self) -> Option<GTask<'a>> {
        self.at.next().map(|i| self.tasks.task(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a Tasks {
    type Item = GTask<'a>;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// One task as owned lists: its edge ids and its `uniq` row (one count per
/// tracked attribute). The form hand-built and edited plans take.
pub type TaskList = (Vec<usize>, Vec<usize>);

/// A graph partition plan: the table that generated it plus its gTasks.
/// The partitioner's plans cover every edge of the set they were built over
/// exactly once; a [`filtered`](Self::filtered) plan covers the kept edges
/// and keeps every task slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionPlan {
    /// The restrictions that produced this plan.
    pub table: PartitionTable,
    /// The gTasks.
    pub tasks: Tasks,
}

impl PartitionPlan {
    /// A plan from per-task lists, tracking `attrs`. Anything is
    /// representable — duplicate, out-of-range or unordered ids, empty
    /// tasks, wrong counts — so verifiers can be fed malformed plans.
    ///
    /// # Panics
    ///
    /// Panics if a `uniq` row's length is not `attrs.len()` or an id or
    /// count does not fit a `u32`.
    pub fn from_task_lists(
        table: PartitionTable,
        attrs: Vec<AttrKind>,
        lists: Vec<TaskList>,
    ) -> Self {
        let mut tasks = Tasks::new(attrs);
        for (edges, uniq) in lists {
            assert_eq!(uniq.len(), tasks.attrs.len(), "one uniq count per tracked attribute");
            tasks.edges.extend(edges.into_iter().map(edge_id));
            tasks.close(uniq.into_iter().map(edge_id));
        }
        Self { table, tasks }
    }

    /// The tasks as owned lists, for [`from_task_lists`](Self::from_task_lists).
    pub fn task_lists(&self) -> Vec<TaskList> {
        self.tasks
            .iter()
            .map(|t| {
                let edges = t.edges.iter().map(|&e| e as usize).collect();
                (edges, t.uniq_row().iter().map(|&u| u as usize).collect())
            })
            .collect()
    }

    /// Number of gTasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Total edges across tasks.
    pub fn total_edges(&self) -> usize {
        self.tasks.edges.len()
    }

    fn task_sizes(&self) -> impl Iterator<Item = usize> + '_ {
        self.tasks.offsets.windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// Median edges per task.
    pub fn median_task_edges(&self) -> usize {
        if self.tasks.is_empty() {
            return 0;
        }
        let mut sizes: Vec<usize> = self.task_sizes().collect();
        sizes.sort_unstable();
        sizes[sizes.len() / 2]
    }

    /// Maximum edges in any task.
    pub fn max_task_edges(&self) -> usize {
        self.task_sizes().max().unwrap_or(0)
    }

    /// Reports the plan's shape into a counter registry under the
    /// `partition.*` keys: task and edge totals, max/median task sizes,
    /// and the edge-weighted dedup ratio (`Σ uniq(attr) / Σ edges`) per
    /// tracked attribute — the quantity WiseGraph's restriction tables
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
        if self.tasks.is_empty() {
            return;
        }
        let total = self.total_edges().max(1) as f64;
        let a = self.tasks.attrs.len();
        for (j, attr) in self.tasks.attrs.iter().enumerate() {
            let uniq_sum: usize =
                self.tasks.uniq.iter().skip(j).step_by(a).map(|&u| u as usize).sum();
            c.set_gauge(
                keys::partition_dedup_ratio(&attr.to_string()),
                uniq_sum as f64 / total,
                Class::Work,
            );
        }
    }

    /// Restricts the plan to the edges `keep` accepts, in one pass over the
    /// edge array, preserving every task *slot*: a task whose edges are all
    /// filtered out stays in the plan as a zero-edge task. Slot
    /// preservation is what makes sharded execution deterministic across
    /// device counts — the filtered plan has the same task count as the
    /// original, so the engine's chunk-to-worker mapping (and with it every
    /// accumulator's float addition order) is identical on every device to
    /// the single-device run. `uniq` counts are recounted over the
    /// surviving edges for the plan's tracked attributes, by `recount`, a
    /// recount of the plan's graph.
    pub fn filtered<F: Fn(usize) -> bool>(
        &self,
        recount: &mut Recount<'_>,
        keep: F,
    ) -> PartitionPlan {
        let mut tasks = Tasks::new(self.tasks.attrs.clone());
        tasks.uniq.reserve(self.tasks.uniq.len());
        tasks.offsets.reserve(self.tasks.len());
        let mut row = Vec::new();
        for t in &self.tasks {
            let start = tasks.edges.len();
            tasks.edges.extend(t.edges.iter().copied().filter(|&e| keep(e as usize)));
            row.clear();
            for &attr in &self.tasks.attrs {
                row.push(recount.unique(attr, &tasks.edges[start..]) as u32);
            }
            tasks.close(row.iter().copied());
        }
        PartitionPlan {
            table: self.table.clone(),
            tasks,
        }
    }

    /// Task-id assignment per edge (for visualization, Figure 15).
    pub fn task_of_edge(&self, num_edges: usize) -> Vec<u32> {
        let mut out = vec![u32::MAX; num_edges];
        for (t, task) in self.tasks.iter().enumerate() {
            for &e in task.edges {
                out[e as usize] = t as u32;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use wisegraph_graph::Graph;

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
        let mut recount = Recount::new(&g);
        let f = plan.filtered(&mut recount, |e| g.dst()[e] < 2);
        assert_eq!(f.num_tasks(), plan.num_tasks());
        assert_eq!(f.table, plan.table);
        let kept: usize = (0..g.num_edges()).filter(|&e| g.dst()[e] < 2).count();
        assert_eq!(f.total_edges(), kept);
        assert!(f.tasks.iter().any(|t| t.edges.is_empty()));
        for (orig, filt) in plan.tasks.iter().zip(f.tasks.iter()) {
            // Surviving edges keep their original in-task order.
            let expect: Vec<u32> =
                orig.edges.iter().copied().filter(|&e| g.dst()[e as usize] < 2).collect();
            assert_eq!(filt.edges, expect);
            // uniq recomputed over survivors, never larger than before.
            for &attr in f.tasks.attrs() {
                let mut vals: Vec<u64> =
                    filt.edges.iter().map(|&e| g.edge_attr(attr, e as usize)).collect();
                vals.sort_unstable();
                vals.dedup();
                let u = filt.uniq(attr).unwrap();
                assert!(u <= orig.uniq(attr).unwrap());
                assert_eq!(u, vals.len());
            }
        }
    }

    #[test]
    fn task_lists_round_trip_and_truncate() {
        let g = paper_graph();
        let plan = partition(&g, &PartitionTable::src_batch_per_type(2));
        let lists = plan.task_lists();
        let back = PartitionPlan::from_task_lists(
            plan.table.clone(),
            plan.tasks.attrs().to_vec(),
            lists.clone(),
        );
        assert_eq!(back, plan);
        let mut short = plan.clone();
        short.tasks.truncate(2);
        assert_eq!(short.task_lists(), lists[..2]);
        assert_eq!(short.total_edges(), lists[0].0.len() + lists[1].0.len());
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
