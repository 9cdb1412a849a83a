//! Outlier gTask identification (paper §6.1).
//!
//! Most gTasks are regular thanks to the power-law degree distribution;
//! three kinds of outliers arise from graph irregularity:
//!
//! - **Underfill**: an `Exact(k)` attribute with far fewer unique values
//!   than `k` (e.g. a destination with fewer than K neighbors) — wasted
//!   batching assumptions and idle resources;
//! - **Overfill**: an unrestricted attribute exploding the task far beyond
//!   the typical size — load imbalance and long-tail effects;
//! - **Frequent value**: a restricted attribute value recurring across many
//!   gTasks (a hub vertex split over tasks) — shared work and data races.

use crate::restriction::Restriction;
use crate::stamp::Recount;
use crate::task::PartitionPlan;

/// The outlier classes of §6.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OutlierKind {
    /// Insufficient data for a restricted attribute.
    Underfill,
    /// Extremely large task from an unrestricted attribute.
    Overfill,
    /// Restricted attribute values recurring across many gTasks.
    FrequentValue,
}

/// Underfill when `uniq(attr) < bound / UNDERFILL_DIVISOR`.
const UNDERFILL_DIVISOR: u64 = 2;
/// Overfill when `edges > OVERFILL_FACTOR × median edges`.
const OVERFILL_FACTOR: usize = 4;
/// Frequent when a value appears in more than this many tasks.
const FREQUENT_TASK_COUNT: usize = 8;

/// Classifies every task of a plan; `None` marks a regular task.
/// `recount` is a recount of the plan's graph: a task's distinct values of
/// each `Exact` attribute are found with it, and the tasks holding each
/// value are counted per value code.
///
/// A task can match several classes; the reported one follows the priority
/// FrequentValue > Overfill > Underfill (a value recurring across tasks is
/// the most specific diagnosis; plain size imbalance comes next).
pub fn classify_outliers(
    recount: &mut Recount<'_>,
    plan: &PartitionPlan,
) -> Vec<Option<OutlierKind>> {
    let exact = plan.table.exact_attrs();
    let median = plan.median_task_edges().max(1);

    // Per restricted attribute, how many tasks hold each value code.
    let mut value_tasks: Vec<Vec<usize>> = vec![Vec::new(); exact.len()];
    for task in &plan.tasks {
        for (&(attr, _), counts) in exact.iter().zip(&mut value_tasks) {
            recount.unique_by(attr, task.edges, |_, code| {
                let code = code as usize;
                if code >= counts.len() {
                    counts.resize(code + 1, 0);
                }
                counts[code] += 1;
            });
        }
    }

    plan.tasks
        .iter()
        .map(|task| {
            // Frequent value: any of this task's restricted values is
            // shared by many tasks.
            let mut frequent = false;
            let uniq: Vec<usize> = exact
                .iter()
                .zip(&value_tasks)
                .map(|(&(attr, _), counts)| {
                    recount.unique_by(attr, task.edges, |_, code| {
                        frequent |= counts[code as usize] > FREQUENT_TASK_COUNT;
                    })
                })
                .collect();
            if frequent {
                return Some(OutlierKind::FrequentValue);
            }
            // Overfill: size blowup relative to the plan's median.
            if task.num_edges() > OVERFILL_FACTOR * median {
                return Some(OutlierKind::Overfill);
            }
            // Underfill: achieved uniqueness far below the bound.
            if exact
                .iter()
                .zip(&uniq)
                .any(|(&(_, bound), &u)| bound >= 2 && (u as u64) < bound / UNDERFILL_DIVISOR)
            {
                return Some(OutlierKind::Underfill);
            }
            // Underfill also applies to Min-restricted batches that came
            // out with a single edge (no batching possible).
            if task.num_edges() == 1
                && plan
                    .table
                    .restricted_attrs()
                    .iter()
                    .any(|&a| plan.table.restriction(a) != Restriction::Exact(1))
                && median > 1
            {
                return Some(OutlierKind::Underfill);
            }
            None
        })
        .collect()
}

/// Summary of an outlier classification.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OutlierSummary {
    /// Number of regular tasks.
    pub regular: usize,
    /// Number of underfill tasks.
    pub underfill: usize,
    /// Number of overfill tasks.
    pub overfill: usize,
    /// Number of frequent-value tasks.
    pub frequent: usize,
    /// Fraction of all edges residing in outlier tasks.
    pub outlier_edge_fraction: f64,
}

/// Aggregates a classification into counts and the outlier edge share.
pub fn summarize(plan: &PartitionPlan, classes: &[Option<OutlierKind>]) -> OutlierSummary {
    let mut s = OutlierSummary::default();
    let mut outlier_edges = 0usize;
    for (task, class) in plan.tasks.iter().zip(classes) {
        match class {
            None => s.regular += 1,
            Some(OutlierKind::Underfill) => {
                s.underfill += 1;
                outlier_edges += task.num_edges();
            }
            Some(OutlierKind::Overfill) => {
                s.overfill += 1;
                outlier_edges += task.num_edges();
            }
            Some(OutlierKind::FrequentValue) => {
                s.frequent += 1;
                outlier_edges += task.num_edges();
            }
        }
    }
    let total = plan.total_edges().max(1);
    s.outlier_edge_fraction = outlier_edges as f64 / total as f64;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use crate::restriction::PartitionTable;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_graph::{AttrKind, Graph};

    /// A star graph: one hub receiving edges from everyone, plus a sparse
    /// tail — maximal irregularity.
    fn star_graph(n: usize) -> Graph {
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for v in 1..n as u32 {
            src.push(v);
            dst.push(0); // hub
        }
        // A few scattered edges among the tail.
        for v in 1..(n as u32 / 4) {
            src.push(v);
            dst.push(v + 1);
        }
        let n_edges = src.len();
        Graph::new(n, 1, src, dst, vec![0; n_edges])
    }

    #[test]
    fn hub_creates_overfill_under_vertex_centric() {
        let g = star_graph(256);
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let classes = classify_outliers(&mut Recount::new(&g), &plan);
        let overfill: Vec<usize> = classes
            .iter()
            .enumerate()
            .filter(|(_, c)| **c == Some(OutlierKind::Overfill))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(overfill.len(), 1, "exactly the hub task");
        assert_eq!(plan.tasks.task(overfill[0]).num_edges(), 255);
    }

    #[test]
    fn hub_creates_frequent_value_under_edge_batching() {
        // dst-id=1 & edge-id=K: the hub's dst value recurs in many tasks.
        let g = star_graph(256);
        let table = PartitionTable::new()
            .exact(AttrKind::DstId, 1)
            .exact(AttrKind::EdgeId, 8);
        let plan = partition(&g, &table);
        let classes = classify_outliers(&mut Recount::new(&g), &plan);
        let frequent = classes
            .iter()
            .filter(|c| **c == Some(OutlierKind::FrequentValue))
            .count();
        // The hub's 255 edges split into ~32 tasks of 8, all sharing dst 0.
        assert!(frequent >= 30, "frequent tasks: {frequent}");
    }

    #[test]
    fn low_degree_vertices_create_underfill() {
        // dst-id=K batching on a graph where most destinations have degree
        // far below K.
        let g = rmat(&RmatParams::standard(512, 1024, 41));
        let table = PartitionTable::new().exact(AttrKind::EdgeId, 64);
        let plan = partition(&g, &table);
        // Only the final task can be underfilled for pure edge batching;
        // switch to a two-attribute table where group boundaries force
        // early task closes.
        let table2 = PartitionTable::new()
            .exact(AttrKind::DstId, 1)
            .exact(AttrKind::EdgeId, 64);
        let plan2 = partition(&g, &table2);
        let classes = classify_outliers(&mut Recount::new(&g), &plan2);
        let underfill = classes
            .iter()
            .filter(|c| **c == Some(OutlierKind::Underfill))
            .count();
        assert!(
            underfill > plan2.num_tasks() / 4,
            "underfill {underfill} of {}",
            plan2.num_tasks()
        );
        let _ = plan;
    }

    #[test]
    fn regular_plan_has_few_outliers() {
        // Pure edge batching on a uniform-ish graph: balanced by design.
        let g = rmat(&RmatParams::standard(256, 4096, 43));
        let plan = partition(&g, &PartitionTable::edge_batch(32));
        let classes = classify_outliers(&mut Recount::new(&g), &plan);
        let s = summarize(&plan, &classes);
        assert!(
            s.regular as f64 >= 0.9 * plan.num_tasks() as f64,
            "{s:?}"
        );
        assert!(s.outlier_edge_fraction < 0.2);
    }

    #[test]
    fn summary_counts_add_up() {
        let g = star_graph(128);
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let classes = classify_outliers(&mut Recount::new(&g), &plan);
        let s = summarize(&plan, &classes);
        assert_eq!(
            s.regular + s.underfill + s.overfill + s.frequent,
            plan.num_tasks()
        );
    }
}
