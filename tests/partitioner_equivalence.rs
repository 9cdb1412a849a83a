//! Partitioner equivalence: the radix-sorted `partition_edges` against the
//! comparison-sort implementation it replaced.
//!
//! `oracle_partition_edges` below *is* the previous `partition_edges`
//! (stable comparison sort whose comparator calls `edge_attr` per key per
//! compare, one `HashSet` per `Exact` attribute), kept here verbatim as the
//! reference, building its plan through `PartitionPlan::from_task_lists`.
//! Every test asserts `PartitionPlan ==` (field-complete: table, edge
//! array, task offsets, tracked attributes, recorded unique counts), so
//! plans are pinned to what the old code produced: for every
//! `PartitionTable` constructor, `Min` tables, vertex-typed graphs, full
//! graphs, live subsets, unsorted and duplicate-carrying edge lists, the
//! empty edge set and an edgeless graph. A property checks the flat
//! layout's own invariants against the same oracle.

use std::collections::{BTreeMap, HashSet};
use wisegraph::cache::PlanCache;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::{AttrKind, Graph, ShardSpec};
use wisegraph::gtask::{
    partition, partition_edges, PartitionPlan, PartitionTable, Recount, TaskList,
};
use wisegraph_testkit::prelude::*;

/// The comparison-sort partitioner as it stood before the radix rewrite,
/// as a plan.
fn oracle_partition_edges(g: &Graph, table: &PartitionTable, edges: &[usize]) -> PartitionPlan {
    let tasks = oracle_tasks(g, table, edges);
    PartitionPlan::from_task_lists(table.clone(), table.restricted_attrs(), tasks)
}

/// The comparison-sort partitioner's tasks as owned lists, each `uniq` row
/// in canonical `AttrKind` order.
fn oracle_tasks(g: &Graph, table: &PartitionTable, edges: &[usize]) -> Vec<TaskList> {
    let exact = table.exact_attrs();
    let min_attrs = table.min_attrs();

    let mut exact_sorted = exact.clone();
    exact_sorted.sort_by_key(|&(_, k)| k);
    let mut key_attrs: Vec<AttrKind> = Vec::new();
    key_attrs.extend(&min_attrs);
    key_attrs.extend(exact_sorted.iter().map(|&(a, _)| a));

    let mut order: Vec<usize> = edges.to_vec();
    if key_attrs.is_empty() {
        order.sort_unstable();
    } else {
        order.sort_by(|&a, &b| {
            for &attr in &key_attrs {
                let (va, vb) = (g.edge_attr(attr, a), g.edge_attr(attr, b));
                if va != vb {
                    return va.cmp(&vb);
                }
            }
            a.cmp(&b)
        });
    }

    let mut tasks: Vec<TaskList> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut seen: Vec<HashSet<u64>> = exact.iter().map(|_| HashSet::new()).collect();

    let close = |current: &mut Vec<usize>,
                 seen: &mut Vec<HashSet<u64>>,
                 tasks: &mut Vec<TaskList>| {
        if current.is_empty() {
            return;
        }
        let mut uniq = BTreeMap::new();
        for (i, &(attr, _)) in exact.iter().enumerate() {
            uniq.insert(attr, seen[i].len());
        }
        for &attr in &min_attrs {
            let mut vals: Vec<u64> = current.iter().map(|&e| g.edge_attr(attr, e)).collect();
            vals.sort_unstable();
            vals.dedup();
            uniq.insert(attr, vals.len());
        }
        tasks.push((std::mem::take(current), uniq.into_values().collect()));
        for s in seen.iter_mut() {
            s.clear();
        }
    };

    for &e in &order {
        let violates = exact.iter().enumerate().any(|(i, &(attr, k))| {
            let v = g.edge_attr(attr, e);
            !seen[i].contains(&v) && seen[i].len() as u64 + 1 > k
        });
        if violates {
            close(&mut current, &mut seen, &mut tasks);
        }
        for (i, &(attr, _)) in exact.iter().enumerate() {
            seen[i].insert(g.edge_attr(attr, e));
        }
        current.push(e);
    }
    close(&mut current, &mut seen, &mut tasks);
    tasks
}

/// Every `PartitionTable` constructor, `Min` tables (one and two `Min`
/// columns, `Min` on the edge id itself), vertex-type restrictions, and a
/// three-column table whose `Exact` bounds tie (canonical `AttrKind` order
/// must break the tie).
fn tables(k: u64) -> Vec<PartitionTable> {
    vec![
        PartitionTable::new(),
        PartitionTable::vertex_centric(),
        PartitionTable::edge_centric(),
        PartitionTable::two_d(k),
        PartitionTable::dst_and_type(),
        PartitionTable::dst_degree_grouped(),
        PartitionTable::dst_batch_min_degree(k),
        PartitionTable::src_batch_per_type(k),
        PartitionTable::edge_batch(k),
        PartitionTable::new().min(AttrKind::SrcId),
        PartitionTable::new()
            .min(AttrKind::SrcDegree)
            .min(AttrKind::EdgeType)
            .exact(AttrKind::DstId, k),
        PartitionTable::new()
            .min(AttrKind::EdgeId)
            .exact(AttrKind::SrcId, k),
        PartitionTable::new()
            .exact(AttrKind::SrcVertexType, 1)
            .exact(AttrKind::DstId, k),
        PartitionTable::new()
            .exact(AttrKind::DstVertexType, k)
            .min(AttrKind::SrcVertexType),
        PartitionTable::new()
            .exact(AttrKind::EdgeType, k)
            .exact(AttrKind::SrcId, k)
            .exact(AttrKind::DstDegree, k),
    ]
}

fn same_plan(g: &Graph, table: &PartitionTable, edges: &[usize]) -> Result<(), String> {
    let got = partition_edges(g, table, edges);
    let want = oracle_partition_edges(g, table, edges);
    if got != want {
        return Err(format!(
            "[{table}] over {} edge ids: plans differ\n got  {:?}\n want {:?}",
            edges.len(),
            got.tasks,
            want.tasks
        ));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random small graphs (optionally vertex-typed; the type codes are
    /// sparse and wider than one radix digit, and a stamp table sized by
    /// the type's `u32` range instead of the largest code would be 16 GiB)
    /// × every table × five edge-list shapes.
    fn radix_partitioner_matches_the_comparison_sort_oracle(
        v in 1usize..40,
        raw in prop::collection::vec((0u32..1000, 0u32..1000, 0u32..4), 0..200),
        vertex_types in prop::collection::vec(0u32..1_000_000, 0..2),
        picks in prop::collection::vec(0usize..10_000, 0..260),
        k in 1u64..9,
    ) {
        let src: Vec<u32> = raw.iter().map(|&(s, _, _)| s % v as u32).collect();
        let dst: Vec<u32> = raw.iter().map(|&(_, d, _)| d % v as u32).collect();
        let etype: Vec<u32> = raw.iter().map(|&(_, _, t)| t).collect();
        let mut g = Graph::new(v, 4, src, dst, etype);
        if let Some(&salt) = vertex_types.first() {
            let types = (0..v as u32).map(|i| (i % 3) * salt).collect();
            g = g.with_vertex_types(types);
        }
        let e = g.num_edges();
        let full: Vec<usize> = (0..e).collect();
        // Unsorted and duplicate-carrying, exactly as drawn.
        let raw_picks: Vec<usize> = if e == 0 {
            Vec::new()
        } else {
            picks.iter().map(|&p| p % e).collect()
        };
        // A live subset the way `IncrementalPlan::live_edges` returns it.
        let mut subset = raw_picks.clone();
        subset.sort_unstable();
        subset.dedup();
        let reversed: Vec<usize> = (0..e).rev().collect();
        for table in tables(k) {
            for edges in [&full, &subset, &raw_picks, &reversed, &Vec::new()] {
                if let Err(msg) = same_plan(&g, &table, edges) {
                    return Err(TestCaseError(msg));
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The flat plan's invariants on random RMAT and ragged graphs (no
    /// edges, one vertex, isolated vertices, one edge type) × every table ×
    /// the full graph and a live subset: offsets rise from 0 to the edge
    /// count, `tasks.iter()` reproduces the oracle's per-task edge lists
    /// and `uniq` counts, each device's owned-destination filter keeps
    /// every task slot and drops exactly the edges it rejects, a clone is
    /// equal, and the cache charges `4·E + 4·(T + 1) + 4·T·A` bytes.
    fn flat_plans_hold_their_invariants(
        kind in 0usize..2,
        seed in 0u64..1000,
        v in 1usize..30,
        raw in prop::collection::vec((0u32..1000, 0u32..1000, 0u32..3), 0..120),
        picks in prop::collection::vec(0usize..10_000, 0..150),
        k in 1u64..9,
        devices in 1usize..5,
    ) {
        let g = if kind == 0 {
            rmat(&RmatParams::standard(60, 400, seed).with_edge_types(3))
        } else {
            let src = raw.iter().map(|&(s, _, _)| s % v as u32).collect();
            let dst = raw.iter().map(|&(_, d, _)| d % v as u32).collect();
            let types = (seed % 3 + 1) as u32;
            let etype = raw.iter().map(|&(_, _, t)| t % types).collect();
            Graph::new(v, types as usize, src, dst, etype)
        };
        let e = g.num_edges();
        let full: Vec<usize> = (0..e).collect();
        let mut subset: Vec<usize> = if e == 0 {
            Vec::new()
        } else {
            picks.iter().map(|&p| p % e).collect()
        };
        subset.sort_unstable();
        subset.dedup();
        let spec = ShardSpec::balanced(&g, devices);
        for table in tables(k) {
            for edges in [&full, &subset] {
                let plan = partition_edges(&g, &table, edges);
                let t = &plan.tasks;
                let offsets = t.offsets();
                prop_assert_eq!(offsets.len(), t.len() + 1);
                prop_assert_eq!(offsets[0], 0);
                prop_assert_eq!(offsets[t.len()] as usize, edges.len());
                prop_assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "{table}: {offsets:?}");

                let want = oracle_tasks(&g, &table, edges);
                prop_assert_eq!(t.len(), want.len());
                for (task, (want_edges, want_uniq)) in t.iter().zip(&want) {
                    let got: Vec<usize> = task.edges.iter().map(|&e| e as usize).collect();
                    prop_assert_eq!(&got, want_edges);
                    for (&attr, &u) in table.restricted_attrs().iter().zip(want_uniq) {
                        prop_assert_eq!(task.uniq(attr), Some(u), "{table}: uniq({attr})");
                    }
                }

                let mut kept = 0;
                for dev in 0..devices {
                    let own = spec.owned_range(dev);
                    let owned = |e: usize| own.contains(&(g.dst()[e] as usize));
                    let local = plan.filtered(&mut Recount::new(&g), owned);
                    prop_assert_eq!(local.num_tasks(), plan.num_tasks());
                    for (a, b) in plan.tasks.iter().zip(local.tasks.iter()) {
                        let expect: Vec<u32> =
                            a.edges.iter().copied().filter(|&e| owned(e as usize)).collect();
                        prop_assert_eq!(b.edges, &expect[..]);
                    }
                    kept += local.total_edges();
                }
                prop_assert_eq!(kept, plan.total_edges());

                prop_assert!(plan.clone() == plan);
                let mut cache = PlanCache::new();
                cache.insert_plan(PlanCache::graph_key(&g), plan.clone());
                let (tn, an) = (t.len(), t.attrs().len());
                prop_assert_eq!(cache.stored_bytes(), 4 * edges.len() + 4 * (tn + 1) + 4 * tn * an);
            }
        }
    }
}

#[test]
fn whole_graph_entry_point_matches_the_oracle() {
    let g = rmat(&RmatParams::standard(300, 5000, 71).with_edge_types(4));
    let all: Vec<usize> = (0..g.num_edges()).collect();
    for table in tables(8) {
        assert_eq!(
            partition(&g, &table),
            oracle_partition_edges(&g, &table, &all),
            "{table}"
        );
    }
}

#[test]
fn edgeless_graph_and_empty_edge_set_yield_empty_plans() {
    let lonely = Graph::untyped(1, vec![], vec![]);
    let g = rmat(&RmatParams::standard(20, 100, 5).with_edge_types(2));
    for table in tables(3) {
        same_plan(&lonely, &table, &[]).unwrap();
        assert_eq!(partition(&lonely, &table).num_tasks(), 0, "{table}");
        same_plan(&g, &table, &[]).unwrap();
    }
}

/// Vertex and edge ids beyond one 16-bit digit: every key column needs more
/// than one radix pass, and so does the edge-id column of a shuffled list.
#[test]
fn ids_wider_than_one_radix_digit_match_the_oracle() {
    let g = rmat(&RmatParams::standard(70_000, 90_000, 9).with_edge_types(3));
    assert!(g.src().iter().chain(g.dst()).any(|&v| v > 0xFFFF));
    let mut shuffled: Vec<usize> = (0..g.num_edges()).collect();
    Rng::seed_from_u64(17).shuffle(&mut shuffled);
    for table in [
        PartitionTable::vertex_centric(),
        PartitionTable::two_d(16),
        PartitionTable::src_batch_per_type(64),
        PartitionTable::edge_batch(64),
        PartitionTable::dst_batch_min_degree(8),
    ] {
        same_plan(&g, &table, &shuffled).unwrap();
        let ascending: Vec<usize> = (0..g.num_edges()).collect();
        same_plan(&g, &table, &ascending).unwrap();
    }
}

/// A vertex-type code of 3·10⁹ on a three-vertex graph: the partitioner
/// dense-ranks the column instead of sizing a stamp table by the value
/// (once 11.7 GB of VmPeak), and both verifiers recount the same way.
#[test]
fn sparse_attribute_values_match_the_oracle_and_verify_clean() {
    use wisegraph::analysis::prelude::{verify_plan, verify_repair};
    let g = Graph::untyped(3, vec![0, 1, 2, 2, 0, 1], vec![1, 2, 0, 1, 2, 0])
        .with_vertex_types(vec![0, 3_000_000_000, 7]);
    let all: Vec<usize> = (0..g.num_edges()).collect();
    for table in [
        PartitionTable::new().exact(AttrKind::DstVertexType, 1),
        PartitionTable::new().exact(AttrKind::SrcVertexType, 2).exact(AttrKind::DstId, 1),
        PartitionTable::new().min(AttrKind::DstVertexType).exact(AttrKind::EdgeId, 2),
    ] {
        same_plan(&g, &table, &all).unwrap();
        let plan = partition(&g, &table);
        assert!(verify_plan(&g, &plan).is_empty(), "{table}");
        assert!(verify_repair(&g, &table, &all, &plan).is_empty(), "{table}");
    }
}

/// The pricer's one pattern pass and the outlier classes equal a `HashSet`
/// count per task — the recorded `uniq` row when the plan tracks the
/// attribute, the graph's values otherwise — over every table the plan
/// search enumerates at its batch sizes, plus vertex-type tables whose
/// 3·10⁹ type code the recount must dense-rank.
#[test]
fn pattern_pass_and_outliers_match_a_hash_set_count() {
    use std::collections::HashMap;
    use wisegraph::core::optimizer::BATCH_SIZES;
    use wisegraph::core::plan::Patterns;
    use wisegraph::gtask::restriction::enumerate_tables;
    use wisegraph::gtask::{classify_outliers, GTask, OutlierKind, Recount, Restriction};
    use wisegraph::models::ModelKind;

    let g = rmat(&RmatParams::standard(600, 6000, 91).with_edge_types(4));
    let types = (0..g.num_vertices() as u32).map(|v| [0, 7, 3_000_000_000][v as usize % 3]);
    let g = g.with_vertex_types(types.collect());
    let count = |t: GTask<'_>, attr: AttrKind| -> usize {
        let values: HashSet<u64> =
            t.edges.iter().map(|&e| g.edge_attr(attr, e as usize)).collect();
        if let Some(recorded) = t.uniq(attr) {
            assert_eq!(recorded, values.len(), "recorded uniq({attr})");
        }
        values.len()
    };
    let mut tables = enumerate_tables(&AttrKind::ALL, &BATCH_SIZES);
    tables.extend([
        PartitionTable::new().exact(AttrKind::DstVertexType, 2).exact(AttrKind::EdgeId, 32),
        PartitionTable::new().exact(AttrKind::SrcVertexType, 1).exact(AttrKind::DstId, 64),
    ]);
    let lstm = ModelKind::SageLstm.layer_dfg(8, 8);
    let mut recount = Recount::new(&g);
    for table in tables {
        let plan = partition(&g, &table);
        let edges = plan.total_edges();
        let exact = table.exact_attrs();
        let batched: Vec<AttrKind> =
            exact.iter().filter(|&&(_, k)| k > 1).map(|&(a, _)| a).collect();
        let mut rows: Vec<usize> = plan
            .tasks
            .iter()
            .map(|t| batched.iter().map(|&a| count(t, a)).max().unwrap_or(1))
            .collect();
        rows.sort_unstable();
        let src: usize = plan.tasks.iter().map(|t| count(t, AttrKind::SrcId)).sum();
        let fragments: usize = plan.tasks.iter().map(|t| count(t, AttrKind::DstId)).sum();
        let (mut weighted, mut total) = (0.0f64, 0.0f64);
        for t in &plan.tasks {
            let dsts: HashSet<u32> = t.edges.iter().map(|&e| g.dst()[e as usize]).collect();
            let degrees = dsts.iter().map(|&d| g.in_degree()[d as usize] as f64);
            let max = degrees.clone().fold(0.0f64, f64::max);
            let mean = degrees.sum::<f64>() / dsts.len() as f64;
            let pad = if mean > 0.0 { max / mean } else { 1.0 };
            weighted += pad * t.num_edges() as f64;
            total += t.num_edges() as f64;
        }
        let all_dsts: HashSet<u32> = g.dst().iter().copied().collect();
        let padding = weighted / total * (fragments as f64 / all_dsts.len() as f64);

        let p = Patterns::count(&mut recount, &plan, &lstm);
        assert_eq!(p.batch_rows, rows[rows.len() / 2].max(1), "{table}");
        assert_eq!(p.gather_dedup.to_bits(), (src as f64 / edges as f64).to_bits(), "{table}");
        let scatter = fragments as f64 / edges as f64;
        assert_eq!(p.scatter_dedup.to_bits(), scatter.to_bits(), "{table}");
        assert_eq!(p.lstm_padding.map(f64::to_bits), Some(padding.to_bits()), "{table}");

        // The classes, from a per-(attribute, value) task count.
        let mut value_tasks: HashMap<(AttrKind, u64), usize> = HashMap::new();
        let values = |t: GTask<'_>, attr: AttrKind| -> HashSet<u64> {
            t.edges.iter().map(|&e| g.edge_attr(attr, e as usize)).collect()
        };
        for t in &plan.tasks {
            for &(attr, _) in &exact {
                for v in values(t, attr) {
                    *value_tasks.entry((attr, v)).or_default() += 1;
                }
            }
        }
        let median = plan.median_task_edges().max(1);
        let batches = table
            .restricted_attrs()
            .iter()
            .any(|&a| table.restriction(a) != Restriction::Exact(1));
        let want: Vec<Option<OutlierKind>> = plan
            .tasks
            .iter()
            .map(|t| {
                let shared = |a: AttrKind| values(t, a).iter().any(|&v| value_tasks[&(a, v)] > 8);
                if exact.iter().any(|&(a, _)| shared(a)) {
                    Some(OutlierKind::FrequentValue)
                } else if t.num_edges() > 4 * median {
                    Some(OutlierKind::Overfill)
                } else if exact.iter().any(|&(a, k)| k >= 2 && (count(t, a) as u64) < k / 2)
                    || (t.num_edges() == 1 && batches && median > 1)
                {
                    Some(OutlierKind::Underfill)
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(classify_outliers(&mut recount, &plan), want, "{table}");
    }
}
