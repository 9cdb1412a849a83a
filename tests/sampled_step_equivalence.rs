//! Sampled-step equivalence: the two stages a sampled training step pays
//! before planning, each against the implementation it replaced.
//!
//! `oracle_neighbor_sample` below *is* the previous `neighbor_sample` (one
//! `HashSet` of drawn positions per over-full frontier vertex, probed once
//! per neighbour), kept verbatim as the reference: the row-indexing sampler
//! must make the same RNG draws and pick the same edges in the same order,
//! so `src` / `dst` / `etype`, `vertex_map` and `seeds` are identical.
//!
//! `oracle_uniques` is the all-edges scan `Binding::from_graph` used to run
//! (`uniq(attr)` as the number of distinct `edge_attr` values over every
//! edge); the degree-array binding must give the same counts, vertices,
//! edges and edge types.

use std::collections::{BTreeMap, HashSet};
use wisegraph::dfg::Binding;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::sample::{neighbor_sample, SampleConfig, SampledSubgraph};
use wisegraph::graph::{AttrKind, Csr, Graph};
use wisegraph_testkit::prelude::*;

/// The `HashSet` sampler as it stood before positions were sorted and read
/// off the CSR row.
fn oracle_neighbor_sample(g: &Graph, csr_in: &Csr, cfg: &SampleConfig) -> SampledSubgraph {
    assert!(g.num_vertices() > 0, "cannot sample an empty graph");
    assert!(cfg.num_seeds > 0, "need at least one seed");
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut picked_edges: Vec<usize> = Vec::new();
    let mut seen = vec![false; g.num_vertices()];
    let mut frontier: Vec<u32> = (0..cfg.num_seeds)
        .map(|_| rng.range_usize(0..g.num_vertices()) as u32)
        .collect();
    frontier.sort_unstable();
    frontier.dedup();
    let seeds_old = frontier.clone();
    for &v in &frontier {
        seen[v as usize] = true;
    }
    for &fanout in &cfg.fanouts {
        let mut next: Vec<u32> = Vec::new();
        for &v in &frontier {
            let deg = csr_in.degree(v as usize);
            if deg == 0 {
                continue;
            }
            if deg <= fanout {
                for (nbr, eid) in csr_in.neighbors(v as usize) {
                    picked_edges.push(eid as usize);
                    if !seen[nbr as usize] {
                        seen[nbr as usize] = true;
                        next.push(nbr);
                    }
                }
            } else {
                // Sample `fanout` distinct positions by floyd-ish rejection.
                let mut chosen = HashSet::with_capacity(fanout);
                while chosen.len() < fanout {
                    chosen.insert(rng.range_usize(0..deg));
                }
                for (pos, (nbr, eid)) in csr_in.neighbors(v as usize).enumerate() {
                    if chosen.contains(&pos) {
                        picked_edges.push(eid as usize);
                        if !seen[nbr as usize] {
                            seen[nbr as usize] = true;
                            next.push(nbr);
                        }
                    }
                }
            }
        }
        frontier = next;
    }
    let (graph, vertex_map) = g.edge_subgraph(&picked_edges);
    let mut old_to_new = vec![u32::MAX; g.num_vertices()];
    for (new, &old) in vertex_map.iter().enumerate() {
        old_to_new[old as usize] = new as u32;
    }
    let seeds = seeds_old
        .iter()
        .filter_map(|&old| {
            let n = old_to_new[old as usize];
            (n != u32::MAX).then_some(n)
        })
        .collect();
    SampledSubgraph {
        graph,
        vertex_map,
        seeds,
    }
}

fn same_sample(g: &Graph, csr: &Csr, cfg: &SampleConfig) -> Result<(), String> {
    let got = neighbor_sample(g, csr, cfg);
    let want = oracle_neighbor_sample(g, csr, cfg);
    let parts = |s: &SampledSubgraph| {
        (
            s.graph.num_vertices(),
            s.graph.num_edge_types(),
            s.graph.src().to_vec(),
            s.graph.dst().to_vec(),
            s.graph.etype().to_vec(),
            s.vertex_map.clone(),
            s.seeds.clone(),
        )
    };
    if parts(&got) != parts(&want) {
        return Err(format!(
            "{cfg:?}: samples differ ({} vs {} edges, {} vs {} vertices)",
            got.graph.num_edges(),
            want.graph.num_edges(),
            got.vertex_map.len(),
            want.vertex_map.len()
        ));
    }
    Ok(())
}

/// The edge scan: distinct `edge_attr` values over every edge.
fn oracle_uniques(g: &Graph) -> BTreeMap<AttrKind, usize> {
    AttrKind::ALL
        .iter()
        .map(|&kind| {
            let vals: HashSet<u64> = (0..g.num_edges()).map(|e| g.edge_attr(kind, e)).collect();
            (kind, vals.len())
        })
        .collect()
}

fn same_binding(g: &Graph) -> Result<(), String> {
    let sorted = |b: &Binding| -> BTreeMap<AttrKind, usize> {
        b.unique.iter().map(|(&k, &u)| (k, u)).collect()
    };
    let want = oracle_uniques(g);
    let b = Binding::from_graph(g);
    if sorted(&b) != want {
        return Err(format!("unique counts differ\n got  {:?}\n want {want:?}", sorted(&b)));
    }
    let shape = (b.vertices, b.edges, b.edge_types);
    let want_shape = (g.num_vertices(), g.num_edges(), g.num_edge_types());
    if shape != want_shape {
        return Err(format!("(vertices, edges, edge types) {shape:?} != {want_shape:?}"));
    }
    Ok(())
}

/// An RMAT graph, or an edgeless one when `e == 0` (RMAT needs an edge).
fn graph(v: usize, e: usize, types: usize, seed: u64) -> Graph {
    if e == 0 {
        Graph::new(v, types, vec![], vec![], vec![])
    } else {
        rmat(&RmatParams::standard(v, e, seed).with_edge_types(types))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random RMAT graphs (power-law hubs with degree ≫ fan-out, isolated
    /// vertices, a single vertex, no edges) × seed counts beyond |V|
    /// (repeated seed draws) × fan-outs from 0 up, then once more with
    /// fan-outs at least every degree.
    fn row_indexing_sampler_matches_the_hash_set_oracle(
        v in 1usize..300,
        e in 0usize..3000,
        types in 1usize..5,
        graph_seed in 0u64..1000,
        num_seeds in 0usize..400,
        fanouts in prop::collection::vec(0usize..24, 0..4),
        seed in 0u64..1000,
    ) {
        let g = graph(v, e, types, graph_seed);
        let csr = Csr::in_of(&g);
        let max_degree = (0..v).map(|u| csr.degree(u)).max().unwrap_or(0);
        for fanouts in [fanouts, vec![max_degree, max_degree + 1]] {
            let cfg = SampleConfig { num_seeds, fanouts, seed };
            if num_seeds == 0 {
                // The oracle asserted a seed; the sampler returns nothing.
                let sub = neighbor_sample(&g, &csr, &cfg);
                prop_assert_eq!(sub.graph.num_edges(), 0);
                prop_assert!(sub.vertex_map.is_empty() && sub.seeds.is_empty());
            } else if let Err(msg) = same_sample(&g, &csr, &cfg) {
                return Err(TestCaseError(msg));
            }
        }
    }

    /// Random graphs with and without vertex types (sparse codes, some on
    /// isolated vertices only), zero edges, isolated vertices, one edge
    /// type.
    fn degree_array_binding_matches_the_edge_scan(
        v in 1usize..400,
        e in 0usize..6000,
        types in 1usize..5,
        graph_seed in 0u64..1000,
        vertex_types in prop::collection::vec(0u32..1_000_000, 0..2),
    ) {
        let mut g = graph(v, e, types, graph_seed);
        if let Some(&salt) = vertex_types.first() {
            let types = (0..v as u32).map(|i| (i % 3) * salt + i % 2).collect();
            g = g.with_vertex_types(types);
        }
        if let Err(msg) = same_binding(&g) {
            return Err(TestCaseError(msg));
        }
    }
}

/// The paper's fan-outs on a graph the size of a dataset sample's parent,
/// across several seeds; each sample's binding too.
#[test]
fn paper_fanout_samples_match_the_oracle() {
    let g = rmat(&RmatParams::standard(20_000, 200_000, 31).with_edge_types(4));
    let csr = Csr::in_of(&g);
    for seed in 0..4 {
        let mut cfg = SampleConfig::paper_default(seed);
        cfg.num_seeds = 500;
        same_sample(&g, &csr, &cfg).unwrap();
        same_binding(&neighbor_sample(&g, &csr, &cfg).graph).unwrap();
    }
}

#[test]
fn degenerate_graphs_bind_like_the_edge_scan() {
    let graphs = [
        ("no vertices", Graph::untyped(0, vec![], vec![])),
        ("no edges", Graph::new(5, 3, vec![], vec![], vec![])),
        (
            "no edges, typed",
            Graph::untyped(4, vec![], vec![]).with_vertex_types(vec![0, 7, 7, 2]),
        ),
        ("isolated vertices", Graph::untyped(10, vec![0, 1, 1], vec![2, 2, 9])),
        (
            "one edge type of four",
            Graph::new(6, 4, vec![0, 1, 2, 3], vec![1, 2, 3, 3], vec![2, 2, 2, 2]),
        ),
        (
            "types on isolated vertices only",
            Graph::untyped(5, vec![0, 0], vec![1, 1]).with_vertex_types(vec![3, 3, 9, 9, 9]),
        ),
    ];
    for (name, g) in &graphs {
        same_binding(g).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}
