//! Seed-plus-fanout neighbor sampling for sampled-graph training.
//!
//! The paper's PA-S and FS-S datasets are produced by sampling the full
//! graphs "using a seed vertex size of 1000 and a fan-out of 20-15-10"
//! (§7.1), and §6.3 / Figure 21 rely on fresh subgraphs every iteration
//! sharing a similar structural pattern. This module implements that
//! sampler.

use crate::csr::Csr;
use crate::graph::Graph;
use wisegraph_testkit::rng::Rng;

/// Configuration for layer-wise neighbor sampling.
#[derive(Clone, Debug)]
pub struct SampleConfig {
    /// Number of seed (output) vertices.
    pub num_seeds: usize,
    /// Per-layer fan-out, outermost layer first (paper: `[20, 15, 10]`).
    pub fanouts: Vec<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl SampleConfig {
    /// The paper's configuration: 1000 seeds, fan-out 20-15-10.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            num_seeds: 1000,
            fanouts: vec![20, 15, 10],
            seed,
        }
    }
}

/// A sampled subgraph with its mapping back to the parent graph.
#[derive(Clone, Debug)]
pub struct SampledSubgraph {
    /// The compacted subgraph (vertices renumbered from 0).
    pub graph: Graph,
    /// `vertex_map[new_id] = old_id` in the parent graph.
    pub vertex_map: Vec<u32>,
    /// New ids of the seed vertices (training targets).
    pub seeds: Vec<u32>,
}

/// Samples a subgraph by expanding `num_seeds` seeds through `fanouts`
/// layers of in-neighbors, keeping at most `fanout` in-edges per frontier
/// vertex per layer.
///
/// Cost: O(|V|) for the visited marks plus work proportional to the edges
/// kept. A frontier vertex whose degree exceeds the fan-out draws `fanout`
/// distinct row positions (rejection, O(fanout²) compares), sorts them and
/// reads just those CSR entries; its other neighbours are never touched.
/// Picked edges come out in ascending row position per vertex.
///
/// An empty graph or `num_seeds == 0` yields an empty subgraph.
pub fn neighbor_sample(g: &Graph, csr_in: &Csr, cfg: &SampleConfig) -> SampledSubgraph {
    let mut rng = Rng::seed_from_u64(cfg.seed);
    let mut picked_edges: Vec<usize> = Vec::new();
    let mut seen = vec![false; g.num_vertices()];
    // An empty graph has no vertex to draw a seed from.
    let num_seeds = if g.num_vertices() == 0 { 0 } else { cfg.num_seeds };
    let mut frontier: Vec<u32> = (0..num_seeds)
        .map(|_| rng.range_usize(0..g.num_vertices()) as u32)
        .collect();
    frontier.sort_unstable();
    frontier.dedup();
    let seeds_old = frontier.clone();
    for &v in &frontier {
        seen[v as usize] = true;
    }
    let mut chosen: Vec<usize> = Vec::new();
    for &fanout in &cfg.fanouts {
        let mut next: Vec<u32> = Vec::new();
        for &v in &frontier {
            let (nbrs, eids) = csr_in.row(v as usize);
            let deg = nbrs.len();
            chosen.clear();
            if deg <= fanout {
                chosen.extend(0..deg);
            } else {
                // `fanout` distinct positions by rejection.
                while chosen.len() < fanout {
                    let pos = rng.range_usize(0..deg);
                    if !chosen.contains(&pos) {
                        chosen.push(pos);
                    }
                }
                chosen.sort_unstable();
            }
            for &pos in &chosen {
                picked_edges.push(eids[pos] as usize);
                let nbr = nbrs[pos];
                if !seen[nbr as usize] {
                    seen[nbr as usize] = true;
                    next.push(nbr);
                }
            }
        }
        frontier = next;
    }
    let (graph, vertex_map) = g.edge_subgraph(&picked_edges);
    // Seeds may not appear in any picked edge if isolated; map those that do.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{rmat, RmatParams};

    fn test_graph() -> Graph {
        rmat(&RmatParams::standard(2000, 16000, 5).with_edge_types(4))
    }

    #[test]
    fn sample_respects_fanout_budget() {
        let g = test_graph();
        let csr = Csr::in_of(&g);
        let cfg = SampleConfig {
            num_seeds: 50,
            fanouts: vec![5, 5],
            seed: 1,
        };
        let sub = neighbor_sample(&g, &csr, &cfg);
        // Upper bound: seeds·5 + seeds·5·5 edges.
        assert!(sub.graph.num_edges() <= 50 * 5 + 50 * 5 * 5);
        assert!(sub.graph.num_edges() > 0);
    }

    #[test]
    fn sampled_edges_exist_in_parent() {
        let g = test_graph();
        let csr = Csr::in_of(&g);
        let sub = neighbor_sample(
            &g,
            &csr,
            &SampleConfig {
                num_seeds: 20,
                fanouts: vec![4, 4],
                seed: 2,
            },
        );
        use std::collections::HashSet;
        let parent: HashSet<(u32, u32, u32)> = g
            .src()
            .iter()
            .zip(g.dst().iter().zip(g.etype().iter()))
            .map(|(&s, (&d, &t))| (s, d, t))
            .collect();
        for e in 0..sub.graph.num_edges() {
            let s = sub.vertex_map[sub.graph.src()[e] as usize];
            let d = sub.vertex_map[sub.graph.dst()[e] as usize];
            let t = sub.graph.etype()[e];
            assert!(parent.contains(&(s, d, t)), "edge {e} not in parent");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let g = test_graph();
        let csr = Csr::in_of(&g);
        let cfg = SampleConfig {
            num_seeds: 30,
            fanouts: vec![6, 6],
            seed: 3,
        };
        let a = neighbor_sample(&g, &csr, &cfg);
        let b = neighbor_sample(&g, &csr, &cfg);
        assert_eq!(a.graph.src(), b.graph.src());
        assert_eq!(a.vertex_map, b.vertex_map);
    }

    #[test]
    fn different_seeds_differ_but_share_scale() {
        // §6.3: "the sampled subgraphs share a similar pattern".
        let g = test_graph();
        let csr = Csr::in_of(&g);
        let mk = |s| {
            neighbor_sample(
                &g,
                &csr,
                &SampleConfig {
                    num_seeds: 100,
                    fanouts: vec![5, 5],
                    seed: s,
                },
            )
        };
        let a = mk(10);
        let b = mk(11);
        assert_ne!(a.graph.src(), b.graph.src());
        let ratio = a.graph.num_edges() as f64 / b.graph.num_edges() as f64;
        assert!(ratio > 0.5 && ratio < 2.0, "scale ratio {ratio}");
    }

    #[test]
    fn seeds_are_mapped_into_subgraph() {
        let g = test_graph();
        let csr = Csr::in_of(&g);
        let sub = neighbor_sample(
            &g,
            &csr,
            &SampleConfig {
                num_seeds: 10,
                fanouts: vec![8],
                seed: 4,
            },
        );
        for &s in &sub.seeds {
            assert!((s as usize) < sub.graph.num_vertices());
        }
    }
}
