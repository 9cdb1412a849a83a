//! Synthetic graph generators.
//!
//! The paper evaluates on OGB graphs (power-law degree distributions). We
//! regenerate structurally similar graphs with an RMAT-style recursive
//! quadrant sampler, skewed edge types (so RGCN's duplicated-type pattern
//! appears, Figure 17), and — for accuracy experiments — homophilous labels
//! with class-correlated features so models have signal to learn (Figure 14).

use crate::graph::Graph;
use wisegraph_testkit::rng::Rng;

/// Parameters for the RMAT-style power-law generator.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    /// Number of vertices (rounded up to a power of two internally).
    pub num_vertices: usize,
    /// Number of edges to generate.
    pub num_edges: usize,
    /// RMAT quadrant probabilities; `a + b + c + d` must be ≈ 1.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Number of edge types to assign (Zipf-skewed).
    pub num_edge_types: usize,
    /// RNG seed.
    pub seed: u64,
}

impl RmatParams {
    /// Standard Graph500-like skew (a=0.57, b=c=0.19).
    pub fn standard(num_vertices: usize, num_edges: usize, seed: u64) -> Self {
        Self {
            num_vertices,
            num_edges,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            num_edge_types: 1,
            seed,
        }
    }

    /// Sets the number of edge types.
    pub fn with_edge_types(mut self, n: usize) -> Self {
        self.num_edge_types = n;
        self
    }
}

/// The most vertices [`rmat`] generates: vertex ids are `u32`, so a
/// graph has at most the `2^32` ids `0..=u32::MAX`.
pub const MAX_RMAT_VERTICES: u64 = 1 << 32;

/// Generates a power-law graph with the RMAT recursive procedure.
///
/// Vertices outside the requested range (an artifact of the power-of-two
/// rounding) are folded back with a modulo, preserving the skew. Edge types
/// follow a Zipf-like distribution so a few types dominate, as relation
/// types do in real knowledge graphs.
///
/// # Panics
///
/// Panics if `num_vertices` or `num_edges` is zero, or `num_vertices`
/// exceeds [`MAX_RMAT_VERTICES`].
pub fn rmat(params: &RmatParams) -> Graph {
    assert!(params.num_vertices > 0, "need at least one vertex");
    assert!(
        params.num_vertices as u64 <= MAX_RMAT_VERTICES,
        "at most 2^32 vertices: vertex ids are u32"
    );
    assert!(params.num_edges > 0, "need at least one edge");
    let mut rng = Rng::seed_from_u64(params.seed);
    let levels = (params.num_vertices as f64).log2().ceil() as u32;
    let n = params.num_vertices;
    let mut src = Vec::with_capacity(params.num_edges);
    let mut dst = Vec::with_capacity(params.num_edges);
    for _ in 0..params.num_edges {
        let (mut s, mut d) = (0usize, 0usize);
        for _ in 0..levels {
            let r = rng.f64();
            let (sbit, dbit) = if r < params.a {
                (0, 0)
            } else if r < params.a + params.b {
                (0, 1)
            } else if r < params.a + params.b + params.c {
                (1, 0)
            } else {
                (1, 1)
            };
            s = (s << 1) | sbit;
            d = (d << 1) | dbit;
        }
        src.push((s % n) as u32);
        dst.push((d % n) as u32);
    }
    let etype = zipf_types(params.num_edges, params.num_edge_types, &mut rng);
    Graph::new(n, params.num_edge_types, src, dst, etype)
}

/// Samples `count` edge types from a Zipf-like (1/rank) distribution.
fn zipf_types(count: usize, num_types: usize, rng: &mut Rng) -> Vec<u32> {
    if num_types <= 1 {
        return vec![0; count];
    }
    let weights: Vec<f64> = (1..=num_types).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    (0..count)
        .map(|_| {
            let mut x = rng.f64() * total;
            for (t, &w) in weights.iter().enumerate() {
                if x < w {
                    return t as u32;
                }
                x -= w;
            }
            (num_types - 1) as u32
        })
        .collect()
}

/// A graph together with learnable vertex features and class labels.
///
/// Features are class centroids plus noise and edges are homophilous
/// (endpoints tend to share a class), so GNNs trained on it genuinely
/// improve accuracy over epochs — as needed for the Figure 14 reproduction.
#[derive(Clone, Debug)]
pub struct LabeledGraph {
    /// The graph topology.
    pub graph: Graph,
    /// Row-major `[num_vertices, feature_dim]` features.
    pub features: Vec<f32>,
    /// Feature dimension.
    pub feature_dim: usize,
    /// Class label per vertex.
    pub labels: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
    /// Vertex ids of the training split.
    pub train_idx: Vec<u32>,
    /// Vertex ids of the test split.
    pub test_idx: Vec<u32>,
}

/// Parameters for [`labeled_graph`].
#[derive(Clone, Copy, Debug)]
pub struct LabeledParams {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Average degree (edges = vertices × avg_degree).
    pub avg_degree: usize,
    /// Feature dimension.
    pub feature_dim: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Probability that an edge connects same-class vertices.
    pub homophily: f64,
    /// Feature noise standard deviation (relative to unit centroids).
    pub noise: f32,
    /// Number of edge types.
    pub num_edge_types: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for LabeledParams {
    fn default() -> Self {
        Self {
            num_vertices: 1000,
            avg_degree: 8,
            feature_dim: 32,
            num_classes: 8,
            homophily: 0.8,
            noise: 0.6,
            num_edge_types: 1,
            seed: 0,
        }
    }
}

/// Generates a homophilous labeled graph for training experiments.
///
/// # Panics
///
/// Panics if any size parameter is zero.
pub fn labeled_graph(p: &LabeledParams) -> LabeledGraph {
    assert!(p.num_vertices > 0 && p.num_classes > 0 && p.feature_dim > 0);
    let mut rng = Rng::seed_from_u64(p.seed);
    let labels: Vec<u32> = (0..p.num_vertices)
        .map(|_| rng.range_usize(0..p.num_classes) as u32)
        .collect();
    // Bucket vertices by class for homophilous edge endpoints.
    let mut by_class: Vec<Vec<u32>> = vec![Vec::new(); p.num_classes];
    for (v, &c) in labels.iter().enumerate() {
        by_class[c as usize].push(v as u32);
    }
    let num_edges = p.num_vertices * p.avg_degree;
    let mut src = Vec::with_capacity(num_edges);
    let mut dst = Vec::with_capacity(num_edges);
    for _ in 0..num_edges {
        let d = rng.range_usize(0..p.num_vertices) as u32;
        let c = labels[d as usize] as usize;
        let s = if rng.bool_with(p.homophily) && !by_class[c].is_empty() {
            by_class[c][rng.range_usize(0..by_class[c].len())]
        } else {
            rng.range_usize(0..p.num_vertices) as u32
        };
        src.push(s);
        dst.push(d);
    }
    let etype = zipf_types(num_edges, p.num_edge_types, &mut rng);
    let graph = Graph::new(p.num_vertices, p.num_edge_types, src, dst, etype);

    // Class centroids: orthogonal-ish random unit directions.
    let centroids: Vec<f32> = (0..p.num_classes * p.feature_dim)
        .map(|_| rng.range_f32(-1.0, 1.0))
        .collect();
    let mut features = vec![0.0f32; p.num_vertices * p.feature_dim];
    for v in 0..p.num_vertices {
        let c = labels[v] as usize;
        for f in 0..p.feature_dim {
            let noise = rng.range_f32(-p.noise, p.noise);
            features[v * p.feature_dim + f] = centroids[c * p.feature_dim + f] + noise;
        }
    }

    // 60/40 train/test split.
    let mut idx: Vec<u32> = (0..p.num_vertices as u32).collect();
    rng.shuffle(&mut idx);
    let split = (p.num_vertices * 6) / 10;
    let (train_idx, test_idx) = (idx[..split].to_vec(), idx[split..].to_vec());

    LabeledGraph {
        graph,
        features,
        feature_dim: p.feature_dim,
        labels,
        num_classes: p.num_classes,
        train_idx,
        test_idx,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn rmat_shape_and_determinism() {
        let p = RmatParams::standard(1000, 8000, 1);
        let g1 = rmat(&p);
        let g2 = rmat(&p);
        assert_eq!(g1.num_vertices(), 1000);
        assert_eq!(g1.num_edges(), 8000);
        assert_eq!(g1.src(), g2.src());
        assert_eq!(g1.dst(), g2.dst());
        let g3 = rmat(&RmatParams::standard(1000, 8000, 2));
        assert_ne!(g1.src(), g3.src());
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat(&RmatParams::standard(2048, 40960, 7));
        // Power-law: the max in-degree should far exceed the average.
        let avg = g.num_edges() as f64 / g.num_vertices() as f64;
        let max = *g.in_degree().iter().max().unwrap() as f64;
        assert!(
            max > 8.0 * avg,
            "expected skew: max {max} vs avg {avg}"
        );
        let gini = stats::degree_gini(g.in_degree());
        assert!(gini > 0.4, "expected unequal degrees, gini = {gini}");
    }

    #[test]
    fn edge_types_are_skewed() {
        let g = rmat(&RmatParams::standard(512, 20000, 3).with_edge_types(8));
        let mut counts = vec![0usize; 8];
        for &t in g.etype() {
            counts[t as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "all types present");
        assert!(
            counts[0] > 3 * counts[7],
            "type 0 should dominate: {counts:?}"
        );
    }

    #[test]
    fn labeled_graph_is_homophilous() {
        let lg = labeled_graph(&LabeledParams {
            num_vertices: 2000,
            homophily: 0.9,
            ..Default::default()
        });
        let same = lg
            .graph
            .src()
            .iter()
            .zip(lg.graph.dst().iter())
            .filter(|(&s, &d)| lg.labels[s as usize] == lg.labels[d as usize])
            .count();
        let frac = same as f64 / lg.graph.num_edges() as f64;
        assert!(frac > 0.8, "homophily fraction {frac}");
    }

    #[test]
    fn labeled_graph_splits_cover_all_vertices() {
        let lg = labeled_graph(&LabeledParams::default());
        assert_eq!(
            lg.train_idx.len() + lg.test_idx.len(),
            lg.graph.num_vertices()
        );
        let mut all: Vec<u32> = lg
            .train_idx
            .iter()
            .chain(lg.test_idx.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), lg.graph.num_vertices());
        assert_eq!(lg.features.len(), lg.graph.num_vertices() * lg.feature_dim);
    }

    #[test]
    fn features_carry_class_signal() {
        let lg = labeled_graph(&LabeledParams {
            noise: 0.1,
            ..Default::default()
        });
        // Same-class feature vectors should be closer than cross-class ones.
        let dim = lg.feature_dim;
        let dist = |a: usize, b: usize| -> f32 {
            (0..dim)
                .map(|f| (lg.features[a * dim + f] - lg.features[b * dim + f]).powi(2))
                .sum::<f32>()
        };
        let mut same_sum = 0.0;
        let mut diff_sum = 0.0;
        let mut same_n = 0;
        let mut diff_n = 0;
        for a in 0..200 {
            for b in (a + 1)..200 {
                if lg.labels[a] == lg.labels[b] {
                    same_sum += dist(a, b);
                    same_n += 1;
                } else {
                    diff_sum += dist(a, b);
                    diff_n += 1;
                }
            }
        }
        assert!((same_sum / same_n as f32) < (diff_sum / diff_n as f32));
    }
}
