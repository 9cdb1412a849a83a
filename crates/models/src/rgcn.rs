//! Trainable relational GCN.

use crate::trainable::{inverse_in_degrees, GnnModel, ModelOutput};
use wisegraph_graph::Graph;
use wisegraph_kernels::train::aggregate_typed;
use wisegraph_tensor::{init, Tape, Tensor, Var};

/// Multi-layer RGCN: each layer computes, per edge type `t`,
/// `h'[dst] += h[src] @ W_t` (Equation 1), plus a self-loop projection.
/// It aggregates first and projects after (§5's Linear/aggregation swap),
/// so `|V|` rows per type go through `W_t` instead of one per edge: one
/// typed pass sums every type's in-edges into its column block of a
/// `[V, T·F]` tensor ([`aggregate_typed`]), one node scales its rows by
/// `1/in-degree`, and one [`Tape::matmul_sum`] node multiplies each
/// `W_t` with its column slice and adds the products to `h · W_self` in
/// type order — the float sequence of one aggregation, scaling, product
/// and add per type, bit for bit.
pub struct Rgcn {
    layers: Vec<RgcnLayer>,
    num_types: usize,
}

struct RgcnLayer {
    /// One weight per edge type.
    w_rel: Vec<Tensor>,
    w_self: Tensor,
    bias: Tensor,
}

impl Rgcn {
    /// Creates an RGCN with the given layer widths for a graph with
    /// `num_types` edge types.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or `num_types == 0`.
    pub fn new(dims: &[usize], num_types: usize, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        assert!(num_types > 0, "need at least one edge type");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| RgcnLayer {
                w_rel: (0..num_types)
                    .map(|t| {
                        init::xavier_uniform(
                            w[0],
                            w[1],
                            seed + (i * num_types + t) as u64,
                        )
                    })
                    .collect(),
                w_self: init::xavier_uniform(w[0], w[1], seed + 1000 + i as u64),
                bias: Tensor::zeros(&[w[1]]),
            })
            .collect();
        Self { layers, num_types }
    }
}

impl GnnModel for Rgcn {
    fn name(&self) -> &'static str {
        "RGCN"
    }

    fn forward(&self, tape: &Tape, g: &Graph, x: Var) -> ModelOutput {
        assert_eq!(
            g.num_edge_types(),
            self.num_types,
            "graph has {} edge types, model built for {}",
            g.num_edge_types(),
            self.num_types
        );
        // Normalize by in-degree to keep magnitudes stable across layers.
        let deg = inverse_in_degrees(g);
        let mut h = x;
        let mut params = Vec::new();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let ws = tape.param(layer.w_self.clone());
            params.push(ws);
            let f = layer.w_self.dims()[0];
            let agg = tape.scale_rows_const(aggregate_typed(tape, g, h), deg.clone());
            let mut terms = vec![(h, 0, ws)];
            for (t, w_t) in layer.w_rel.iter().enumerate() {
                let wv = tape.param(w_t.clone());
                params.push(wv);
                terms.push((agg, t * f, wv));
            }
            let bv = tape.param(layer.bias.clone());
            params.push(bv);
            h = tape.add_bias(tape.matmul_sum(&terms), bv);
            if i != last {
                h = tape.relu(h);
            }
        }
        ModelOutput { logits: h, params }
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            out.push(&mut layer.w_self);
            for w in &mut layer.w_rel {
                out.push(w);
            }
            out.push(&mut layer.bias);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainable::{accuracy, features_tensor, train_epoch};
    use wisegraph_graph::generate::{labeled_graph, LabeledParams};
    use wisegraph_tensor::{ops, Adam};

    #[test]
    fn rgcn_learns_on_typed_graph() {
        let lg = labeled_graph(&LabeledParams {
            num_vertices: 250,
            num_classes: 4,
            feature_dim: 12,
            homophily: 0.9,
            noise: 0.4,
            num_edge_types: 3,
            seed: 21,
            ..Default::default()
        });
        let feats = features_tensor(&lg.features, 250, 12);
        let mut model = Rgcn::new(&[12, 16, 4], 3, 9);
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::new();
        for _ in 0..30 {
            losses.push(train_epoch(
                &mut model,
                &mut opt,
                &lg.graph,
                &feats,
                &lg.labels,
                &lg.train_idx,
            ));
        }
        assert!(losses[29] < losses[0] * 0.8, "losses: {losses:?}");
        let acc = accuracy(&model, &lg.graph, &feats, &lg.labels, &lg.test_idx);
        assert!(acc > 0.55, "accuracy {acc}");
    }

    /// RGCN's logits as the model composed them before its typed pass:
    /// per edge type with edges, a tensor-centric sum over that type's
    /// in-edges, scaled by `1/deg`, projected and added to `h · W_self`
    /// in type order.
    fn per_type_logits(model: &Rgcn, g: &Graph, x: &Tensor) -> Tensor {
        let v = g.num_vertices();
        let deg: Vec<f32> = g
            .in_degree()
            .iter()
            .map(|&d| 1.0 / (d.max(1) as f32))
            .collect();
        let deg = Tensor::from_vec(deg, &[v]);
        let mut h = x.clone();
        for (i, layer) in model.layers.iter().enumerate() {
            let mut acc = ops::matmul(&h, &layer.w_self);
            for (t, w_t) in layer.w_rel.iter().enumerate() {
                let edges: Vec<usize> = (0..g.num_edges())
                    .filter(|&e| g.etype()[e] as usize == t)
                    .collect();
                if edges.is_empty() {
                    continue;
                }
                let src: Vec<u32> = edges.iter().map(|&e| g.src()[e]).collect();
                let dst: Vec<u32> = edges.iter().map(|&e| g.dst()[e]).collect();
                let agg = ops::index_add_rows(v, &ops::gather_rows(&h, &src), &dst);
                acc = ops::add(&acc, &ops::matmul(&ops::scale_rows(&agg, &deg), w_t));
            }
            h = ops::add_bias(&acc, &layer.bias);
            if i + 1 != model.layers.len() {
                h = ops::relu(&h);
            }
        }
        h
    }

    /// The typed pass and one projection node per layer keep the logits'
    /// bits, before and after training steps, on a graph whose type 2 has
    /// no edges.
    #[test]
    fn logits_are_the_per_type_composition_bit_for_bit() {
        let lg = labeled_graph(&LabeledParams {
            num_vertices: 250,
            num_classes: 4,
            feature_dim: 12,
            num_edge_types: 3,
            seed: 5,
            ..Default::default()
        });
        let g0 = &lg.graph;
        let etype = g0
            .etype()
            .iter()
            .map(|&t| if t == 2 { 3 } else { t })
            .collect();
        let g = Graph::new(250, 4, g0.src().to_vec(), g0.dst().to_vec(), etype);
        let feats = features_tensor(&lg.features, 250, 12);
        let mut model = Rgcn::new(&[12, 16, 4], 4, 3);
        let mut opt = Adam::new(0.01);
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for epoch in 0..3 {
            let tape = Tape::new();
            let logits = model.forward(&tape, &g, tape.input(feats.clone())).logits;
            let want = per_type_logits(&model, &g, &feats);
            assert_eq!(bits(&tape.value(logits)), bits(&want), "epoch {epoch}");
            train_epoch(&mut model, &mut opt, &g, &feats, &lg.labels, &lg.train_idx);
        }
    }

    #[test]
    #[should_panic(expected = "edge types")]
    fn rejects_type_count_mismatch() {
        let lg = labeled_graph(&LabeledParams {
            num_edge_types: 2,
            ..Default::default()
        });
        let feats = features_tensor(
            &lg.features,
            lg.graph.num_vertices(),
            lg.feature_dim,
        );
        let model = Rgcn::new(&[32, 4], 5, 0);
        let tape = Tape::new();
        let x = tape.input(feats);
        model.forward(&tape, &lg.graph, x);
    }
}
