//! Trainable graph attention network: one attention head per layer, the
//! GAT whose layer DFG [`crate::ModelKind::Gat`] builds and prices.

use crate::trainable::{GnnModel, ModelOutput};
use wisegraph_dfg::op::LEAKY_SLOPE;
use wisegraph_graph::Graph;
use wisegraph_kernels::train::aggregate_weighted;
use wisegraph_tensor::{init, Tape, Tensor, Var};

/// Multi-layer GAT. Each layer projects `h · W`, scores every edge with
/// `leaky_relu(⟨z_src, a_src⟩ + ⟨z_dst, a_dst⟩)` (slope
/// [`LEAKY_SLOPE`], as the DFG interpreter and the kernels use), normalises
/// the scores over each destination's in-edges and aggregates `z` with
/// them.
pub struct Gat {
    layers: Vec<GatLayer>,
}

struct GatLayer {
    w: Tensor,
    a_src: Tensor,
    a_dst: Tensor,
    bias: Tensor,
}

impl Gat {
    /// Creates a GAT with the given layer widths; layer `i` draws its
    /// weights from seeds `seed + 3i`, `+ 1` and `+ 2`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let s = seed + 3 * i as u64;
                GatLayer {
                    w: init::xavier_uniform(w[0], w[1], s),
                    a_src: init::xavier_uniform(w[1], 1, s + 1),
                    a_dst: init::xavier_uniform(w[1], 1, s + 2),
                    bias: Tensor::zeros(&[w[1]]),
                }
            })
            .collect();
        Self { layers }
    }
}

impl GnnModel for Gat {
    fn name(&self) -> &'static str {
        "GAT"
    }

    fn forward(&self, tape: &Tape, g: &Graph, x: Var) -> ModelOutput {
        let src: Vec<u32> = g.src().to_vec();
        let dst: Vec<u32> = g.dst().to_vec();
        let v = g.num_vertices();
        let mut h = x;
        let mut params = Vec::new();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let wv = tape.param(layer.w.clone());
            let asv = tape.param(layer.a_src.clone());
            let adv = tape.param(layer.a_dst.clone());
            let z = tape.matmul(h, wv);
            // Attention logits per vertex, hoisted before the edge gather
            // (the indexing-swap form WiseGraph derives automatically).
            let s_src = tape.matmul(z, asv);
            let s_dst = tape.matmul(z, adv);
            let e_src = tape.gather_rows(s_src, src.clone());
            let e_dst = tape.gather_rows(s_dst, dst.clone());
            let e_sum = tape.add(e_src, e_dst);
            let e_act = tape.leaky_relu(e_sum, LEAKY_SLOPE);
            let scores = tape.reshape(e_act, &[g.num_edges()]);
            let alpha = tape.segment_softmax(scores, dst.clone(), v);
            let agg = aggregate_weighted(tape, g, z, alpha);
            let bv = tape.param(layer.bias.clone());
            params.extend([wv, asv, adv, bv]);
            h = tape.add_bias(agg, bv);
            if i != last {
                h = tape.relu(h);
            }
        }
        ModelOutput { logits: h, params }
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| [&mut l.w, &mut l.a_src, &mut l.a_dst, &mut l.bias])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainable::{accuracy, features_tensor, train_epoch};
    use wisegraph_graph::generate::{labeled_graph, LabeledParams};
    use wisegraph_tensor::Adam;

    #[test]
    fn gat_learns_homophilous_labels() {
        let lg = labeled_graph(&LabeledParams {
            num_vertices: 250,
            num_classes: 4,
            feature_dim: 12,
            homophily: 0.9,
            noise: 0.4,
            seed: 11,
            ..Default::default()
        });
        let feats = features_tensor(&lg.features, 250, 12);
        let mut model = Gat::new(&[12, 16, 4], 9);
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

    #[test]
    fn gat_output_is_finite_on_skewed_graph() {
        use wisegraph_graph::generate::{rmat, RmatParams};
        let g = rmat(&RmatParams::standard(100, 2000, 13));
        let feats = init::uniform_tensor(&[100, 8], -1.0, 1.0, 3);
        let model = Gat::new(&[8, 4], 2);
        let tape = Tape::new();
        let x = tape.input(feats);
        let out = model.forward(&tape, &g, x);
        assert!(tape.value(out.logits).all_finite());
    }
}
