//! Trainable graph attention network with multi-head attention.

use crate::trainable::{GnnModel, ModelOutput};
use wisegraph_graph::Graph;
use wisegraph_kernels::train::aggregate_weighted;
use wisegraph_tensor::{init, Tape, Tensor, Var};

/// Multi-layer GAT. Each layer runs `heads` independent attention heads of
/// width `f_out / heads` and concatenates their outputs (the paper's MHA
/// neural operation).
pub struct Gat {
    layers: Vec<GatLayer>,
    /// Leaky-ReLU slope used for attention scores.
    pub slope: f32,
}

struct GatHead {
    w: Tensor,
    a_src: Tensor,
    a_dst: Tensor,
}

struct GatLayer {
    heads: Vec<GatHead>,
    bias: Tensor,
}

impl Gat {
    /// Creates a single-head GAT with the given layer widths.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        Self::with_heads(dims, 1, seed)
    }

    /// Creates a GAT with `heads` attention heads per layer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given, `heads == 0`, or any
    /// output width is not divisible by `heads`.
    pub fn with_heads(dims: &[usize], heads: usize, seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        assert!(heads > 0, "need at least one head");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                assert!(
                    w[1] % heads == 0,
                    "layer width {} not divisible by {heads} heads",
                    w[1]
                );
                let head_dim = w[1] / heads;
                let heads = (0..heads)
                    .map(|h| {
                        let s = seed + (i * heads + h) as u64 * 3;
                        GatHead {
                            w: init::xavier_uniform(w[0], head_dim, s),
                            a_src: init::xavier_uniform(head_dim, 1, s + 1),
                            a_dst: init::xavier_uniform(head_dim, 1, s + 2),
                        }
                    })
                    .collect();
                GatLayer {
                    heads,
                    bias: Tensor::zeros(&[w[1]]),
                }
            })
            .collect();
        Self { layers, slope: 0.2 }
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
            let mut head_outputs: Option<Var> = None;
            for head in &layer.heads {
                let wv = tape.param(head.w.clone());
                let asv = tape.param(head.a_src.clone());
                let adv = tape.param(head.a_dst.clone());
                params.extend([wv, asv, adv]);
                let z = tape.matmul(h, wv);
                // Attention logits per vertex, hoisted before the edge
                // gather (the indexing-swap form WiseGraph derives
                // automatically).
                let s_src = tape.matmul(z, asv);
                let s_dst = tape.matmul(z, adv);
                let e_src = tape.gather_rows(s_src, src.clone());
                let e_dst = tape.gather_rows(s_dst, dst.clone());
                let e_sum = tape.add(e_src, e_dst);
                let e_act = tape.leaky_relu(e_sum, self.slope);
                let scores = tape.reshape(e_act, &[g.num_edges()]);
                let alpha = tape.segment_softmax(scores, dst.clone(), v);
                let agg = aggregate_weighted(tape, g, z, alpha);
                head_outputs = Some(match head_outputs {
                    None => agg,
                    Some(prev) => tape.concat_cols(prev, agg),
                });
            }
            let bv = tape.param(layer.bias.clone());
            params.push(bv);
            let concat = head_outputs.expect("at least one head");
            h = tape.add_bias(concat, bv);
            if i != last {
                h = tape.relu(h);
            }
        }
        ModelOutput { logits: h, params }
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut out = Vec::new();
        for layer in &mut self.layers {
            for head in &mut layer.heads {
                out.push(&mut head.w);
                out.push(&mut head.a_src);
                out.push(&mut head.a_dst);
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
    fn multi_head_gat_learns() {
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
        let mut model = Gat::with_heads(&[12, 16, 4], 4, 9);
        assert!(model.layers.iter().all(|l| l.heads.len() == 4));
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::new();
        for _ in 0..25 {
            losses.push(train_epoch(
                &mut model,
                &mut opt,
                &lg.graph,
                &feats,
                &lg.labels,
                &lg.train_idx,
            ));
        }
        assert!(losses[24] < losses[0] * 0.8, "losses: {losses:?}");
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn heads_must_divide_width() {
        let _ = Gat::with_heads(&[12, 15, 4], 4, 0);
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
