//! Trainable GraphSAGE (mean aggregator).

use crate::trainable::{inverse_in_degrees, GnnModel, ModelOutput};
use wisegraph_graph::Graph;
use wisegraph_kernels::train::aggregate;
use wisegraph_tensor::{init, Tape, Tensor, Var};

/// Multi-layer GraphSAGE: `h' = relu(h W_self + mean_nbr(h) W_neigh + b)`.
pub struct Sage {
    layers: Vec<SageLayer>,
}

struct SageLayer {
    w_self: Tensor,
    w_neigh: Tensor,
    bias: Tensor,
}

impl Sage {
    /// Creates a SAGE model with the given layer widths.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least input and output widths");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| SageLayer {
                w_self: init::xavier_uniform(w[0], w[1], seed + 2 * i as u64),
                w_neigh: init::xavier_uniform(w[0], w[1], seed + 2 * i as u64 + 1),
                bias: Tensor::zeros(&[w[1]]),
            })
            .collect();
        Self { layers }
    }
}

impl GnnModel for Sage {
    fn name(&self) -> &'static str {
        "SAGE"
    }

    fn forward(&self, tape: &Tape, g: &Graph, x: Var) -> ModelOutput {
        let deg = inverse_in_degrees(g);
        let mut h = x;
        let mut params = Vec::new();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let ws = tape.param(layer.w_self.clone());
            let wn = tape.param(layer.w_neigh.clone());
            let bv = tape.param(layer.bias.clone());
            params.extend([ws, wn, bv]);
            let agg = aggregate(tape, g, h);
            let mean = tape.scale_rows_const(agg, deg.clone());
            let self_part = tape.matmul(h, ws);
            let neigh_part = tape.matmul(mean, wn);
            let sum = tape.add(self_part, neigh_part);
            h = tape.add_bias(sum, bv);
            if i != last {
                h = tape.relu(h);
            }
        }
        ModelOutput { logits: h, params }
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| [&mut l.w_self, &mut l.w_neigh, &mut l.bias])
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
    fn sage_learns_homophilous_labels() {
        let lg = labeled_graph(&LabeledParams {
            num_vertices: 300,
            num_classes: 4,
            feature_dim: 16,
            homophily: 0.9,
            noise: 0.5,
            seed: 3,
            ..Default::default()
        });
        let feats = features_tensor(&lg.features, 300, 16);
        let mut model = Sage::new(&[16, 32, 4], 5);
        let mut opt = Adam::new(0.01);
        for _ in 0..30 {
            train_epoch(
                &mut model,
                &mut opt,
                &lg.graph,
                &feats,
                &lg.labels,
                &lg.train_idx,
            );
        }
        let acc = accuracy(&model, &lg.graph, &feats, &lg.labels, &lg.test_idx);
        assert!(acc > 0.6, "accuracy {acc}");
    }

    #[test]
    fn sage_self_path_preserves_isolated_vertices() {
        // With no edges, SAGE still classifies from the self path (GCN
        // would output pure bias).
        let g = Graph::untyped(10, vec![], vec![]);
        let feats = Tensor::ones(&[10, 4]);
        let model = Sage::new(&[4, 3], 1);
        let tape = Tape::new();
        let x = tape.input(feats);
        let out = model.forward(&tape, &g, x);
        let logits = tape.value(out.logits);
        assert!(logits.data().iter().any(|&v| v != 0.0));
    }
}
