//! Trainable GCN.

use crate::trainable::{inverse_in_degrees, GnnModel, ModelOutput};
use wisegraph_graph::Graph;
use wisegraph_kernels::train::aggregate;
use wisegraph_tensor::{init, Tape, Tensor, Var};

/// A multi-layer GCN: each layer aggregates mean-normalized neighbor
/// features and applies a linear projection; ReLU between layers.
pub struct Gcn {
    layers: Vec<(Tensor, Tensor)>,
}

impl Gcn {
    /// Creates a GCN with the given layer widths, e.g. `[in, hidden, out]`.
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
                (
                    init::xavier_uniform(w[0], w[1], seed + i as u64),
                    Tensor::zeros(&[w[1]]),
                )
            })
            .collect();
        Self { layers }
    }
}

impl GnnModel for Gcn {
    fn name(&self) -> &'static str {
        "GCN"
    }

    fn forward(&self, tape: &Tape, g: &Graph, x: Var) -> ModelOutput {
        let deg = inverse_in_degrees(g);
        let mut h = x;
        let mut params = Vec::new();
        let last = self.layers.len() - 1;
        for (i, (w, b)) in self.layers.iter().enumerate() {
            let wv = tape.param(w.clone());
            let bv = tape.param(b.clone());
            params.push(wv);
            params.push(bv);
            let agg = aggregate(tape, g, h);
            let norm = tape.scale_rows_const(agg, deg.clone());
            let proj = tape.matmul(norm, wv);
            h = tape.add_bias(proj, bv);
            if i != last {
                h = tape.relu(h);
            }
        }
        ModelOutput { logits: h, params }
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|(w, b)| [w, b])
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
    fn gcn_learns_homophilous_labels() {
        let lg = labeled_graph(&LabeledParams {
            num_vertices: 300,
            num_classes: 4,
            feature_dim: 16,
            homophily: 0.9,
            noise: 0.5,
            seed: 7,
            ..Default::default()
        });
        let feats = features_tensor(&lg.features, 300, 16);
        let mut model = Gcn::new(&[16, 32, 4], 1);
        let mut opt = Adam::new(0.01);
        let first_acc = accuracy(&model, &lg.graph, &feats, &lg.labels, &lg.test_idx);
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
        let final_acc = accuracy(&model, &lg.graph, &feats, &lg.labels, &lg.test_idx);
        assert!(
            losses[losses.len() - 1] < losses[0] * 0.7,
            "loss should drop: {losses:?}"
        );
        assert!(
            final_acc > first_acc && final_acc > 0.6,
            "accuracy {first_acc} -> {final_acc}"
        );
    }

    #[test]
    fn parameter_count() {
        let mut m = Gcn::new(&[8, 16, 4], 0);
        assert_eq!(m.num_parameters(), 8 * 16 + 16 + 16 * 4 + 4);
    }
}
