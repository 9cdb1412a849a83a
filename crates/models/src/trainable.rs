//! Trainable-model trait and training/evaluation loops.

use wisegraph_graph::Graph;
use wisegraph_tensor::{ops, Optimizer, Tape, Tensor, Var, Workspace};

/// What a forward pass returns: logits plus the tape handles of the
/// parameters, in the same order as [`GnnModel::params_mut`].
pub struct ModelOutput {
    /// `[V, num_classes]` logits.
    pub logits: Var,
    /// Parameter variables registered during this forward pass.
    pub params: Vec<Var>,
}

/// A GNN trainable with the autograd tape.
///
/// Invariant: the order of `params` in [`ModelOutput`] must match the order
/// of [`GnnModel::params_mut`] — optimizers key their state on slot order.
pub trait GnnModel {
    /// Human-readable model name.
    fn name(&self) -> &'static str;

    /// Runs a forward pass, registering parameters on the tape.
    fn forward(&self, tape: &Tape, g: &Graph, x: Var) -> ModelOutput;

    /// Mutable access to the parameter tensors (optimizer update targets).
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Total scalar parameter count.
    fn num_parameters(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.numel()).sum()
    }
}

/// `1 / max(in-degree, 1)` per vertex, as a `[|V|]` tensor: the row
/// scales that turn a sum aggregation into a mean (an isolated vertex's
/// zero sum stays zero).
pub(crate) fn inverse_in_degrees(g: &Graph) -> Tensor {
    let scales = g.in_degree().iter().map(|&d| 1.0 / (d.max(1) as f32));
    Tensor::from_vec(scales.collect(), &[g.num_vertices()])
}

/// Runs one full-graph training epoch; returns the training loss.
///
/// Allocating wrapper around [`train_epoch_ws`] — the epoch's tape storage
/// is dropped instead of recycled. Training loops should hold a
/// [`Workspace`] and call [`train_epoch_ws`] so epoch `n + 1` reuses epoch
/// `n`'s buffers.
///
/// # Panics
///
/// Panics if `train_idx` is empty or an index is out of bounds.
pub fn train_epoch(
    model: &mut dyn GnnModel,
    opt: &mut dyn Optimizer,
    g: &Graph,
    features: &Tensor,
    labels: &[u32],
    train_idx: &[u32],
) -> f32 {
    let mut ws = Workspace::new();
    train_epoch_ws(model, opt, g, features, labels, train_idx, &mut ws)
}

/// Runs one full-graph training epoch with tape storage drawn from (and
/// recycled into) `ws`; returns the training loss.
///
/// Numerically identical to [`train_epoch`]: pooled buffers are zero-filled
/// on checkout, so the tape computes the same values bit for bit.
///
/// # Panics
///
/// Panics if `train_idx` is empty or an index is out of bounds.
pub fn train_epoch_ws(
    model: &mut dyn GnnModel,
    opt: &mut dyn Optimizer,
    g: &Graph,
    features: &Tensor,
    labels: &[u32],
    train_idx: &[u32],
    ws: &mut Workspace,
) -> f32 {
    assert!(!train_idx.is_empty(), "empty training set");
    let tape = Tape::with_workspace(std::mem::take(ws));
    let x = tape.input(features.clone());
    let out = model.forward(&tape, g, x);
    let selected = tape.gather_rows(out.logits, train_idx.to_vec());
    let selected_labels: Vec<u32> = train_idx.iter().map(|&i| labels[i as usize]).collect();
    let loss = tape.cross_entropy(selected, selected_labels);
    tape.backward(loss);
    let grads: Vec<Tensor> = out
        .params
        .iter()
        .map(|&p| {
            tape.grad(p)
                .unwrap_or_else(|| Tensor::zeros(tape.value(p).dims()))
        })
        .collect();
    let mut params = model.params_mut();
    assert_eq!(
        params.len(),
        grads.len(),
        "params_mut / forward registration order mismatch"
    );
    let grad_refs: Vec<&Tensor> = grads.iter().collect();
    opt.step(&mut params, &grad_refs);
    let loss_value = tape.value(loss).item();
    *ws = tape.finish();
    loss_value
}

/// Classification accuracy over `idx` (fraction of correct argmax).
///
/// Allocating wrapper around [`accuracy_ws`].
pub fn accuracy(
    model: &dyn GnnModel,
    g: &Graph,
    features: &Tensor,
    labels: &[u32],
    idx: &[u32],
) -> f64 {
    let mut ws = Workspace::new();
    accuracy_ws(model, g, features, labels, idx, &mut ws)
}

/// Classification accuracy with the forward pass's tape storage drawn from
/// (and recycled into) `ws`.
pub fn accuracy_ws(
    model: &dyn GnnModel,
    g: &Graph,
    features: &Tensor,
    labels: &[u32],
    idx: &[u32],
    ws: &mut Workspace,
) -> f64 {
    let tape = Tape::with_workspace(std::mem::take(ws));
    let x = tape.input(features.clone());
    let out = model.forward(&tape, g, x);
    let logits = tape.value(out.logits);
    let pred = ops::argmax_rows(&logits);
    let correct = idx
        .iter()
        .filter(|&&i| pred[i as usize] == labels[i as usize])
        .count();
    *ws = tape.finish();
    correct as f64 / idx.len().max(1) as f64
}

/// Converts a labeled dataset's raw feature buffer into a tensor.
pub fn features_tensor(features: &[f32], num_vertices: usize, dim: usize) -> Tensor {
    Tensor::from_vec(features.to_vec(), &[num_vertices, dim])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gat, Gcn, Rgcn, Sage};
    use wisegraph_graph::generate::{labeled_graph, LabeledGraph, LabeledParams};
    use wisegraph_tensor::Adam;

    fn labeled() -> (LabeledGraph, Tensor) {
        let lg = labeled_graph(&LabeledParams {
            num_vertices: 300,
            num_classes: 4,
            feature_dim: 16,
            homophily: 0.9,
            noise: 0.5,
            num_edge_types: 3,
            seed: 7,
            ..Default::default()
        });
        let feats = features_tensor(&lg.features, 300, 16);
        (lg, feats)
    }

    fn models() -> [Box<dyn GnnModel>; 4] {
        [
            Box::new(Gcn::new(&[16, 32, 4], 1)),
            Box::new(Sage::new(&[16, 32, 4], 1)),
            Box::new(Gat::new(&[16, 32, 4], 1)),
            Box::new(Rgcn::new(&[16, 32, 4], 3, 1)),
        ]
    }

    /// Backward computes no gradient for the features, and that changes no
    /// parameter's: one epoch's parameter gradients are bit-identical
    /// whether the features are recorded as an input (pruned) or as a
    /// parameter (every node differentiated).
    #[test]
    fn parameter_gradients_do_not_depend_on_pruning() {
        let (lg, feats) = labeled();
        let labels: Vec<u32> = lg.train_idx.iter().map(|&i| lg.labels[i as usize]).collect();
        for model in models() {
            let grads = |features_are_params: bool| {
                let tape = Tape::new();
                let x = if features_are_params {
                    tape.param(feats.clone())
                } else {
                    tape.input(feats.clone())
                };
                let out = model.forward(&tape, &lg.graph, x);
                let selected = tape.gather_rows(out.logits, lg.train_idx.clone());
                tape.backward(tape.cross_entropy(selected, labels.clone()));
                assert_eq!(tape.grad(x).is_some(), features_are_params);
                out.params
                    .iter()
                    .map(|&p| {
                        let g = tape.grad(p).expect("every parameter reaches the loss");
                        g.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
                    })
                    .collect::<Vec<_>>()
            };
            assert!(grads(false) == grads(true), "{}", model.name());
        }
    }

    /// An aggregation of the features runs no backward, since nothing
    /// reads their gradient. A two-layer GCN epoch opens one
    /// `train.aggregate.backward`, SAGE one, RGCN one (its typed pass
    /// covers every edge type); GAT aggregates `x · W`, which needs a
    /// gradient, in both layers.
    #[test]
    fn aggregations_of_the_features_run_no_backward() {
        let (lg, feats) = labeled();
        let g = &lg.graph;
        for (mut model, want) in models().into_iter().zip([1, 1, 2, 1]) {
            let (mut opt, m) = (Adam::new(0.01), model.as_mut());
            let (_, trace) = wisegraph_obs::capture(|| {
                train_epoch(m, &mut opt, g, &feats, &lg.labels, &lg.train_idx)
            });
            let backward = trace.span_count("train.aggregate.backward");
            assert_eq!(backward, want, "{}", model.name());
        }
    }

    /// Three epochs of every model on one typed labeled graph, against the
    /// losses of the tensor-centric implementation (an `[E, F]` gather,
    /// then a scatter-add, on the tape). GCN, SAGE and GAT sum each
    /// aggregation in the same order on the engine, so their bits are
    /// kept. RGCN now aggregates before it projects, which reassociates its
    /// sums: its losses agree to a relative 1e-5.
    #[test]
    fn losses_match_the_tensor_centric_path() {
        let (lg, feats) = labeled();
        let losses = [
            [0x3fbe6d9a, 0x3fa6c200, 0x3f913d08],
            [0x40159445, 0x3fd9f9c9, 0x3f9681f9],
            [0x3fa9914d, 0x3f941f3f, 0x3f813e11],
            [0x3fa71a4e, 0x3f774e08, 0x3f37d371],
        ];
        let (g, labels, idx) = (&lg.graph, &lg.labels, &lg.train_idx);
        for (mut model, want) in models().into_iter().zip(losses) {
            let (mut opt, mut ws) = (Adam::new(0.01), Workspace::new());
            for (epoch, want) in want.map(f32::from_bits).into_iter().enumerate() {
                let m = model.as_mut();
                let got = train_epoch_ws(m, &mut opt, g, &feats, labels, idx, &mut ws);
                let ctx = format!("{} epoch {epoch}: {got} vs {want}", model.name());
                if model.name() == "RGCN" {
                    assert!((got - want).abs() <= 1e-5 * want.abs(), "{ctx}");
                } else {
                    assert_eq!(got.to_bits(), want.to_bits(), "{ctx}");
                }
            }
        }
    }
}
