//! Full-graph training driver for the accuracy experiments (Figure 14).
//!
//! WiseGraph's optimizations re-partition work but compute numerically
//! equivalent results (the DFG transformations are equivalence-preserving,
//! §5.2), so its training curves match the baseline's. This driver trains
//! the real models and records per-epoch loss and test accuracy.

use wisegraph_graph::generate::LabeledGraph;
use wisegraph_models::{accuracy_ws, features_tensor, train_epoch_ws, GnnModel};
use wisegraph_tensor::{Adam, Tensor, Workspace};

/// Per-epoch training statistics.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Training loss.
    pub loss: f32,
    /// Test accuracy.
    pub test_accuracy: f64,
}

/// Trains a model on a labeled graph for `epochs`, recording stats.
///
/// Tape storage is pooled in a [`Workspace`] that persists across epochs,
/// so epoch `n + 1`'s forward/backward passes reuse epoch `n`'s buffers.
/// Call [`train_full_graph_ws`] to keep the pool (and read its counters)
/// across runs.
pub fn train_full_graph(
    model: &mut dyn GnnModel,
    data: &LabeledGraph,
    epochs: usize,
    lr: f32,
) -> Vec<EpochStats> {
    let mut ws = Workspace::new();
    train_full_graph_ws(model, data, epochs, lr, &mut ws)
}

/// [`train_full_graph`] with a caller-owned buffer pool.
///
/// `ws.stats()` after the call reports buffers created vs. reused and the
/// peak resident bytes of the pool — in steady state every epoch past the
/// first should be served (almost) entirely from recycled buffers.
pub fn train_full_graph_ws(
    model: &mut dyn GnnModel,
    data: &LabeledGraph,
    epochs: usize,
    lr: f32,
    ws: &mut Workspace,
) -> Vec<EpochStats> {
    let _sp = wisegraph_obs::span!("train.full_graph", epochs = epochs);
    let feats = features_tensor(
        &data.features,
        data.graph.num_vertices(),
        data.feature_dim,
    );
    let mut opt = Adam::new(lr);
    (0..epochs)
        .map(|epoch| {
            let _esp = wisegraph_obs::span!("train.epoch", epoch = epoch);
            let loss = train_epoch_ws(
                model,
                &mut opt,
                &data.graph,
                &feats,
                &data.labels,
                &data.train_idx,
                ws,
            );
            let test_accuracy = accuracy_ws(
                model,
                &data.graph,
                &feats,
                &data.labels,
                &data.test_idx,
                ws,
            );
            EpochStats {
                epoch,
                loss,
                test_accuracy,
            }
        })
        .collect()
}

/// Final test accuracy after training (convenience for Figure 14a).
pub fn final_accuracy(
    model: &mut dyn GnnModel,
    data: &LabeledGraph,
    epochs: usize,
    lr: f32,
) -> f64 {
    train_full_graph(model, data, epochs, lr)
        .last()
        .map(|s| s.test_accuracy)
        .unwrap_or(0.0)
}

/// The features tensor of a labeled graph (re-exported helper).
pub fn features_of(data: &LabeledGraph) -> Tensor {
    features_tensor(
        &data.features,
        data.graph.num_vertices(),
        data.feature_dim,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{labeled_graph, LabeledParams};
    use wisegraph_models::{Gat, Gcn, Rgcn, Sage};

    fn dataset() -> LabeledGraph {
        labeled_graph(&LabeledParams {
            num_vertices: 300,
            num_classes: 4,
            feature_dim: 16,
            homophily: 0.9,
            noise: 0.5,
            seed: 77,
            ..Default::default()
        })
    }

    #[test]
    fn training_curves_improve() {
        let data = dataset();
        let mut model = Sage::new(&[16, 32, 4], 1);
        let stats = train_full_graph(&mut model, &data, 25, 0.01);
        assert_eq!(stats.len(), 25);
        assert!(stats[24].loss < stats[0].loss * 0.8);
        assert!(stats[24].test_accuracy > stats[0].test_accuracy);
    }

    /// Every model's warm epochs draw each buffer from the pool, the
    /// aggregations' values, `dh` and `dα` included: after one warm-up
    /// epoch fills the pool with every shape the loop needs, three more
    /// epochs create no buffer.
    #[test]
    fn workspace_recycles_across_training_epochs() {
        use wisegraph_obs::{keys, pool_reuse_ratio};
        let data = dataset();
        for mut model in every_model(&data) {
            let mut ws = Workspace::new();
            train_full_graph_ws(model.as_mut(), &data, 1, 0.01, &mut ws);
            let warm = ws.stats();
            train_full_graph_ws(model.as_mut(), &data, 3, 0.01, &mut ws);
            let after = ws.stats();
            let name = model.name();
            assert!(
                after.count(keys::POOL_REUSED) > warm.count(keys::POOL_REUSED),
                "{name}: later epochs must draw from the pool"
            );
            assert_eq!(
                after.count(keys::POOL_CREATED),
                warm.count(keys::POOL_CREATED),
                "{name}: steady-state epochs must not allocate new buffers"
            );
            assert!(after.count(keys::POOL_PEAK) > 0);
            let ratio = pool_reuse_ratio(&after);
            assert!(ratio > 0.5, "{name}: ratio {ratio}");
        }
    }

    fn every_model(data: &LabeledGraph) -> Vec<Box<dyn GnnModel>> {
        let types = data.graph.num_edge_types();
        vec![
            Box::new(Gcn::new(&[16, 32, 4], 5)),
            Box::new(Sage::new(&[16, 32, 4], 5)),
            Box::new(Gat::new(&[16, 32, 4], 5)),
            Box::new(Rgcn::new(&[16, 32, 4], types, 5)),
        ]
    }

    #[test]
    fn pool_peak_is_reached_in_the_first_epoch() {
        use wisegraph_obs::keys;
        let data = dataset();
        for mut model in every_model(&data) {
            let mut ws = Workspace::new();
            train_full_graph_ws(model.as_mut(), &data, 1, 0.01, &mut ws);
            let first = ws.stats().count(keys::POOL_PEAK);
            train_full_graph_ws(model.as_mut(), &data, 2, 0.01, &mut ws);
            assert_eq!(ws.stats().count(keys::POOL_PEAK), first, "{}", model.name());
        }
    }

    #[test]
    fn no_training_buffer_has_a_row_per_edge() {
        use wisegraph_obs::keys;
        let data = dataset();
        let (v, e) = (data.graph.num_vertices(), data.graph.num_edges());
        let class = |n: usize| n.next_power_of_two().trailing_zeros() as usize;
        // The size classes an `[E, F]` gather at the aggregated widths
        // would occupy; every `[V, F']` tensor of the models is smaller.
        let edge_rowed = [class(e * 16), class(e * 32)];
        assert!(class(v * 32) < edge_rowed[0]);
        for mut model in every_model(&data) {
            let mut ws = Workspace::new();
            train_full_graph_ws(model.as_mut(), &data, 2, 0.01, &mut ws);
            let peaks = edge_rowed.map(|c| ws.stats().count(&keys::pool_class_peak(c)));
            assert_eq!(peaks, [0, 0], "{}", model.name());
        }
    }

    #[test]
    fn workspace_training_is_bit_identical_to_allocating() {
        let data = dataset();
        // Same seed → same initial parameters for both runs.
        let mut a = Sage::new(&[16, 32, 4], 9);
        let mut b = Sage::new(&[16, 32, 4], 9);
        let alloc = train_full_graph(&mut a, &data, 3, 0.01);
        let mut ws = Workspace::new();
        let pooled = train_full_graph_ws(&mut b, &data, 3, 0.01, &mut ws);
        for (x, y) in alloc.iter().zip(pooled.iter()) {
            assert_eq!(x.loss.to_bits(), y.loss.to_bits(), "epoch {}", x.epoch);
            assert_eq!(x.test_accuracy, y.test_accuracy);
        }
    }

    #[test]
    fn gat_and_sage_reach_similar_accuracy() {
        // Figure 14a: both models land within a few points of each other
        // on the same data (and of the DGL-style baseline — which is the
        // same numeric computation).
        let data = dataset();
        let mut sage = Sage::new(&[16, 32, 4], 2);
        let mut gat = Gat::new(&[16, 32, 4], 3);
        let a_sage = final_accuracy(&mut sage, &data, 30, 0.01);
        let a_gat = final_accuracy(&mut gat, &data, 30, 0.01);
        assert!(a_sage > 0.6 && a_gat > 0.6, "sage {a_sage}, gat {a_gat}");
        assert!((a_sage - a_gat).abs() < 0.25);
    }
}
