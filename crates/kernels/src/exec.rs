//! A hand-written RGCN layer in the edge-by-edge style of Figure 10b: the
//! numeric oracle for RGCN that shares no code with the micro-kernel IR,
//! its compiler or the engine.

use wisegraph_graph::Graph;
use wisegraph_tensor::Tensor;

/// RGCN message-passing, edge by edge (Figure 10b):
/// `out[dst] += h[src] @ W[type]` with one vector–matrix product per edge.
///
/// # Panics
///
/// Panics if `h` is not `[V, F]` or `w` is not `[T, F, F']`.
pub fn rgcn_edge_by_edge(g: &Graph, h: &Tensor, w: &Tensor) -> Tensor {
    let (v, f) = (h.dims()[0], h.dims()[1]);
    assert_eq!(v, g.num_vertices(), "h rows must equal |V|");
    assert_eq!(w.dims()[0], g.num_edge_types(), "w leading dim must be T");
    assert_eq!(w.dims()[1], f, "w inner dim must equal F");
    let fo = w.dims()[2];
    let mut out = vec![0.0f32; v * fo];
    for e in 0..g.num_edges() {
        let (s, d, t) = (
            g.src()[e] as usize,
            g.dst()[e] as usize,
            g.etype()[e] as usize,
        );
        let hrow = &h.data()[s * f..(s + 1) * f];
        for (k, &hv) in hrow.iter().enumerate() {
            if hv == 0.0 {
                continue;
            }
            let wrow = &w.data()[(t * f + k) * fo..(t * f + k + 1) * fo];
            let orow = &mut out[d * fo..(d + 1) * fo];
            for (o, &wv) in orow.iter_mut().zip(wrow) {
                *o += hv * wv;
            }
        }
    }
    Tensor::from_vec(out, &[v, fo])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use std::collections::HashMap;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_gtask::{partition, PartitionTable};
    use wisegraph_models::ModelKind;
    use wisegraph_tensor::init;

    #[test]
    fn edge_by_edge_rgcn_matches_the_engine() {
        for seed in [1u64, 2, 3] {
            let g = rmat(&RmatParams::standard(80, 600, seed).with_edge_types(3));
            let (fi, fo) = (6, 4);
            let h = init::uniform_tensor(&[g.num_vertices(), fi], -0.5, 0.5, seed + 10);
            let w = init::uniform_tensor(&[g.num_edge_types(), fi, fo], -0.5, 0.5, seed + 20);
            let oracle = rgcn_edge_by_edge(&g, &h, &w);
            let globals = HashMap::from([("h".to_string(), h), ("W".to_string(), w)]);
            let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
            let got = Engine::new(2)
                .execute(&ModelKind::Rgcn.layer_dfg(fi, fo), &g, &plan, &globals)
                .unwrap();
            assert!(
                oracle.allclose(&got[0], 1e-4),
                "seed {seed}: diff {}",
                oracle.max_abs_diff(&got[0])
            );
        }
    }
}
