//! DFG transformation rules (paper §5.2) and the workload-guided search.
//!
//! Two equivalence-preserving rules:
//!
//! 1. **Unique value extraction** (Figure 8a): `data[attr]` becomes
//!    `data[attr_unique][attr_map]`, materializing the deduplicated values
//!    on the DFG so later rules can hoist computation onto them.
//! 2. **Indexing swapping** (Figure 8b): `OP(B[idx])` becomes `OP(B)[idx]`
//!    when `OP` is invariant to the indexed dimension; when `OP` consumes
//!    two indexed inputs (`A[B] ⊗ C[D]`), the indexes merge into a 2-D one:
//!    `(A ⊗ C)[B, D]` (the RGCN case of Figure 9).
//!
//! [`optimize`] applies the rules in topological order to a fixpoint and
//! keeps whichever candidate has the least workload under a binding.

use crate::analysis::{indexing_attrs, workload, Workload};
use crate::dim::Binding;
use crate::graph::{Dfg, NodeId};
use crate::op::OpKind;
use wisegraph_graph::AttrKind;

/// Applies unique value extraction for `attr` wherever an `Index` consumes
/// the raw `EdgeAttr(attr)` stream. Returns `None` if nothing matched.
pub fn extract_unique(dfg: &Dfg, attr: AttrKind) -> Option<Dfg> {
    let mut new = Dfg::new();
    let mut id_map: Vec<NodeId> = Vec::with_capacity(dfg.len());
    let mut uniq_node: Option<NodeId> = None;
    let mut map_node: Option<NodeId> = None;
    let mut applied = false;
    for node in dfg.nodes() {
        let new_id = if node.kind == OpKind::Index
            && matches!(dfg.node(node.inputs[1]).kind, OpKind::EdgeAttr(a) if a == attr)
        {
            let data = id_map[node.inputs[0].0];
            let u = match uniq_node {
                Some(u) => u,
                None => {
                    let u = new.add_node(OpKind::UniqueValues(attr), vec![]);
                    uniq_node = Some(u);
                    u
                }
            };
            let m = match map_node {
                Some(m) => m,
                None => {
                    let m = new.add_node(OpKind::UniqueMap(attr), vec![]);
                    map_node = Some(m);
                    m
                }
            };
            applied = true;
            let inner = new.index(data, u);
            new.index(inner, m)
        } else {
            let inputs = node.inputs.iter().map(|&p| id_map[p.0]).collect();
            new.add_node(node.kind.clone(), inputs)
        };
        id_map.push(new_id);
    }
    for &o in dfg.outputs() {
        new.mark_output(id_map[o.0]);
    }
    applied.then_some(new)
}

/// Returns `true` if the node produces an index stream suitable as the map
/// of an indexing-swap (any rank-1 index stream: a raw `EdgeAttr`, a
/// `UniqueMap`, or a derived stream).
fn is_stream(dfg: &Dfg, id: NodeId) -> bool {
    let n = dfg.node(id);
    n.kind.is_index_stream()
        || (n.kind == OpKind::Index && is_stream(dfg, n.inputs[0]))
}

/// Applies one indexing swap, if any site matches. Returns `None` at
/// fixpoint.
///
/// Recognized sites (scanned in topological order):
///
/// - `Relu/LeakyRelu(Index(x, m))` → `Index(OP(x), m)`
/// - `Linear(Index(x, m), w)` with un-indexed `w` → `Index(Linear(x, w), m)`
/// - `PerEdgeLinear(Index(x, m1), Index(w, m2))` →
///   `Index2D(PairwiseLinear(x, w), m1, m2)`
pub fn swap_indexing_once(dfg: &Dfg) -> Option<Dfg> {
    for (i, node) in dfg.nodes().iter().enumerate() {
        let rewrite = match &node.kind {
            OpKind::Relu | OpKind::LeakyRelu => {
                let inp = dfg.node(node.inputs[0]);
                if inp.kind == OpKind::Index && !dfg.node(inp.inputs[0]).kind.is_index_stream()
                {
                    Some(Rewrite::Unary {
                        site: NodeId(i),
                        op: node.kind.clone(),
                        x: inp.inputs[0],
                        map: inp.inputs[1],
                    })
                } else {
                    None
                }
            }
            OpKind::Linear => {
                let x_in = dfg.node(node.inputs[0]);
                if x_in.kind == OpKind::Index
                    && !dfg.node(x_in.inputs[0]).kind.is_index_stream()
                {
                    Some(Rewrite::LinearLeft {
                        site: NodeId(i),
                        x: x_in.inputs[0],
                        map: x_in.inputs[1],
                        w: node.inputs[1],
                    })
                } else {
                    None
                }
            }
            OpKind::PerEdgeLinear => {
                let a_in = dfg.node(node.inputs[0]);
                let b_in = dfg.node(node.inputs[1]);
                if a_in.kind == OpKind::Index
                    && b_in.kind == OpKind::Index
                    && !dfg.node(a_in.inputs[0]).kind.is_index_stream()
                    && !dfg.node(b_in.inputs[0]).kind.is_index_stream()
                    && is_stream(dfg, a_in.inputs[1])
                    && is_stream(dfg, b_in.inputs[1])
                {
                    Some(Rewrite::PairwiseMerge {
                        site: NodeId(i),
                        a: a_in.inputs[0],
                        ma: a_in.inputs[1],
                        b: b_in.inputs[0],
                        mb: b_in.inputs[1],
                    })
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(rw) = rewrite {
            return Some(apply_rewrite(dfg, rw));
        }
    }
    None
}

enum Rewrite {
    Unary {
        site: NodeId,
        op: OpKind,
        x: NodeId,
        map: NodeId,
    },
    LinearLeft {
        site: NodeId,
        x: NodeId,
        map: NodeId,
        w: NodeId,
    },
    PairwiseMerge {
        site: NodeId,
        a: NodeId,
        ma: NodeId,
        b: NodeId,
        mb: NodeId,
    },
}

fn apply_rewrite(dfg: &Dfg, rw: Rewrite) -> Dfg {
    let mut new = Dfg::new();
    let mut id_map: Vec<NodeId> = Vec::with_capacity(dfg.len());
    let site = match rw {
        Rewrite::Unary { site, .. }
        | Rewrite::LinearLeft { site, .. }
        | Rewrite::PairwiseMerge { site, .. } => site,
    };
    for (i, node) in dfg.nodes().iter().enumerate() {
        let new_id = if NodeId(i) == site {
            match &rw {
                Rewrite::Unary { op, x, map, .. } => {
                    let inner = new.add_node(op.clone(), vec![id_map[x.0]]);
                    new.index(inner, id_map[map.0])
                }
                Rewrite::LinearLeft { x, map, w, .. } => {
                    let inner = new.linear(id_map[x.0], id_map[w.0]);
                    new.index(inner, id_map[map.0])
                }
                Rewrite::PairwiseMerge { a, ma, b, mb, .. } => {
                    let pair = new.pairwise_linear(id_map[a.0], id_map[b.0]);
                    new.index2d(pair, id_map[ma.0], id_map[mb.0])
                }
            }
        } else {
            let inputs = node.inputs.iter().map(|&p| id_map[p.0]).collect();
            new.add_node(node.kind.clone(), inputs)
        };
        id_map.push(new_id);
    }
    for &o in dfg.outputs() {
        new.mark_output(id_map[o.0]);
    }
    new
}

/// Applies indexing swaps until fixpoint (bounded to guard against cycles).
pub fn swap_indexing_fixpoint(dfg: &Dfg) -> Dfg {
    let mut current = dfg.clone();
    for _ in 0..64 {
        match swap_indexing_once(&current) {
            Some(next) => current = next,
            None => break,
        }
    }
    current
}

/// Scalar cost used to rank candidate DFGs: FLOPs plus bytes, the two
/// workload components the transformations trade against each other. (The
/// full device-aware cost lives in `wisegraph-sim`; this ranking only needs
/// monotonicity in both.)
fn transform_cost(w: &Workload) -> f64 {
    w.flops() + w.bytes()
}

/// The candidate DFGs the transformation search considers: the original,
/// the swap-only variant, and extraction(+swap) variants for each indexing
/// attribute with duplication under `binding`.
pub fn candidates(dfg: &Dfg, binding: &Binding) -> Vec<Dfg> {
    let mut cands = vec![dfg.clone(), swap_indexing_fixpoint(dfg)];
    let mut extracted = dfg.clone();
    let mut any = false;
    for attr in indexing_attrs(dfg) {
        let uniq = binding.unique.get(&attr).copied().unwrap_or(usize::MAX);
        if uniq < binding.edges {
            if let Some(next) = extract_unique(&extracted, attr) {
                extracted = next;
                any = true;
            }
        }
    }
    if any {
        cands.push(extracted.clone());
        cands.push(swap_indexing_fixpoint(&extracted));
    }
    cands
}

/// Picks the least-workload equivalent DFG under `binding`.
pub fn optimize(dfg: &Dfg, binding: &Binding) -> (Dfg, Workload) {
    candidates(dfg, binding)
        .into_iter()
        .map(|d| {
            let w = workload(&d, binding);
            (d, w)
        })
        .min_by(|a, b| {
            transform_cost(&a.1)
                .partial_cmp(&transform_cost(&b.1))
                .expect("workload is finite")
        })
        .expect("at least the original candidate exists")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Dim;
    use crate::interp::execute;
    use std::collections::HashMap;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_graph::Graph;
    use wisegraph_tensor::Tensor;

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        let n: usize = dims.iter().product();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let data = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / u32::MAX as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(data, dims)
    }

    fn rgcn_dfg(f_in: usize, f_out: usize) -> Dfg {
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(f_in)]);
        let w = d.input(
            "W",
            vec![Dim::EdgeTypes, Dim::Lit(f_in), Dim::Lit(f_out)],
        );
        let src = d.edge_attr(AttrKind::SrcId);
        let ty = d.edge_attr(AttrKind::EdgeType);
        let dst = d.edge_attr(AttrKind::DstId);
        let hsrc = d.index(h, src);
        let wt = d.index(w, ty);
        let msg = d.per_edge_linear(hsrc, wt);
        let out = d.index_add(msg, dst, Dim::Vertices);
        d.mark_output(out);
        d
    }

    fn rgcn_inputs(g: &Graph, f_in: usize, f_out: usize) -> HashMap<String, Tensor> {
        let mut inputs = HashMap::new();
        inputs.insert("h".into(), rand_tensor(&[g.num_vertices(), f_in], 11));
        inputs.insert(
            "W".into(),
            rand_tensor(&[g.num_edge_types(), f_in, f_out], 12),
        );
        inputs
    }

    #[test]
    fn extraction_preserves_semantics() {
        let g = rmat(&RmatParams::standard(60, 400, 21).with_edge_types(3));
        let d = rgcn_dfg(4, 3);
        let e1 = extract_unique(&d, AttrKind::SrcId).expect("applies");
        let e2 = extract_unique(&e1, AttrKind::EdgeType).expect("applies");
        let inputs = rgcn_inputs(&g, 4, 3);
        let a = &execute(&d, &g, &inputs).unwrap()[0];
        let b = &execute(&e2, &g, &inputs).unwrap()[0];
        assert!(a.allclose(b, 1e-4), "diff {}", a.max_abs_diff(b));
    }

    #[test]
    fn extraction_is_none_when_no_site() {
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(4)]);
        d.mark_output(h);
        assert!(extract_unique(&d, AttrKind::SrcId).is_none());
    }

    #[test]
    fn full_rgcn_transformation_matches_figure9() {
        // Extraction + swaps should end with PairwiseLinear + Index2D.
        let d = rgcn_dfg(4, 3);
        let e1 = extract_unique(&d, AttrKind::SrcId).unwrap();
        let e2 = extract_unique(&e1, AttrKind::EdgeType).unwrap();
        let t = swap_indexing_fixpoint(&e2);
        let has_pairwise = t
            .nodes()
            .iter()
            .any(|n| n.kind == OpKind::PairwiseLinear);
        let has_index2d = t.nodes().iter().any(|n| n.kind == OpKind::Index2D);
        assert!(has_pairwise && has_index2d, "{t:?}");
        // No PerEdgeLinear remains live.
        let live = t.live_set();
        let live_per_edge = t
            .nodes()
            .iter()
            .enumerate()
            .any(|(i, n)| live[i] && n.kind == OpKind::PerEdgeLinear);
        assert!(!live_per_edge);
    }

    #[test]
    fn transformed_rgcn_equivalent_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let g = rmat(&RmatParams::standard(40, 300, seed).with_edge_types(4));
            let d = rgcn_dfg(5, 4);
            let b = Binding::from_graph(&g);
            let (opt, _) = optimize(&d, &b);
            let inputs = rgcn_inputs(&g, 5, 4);
            let a = &execute(&d, &g, &inputs).unwrap()[0];
            let o = &execute(&opt, &g, &inputs).unwrap()[0];
            assert!(a.allclose(o, 1e-3), "seed {seed}: diff {}", a.max_abs_diff(o));
        }
    }

    #[test]
    fn optimize_reduces_workload_for_duplicated_rgcn() {
        // A graph with heavy src duplication: few vertices, many edges.
        let g = rmat(&RmatParams::standard(32, 2000, 5).with_edge_types(2));
        let d = rgcn_dfg(16, 16);
        let b = Binding::from_graph(&g);
        let base = workload(&d, &b);
        let (_, opt) = optimize(&d, &b);
        assert!(
            transform_cost(&opt) < transform_cost(&base) / 4.0,
            "expected ≥4× workload reduction: base {} opt {}",
            transform_cost(&base),
            transform_cost(&opt)
        );
        // The neural-FLOP reduction is the Figure 17 effect.
        assert!(opt.neural_flops < base.neural_flops / 4.0);
    }

    #[test]
    fn linear_hoisting_swap() {
        // GAT-like: Linear(Index(h, src), w) → Index(Linear(h, w), src).
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(6)]);
        let w = d.input("w", vec![Dim::Lit(6), Dim::Lit(2)]);
        let src = d.edge_attr(AttrKind::SrcId);
        let hsrc = d.index(h, src);
        let proj = d.linear(hsrc, w);
        d.mark_output(proj);

        let swapped = swap_indexing_once(&d).expect("swap applies");
        // After the swap the Linear runs on |V| rows, not |E|.
        let lin = swapped
            .nodes()
            .iter()
            .find(|n| n.kind == OpKind::Linear)
            .unwrap();
        assert_eq!(lin.shape[0], Dim::Vertices);

        let g = rmat(&RmatParams::standard(30, 200, 9));
        let mut inputs = HashMap::new();
        inputs.insert("h".into(), rand_tensor(&[30, 6], 31));
        inputs.insert("w".into(), rand_tensor(&[6, 2], 32));
        let a = &execute(&d, &g, &inputs).unwrap()[0];
        let b = &execute(&swapped, &g, &inputs).unwrap()[0];
        assert!(a.allclose(b, 1e-4));
    }

    #[test]
    fn unary_swap_preserves_relu() {
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(4)]);
        let src = d.edge_attr(AttrKind::SrcId);
        let hsrc = d.index(h, src);
        let act = d.leaky_relu(hsrc);
        d.mark_output(act);
        let swapped = swap_indexing_fixpoint(&d);
        let g = rmat(&RmatParams::standard(25, 150, 17));
        let mut inputs = HashMap::new();
        inputs.insert("h".into(), rand_tensor(&[25, 4], 41));
        let a = &execute(&d, &g, &inputs).unwrap()[0];
        let b = &execute(&swapped, &g, &inputs).unwrap()[0];
        assert!(a.allclose(b, 1e-5));
    }

    #[test]
    fn optimize_keeps_original_when_no_duplication_helps() {
        // GCN (no per-edge weights): candidates should not regress.
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(8)]);
        let w = d.input("w", vec![Dim::Lit(8), Dim::Lit(8)]);
        let src = d.edge_attr(AttrKind::SrcId);
        let dst = d.edge_attr(AttrKind::DstId);
        let hsrc = d.index(h, src);
        let agg = d.index_add(hsrc, dst, Dim::Vertices);
        let norm = d.scale_by_degree_inv(agg);
        let out = d.linear(norm, w);
        d.mark_output(out);

        let g = rmat(&RmatParams::standard(64, 512, 3));
        let b = Binding::from_graph(&g);
        let base_cost = transform_cost(&workload(&d, &b));
        let (_, opt) = optimize(&d, &b);
        assert!(transform_cost(&opt) <= base_cost);
    }
}
