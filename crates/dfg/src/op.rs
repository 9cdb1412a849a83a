//! The operation vocabulary of the DFG.
//!
//! Operations split into *indexing operations* (move data along graph
//! structure: `Index`, `Index2D`, `IndexAdd`) and *neural operations*
//! (dense computation: `Linear`, `PerEdgeLinear`, `LstmAggregate`, …) —
//! paper §2.1. Each op knows its shape inference rule and its FLOP /
//! memory-traffic cost, which the cost model (§6.3) aggregates.

use crate::dim::{Binding, Dim, SymShape};
use wisegraph_graph::AttrKind;

/// Negative slope used by `LeakyRelu` (GAT's standard value).
pub const LEAKY_SLOPE: f32 = 0.2;

/// A DFG operation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A dense input tensor (vertex embeddings, weights, biases).
    Input {
        /// Human-readable name ("h", "W", …).
        name: String,
        /// Symbolic shape.
        shape: SymShape,
    },
    /// An edge-attribute vector (one value per edge): the index streams that
    /// drive indexing operations.
    EdgeAttr(AttrKind),
    /// The deduplicated values of an edge attribute (`src-id_unique`),
    /// introduced by the unique-value-extraction transformation (§5.2).
    UniqueValues(AttrKind),
    /// The map from each edge to its position in the unique list
    /// (`src-id_map`), paired with [`OpKind::UniqueValues`].
    UniqueMap(AttrKind),
    /// Gather along the first dimension: `out[i] = data[idx[i]]`.
    Index,
    /// Gather along the first two dimensions:
    /// `out[i] = data[idx1[i], idx2[i]]`.
    Index2D,
    /// Scatter-add along the first dimension into `out` rows:
    /// `out[idx[i]] += data[i]`.
    IndexAdd {
        /// Extent of the output's first dimension.
        out: Dim,
    },
    /// Dense matrix product `x @ W` with a shared weight.
    Linear,
    /// Row-wise vector–matrix product with a *per-row* weight:
    /// `out[i] = x[i] @ w[i]` (RGCN's edge-wise MLP before transformation).
    PerEdgeLinear,
    /// All-pairs product `out[u, t] = x[u] @ w[t]`, produced by indexing
    /// swapping with Index-2D merging: `A[B] ⊗ C[D] = (A ⊗ C)[B, D]`.
    PairwiseLinear,
    /// LSTM sequence aggregation of in-neighbor messages per destination
    /// vertex (SAGE-LSTM). Inputs: `(x[E,F], dst[E], wx[F,4H], wh[H,4H],
    /// b[4H])`; output `[V, H]`.
    LstmAggregate {
        /// LSTM hidden width `H`.
        hidden: usize,
    },
    /// Element-wise addition of two same-shaped tensors.
    Add,
    /// Element-wise multiplication of two same-shaped tensors.
    Mul,
    /// Rectified linear unit.
    Relu,
    /// Leaky ReLU with slope [`LEAKY_SLOPE`].
    LeakyRelu,
    /// Divides each row `v` of a `[V, F]` tensor by `max(1, in-degree(v))`
    /// (mean aggregation / GCN normalization).
    ScaleByDegreeInv,
    /// Softmax over edges grouped by a segment id stream (GAT attention
    /// normalization). Inputs: `(scores[E], seg[E])`.
    SegmentSoftmax,
    /// Scales row `i` of `x` by scalar `s[i]`. Inputs: `(x[N,F], s[N])`.
    ScaleRowsByScalar,
    /// Concatenates two `[N, ·]` tensors along the column dimension.
    ConcatCols,
    /// Drops a trailing singleton column: `[N, 1]` → `[N]`.
    SqueezeCol,
    /// Adds a trailing singleton column: `[N]` → `[N, 1]`.
    UnsqueezeCol,
}

impl OpKind {
    /// Returns `true` for data-movement (indexing) operations.
    pub fn is_indexing(&self) -> bool {
        matches!(
            self,
            OpKind::EdgeAttr(_)
                | OpKind::UniqueValues(_)
                | OpKind::UniqueMap(_)
                | OpKind::Index
                | OpKind::Index2D
                | OpKind::IndexAdd { .. }
        )
    }

    /// Returns `true` for dense neural operations.
    pub fn is_neural(&self) -> bool {
        matches!(
            self,
            OpKind::Linear
                | OpKind::PerEdgeLinear
                | OpKind::PairwiseLinear
                | OpKind::LstmAggregate { .. }
                | OpKind::Add
                | OpKind::Mul
                | OpKind::Relu
                | OpKind::LeakyRelu
                | OpKind::ScaleByDegreeInv
                | OpKind::SegmentSoftmax
                | OpKind::ScaleRowsByScalar
                | OpKind::ConcatCols
                | OpKind::SqueezeCol
                | OpKind::UnsqueezeCol
        )
    }

    /// Returns `true` if this op produces an index stream rather than a
    /// dense tensor.
    pub fn is_index_stream(&self) -> bool {
        matches!(
            self,
            OpKind::EdgeAttr(_) | OpKind::UniqueValues(_) | OpKind::UniqueMap(_)
        )
    }

    /// Infers the output shape from input shapes.
    ///
    /// # Errors
    ///
    /// Returns a description of the mismatch if the inputs are not valid for
    /// this operation.
    pub fn output_shape(&self, inputs: &[SymShape]) -> Result<SymShape, String> {
        let need = |n: usize| -> Result<(), String> {
            if inputs.len() == n {
                Ok(())
            } else {
                Err(format!(
                    "{self:?} expects {n} inputs, got {}",
                    inputs.len()
                ))
            }
        };
        match self {
            OpKind::Input { shape, .. } => {
                need(0)?;
                Ok(shape.clone())
            }
            OpKind::EdgeAttr(_) | OpKind::UniqueMap(_) => {
                need(0)?;
                Ok(vec![Dim::Edges])
            }
            OpKind::UniqueValues(a) => {
                need(0)?;
                Ok(vec![Dim::Unique(*a)])
            }
            OpKind::Index => {
                need(2)?;
                let data = &inputs[0];
                let idx = &inputs[1];
                if data.is_empty() {
                    return Err("Index data must have rank >= 1".into());
                }
                if idx.len() != 1 {
                    return Err("Index idx must be rank-1".into());
                }
                let mut out = vec![idx[0]];
                out.extend_from_slice(&data[1..]);
                Ok(out)
            }
            OpKind::Index2D => {
                need(3)?;
                let data = &inputs[0];
                if data.len() < 2 {
                    return Err("Index2D data must have rank >= 2".into());
                }
                if inputs[1].len() != 1 || inputs[2].len() != 1 || inputs[1][0] != inputs[2][0] {
                    return Err("Index2D index streams must be rank-1 and same length".into());
                }
                let mut out = vec![inputs[1][0]];
                out.extend_from_slice(&data[2..]);
                Ok(out)
            }
            OpKind::IndexAdd { out } => {
                need(2)?;
                let data = &inputs[0];
                if data.is_empty() {
                    return Err("IndexAdd data must have rank >= 1".into());
                }
                if inputs[1].len() != 1 || inputs[1][0] != data[0] {
                    return Err("IndexAdd idx must be rank-1 matching data rows".into());
                }
                let mut shape = vec![*out];
                shape.extend_from_slice(&data[1..]);
                Ok(shape)
            }
            OpKind::Linear => {
                need(2)?;
                let (x, w) = (&inputs[0], &inputs[1]);
                if x.len() != 2 || w.len() != 2 || x[1] != w[0] {
                    return Err(format!("Linear shape mismatch: {x:?} @ {w:?}"));
                }
                Ok(vec![x[0], w[1]])
            }
            OpKind::PerEdgeLinear => {
                need(2)?;
                let (x, w) = (&inputs[0], &inputs[1]);
                if x.len() != 2 || w.len() != 3 || x[0] != w[0] || x[1] != w[1] {
                    return Err(format!("PerEdgeLinear shape mismatch: {x:?} vs {w:?}"));
                }
                Ok(vec![x[0], w[2]])
            }
            OpKind::PairwiseLinear => {
                need(2)?;
                let (x, w) = (&inputs[0], &inputs[1]);
                if x.len() != 2 || w.len() != 3 || x[1] != w[1] {
                    return Err(format!("PairwiseLinear shape mismatch: {x:?} vs {w:?}"));
                }
                Ok(vec![x[0], w[0], w[2]])
            }
            OpKind::LstmAggregate { hidden } => {
                need(5)?;
                let x = &inputs[0];
                if x.len() != 2 {
                    return Err("LstmAggregate x must be rank-2".into());
                }
                if inputs[1].len() != 1 || inputs[1][0] != x[0] {
                    return Err("LstmAggregate dst must be rank-1 over edges".into());
                }
                Ok(vec![Dim::Vertices, Dim::Lit(*hidden)])
            }
            OpKind::Add | OpKind::Mul => {
                need(2)?;
                if inputs[0] != inputs[1] {
                    return Err(format!(
                        "element-wise shape mismatch: {:?} vs {:?}",
                        inputs[0], inputs[1]
                    ));
                }
                Ok(inputs[0].clone())
            }
            OpKind::Relu | OpKind::LeakyRelu => {
                need(1)?;
                Ok(inputs[0].clone())
            }
            OpKind::ScaleByDegreeInv => {
                need(1)?;
                if inputs[0].len() != 2 {
                    return Err("ScaleByDegreeInv input must be rank-2".into());
                }
                Ok(inputs[0].clone())
            }
            OpKind::SegmentSoftmax => {
                need(2)?;
                if inputs[0].len() != 1 || inputs[1].len() != 1 || inputs[0] != inputs[1] {
                    return Err("SegmentSoftmax expects two matching rank-1 inputs".into());
                }
                Ok(inputs[0].clone())
            }
            OpKind::ScaleRowsByScalar => {
                need(2)?;
                let (x, s) = (&inputs[0], &inputs[1]);
                if x.len() != 2 || s.len() != 1 || x[0] != s[0] {
                    return Err(format!("ScaleRowsByScalar mismatch: {x:?} vs {s:?}"));
                }
                Ok(x.clone())
            }
            OpKind::ConcatCols => {
                need(2)?;
                let (a, b) = (&inputs[0], &inputs[1]);
                if a.len() != 2 || b.len() != 2 || a[0] != b[0] {
                    return Err(format!("ConcatCols mismatch: {a:?} vs {b:?}"));
                }
                let (Dim::Lit(ca), Dim::Lit(cb)) = (a[1], b[1]) else {
                    return Err("ConcatCols needs literal column widths".into());
                };
                Ok(vec![a[0], Dim::Lit(ca + cb)])
            }
            OpKind::SqueezeCol => {
                need(1)?;
                let x = &inputs[0];
                if x.len() != 2 || x[1] != Dim::Lit(1) {
                    return Err(format!("SqueezeCol needs [N, 1], got {x:?}"));
                }
                Ok(vec![x[0]])
            }
            OpKind::UnsqueezeCol => {
                need(1)?;
                let x = &inputs[0];
                if x.len() != 1 {
                    return Err(format!("UnsqueezeCol needs rank-1, got {x:?}"));
                }
                Ok(vec![x[0], Dim::Lit(1)])
            }
        }
    }

    /// Floating-point operations performed, for a given binding.
    pub fn flops(&self, inputs: &[SymShape], output: &SymShape, b: &Binding) -> f64 {
        let n = |s: &SymShape| b.numel(s) as f64;
        match self {
            OpKind::Linear => {
                // [m,k] @ [k,n] → 2·m·k·n
                let m = b.eval(inputs[0][0]) as f64;
                let k = b.eval(inputs[0][1]) as f64;
                let out_n = b.eval(inputs[1][1]) as f64;
                2.0 * m * k * out_n
            }
            OpKind::PerEdgeLinear => {
                let rows = b.eval(inputs[0][0]) as f64;
                let k = b.eval(inputs[0][1]) as f64;
                let out_n = b.eval(inputs[1][2]) as f64;
                2.0 * rows * k * out_n
            }
            OpKind::PairwiseLinear => {
                let u = b.eval(inputs[0][0]) as f64;
                let t = b.eval(inputs[1][0]) as f64;
                let k = b.eval(inputs[0][1]) as f64;
                let out_n = b.eval(inputs[1][2]) as f64;
                2.0 * u * t * k * out_n
            }
            OpKind::LstmAggregate { hidden } => {
                let e = b.eval(inputs[0][0]) as f64;
                let f = b.eval(inputs[0][1]) as f64;
                let h = *hidden as f64;
                // Per edge step: gates 2·(F+H)·4H plus ~12H element-wise.
                e * (2.0 * (f + h) * 4.0 * h + 12.0 * h)
            }
            OpKind::Add | OpKind::Mul | OpKind::Relu | OpKind::LeakyRelu => n(output),
            OpKind::ScaleByDegreeInv | OpKind::ScaleRowsByScalar => n(output),
            OpKind::SqueezeCol | OpKind::UnsqueezeCol => 0.0,
            OpKind::SegmentSoftmax => 5.0 * n(output),
            OpKind::IndexAdd { .. } => n(&inputs[0]),
            _ => 0.0,
        }
    }

    /// Bytes moved through global memory (reads of inputs + write of
    /// output), for a given binding.
    pub fn mem_bytes(&self, inputs: &[SymShape], output: &SymShape, b: &Binding) -> f64 {
        match self {
            // Pure metadata sources cost nothing by themselves; their
            // consumers account for reading them.
            OpKind::Input { .. }
            | OpKind::EdgeAttr(_)
            | OpKind::UniqueValues(_)
            | OpKind::UniqueMap(_) => 0.0,
            // Pure reshapes are views: no data movement.
            OpKind::SqueezeCol | OpKind::UnsqueezeCol => 0.0,
            _ => {
                let reads: f64 = inputs.iter().map(|s| b.numel(s) as f64).sum();
                let writes = b.numel(output) as f64;
                4.0 * (reads + writes)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn binding() -> Binding {
        let mut unique = HashMap::new();
        unique.insert(AttrKind::SrcId, 50);
        unique.insert(AttrKind::DstId, 40);
        unique.insert(AttrKind::EdgeType, 4);
        unique.insert(AttrKind::EdgeId, 200);
        unique.insert(AttrKind::DstDegree, 10);
        unique.insert(AttrKind::SrcDegree, 12);
        unique.insert(AttrKind::SrcVertexType, 1);
        unique.insert(AttrKind::DstVertexType, 1);
        Binding {
            vertices: 100,
            edges: 200,
            edge_types: 4,
            unique,
        }
    }

    #[test]
    fn index_shapes() {
        let data = vec![Dim::Vertices, Dim::Lit(16)];
        let idx = vec![Dim::Edges];
        let out = OpKind::Index.output_shape(&[data, idx]).unwrap();
        assert_eq!(out, vec![Dim::Edges, Dim::Lit(16)]);
    }

    #[test]
    fn index2d_shapes() {
        let data = vec![
            Dim::Unique(AttrKind::SrcId),
            Dim::Unique(AttrKind::EdgeType),
            Dim::Lit(8),
        ];
        let out = OpKind::Index2D
            .output_shape(&[data, vec![Dim::Edges], vec![Dim::Edges]])
            .unwrap();
        assert_eq!(out, vec![Dim::Edges, Dim::Lit(8)]);
    }

    #[test]
    fn index_add_shapes() {
        let data = vec![Dim::Edges, Dim::Lit(8)];
        let out = OpKind::IndexAdd { out: Dim::Vertices }
            .output_shape(&[data, vec![Dim::Edges]])
            .unwrap();
        assert_eq!(out, vec![Dim::Vertices, Dim::Lit(8)]);
    }

    #[test]
    fn linear_rejects_mismatch() {
        let x = vec![Dim::Edges, Dim::Lit(8)];
        let w = vec![Dim::Lit(9), Dim::Lit(4)];
        assert!(OpKind::Linear.output_shape(&[x, w]).is_err());
    }

    #[test]
    fn pairwise_linear_shape_and_flops() {
        let b = binding();
        let x = vec![Dim::Unique(AttrKind::SrcId), Dim::Lit(8)];
        let w = vec![Dim::Unique(AttrKind::EdgeType), Dim::Lit(8), Dim::Lit(4)];
        let out = OpKind::PairwiseLinear
            .output_shape(&[x.clone(), w.clone()])
            .unwrap();
        assert_eq!(
            out,
            vec![
                Dim::Unique(AttrKind::SrcId),
                Dim::Unique(AttrKind::EdgeType),
                Dim::Lit(4)
            ]
        );
        let flops = OpKind::PairwiseLinear.flops(&[x, w], &out, &b);
        assert_eq!(flops, 2.0 * 50.0 * 4.0 * 8.0 * 4.0);
    }

    #[test]
    fn per_edge_linear_costs_more_than_pairwise_when_duplicated() {
        // 200 edges vs 50 unique src × 4 types = 200 pairs → equal FLOPs
        // here, but with fewer pairs the transformed version wins.
        let b = binding();
        let xe = vec![Dim::Edges, Dim::Lit(8)];
        let we = vec![Dim::Edges, Dim::Lit(8), Dim::Lit(4)];
        let oute = OpKind::PerEdgeLinear
            .output_shape(&[xe.clone(), we.clone()])
            .unwrap();
        let edge_flops = OpKind::PerEdgeLinear.flops(&[xe.clone(), we.clone()], &oute, &b);
        assert_eq!(edge_flops, 2.0 * 200.0 * 8.0 * 4.0);
        // Memory: per-edge weights are materialized per edge — huge.
        let edge_bytes = OpKind::PerEdgeLinear.mem_bytes(&[xe, we], &oute, &b);
        assert!(edge_bytes > 4.0 * 200.0 * 8.0 * 4.0);
    }

    #[test]
    fn lstm_flops_scale_with_edges() {
        let b = binding();
        let x = vec![Dim::Edges, Dim::Lit(16)];
        let ins = [
            x.clone(),
            vec![Dim::Edges],
            vec![Dim::Lit(16), Dim::Lit(128)],
            vec![Dim::Lit(32), Dim::Lit(128)],
            vec![Dim::Lit(128)],
        ];
        let op = OpKind::LstmAggregate { hidden: 32 };
        let out = op.output_shape(&ins).unwrap();
        assert_eq!(out, vec![Dim::Vertices, Dim::Lit(32)]);
        let flops = op.flops(&ins, &out, &b);
        assert!(flops > 200.0 * 2.0 * 48.0 * 128.0);
    }

    #[test]
    fn classification() {
        assert!(OpKind::Index.is_indexing());
        assert!(!OpKind::Index.is_neural());
        assert!(OpKind::Linear.is_neural());
        assert!(OpKind::EdgeAttr(AttrKind::SrcId).is_index_stream());
        assert!(!OpKind::Linear.is_index_stream());
    }

    #[test]
    fn concat_requires_literal_widths() {
        let a = vec![Dim::Vertices, Dim::Lit(8)];
        let bshape = vec![Dim::Vertices, Dim::Lit(4)];
        let out = OpKind::ConcatCols.output_shape(&[a, bshape]).unwrap();
        assert_eq!(out, vec![Dim::Vertices, Dim::Lit(12)]);
    }
}
