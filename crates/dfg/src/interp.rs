//! Reference interpreter: executes a DFG on a concrete graph and tensors.
//!
//! Used to validate that DFG transformations (§5.2) are equivalence
//! preserving, and as the numeric ground truth for fused kernels.

use crate::dim::Binding;
use crate::graph::{Dfg, NodeId};
use crate::op::{OpKind, LEAKY_SLOPE};
use std::collections::HashMap;
use wisegraph_graph::Graph;
use wisegraph_tensor::{ops, Tensor};

/// A runtime value flowing through the DFG.
#[derive(Clone, Debug)]
pub enum Value {
    /// A dense tensor.
    Tensor(Tensor),
    /// An index stream (one integer per position).
    Index(Vec<u32>),
}

impl Value {
    fn tensor(&self) -> Result<&Tensor, String> {
        match self {
            Value::Tensor(t) => Ok(t),
            Value::Index(_) => Err("expected tensor, found index stream".into()),
        }
    }

    fn index(&self) -> Result<&[u32], String> {
        match self {
            Value::Index(v) => Ok(v),
            Value::Tensor(_) => Err("expected index stream, found tensor".into()),
        }
    }
}

/// Gathers along the first dimension of an arbitrary-rank tensor.
fn gather_first(t: &Tensor, idx: &[u32]) -> Result<Tensor, String> {
    let dims = t.dims();
    if dims.is_empty() {
        return Err("cannot gather from a scalar".into());
    }
    let row: usize = dims[1..].iter().product();
    let mut out = vec![0.0f32; idx.len() * row];
    for (i, &r) in idx.iter().enumerate() {
        let r = r as usize;
        if r >= dims[0] {
            return Err(format!("gather index {r} out of bounds for {}", dims[0]));
        }
        out[i * row..(i + 1) * row].copy_from_slice(&t.data()[r * row..(r + 1) * row]);
    }
    let mut shape = vec![idx.len()];
    shape.extend_from_slice(&dims[1..]);
    Ok(Tensor::from_vec(out, &shape))
}

/// Gathers along the first two dimensions.
fn gather_2d(t: &Tensor, idx1: &[u32], idx2: &[u32]) -> Result<Tensor, String> {
    let dims = t.dims();
    if dims.len() < 2 {
        return Err("Index2D needs rank >= 2 data".into());
    }
    if idx1.len() != idx2.len() {
        return Err("Index2D index streams differ in length".into());
    }
    let row: usize = dims[2..].iter().product();
    let mut out = vec![0.0f32; idx1.len() * row];
    for (i, (&a, &b)) in idx1.iter().zip(idx2.iter()).enumerate() {
        let (a, b) = (a as usize, b as usize);
        if a >= dims[0] || b >= dims[1] {
            return Err("Index2D index out of bounds".into());
        }
        let off = (a * dims[1] + b) * row;
        out[i * row..(i + 1) * row].copy_from_slice(&t.data()[off..off + row]);
    }
    let mut shape = vec![idx1.len()];
    shape.extend_from_slice(&dims[2..]);
    Ok(Tensor::from_vec(out, &shape))
}

/// Scatter-add along the first dimension.
fn scatter_add_first(rows: usize, src: &Tensor, idx: &[u32]) -> Result<Tensor, String> {
    let dims = src.dims();
    if dims.is_empty() || dims[0] != idx.len() {
        return Err("IndexAdd data rows must equal index length".into());
    }
    let row: usize = dims[1..].iter().product();
    let mut out = vec![0.0f32; rows * row];
    for (i, &r) in idx.iter().enumerate() {
        let r = r as usize;
        if r >= rows {
            return Err(format!("scatter index {r} out of bounds for {rows}"));
        }
        for j in 0..row {
            out[r * row + j] += src.data()[i * row + j];
        }
    }
    let mut shape = vec![rows];
    shape.extend_from_slice(&dims[1..]);
    Ok(Tensor::from_vec(out, &shape))
}

/// Computes the deduplicated sorted values of an attribute stream and the
/// map from each position to its unique index.
pub fn unique_and_map(stream: &[u32]) -> (Vec<u32>, Vec<u32>) {
    let mut uniq: Vec<u32> = stream.to_vec();
    uniq.sort_unstable();
    uniq.dedup();
    let map = stream
        .iter()
        .map(|v| uniq.binary_search(v).expect("value present") as u32)
        .collect();
    (uniq, map)
}

/// Executes the DFG on a graph with named dense inputs, returning the values
/// of the declared outputs in order.
///
/// # Errors
///
/// Returns a message if an input is missing, shapes mismatch at runtime, or
/// an index is out of bounds.
pub fn execute(
    dfg: &Dfg,
    g: &Graph,
    inputs: &HashMap<String, Tensor>,
) -> Result<Vec<Tensor>, String> {
    let all: Vec<u32> = (0..g.num_edges() as u32).collect();
    execute_on_edges(dfg, g, inputs, &all)
}

/// Executes the DFG over a *subset* of edges (one gTask's scope, as the
/// plan stores its `u32` ids): edge streams are restricted to `edges`,
/// reductions still target the full vertex set.
///
/// For DFGs whose every source-to-output path passes through an `IndexAdd`
/// and whose post-reduction operations are linear (GCN, RGCN), summing the
/// outputs of every task of a partition plan reproduces whole-graph
/// execution exactly — the correctness contract of gTask-based execution.
/// Non-decomposable operations (per-destination softmax, LSTM order) need
/// per-destination task scopes instead, which is exactly why those models'
/// plans restrict `dst-id` (§7.3).
///
/// # Errors
///
/// Returns a message if an input is missing, shapes mismatch at runtime,
/// an index is out of bounds, or `edges` references a nonexistent edge.
pub fn execute_on_edges(
    dfg: &Dfg,
    g: &Graph,
    inputs: &HashMap<String, Tensor>,
    edges: &[u32],
) -> Result<Vec<Tensor>, String> {
    if let Some(&bad) = edges.iter().find(|&&e| e as usize >= g.num_edges()) {
        return Err(format!("edge {bad} out of bounds"));
    }
    let mut binding = Binding::from_graph(g);
    binding.edges = edges.len();
    let mut values: Vec<Option<Value>> = vec![None; dfg.len()];
    let live = dfg.live_set();
    for (i, node) in dfg.nodes().iter().enumerate() {
        if !live[i] {
            continue;
        }
        let get = |id: NodeId| -> Result<&Value, String> {
            values[id.0]
                .as_ref()
                .ok_or_else(|| format!("value for node {} not computed", id.0))
        };
        let value = match &node.kind {
            OpKind::Input { name, shape } => {
                let t = inputs
                    .get(name)
                    .ok_or_else(|| format!("missing input tensor '{name}'"))?;
                let expect = binding.concrete(shape);
                if t.dims() != expect.as_slice() {
                    return Err(format!(
                        "input '{name}' has shape {:?}, expected {:?}",
                        t.dims(),
                        expect
                    ));
                }
                Value::Tensor(t.clone())
            }
            OpKind::EdgeAttr(a) => Value::Index(
                edges.iter().map(|&ed| g.edge_attr(*a, ed as usize) as u32).collect(),
            ),
            OpKind::UniqueValues(a) => {
                let stream: Vec<u32> = edges
                    .iter()
                    .map(|&ed| g.edge_attr(*a, ed as usize) as u32)
                    .collect();
                Value::Index(unique_and_map(&stream).0)
            }
            OpKind::UniqueMap(a) => {
                let stream: Vec<u32> = edges
                    .iter()
                    .map(|&ed| g.edge_attr(*a, ed as usize) as u32)
                    .collect();
                Value::Index(unique_and_map(&stream).1)
            }
            OpKind::Index => {
                let idx = get(node.inputs[1])?.index()?;
                match get(node.inputs[0])? {
                    Value::Tensor(t) => Value::Tensor(gather_first(t, idx)?),
                    // Indexing an index stream yields an index stream
                    // (e.g. src-id = src-id_unique[src-id_map]).
                    Value::Index(s) => Value::Index(
                        idx.iter()
                            .map(|&p| {
                                s.get(p as usize).copied().ok_or_else(|| {
                                    format!("index {p} out of bounds for stream")
                                })
                            })
                            .collect::<Result<_, String>>()?,
                    ),
                }
            }
            OpKind::Index2D => {
                let data = get(node.inputs[0])?.tensor()?;
                let i1 = get(node.inputs[1])?.index()?;
                let i2 = get(node.inputs[2])?.index()?;
                Value::Tensor(gather_2d(data, i1, i2)?)
            }
            OpKind::IndexAdd { out } => {
                let rows = binding.eval(*out);
                let idx = get(node.inputs[1])?.index()?;
                let data = get(node.inputs[0])?.tensor()?;
                Value::Tensor(scatter_add_first(rows, data, idx)?)
            }
            OpKind::Linear => {
                let x = get(node.inputs[0])?.tensor()?;
                let w = get(node.inputs[1])?.tensor()?;
                Value::Tensor(ops::matmul(x, w))
            }
            OpKind::PerEdgeLinear => {
                let x = get(node.inputs[0])?.tensor()?;
                let w = get(node.inputs[1])?.tensor()?;
                let (n, f) = (x.dims()[0], x.dims()[1]);
                let fo = w.dims()[2];
                if w.dims()[0] != n || w.dims()[1] != f {
                    return Err("PerEdgeLinear runtime shape mismatch".into());
                }
                let mut out = vec![0.0f32; n * fo];
                for i in 0..n {
                    for kk in 0..f {
                        let xv = x.data()[i * f + kk];
                        if xv == 0.0 {
                            continue;
                        }
                        let wrow = &w.data()[(i * f + kk) * fo..(i * f + kk + 1) * fo];
                        for (o, &wv) in out[i * fo..(i + 1) * fo].iter_mut().zip(wrow) {
                            *o += xv * wv;
                        }
                    }
                }
                Value::Tensor(Tensor::from_vec(out, &[n, fo]))
            }
            OpKind::PairwiseLinear => {
                let x = get(node.inputs[0])?.tensor()?;
                let w = get(node.inputs[1])?.tensor()?;
                let (u, f) = (x.dims()[0], x.dims()[1]);
                let (t, fo) = (w.dims()[0], w.dims()[2]);
                if w.dims()[1] != f {
                    return Err("PairwiseLinear runtime shape mismatch".into());
                }
                let mut out = vec![0.0f32; u * t * fo];
                for a in 0..u {
                    for b in 0..t {
                        for kk in 0..f {
                            let xv = x.data()[a * f + kk];
                            if xv == 0.0 {
                                continue;
                            }
                            let wrow = &w.data()[(b * f + kk) * fo..(b * f + kk + 1) * fo];
                            let orow = &mut out[(a * t + b) * fo..(a * t + b + 1) * fo];
                            for (o, &wv) in orow.iter_mut().zip(wrow) {
                                *o += xv * wv;
                            }
                        }
                    }
                }
                Value::Tensor(Tensor::from_vec(out, &[u, t, fo]))
            }
            OpKind::LstmAggregate { hidden } => {
                let x = get(node.inputs[0])?.tensor()?;
                let dst = get(node.inputs[1])?.index()?;
                let wx = get(node.inputs[2])?.tensor()?;
                let wh = get(node.inputs[3])?.tensor()?;
                let bias = get(node.inputs[4])?.tensor()?;
                Value::Tensor(lstm_aggregate(
                    x,
                    dst,
                    wx,
                    wh,
                    bias,
                    *hidden,
                    binding.vertices,
                )?)
            }
            OpKind::Add => {
                let a = get(node.inputs[0])?.tensor()?;
                let b = get(node.inputs[1])?.tensor()?;
                Value::Tensor(ops::add(a, b))
            }
            OpKind::Mul => {
                let a = get(node.inputs[0])?.tensor()?;
                let b = get(node.inputs[1])?.tensor()?;
                Value::Tensor(ops::mul(a, b))
            }
            OpKind::Relu => Value::Tensor(ops::relu(get(node.inputs[0])?.tensor()?)),
            OpKind::LeakyRelu => Value::Tensor(ops::leaky_relu(
                get(node.inputs[0])?.tensor()?,
                LEAKY_SLOPE,
            )),
            OpKind::ScaleByDegreeInv => {
                let x = get(node.inputs[0])?.tensor()?;
                let scales: Vec<f32> = g
                    .in_degree()
                    .iter()
                    .map(|&d| 1.0 / (d.max(1) as f32))
                    .collect();
                if x.dims()[0] != scales.len() {
                    return Err("ScaleByDegreeInv rows must equal |V|".into());
                }
                Value::Tensor(ops::scale_rows(
                    x,
                    &Tensor::from_vec(scales, &[g.num_vertices()]),
                ))
            }
            OpKind::SegmentSoftmax => {
                let s = get(node.inputs[0])?.tensor()?;
                let seg = get(node.inputs[1])?.index()?;
                Value::Tensor(ops::segment_softmax(s, seg, g.num_vertices()))
            }
            OpKind::ScaleRowsByScalar => {
                let x = get(node.inputs[0])?.tensor()?;
                let s = get(node.inputs[1])?.tensor()?;
                Value::Tensor(ops::scale_rows(x, s))
            }
            OpKind::ConcatCols => {
                let a = get(node.inputs[0])?.tensor()?;
                let b = get(node.inputs[1])?.tensor()?;
                Value::Tensor(ops::concat_cols(a, b))
            }
            OpKind::SqueezeCol => {
                let a = get(node.inputs[0])?.tensor()?;
                Value::Tensor(a.reshape(&[a.dims()[0]]))
            }
            OpKind::UnsqueezeCol => {
                let a = get(node.inputs[0])?.tensor()?;
                Value::Tensor(a.reshape(&[a.dims()[0], 1]))
            }
        };
        values[i] = Some(value);
    }
    dfg.outputs()
        .iter()
        .map(|&o| {
            values[o.0]
                .as_ref()
                .ok_or_else(|| "output not computed".to_string())
                .and_then(|v| v.tensor().cloned())
        })
        .collect()
}

/// Runs an LSTM over each destination vertex's in-edge messages (in edge
/// order) and returns the final hidden state per vertex.
#[allow(clippy::too_many_arguments)]
fn lstm_aggregate(
    x: &Tensor,
    dst: &[u32],
    wx: &Tensor,
    wh: &Tensor,
    bias: &Tensor,
    hidden: usize,
    num_vertices: usize,
) -> Result<Tensor, String> {
    let f = x.dims()[1];
    if wx.dims() != [f, 4 * hidden] {
        return Err("LstmAggregate wx must be [F, 4H]".into());
    }
    if wh.dims() != [hidden, 4 * hidden] {
        return Err("LstmAggregate wh must be [H, 4H]".into());
    }
    if bias.dims() != [4 * hidden] {
        return Err("LstmAggregate bias must be [4H]".into());
    }
    let mut h = vec![0.0f32; num_vertices * hidden];
    let mut c = vec![0.0f32; num_vertices * hidden];
    let sigmoid = |v: f32| 1.0 / (1.0 + (-v).exp());
    for (e, &d) in dst.iter().enumerate() {
        let d = d as usize;
        if d >= num_vertices {
            return Err("LstmAggregate dst out of bounds".into());
        }
        // gates = x_e @ wx + h_d @ wh + b, laid out [i | f | g | o].
        let mut gates = bias.data().to_vec();
        let xe = &x.data()[e * f..(e + 1) * f];
        for (k, &xv) in xe.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let wrow = &wx.data()[k * 4 * hidden..(k + 1) * 4 * hidden];
            for (gv, &wv) in gates.iter_mut().zip(wrow) {
                *gv += xv * wv;
            }
        }
        let hd = &h[d * hidden..(d + 1) * hidden];
        let hd_copy: Vec<f32> = hd.to_vec();
        for (k, &hv) in hd_copy.iter().enumerate() {
            if hv == 0.0 {
                continue;
            }
            let wrow = &wh.data()[k * 4 * hidden..(k + 1) * 4 * hidden];
            for (gv, &wv) in gates.iter_mut().zip(wrow) {
                *gv += hv * wv;
            }
        }
        for j in 0..hidden {
            let i_g = sigmoid(gates[j]);
            let f_g = sigmoid(gates[hidden + j]);
            let g_g = gates[2 * hidden + j].tanh();
            let o_g = sigmoid(gates[3 * hidden + j]);
            let cv = f_g * c[d * hidden + j] + i_g * g_g;
            c[d * hidden + j] = cv;
            h[d * hidden + j] = o_g * cv.tanh();
        }
    }
    Ok(Tensor::from_vec(h, &[num_vertices, hidden]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::Dim;
    use wisegraph_graph::AttrKind;

    fn paper_graph() -> Graph {
        Graph::new(
            5,
            2,
            vec![0, 1, 0, 1, 2, 2, 3, 4, 3, 4, 0],
            vec![0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4],
            vec![0, 0, 0, 0, 1, 0, 1, 1, 1, 1, 0],
        )
    }

    fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
        // Simple deterministic pseudo-random fill.
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

    #[test]
    fn rgcn_dfg_matches_manual_computation() {
        let g = paper_graph();
        let (f_in, f_out) = (3, 2);
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

        let ht = rand_tensor(&[5, f_in], 1);
        let wt_t = rand_tensor(&[2, f_in, f_out], 2);
        let mut inputs = HashMap::new();
        inputs.insert("h".to_string(), ht.clone());
        inputs.insert("W".to_string(), wt_t.clone());
        let got = &execute(&d, &g, &inputs).unwrap()[0];

        // Manual: for each edge, out[dst] += h[src] @ W[type].
        let mut expect = vec![0.0f32; 5 * f_out];
        for e in 0..g.num_edges() {
            let (s, dd, t) = (
                g.src()[e] as usize,
                g.dst()[e] as usize,
                g.etype()[e] as usize,
            );
            for o in 0..f_out {
                let mut acc = 0.0;
                for k in 0..f_in {
                    acc += ht.data()[s * f_in + k]
                        * wt_t.data()[(t * f_in + k) * f_out + o];
                }
                expect[dd * f_out + o] += acc;
            }
        }
        let expect = Tensor::from_vec(expect, &[5, f_out]);
        assert!(got.allclose(&expect, 1e-4), "diff {}", got.max_abs_diff(&expect));
    }

    #[test]
    fn unique_and_map_reconstructs_stream() {
        let stream = vec![5u32, 2, 5, 9, 2, 2];
        let (uniq, map) = unique_and_map(&stream);
        assert_eq!(uniq, vec![2, 5, 9]);
        for (i, &v) in stream.iter().enumerate() {
            assert_eq!(uniq[map[i] as usize], v);
        }
    }

    #[test]
    fn gcn_style_dfg_runs() {
        let g = paper_graph();
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(4)]);
        let w = d.input("w", vec![Dim::Lit(4), Dim::Lit(3)]);
        let src = d.edge_attr(AttrKind::SrcId);
        let dst = d.edge_attr(AttrKind::DstId);
        let hsrc = d.index(h, src);
        let agg = d.index_add(hsrc, dst, Dim::Vertices);
        let norm = d.scale_by_degree_inv(agg);
        let out = d.linear(norm, w);
        let act = d.relu(out);
        d.mark_output(act);

        let mut inputs = HashMap::new();
        inputs.insert("h".into(), rand_tensor(&[5, 4], 3));
        inputs.insert("w".into(), rand_tensor(&[4, 3], 4));
        let out = &execute(&d, &g, &inputs).unwrap()[0];
        assert_eq!(out.dims(), &[5, 3]);
        assert!(out.data().iter().all(|&v| v >= 0.0), "relu applied");
        assert!(out.all_finite());
    }

    #[test]
    fn missing_input_is_reported() {
        let g = paper_graph();
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(4)]);
        d.mark_output(h);
        let err = execute(&d, &g, &HashMap::new()).unwrap_err();
        assert!(err.contains("missing input"), "{err}");
    }

    #[test]
    fn wrong_input_shape_is_reported() {
        let g = paper_graph();
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(4)]);
        d.mark_output(h);
        let mut inputs = HashMap::new();
        inputs.insert("h".into(), Tensor::zeros(&[5, 3]));
        let err = execute(&d, &g, &inputs).unwrap_err();
        assert!(err.contains("expected"), "{err}");
    }

    #[test]
    fn lstm_aggregate_is_order_dependent_but_finite() {
        let g = paper_graph();
        let (f, hdim) = (3, 4);
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(f)]);
        let wx = d.input("wx", vec![Dim::Lit(f), Dim::Lit(4 * hdim)]);
        let wh = d.input("wh", vec![Dim::Lit(hdim), Dim::Lit(4 * hdim)]);
        let b = d.input("b", vec![Dim::Lit(4 * hdim)]);
        let src = d.edge_attr(AttrKind::SrcId);
        let dst = d.edge_attr(AttrKind::DstId);
        let hsrc = d.index(h, src);
        let agg = d.lstm_aggregate(hsrc, dst, wx, wh, b, hdim);
        d.mark_output(agg);

        let mut inputs = HashMap::new();
        inputs.insert("h".into(), rand_tensor(&[5, f], 5));
        inputs.insert("wx".into(), rand_tensor(&[f, 4 * hdim], 6));
        inputs.insert("wh".into(), rand_tensor(&[hdim, 4 * hdim], 7));
        inputs.insert("b".into(), rand_tensor(&[4 * hdim], 8));
        let out = &execute(&d, &g, &inputs).unwrap()[0];
        assert_eq!(out.dims(), &[5, hdim]);
        assert!(out.all_finite());
        // Every vertex has in-edges in the paper graph, so no row is zero.
        for v in 0..5 {
            assert!(out.row(v).iter().any(|&x| x != 0.0), "vertex {v}");
        }
    }
}
