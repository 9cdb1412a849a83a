//! Tape-based reverse-mode automatic differentiation.
//!
//! The [`Tape`] records every operation applied to [`Var`] handles; calling
//! [`Tape::backward`] propagates gradients from a scalar loss back to every
//! recorded parameter. A fresh tape is built for every training iteration,
//! while the parameter tensors themselves live in the model and are fed in
//! via [`Tape::param`].
//!
//! Each tape owns a [`Workspace`]: node outputs are written into pooled
//! buffers, and [`Tape::finish`] recycles every node value and gradient back
//! into the pool so the next iteration's tape (built with
//! [`Tape::with_workspace`]) allocates almost nothing. Because pooled
//! buffers are zero-filled on checkout and all ops route through the same
//! `_into` kernels, a workspace-fed tape is bit-identical to a fresh one.

use crate::ops;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use std::cell::RefCell;

/// A handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var {
    id: usize,
}

impl Var {
    /// Returns the node index on the owning tape.
    pub fn id(&self) -> usize {
        self.id
    }
}

type BackwardFn = Box<dyn Fn(&Tensor) -> Vec<(usize, Tensor)>>;

struct Node {
    value: Tensor,
    backward: Option<BackwardFn>,
    is_param: bool,
}

/// A gradient tape: records operations eagerly and replays them in reverse.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
    grads: RefCell<Vec<Option<Tensor>>>,
    ws: RefCell<Workspace>,
}

impl Tape {
    /// Creates an empty tape with an empty workspace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty tape backed by an existing workspace, so node
    /// outputs reuse buffers recycled by a previous tape's [`Tape::finish`].
    pub fn with_workspace(ws: Workspace) -> Self {
        Self {
            nodes: RefCell::new(Vec::new()),
            grads: RefCell::new(Vec::new()),
            ws: RefCell::new(ws),
        }
    }

    /// Consumes the tape, recycling every node value and gradient into the
    /// workspace, and returns the workspace for the next iteration.
    pub fn finish(self) -> Workspace {
        let Tape { nodes, grads, ws } = self;
        let mut ws = ws.into_inner();
        for node in nodes.into_inner() {
            ws.recycle(node.value);
        }
        for g in grads.into_inner().into_iter().flatten() {
            ws.recycle(g);
        }
        ws
    }

    /// Checks out a zeroed output tensor from the tape workspace.
    fn alloc(&self, dims: &[usize]) -> Tensor {
        self.ws.borrow_mut().take_tensor(dims)
    }

    fn push(&self, value: Tensor, backward: Option<BackwardFn>, is_param: bool) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            value,
            backward,
            is_param,
        });
        Var {
            id: nodes.len() - 1,
        }
    }

    /// Records a constant input (no gradient is accumulated for it).
    pub fn input(&self, value: Tensor) -> Var {
        self.push(value, None, false)
    }

    /// Records a trainable parameter; its gradient is kept after `backward`.
    pub fn param(&self, value: Tensor) -> Var {
        self.push(value, None, true)
    }

    /// Returns a clone of the current value of `v`.
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.id].value.clone()
    }

    /// Returns the gradient of the last `backward` call with respect to `v`,
    /// if one was produced.
    pub fn grad(&self, v: Var) -> Option<Tensor> {
        self.grads.borrow().get(v.id).cloned().flatten()
    }

    /// Returns the ids of all parameter nodes in recording order.
    pub fn param_ids(&self) -> Vec<usize> {
        self.nodes
            .borrow()
            .iter()
            .enumerate()
            .filter(|(_, n)| n.is_param)
            .map(|(i, _)| i)
            .collect()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// Returns `true` if no nodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    // --- Recorded operations -------------------------------------------

    /// Matrix product of two rank-2 variables.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        assert_eq!(av.shape().rank(), 2, "matmul lhs must be rank-2");
        assert_eq!(bv.shape().rank(), 2, "matmul rhs must be rank-2");
        let mut out = self.alloc(&[av.dims()[0], bv.dims()[1]]);
        ops::matmul_into(&av, &bv, out.data_mut());
        let (aid, bid) = (a.id, b.id);
        self.push(
            out,
            Some(Box::new(move |g| {
                vec![
                    (aid, ops::matmul_a_bt(g, &bv)),
                    (bid, ops::matmul_at_b(&av, g)),
                ]
            })),
            false,
        )
    }

    /// Element-wise sum of two same-shaped variables.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let mut out;
        {
            let nodes = self.nodes.borrow();
            let (av, bv) = (&nodes[a.id].value, &nodes[b.id].value);
            out = self.alloc(av.dims());
            ops::add_into(av, bv, out.data_mut());
        }
        let (aid, bid) = (a.id, b.id);
        self.push(
            out,
            Some(Box::new(move |g| {
                vec![(aid, g.clone()), (bid, g.clone())]
            })),
            false,
        )
    }

    /// Element-wise product of two same-shaped variables.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let av = self.value(a);
        let bv = self.value(b);
        let mut out = self.alloc(av.dims());
        ops::mul_into(&av, &bv, out.data_mut());
        let (aid, bid) = (a.id, b.id);
        self.push(
            out,
            Some(Box::new(move |g| {
                vec![(aid, ops::mul(g, &bv)), (bid, ops::mul(g, &av))]
            })),
            false,
        )
    }

    /// Multiplies a variable by a scalar constant.
    pub fn scale(&self, a: Var, s: f32) -> Var {
        let mut out;
        {
            let nodes = self.nodes.borrow();
            let av = &nodes[a.id].value;
            out = self.alloc(av.dims());
            ops::scale_into(av, s, out.data_mut());
        }
        let aid = a.id;
        self.push(
            out,
            Some(Box::new(move |g| vec![(aid, ops::scale(g, s))])),
            false,
        )
    }

    /// Adds a rank-1 bias to every row of a rank-2 variable.
    pub fn add_bias(&self, x: Var, bias: Var) -> Var {
        let mut out;
        {
            let nodes = self.nodes.borrow();
            let (xv, bv) = (&nodes[x.id].value, &nodes[bias.id].value);
            out = self.alloc(xv.dims());
            ops::add_bias_into(xv, bv, out.data_mut());
        }
        let (xid, bid) = (x.id, bias.id);
        self.push(
            out,
            Some(Box::new(move |g| {
                vec![(xid, g.clone()), (bid, ops::sum_rows(g))]
            })),
            false,
        )
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        let av = self.value(a);
        let mut out = self.alloc(av.dims());
        ops::relu_into(&av, out.data_mut());
        let aid = a.id;
        self.push(
            out,
            Some(Box::new(move |g| {
                let mask = ops::map(&av, |x| if x > 0.0 { 1.0 } else { 0.0 });
                vec![(aid, ops::mul(g, &mask))]
            })),
            false,
        )
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&self, a: Var, slope: f32) -> Var {
        let av = self.value(a);
        let mut out = self.alloc(av.dims());
        ops::leaky_relu_into(&av, slope, out.data_mut());
        let aid = a.id;
        self.push(
            out,
            Some(Box::new(move |g| {
                let mask = ops::map(&av, |x| if x >= 0.0 { 1.0 } else { slope });
                vec![(aid, ops::mul(g, &mask))]
            })),
            false,
        )
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let mut out;
        {
            let nodes = self.nodes.borrow();
            let av = &nodes[a.id].value;
            out = self.alloc(av.dims());
            ops::sigmoid_into(av, out.data_mut());
        }
        let outv = out.clone();
        let aid = a.id;
        self.push(
            out,
            Some(Box::new(move |g| {
                let d = ops::map(&outv, |y| y * (1.0 - y));
                vec![(aid, ops::mul(g, &d))]
            })),
            false,
        )
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let mut out;
        {
            let nodes = self.nodes.borrow();
            let av = &nodes[a.id].value;
            out = self.alloc(av.dims());
            ops::tanh_into(av, out.data_mut());
        }
        let outv = out.clone();
        let aid = a.id;
        self.push(
            out,
            Some(Box::new(move |g| {
                let d = ops::map(&outv, |y| 1.0 - y * y);
                vec![(aid, ops::mul(g, &d))]
            })),
            false,
        )
    }

    /// Gathers rows by index: the indexing operation of a GNN layer.
    pub fn gather_rows(&self, x: Var, idx: Vec<u32>) -> Var {
        let mut out;
        let rows;
        {
            let nodes = self.nodes.borrow();
            let xv = &nodes[x.id].value;
            assert_eq!(xv.shape().rank(), 2, "gather_rows input must be rank-2");
            rows = xv.dims()[0];
            out = self.alloc(&[idx.len(), xv.dims()[1]]);
            ops::gather_rows_into(xv, &idx, out.data_mut());
        }
        let xid = x.id;
        self.push(
            out,
            Some(Box::new(move |g| {
                vec![(xid, ops::index_add_rows(rows, g, &idx))]
            })),
            false,
        )
    }

    /// Records a node computed off the tape: `value` is its output, and
    /// `backward` maps the upstream gradient to `(input, gradient)` pairs.
    /// The extension point for operations the tape does not implement
    /// itself — graph aggregation, which an execution engine runs on both
    /// passes, is the one that uses it.
    pub fn custom(
        &self,
        value: Tensor,
        backward: impl Fn(&Tensor) -> Vec<(Var, Tensor)> + 'static,
    ) -> Var {
        self.push(
            value,
            Some(Box::new(move |g| {
                backward(g).into_iter().map(|(v, t)| (v.id, t)).collect()
            })),
            false,
        )
    }

    /// Scales row `i` by the constant `s[i]` (e.g. 1/degree normalization).
    pub fn scale_rows_const(&self, x: Var, s: Tensor) -> Var {
        let mut out;
        {
            let nodes = self.nodes.borrow();
            let xv = &nodes[x.id].value;
            out = self.alloc(xv.dims());
            ops::scale_rows_into(xv, &s, out.data_mut());
        }
        let xid = x.id;
        self.push(
            out,
            Some(Box::new(move |g| vec![(xid, ops::scale_rows(g, &s))])),
            false,
        )
    }

    /// Per-segment softmax of a rank-1 score vector (GAT edge attention).
    pub fn segment_softmax(&self, scores: Var, seg: Vec<u32>, num_segments: usize) -> Var {
        let mut out;
        {
            let nodes = self.nodes.borrow();
            let sv = &nodes[scores.id].value;
            out = self.alloc(&[sv.numel()]);
            ops::segment_softmax_into(sv, &seg, num_segments, out.data_mut());
        }
        let outv = out.clone();
        let sid = scores.id;
        self.push(
            out,
            Some(Box::new(move |g| {
                // dL/ds_i = y_i * (g_i - Σ_{j∈seg(i)} y_j g_j)
                let y = outv.data();
                let gd = g.data();
                let mut segdot = vec![0.0f32; num_segments];
                for (i, &s) in seg.iter().enumerate() {
                    segdot[s as usize] += y[i] * gd[i];
                }
                let grad: Vec<f32> = seg
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| y[i] * (gd[i] - segdot[s as usize]))
                    .collect();
                vec![(sid, Tensor::from_vec(grad, outv.dims()))]
            })),
            false,
        )
    }

    /// Concatenates two rank-2 variables along the column dimension.
    pub fn concat_cols(&self, a: Var, b: Var) -> Var {
        let mut out;
        let (n1, n2);
        {
            let nodes = self.nodes.borrow();
            let (av, bv) = (&nodes[a.id].value, &nodes[b.id].value);
            assert_eq!(av.shape().rank(), 2, "concat_cols lhs must be rank-2");
            assert_eq!(bv.shape().rank(), 2, "concat_cols rhs must be rank-2");
            (n1, n2) = (av.dims()[1], bv.dims()[1]);
            out = self.alloc(&[av.dims()[0], n1 + n2]);
            ops::concat_cols_into(av, bv, out.data_mut());
        }
        let (aid, bid) = (a.id, b.id);
        self.push(
            out,
            Some(Box::new(move |g| {
                let m = g.dims()[0];
                let mut ga = vec![0.0f32; m * n1];
                let mut gb = vec![0.0f32; m * n2];
                for i in 0..m {
                    let row = g.row(i);
                    ga[i * n1..(i + 1) * n1].copy_from_slice(&row[..n1]);
                    gb[i * n2..(i + 1) * n2].copy_from_slice(&row[n1..]);
                }
                vec![
                    (aid, Tensor::from_vec(ga, &[m, n1])),
                    (bid, Tensor::from_vec(gb, &[m, n2])),
                ]
            })),
            false,
        )
    }

    /// Sums all elements into a scalar.
    pub fn sum(&self, a: Var) -> Var {
        let av = self.value(a);
        let dims: Vec<usize> = av.dims().to_vec();
        let out = ops::sum(&av);
        let aid = a.id;
        self.push(
            out,
            Some(Box::new(move |g| {
                vec![(aid, Tensor::full(&dims, g.item()))]
            })),
            false,
        )
    }

    /// Averages all elements into a scalar.
    pub fn mean(&self, a: Var) -> Var {
        let av = self.value(a);
        let dims: Vec<usize> = av.dims().to_vec();
        let n = av.numel() as f32;
        let out = ops::mean(&av);
        let aid = a.id;
        self.push(
            out,
            Some(Box::new(move |g| {
                vec![(aid, Tensor::full(&dims, g.item() / n))]
            })),
            false,
        )
    }

    /// Mean cross-entropy loss over rows of `logits` against integer labels.
    pub fn cross_entropy(&self, logits: Var, labels: Vec<u32>) -> Var {
        let lv = self.value(logits);
        let (loss, dlogits) = ops::cross_entropy_with_grad(&lv, &labels);
        let lid = logits.id;
        self.push(
            Tensor::scalar(loss),
            Some(Box::new(move |g| {
                vec![(lid, ops::scale(&dlogits, g.item()))]
            })),
            false,
        )
    }

    /// Reshapes a variable (gradient is reshaped back).
    pub fn reshape(&self, a: Var, dims: &[usize]) -> Var {
        let av = self.value(a);
        let orig: Vec<usize> = av.dims().to_vec();
        let out = av.reshape(dims);
        let aid = a.id;
        self.push(
            out,
            Some(Box::new(move |g| vec![(aid, g.reshape(&orig))])),
            false,
        )
    }

    // --- Backward pass ---------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar `loss` node.
    ///
    /// After this call, [`Tape::grad`] returns gradients for every node that
    /// participated in the computation of `loss`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a single-element tensor.
    pub fn backward(&self, loss: Var) {
        let nodes = self.nodes.borrow();
        assert_eq!(
            nodes[loss.id].value.numel(),
            1,
            "backward() requires a scalar loss"
        );
        let mut grads: Vec<Option<Tensor>> = vec![None; nodes.len()];
        grads[loss.id] = Some(Tensor::scalar(1.0));
        for id in (0..=loss.id).rev() {
            // Take the gradient out instead of cloning it; the backward
            // closure only reads it, and it is restored right after.
            let Some(g) = grads[id].take() else {
                continue;
            };
            if let Some(backward) = &nodes[id].backward {
                for (pid, pg) in backward(&g) {
                    match &mut grads[pid] {
                        Some(existing) => {
                            ops::add_assign(existing, &pg);
                            self.ws.borrow_mut().recycle(pg);
                        }
                        slot @ None => *slot = Some(pg),
                    }
                }
            }
            grads[id] = Some(g);
        }
        let old = std::mem::replace(&mut *self.grads.borrow_mut(), grads);
        let mut ws = self.ws.borrow_mut();
        for g in old.into_iter().flatten() {
            ws.recycle(g);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerically checks d(loss)/d(param) by central differences.
    fn finite_diff_check(
        build: impl Fn(&Tape, Var) -> Var,
        param: Tensor,
        tol: f32,
    ) {
        let tape = Tape::new();
        let p = tape.param(param.clone());
        let loss = build(&tape, p);
        tape.backward(loss);
        let analytic = tape.grad(p).expect("param grad missing");

        let eps = 1e-3f32;
        for i in 0..param.numel() {
            let mut plus = param.clone();
            plus.data_mut()[i] += eps;
            let mut minus = param.clone();
            minus.data_mut()[i] -= eps;
            let tp = Tape::new();
            let lp = build(&tp, tp.param(plus));
            let tm = Tape::new();
            let lm = build(&tm, tm.param(minus));
            let numeric = (tp.value(lp).item() - tm.value(lm).item()) / (2.0 * eps);
            let a = analytic.data()[i];
            assert!(
                (a - numeric).abs() < tol * (1.0 + numeric.abs()),
                "grad[{i}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn matmul_gradient() {
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0, 0.3, 1.5, -0.7], &[2, 3]);
        finite_diff_check(
            |t, p| {
                let x = t.input(Tensor::from_vec(
                    vec![1.0, 2.0, -1.0, 0.5, 0.0, 1.0],
                    &[2, 3],
                ));
                let prod = t.matmul(x, t.reshape(p, &[3, 2]));
                t.sum(prod)
            },
            x.reshape(&[6]),
            1e-2,
        );
    }

    #[test]
    fn elementwise_chain_gradient() {
        let p = Tensor::from_vec(vec![0.2, -0.4, 1.1, 0.9], &[2, 2]);
        finite_diff_check(
            |t, p| {
                let s = t.sigmoid(p);
                let h = t.tanh(s);
                let r = t.leaky_relu(h, 0.2);
                t.mean(r)
            },
            p,
            1e-2,
        );
    }

    #[test]
    fn gather_gradient() {
        let p = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        finite_diff_check(
            |t, p| {
                let g = t.gather_rows(p, vec![0, 2, 2, 1]);
                let sq = t.mul(g, g);
                t.sum(sq)
            },
            p,
            1e-2,
        );
    }

    #[test]
    fn custom_node_gradient() {
        // A scatter-add recorded as a custom node: its adjoint is a gather.
        let p = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        finite_diff_check(
            |t, p| {
                let idx = [0u32, 1, 0];
                let value = ops::index_add_rows(2, &t.value(p), &idx);
                let s = t.custom(value, move |g| vec![(p, ops::gather_rows(g, &idx))]);
                let sq = t.mul(s, s);
                t.sum(sq)
            },
            p,
            1e-2,
        );
    }

    #[test]
    fn segment_softmax_gradient() {
        let p = Tensor::from_vec(vec![0.1, 0.7, -0.3, 0.5, 0.2], &[5]);
        finite_diff_check(
            |t, p| {
                let sm = t.segment_softmax(p, vec![0, 0, 1, 1, 1], 2);
                let w = t.input(Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5, 1.5], &[5]));
                let prod = t.mul(sm, w);
                t.sum(prod)
            },
            p,
            1e-2,
        );
    }

    #[test]
    fn scale_rows_const_gradient() {
        let p = Tensor::from_vec(vec![1.0, 2.0, -1.0, 0.5, 3.0, -2.0], &[3, 2]);
        finite_diff_check(
            |t, p| {
                let s = Tensor::from_vec(vec![0.5, -1.5, 2.0], &[3]);
                let scaled = t.scale_rows_const(p, s);
                let sq = t.mul(scaled, scaled);
                t.sum(sq)
            },
            p,
            1e-2,
        );
    }

    #[test]
    fn cross_entropy_gradient() {
        let p = Tensor::from_vec(vec![0.3, -0.2, 0.8, -0.5, 0.1, 0.4], &[2, 3]);
        finite_diff_check(|t, p| t.cross_entropy(p, vec![2, 0]), p, 1e-2);
    }

    #[test]
    fn bias_and_concat_gradient() {
        let p = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        finite_diff_check(
            |t, p| {
                let x = t.input(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
                let y = t.add_bias(x, p);
                let c = t.concat_cols(y, x);
                let sq = t.mul(c, c);
                t.sum(sq)
            },
            p,
            1e-2,
        );
    }

    #[test]
    fn grad_accumulates_over_reuse() {
        // p used twice: grad must be the sum of both paths.
        let tape = Tape::new();
        let p = tape.param(Tensor::from_vec(vec![3.0], &[1, 1]));
        let doubled = tape.add(p, p);
        let loss = tape.sum(doubled);
        tape.backward(loss);
        assert_eq!(tape.grad(p).unwrap().data(), &[2.0]);
    }

    #[test]
    fn unused_nodes_have_no_grad() {
        let tape = Tape::new();
        let a = tape.param(Tensor::scalar(1.0));
        let b = tape.param(Tensor::scalar(2.0));
        let loss = tape.sum(a);
        tape.backward(loss);
        assert!(tape.grad(a).is_some());
        assert!(tape.grad(b).is_none());
    }

    #[test]
    fn param_ids_in_order() {
        let tape = Tape::new();
        let a = tape.param(Tensor::scalar(0.0));
        let _x = tape.input(Tensor::scalar(0.0));
        let b = tape.param(Tensor::scalar(0.0));
        assert_eq!(tape.param_ids(), vec![a.id(), b.id()]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let a = tape.param(Tensor::zeros(&[2, 2]));
        tape.backward(a);
    }
}
