//! Tape-based reverse-mode automatic differentiation.
//!
//! The [`Tape`] records every operation applied to [`Var`] handles; calling
//! [`Tape::backward`] propagates gradients from a scalar loss back to every
//! recorded parameter. A fresh tape is built for every training iteration,
//! while the parameter tensors themselves live in the model and are fed in
//! via [`Tape::param`].
//!
//! Backward does only the work a parameter's gradient depends on. A node
//! *needs a gradient* when it is a parameter or one of its inputs needs
//! one, so an [`Tape::input`] and everything computed from inputs alone
//! need none. Only a node that needs a gradient records a backward closure,
//! and it returns gradients for the inputs that need them. A GNN's first
//! layer, whose operand is the feature matrix, thus computes no `dX` and
//! runs no backward aggregation. A closure copies no operand when it is
//! recorded: it reads the forward values its gradients need from the tape
//! when backward runs, through a [`Ctx`].
//!
//! Each tape owns a [`Workspace`]: node outputs (and the widest gradients,
//! RGCN's `[V, T·F]` ones) are written into pooled buffers, and
//! [`Tape::finish`] recycles every node value and gradient back into the
//! pool so the next iteration's tape (built with [`Tape::with_workspace`])
//! allocates almost nothing. Because pooled
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

type BackwardFn = Box<dyn Fn(&Tensor, &Ctx) -> Vec<(usize, Tensor)>>;

/// What an op reads besides the upstream gradient: the forward values of
/// the tape's nodes, in place, and zeroed buffers from the tape's
/// workspace for the values and gradients it returns. Every backward
/// closure gets one, and so do both closures of a [`Tape::custom`] node.
pub struct Ctx<'a> {
    nodes: &'a [Node],
    ws: &'a RefCell<Workspace>,
}

impl Ctx<'_> {
    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.id].value
    }

    /// A zeroed tensor from the tape's workspace, recycled into the pool
    /// with the tape's own buffers.
    pub fn zeros(&self, dims: &[usize]) -> Tensor {
        self.ws.borrow_mut().take_tensor(dims)
    }
}

struct Node {
    value: Tensor,
    /// `Some` exactly for an op node that needs a gradient.
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

    /// Checks out an output shaped like `a` and fills it with `f(a, out)`.
    fn elementwise(&self, a: Var, f: impl FnOnce(&Tensor, &mut [f32])) -> Tensor {
        let nodes = self.nodes.borrow();
        let av = &nodes[a.id].value;
        let mut out = self.alloc(av.dims());
        f(av, out.data_mut());
        out
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

    /// Whether `v` needs a gradient: it is a parameter, or an op node with
    /// an input that needs one.
    fn needs_grad(&self, v: Var) -> bool {
        let node = &self.nodes.borrow()[v.id];
        node.is_param || node.backward.is_some()
    }

    /// Records `value`, the output of an op over `inputs`. The node needs a
    /// gradient when one of `inputs` does, and only then is `backward`
    /// called — with which inputs need one, and the node itself — to
    /// build its closure, which returns gradients for those inputs alone.
    fn record(
        &self,
        value: Tensor,
        inputs: &[Var],
        backward: impl FnOnce(&[bool], Var) -> BackwardFn,
    ) -> Var {
        let needs: Vec<bool> = inputs.iter().map(|&v| self.needs_grad(v)).collect();
        let id = self.nodes.borrow().len();
        let backward = needs.contains(&true).then(|| backward(&needs, Var { id }));
        self.push(value, backward, false)
    }

    /// Records a constant input: it needs no gradient, and neither does a
    /// node computed from inputs alone.
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

    /// Returns the gradient of the last `backward` call with respect to `v`:
    /// `None` unless a parameter flows into `v` (or `v` is one) and `v`
    /// flows into the loss.
    pub fn grad(&self, v: Var) -> Option<Tensor> {
        self.grads.borrow().get(v.id).cloned().flatten()
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
        let mut out;
        {
            let nodes = self.nodes.borrow();
            let (av, bv) = (&nodes[a.id].value, &nodes[b.id].value);
            assert_eq!(av.shape().rank(), 2, "matmul lhs must be rank-2");
            assert_eq!(bv.shape().rank(), 2, "matmul rhs must be rank-2");
            out = self.alloc(&[av.dims()[0], bv.dims()[1]]);
            ops::matmul_split_into(av, bv, out.data_mut());
        }
        self.record(out, &[a, b], |needs, _| {
            let (da, db) = (needs[0], needs[1]);
            Box::new(move |g, ctx| {
                [
                    da.then(|| (a.id, ops::matmul_a_bt(g, ctx.value(b)))),
                    db.then(|| (b.id, ops::matmul_at_b(ctx.value(a), g))),
                ]
                .into_iter()
                .flatten()
                .collect()
            })
        })
    }

    /// `Σᵢ aᵢ[:, cᵢ..cᵢ + kᵢ] · wᵢ` over `terms` `(aᵢ, cᵢ, wᵢ)`, `wᵢ`
    /// `[kᵢ, n]`: each product reads its column slice of `aᵢ` in place, is
    /// computed from zero as [`Tape::matmul`] computes it, and is added to
    /// the sum of the ones before. So the value, and each gradient slice,
    /// has the bits of that chain of `matmul` and [`Tape::add`] nodes, in
    /// one node. RGCN's projection `h · W_self + Σ_t agg[:, t·F..] · W_t`
    /// is one.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty or a shape does not fit.
    pub fn matmul_sum(&self, terms: &[(Var, usize, Var)]) -> Var {
        let mut out;
        // Per term: the width of `A` and the rows of `W`.
        let shapes: Vec<[usize; 2]>;
        {
            let nodes = self.nodes.borrow();
            let values: Vec<(&Tensor, usize, &Tensor)> = terms
                .iter()
                .map(|&(a, col, w)| (&nodes[a.id].value, col, &nodes[w.id].value))
                .collect();
            let (a, _, w) = values.first().expect("a sum of at least one product");
            out = self.alloc(&[a.dims()[0], w.dims()[1]]);
            ops::matmul_sum_into(&values, out.data_mut());
            shapes = values
                .iter()
                .map(|(a, _, w)| [a.dims()[1], w.dims()[0]])
                .collect();
        }
        let inputs: Vec<Var> = terms.iter().flat_map(|&(a, _, w)| [a, w]).collect();
        let terms = terms.to_vec();
        self.record(out, &inputs, |needs, _| {
            let (da, dw): (Vec<bool>, Vec<bool>) = needs.chunks(2).map(|n| (n[0], n[1])).unzip();
            Box::new(move |g, ctx| {
                let mut grads = Vec::new();
                // One gradient per distinct `A`: its terms' column slices,
                // filled by one split of its rows.
                for (i, &(a, _, _)) in terms.iter().enumerate() {
                    if da[i] && !terms[..i].iter().any(|(b, _, _)| b.id == a.id) {
                        let slices: Vec<(usize, &Tensor)> = terms
                            .iter()
                            .filter(|(b, _, _)| b.id == a.id)
                            .map(|&(_, col, w)| (col, ctx.value(w)))
                            .collect();
                        let mut d = ctx.zeros(&[g.dims()[0], shapes[i][0]]);
                        ops::matmul_a_bt_cols_into(g, &slices, &mut d);
                        grads.push((a.id, d));
                    }
                }
                for (i, &(a, col, w)) in terms.iter().enumerate() {
                    if dw[i] {
                        let cols = col..col + shapes[i][1];
                        grads.push((w.id, ops::matmul_at_b_cols(ctx.value(a), cols, g)));
                    }
                }
                grads
            })
        })
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
        self.record(out, &[a, b], |needs, _| {
            let (da, db, aid, bid) = (needs[0], needs[1], a.id, b.id);
            Box::new(move |g, _| {
                [da.then(|| (aid, g.clone())), db.then(|| (bid, g.clone()))]
                    .into_iter()
                    .flatten()
                    .collect()
            })
        })
    }

    /// Element-wise product of two same-shaped variables.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let mut out;
        {
            let nodes = self.nodes.borrow();
            let (av, bv) = (&nodes[a.id].value, &nodes[b.id].value);
            out = self.alloc(av.dims());
            ops::mul_into(av, bv, out.data_mut());
        }
        self.record(out, &[a, b], |needs, _| {
            let (da, db) = (needs[0], needs[1]);
            Box::new(move |g, ctx| {
                [
                    da.then(|| (a.id, ops::mul(g, ctx.value(b)))),
                    db.then(|| (b.id, ops::mul(g, ctx.value(a)))),
                ]
                .into_iter()
                .flatten()
                .collect()
            })
        })
    }

    /// Multiplies a variable by a scalar constant.
    pub fn scale(&self, a: Var, s: f32) -> Var {
        let out = self.elementwise(a, |av, out| ops::scale_into(av, s, out));
        let aid = a.id;
        self.record(out, &[a], |_, _| {
            Box::new(move |g, _| vec![(aid, ops::scale(g, s))])
        })
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
        self.record(out, &[x, bias], |needs, _| {
            let (dx, db, xid, bid) = (needs[0], needs[1], x.id, bias.id);
            Box::new(move |g, _| {
                [
                    dx.then(|| (xid, g.clone())),
                    db.then(|| (bid, ops::sum_rows(g))),
                ]
                .into_iter()
                .flatten()
                .collect()
            })
        })
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        let out = self.elementwise(a, ops::relu_into);
        self.record(out, &[a], |_, _| {
            Box::new(move |g, ctx| {
                let relu = |g: f32, x: f32| g * if x > 0.0 { 1.0 } else { 0.0 };
                let d = ops::zip_map(g, ctx.value(a), relu);
                vec![(a.id, d)]
            })
        })
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&self, a: Var, slope: f32) -> Var {
        let out = self.elementwise(a, |av, out| ops::leaky_relu_into(av, slope, out));
        self.record(out, &[a], |_, _| {
            Box::new(move |g, ctx| {
                let leaky = |g: f32, x: f32| g * if x >= 0.0 { 1.0 } else { slope };
                let d = ops::zip_map(g, ctx.value(a), leaky);
                vec![(a.id, d)]
            })
        })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        let out = self.elementwise(a, ops::sigmoid_into);
        self.record(out, &[a], |_, y| {
            Box::new(move |g, ctx| {
                let d = ops::zip_map(g, ctx.value(y), |g, y| g * (y * (1.0 - y)));
                vec![(a.id, d)]
            })
        })
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        let out = self.elementwise(a, ops::tanh_into);
        self.record(out, &[a], |_, y| {
            Box::new(move |g, ctx| {
                let d = ops::zip_map(g, ctx.value(y), |g, y| g * (1.0 - y * y));
                vec![(a.id, d)]
            })
        })
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
        self.record(out, &[x], |_, _| {
            Box::new(move |g, _| vec![(xid, ops::index_add_rows(rows, g, &idx))])
        })
    }

    /// Records an op over `inputs` that the tape does not implement
    /// itself: graph aggregation, which walks the graph's CSR rows on both
    /// passes, is the one that uses it. `forward` returns the node's value
    /// and `backward` maps the upstream gradient to `(input, gradient)`
    /// pairs; both get the [`Ctx`] the tape's own ops get, so they read
    /// their operands in place and take what they return from
    /// [`Ctx::zeros`]. Like every op, the node keeps `backward` only when
    /// one of `inputs` needs a gradient, and the tape keeps only the pairs
    /// of inputs that need one. `forward` must not record on the tape.
    pub fn custom(
        &self,
        inputs: &[Var],
        forward: impl FnOnce(&Ctx) -> Tensor,
        backward: impl Fn(&Tensor, &Ctx) -> Vec<(Var, Tensor)> + 'static,
    ) -> Var {
        let value = forward(&Ctx {
            nodes: &self.nodes.borrow(),
            ws: &self.ws,
        });
        self.record(value, inputs, |needs, _| {
            let needed: Vec<usize> = inputs
                .iter()
                .zip(needs)
                .filter(|&(_, &n)| n)
                .map(|(v, _)| v.id)
                .collect();
            Box::new(move |g, ctx| {
                backward(g, ctx)
                    .into_iter()
                    .map(|(v, t)| (v.id, t))
                    .filter(|(id, _)| needed.contains(id))
                    .collect()
            })
        })
    }

    /// Scales row `i` by the constant `s[i]` (e.g. 1/degree normalization).
    pub fn scale_rows_const(&self, x: Var, s: Tensor) -> Var {
        let out = self.elementwise(x, |xv, out| ops::scale_rows_into(xv, &s, out));
        let xid = x.id;
        self.record(out, &[x], |_, _| {
            Box::new(move |g, ctx| {
                let mut d = ctx.zeros(g.dims());
                ops::scale_rows_into(g, &s, d.data_mut());
                vec![(xid, d)]
            })
        })
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
        let sid = scores.id;
        self.record(out, &[scores], |_, y| {
            Box::new(move |g, ctx| {
                // dL/ds_i = y_i * (g_i - Σ_{j∈seg(i)} y_j g_j)
                let y = ctx.value(y).data();
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
                vec![(sid, Tensor::from_vec(grad, g.dims()))]
            })
        })
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
        self.record(out, &[a, b], |needs, _| {
            let (da, db, aid, bid) = (needs[0], needs[1], a.id, b.id);
            Box::new(move |g, _| {
                // Columns `from..from + width` of `g`.
                let columns = |from: usize, width: usize| {
                    let m = g.dims()[0];
                    let mut part = vec![0.0f32; m * width];
                    for i in 0..m {
                        part[i * width..(i + 1) * width]
                            .copy_from_slice(&g.row(i)[from..from + width]);
                    }
                    Tensor::from_vec(part, &[m, width])
                };
                [
                    da.then(|| (aid, columns(0, n1))),
                    db.then(|| (bid, columns(n1, n2))),
                ]
                .into_iter()
                .flatten()
                .collect()
            })
        })
    }

    /// Sums all elements into a scalar.
    pub fn sum(&self, a: Var) -> Var {
        let (out, dims) = {
            let av = &self.nodes.borrow()[a.id].value;
            (ops::sum(av), av.dims().to_vec())
        };
        let aid = a.id;
        self.record(out, &[a], |_, _| {
            Box::new(move |g, _| vec![(aid, Tensor::full(&dims, g.item()))])
        })
    }

    /// Averages all elements into a scalar.
    pub fn mean(&self, a: Var) -> Var {
        let (out, dims) = {
            let av = &self.nodes.borrow()[a.id].value;
            (ops::mean(av), av.dims().to_vec())
        };
        let n = dims.iter().product::<usize>() as f32;
        let aid = a.id;
        self.record(out, &[a], |_, _| {
            Box::new(move |g, _| vec![(aid, Tensor::full(&dims, g.item() / n))])
        })
    }

    /// Mean cross-entropy loss over rows of `logits` against integer labels.
    pub fn cross_entropy(&self, logits: Var, labels: Vec<u32>) -> Var {
        let (loss, dlogits) =
            ops::cross_entropy_with_grad(&self.nodes.borrow()[logits.id].value, &labels);
        let lid = logits.id;
        self.record(Tensor::scalar(loss), &[logits], |_, _| {
            Box::new(move |g, _| vec![(lid, ops::scale(&dlogits, g.item()))])
        })
    }

    /// Reshapes a variable (gradient is reshaped back).
    pub fn reshape(&self, a: Var, dims: &[usize]) -> Var {
        let (out, orig) = {
            let av = &self.nodes.borrow()[a.id].value;
            (av.reshape(dims), av.dims().to_vec())
        };
        let aid = a.id;
        self.record(out, &[a], |_, _| {
            Box::new(move |g, _| vec![(aid, g.reshape(&orig))])
        })
    }

    // --- Backward pass ---------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar `loss` node.
    ///
    /// Only nodes that a parameter flows into get gradients: after this
    /// call, [`Tape::grad`] returns one for every parameter and every op
    /// node between a parameter and `loss`, and `None` for an input or a
    /// node computed from inputs alone, whose gradient no parameter reads.
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
        if self.needs_grad(loss) {
            grads[loss.id] = Some(Tensor::scalar(1.0));
        }
        for id in (0..=loss.id).rev() {
            // Take the gradient out instead of cloning it; the backward
            // closure only reads it, and it is restored right after.
            let Some(g) = grads[id].take() else {
                continue;
            };
            if let Some(backward) = &nodes[id].backward {
                let ctx = Ctx {
                    nodes: &nodes,
                    ws: &self.ws,
                };
                for (pid, pg) in backward(&g, &ctx) {
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
                let s = t.custom(
                    &[p],
                    |ctx| {
                        let mut out = ctx.zeros(&[2, 2]);
                        ops::index_add_rows_into(2, ctx.value(p), &idx, out.data_mut());
                        out
                    },
                    move |g, _| vec![(p, ops::gather_rows(g, &idx))],
                );
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
    fn a_chain_on_inputs_alone_records_no_backward() {
        let tape = Tape::new();
        let x = tape.input(Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[2, 2]));
        let w = tape.param(Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.0], &[2, 2]));
        let h = tape.relu(tape.scale(x, 2.0));
        let c = tape.custom(
            &[x, h],
            |ctx| ctx.value(x).clone(),
            |_, _| panic!("a node over inputs alone runs no backward"),
        );
        let y = tape.matmul(tape.add(h, c), w);
        let loss = tape.sum(y);
        let nodes = tape.nodes.borrow();
        assert!((x.id..w.id).all(|id| nodes[id].backward.is_none()));
        assert!((w.id + 1..c.id + 1).all(|id| nodes[id].backward.is_none()));
        assert!(nodes[y.id].backward.is_some());
        drop(nodes);
        tape.backward(loss);
        for v in [x, h, c] {
            assert!(tape.grad(v).is_none(), "node {} has a gradient", v.id);
        }
        assert!(tape.grad(w).is_some());
        assert!(tape.grad(y).is_some());
    }

    #[test]
    fn matmul_products_equal_the_serial_skipping_kernel() {
        // Big enough for the products to split across the cores; ReLU
        // zeros in `A` and zeros in the upstream gradient.
        let (m, k, n) = (4099, 64, 33);
        let draw = |len: usize, seed: u64| {
            let mut t = crate::init::uniform_tensor(&[len], -1.0, 1.0, seed).into_vec();
            t.iter_mut().skip(3).step_by(11).for_each(|x| *x = -0.0);
            t
        };
        let a: Vec<f32> = draw(m * k, 1).into_iter().map(|x| x.max(0.0)).collect();
        let (w, g) = (draw(k * n, 2), draw(m * n, 3));
        let tape = Tape::new();
        let av = tape.param(Tensor::from_vec(a.clone(), &[m, k]));
        let wv = tape.param(Tensor::from_vec(w.clone(), &[k, n]));
        let y = tape.matmul(av, wv);
        // d(sum(y * g))/dy == g, bit for bit.
        let loss = tape.sum(tape.mul(y, tape.input(Tensor::from_vec(g.clone(), &[m, n]))));
        tape.backward(loss);

        let serial = |x: &[f32], y: &[f32], [m, k, n]: [usize; 3]| {
            let mut out = vec![0.0; m * n];
            ops::matmul_strided_into(x, y, [m, k, n], &mut out, n);
            out
        };
        let transpose = |x: &[f32], [rows, cols]: [usize; 2]| {
            let t = (0..rows * cols).map(|i| x[(i % rows) * cols + i / rows]);
            t.collect::<Vec<f32>>()
        };
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(tape.value(y).data()), bits(&serial(&a, &w, [m, k, n])));
        let da = serial(&g, &transpose(&w, [k, n]), [m, n, k]);
        assert_eq!(bits(tape.grad(av).unwrap().data()), bits(&da));
        let dw = serial(&transpose(&a, [m, k]), &g, [k, m, n]);
        assert_eq!(bits(tape.grad(wv).unwrap().data()), bits(&dw));
    }

    /// `matmul_sum` against the chain of `matmul` and `add` nodes it
    /// replaces, on column-slice copies, bit for bit: the value, each
    /// weight's gradient and each operand's gradient, its slices laid side
    /// by side. One operand feeds two terms, the other one; the first
    /// shape splits across the cores, the second does not.
    #[test]
    fn matmul_sum_is_the_chain_of_products_and_adds() {
        for (m, k, n) in [(4099, 24, 33), (5, 3, 2)] {
            let draw = |dims: &[usize], seed: u64| {
                let mut t = crate::init::uniform_tensor(dims, -1.0, 1.0, seed);
                t.data_mut()
                    .iter_mut()
                    .step_by(3)
                    .for_each(|x| *x = x.max(0.0));
                t
            };
            let (x, a) = (draw(&[m, k], 1), draw(&[m, 2 * k + 1], 2));
            let ws = [draw(&[k, n], 3), draw(&[k, n], 4), draw(&[k, n], 5)];
            let g = draw(&[m, n], 6);
            let cols = |t: &Tensor, from: usize| {
                let data = (0..m)
                    .flat_map(|i| t.row(i)[from..from + k].to_vec())
                    .collect();
                Tensor::from_vec(data, &[m, k])
            };
            // `loss = Σ y ⊙ g` over `y(tape, x, a, [W])`; returns
            // `(y, [dW], dx, da)`.
            type Y<'a> = &'a dyn Fn(&Tape, Var, Var, [Var; 3]) -> Var;
            let run = |y: Y| {
                let tape = Tape::new();
                let (xv, av) = (tape.param(x.clone()), tape.param(a.clone()));
                let wv = ws.clone().map(|w| tape.param(w));
                let y = y(&tape, xv, av, wv);
                tape.backward(tape.sum(tape.mul(y, tape.input(g.clone()))));
                let dw = wv.map(|w| tape.grad(w).unwrap());
                let (y, dx, da) = (tape.value(y), tape.grad(xv).unwrap(), tape.grad(av));
                (y, dw, dx, da)
            };
            let fused = run(&|tape, xv, av, wv| {
                tape.matmul_sum(&[(xv, 0, wv[0]), (av, 1, wv[1]), (av, k + 1, wv[2])])
            });
            let chain = run(&|tape, xv, _, wv| {
                let a1 = tape.input(cols(&a, 1));
                let a2 = tape.input(cols(&a, k + 1));
                let sum = tape.add(tape.matmul(xv, wv[0]), tape.matmul(a1, wv[1]));
                tape.add(sum, tape.matmul(a2, wv[2]))
            });
            // The chain's gradient of each slice, `g · Wᵀ`, laid side by side.
            let (d1, d2) = (ops::matmul_a_bt(&g, &ws[1]), ops::matmul_a_bt(&g, &ws[2]));
            let mut da = vec![0.0f32; m * (2 * k + 1)];
            for i in 0..m {
                da[i * (2 * k + 1) + 1..][..k].copy_from_slice(d1.row(i));
                da[i * (2 * k + 1) + k + 1..][..k].copy_from_slice(d2.row(i));
            }
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            assert_eq!(bits(&fused.0), bits(&chain.0), "{m}x{n}: value");
            for (i, (f, c)) in fused.1.iter().zip(&chain.1).enumerate() {
                assert_eq!(bits(f), bits(c), "{m}x{n}: dW{i}");
            }
            assert_eq!(bits(&fused.2), bits(&chain.2), "{m}x{n}: dx");
            assert_eq!(
                bits(&fused.3.unwrap()),
                bits(&Tensor::from_vec(da, &[m, 2 * k + 1]))
            );
        }
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn backward_requires_scalar() {
        let tape = Tape::new();
        let a = tape.param(Tensor::zeros(&[2, 2]));
        tape.backward(a);
    }
}
