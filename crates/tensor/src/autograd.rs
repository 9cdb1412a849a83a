//! Tape-based reverse-mode automatic differentiation.
//!
//! The [`Tape`] records every operation applied to [`Var`] handles; calling
//! [`Tape::backward`] propagates gradients from a scalar loss back to every
//! recorded parameter. A fresh tape is built for every training iteration,
//! while the parameter tensors themselves live in the model and are fed in
//! via [`Tape::param`].
//!
//! Every op node is recorded one way, by [`Tape::record`]: the tape's own
//! ops and the graph aggregations of `wisegraph-kernels` alike. An op reads
//! its operands in place and returns its value with its backward closure;
//! the closure reads the forward values its gradients need from the tape
//! when backward runs, so no operand is copied.
//!
//! Backward does only the work a parameter's gradient depends on. A node
//! *needs a gradient* when it is a parameter or one of its inputs needs
//! one, so an [`Tape::input`] and everything computed from inputs alone
//! need none. Only a node that needs a gradient keeps its backward closure,
//! and the closure returns gradients for the inputs that need them
//! ([`Ctx::grad`]). A GNN's first layer, whose operand is the feature
//! matrix, thus computes no `dX` and runs no backward aggregation.
//!
//! Each tape owns a [`Workspace`], and every tensor the tape keeps — node
//! values, gradients, the loss seed — is leased from it through a [`Ctx`];
//! only the tensors passed to [`Tape::input`] and [`Tape::param`] are not.
//! Backward hands an op node's gradient back to the pool as soon as it has
//! reached the node's inputs, so the rest of the pass leases it again, and
//! keeps the parameters' alone. [`Tape::finish`] recycles the rest into the
//! pool, so the next iteration's tape (built with
//! [`Tape::with_workspace`]) finds every buffer it needs parked. Because
//! pooled buffers are zero-filled on checkout and every op writes through
//! the `ops` `_into` kernels, a workspace-fed tape is bit-identical to a
//! fresh one.

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

type BackwardFn = Box<dyn Fn(&Tensor, &Ctx) -> Vec<(Var, Tensor)>>;

/// What an op reads and where it takes its tensors: the forward values of
/// the tape's nodes, in place, and zeroed buffers from the tape's
/// workspace. [`Tape::record`] hands one to an op when it runs forward and
/// one to its backward closure.
pub struct Ctx<'a> {
    nodes: &'a [Node],
    ws: &'a RefCell<Workspace>,
    /// The node being recorded (not on the tape yet) or differentiated.
    node: usize,
}

impl Ctx<'_> {
    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.id].value
    }

    /// The op's own forward value, for its backward closure.
    ///
    /// # Panics
    ///
    /// Panics when called while the op runs forward.
    pub fn output(&self) -> &Tensor {
        let node = self.nodes.get(self.node);
        &node.expect("an op reads its output only in backward").value
    }

    /// A zeroed tensor from the tape's workspace, recycled into the pool
    /// with the tape's own buffers.
    pub fn zeros(&self, dims: &[usize]) -> Tensor {
        self.ws.borrow_mut().take_tensor(dims)
    }

    /// The gradient for the input `v`, paired with it, when `v` needs one:
    /// a zeroed tensor from the workspace shaped like `v`'s value, filled
    /// by `fill`. `None`, and `fill` is not run, when it needs none.
    pub fn grad(&self, v: Var, fill: impl FnOnce(&mut [f32])) -> Option<(Var, Tensor)> {
        self.nodes[v.id].needs_grad().then(|| {
            let mut d = self.zeros(self.value(v).dims());
            fill(d.data_mut());
            (v, d)
        })
    }
}

struct Node {
    value: Tensor,
    /// `Some` exactly for an op node that needs a gradient.
    backward: Option<BackwardFn>,
    is_param: bool,
}

impl Node {
    /// Whether the node needs a gradient: it is a parameter, or an op
    /// node with an input that needs one.
    fn needs_grad(&self) -> bool {
        self.is_param || self.backward.is_some()
    }
}

/// The gradients a backward closure returns, one per input that needs one.
fn grads<const N: usize>(grads: [Option<(Var, Tensor)>; N]) -> Vec<(Var, Tensor)> {
    grads.into_iter().flatten().collect()
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
    /// values and gradients reuse buffers recycled by a previous tape's
    /// [`Tape::finish`].
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

    fn push(&self, node: Node) -> Var {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(node);
        Var {
            id: nodes.len() - 1,
        }
    }

    /// Records an op over `inputs`: every op node gets on the tape this
    /// way, the tape's own ops and the graph aggregations of
    /// `wisegraph-kernels` alike.
    ///
    /// `op` reads its operands through the [`Ctx`] it is given and returns
    /// the node's value, taken from [`Ctx::zeros`], with its backward
    /// closure. The closure maps the upstream gradient to `(input,
    /// gradient)` pairs, each from [`Ctx::grad`], so it returns gradients
    /// for the inputs that need one alone; it may read the node's own
    /// value ([`Ctx::output`]). The node keeps the closure only when one of
    /// `inputs` needs a gradient. `op` must not record on the tape.
    pub fn record<B>(&self, inputs: &[Var], op: impl FnOnce(&Ctx) -> (Tensor, B)) -> Var
    where
        B: Fn(&Tensor, &Ctx) -> Vec<(Var, Tensor)> + 'static,
    {
        let (value, backward) = {
            let nodes = self.nodes.borrow();
            let ctx = Ctx {
                nodes: &nodes,
                ws: &self.ws,
                node: nodes.len(),
            };
            let (value, backward) = op(&ctx);
            let needs = inputs.iter().any(|v| nodes[v.id].needs_grad());
            (value, needs.then(|| Box::new(backward) as BackwardFn))
        };
        self.push(Node {
            value,
            backward,
            is_param: false,
        })
    }

    /// Records a constant input: it needs no gradient, and neither does a
    /// node computed from inputs alone.
    pub fn input(&self, value: Tensor) -> Var {
        self.push(Node {
            value,
            backward: None,
            is_param: false,
        })
    }

    /// Records a trainable parameter; its gradient is kept after `backward`.
    pub fn param(&self, value: Tensor) -> Var {
        self.push(Node {
            value,
            backward: None,
            is_param: true,
        })
    }

    /// Returns a clone of the current value of `v`.
    pub fn value(&self, v: Var) -> Tensor {
        self.nodes.borrow()[v.id].value.clone()
    }

    /// Returns the gradient of the last `backward` call with respect to the
    /// parameter `v`: `None` if `v` does not flow into the loss, and for
    /// any node that is not a parameter.
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
        self.record(&[a, b], |ctx| {
            let (av, bv) = (ctx.value(a), ctx.value(b));
            assert_eq!(av.shape().rank(), 2, "matmul lhs must be rank-2");
            assert_eq!(bv.shape().rank(), 2, "matmul rhs must be rank-2");
            let mut out = ctx.zeros(&[av.dims()[0], bv.dims()[1]]);
            ops::matmul_split_into(av, bv, out.data_mut());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                grads([
                    ctx.grad(a, |d| ops::matmul_a_bt_into(g, ctx.value(b), d)),
                    ctx.grad(b, |d| ops::matmul_at_b_into(ctx.value(a), g, d)),
                ])
            };
            (out, backward)
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
        let inputs: Vec<Var> = terms.iter().flat_map(|&(a, _, w)| [a, w]).collect();
        let terms = terms.to_vec();
        self.record(&inputs, |ctx| {
            let values: Vec<(&Tensor, usize, &Tensor)> = terms
                .iter()
                .map(|&(a, col, w)| (ctx.value(a), col, ctx.value(w)))
                .collect();
            let (a, _, w) = values.first().expect("a sum of at least one product");
            let mut out = ctx.zeros(&[a.dims()[0], w.dims()[1]]);
            ops::matmul_sum_into(&values, out.data_mut());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                let mut grads = Vec::new();
                // One gradient per distinct `A`: its terms' column slices,
                // filled by one split of its rows.
                for (i, &(a, _, _)) in terms.iter().enumerate() {
                    if terms[..i].iter().any(|&(b, _, _)| b == a) {
                        continue;
                    }
                    let slices: Vec<(usize, &Tensor)> = terms
                        .iter()
                        .filter(|&&(b, _, _)| b == a)
                        .map(|&(_, col, w)| (col, ctx.value(w)))
                        .collect();
                    let width = ctx.value(a).dims()[1];
                    grads.extend(ctx.grad(a, |d| ops::matmul_a_bt_cols_into(g, &slices, d, width)));
                }
                for &(a, col, w) in &terms {
                    let cols = col..col + ctx.value(w).dims()[0];
                    let fill = |d: &mut [f32]| ops::matmul_at_b_cols_into(ctx.value(a), cols, g, d);
                    grads.extend(ctx.grad(w, fill));
                }
                grads
            };
            (out, backward)
        })
    }

    /// Element-wise sum of two same-shaped variables.
    pub fn add(&self, a: Var, b: Var) -> Var {
        self.record(&[a, b], |ctx| {
            let mut out = ctx.zeros(ctx.value(a).dims());
            ops::add_into(ctx.value(a), ctx.value(b), out.data_mut());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                grads([
                    ctx.grad(a, |d| d.copy_from_slice(g.data())),
                    ctx.grad(b, |d| d.copy_from_slice(g.data())),
                ])
            };
            (out, backward)
        })
    }

    /// Element-wise product of two same-shaped variables.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        self.record(&[a, b], |ctx| {
            let mut out = ctx.zeros(ctx.value(a).dims());
            ops::mul_into(ctx.value(a), ctx.value(b), out.data_mut());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                grads([
                    ctx.grad(a, |d| ops::mul_into(g, ctx.value(b), d)),
                    ctx.grad(b, |d| ops::mul_into(g, ctx.value(a), d)),
                ])
            };
            (out, backward)
        })
    }

    /// Adds a rank-1 bias to every row of a rank-2 variable.
    pub fn add_bias(&self, x: Var, bias: Var) -> Var {
        self.record(&[x, bias], |ctx| {
            let mut out = ctx.zeros(ctx.value(x).dims());
            ops::add_bias_into(ctx.value(x), ctx.value(bias), out.data_mut());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                grads([
                    ctx.grad(x, |d| d.copy_from_slice(g.data())),
                    ctx.grad(bias, |d| ops::sum_rows_into(g, d)),
                ])
            };
            (out, backward)
        })
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        self.record(&[a], |ctx| {
            let mut out = ctx.zeros(ctx.value(a).dims());
            ops::relu_into(ctx.value(a), out.data_mut());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                let relu = |g: f32, x: f32| g * if x > 0.0 { 1.0 } else { 0.0 };
                grads([ctx.grad(a, |d| ops::zip_map_into(g, ctx.value(a), d, relu))])
            };
            (out, backward)
        })
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&self, a: Var, slope: f32) -> Var {
        self.record(&[a], |ctx| {
            let mut out = ctx.zeros(ctx.value(a).dims());
            ops::leaky_relu_into(ctx.value(a), slope, out.data_mut());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                let leaky = |g: f32, x: f32| g * if x >= 0.0 { 1.0 } else { slope };
                grads([ctx.grad(a, |d| ops::zip_map_into(g, ctx.value(a), d, leaky))])
            };
            (out, backward)
        })
    }

    /// Gathers rows by index: the indexing operation of a GNN layer.
    pub fn gather_rows(&self, x: Var, idx: Vec<u32>) -> Var {
        self.record(&[x], |ctx| {
            let xv = ctx.value(x);
            assert_eq!(xv.shape().rank(), 2, "gather_rows input must be rank-2");
            let mut out = ctx.zeros(&[idx.len(), xv.dims()[1]]);
            ops::gather_rows_into(xv, &idx, out.data_mut());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                let rows = ctx.value(x).dims()[0];
                grads([ctx.grad(x, |d| ops::index_add_rows_into(rows, g, &idx, d))])
            };
            (out, backward)
        })
    }

    /// Scales row `i` by the constant `s[i]` (e.g. 1/degree normalization).
    pub fn scale_rows_const(&self, x: Var, s: Tensor) -> Var {
        self.record(&[x], |ctx| {
            let mut out = ctx.zeros(ctx.value(x).dims());
            ops::scale_rows_into(ctx.value(x), &s, out.data_mut());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                grads([ctx.grad(x, |d| ops::scale_rows_into(g, &s, d))])
            };
            (out, backward)
        })
    }

    /// Per-segment softmax of a rank-1 score vector (GAT edge attention).
    pub fn segment_softmax(&self, scores: Var, seg: Vec<u32>, num_segments: usize) -> Var {
        self.record(&[scores], |ctx| {
            let sv = ctx.value(scores);
            let mut out = ctx.zeros(&[sv.numel()]);
            ops::segment_softmax_into(sv, &seg, num_segments, out.data_mut());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                // dL/ds_i = y_i * (g_i - Σ_{j∈seg(i)} y_j g_j)
                let (y, gd) = (ctx.output().data(), g.data());
                let mut segdot = vec![0.0f32; num_segments];
                for (i, &s) in seg.iter().enumerate() {
                    segdot[s as usize] += y[i] * gd[i];
                }
                grads([ctx.grad(scores, |d| {
                    for (i, (o, &s)) in d.iter_mut().zip(&seg).enumerate() {
                        *o = y[i] * (gd[i] - segdot[s as usize]);
                    }
                })])
            };
            (out, backward)
        })
    }

    /// Sums all elements into a scalar.
    pub fn sum(&self, a: Var) -> Var {
        self.record(&[a], |ctx| {
            let mut out = ctx.zeros(&[]);
            out.data_mut()[0] = ctx.value(a).data().iter().sum();
            let backward = move |g: &Tensor, ctx: &Ctx| {
                grads([ctx.grad(a, |d| d.fill(g.item()))])
            };
            (out, backward)
        })
    }

    /// Mean cross-entropy loss over rows of `logits` against integer labels.
    pub fn cross_entropy(&self, logits: Var, labels: Vec<u32>) -> Var {
        self.record(&[logits], |ctx| {
            let mut out = ctx.zeros(&[]);
            out.data_mut()[0] = ops::cross_entropy(ctx.value(logits), &labels);
            let backward = move |g: &Tensor, ctx: &Ctx| {
                let scale = g.item();
                let grad = |d: &mut [f32]| {
                    ops::cross_entropy_grad_into(ctx.value(logits), &labels, scale, d)
                };
                grads([ctx.grad(logits, grad)])
            };
            (out, backward)
        })
    }

    /// Reshapes a variable (gradient is reshaped back).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, a: Var, dims: &[usize]) -> Var {
        self.record(&[a], |ctx| {
            let av = ctx.value(a);
            let mut out = ctx.zeros(dims);
            assert_eq!(
                out.numel(),
                av.numel(),
                "cannot reshape {} elements into shape {}",
                av.numel(),
                out.shape()
            );
            out.data_mut().copy_from_slice(av.data());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                grads([ctx.grad(a, |d| d.copy_from_slice(g.data()))])
            };
            (out, backward)
        })
    }

    // --- Backward pass ---------------------------------------------------

    /// Runs reverse-mode differentiation from the scalar `loss` node.
    ///
    /// Only nodes that a parameter flows into get gradients, and only a
    /// parameter's is kept: after this call, [`Tape::grad`] returns one for
    /// every parameter that flows into `loss`. An op node's gradient goes
    /// back to the pool as soon as it has been propagated to the node's
    /// inputs, and an input or a node computed from inputs alone, whose
    /// gradient no parameter reads, gets none.
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
        if nodes[loss.id].needs_grad() {
            let mut seed = self.ws.borrow_mut().take_tensor(&[]);
            seed.data_mut()[0] = 1.0;
            grads[loss.id] = Some(seed);
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
                    node: id,
                };
                for (v, d) in backward(&g, &ctx) {
                    match &mut grads[v.id] {
                        Some(acc) => {
                            ops::add_assign(acc, &d);
                            self.ws.borrow_mut().recycle(d);
                        }
                        slot @ None => *slot = Some(d),
                    }
                }
            }
            // Every consumer of node `id` comes after it, so its gradient is
            // complete here and, once propagated, read again only if it is
            // a parameter's: an op node's goes back to the pool, where the
            // rest of the pass can lease it again.
            if nodes[id].is_param {
                grads[id] = Some(g);
            } else {
                self.ws.borrow_mut().recycle(g);
            }
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
    fn finite_diff_check(name: &str, build: impl Fn(&Tape, Var) -> Var, param: Tensor) {
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
                (a - numeric).abs() < 1e-2 * (1.0 + numeric.abs()),
                "{name}: grad[{i}]: analytic {a} vs numeric {numeric}"
            );
        }
    }

    /// `[rows, cols]` of `data` as a tensor on `t`'s tape, an input.
    fn input(t: &Tape, data: &[f32], dims: &[usize]) -> Var {
        t.input(Tensor::from_vec(data.to_vec(), dims))
    }

    /// `Σ y ⊙ y`: a loss whose gradient w.r.t. `y` is `2y`.
    fn square_sum(t: &Tape, y: Var) -> Var {
        t.sum(t.mul(y, y))
    }

    /// A scatter-add recorded through [`Tape::record`]: its adjoint is a
    /// gather.
    fn scatter(t: &Tape, p: Var) -> Var {
        let idx = [0u32, 1, 0];
        t.record(&[p], |ctx| {
            let mut out = ctx.zeros(&[2, 2]);
            ops::index_add_rows_into(2, ctx.value(p), &idx, out.data_mut());
            let backward = move |g: &Tensor, ctx: &Ctx| {
                grads([ctx.grad(p, |d| ops::gather_rows_into(g, &idx, d))])
            };
            (out, backward)
        })
    }

    type Build = fn(&Tape, Var) -> Var;

    /// Every op the tape records, each differentiated w.r.t. the parameter
    /// in its row (both operands of the binary ops), against central
    /// differences.
    #[test]
    fn every_op_matches_finite_differences() {
        // Away from ReLU's kink by more than the step.
        const M23: &[f32] = &[0.5, -1.0, 2.0, 0.3, 1.5, -0.7];
        let cases: [(&str, Build, &[f32], &[usize]); 17] = [
            ("matmul lhs", |t, p| {
                let w = input(t, &[1.0, 2.0, -1.0, 0.5, 0.0, 1.0], &[3, 2]);
                square_sum(t, t.matmul(p, w))
            }, M23, &[2, 3]),
            ("matmul rhs", |t, p| {
                let x = input(t, &[1.0, 2.0, -1.0, 0.5, 0.0, 1.0], &[2, 3]);
                square_sum(t, t.matmul(x, p))
            }, M23, &[3, 2]),
            ("matmul_sum operand", |t, p| {
                // Two column slices of `p` and another operand.
                let w1 = input(t, &[1.0, -0.5, 0.25, 2.0], &[2, 2]);
                let w2 = input(t, &[0.5, 1.0, -1.0, 0.75], &[2, 2]);
                let x = input(t, &[0.2, -0.3, 0.4, 0.1], &[2, 2]);
                square_sum(t, t.matmul_sum(&[(p, 0, w1), (x, 0, w2), (p, 1, w2)]))
            }, M23, &[2, 3]),
            ("matmul_sum weight", |t, p| {
                let a = input(t, &[1.0, 2.0, -1.0, 0.5, 0.0, 1.0], &[2, 3]);
                let w = input(t, &[0.3, 0.1, -0.2, 0.4], &[2, 2]);
                square_sum(t, t.matmul_sum(&[(a, 1, p), (a, 0, w)]))
            }, &[0.5, -1.0, 2.0, 0.3], &[2, 2]),
            ("add", |t, p| {
                let x = input(t, M23, &[2, 3]);
                square_sum(t, t.add(x, p))
            }, &[1.0, 2.0, -1.0, 0.5, 0.0, 1.0], &[2, 3]),
            ("mul", |t, p| {
                let x = input(t, M23, &[2, 3]);
                square_sum(t, t.mul(p, x))
            }, &[1.0, 2.0, -1.0, 0.5, 0.0, 1.0], &[2, 3]),
            ("add_bias input", |t, p| {
                let b = input(t, &[0.5, -0.5, 1.0], &[3]);
                square_sum(t, t.add_bias(p, b))
            }, M23, &[2, 3]),
            ("add_bias bias", |t, p| {
                let x = input(t, M23, &[2, 3]);
                square_sum(t, t.add_bias(x, p))
            }, &[0.5, -0.5, 1.0], &[3]),
            ("relu", |t, p| {
                let w = input(t, &[1.0, -2.0, 3.0, 0.5, 1.5, -1.0], &[2, 3]);
                t.sum(t.mul(t.relu(p), w))
            }, M23, &[2, 3]),
            ("leaky_relu", |t, p| {
                let w = input(t, &[1.0, -2.0, 3.0, 0.5, 1.5, -1.0], &[2, 3]);
                t.sum(t.mul(t.leaky_relu(p, 0.2), w))
            }, M23, &[2, 3]),
            ("gather_rows", |t, p| {
                square_sum(t, t.gather_rows(p, vec![0, 2, 2, 1]))
            }, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]),
            ("scale_rows_const", |t, p| {
                let s = Tensor::from_vec(vec![0.5, -1.5, 2.0], &[3]);
                square_sum(t, t.scale_rows_const(p, s))
            }, &[1.0, 2.0, -1.0, 0.5, 3.0, -2.0], &[3, 2]),
            ("segment_softmax", |t, p| {
                let sm = t.segment_softmax(p, vec![0, 0, 1, 1, 1], 2);
                let w = input(t, &[1.0, -2.0, 3.0, 0.5, 1.5], &[5]);
                t.sum(t.mul(sm, w))
            }, &[0.1, 0.7, -0.3, 0.5, 0.2], &[5]),
            ("reshape", |t, p| {
                let w = input(t, &[1.0, -2.0, 3.0, 0.5, 1.5, -1.0], &[3, 2]);
                square_sum(t, t.mul(t.reshape(p, &[3, 2]), w))
            }, M23, &[2, 3]),
            ("sum", |t, p| t.sum(p), M23, &[2, 3]),
            ("cross_entropy", |t, p| {
                t.cross_entropy(p, vec![2, 0])
            }, &[0.3, -0.2, 0.8, -0.5, 0.1, 0.4], &[2, 3]),
            ("record", |t, p| square_sum(t, scatter(t, p)),
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]),
        ];
        for (name, build, data, dims) in cases {
            finite_diff_check(name, build, Tensor::from_vec(data.to_vec(), dims));
        }
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
        let h = tape.relu(tape.mul(x, x));
        let c = tape.record(&[x, h], |ctx| {
            let backward = |_: &Tensor, _: &Ctx| -> Vec<(Var, Tensor)> {
                panic!("a node over inputs alone runs no backward")
            };
            (ctx.value(x).clone(), backward)
        });
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
        // `y` needed a gradient, which went back to the pool once `w`'s
        // was computed from it.
        assert!(tape.grad(y).is_none());
    }

    /// Every tensor the tape keeps, apart from the caller's input and
    /// parameters, is leased from its workspace: on a fresh pool, the
    /// four values of `matmul → add_bias → relu → cross_entropy` and the
    /// six gradients (the loss seed, the ReLU output's, the biased
    /// product's, the product's, `dW` and `db`; the input needs none) are
    /// ten leases. Nine buffers are made: the product's gradient reuses
    /// the ReLU output's, which went back to the pool once propagated.
    #[test]
    fn every_tensor_the_tape_keeps_is_leased() {
        use wisegraph_obs::keys;
        let tape = Tape::new();
        let x = input(&tape, &[1.0, -2.0, 3.0, 0.5, 0.0, 1.0, -1.0, 2.0], &[4, 2]);
        let w = tape.param(Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.0, 0.25, -0.5], &[2, 3]));
        let b = tape.param(Tensor::from_vec(vec![0.1, -0.2, 0.3], &[3]));
        let logits = tape.relu(tape.add_bias(tape.matmul(x, w), b));
        tape.backward(tape.cross_entropy(logits, vec![0, 2, 1, 2]));
        let stats = tape.finish().stats();
        let leases = [keys::POOL_CREATED, keys::POOL_REUSED].map(|k| stats.count(k));
        assert_eq!(leases, [9, 1]);
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
            let a_bt = |w: &Tensor| {
                let mut d = Tensor::zeros(&[m, k]);
                ops::matmul_a_bt_into(&g, w, d.data_mut());
                d
            };
            let (d1, d2) = (a_bt(&ws[1]), a_bt(&ws[2]));
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
