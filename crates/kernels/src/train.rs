//! Graph aggregation on the training path: autograd ops that walk the
//! graph's CSR rows.
//!
//! A GNN layer's aggregation `out[v] = Σ_{e : dst_e = v} α_e · h[src_e]`
//! (α ≡ 1 unweighted) is recorded on the [`Tape`] as one node, through
//! [`Tape::record`] as the tape's own ops are, so no `[E, F]` tensor exists
//! on either pass. RGCN's per-relation sums are
//! one typed node, [`aggregate_typed`], which adds each edge's term into
//! its type's column block of a `[|V|, T·F]` row (§5.1's Index-2D); the
//! other ops have one block. All three run the same two walks:
//!
//! - **forward**, `out[dst_e, block_e] += α_e · h[src_e]`, walks the rows
//!   of [`Csr::in_of`] (a destination's in-edges: the paper's
//!   vertex-centric gTask, `uniq(dst-id) = 1`) in contiguous ranges of
//!   destinations, one per core, so each row is written once by one
//!   thread: no per-thread slots, zero-fill or reduce;
//! - **backward** w.r.t. `h`, `dh[src_e] += α_e · grad[dst_e, block_e]`,
//!   is the same walk over the rows of [`Csr::out_of`] (the adjoint of a
//!   gather by source and a scatter by destination). A row sums each
//!   block's terms apart and adds the per-block partials from the last
//!   block to the first, the order in which the tape added one node's
//!   gradient per type. With one block that is the plain sum's bits: a sum
//!   that starts at `+0.0` is never `-0.0`, so adding it to a zeroed row
//!   changes no bit.
//!
//! Both walks read `α` and the edge types by the row's edge ids. The
//! weighted op's `dα_e = ⟨grad[dst_e], h[src_e]⟩` is an edge loop writing
//! `E` scalars in edge ranges on every core ([`ops::split_rows`]). Like
//! every tape node, an op reads its operands in place, takes its value and
//! gradients from the tape's pool, has no backward when none of its inputs
//! needs a gradient, and computes a gradient only for an input that needs
//! one: aggregating a first layer's features walks nothing backward.
//!
//! A CSR row lists its edges by ascending id, so every row sums in the
//! order of `ops::index_add_rows`: the results are bit-identical to the
//! tensor-centric reference at any thread count. Both CSRs are built once
//! per graph and kept in a one-entry memo per thread, keyed by
//! [`Graph::content_key`], so a training loop builds nothing after its
//! first forward.

use std::cell::RefCell;
use std::rc::Rc;
use wisegraph_graph::{Csr, Graph};
use wisegraph_obs::span;
use wisegraph_tensor::{ops, Ctx, Tape, Tensor, Var};

/// `out[v] = Σ_{e : dst_e = v} h[src_e]`: the sum aggregation of GCN and
/// SAGE, recorded on `tape` as one node.
///
/// # Panics
///
/// Panics if `h` is not `[|V|, F]`.
pub fn aggregate(tape: &Tape, g: &Graph, h: Var) -> Var {
    memo(g).record(tape, h, None, false)
}

/// `out[v] = Σ_{e : dst_e = v} α_e · h[src_e]` for per-edge weights `α`
/// of shape `[|E|]` (GAT's attention), recorded on `tape` as one node with
/// gradients for both `h` and `α`.
///
/// # Panics
///
/// Panics if `h` is not `[|V|, F]` or `α` does not hold one value per edge.
pub fn aggregate_weighted(tape: &Tape, g: &Graph, h: Var, alpha: Var) -> Var {
    memo(g).record(tape, h, Some(alpha), false)
}

/// RGCN's per-relation aggregation in one typed pass:
/// `out[v, t·F..(t + 1)·F] = Σ_{e : dst_e = v, type_e = t} h[src_e]`, a
/// `[|V|, T·F]` node whose column block `t` is [`aggregate`] over the
/// type-`t` edges alone, bit for bit.
///
/// # Panics
///
/// Panics if `h` is not `[|V|, F]`.
pub fn aggregate_typed(tape: &Tape, g: &Graph, h: Var) -> Var {
    memo(g).record(tape, h, None, true)
}

/// Everything the ops need for one graph, built once: its in-edge CSR
/// (`forward`, a row per destination), its out-edge CSR (`backward`, a
/// row per source), and the graph, whose columns are read by edge id.
struct Aggregate {
    threads: usize,
    graph: Graph,
    forward: Csr,
    backward: Csr,
}

thread_local! {
    static MEMO: RefCell<Option<Rc<Aggregate>>> = const { RefCell::new(None) };
}

/// The ops for `g`: the memoised ones when they were built for `g`'s
/// content, otherwise new ones on all available cores, which replace them.
fn memo(g: &Graph) -> Rc<Aggregate> {
    MEMO.with(|memo| {
        let mut memo = memo.borrow_mut();
        match &*memo {
            Some(op) if op.graph.content_key() == g.content_key() => Rc::clone(op),
            _ => {
                let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
                let op = Rc::new(Aggregate::new(g, threads));
                *memo = Some(Rc::clone(&op));
                op
            }
        }
    })
}

/// One op's per-edge terms: the weights `α` (1 when `None`) and, for the
/// typed op, each edge's type as its column block (block 0 otherwise) out
/// of `blocks`.
struct Terms<'a> {
    alpha: Option<&'a [f32]>,
    types: Option<&'a [u32]>,
    blocks: usize,
}

impl<'a> Terms<'a> {
    fn new(g: &'a Graph, alpha: Option<&'a Tensor>, typed: bool) -> Self {
        Terms {
            alpha: alpha.map(Tensor::data),
            types: typed.then_some(g.etype()),
            blocks: if typed { g.num_edge_types() } else { 1 },
        }
    }

    fn block(&self, e: usize) -> usize {
        self.types.map_or(0, |t| t[e] as usize)
    }

    /// `acc += α_e · x`.
    fn add(&self, acc: &mut [f32], e: usize, x: &[f32]) {
        match self.alpha {
            None => acc.iter_mut().zip(x).for_each(|(o, &x)| *o += x),
            Some(a) => acc.iter_mut().zip(x).for_each(|(o, &x)| *o += a[e] * x),
        }
    }
}

/// Runs `f(state, row, endpoints, ids)` for every row `v` of `csr`, over
/// `parts` contiguous ranges of the rows of the `[rows, width]` `out` (one
/// range per scoped thread, each with its own `state()`): `(endpoints,
/// ids)` is [`Csr::row`]`(v)` and `row` is row `v` of `out`. Every row has
/// one writer, so when `f` computes a row from its CSR row alone the
/// result is the same bits at any part count.
fn by_row<S>(
    csr: &Csr,
    out: &mut [f32],
    [rows, width]: [usize; 2],
    parts: usize,
    state: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &mut [f32], &[u32], &[u32]) + Sync,
) {
    ops::split_rows_in(out, [rows, width], parts, |range, out| {
        let mut state = state();
        for (i, v) in range.enumerate() {
            let (endpoints, ids) = csr.row(v);
            let row = &mut out[i * width..(i + 1) * width];
            f(&mut state, row, endpoints, ids);
        }
    });
}

impl Aggregate {
    fn new(g: &Graph, threads: usize) -> Self {
        Aggregate {
            threads,
            graph: g.clone(),
            forward: Csr::in_of(g),
            backward: Csr::out_of(g),
        }
    }

    /// Records the op over `h` (and `α`) on `tape`: the weighted op when
    /// `alpha` is given, the typed op when `typed`.
    fn record(self: &Rc<Self>, tape: &Tape, h: Var, alpha: Option<Var>, typed: bool) -> Var {
        let inputs: Vec<Var> = std::iter::once(h).chain(alpha).collect();
        tape.record(&inputs, |ctx| {
            let op = Rc::clone(self);
            let backward = move |grad: &Tensor, ctx: &Ctx| op.backward(grad, ctx, h, alpha, typed);
            (self.forward(ctx, h, alpha, typed), backward)
        })
    }

    /// Checks the operands on the calling thread and runs the forward walk
    /// into a buffer from the tape's pool.
    fn forward(&self, ctx: &Ctx, h: Var, alpha: Option<Var>, typed: bool) -> Tensor {
        let (g, h) = (&self.graph, ctx.value(h));
        let &[v, f] = h.dims() else {
            panic!("aggregated rows must be rank-2")
        };
        assert_eq!(v, g.num_vertices(), "one aggregated row per vertex");
        let alpha = alpha.map(|a| ctx.value(a));
        if let Some(a) = alpha {
            assert_eq!(a.dims(), [g.num_edges()], "one weight per edge");
        }
        let terms = Terms::new(g, alpha, typed);
        let width = terms.blocks * f;
        let mut out = ctx.zeros(&[v, width]);
        let _sp = span!("train.aggregate.forward", rows = v);
        by_row(
            &self.forward,
            out.data_mut(),
            [v, width],
            self.threads,
            || (),
            |_, row, src, ids| {
                for (&u, &e) in src.iter().zip(ids) {
                    let e = e as usize;
                    terms.add(&mut row[terms.block(e) * f..][..f], e, h.row(u as usize));
                }
            },
        );
        out
    }

    /// Gradients of an op, for the inputs that need one: `dh` from the walk
    /// over the out-edge rows, `dh[src_e] += α_e · grad[dst_e, block_e]`,
    /// and for the weighted op `dα` from an edge loop.
    fn backward(
        &self,
        grad: &Tensor,
        ctx: &Ctx,
        h: Var,
        alpha: Option<Var>,
        typed: bool,
    ) -> Vec<(Var, Tensor)> {
        let g = &self.graph;
        let _sp = span!("train.aggregate.backward", rows = g.num_vertices());
        let terms = Terms::new(g, alpha.map(|a| ctx.value(a)), typed);
        let (v, blocks) = (g.num_vertices(), terms.blocks);
        let f = grad.dims()[1] / blocks;
        let dh = ctx.grad(h, |dh| {
            by_row(
                &self.backward,
                dh,
                [v, f],
                self.threads,
                || (vec![0.0f32; blocks * f], vec![false; blocks]),
                |(partial, touched), row, dst, ids| {
                    touched.fill(false);
                    for (&w, &e) in dst.iter().zip(ids) {
                        let e = e as usize;
                        let b = terms.block(e);
                        let sum = &mut partial[b * f..][..f];
                        if !touched[b] {
                            touched[b] = true;
                            sum.fill(0.0);
                        }
                        terms.add(sum, e, &grad.row(w as usize)[b * f..][..f]);
                    }
                    for b in (0..blocks).rev().filter(|&b| touched[b]) {
                        for (o, &x) in row.iter_mut().zip(&partial[b * f..][..f]) {
                            *o += x;
                        }
                    }
                },
            )
        });
        // Each `dα_e` is its own output, so edge ranges run on every core.
        let (src, dst, rows, e) = (g.src(), g.dst(), ctx.value(h), g.num_edges());
        let dalpha = alpha.and_then(|alpha| {
            ctx.grad(alpha, |dalpha| {
                let work = e * grad.dims()[1];
                ops::split_rows(dalpha, [e, 1], work, |edges, out| {
                    for (o, e) in out.iter_mut().zip(edges) {
                        *o = grad
                            .row(dst[e] as usize)
                            .iter()
                            .zip(rows.row(src[e] as usize))
                            .map(|(&a, &b)| a * b)
                            .sum();
                    }
                })
            })
        });
        dh.into_iter().chain(dalpha).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_tensor::init;

    /// The small graphs every test runs on: a typed RMAT (duplicates and
    /// self-loops included), no edges, one vertex, isolated vertices, and
    /// explicit self-loops plus multi-edges.
    fn graphs() -> Vec<Graph> {
        vec![
            rmat(&RmatParams::standard(90, 700, 61).with_edge_types(3)),
            Graph::untyped(5, vec![], vec![]),
            Graph::untyped(1, vec![], vec![]),
            Graph::untyped(1, vec![0, 0], vec![0, 0]),
            Graph::untyped(7, vec![0, 2, 2, 6], vec![2, 0, 0, 2]),
            Graph::new(
                4,
                2,
                vec![0, 0, 1, 3, 3, 2, 0],
                vec![0, 1, 1, 3, 1, 1, 1],
                vec![0, 1, 1, 0, 1, 0, 1],
            ),
        ]
    }

    /// Rows with exact zeros and negative zeros among uniform values.
    fn rows(v: usize, f: usize, seed: u64) -> Tensor {
        let mut t = init::uniform_tensor(&[v, f], -1.0, 1.0, seed).into_vec();
        t.iter_mut().step_by(5).for_each(|x| *x = 0.0);
        t.iter_mut().skip(3).step_by(7).for_each(|x| *x = -0.0);
        Tensor::from_vec(t, &[v, f])
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|x| x.to_bits()).collect()
    }

    /// What the tensor-centric path computes for the edges `edges`:
    /// `(out, dh, dα)` for upstream gradient `grad`.
    fn reference(
        g: &Graph,
        edges: &[usize],
        h: &Tensor,
        alpha: Option<&Tensor>,
        grad: &Tensor,
    ) -> (Tensor, Tensor, Vec<f32>) {
        let pick = |col: &[u32]| edges.iter().map(|&e| col[e]).collect::<Vec<u32>>();
        let (src, dst) = (pick(g.src()), pick(g.dst()));
        let alpha = alpha.map(|a| {
            Tensor::from_vec(edges.iter().map(|&e| a.data()[e]).collect(), &[edges.len()])
        });
        let v = g.num_vertices();
        let msg = ops::gather_rows(h, &src);
        let g_msg = ops::gather_rows(grad, &dst);
        let (out, dh) = match &alpha {
            Some(a) => (
                ops::index_add_rows(v, &ops::scale_rows(&msg, a), &dst),
                ops::index_add_rows(v, &ops::scale_rows(&g_msg, a), &src),
            ),
            None => (
                ops::index_add_rows(v, &msg, &dst),
                ops::index_add_rows(v, &g_msg, &src),
            ),
        };
        let dalpha = (0..edges.len())
            .map(|i| {
                g_msg
                    .row(i)
                    .iter()
                    .zip(msg.row(i))
                    .map(|(&a, &b)| a * b)
                    .sum()
            })
            .collect();
        (out, dh, dalpha)
    }

    /// Records `record(tape, h)` on a tape with `loss = Σ out ⊙ grad` (so
    /// `grad` is the upstream gradient, bit for bit) and returns
    /// `(out, dh)`.
    fn through(
        h: &Tensor,
        grad: &Tensor,
        record: impl FnOnce(&Tape, Var) -> Var,
    ) -> (Tensor, Tensor) {
        let tape = Tape::new();
        let hv = tape.param(h.clone());
        let out = record(&tape, hv);
        tape.backward(tape.sum(tape.mul(out, tape.input(grad.clone()))));
        (tape.value(out), tape.grad(hv).expect("h reaches the loss"))
    }

    /// Records the op on a tape as [`through`] does and returns
    /// `(out, dh, dα)`.
    fn through_the_op(
        op: &Rc<Aggregate>,
        h: &Tensor,
        alpha: Option<&Tensor>,
        grad: &Tensor,
    ) -> (Tensor, Tensor, Option<Tensor>) {
        let tape = Tape::new();
        let hv = tape.param(h.clone());
        let av = alpha.map(|a| tape.param(a.clone()));
        let out = op.record(&tape, hv, av, false);
        let weighted = tape.mul(out, tape.input(grad.clone()));
        tape.backward(tape.sum(weighted));
        let dh = tape.grad(hv).expect("h reaches the loss");
        (
            tape.value(out),
            dh,
            av.map(|a| tape.grad(a).expect("α reaches the loss")),
        )
    }

    #[test]
    fn op_is_bit_identical_to_the_tensor_centric_reference_at_every_thread_count() {
        for g in graphs() {
            let (v, e, f) = (g.num_vertices(), g.num_edges(), 6);
            let h = rows(v, f, 1);
            let grad = rows(v, f, 2);
            let alpha = init::uniform_tensor(&[e], -1.0, 1.0, 3);
            // Exact zeros of both signs (so some products are `-0.0`) and
            // a large magnitude among the uniform weights.
            let signed = (0..e).map(|i| [0.0, -0.0, 1.0e30, alpha.data()[i]][i % 4]);
            let signed = Tensor::from_vec(signed.collect(), &[e]);
            let all: Vec<usize> = (0..e).collect();
            for threads in [1, 2, 4] {
                let op = Rc::new(Aggregate::new(&g, threads));
                for (i, alpha) in [None, Some(&alpha), Some(&signed)].into_iter().enumerate() {
                    let ctx = format!("{v} V / {e} E, {threads} threads, weights {i}");
                    let (out, dh, da) = through_the_op(&op, &h, alpha, &grad);
                    let (want, want_dh, want_da) = reference(&g, &all, &h, alpha, &grad);
                    assert_eq!(bits(&out), bits(&want), "{ctx}: forward");
                    assert_eq!(bits(&dh), bits(&want_dh), "{ctx}: dh");
                    if let Some(da) = da {
                        assert_eq!(
                            bits(&da),
                            bits(&Tensor::from_vec(want_da, &[e])),
                            "{ctx}: dα"
                        );
                    }
                }
            }
        }
    }

    /// Columns `cols` of the rank-2 `t`.
    fn columns(t: &Tensor, cols: std::ops::Range<usize>) -> Tensor {
        let rows = t.dims()[0];
        let data = (0..rows)
            .flat_map(|i| t.row(i)[cols.clone()].to_vec())
            .collect();
        Tensor::from_vec(data, &[rows, cols.len()])
    }

    /// The typed op against the per-type composition it replaces, on
    /// every graph (a type without edges, no edges, one vertex, self-loops
    /// and multi-edges) at 1, 2 and 4 threads: its forward is each type's
    /// tensor-centric sum laid side by side in `[V, T·F]`, and its `dh`
    /// is the per-type `dh`s added as the tape adds them, from the last
    /// type to the first — bit for bit.
    #[test]
    fn typed_op_is_the_per_type_composition_bit_for_bit() {
        for g in graphs() {
            let (v, e, f, types) = (g.num_vertices(), g.num_edges(), 5, g.num_edge_types());
            let h = rows(v, f, 1);
            let grad = rows(v, types * f, 2);
            let mut want = vec![0.0f32; v * types * f];
            let mut want_dh: Option<Tensor> = None;
            for t in (0..types).rev() {
                let edges: Vec<usize> = (0..e).filter(|&i| g.etype()[i] as usize == t).collect();
                if edges.is_empty() {
                    continue;
                }
                let block = columns(&grad, t * f..(t + 1) * f);
                let (out, dh, _) = reference(&g, &edges, &h, None, &block);
                for i in 0..v {
                    want[(i * types + t) * f..][..f].copy_from_slice(out.row(i));
                }
                want_dh = Some(match want_dh {
                    None => dh,
                    Some(acc) => ops::add(&acc, &dh),
                });
            }
            let want = Tensor::from_vec(want, &[v, types * f]);
            let want_dh = want_dh.unwrap_or_else(|| Tensor::zeros(&[v, f]));
            for threads in [1, 2, 4] {
                let op = Rc::new(Aggregate::new(&g, threads));
                let (out, dh) = through(&h, &grad, |tape, hv| op.record(tape, hv, None, true));
                let ctx = format!("{v} V / {e} E / {types} types, {threads} threads");
                assert_eq!(bits(&out), bits(&want), "{ctx}: forward");
                assert_eq!(bits(&dh), bits(&want_dh), "{ctx}: dh");
            }
        }
    }

    #[test]
    fn split_weight_gradient_is_bit_identical_to_the_reference() {
        // E · F = 2.56 Mi multiply-adds: `dα` runs in edge ranges on every
        // core (one range on a one-core host).
        let g = rmat(&RmatParams::standard(2000, 40_000, 5));
        let (v, e, f) = (g.num_vertices(), g.num_edges(), 64);
        let (h, grad) = (rows(v, f, 1), rows(v, f, 2));
        let alpha = init::uniform_tensor(&[e], -1.0, 1.0, 3);
        let op = Rc::new(Aggregate::new(&g, 2));
        let (_, _, da) = through_the_op(&op, &h, Some(&alpha), &grad);
        let all: Vec<usize> = (0..e).collect();
        let (_, _, want) = reference(&g, &all, &h, Some(&alpha), &grad);
        assert_eq!(
            bits(&da.expect("α reaches the loss")),
            bits(&Tensor::from_vec(want, &[e]))
        );
    }

    #[test]
    fn weight_gradient_matches_finite_differences() {
        let g = Graph::new(
            5,
            1,
            vec![0, 1, 1, 4, 2, 2, 3],
            vec![1, 1, 2, 0, 3, 3, 3],
            vec![0; 7],
        );
        let op = Rc::new(Aggregate::new(&g, 2));
        let h = init::uniform_tensor(&[5, 3], -1.0, 1.0, 7);
        let grad = init::uniform_tensor(&[5, 3], -1.0, 1.0, 8);
        let alpha = init::uniform_tensor(&[7], 0.1, 1.0, 9);
        let loss = |a: &Tensor| {
            let (out, _, _) = through_the_op(&op, &h, Some(a), &grad);
            out.data()
                .iter()
                .zip(grad.data())
                .map(|(&x, &y)| f64::from(x) * f64::from(y))
                .sum::<f64>()
        };
        let (_, _, da) = through_the_op(&op, &h, Some(&alpha), &grad);
        let da = da.expect("weighted");
        let eps = 1e-2f32;
        for i in 0..alpha.numel() {
            let (mut plus, mut minus) = (alpha.clone(), alpha.clone());
            plus.data_mut()[i] += eps;
            minus.data_mut()[i] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * f64::from(eps));
            let analytic = f64::from(da.data()[i]);
            assert!(
                (analytic - numeric).abs() < 1e-3,
                "dα[{i}]: {analytic} vs {numeric}"
            );
        }
    }

    /// The ops check their operands before any thread starts, so a bad
    /// shape panics on the calling thread with the documented message.
    #[test]
    #[should_panic(expected = "one aggregated row per vertex")]
    fn rows_that_are_not_one_per_vertex_panic_on_the_calling_thread() {
        let g = &graphs()[0];
        let tape = Tape::new();
        let h = tape.param(rows(g.num_vertices() + 1, 4, 1));
        aggregate(&tape, g, h);
    }

    #[test]
    #[should_panic(expected = "one weight per edge")]
    fn weights_that_are_not_one_per_edge_panic_on_the_calling_thread() {
        let g = &graphs()[0];
        let tape = Tape::new();
        let h = tape.param(rows(g.num_vertices(), 4, 1));
        let alpha = tape.param(init::uniform_tensor(&[g.num_edges() - 1], -1.0, 1.0, 3));
        aggregate_weighted(&tape, g, h, alpha);
    }

    /// The op reads its operands in place and takes its value, `dh` and
    /// `dα` from the tape's pool: a tape holding only the weighted op and
    /// a sum leases exactly six buffers, those three and the sum's value,
    /// the loss seed and the sum's gradient.
    #[test]
    fn value_and_gradients_are_leased_from_the_pool() {
        use wisegraph_obs::keys;
        let g = &graphs()[0];
        let tape = Tape::new();
        let h = tape.param(rows(g.num_vertices(), 4, 1));
        let alpha = tape.param(init::uniform_tensor(&[g.num_edges()], -1.0, 1.0, 3));
        let out = aggregate_weighted(&tape, g, h, alpha);
        tape.backward(tape.sum(out));
        let stats = tape.finish().stats();
        let leases = stats.count(keys::POOL_CREATED) + stats.count(keys::POOL_REUSED);
        assert_eq!(leases, 6);
    }

    #[test]
    fn both_passes_open_their_spans_and_the_memo_holds_one_graph() {
        let (g, other) = (&graphs()[0], &graphs()[4]);
        let (_, trace) = wisegraph_obs::capture(|| {
            let tape = Tape::new();
            let h = tape.param(rows(g.num_vertices(), 4, 5));
            let out = aggregate(&tape, g, h);
            tape.backward(tape.sum(out));
        });
        assert_eq!(trace.span_count("train.aggregate.forward"), 1);
        assert_eq!(trace.span_count("train.aggregate.backward"), 1);
        assert!(Rc::ptr_eq(&memo(g), &memo(&g.clone())));
        let first = memo(g);
        assert_eq!(memo(other).graph.content_key(), other.content_key());
        assert!(
            !Rc::ptr_eq(&first, &memo(g)),
            "one entry: the other graph replaced it"
        );
    }
}
