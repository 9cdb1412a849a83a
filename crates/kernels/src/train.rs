//! Graph aggregation on the training path: autograd ops that walk the
//! graph's vertex-centric plans.
//!
//! A GNN layer's aggregation `out[v] = Σ_{e : dst_e = v} α_e · h[src_e]`
//! (α ≡ 1 unweighted) is recorded on the [`Tape`] as one custom node, so
//! no `[E, F]` tensor exists on either pass. RGCN's per-relation sums are
//! one typed node, [`aggregate_typed`], which adds each edge's term into
//! its type's column block of a `[|V|, T·F]` row (§5.1's Index-2D); the
//! other ops have one block. All three run the same two walks:
//!
//! - **forward**, `out[dst_e, block_e] += α_e · h[src_e]`, walks the plan
//!   in contiguous ranges of destinations, one per core, so each row is
//!   written once by one thread: no per-thread slots, zero-fill or reduce;
//! - **backward** w.r.t. `h` is the same walk on the
//!   [`reversed`](Graph::reversed) graph's plan (the adjoint of a gather by
//!   source and a scatter by destination; edge ids are kept, so `α` and
//!   the types are read by the same ids). A row sums each block's terms
//!   apart and adds the per-block partials from the last block to the
//!   first, the order in which the tape added one node's gradient per
//!   type. With one block that is the plain sum's bits: a sum that starts
//!   at `+0.0` is never `-0.0`, so adding it to a zeroed row changes no bit.
//!
//! The weighted op's `dα_e = ⟨grad[dst_e], h[src_e]⟩` is an edge loop
//! writing `E` scalars in edge ranges on every core ([`ops::split_rows`]).
//! Like every tape node, an op has no backward when none of its inputs
//! needs a gradient: aggregating a first layer's features walks nothing
//! reversed.
//!
//! A vertex-centric plan puts each destination's edges in one task, by
//! edge id, so every row sums in ascending edge-id order, the order of
//! `ops::index_add_rows`: the results are bit-identical to the
//! tensor-centric reference at any thread count. Both plans are built once
//! per graph and kept in a one-entry memo per thread, keyed by
//! [`Graph::content_key`], so a training loop re-plans nothing after its
//! first forward.

use std::cell::RefCell;
use std::rc::Rc;
use wisegraph_graph::Graph;
use wisegraph_gtask::{partition_edges, PartitionPlan, PartitionTable};
use wisegraph_obs::span;
use wisegraph_tensor::{ops, Tape, Tensor, Var};

/// `out[v] = Σ_{e : dst_e = v} h[src_e]`: the sum aggregation of GCN and
/// SAGE, recorded on `tape` as one node.
///
/// # Panics
///
/// Panics if `h` is not `[|V|, F]`.
pub fn aggregate(tape: &Tape, g: &Graph, h: Var) -> Var {
    memo(g).record(tape, g, h, None)
}

/// `out[v] = Σ_{e : dst_e = v} α_e · h[src_e]` for per-edge weights `α`
/// of shape `[|E|]` (GAT's attention), recorded on `tape` as one node with
/// gradients for both `h` and `α`.
///
/// # Panics
///
/// Panics if `h` is not `[|V|, F]` or `α` does not hold one value per edge.
pub fn aggregate_weighted(tape: &Tape, g: &Graph, h: Var, alpha: Var) -> Var {
    memo(g).record(tape, g, h, Some(alpha))
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
    memo(g).record_typed(tape, g, h)
}

/// Everything the ops need for one graph, built once: the vertex-centric
/// plans of all edges on the graph (`forward`) and on the reversed graph
/// (`backward`), each listing every destination's edges together,
/// destinations ascending, each destination's edges by id.
struct Aggregate {
    key: u64,
    threads: usize,
    reversed: Graph,
    forward: PartitionPlan,
    backward: PartitionPlan,
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
            Some(op) if op.key == g.content_key() => Rc::clone(op),
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
    /// The terms of an op on `g` (or on its reversed graph, which keeps
    /// edge ids and types).
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

/// Runs `f(state, row, run)` for every destination with edges, over
/// `parts` contiguous ranges of the destination rows of the
/// `[rows, width]` `out` (one range per scoped thread, each with its own
/// `state()`): `run` is the destination's run of `edges`, which list every
/// destination's edges together, destinations ascending (`dst` maps an
/// edge to its destination), and `row` is its row of `out`. Every row has
/// one writer, so when `f` computes a row from its run alone the result is
/// the same bits at any part count.
fn by_destination<S>(
    edges: &[u32],
    dst: &[u32],
    out: &mut [f32],
    [rows, width]: [usize; 2],
    parts: usize,
    state: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &mut [f32], &[u32]) + Sync,
) {
    let dst_of = |e: &u32| dst[*e as usize] as usize;
    ops::split_rows_in(out, [rows, width], parts, |range, out| {
        let first = |v: usize| edges.partition_point(|e| dst_of(e) < v);
        let edges = &edges[first(range.start)..first(range.end)];
        let mut state = state();
        for run in edges.chunk_by(|a, b| dst_of(a) == dst_of(b)) {
            let v = dst_of(&run[0]) - range.start;
            f(&mut state, &mut out[v * width..(v + 1) * width], run);
        }
    });
}

impl Aggregate {
    fn new(g: &Graph, threads: usize) -> Self {
        let reversed = g.reversed();
        let table = PartitionTable::vertex_centric();
        let all: Vec<usize> = (0..g.num_edges()).collect();
        let forward = partition_edges(g, &table, &all);
        let backward = partition_edges(&reversed, &table, &all);
        for (plan, graph) in [(&forward, g), (&backward, &reversed)] {
            let dst = graph.dst();
            let key = |e: u32| (dst[e as usize], e);
            assert!(
                plan.tasks.edges().windows(2).all(|w| key(w[0]) < key(w[1])),
                "a vertex-centric plan lists edges by destination, then id"
            );
        }
        Aggregate {
            key: g.content_key(),
            threads,
            reversed,
            forward,
            backward,
        }
    }

    /// The sum or weighted op, recorded on `tape` with its backward.
    fn record(self: &Rc<Self>, tape: &Tape, g: &Graph, h: Var, alpha: Option<Var>) -> Var {
        self.record_walk(tape, g, h, alpha, false)
    }

    /// The typed op, recorded on `tape` with its backward.
    fn record_typed(self: &Rc<Self>, tape: &Tape, g: &Graph, h: Var) -> Var {
        self.record_walk(tape, g, h, None, true)
    }

    /// Checks the operands on the calling thread, runs the forward walk
    /// into a buffer from `tape`'s pool and records the node.
    fn record_walk(
        self: &Rc<Self>,
        tape: &Tape,
        g: &Graph,
        h: Var,
        alpha: Option<Var>,
        typed: bool,
    ) -> Var {
        let (h_t, v) = (tape.value(h), g.num_vertices());
        let &[_, f] = h_t.dims() else {
            panic!("aggregated rows must be rank-2")
        };
        assert_eq!(h_t.dims()[0], v, "one aggregated row per vertex");
        let alpha_t = alpha.map(|a| tape.value(a));
        if let Some(a) = &alpha_t {
            assert_eq!(a.dims(), [g.num_edges()], "one weight per edge");
        }
        let terms = Terms::new(g, alpha_t.as_ref(), typed);
        let mut out = tape.zeros(&[v, terms.blocks * f]);
        let (plan, src) = (&self.forward, g.src());
        let sp = span!("train.aggregate.forward", tasks = plan.tasks.len());
        by_destination(
            plan.tasks.edges(),
            g.dst(),
            out.data_mut(),
            [v, terms.blocks * f],
            self.threads,
            || (),
            |_, row, run| {
                for &e in run {
                    let e = e as usize;
                    let block = &mut row[terms.block(e) * f..][..f];
                    terms.add(block, e, h_t.row(src[e] as usize));
                }
            },
        );
        drop(sp);
        // Only the weighted op's `dα` reads the forward operands again.
        let weighted = alpha.zip(alpha_t).map(|(a, a_t)| (a, a_t, h_t));
        let op = Rc::clone(self);
        let inputs: Vec<Var> = std::iter::once(h).chain(alpha).collect();
        tape.custom(out, &inputs, move |grad| {
            op.backward(grad, h, weighted.as_ref(), typed)
        })
    }

    /// Gradients of an op: `dh` from the walk on the reversed graph,
    /// `dh[src_e] += α_e · grad[dst_e, block_e]`, and for the weighted op
    /// `dα` from an edge loop. `weighted` holds the weight variable with
    /// the forward's weights and rows.
    fn backward(
        &self,
        grad: &Tensor,
        h: Var,
        weighted: Option<&(Var, Tensor, Tensor)>,
        typed: bool,
    ) -> Vec<(Var, Tensor)> {
        let r = &self.reversed;
        let plan = &self.backward;
        let _sp = span!("train.aggregate.backward", tasks = plan.tasks.len());
        let terms = Terms::new(r, weighted.map(|(_, a, _)| a), typed);
        let (v, blocks, src) = (r.num_vertices(), terms.blocks, r.src());
        let f = grad.dims()[1] / blocks;
        let mut dh = vec![0.0f32; v * f];
        by_destination(
            plan.tasks.edges(),
            r.dst(),
            &mut dh,
            [v, f],
            self.threads,
            || (vec![0.0f32; blocks * f], vec![false; blocks]),
            |(partial, touched), row, run| {
                touched.fill(false);
                for &e in run {
                    let e = e as usize;
                    let b = terms.block(e);
                    let sum = &mut partial[b * f..][..f];
                    if !touched[b] {
                        touched[b] = true;
                        sum.fill(0.0);
                    }
                    terms.add(sum, e, &grad.row(src[e] as usize)[b * f..][..f]);
                }
                for b in (0..blocks).rev().filter(|&b| touched[b]) {
                    for (o, &x) in row.iter_mut().zip(&partial[b * f..][..f]) {
                        *o += x;
                    }
                }
            },
        );
        let dh = (h, Tensor::from_vec(dh, &[v, f]));
        let Some((alpha, _, rows)) = weighted else {
            return vec![dh];
        };
        // Reversed columns: `dst` here is the forward source. Each `dα_e`
        // is its own output, so edge ranges run on every core.
        let (src, dst) = (r.dst(), r.src());
        let mut dalpha = vec![0.0f32; src.len()];
        let work = src.len() * grad.dims()[1];
        ops::split_rows(&mut dalpha, [src.len(), 1], work, |edges, out| {
            for (o, e) in out.iter_mut().zip(edges) {
                *o = grad
                    .row(dst[e] as usize)
                    .iter()
                    .zip(rows.row(src[e] as usize))
                    .map(|(&a, &b)| a * b)
                    .sum();
            }
        });
        vec![dh, (*alpha, Tensor::from_vec(dalpha, &[src.len()]))]
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
        g: &Graph,
        h: &Tensor,
        alpha: Option<&Tensor>,
        grad: &Tensor,
    ) -> (Tensor, Tensor, Option<Tensor>) {
        let tape = Tape::new();
        let hv = tape.param(h.clone());
        let av = alpha.map(|a| tape.param(a.clone()));
        let out = op.record(&tape, g, hv, av);
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
                    let (out, dh, da) = through_the_op(&op, &g, &h, alpha, &grad);
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
                let (out, dh) = through(&h, &grad, |tape, hv| op.record_typed(tape, &g, hv));
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
        let (_, _, da) = through_the_op(&op, &g, &h, Some(&alpha), &grad);
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
            let (out, _, _) = through_the_op(&op, &g, &h, Some(a), &grad);
            out.data()
                .iter()
                .zip(grad.data())
                .map(|(&x, &y)| f64::from(x) * f64::from(y))
                .sum::<f64>()
        };
        let (_, _, da) = through_the_op(&op, &g, &h, Some(&alpha), &grad);
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
        assert_eq!(memo(other).key, other.content_key());
        assert!(
            !Rc::ptr_eq(&first, &memo(g)),
            "one entry: the other graph replaced it"
        );
    }
}
