//! Graph aggregation on the training path: autograd ops over the graph's
//! vertex-centric plans.
//!
//! A GNN layer's aggregation `out[v] = Σ_{e : dst_e = v} α_e · h[src_e]`
//! (α ≡ 1 unweighted) is recorded on the [`Tape`] as one custom node, so
//! no `[E, F]` tensor exists on either pass:
//!
//! - **forward** is [`Engine::execute_program`] of the three-node DFG
//!   `index_add(index(h, SrcId), DstId)` (with `α` gathered by `EdgeId`
//!   and row-scaling the messages when weighted) on the graph's
//!   vertex-centric plan;
//! - **backward** w.r.t. `h` is the *same* program on the
//!   [`reversed`](Graph::reversed) graph's vertex-centric plan. The adjoint
//!   of a gather by source and a scatter by destination is a gather by
//!   destination and a scatter by source, which is what the reversed graph's
//!   source and destination columns are; edge ids are kept, so `α` is read
//!   by the same ids. The weighted op's `dα_e = ⟨grad[dst_e], h[src_e]⟩` is
//!   a plain edge loop writing `E` scalars, in edge ranges on every core
//!   ([`ops::split_rows`]): an edge-rowed output is the one thing a
//!   per-task program cannot produce. Like every tape node, the op
//!   has no backward when none of its inputs needs a gradient: aggregating
//!   a first layer's features runs no reversed pass.
//!
//! RGCN's per-relation sums are one typed node, [`aggregate_typed`]:
//! `out[dst, t·F..(t + 1)·F] += h[src]` into `[V, T·F]` (§5.1's Index-2D),
//! not one engine call per edge type. It walks the same two plans itself:
//! contiguous ranges of destinations, one per engine worker, each
//! destination's row written once by one worker, so there are no
//! per-worker slots, no zero-fill pass and no reduce. Its backward is one
//! pass over the reversed plan that reads `grad[dst, type]` and writes
//! `dh[src]`, adding each type's terms apart and the per-type partials
//! from the last type to the first — the order the tape added one
//! node's gradient per type — so `dh` keeps those bits too.
//!
//! Vertex-centric plans sort a destination's edges by edge id and put them
//! in one task, so every destination (and, reversed, every source) sums in
//! ascending edge-id order — the order of `ops::index_add_rows` — whichever
//! worker runs the task. The results are therefore bit-identical to the
//! tensor-centric reference at any thread count, and both ops use every
//! available core without that becoming a setting.
//!
//! The engine and the all-edge plans of both directions are built once per
//! graph and kept in a one-entry memo per thread, keyed by
//! [`Graph::content_key`]: a training loop re-plans nothing after its first
//! forward.

use crate::engine::Engine;
use crate::micro::compile;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use wisegraph_dfg::{Dfg, Dim};
use wisegraph_graph::{AttrKind, Graph};
use wisegraph_gtask::{partition_edges, PartitionPlan, PartitionTable};
use wisegraph_obs::span;
use wisegraph_tensor::{ops, Tape, Tensor, Var};

/// Global names of the gathered rows and the per-edge weights.
const H: &str = "h";
const ALPHA: &str = "alpha";

/// `out[v] = Σ_{e : dst_e = v} h[src_e]`: the sum aggregation of GCN and
/// SAGE, recorded on `tape` as one engine-run node.
///
/// # Panics
///
/// Panics if `h` is not `[|V|, F]`.
pub fn aggregate(tape: &Tape, g: &Graph, h: Var) -> Var {
    memo(g).record(tape, g, h, None)
}

/// `out[v] = Σ_{e : dst_e = v} α_e · h[src_e]` for per-edge weights `α`
/// of shape `[|E|]` (GAT's attention), recorded on `tape` as one
/// engine-run node with gradients for both `h` and `α`.
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
/// type-`t` edges alone, bit for bit. Each destination's row is written
/// once, by one worker; the backward is one pass on the reversed graph.
///
/// # Panics
///
/// Panics if `h` is not `[|V|, F]`.
pub fn aggregate_typed(tape: &Tape, g: &Graph, h: Var) -> Var {
    memo(g).record_typed(tape, g, h)
}

/// The vertex-centric plans of all edges: on the graph (forward) and on
/// the reversed graph (backward). Each lists every destination's edges
/// together, destinations ascending, each destination's edges by id.
struct Plans {
    forward: PartitionPlan,
    backward: PartitionPlan,
}

/// Everything the op needs for one graph, built once.
struct Aggregate {
    key: u64,
    engine: Engine,
    reversed: Graph,
    plans: Plans,
}

thread_local! {
    static MEMO: RefCell<Option<Rc<Aggregate>>> = const { RefCell::new(None) };
}

/// The op for `g`: the memoised one when it was built for `g`'s content,
/// otherwise a new one on all available cores, which replaces it.
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

/// The aggregation DFG over `width`-wide rows, weighted or not.
fn aggregation_dfg(width: usize, weighted: bool) -> Dfg {
    let mut d = Dfg::new();
    let h = d.input(H, vec![Dim::Vertices, Dim::Lit(width)]);
    let src = d.edge_attr(AttrKind::SrcId);
    let dst = d.edge_attr(AttrKind::DstId);
    let mut msg = d.index(h, src);
    if weighted {
        let alpha = d.input(ALPHA, vec![Dim::Edges, Dim::Lit(1)]);
        let eid = d.edge_attr(AttrKind::EdgeId);
        let alpha_e = d.index(alpha, eid);
        let scale = d.squeeze_col(alpha_e);
        msg = d.scale_rows(msg, scale);
    }
    let out = d.index_add(msg, dst, Dim::Vertices);
    d.mark_output(out);
    d
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
        let plans = Plans {
            forward: partition_edges(g, &table, &all),
            backward: partition_edges(&reversed, &table, &all),
        };
        for (plan, graph) in [(&plans.forward, g), (&plans.backward, &reversed)] {
            let dst = graph.dst();
            let key = |e: u32| (dst[e as usize], e);
            assert!(
                plan.tasks.edges().windows(2).all(|w| key(w[0]) < key(w[1])),
                "a vertex-centric plan lists edges by destination, then id"
            );
        }
        Aggregate {
            key: g.content_key(),
            engine: Engine::new(threads),
            reversed,
            plans,
        }
    }

    /// Runs the aggregation program on `graph` under `plan`, reading the
    /// globals `h` (and `alpha`, when weighted).
    fn run(
        &self,
        graph: &Graph,
        plan: &PartitionPlan,
        globals: &HashMap<String, Tensor>,
    ) -> Tensor {
        let h = &globals[H];
        assert_eq!(h.shape().rank(), 2, "aggregated rows must be rank-2");
        let dfg = aggregation_dfg(h.dims()[1], globals.contains_key(ALPHA));
        let program = compile(&dfg, graph).expect("the aggregation DFG compiles");
        self.engine
            .execute_program(&program, &dfg, graph, plan, globals)
            .expect("the aggregation program runs on any plan")
            .swap_remove(0)
    }

    /// Runs the forward pass and records it on `tape` with its backward.
    fn record(self: &Rc<Self>, tape: &Tape, g: &Graph, h: Var, alpha: Option<Var>) -> Var {
        let mut globals = HashMap::from([(H.to_string(), tape.value(h))]);
        if let Some(a) = alpha {
            let a = tape.value(a);
            assert_eq!(a.dims(), [g.num_edges()], "one weight per edge");
            globals.insert(ALPHA.to_string(), a.reshape(&[g.num_edges(), 1]));
        }
        let out = {
            let plan = &self.plans.forward;
            let _sp = span!("train.aggregate.forward", tasks = plan.tasks.len());
            self.run(g, plan, &globals)
        };
        // Only the weighted op's `dα` reads the forward operands again.
        let operands = alpha.map(|a| {
            let alpha_t = globals.remove(ALPHA).expect("inserted above");
            (a, alpha_t, globals.remove(H).expect("inserted above"))
        });
        let op = Rc::clone(self);
        let inputs: Vec<Var> = std::iter::once(h).chain(alpha).collect();
        tape.custom(out, &inputs, move |grad| {
            op.backward(grad, h, operands.as_ref())
        })
    }

    /// Gradients of the op: `dh` from the program on the reversed graph,
    /// and for the weighted op `dα` from an edge loop. `weighted` holds the
    /// weight variable with the forward's `[|E|, 1]` weights and rows.
    fn backward(
        &self,
        grad: &Tensor,
        h: Var,
        weighted: Option<&(Var, Tensor, Tensor)>,
    ) -> Vec<(Var, Tensor)> {
        let plan = &self.plans.backward;
        let _sp = span!("train.aggregate.backward", tasks = plan.tasks.len());
        let mut globals = HashMap::from([(H.to_string(), grad.clone())]);
        let Some((alpha, alpha_t, rows)) = weighted else {
            return vec![(h, self.run(&self.reversed, plan, &globals))];
        };
        globals.insert(ALPHA.to_string(), alpha_t.clone());
        let dh = self.run(&self.reversed, plan, &globals);
        // Reversed columns: `dst` here is the forward source. Each `dα_e`
        // is its own output, so edge ranges run on every core.
        let (src, dst) = (self.reversed.dst(), self.reversed.src());
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
        vec![(h, dh), (*alpha, Tensor::from_vec(dalpha, &[src.len()]))]
    }

    /// The typed forward, recorded on `tape` with its backward: each
    /// destination's `[T·F]` row sums its in-edges' source rows into their
    /// types' blocks, in edge-id order.
    fn record_typed(self: &Rc<Self>, tape: &Tape, g: &Graph, h: Var) -> Var {
        let h_t = tape.value(h);
        assert_eq!(h_t.shape().rank(), 2, "aggregated rows must be rank-2");
        let (v, f, types) = (g.num_vertices(), h_t.dims()[1], g.num_edge_types());
        assert_eq!(h_t.dims()[0], v, "one aggregated row per vertex");
        let mut out = tape.zeros(&[v, types * f]);
        {
            let plan = &self.plans.forward;
            let _sp = span!("train.aggregate.forward", tasks = plan.tasks.len());
            let (src, etype) = (g.src(), g.etype());
            by_destination(
                plan.tasks.edges(),
                g.dst(),
                out.data_mut(),
                [v, types * f],
                self.engine.threads(),
                || (),
                |_, row, run| {
                    for &e in run {
                        let e = e as usize;
                        let block = &mut row[etype[e] as usize * f..][..f];
                        for (o, &x) in block.iter_mut().zip(h_t.row(src[e] as usize)) {
                            *o += x;
                        }
                    }
                },
            );
        }
        let op = Rc::clone(self);
        tape.custom(out, &[h], move |grad| vec![(h, op.typed_backward(grad))])
    }

    /// The typed backward, `dh[src_e] += grad[dst_e, type_e·F..]`: one pass
    /// over the reversed graph's plan, each forward source's row written by
    /// one worker. A row sums each type's terms apart, in edge-id order,
    /// and adds the per-type partials from the last type to the first: the
    /// order in which the tape added the gradients of one aggregation node
    /// per type, so `dh` keeps those bits.
    fn typed_backward(&self, grad: &Tensor) -> Tensor {
        let r = &self.reversed;
        let (v, types) = (r.num_vertices(), r.num_edge_types());
        let f = grad.dims()[1] / types;
        let plan = &self.plans.backward;
        let _sp = span!("train.aggregate.backward", tasks = plan.tasks.len());
        let (src, etype) = (r.src(), r.etype());
        let mut dh = vec![0.0f32; v * f];
        let partials = || (vec![0.0f32; types * f], vec![false; types]);
        by_destination(
            plan.tasks.edges(),
            r.dst(),
            &mut dh,
            [v, f],
            self.engine.threads(),
            partials,
            |scratch, row, run| {
                let (partial, touched) = scratch;
                touched.fill(false);
                for &e in run {
                    let e = e as usize;
                    let t = etype[e] as usize;
                    let sum = &mut partial[t * f..][..f];
                    if !touched[t] {
                        touched[t] = true;
                        sum.fill(0.0);
                    }
                    for (o, &x) in sum.iter_mut().zip(&grad.row(src[e] as usize)[t * f..][..f]) {
                        *o += x;
                    }
                }
                for t in (0..types).rev().filter(|&t| touched[t]) {
                    for (o, &x) in row.iter_mut().zip(&partial[t * f..][..f]) {
                        *o += x;
                    }
                }
            },
        );
        Tensor::from_vec(dh, &[v, f])
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
            let all: Vec<usize> = (0..e).collect();
            for threads in [1, 2, 4] {
                let op = Rc::new(Aggregate::new(&g, threads));
                for alpha in [None, Some(&alpha)] {
                    let ctx = format!(
                        "{v} V / {e} E, {threads} threads, weighted {}",
                        alpha.is_some()
                    );
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
