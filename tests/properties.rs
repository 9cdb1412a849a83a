//! Property-based tests over randomized graphs and tensors: the invariants
//! that must hold for *any* input, not just the unit-test fixtures.

use wisegraph_testkit::prelude::*;
use std::collections::HashMap;
use wisegraph::dfg::interp::execute;
use wisegraph::dfg::{transform, Binding, Dfg, Dim};
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::{io, AttrKind, Graph, ShardSpec};
use wisegraph::analysis::prelude::verify_repair;
use wisegraph::core::plan::Patterns;
use wisegraph::gtask::{
    partition, GraphDelta, IncrementalPlan, PartitionTable, Recount, Restriction,
};
use wisegraph::kernels::engine::{Engine, ExecMode};
use wisegraph::kernels::fused::{plan_fusion, FusedPattern};
use wisegraph::kernels::micro::compile;
use wisegraph::models::ModelKind;
use wisegraph::sim::{ComputeClass, DeviceSpec, KernelCost};
use wisegraph::tensor::{init, ops, Tensor};

fn arb_graph(max_v: usize, max_e: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_v, 1usize..max_e, 1usize..6, 0u64..10_000).prop_map(
        |(v, e, t, seed)| {
            rmat(&RmatParams::standard(v, e.max(1), seed).with_edge_types(t))
        },
    )
}

/// Like [`arb_graph`], but the draws also reach edgeless graphs, a single
/// vertex and isolated vertices: a third of them are RMAT graphs, a third
/// place `e` edges uniformly at random, and a third fewer edges than
/// vertices.
fn arb_ragged_graph(max_v: usize, max_e: usize) -> impl Strategy<Value = Graph> {
    (1usize..max_v, 0usize..max_e, 1usize..6, 0u64..10_000, 0usize..3).prop_map(
        |(v, e, t, seed, shape)| {
            if shape == 0 && v >= 2 && e >= 1 {
                return rmat(&RmatParams::standard(v, e, seed).with_edge_types(t));
            }
            let e = if shape == 2 { e % v } else { e };
            let mut rng = Rng::seed_from_u64(seed);
            let mut draw = |n: usize| (0..e).map(|_| rng.below(n as u64) as u32).collect();
            let (src, dst, ty) = (draw(v), draw(v), draw(t));
            Graph::new(v, t, src, dst, ty)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every §5.1 rewrite computes what the original DFG computes: each
    /// `transform::candidates` output (unique extraction, indexing swap and
    /// both), for every executable model and random graph, matches the
    /// interpreter's outputs on the original.
    fn transformations_preserve_semantics(
        g in arb_graph(60, 500),
        fi in 2usize..6,
        fo in 2usize..6,
        seed in 0u64..1000,
    ) {
        let mut inputs: HashMap<String, Tensor> = HashMap::new();
        inputs.insert("h".into(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, seed));
        inputs.insert("W".into(),
            init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, seed + 1));
        inputs.insert("w".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, seed + 2));
        inputs.insert("w_self".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, seed + 3));
        inputs.insert("w_neigh".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, seed + 4));
        inputs.insert("a_src".into(), init::uniform_tensor(&[fo, 1], -1.0, 1.0, seed + 5));
        inputs.insert("a_dst".into(), init::uniform_tensor(&[fo, 1], -1.0, 1.0, seed + 6));
        let binding = Binding::from_graph(&g);
        for model in [ModelKind::Gcn, ModelKind::Rgcn, ModelKind::Gat, ModelKind::Sage] {
            let dfg = model.layer_dfg(fi, fo);
            let base = execute(&dfg, &g, &inputs).unwrap();
            for (i, rewritten) in transform::candidates(&dfg, &binding).iter().enumerate() {
                let pass = format!("candidate #{i}");
                let got = execute(rewritten, &g, &inputs).unwrap();
                prop_assert_eq!(got.len(), base.len(), "{} {}: outputs", model.name(), pass);
                for (b, t) in base.iter().zip(&got) {
                    prop_assert!(
                        b.allclose(t, 1e-3),
                        "{} {}: diff {}", model.name(), pass, b.max_abs_diff(t)
                    );
                }
            }
        }
    }

    /// Gather followed by its adjoint scatter computes the same inner
    /// product from both sides: <gather(x, idx), y> == <x, scatter(y, idx)>.
    fn gather_scatter_adjoint(
        rows in 2usize..40,
        cols in 1usize..8,
        idx in prop::collection::vec(0u32..30, 1..80),
        seed in 0u64..1000,
    ) {
        let idx: Vec<u32> = idx.into_iter().map(|i| i % rows as u32).collect();
        let x = init::uniform_tensor(&[rows, cols], -1.0, 1.0, seed);
        let y = init::uniform_tensor(&[idx.len(), cols], -1.0, 1.0, seed + 1);
        let gx = ops::gather_rows(&x, &idx);
        let sy = ops::index_add_rows(rows, &y, &idx);
        let lhs: f32 = gx.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(sy.data()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()),
            "lhs {lhs} rhs {rhs}");
    }

    /// Segment softmax output sums to one within every non-empty segment
    /// and is invariant to a constant shift of the scores.
    fn segment_softmax_invariants(
        seg in prop::collection::vec(0u32..10, 1..60),
        shift in -50.0f32..50.0,
        seed in 0u64..1000,
    ) {
        let n = seg.len();
        let scores = init::uniform_tensor(&[n], -3.0, 3.0, seed);
        let out = ops::segment_softmax(&scores, &seg, 10);
        let mut sums = [0.0f32; 10];
        for (i, &s) in seg.iter().enumerate() {
            sums[s as usize] += out.data()[i];
        }
        for (s, &total) in sums.iter().enumerate() {
            if seg.iter().any(|&x| x as usize == s) {
                prop_assert!((total - 1.0).abs() < 1e-4, "segment {s}: {total}");
            }
        }
        let shifted = ops::map(&scores, |v| v + shift);
        let out2 = ops::segment_softmax(&shifted, &seg, 10);
        prop_assert!(out.allclose(&out2, 1e-4));
    }

    /// Every partition plan preserves edges exactly once and respects every
    /// `Exact` bound; the derived batch and dedup statistics stay in range.
    fn partition_invariants_hold(
        g in arb_graph(100, 800),
        k in 1u64..40,
        which in 0usize..7,
    ) {
        let table = match which {
            0 => PartitionTable::vertex_centric(),
            1 => PartitionTable::edge_centric(),
            2 => PartitionTable::two_d(k),
            3 => PartitionTable::src_batch_per_type(k),
            4 => PartitionTable::dst_batch_min_degree(k),
            5 => PartitionTable::dst_and_type(),
            _ => PartitionTable::edge_batch(k),
        };
        let plan = partition(&g, &table);
        prop_assert_eq!(plan.total_edges(), g.num_edges());
        let mut seen = vec![false; g.num_edges()];
        let mut recount = Recount::new(&g);
        for t in &plan.tasks {
            prop_assert!(!t.edges.is_empty());
            for &e in t.edges {
                let e = e as usize;
                prop_assert!(!seen[e], "edge {e} duplicated");
                seen[e] = true;
            }
            for (attr, bound) in table.exact_attrs() {
                prop_assert!(recount.unique(attr, t.edges) as u64 <= bound);
            }
        }
        // Derived statistics stay in range.
        let p = Patterns::count(&mut recount, &plan, &ModelKind::SageLstm.layer_dfg(4, 4));
        prop_assert!((0.0..=1.0).contains(&p.gather_dedup));
        prop_assert!(p.lstm_padding.is_some_and(|pad| pad >= 1.0 - 1e-9));
        let _ = Restriction::Free;
    }

    /// Kernel time is monotone in FLOPs and bytes for every compute class.
    fn kernel_time_monotone(
        flops in 1.0e6f64..1.0e12,
        bytes in 1.0e3f64..1.0e10,
        par in 1.0f64..1.0e6,
        class_idx in 0usize..6,
        k in 1usize..512,
    ) {
        let dev = DeviceSpec::a100_pcie();
        let class = match class_idx {
            0 => ComputeClass::Memory { coalesced: true },
            1 => ComputeClass::Memory { coalesced: false },
            2 => ComputeClass::Elementwise,
            3 => ComputeClass::EdgeWise,
            4 => ComputeClass::Batched { k },
            _ => ComputeClass::DenseMatmul,
        };
        let base = dev.kernel_time(&KernelCost { flops, bytes, parallel_tasks: par, class });
        let more_flops = dev.kernel_time(&KernelCost { flops: flops * 2.0, bytes, parallel_tasks: par, class });
        let more_bytes = dev.kernel_time(&KernelCost { flops, bytes: bytes * 2.0, parallel_tasks: par, class });
        prop_assert!(more_flops >= base);
        prop_assert!(more_bytes >= base);
        prop_assert!(base >= dev.launch_latency);
    }

    /// The greedy partitioner's output is accepted by the static plan
    /// verifier for *arbitrary* partition tables — including tables no
    /// built-in strategy constructs (many restricted attributes at once,
    /// tight and loose bounds mixed).
    fn plan_verifier_accepts_partitioner_output(
        g in arb_graph(80, 600),
        bits in 0u32..65_536,
        k in 1u64..24,
    ) {
        // Two bits per attribute: 2 → Exact(k·(i+1)), 3 → Min, else Free.
        let mut table = PartitionTable::new();
        for (i, &attr) in AttrKind::ALL.iter().enumerate() {
            match (bits >> (2 * i)) & 3 {
                2 => table = table.exact(attr, k * (i as u64 + 1)),
                3 => table = table.min(attr),
                _ => {}
            }
        }
        let plan = partition(&g, &table);
        let diags = wisegraph::analysis::plan::verify_plan(&g, &plan);
        let errors: Vec<_> = diags
            .iter()
            .filter(|d| d.severity == wisegraph::analysis::Severity::Error)
            .collect();
        prop_assert!(errors.is_empty(), "table {table}: {errors:#?}");
    }

    /// Captured span streams are well-nested for any graph, table, and
    /// worker count, and the deterministic spans appear exactly as many
    /// times as the execution shape dictates: one `engine.execute`, one
    /// `kernel.task` per gTask, one `engine.worker` per slot dealt to.
    fn engine_spans_are_well_nested(
        g in arb_graph(60, 400),
        k in 1u64..16,
        which in 0usize..3,
        threads in 1usize..5,
    ) {
        let table = match which {
            0 => PartitionTable::vertex_centric(),
            1 => PartitionTable::edge_batch(k),
            _ => PartitionTable::two_d(k),
        };
        let plan = partition(&g, &table);
        let dfg = ModelKind::Gcn.layer_dfg(4, 3);
        let mut inputs: HashMap<String, Tensor> = HashMap::new();
        inputs.insert("h".into(),
            init::uniform_tensor(&[g.num_vertices(), 4], -1.0, 1.0, 11));
        inputs.insert("w".into(), init::uniform_tensor(&[4, 3], -1.0, 1.0, 12));
        let engine = wisegraph::kernels::engine::Engine::new(threads);
        let (res, trace) = wisegraph::obs::capture(|| {
            engine.execute(&dfg, &g, &plan, &inputs)
        });
        prop_assert!(res.is_ok());
        prop_assert!(trace.check_nesting().is_ok(), "{:?}", trace.check_nesting());
        prop_assert_eq!(trace.span_count("engine.execute"), 1);
        // One runner, so exactly one span per gTask whatever the plan.
        prop_assert_eq!(trace.span_count("kernel.task"), plan.num_tasks());
        let slots =
            wisegraph::kernels::engine::deal_tasks(plan.num_tasks(), threads).len();
        prop_assert_eq!(trace.span_count("engine.worker"), slots);
        // GCN has no prologue; every worker reduces and finishes its rows.
        prop_assert_eq!(trace.span_count("engine.prologue"), 0);
        prop_assert_eq!(trace.span_count("engine.epilogue"), threads);
    }

    /// The engine's dealing, for any task and thread count: every task in
    /// exactly one block, at most `threads` slots and none of them idle,
    /// blocks ascending within a slot, one slot running `0..n` in order.
    fn dealing_covers_every_task_exactly_once(
        n in 0usize..5000,
        threads in 1usize..17,
    ) {
        let deal = wisegraph::kernels::engine::deal_tasks(n, threads);
        prop_assert!(deal.len() <= threads);
        let mut seen = vec![0u32; n];
        for blocks in &deal {
            prop_assert!(!blocks.is_empty());
            let mut floor = 0;
            for b in blocks {
                prop_assert!(b.start >= floor && b.start < b.end && b.end <= n);
                floor = b.end;
                b.clone().for_each(|t| seen[t] += 1);
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
        let one: Vec<usize> = wisegraph::kernels::engine::deal_tasks(n, 1)
            .into_iter()
            .flatten()
            .flatten()
            .collect();
        prop_assert_eq!(one, (0..n).collect::<Vec<_>>());
    }

    /// Relabeling a graph by any generated permutation preserves every
    /// degree- and type-based statistic that partitioning depends on.
    fn relabel_preserves_partition_statistics(
        g in arb_graph(80, 400),
        seed in 0u64..1000,
    ) {
        // Pseudo-random permutation.
        let n = g.num_vertices();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut state = seed;
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let r = g.relabel(&perm);
        let mut a: Vec<u32> = g.in_degree().to_vec();
        let mut b: Vec<u32> = r.in_degree().to_vec();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        // Type histogram unchanged.
        let hist = |gr: &Graph| {
            let mut h = vec![0usize; gr.num_edge_types()];
            for &t in gr.etype() { h[t as usize] += 1; }
            h
        };
        prop_assert_eq!(hist(&g), hist(&r));
        // Degree-grouped partitioning yields the same task-size multiset.
        let ta = partition(&g, &PartitionTable::dst_degree_grouped());
        let tb = partition(&r, &PartitionTable::dst_degree_grouped());
        let mut sa: Vec<usize> = ta.tasks.iter().map(|t| t.num_edges()).collect();
        let mut sb: Vec<usize> = tb.tasks.iter().map(|t| t.num_edges()).collect();
        sa.sort_unstable();
        sb.sort_unstable();
        prop_assert_eq!(sa, sb);
        let _ = AttrKind::DstDegree;
        let _ = Dim::Vertices;
    }

    /// Fused segment-reduce is bit-identical to the interpreter for
    /// *arbitrary* ragged segment shapes: random edge lists naturally
    /// produce empty segments (isolated destinations), single-element
    /// segments, and heavy hubs. Shrinking converges on the minimal
    /// edge list that would break the bit-identity contract.
    fn fused_segment_reduce_bit_identical_on_ragged_shapes(
        v in 1usize..40,
        raw_edges in prop::collection::vec((0u32..1000, 0u32..1000), 0..150),
        n in 1usize..10,
        threads in 1usize..5,
        batch in 1u64..50,
        seed in 0u64..1000,
    ) {
        let src: Vec<u32> = raw_edges.iter().map(|&(s, _)| s % v as u32).collect();
        let dst: Vec<u32> = raw_edges.iter().map(|&(_, d)| d % v as u32).collect();
        let g = Graph::untyped(v, src, dst);
        // The minimal gather→scatter layer: GCN aggregation without the
        // epilogue, so the whole program is one fused segment-reduce.
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(n)]);
        let src_n = d.edge_attr(AttrKind::SrcId);
        let dst_n = d.edge_attr(AttrKind::DstId);
        let hsrc = d.index(h, src_n);
        let agg = d.index_add(hsrc, dst_n, Dim::Vertices);
        d.mark_output(agg);
        let program = compile(&d, &g).unwrap();
        prop_assert_eq!(
            plan_fusion(&program).patterns(),
            vec![FusedPattern::SegmentReduce]
        );
        let mut globals: HashMap<String, Tensor> = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(&[v, n], -1.0, 1.0, seed),
        );
        let plan = partition(&g, &PartitionTable::edge_batch(batch));
        let a = Engine::with_mode(threads, ExecMode::Interpret)
            .execute(&d, &g, &plan, &globals)
            .unwrap();
        let b = Engine::with_mode(threads, ExecMode::Fused)
            .execute(&d, &g, &plan, &globals)
            .unwrap();
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(x.dims(), y.dims());
            prop_assert_eq!(x.data(), y.data());
        }
    }

    /// Incremental repair under arbitrary insert/delete streams: after
    /// every batch the repaired snapshot covers exactly the live edge set
    /// (tracked independently here), verifies clean under the `C001`
    /// repair verifier — i.e. identically to a from-scratch partition of
    /// the same edges — and honors every `Exact` restriction.
    fn incremental_repair_verifies_clean_under_random_streams(
        g in arb_graph(50, 400),
        batches in prop::collection::vec(
            (prop::collection::vec(0usize..10_000, 0..30),
             prop::collection::vec(0usize..10_000, 0..30)),
            1..8,
        ),
        table_pick in 0usize..4,
    ) {
        let table = match table_pick {
            0 => PartitionTable::vertex_centric(),
            1 => PartitionTable::edge_batch(16),
            2 => PartitionTable::src_batch_per_type(4),
            _ => PartitionTable::dst_and_type(),
        };
        let mut inc = IncrementalPlan::new(&g, table.clone());
        let mut mirror: std::collections::BTreeSet<usize> =
            (0..g.num_edges()).collect();
        for (dels, inss) in batches {
            let delta = GraphDelta {
                delete: dels.into_iter().map(|e| e % g.num_edges()).collect(),
                insert: inss.into_iter().map(|e| e % g.num_edges()).collect(),
            };
            // Deletes apply before inserts, exactly like the plan does.
            for &e in &delta.delete { mirror.remove(&e); }
            for &e in &delta.insert { mirror.insert(e); }
            inc.apply(&g, &delta);
            let live = inc.live_edges();
            prop_assert_eq!(
                &live,
                &mirror.iter().copied().collect::<Vec<_>>(),
                "live set diverged from the independent mirror"
            );
            let snap = inc.snapshot(&g);
            // Exact-once coverage, counted directly.
            let mut seen: Vec<usize> =
                snap.tasks.edges().iter().map(|&e| e as usize).collect();
            seen.sort_unstable();
            prop_assert_eq!(&seen, &live, "snapshot coverage differs from live set");
            // And the full C001 verdict: clean, like a from-scratch plan.
            let diags = verify_repair(&g, &table, &live, &snap);
            prop_assert!(diags.is_empty(), "[{}]: {:#?}", table, diags);
        }
    }

    /// Sharded runs on arbitrary graphs and shard counts: the shards are
    /// ragged (edgeless graphs, a single vertex, isolated vertices, more
    /// devices than vertices, devices owning no edges, shards with zero
    /// remote sources), and still every compatible placement of every
    /// model matches a one-device engine run — bit for bit, except that
    /// compute-then-reduce re-associates its partial sums and is only
    /// close — every collective conserves bytes, the merged event order is
    /// deterministic, and repeating the run reproduces outputs and
    /// exchange log bit-for-bit.
    fn sharded_exchange_conserves_and_repeats(
        g in arb_ragged_graph(50, 400),
        devices in 1usize..9,
        fi in 2usize..5,
        fo in 2usize..5,
        seed in 0u64..1000,
        model_pick in 0usize..4,
    ) {
        use wisegraph::kernels::cluster::compatible_placements;
        use wisegraph::kernels::ClusterEngine;
        use wisegraph::sim::PlacementKind;

        let model = [ModelKind::Gcn, ModelKind::Rgcn, ModelKind::Sage, ModelKind::Gat]
            [model_pick];
        let dfg = model.layer_dfg(fi, fo);
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let mut globals: HashMap<String, Tensor> = HashMap::new();
        globals.insert("h".into(),
            init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, seed));
        globals.insert("W".into(),
            init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, seed + 1));
        globals.insert("w".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, seed + 2));
        globals.insert("w_self".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, seed + 3));
        globals.insert("w_neigh".into(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, seed + 4));
        globals.insert("a_src".into(), init::uniform_tensor(&[fo, 1], -1.0, 1.0, seed + 5));
        globals.insert("a_dst".into(), init::uniform_tensor(&[fo, 1], -1.0, 1.0, seed + 6));
        let program = compile(&dfg, &g).unwrap();
        let threads = 2;
        let reference = Engine::new(threads).execute(&dfg, &g, &plan, &globals).unwrap();
        for placement in compatible_placements(&program, &g, &globals) {
            let run_once = || {
                let cluster = ClusterEngine::new(devices, threads);
                cluster
                    .execute(&dfg, &g, &plan, &globals, placement)
                    .unwrap_or_else(|e| panic!("{}/{devices}: {e}", placement.name()))
            };
            let a = run_once();
            let ctx = format!("{} {} at {devices} devices", model.name(), placement.name());
            prop_assert_eq!(a.outputs.len(), reference.len(), "{}", ctx);
            for (got, want) in a.outputs.iter().zip(&reference) {
                if placement == PlacementKind::ComputeThenReduce {
                    prop_assert!(want.allclose(got, 1e-3), "{}: diverged from one engine", ctx);
                } else {
                    prop_assert_eq!(got.data(), want.data(), "{}: not bit-identical", ctx);
                }
            }
            prop_assert!(
                a.exchange.is_conserved(),
                "{} at {devices} devices: unbalanced exchange", placement.name()
            );
            // Sent and received views must account for the same bytes.
            prop_assert_eq!(a.exchange.bytes_sent(), a.exchange.bytes_received());
            let b = run_once();
            prop_assert_eq!(
                &a.exchange, &b.exchange,
                "{} at {devices} devices: merged event order not reproducible",
                placement.name()
            );
            for (x, y) in a.outputs.iter().zip(b.outputs.iter()) {
                prop_assert_eq!(
                    x.data(), y.data(),
                    "{} at {devices} devices: outputs differ across repeat runs",
                    placement.name()
                );
            }
        }
    }

    /// Vertex ownership (`ShardSpec::balanced`): the ranges tile `[0, V)`
    /// in device order, `owner` agrees with `owned_range`, and no shard
    /// holds more in-edges than the mean plus one vertex's worth.
    fn balanced_boundaries_tile_and_bound_the_largest_shard(
        g in arb_graph(120, 900),
        devices in 1usize..20,
    ) {
        let spec = ShardSpec::balanced(&g, devices);
        prop_assert_eq!(spec.num_shards(), devices);
        let mut next = 0usize;
        let mut largest = 0usize;
        for d in 0..devices {
            let r = spec.owned_range(d);
            prop_assert_eq!(r.start, next, "device {} starts off the previous end", d);
            prop_assert!(r.end >= r.start);
            for v in r.clone() {
                prop_assert_eq!(spec.owner(v as u32), d, "vertex {}", v);
            }
            let in_edges: usize = g.in_degree()[r.clone()].iter().map(|&x| x as usize).sum();
            prop_assert_eq!(spec.owned_dst_edges(&g, d).len(), in_edges);
            largest = largest.max(in_edges);
            next = r.end;
        }
        prop_assert_eq!(next, g.num_vertices());
        let max_deg = g.in_degree().iter().copied().max().unwrap_or(0) as usize;
        prop_assert!(
            largest * devices <= g.num_edges() + max_deg * devices,
            "largest shard {} in-edges of {} over {} devices, max in-degree {}",
            largest, g.num_edges(), devices, max_deg
        );
    }

    /// A binary graph file with random bytes flipped in its edge-count
    /// field and payload, then possibly cut short, reads back as an error
    /// or as exactly the graph its bytes describe — never a panic.
    fn corrupt_graph_files_read_as_errors_or_what_they_say(
        g in arb_graph(40, 300),
        flips in prop::collection::vec((0usize..100_000, 1u8..255), 0..6),
        cut in 0usize..8_000,
    ) {
        let mut buf = Vec::new();
        io::write_binary(&g, &mut buf).unwrap();
        // Flippable: the edge count (bytes 16..24) and the payload (32..).
        let region = 8 + buf.len() - 32;
        for (pos, xor) in flips {
            let off = pos % region;
            buf[if off < 8 { 16 + off } else { 24 + off }] ^= xor;
        }
        buf.truncate(cut);
        if buf.len() < 32 {
            prop_assert!(io::read_binary(&buf[..]).is_err(), "read a cut header");
            return Ok(());
        }
        let field = |i: usize| u64::from_le_bytes(buf[8 * i..8 * i + 8].try_into().unwrap());
        let (v, e, t) = (field(1), field(2), field(3));
        let words: Vec<u32> = buf[32..]
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
            .collect();
        let sized = e.checked_mul(12).and_then(|b| b.checked_add(32)) == Some(buf.len() as u64);
        let n = words.len() / 3;
        let describes_a_graph = sized
            && v <= u64::from(u32::MAX)
            && words[..2 * n].iter().all(|&id| u64::from(id) < v)
            && words[2 * n..].iter().all(|&ty| u64::from(ty) < t.max(1));
        match io::read_binary(&buf[..]) {
            Ok(back) => {
                prop_assert!(describes_a_graph, "read a graph the bytes do not describe");
                prop_assert_eq!(back.num_vertices() as u64, v);
                prop_assert_eq!(back.src(), &words[..n]);
                prop_assert_eq!(back.dst(), &words[n..2 * n]);
                prop_assert_eq!(back.etype(), &words[2 * n..]);
            }
            Err(err) => prop_assert!(!describes_a_graph, "rejected a valid file: {}", err),
        }
    }
}
