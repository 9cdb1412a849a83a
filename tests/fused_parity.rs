//! Differential fused-codegen / interpreter harness (bit-identical).
//!
//! The fusion layer (`wisegraph::kernels::fused`) replaces matched
//! micro-kernel chains with specialized cache-blocked loops. Its contract
//! is *bit identity*: for every model, partition table, and thread count,
//! the fused engine must produce exactly the bytes of the interpreter and
//! report exactly the same `Class::Work` counters (tasks, edges, flops,
//! bytes moved). These tests sweep the full cross product and pin that
//! contract, with one parity test per fusion pattern below. The sweep runs
//! each model's layer DFG and every compiling `transform::candidates`
//! rewrite of it, so the RGCN form `transform::optimize` ships is covered.
//!
//! Parity is asserted per thread count only: changing the thread count
//! changes the reduction chunking, and float addition is not associative.

use std::collections::HashMap;
use wisegraph::dfg::analysis::indexing_attrs;
use wisegraph::dfg::interp;
use wisegraph::dfg::{transform, Binding, Dfg};
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::Graph;
use wisegraph::gtask::restriction::enumerate_tables;
use wisegraph::gtask::{partition, PartitionPlan, PartitionTable};
use wisegraph::kernels::engine::{Engine, ExecMode};
use wisegraph::kernels::fused::{plan_fusion, FusedPattern};
use wisegraph::kernels::micro::{compile, MicroKernel, Src};
use wisegraph::models::ModelKind;
use wisegraph::obs::{counters_to_json, keys, Class};
use wisegraph::tensor::{init, Tensor};
use wisegraph_testkit::rng::Rng;

const THREADS: [usize; 3] = [1, 2, 4];
const BATCH_SIZES: [u64; 2] = [4, 32];

fn globals_for(g: &Graph, fi: usize, fo: usize) -> HashMap<String, Tensor> {
    let mut m = HashMap::new();
    m.insert(
        "h".to_string(),
        init::uniform_tensor(&[g.num_vertices(), fi], -1.0, 1.0, 11),
    );
    m.insert(
        "W".to_string(),
        init::uniform_tensor(&[g.num_edge_types(), fi, fo], -1.0, 1.0, 12),
    );
    m.insert("w".to_string(), init::uniform_tensor(&[fi, fo], -1.0, 1.0, 13));
    m.insert(
        "w_self".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 14),
    );
    m.insert(
        "w_neigh".to_string(),
        init::uniform_tensor(&[fi, fo], -1.0, 1.0, 15),
    );
    m.insert(
        "a_src".to_string(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 16),
    );
    m.insert(
        "a_dst".to_string(),
        init::uniform_tensor(&[fo, 1], -1.0, 1.0, 17),
    );
    m
}

/// Bits with every NaN as one class: which NaN an add of two NaNs returns
/// is unspecified, and the optimizer may swap an add's operands.
fn nan_class_bits(t: &Tensor) -> Vec<u32> {
    t.data()
        .iter()
        .map(|f| if f.is_nan() { f32::NAN.to_bits() } else { f.to_bits() })
        .collect()
}

/// Runs `dfg` under both engines at `threads` and asserts bit-identical
/// outputs plus identical `Class::Work` counters. Returns the fused
/// engine's outputs for further checks.
fn assert_modes_match(
    dfg: &Dfg,
    g: &Graph,
    plan: &PartitionPlan,
    globals: &HashMap<String, Tensor>,
    threads: usize,
    ctx: &str,
) -> Vec<Tensor> {
    let ie = Engine::with_mode(threads, ExecMode::Interpret);
    let fe = Engine::with_mode(threads, ExecMode::Fused);
    let a = ie
        .execute(dfg, g, plan, globals)
        .unwrap_or_else(|e| panic!("{ctx}: interpreter path: {e}"));
    let b = fe
        .execute(dfg, g, plan, globals)
        .unwrap_or_else(|e| panic!("{ctx}: fused path: {e}"));
    assert_eq!(a.len(), b.len(), "{ctx}");
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.dims(), y.dims(), "{ctx}");
        assert_eq!(
            nan_class_bits(x),
            nan_class_bits(y),
            "{ctx}: fused output not bit-identical at {threads} threads"
        );
    }
    let wa = counters_to_json(&ie.stats().only(&[Class::Work]));
    let wb = counters_to_json(&fe.stats().only(&[Class::Work]));
    assert_eq!(wa, wb, "{ctx}: Work counters diverge at {threads} threads");
    b
}

/// Every distinct DFG of `kind` the engine runs: its layer and each
/// `transform::candidates` rewrite that compiles (what `fwd_full` and
/// `sampled_stream` execute is `transform::optimize`'s pick among them;
/// RGCN's extract-only candidate is a compile error and is skipped).
fn shipped_dfgs(kind: ModelKind, g: &Graph, fi: usize, fo: usize) -> Vec<Dfg> {
    let mut dfgs: Vec<Dfg> = Vec::new();
    for dfg in transform::candidates(&kind.layer_dfg(fi, fo), &Binding::from_graph(g)) {
        if compile(&dfg, g).is_ok() && !dfgs.contains(&dfg) {
            dfgs.push(dfg);
        }
    }
    dfgs
}

/// Widths of the per-row product cases, each at a one-column and a
/// 64-column input: one 16- or 32-column register tile, a 32-column tile
/// and the last three columns, and a 32- and an 8-column tile.
const WIDE_SHAPES: [(usize, usize); 8] =
    [(1, 16), (1, 32), (1, 35), (1, 40), (64, 16), (64, 32), (64, 35), (64, 40)];

/// `t` salted from `seed`: about one element in `nonfinite` is NaN or
/// ±inf, and of the rest one in four is ±0.0 or a subnormal. Sparse
/// non-finite values leave most sums finite, so a zero-skip dropped
/// against an inf weight shows as a NaN where the sum is finite or inf.
fn salted(t: &Tensor, seed: u64, nonfinite: u64) -> Tensor {
    let mut rng = Rng::seed_from_u64(seed);
    let data = (t.data().iter())
        .map(|&x| {
            if rng.below(nonfinite) == 0 {
                return [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.below(3) as usize];
            }
            match rng.below(8) {
                0 => 0.0,
                1 => -0.0,
                2 => [f32::from_bits(1), -f32::MIN_POSITIVE / 3.0][rng.below(2) as usize],
                _ => x,
            }
        })
        .collect();
    Tensor::from_vec(data, t.dims())
}

/// A plan of ascending runs of edge ids, of 1, 2, 3, 5 and 7 edges in
/// turn: a one-edge task and odd edge counts, and at one thread the
/// engine adds every edge in id order, as the DFG interpreter does.
fn ascending_runs(g: &Graph) -> PartitionPlan {
    let (mut lists, mut e) = (Vec::new(), 0);
    for len in [1, 2, 3, 5, 7].into_iter().cycle() {
        if e == g.num_edges() {
            break;
        }
        let end = (e + len).min(g.num_edges());
        lists.push(((e..end).collect(), Vec::new()));
        e = end;
    }
    PartitionPlan::from_task_lists(PartitionTable::edge_batch(7), Vec::new(), lists)
}

/// The per-row product `layer(fi, fo)` fuses to `pattern` at every
/// [`WIDE_SHAPES`] width, with `h` and every weight salted, on the
/// [`ascending_runs`] plan and on a vertex-centric one: fused against
/// interpreted at every thread count, and at one thread against the DFG
/// interpreter's own loops, the check a fault shared by both engine paths
/// (the per-row kernel both call) cannot pass.
fn assert_salted_wide_shapes_match(pattern: FusedPattern, layer: impl Fn(usize, usize) -> Dfg) {
    let g = rmat(&RmatParams::standard(120, 900, 61).with_edge_types(3));
    let runs = ascending_runs(&g);
    let sizes: Vec<usize> = (0..runs.tasks.len()).map(|i| runs.tasks.task(i).edges.len()).collect();
    assert!(sizes.contains(&1) && sizes.iter().any(|&n| n > 1 && n % 2 == 1));
    for (fi, fo) in WIDE_SHAPES {
        let dfg = layer(fi, fo);
        // `h` gets about one non-finite value per 16 rows, each weight
        // about one per 512 elements.
        let globals: HashMap<String, Tensor> = (globals_for(&g, fi, fo).into_iter())
            .map(|(name, t)| {
                let seed = name.bytes().map(u64::from).sum();
                let nonfinite = if name == "h" { 16 * fi as u64 } else { 512 };
                (name, salted(&t, seed, nonfinite))
            })
            .collect();
        let program = compile(&dfg, &g).unwrap();
        assert_eq!(plan_fusion(&program).patterns(), vec![pattern]);
        let ctx = format!("{} at fi {fi}, fo {fo}", pattern.name());
        let want = interp::execute(&dfg, &g, &globals).unwrap();
        let got = assert_modes_match(&dfg, &g, &runs, &globals, 1, &ctx);
        assert_eq!(nan_class_bits(&got[0]), nan_class_bits(&want[0]), "{ctx}: against the DFG interpreter");
        for plan in [&runs, &partition(&g, &PartitionTable::vertex_centric())] {
            for threads in THREADS {
                assert_modes_match(&dfg, &g, plan, &globals, threads, &ctx);
            }
        }
    }
}

/// The full sweep: every model's layer and compiling rewrites × every
/// enumerable table × {1,2,4} threads.
#[test]
fn all_models_all_tables_all_threads_are_bit_identical() {
    let (fi, fo) = (6, 5);
    let g = rmat(&RmatParams::standard(140, 1100, 71).with_edge_types(3));
    let globals = globals_for(&g, fi, fo);
    let mut combos = 0usize;
    for kind in [
        ModelKind::Gcn,
        ModelKind::Rgcn,
        ModelKind::Gat,
        ModelKind::Sage,
    ] {
        for (c, dfg) in shipped_dfgs(kind, &g, fi, fo).iter().enumerate() {
            let indexing: Vec<_> = indexing_attrs(dfg).into_iter().collect();
            for table in enumerate_tables(&indexing, &BATCH_SIZES) {
                for threads in THREADS {
                    let ctx = format!(
                        "{} dfg {c} × [{table}] × {threads} threads",
                        kind.name()
                    );
                    assert_modes_match(dfg, &g, &partition(&g, &table), &globals, threads, &ctx);
                    combos += 1;
                }
            }
        }
    }
    // The sweep must actually have covered a non-trivial cross product.
    assert!(combos >= 36, "only {combos} combinations exercised");
}

/// The default mode must agree with the interpreter — and which plan ran
/// must be observable: fusing programs report fused tasks, a program with
/// no matching chain (GCN's extract-only rewrite, whose plan is fully
/// interpreted) reports none.
#[test]
fn default_mode_dispatch_is_bit_identical_and_observable() {
    let (fi, fo) = (6, 5);
    let g = rmat(&RmatParams::standard(120, 900, 73).with_edge_types(3));
    let globals = globals_for(&g, fi, fo);
    let gcn_extracted = shipped_dfgs(ModelKind::Gcn, &g, fi, fo)
        .into_iter()
        .find(|d| {
            let program = compile(d, &g).unwrap();
            program.ops.iter().any(|k| matches!(k, MicroKernel::Gather { src: Src::Reg(_), .. }))
        })
        .expect("GCN has an extract-only rewrite");
    for (name, dfg, table, fuses) in [
        ("GCN", ModelKind::Gcn.layer_dfg(fi, fo), PartitionTable::edge_batch(32), true),
        ("RGCN", ModelKind::Rgcn.layer_dfg(fi, fo), PartitionTable::src_batch_per_type(8), true),
        ("SAGE", ModelKind::Sage.layer_dfg(fi, fo), PartitionTable::two_d(4), true),
        ("GAT", ModelKind::Gat.layer_dfg(fi, fo), PartitionTable::vertex_centric(), true),
        ("GCN extract-only", gcn_extracted, PartitionTable::edge_batch(32), false),
    ] {
        let plan = partition(&g, &table);
        let ie = Engine::with_mode(2, ExecMode::Interpret);
        let ae = Engine::new(2);
        assert_eq!(ae.mode(), ExecMode::Fused);
        let a = ie.execute(&dfg, &g, &plan, &globals).unwrap();
        let b = ae.execute(&dfg, &g, &plan, &globals).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.data(), y.data(), "{name}");
        }
        let fused_tasks = ae.stats().count(keys::KERNEL_FUSED_TASKS);
        if fuses {
            assert!(fused_tasks > 0, "{name}: the default did not fuse");
        } else {
            assert_eq!(fused_tasks, 0, "{name}: fused a non-matching program");
        }
        // The interpreter engine must never report fused dispatches.
        assert_eq!(ie.stats().count(keys::KERNEL_FUSED_TASKS), 0);
    }
}

/// Registered parity test for [`FusedPattern::SegmentReduce`]
/// (Gather of a global → ScatterAdd; GCN/SAGE neighbor aggregation).
#[test]
fn segment_reduce_fused_matches_interpreter() {
    let (fi, fo) = (6, 5);
    let g = rmat(&RmatParams::standard(130, 1000, 67));
    let globals = globals_for(&g, fi, fo);
    for kind in [ModelKind::Gcn, ModelKind::Sage] {
        let dfg = kind.layer_dfg(fi, fo);
        let program = compile(&dfg, &g).unwrap();
        assert!(
            plan_fusion(&program)
                .patterns()
                .contains(&FusedPattern::SegmentReduce),
            "{}: expected a segment-reduce chain",
            kind.name()
        );
        for table in [
            PartitionTable::vertex_centric(),
            PartitionTable::edge_batch(32),
            PartitionTable::two_d(4),
        ] {
            for threads in THREADS {
                let ctx = format!("segment_reduce {} × [{table}]", kind.name());
                assert_modes_match(&dfg, &g, &partition(&g, &table), &globals, threads, &ctx);
            }
        }
    }
}

/// Registered parity test for [`FusedPattern::PerTypeBatchedMatmul`]
/// (Gather of rows → Gather of weight slices → PerRowVecMat → ScatterAdd;
/// RGCN's per-edge-type projection).
#[test]
fn per_type_batched_matmul_fused_matches_interpreter() {
    let (fi, fo) = (6, 5);
    let g = rmat(&RmatParams::standard(120, 900, 61).with_edge_types(3));
    let globals = globals_for(&g, fi, fo);
    let dfg = ModelKind::Rgcn.layer_dfg(fi, fo);
    let program = compile(&dfg, &g).unwrap();
    assert_eq!(
        plan_fusion(&program).patterns(),
        vec![FusedPattern::PerTypeBatchedMatmul]
    );
    for table in [
        PartitionTable::vertex_centric(),
        PartitionTable::src_batch_per_type(8),
        PartitionTable::edge_batch(32),
    ] {
        for threads in THREADS {
            let ctx = format!("per_type_batched_matmul × [{table}]");
            assert_modes_match(&dfg, &g, &partition(&g, &table), &globals, threads, &ctx);
        }
    }
    assert_salted_wide_shapes_match(FusedPattern::PerTypeBatchedMatmul, |fi, fo| {
        ModelKind::Rgcn.layer_dfg(fi, fo)
    });
}

/// Registered parity test for [`FusedPattern::WeightedSegmentReduce`]
/// (Gather of the softmax's edge value → Squeeze → Gather → ScaleRows →
/// ScatterAdd; GAT's attention-weighted aggregation) and
/// [`FusedPattern::EdgeScore`] (Gather, Gather → Add → LeakyRelu →
/// Squeeze; GAT's per-call score chain). One GAT layer has both, on
/// destination-complete and destination-splitting tables.
#[test]
fn gat_patterns_fused_match_interpreter() {
    let (fi, fo) = (6, 5);
    let g = rmat(&RmatParams::standard(130, 1000, 63));
    let globals = globals_for(&g, fi, fo);
    let dfg = ModelKind::Gat.layer_dfg(fi, fo);
    let program = compile(&dfg, &g).unwrap();
    assert_eq!(
        plan_fusion(&program).patterns(),
        vec![FusedPattern::EdgeScore, FusedPattern::WeightedSegmentReduce]
    );
    for table in [
        PartitionTable::vertex_centric(),
        PartitionTable::edge_batch(4),
        PartitionTable::edge_batch(32),
        PartitionTable::two_d(4),
    ] {
        for threads in THREADS {
            let ctx = format!("gat patterns × [{table}]");
            assert_modes_match(&dfg, &g, &partition(&g, &table), &globals, threads, &ctx);
        }
    }
}

/// Registered parity test for [`FusedPattern::PairwiseScatter`]
/// (Gather2D of a register → ScatterAdd; RGCN's Fig. 9 extract+swap form, the
/// rewrite `transform::optimize` picks).
#[test]
fn pairwise_scatter_fused_matches_interpreter() {
    let (fi, fo) = (6, 5);
    let g = rmat(&RmatParams::standard(120, 900, 65).with_edge_types(3));
    let globals = globals_for(&g, fi, fo);
    let (dfg, _) = transform::optimize(&ModelKind::Rgcn.layer_dfg(fi, fo), &Binding::from_graph(&g));
    let program = compile(&dfg, &g).unwrap();
    assert_eq!(
        plan_fusion(&program).patterns(),
        vec![FusedPattern::PairwiseScatter]
    );
    for table in [
        PartitionTable::vertex_centric(),
        PartitionTable::src_batch_per_type(8),
        PartitionTable::edge_batch(32),
    ] {
        for threads in THREADS {
            let ctx = format!("pairwise_scatter × [{table}]");
            assert_modes_match(&dfg, &g, &partition(&g, &table), &globals, threads, &ctx);
        }
    }
}

/// Every pattern the codegen can emit has its parity test above: the
/// exhaustive `match` names each one, so a new pattern does not compile
/// until it registers one here.
#[test]
fn every_fused_pattern_is_registered_here() {
    for p in FusedPattern::ALL {
        let _parity_test: fn() = match p {
            FusedPattern::SegmentReduce => segment_reduce_fused_matches_interpreter,
            FusedPattern::PerTypeBatchedMatmul => {
                per_type_batched_matmul_fused_matches_interpreter
            }
            FusedPattern::WeightedSegmentReduce | FusedPattern::EdgeScore => {
                gat_patterns_fused_match_interpreter
            }
            FusedPattern::PairwiseScatter => pairwise_scatter_fused_matches_interpreter,
        };
    }
}
