//! Inputs made from `--seed`, and the output comparisons the checks share.

use std::collections::HashMap;

use wisegraph::dfg::Dfg;
use wisegraph::graph::generate::{rmat, RmatParams};
use wisegraph::graph::Graph;
use wisegraph::gtask::PartitionTable;
use wisegraph::kernels::exec::rgcn_edge_by_edge;
use wisegraph::models::ModelKind;
use wisegraph::tensor::{init, Tensor};

use crate::harness::Config;

/// Feature width of every layer input (and of the host probes' tile).
pub const F: usize = 64;
/// Edge types of every generated graph (RGCN needs several).
pub const EDGE_TYPES: usize = 8;

/// The AR-analogue power-law graph of the run's scale.
pub fn ar_graph(cfg: &Config) -> Graph {
    rmat(
        &RmatParams::standard(cfg.scale.vertices, cfg.scale.edges, cfg.seed)
            .with_edge_types(EDGE_TYPES),
    )
}

/// Every global any model layer reads; engines ignore unused entries.
pub fn model_globals(g: &Graph, fi: usize, fo: usize, seed: u64) -> HashMap<String, Tensor> {
    let t =
        |dims: &[usize], k: u64| init::uniform_tensor(dims, -1.0, 1.0, seed.wrapping_mul(16) + k);
    HashMap::from([
        ("h".to_string(), t(&[g.num_vertices(), fi], 1)),
        ("W".to_string(), t(&[g.num_edge_types(), fi, fo], 2)),
        ("w".to_string(), t(&[fi, fo], 3)),
        ("w_self".to_string(), t(&[fi, fo], 4)),
        ("w_neigh".to_string(), t(&[fi, fo], 5)),
        ("a_src".to_string(), t(&[fo, 1], 6)),
        ("a_dst".to_string(), t(&[fo, 1], 7)),
    ])
}

pub fn model_slug(m: ModelKind) -> &'static str {
    match m {
        ModelKind::Gcn => "gcn",
        ModelKind::Sage => "sage",
        ModelKind::Gat => "gat",
        ModelKind::Rgcn => "rgcn",
        ModelKind::SageLstm => "sage_lstm",
    }
}

/// The three partition tables the benchmark plans under, by metric slug.
pub fn tables() -> [(&'static str, PartitionTable); 3] {
    [
        ("vertex_centric", PartitionTable::vertex_centric()),
        ("edge_batch_64", PartitionTable::edge_batch(64)),
        (
            "src_batch_per_type_64",
            PartitionTable::src_batch_per_type(64),
        ),
    ]
}

/// Reference output of one layer: the DFG interpreter on the untransformed
/// DFG. RGCN is the exception — its untransformed DFG materialises an
/// `[E, F, F]` weight gather (9.4 GB at AR size), so it is checked against
/// `kernels::exec::rgcn_edge_by_edge`, the repo's own numeric ground truth.
pub fn reference(
    model: ModelKind,
    base: &Dfg,
    g: &Graph,
    globals: &HashMap<String, Tensor>,
) -> Tensor {
    if model == ModelKind::Rgcn {
        return rgcn_edge_by_edge(g, &globals["h"], &globals["W"]);
    }
    wisegraph::dfg::interp::execute(base, g, globals)
        .expect("reference interpreter runs")
        .swap_remove(0)
}

/// `got` within 1e-3 of `want`, relative to `want`'s largest magnitude
/// (sums over hundreds of neighbours re-associate between executors).
pub fn check_close(got: &Tensor, want: &Tensor) -> Result<(), String> {
    if got.dims() != want.dims() {
        return Err(format!(
            "shape {:?}, expected {:?}",
            got.dims(),
            want.dims()
        ));
    }
    let scale = want.data().iter().fold(1.0f32, |m, x| m.max(x.abs()));
    let diff = got.max_abs_diff(want);
    if !got.all_finite() || diff > 1e-3 * scale {
        return Err(format!("max |diff| {diff} against magnitude {scale}"));
    }
    Ok(())
}

/// `got` bit-identical to `want`.
pub fn check_bits(got: &Tensor, want: &Tensor) -> Result<(), String> {
    let same = got.dims() == want.dims()
        && got
            .data()
            .iter()
            .zip(want.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if same {
        Ok(())
    } else {
        Err("output is not bit-identical to the reference".into())
    }
}
