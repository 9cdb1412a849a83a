//! Sharded-execution verification (`S001`–`S003`).
//!
//! The cluster layer (`wisegraph_kernels::cluster`) distributes one plan
//! across simulated devices and moves real buffers through deterministic
//! collectives. Three invariants make that sound, and this pass proves
//! the static ones and audits the dynamic one:
//!
//! - **Shard coverage** (`S001`): the contiguous vertex shard must tile
//!   the vertex space, and the per-device destination-filtered plans must
//!   together cover every edge of the original plan exactly once while
//!   preserving task slots (the slot identity is what keeps float
//!   addition order — and therefore bits — independent of the device
//!   count).
//! - **Exchange conservation** (`S002`): every byte a device reports
//!   sending must be reported received by exactly one peer in the same
//!   collective round, and vice versa — a mismatch means a collective
//!   dropped or duplicated a message.
//! - **Placement compatibility** (`S003`): a schedule must only run
//!   programs whose access structure it can partition (the
//!   [`wisegraph_kernels::cluster::placement_compatible`] rules); a
//!   selector that picks an incompatible schedule would wedge or corrupt
//!   a collective.

use std::collections::HashMap;

use crate::{push_capped, Code, Diagnostic, Span};
use wisegraph_graph::{Graph, ShardSpec};
use wisegraph_gtask::PartitionPlan;
use wisegraph_kernels::cluster::{placement_compatible, ExchangeLog};
use wisegraph_kernels::micro::KernelProgram;
use wisegraph_sim::PlacementKind;
use wisegraph_tensor::Tensor;

/// `S001`: the `devices`-way vertex ownership the cluster executes under
/// ([`ShardSpec::balanced`]) tiles the vertex space and the
/// destination-filtered per-device plans cover `plan`'s edges exactly once
/// with task slots preserved.
pub fn verify_shard_coverage(
    g: &Graph,
    plan: &PartitionPlan,
    devices: usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if devices == 0 {
        out.push(Diagnostic::error(
            Code::ShardCoverage,
            Span::Global,
            "cannot shard across zero devices",
        ));
        return out;
    }
    let v = g.num_vertices();
    let spec = ShardSpec::balanced(g, devices);
    // The contiguous ranges must tile [0, v) in device order, and the
    // point lookup must agree with the range it falls in.
    let mut next = 0usize;
    for d in 0..devices {
        let r = spec.owned_range(d);
        if r.start != next {
            out.push(Diagnostic::error(
                Code::ShardCoverage,
                Span::Device(d),
                format!(
                    "owned range starts at {} but the previous device ended at {next}",
                    r.start
                ),
            ));
        }
        next = r.end;
        // Empty ranges (more devices than vertices, or a hub holding
        // several devices' share of the edges) own nothing to probe.
        for probe in [r.start, r.end.saturating_sub(1)] {
            if r.start < r.end && probe < v && spec.owner(probe as u32) != d {
                out.push(Diagnostic::error(
                    Code::ShardCoverage,
                    Span::Device(d),
                    format!(
                        "vertex {probe} lies in device {d}'s range but owner() says {}",
                        spec.owner(probe as u32)
                    ),
                ));
            }
        }
    }
    if next != v {
        out.push(Diagnostic::error(
            Code::ShardCoverage,
            Span::Global,
            format!("shard ranges end at {next}, not the vertex count {v}"),
        ));
    }
    // Destination-filtered plans: exactly-once edge coverage with slot
    // identity.
    let mut seen = vec![0u32; g.num_edges()];
    let mut slot_findings = Vec::new();
    for d in 0..devices {
        let fplan = plan.filtered(g, |e| spec.owner(g.dst()[e]) == d);
        if fplan.num_tasks() != plan.num_tasks() {
            slot_findings.push(Diagnostic::error(
                Code::ShardCoverage,
                Span::Device(d),
                format!(
                    "filtered plan has {} task slots, the original {} — slot \
                     identity (and with it cross-device bit determinism) is lost",
                    fplan.num_tasks(),
                    plan.num_tasks()
                ),
            ));
        }
        for t in &fplan.tasks {
            for &e in &t.edges {
                if spec.owner(g.dst()[e]) != d {
                    slot_findings.push(Diagnostic::error(
                        Code::ShardCoverage,
                        Span::Edge(e),
                        format!("edge assigned to device {d} but its destination is owned elsewhere"),
                    ));
                }
                seen[e] = seen[e].saturating_add(1);
            }
        }
    }
    let mut coverage_findings = Vec::new();
    for t in &plan.tasks {
        for &e in &t.edges {
            if seen[e] != 1 {
                coverage_findings.push(Diagnostic::error(
                    Code::ShardCoverage,
                    Span::Edge(e),
                    format!(
                        "edge covered by {} device plans instead of exactly one",
                        seen[e]
                    ),
                ));
            }
        }
    }
    push_capped(&mut out, slot_findings);
    push_capped(&mut out, coverage_findings);
    out
}

/// `S002`: every sent message in `log` pairs with exactly one received
/// message of the same collective, round, endpoints, and size.
pub fn verify_exchange(log: &ExchangeLog) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !log.is_conserved() {
        out.push(
            Diagnostic::error(
                Code::ExchangeConservation,
                Span::Global,
                format!(
                    "exchange log is not conserved: {} bytes sent vs {} bytes \
                     received across {} messages",
                    log.bytes_sent(),
                    log.bytes_received(),
                    log.messages_sent()
                ),
            )
            .with_suggestion(
                "a collective dropped or duplicated a message; check the \
                 mailbox round/seq discipline",
            ),
        );
    }
    out
}

/// `S003`: `placement` can legally run `program` — the check a selector
/// must consult before committing devices to a collective schedule.
pub fn verify_placement(
    program: &KernelProgram,
    globals: &HashMap<String, Tensor>,
    placement: PlacementKind,
) -> Vec<Diagnostic> {
    match placement_compatible(program, globals, placement) {
        Ok(()) => Vec::new(),
        Err(why) => vec![Diagnostic::error(
            Code::PlacementIncompatible,
            Span::Global,
            format!("schedule `{}` cannot run this program: {why}", placement.name()),
        )
        .with_suggestion(
            "restrict selection to wisegraph_kernels::cluster::compatible_placements",
        )],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_gtask::{partition, PartitionTable};
    use wisegraph_kernels::micro::compile;
    use wisegraph_models::ModelKind;
    use wisegraph_tensor::init;

    fn setup() -> (Graph, PartitionPlan) {
        let g = rmat(&RmatParams::standard(90, 700, 13));
        let plan = partition(&g, &PartitionTable::vertex_centric());
        (g, plan)
    }

    #[test]
    fn clean_shard_passes_and_zero_devices_fails() {
        let (g, plan) = setup();
        for devices in [1usize, 2, 3, 8] {
            let ds = verify_shard_coverage(&g, &plan, devices);
            assert!(ds.is_empty(), "{devices}: {ds:?}");
        }
        let ds = verify_shard_coverage(&g, &plan, 0);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code.as_str(), "S001");
    }

    #[test]
    fn incompatible_placement_is_s003() {
        let g = rmat(&RmatParams::standard(60, 300, 17));
        let dfg = ModelKind::Gat.layer_dfg(4, 3);
        let program = compile(&dfg, &g).unwrap();
        let mut globals = HashMap::new();
        globals.insert(
            "h".to_string(),
            init::uniform_tensor(&[g.num_vertices(), 4], -1.0, 1.0, 1),
        );
        globals.insert("w".to_string(), init::uniform_tensor(&[4, 3], -1.0, 1.0, 2));
        globals.insert("a_src".to_string(), init::uniform_tensor(&[3, 1], -1.0, 1.0, 3));
        globals.insert("a_dst".to_string(), init::uniform_tensor(&[3, 1], -1.0, 1.0, 4));
        let ds = verify_placement(&program, &globals, PlacementKind::TensorParallel);
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].code.as_str(), "S003");
        assert!(verify_placement(&program, &globals, PlacementKind::DataParallel)
            .is_empty());
    }

    #[test]
    fn empty_exchange_log_is_conserved() {
        assert!(verify_exchange(&ExchangeLog::default()).is_empty());
    }
}
