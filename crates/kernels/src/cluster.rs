//! Sharded multi-device execution with selectable placement schedules
//! (paper §5.4, Figure 11).
//!
//! A [`ClusterEngine`] runs a layer on `D` simulated devices, each a real
//! [`Engine`] on its own OS thread with its own workspaces and a disjoint
//! observability lane range. Devices move real buffers through
//! deterministic point-to-point channels: every collective round sends
//! exactly one (possibly empty) message to every peer, receivers drain
//! their per-sender channels in ascending device order, and round and
//! sequence tags are verified on receipt. For a fixed per-device thread
//! count, outputs therefore do not depend on OS scheduling.
//!
//! Every placement runs the same device loop, which reads the placement's
//! schedule — built once, by the one rule that also decides compatibility
//! — in four steps:
//!
//! 1. **Hold.** Copies of the DFG's vertex-rowed inputs that keep the
//!    device's owned rows (plus, under compute-then-reduce, its source
//!    groups' rows), or, under tensor-parallel, its column slice of the one
//!    global that carries the accumulator width. Held tensors are read
//!    through [`Globals::with_prologue`] over the caller's globals.
//! 2. **Halo all-to-all.** Data-parallel (Fig. 11b) ships every held input
//!    and then runs the prologue over the held rows; project-then-
//!    communicate (Fig. 11c) runs the prologue at home and ships the
//!    projected rows of every global a `Gather` or `Gather2D` reads by a
//!    source-derived stream. The other schedules exchange nothing here.
//! 3. **Accumulate.** The dst-filtered plan (halo schedules), the plans of
//!    the device's [`SrcGroups::CANONICAL`] source groups
//!    (compute-then-reduce, Fig. 11d), or the whole plan on the column
//!    slice (tensor-parallel, NeutronTP-style).
//! 4. **Bring the owned rows home.** Nothing for the halo schedules, whose
//!    slot partials feed the epilogue directly; a reduce-scatter that adds
//!    each owned row's group slices in ascending global group order; or an
//!    all-gather of the column slices.
//!
//! Every device then runs its engine's epilogue over its owned rows —
//! in-edge balanced ranges ([`ShardSpec::balanced`]), or an even split for
//! tensor-parallel — and the driver concatenates them. The epilogue is
//! row-independent, so each row's bits are the full epilogue's; with slot-
//! preserving dst-filtered plans (halo schedules) and column-independent
//! kernels (tensor-parallel) the outputs are the single engine's bits, and
//! compute-then-reduce's, summed in group order, are the same at every
//! device count. What a device count derives from a (graph, plan) pair
//! stays resident in the [`ClusterEngine`], checked by a content
//! fingerprint on every call.

use crate::engine::{Engine, ExecMode};
use crate::micro::{
    check_call, compile, summarize, vertex_rowed, CompileError, Globals, KernelProgram,
    MicroKernel,
};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use wisegraph_dfg::{Dfg, NodeId, OpKind};
use wisegraph_graph::{AttrKind, Graph, ShardSpec, SrcGroups};
use wisegraph_gtask::{PartitionPlan, Recount};
use wisegraph_obs::clock::Stopwatch;
use wisegraph_obs::critical::{
    analyze, logical_cost, AttributionReport, DeviceTimeline, PhaseKind, Segment,
};
use wisegraph_obs::{keys, span, with_lane, Class, Counters, Session};
use wisegraph_sim::PlacementKind;
use wisegraph_tensor::Tensor;

/// One point-to-point message moving through the cluster fabric.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sending device.
    pub from: usize,
    /// Per-sender sequence number, strictly increasing.
    pub seq: u64,
    /// Collective round this message belongs to.
    pub round: u32,
    /// Explicit row indices for halo exchanges; empty when the row set is
    /// implied by the deterministic sharding (reduce-scatter, all-gather).
    pub rows: Vec<u32>,
    /// Row-major payload.
    pub payload: Vec<f32>,
}

/// Direction of an [`ExchangeEvent`], from the logging device's view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// The device pushed this message.
    Sent,
    /// The device drained this message.
    Received,
}

/// One logged send or receive.
#[derive(Clone, Debug, PartialEq)]
pub struct ExchangeEvent {
    /// Collective name (`"all_to_all"`, `"reduce_scatter"`, `"all_gather"`).
    pub collective: &'static str,
    /// Round index within the run.
    pub round: u32,
    /// Sender.
    pub from: usize,
    /// Receiver.
    pub to: usize,
    /// Bytes on the wire (4 per row index + 4 per payload element).
    pub bytes: u64,
    /// Whether the logging side sent or received.
    pub direction: Direction,
}

/// The full communication record of a cluster run: per-device logs merged
/// in ascending device order, so the event sequence is deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExchangeLog {
    /// All events.
    pub events: Vec<ExchangeEvent>,
}

impl ExchangeLog {
    /// Total bytes pushed (each transfer counted once, on the send side).
    pub fn bytes_sent(&self) -> u64 {
        self.dir_sum(Direction::Sent)
    }

    /// Total bytes drained (the conservation counterpart).
    pub fn bytes_received(&self) -> u64 {
        self.dir_sum(Direction::Received)
    }

    fn dir_sum(&self, d: Direction) -> u64 {
        self.events.iter().filter(|e| e.direction == d).map(|e| e.bytes).sum()
    }

    /// Messages pushed.
    pub fn messages_sent(&self) -> u64 {
        self.events.iter().filter(|e| e.direction == Direction::Sent).count() as u64
    }

    /// Bytes pushed per collective name.
    pub fn bytes_by_collective(&self) -> BTreeMap<&'static str, u64> {
        let mut m = BTreeMap::new();
        for e in &self.events {
            if e.direction == Direction::Sent {
                *m.entry(e.collective).or_insert(0) += e.bytes;
            }
        }
        m
    }

    /// `true` when every send has exactly one matching receive with the
    /// same `(collective, round, from, to, bytes)` — nothing lost,
    /// duplicated, or invented in flight.
    pub fn is_conserved(&self) -> bool {
        let mut sent: BTreeMap<(&str, u32, usize, usize, u64), i64> = BTreeMap::new();
        for e in &self.events {
            let k = (e.collective, e.round, e.from, e.to, e.bytes);
            *sent.entry(k).or_insert(0) += match e.direction {
                Direction::Sent => 1,
                Direction::Received => -1,
            };
        }
        sent.values().all(|&v| v == 0)
    }
}

/// Per-device communication endpoint: one dedicated channel per peer in
/// each direction, so draining "the message from device `s`" is a plain
/// indexed `recv` — no cross-sender ordering exists to get wrong, and a
/// crashed peer disconnects exactly the channels its death affects.
struct Mailbox {
    me: usize,
    txs: Vec<Sender<Message>>,
    rxs: Vec<Receiver<Message>>,
    next_seq: u64,
    next_expected: Vec<u64>,
    round: u32,
    log: ExchangeLog,
    /// Model layer tag stamped on every phase span and segment.
    layer: u32,
    /// The device's phase segments, in execution order.
    timeline: Vec<Segment>,
}

impl Mailbox {
    /// One collective round: pushes `outgoing[p]` to every peer `p`
    /// (empty messages included — the round structure is fixed), then
    /// drains exactly one message per peer in ascending device order,
    /// verifying round tags and per-sender sequence numbers.
    ///
    /// The round is one `cluster.phase.exchange` span and one exchange
    /// [`Segment`]; every message is logged once per side as an
    /// [`ExchangeEvent`].
    fn exchange(
        &mut self,
        collective: &'static str,
        mut outgoing: Vec<(Vec<u32>, Vec<f32>)>,
    ) -> Vec<Message> {
        let d = self.txs.len();
        assert_eq!(outgoing.len(), d, "one outgoing slot per device");
        let round = self.round;
        self.round += 1;
        let _sp = span!(
            "cluster.phase.exchange",
            device = self.me,
            layer = self.layer,
            round = round
        );
        let sw = Stopwatch::start();
        let mut moved = 0u64;
        let mut idle_ns = 0u64;
        for (p, slot) in outgoing.iter_mut().enumerate() {
            if p == self.me {
                continue;
            }
            let (rows, payload) = std::mem::take(slot);
            let bytes = 4 * (rows.len() + payload.len()) as u64;
            moved += bytes;
            self.log.events.push(ExchangeEvent {
                collective,
                round,
                from: self.me,
                to: p,
                bytes,
                direction: Direction::Sent,
            });
            let seq = self.next_seq;
            self.next_seq += 1;
            self.txs[p]
                .send(Message { from: self.me, seq, round, rows, payload })
                .expect("peer device hung up");
        }
        let mut got = Vec::with_capacity(d.saturating_sub(1));
        for s in 0..d {
            if s == self.me {
                continue;
            }
            let blocked = Stopwatch::start();
            let m = self.rxs[s].recv().expect("peer device closed its channels");
            idle_ns += blocked.elapsed_ns();
            assert_eq!(m.from, s, "message arrived on the wrong channel");
            assert_eq!(
                m.round, round,
                "device {} expected round {round} from {s}, got {}",
                self.me, m.round
            );
            assert!(
                m.seq >= self.next_expected[s],
                "stale sequence {} from device {s}",
                m.seq
            );
            self.next_expected[s] = m.seq + 1;
            let bytes = 4 * (m.rows.len() + m.payload.len()) as u64;
            moved += bytes;
            self.log.events.push(ExchangeEvent {
                collective,
                round,
                from: s,
                to: self.me,
                bytes,
                direction: Direction::Received,
            });
            got.push(m);
        }
        let wall_ns = sw.elapsed_ns();
        self.timeline.push(Segment {
            kind: PhaseKind::Exchange { round },
            layer: self.layer,
            cost: moved,
            wall_ns,
            idle_wall_ns: idle_ns.min(wall_ns),
        });
        got
    }

    /// Runs `f` as one `cluster.phase.compute` span and compute
    /// [`Segment`]. The segment's logical cost is the engine's Work-class
    /// [`logical_cost`] delta across the call plus `extra_cost` of the
    /// result — the latter covers element work done outside the engine
    /// (prologue projection, reduce accumulation, epilogue assembly).
    fn record_compute<R>(
        &mut self,
        engine: &Engine,
        f: impl FnOnce() -> Result<R, CompileError>,
        extra_cost: impl FnOnce(&R) -> u64,
    ) -> Result<R, CompileError> {
        let _sp = span!("cluster.phase.compute", device = self.me, layer = self.layer);
        let before = logical_cost(&engine.stats());
        let sw = Stopwatch::start();
        let out = f()?;
        let wall_ns = sw.elapsed_ns();
        self.timeline.push(Segment {
            kind: PhaseKind::Compute,
            layer: self.layer,
            cost: logical_cost(&engine.stats()).saturating_sub(before) + extra_cost(&out),
            wall_ns,
            idle_wall_ns: 0,
        });
        Ok(out)
    }
}

/// What one cluster execution produced.
#[derive(Clone, Debug)]
pub struct ClusterRun {
    /// The DFG outputs, assembled from the per-device partitions.
    pub outputs: Vec<Tensor>,
    /// This run's communication record (per-device logs, merged in
    /// ascending device order).
    pub exchange: ExchangeLog,
    /// Per-device engine counter snapshots *after* the run (cumulative
    /// over the engine's lifetime, like [`Engine::stats`]).
    pub per_device: Vec<Counters>,
    /// The schedule that ran.
    pub placement: PlacementKind,
    /// Per-device phase timelines (compute/exchange segments with
    /// logical costs and a wall overlay), in device order.
    pub timelines: Vec<DeviceTimeline>,
}

impl ClusterRun {
    /// Replays this run's timelines against the messages its exchange log
    /// received and returns the critical-path / idle-time / straggler
    /// attribution report.
    ///
    /// # Errors
    ///
    /// Fails if the exchange log has a send without its receive or a
    /// receive without its send; otherwise see [`analyze`].
    pub fn attribution(&self) -> Result<AttributionReport, String> {
        if !self.exchange.is_conserved() {
            return Err("exchange log has an unmatched send or receive".to_string());
        }
        let edges = self
            .exchange
            .events
            .iter()
            .filter(|e| e.direction == Direction::Received)
            .map(|e| ((e.round, e.from as u32, e.to as u32), e.bytes))
            .collect();
        analyze(&self.timelines, &edges)
    }
}

/// One placement schedule, stated as what a device does. The device loop
/// in [`ClusterEngine::execute_program`] reads the four fields in order;
/// then every device runs its engine's epilogue over its owned rows and
/// the driver concatenates the devices' rows.
struct Schedule {
    /// What a device holds before any exchange.
    hold: Hold,
    /// What its halo all-to-all moves, and whether the prologue runs first.
    halo: Halo,
    /// Which plans it accumulates.
    plans: Plans,
    /// Which collective brings its owned accumulator rows home.
    home: Home,
}

enum Hold {
    /// Copies of the DFG's vertex-rowed inputs that keep the device's owned
    /// rows and, with `groups`, its source groups' rows, and are zero
    /// elsewhere.
    Rows { groups: bool },
    /// Its slice of this global's last dimension (an even split of the
    /// accumulator width), read while it accumulates; every other input is
    /// read in place.
    Columns(String),
}

enum Halo {
    /// Nothing travels.
    None,
    /// Every held input travels; the prologue then runs over the held rows.
    Inputs,
    /// The prologue runs over the owned rows; then these names travel.
    Projected(BTreeSet<String>),
}

enum Plans {
    /// The plan filtered to the edges whose destination the device owns.
    DstFiltered,
    /// The plans of its canonical source groups.
    Groups,
    /// The whole plan, on its column slice.
    Whole,
}

#[derive(Clone, Copy, PartialEq)]
enum Home {
    /// None: the engine's slot partials feed the owned-row epilogue.
    Local,
    /// A reduce-scatter, adding each owned row's group slices in ascending
    /// global group order.
    ReduceScatter,
    /// An all-gather of the column slices.
    AllGather,
}

/// The schedule `placement` runs `program` by, or why it cannot: the one
/// place a placement is stated. Checked on the driver before any device
/// thread starts, so an incompatible request fails fast instead of wedging
/// a collective.
fn schedule(
    program: &KernelProgram,
    globals: &HashMap<String, Tensor>,
    placement: PlacementKind,
) -> Result<Schedule, String> {
    let name = placement.name();
    let origins = vertex_gather_origins(program);
    // A destination split moves halo rows, so it must know every vertex
    // gather's rows.
    let owned = |halo| {
        if origins.iter().any(|(_, o)| o.is_none()) {
            return Err(format!(
                "{name}: a vertex-rowed global is gathered by a stream of unknown \
                 provenance, so halo rows cannot be determined"
            ));
        }
        let (hold, plans) = (Hold::Rows { groups: false }, Plans::DstFiltered);
        Ok(Schedule { hold, halo, plans, home: Home::Local })
    };
    let hoisted = !program.prologue.is_empty() || !program.edge_ops.is_empty();
    match placement {
        PlacementKind::DataParallel => owned(Halo::Inputs),
        PlacementKind::ProjectThenCommunicate if program.prologue.is_empty() => Err(format!(
            "{name}: the program hoists no edge-independent projection, so there \
             is nothing to project before communicating"
        )),
        // The globals gathered by source-derived streams travel, projected.
        PlacementKind::ProjectThenCommunicate => owned(Halo::Projected(
            (origins.iter().filter(|(_, o)| *o != Some(AttrKind::DstId)))
                .map(|(n, _)| n.clone())
                .collect(),
        )),
        PlacementKind::ComputeThenReduce | PlacementKind::TensorParallel if hoisted => {
            Err(format!(
                "{name}: hoisted prologue tensors and the per-call edge pass are \
                 not split by this schedule's decomposition"
            ))
        }
        PlacementKind::ComputeThenReduce => {
            if origins.iter().any(|(_, o)| *o != Some(AttrKind::SrcId)) {
                return Err(format!(
                    "{name}: every vertex-rowed gather must be source-indexed \
                     (devices hold source ranges only)"
                ));
            }
            Ok(Schedule {
                hold: Hold::Rows { groups: true },
                halo: Halo::None,
                plans: Plans::Groups,
                home: Home::ReduceScatter,
            })
        }
        PlacementKind::TensorParallel => {
            // Among the names the per-task program reads (sorted), the first
            // whose last dimension is the accumulator width. `"W"` sorts
            // before `"h"`, so square-projection models slice the weight.
            let mut names: Vec<&str> =
                program.ops.iter().flat_map(crate::micro::global_inputs).collect();
            names.sort_unstable();
            let width = |n: &&str| globals.get(*n).and_then(|t| t.dims().last().copied());
            let Some(slice) = names.into_iter().find(|n| width(n) == Some(program.out_width))
            else {
                return Err(format!(
                    "{name}: no global tensor carries the accumulator width in its last dimension"
                ));
            };
            Ok(Schedule {
                hold: Hold::Columns(slice.to_string()),
                halo: Halo::None,
                plans: Plans::Whole,
                home: Home::AllGather,
            })
        }
    }
}

/// The placements able to run `program`, in [`PlacementKind::ALL`] order:
/// those whose `schedule` builds. Data-parallel is compatible with every
/// program this workspace compiles, so the result is never empty. No rule
/// reads the graph; the parameter stays for the benchmark, whose sources
/// are frozen.
pub fn compatible_placements(
    program: &KernelProgram,
    _g: &Graph,
    globals: &HashMap<String, Tensor>,
) -> Vec<PlacementKind> {
    PlacementKind::ALL
        .into_iter()
        .filter(|&p| schedule(program, globals, p).is_ok())
        .collect()
}

/// Every `Gather` or `Gather2D` of a global, in the edge pass or the
/// per-task program, that addresses its source by vertex id, paired with
/// the provenance of its (first) index stream. The compiled program
/// carries no shapes, so the question [`vertex_rowed`] answers for a DFG
/// node is answered here by the index stream: drawn from `src-id`/`dst-id`
/// it holds vertex ids; of unknown provenance it has to be assumed to.
fn vertex_gather_origins(program: &KernelProgram) -> Vec<(String, Option<AttrKind>)> {
    let mut out = Vec::new();
    for ops in [&program.edge_ops, &program.ops] {
        let s = summarize(ops);
        for op in ops {
            let (src, idx) = match op {
                MicroKernel::Gather { src, idx, .. } => (src, idx),
                MicroKernel::Gather2D { src, idx1, .. } => (src, idx1),
                _ => continue,
            };
            let origin = s.stream_origin[idx.0];
            if let (Some(name), None | Some(AttrKind::SrcId | AttrKind::DstId)) = (src.global(), origin) {
                out.push((name.to_string(), origin));
            }
        }
    }
    out
}

/// What device `dev` holds under `hold` before any exchange, in name
/// order. Read through [`Globals::with_prologue`] over the caller's
/// globals, these tensors shadow the caller's; every other global is read
/// in place.
fn held(
    hold: &Hold,
    dfg: &Dfg,
    globals: &HashMap<String, Tensor>,
    shard: Option<&ShardState>,
    cols: &ShardSpec,
    dev: usize,
) -> Vec<(String, Tensor)> {
    let groups = match hold {
        Hold::Rows { groups } => *groups,
        Hold::Columns(name) => {
            return vec![(name.clone(), slice_last_dim(&globals[name], cols.owned_range(dev)))]
        }
    };
    let shard = shard.expect("a row split derives shard state");
    let v = shard.spec.num_vertices();
    let rows = [shard.spec.owned_range(dev), if groups { shard.group_rows(dev) } else { 0..0 }];
    // The model inputs with one row per vertex, in name order.
    let inputs: BTreeSet<&String> = (0..dfg.len())
        .filter(|&i| vertex_rowed(dfg, NodeId(i)))
        .filter_map(|i| match &dfg.node(NodeId(i)).kind {
            OpKind::Input { name, .. } => Some(name),
            _ => None,
        })
        .collect();
    inputs
        .into_iter()
        .filter_map(|name| {
            let t = globals.get(name)?;
            let w = t.numel() / v.max(1);
            let mut m = Tensor::zeros(t.dims());
            for r in &rows {
                let cells = r.start * w..r.end * w;
                m.data_mut()[cells.clone()].copy_from_slice(&t.data()[cells]);
            }
            Some((name.clone(), m))
        })
        .collect()
}

/// Gathers `rows` of `t` (row width `w`) into a flat payload.
fn gather_payload(t: &Tensor, rows: &[u32], w: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(rows.len() * w);
    for &r in rows {
        let b = r as usize * w;
        out.extend_from_slice(&t.data()[b..b + w]);
    }
    out
}

/// Writes a received halo payload into `t` at the message's rows.
fn scatter_payload(t: &mut Tensor, rows: &[u32], payload: &[f32], w: usize) {
    assert_eq!(payload.len(), rows.len() * w, "halo payload width mismatch");
    for (i, &r) in rows.iter().enumerate() {
        let b = r as usize * w;
        t.data_mut()[b..b + w].copy_from_slice(&payload[i * w..(i + 1) * w]);
    }
}

/// A copy of `t` keeping columns `cols` of the last dimension.
fn slice_last_dim(t: &Tensor, cols: std::ops::Range<usize>) -> Tensor {
    let mut dims = t.dims().to_vec();
    let w = std::mem::replace(dims.last_mut().expect("sliced tensor has rank >= 1"), cols.len());
    let data = t.data().chunks(w.max(1)).flat_map(|row| &row[cols.clone()]).copied().collect();
    Tensor::from_vec(data, &dims)
}

/// Running communication totals over a cluster's lifetime — what
/// [`ClusterEngine::stats`] reports as `comm.*`, kept as sums so a
/// long-lived cluster holds no per-message history.
#[derive(Default)]
struct CommTotals {
    bytes: u64,
    messages: u64,
    by_collective: BTreeMap<&'static str, u64>,
}

/// Everything a device count derives from one (graph, plan) pair before
/// any tensor is touched. A training loop presents the same pair on every
/// call, so the cluster holds the last one derived and re-derives only
/// when [`shard_fingerprint`] says the content changed.
struct ShardState {
    fingerprint: u64,
    /// Vertex ownership ([`ShardSpec::balanced`]).
    spec: ShardSpec,
    /// Per device, the plan filtered to the edges whose destination it
    /// owns (task slots preserved).
    plans: Vec<PartitionPlan>,
    /// Per device, the sorted remote sources its edges gather from: the
    /// rows it receives in a halo exchange.
    halos: Vec<Vec<u32>>,
    /// Per canonical source group, the plan filtered to its edges; derived
    /// on the first compute-then-reduce run.
    group_plans: OnceLock<Vec<PartitionPlan>>,
}

impl ShardState {
    fn derive(g: &Graph, plan: &PartitionPlan, devices: usize, fingerprint: u64) -> Self {
        let spec = ShardSpec::balanced(g, devices);
        let mut recount = Recount::new(g);
        let plans = (0..devices)
            .map(|dev| {
                let own = spec.owned_range(dev);
                plan.filtered(&mut recount, |e| own.contains(&(g.dst()[e] as usize)))
            })
            .collect();
        let halos = (0..devices).map(|dev| spec.remote_unique_src(g, dev)).collect();
        Self {
            fingerprint,
            spec,
            plans,
            halos,
            group_plans: OnceLock::new(),
        }
    }

    fn group_plans(&self, g: &Graph, plan: &PartitionPlan) -> &[PartitionPlan] {
        self.group_plans.get_or_init(|| {
            let groups = SrcGroups::new(g.num_vertices(), SrcGroups::CANONICAL);
            let mut recount = Recount::new(g);
            (0..groups.num_groups())
                .map(|grp| plan.filtered(&mut recount, |e| groups.group_of(g.src()[e]) == grp))
                .collect()
        })
    }

    /// The source rows of device `dev`'s canonical source groups (the
    /// compute-then-reduce decomposition): one run, because groups are
    /// contiguous. They need not align with the owned rows: groups split
    /// evenly over [`SrcGroups::CANONICAL`], ownership by in-edges.
    fn group_rows(&self, dev: usize) -> std::ops::Range<usize> {
        let v = self.spec.num_vertices();
        let groups = SrcGroups::new(v, SrcGroups::CANONICAL);
        let mine = groups.groups_of_device(dev, self.spec.num_shards());
        if mine.is_empty() {
            return 0..0;
        }
        let chunks = ShardSpec::new(v, groups.num_groups());
        chunks.owned_range(mine.start).start..chunks.owned_range(mine.end - 1).end
    }

    /// The rows `from` sends `to` in a halo exchange: the part of `to`'s
    /// halo that `from` owns — one run of the sorted halo, because
    /// ownership is contiguous.
    fn send_rows(&self, from: usize, to: usize) -> &[u32] {
        let own = self.spec.owned_range(from);
        let halo = &self.halos[to];
        let lo = halo.partition_point(|&r| (r as usize) < own.start);
        let hi = halo.partition_point(|&r| (r as usize) < own.end);
        &halo[lo..hi]
    }
}

/// Content fingerprint of everything [`ShardState`] is derived from: the
/// graph's vertex count and edge arrays and the plan's task offsets and
/// edge array.
/// One allocation-free pass. Each word is mixed with a key unique to its
/// position and the mixed words are summed, so the loop carries no
/// multiply chain; the per-word mix is a bijection, so two inputs that
/// differ in a single word never collide.
fn shard_fingerprint(g: &Graph, plan: &PartitionPlan) -> u64 {
    let (mut sum, mut key) = (0u64, 0u64);
    let mut push = |x: u64| {
        key = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let m = (x ^ key).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        sum = sum.wrapping_add(m ^ (m >> 32));
    };
    push(g.num_vertices() as u64);
    push(g.num_edges() as u64);
    for ((&s, &t), &ty) in g.src().iter().zip(g.dst()).zip(g.etype()) {
        push(u64::from(s) << 32 | u64::from(t));
        push(u64::from(ty));
    }
    for &o in plan.tasks.offsets() {
        push(u64::from(o));
    }
    for &e in plan.tasks.edges() {
        push(u64::from(e));
    }
    sum
}

/// A cluster of simulated devices, each a real [`Engine`] with its own
/// worker threads, workspaces, and observability lanes.
pub struct ClusterEngine {
    engines: Vec<Engine>,
    threads_per_device: usize,
    comm: Mutex<CommTotals>,
    /// The shard state of the last (graph, plan) executed.
    shard: Mutex<Option<Arc<ShardState>>>,
    shard_rebuilds: AtomicU64,
    /// Layer tag stamped on phase spans/segments of subsequent runs.
    layer: AtomicU32,
}

impl ClusterEngine {
    /// A cluster of `devices` engines with `threads_per_device` workers
    /// each, in the default [`ExecMode`]. Device `d`'s engine records on
    /// lanes `1 + d·(threads+1)` through `(d+1)·(threads+1)`: lane 0 stays
    /// the driver's, and no two devices share a lane, so concurrent
    /// devices never interleave one span stream.
    ///
    /// # Panics
    ///
    /// Panics if `devices == 0` or `threads_per_device == 0`.
    pub fn new(devices: usize, threads_per_device: usize) -> Self {
        assert!(devices > 0, "need at least one device");
        let mut cluster = Self {
            engines: Vec::with_capacity(devices),
            threads_per_device,
            comm: Mutex::new(CommTotals::default()),
            shard: Mutex::new(None),
            shard_rebuilds: AtomicU64::new(0),
            layer: AtomicU32::new(0),
        };
        for d in 0..devices {
            let lane = cluster.device_lane(d);
            cluster.engines.push(Engine::with_lane_base(
                threads_per_device,
                ExecMode::default(),
                lane,
            ));
        }
        cluster
    }

    /// Sets the model-layer tag stamped on the phase spans, segments, and
    /// attribution of subsequent runs (multi-layer drivers call this
    /// before each layer; single-layer runs keep the default 0).
    pub fn set_layer(&self, layer: u32) {
        self.layer.store(layer, Ordering::Relaxed);
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.engines.len()
    }

    /// Worker threads per device.
    pub fn threads_per_device(&self) -> usize {
        self.threads_per_device
    }

    /// The observability lane device `d`'s driver thread records on.
    fn device_lane(&self, d: usize) -> u32 {
        1 + (d * (self.threads_per_device + 1)) as u32
    }

    /// Merged cluster counters: every device engine's counters under a
    /// `device.NN.` prefix, plus the cumulative `comm.*` totals of every
    /// run's exchange log. The `comm.*` sums and every per-device
    /// `kernel.*` total are [`Class::Work`]: pure functions of graph,
    /// schedule, and device count, independent of thread counts.
    pub fn stats(&self) -> Counters {
        let mut c = Counters::new();
        for (d, e) in self.engines.iter().enumerate() {
            c.merge_prefixed(&keys::device_prefix(d), &e.stats());
        }
        let comm = self.comm.lock().expect("cluster comm totals poisoned");
        c.add(keys::COMM_BYTES_EXCHANGED, comm.bytes);
        c.add(keys::COMM_MESSAGES, comm.messages);
        for (&coll, &b) in &comm.by_collective {
            c.add(keys::comm_collective_bytes(coll), b);
        }
        c.record_max(keys::COMM_DEVICES, self.devices() as u64, Class::Resource);
        c.add_class(
            keys::CLUSTER_SHARD_REBUILDS,
            self.shard_rebuilds.load(Ordering::Relaxed),
            Class::Resource,
        );
        c
    }

    /// The shard state for `(g, plan)` at this cluster's device count:
    /// the resident one when its fingerprint matches, otherwise derived
    /// now and held in its place.
    fn shard_state(&self, g: &Graph, plan: &PartitionPlan) -> Arc<ShardState> {
        let fingerprint = shard_fingerprint(g, plan);
        let mut held = self.shard.lock().expect("cluster shard state poisoned");
        if let Some(state) = held.as_ref().filter(|s| s.fingerprint == fingerprint) {
            return Arc::clone(state);
        }
        let _sp = span!("cluster.shard.derive", devices = self.devices());
        self.shard_rebuilds.fetch_add(1, Ordering::Relaxed);
        let state = Arc::new(ShardState::derive(g, plan, self.devices(), fingerprint));
        *held = Some(Arc::clone(&state));
        state
    }

    /// Largest per-device halo (remote unique sources) of `(g, plan)`
    /// under this cluster's vertex ownership — what placement selection
    /// prices an all-to-all by — read from the resident shard state.
    pub fn max_remote_unique_src(&self, g: &Graph, plan: &PartitionPlan) -> usize {
        let shard = self.shard_state(g, plan);
        shard.halos.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Compiles and executes a DFG under the given placement schedule.
    ///
    /// # Errors
    ///
    /// Returns an error if compilation fails, `plan` holds an edge id `g`
    /// does not have, the program was compiled from another DFG or for
    /// another vertex count,
    /// `globals` lacks an input the DFG reads or binds one to a tensor of
    /// other extents, or the placement is not among the compiled program's
    /// [`compatible_placements`]; each is found before any device starts.
    ///
    /// # Panics
    ///
    /// Panics if a device or worker thread panics.
    pub fn execute(
        &self,
        dfg: &Dfg,
        g: &Graph,
        plan: &PartitionPlan,
        globals: &HashMap<String, Tensor>,
        placement: PlacementKind,
    ) -> Result<ClusterRun, CompileError> {
        let program = compile(dfg, g)?;
        self.execute_program(&program, dfg, g, plan, globals, placement)
    }

    /// [`ClusterEngine::execute`] for an already compiled program.
    ///
    /// # Errors
    ///
    /// See [`ClusterEngine::execute`].
    ///
    /// # Panics
    ///
    /// Panics if a device or worker thread panics.
    pub fn execute_program(
        &self,
        program: &KernelProgram,
        dfg: &Dfg,
        g: &Graph,
        plan: &PartitionPlan,
        globals: &HashMap<String, Tensor>,
        placement: PlacementKind,
    ) -> Result<ClusterRun, CompileError> {
        let _sp = span!(
            "cluster.execute",
            devices = self.devices(),
            tasks = plan.tasks.len()
        );
        check_call(program, dfg, g, plan, globals)?;
        let s = schedule(program, globals, placement).map_err(CompileError)?;
        let (d, v, w) = (self.devices(), g.num_vertices(), program.out_width);
        // A column split derives no shard state: its owned rows split evenly.
        let shard = match s.hold {
            Hold::Rows { .. } => Some(self.shard_state(g, plan)),
            Hold::Columns(_) => None,
        };
        let sh = || shard.as_deref().expect("a row split derives shard state");
        let rows = shard.as_ref().map_or_else(|| ShardSpec::new(v, d), |sh| sh.spec.clone());
        let cols = ShardSpec::new(w, d);
        let groups = SrcGroups::new(v, SrcGroups::CANONICAL);
        let project_first = matches!(s.halo, Halo::Projected(_));
        let (outs, exchange, timelines) = self.run_devices(|dev, mb| {
            let engine = &self.engines[dev];
            let own = rows.owned_range(dev);
            // What the device holds.
            let mut held = held(&s.hold, dfg, globals, shard.as_deref(), &cols, dev);
            // The halo all-to-all, one round per name, after the prologue
            // (project-then-communicate) or before it.
            let prologue = |held: &[(String, Tensor)]| {
                engine.prologue_phase(program, dfg, g, Globals::with_prologue(globals, held))
            };
            let names: Vec<String> = match &s.halo {
                Halo::None => Vec::new(),
                Halo::Inputs => held.iter().map(|(n, _)| n.clone()).collect(),
                Halo::Projected(names) => {
                    let projected = mb.record_compute(
                        engine,
                        || prologue(&held),
                        |m| m.iter().map(|(_, t)| (t.numel() / v.max(1) * own.len()) as u64).sum(),
                    )?;
                    held.extend(projected);
                    names.iter().cloned().collect()
                }
            };
            for name in &names {
                // A tensor without vertex rows is replicated: read in place.
                let Some(k) = held.iter().position(|(n, _)| n == name) else { continue };
                let width = held[k].1.numel() / v.max(1);
                let outgoing = (0..d)
                    .map(|p| {
                        let rows = if p == dev { &[][..] } else { sh().send_rows(dev, p) };
                        (rows.to_vec(), gather_payload(&held[k].1, rows, width))
                    })
                    .collect();
                for m in mb.exchange("all_to_all", outgoing) {
                    scatter_payload(&mut held[k].1, &m.rows, &m.payload, width);
                }
            }
            // Which plans the device accumulates; a column slice cuts the
            // program to its width.
            let mut prog = Cow::Borrowed(program);
            let plans: &[PartitionPlan] = match s.plans {
                Plans::DstFiltered => std::slice::from_ref(&sh().plans[dev]),
                Plans::Groups => &sh().group_plans(g, plan)[groups.groups_of_device(dev, d)],
                Plans::Whole => {
                    prog.to_mut().out_width = cols.owned_range(dev).len();
                    if prog.out_width == 0 { &[] } else { std::slice::from_ref(plan) }
                }
            };
            if s.home == Home::Local {
                return mb.record_compute(
                    engine,
                    || {
                        if !project_first {
                            let pre = prologue(&held)?;
                            held.extend(pre);
                        }
                        let view = Globals::with_prologue(globals, &held);
                        Ok(engine.reduce_tasks(program, dfg, g, &plans[0], view, own.clone()))
                    },
                    |_| 0,
                );
            }
            let view = Globals::with_prologue(globals, &held);
            let partials: Vec<Tensor> = mb.record_compute(
                engine,
                || plans.iter().map(|p| engine.accumulate_program(&prog, g, p, view)).collect(),
                |_| 0,
            )?;
            // The epilogue reads owned rows of the caller's globals, which a
            // masked copy keeps verbatim; a column slice served accumulation.
            drop(held);
            // Which collective brings the owned rows home, into a
            // full-height accumulator that the epilogue phase reads like an
            // engine partial: only the owned rows are filled and read.
            let mut acc = Tensor::zeros(&[v, w]);
            let cells = own.start * w..own.end * w;
            let peer = |p: usize| p - usize::from(p > dev);
            if s.home == Home::ReduceScatter {
                let mine = groups.groups_of_device(dev, d);
                let group_owner = ShardSpec::new(groups.num_groups(), d);
                for grp in 0..groups.num_groups() {
                    let owner = group_owner.owner(grp as u32);
                    let outgoing = (0..d)
                        .map(|p| {
                            if owner != dev || p == dev {
                                return (Vec::new(), Vec::new());
                            }
                            // The receiver's owned rows: no index vector.
                            let r = rows.owned_range(p);
                            let part = &partials[grp - mine.start];
                            (Vec::new(), part.data()[r.start * w..r.end * w].to_vec())
                        })
                        .collect();
                    let got = mb.exchange("reduce_scatter", outgoing);
                    // One contribution per group, added in ascending global
                    // group order: the same float sequence at every D.
                    mb.record_compute(
                        engine,
                        || {
                            let slice: &[f32] = if owner == dev {
                                &partials[grp - mine.start].data()[cells.clone()]
                            } else {
                                &got[peer(owner)].payload
                            };
                            assert_eq!(slice.len(), own.len() * w, "reduce-scatter slice mismatch");
                            for (a, b) in acc.data_mut()[cells.clone()].iter_mut().zip(slice) {
                                *a += *b;
                            }
                            Ok(())
                        },
                        |()| (own.len() * w) as u64,
                    )?;
                }
            } else {
                let payload = partials.into_iter().next().map_or_else(Vec::new, Tensor::into_vec);
                let outgoing = (0..d)
                    .map(|p| (Vec::new(), if p == dev { Vec::new() } else { payload.clone() }))
                    .collect();
                let got = mb.exchange("all_gather", outgoing);
                mb.record_compute(
                    engine,
                    || {
                        for p in 0..d {
                            let c = cols.owned_range(p);
                            let src = if p == dev { &payload } else { &got[peer(p)].payload };
                            assert_eq!(src.len(), v * c.len(), "all-gather slice mismatch");
                            for r in own.clone() {
                                acc.data_mut()[r * w + c.start..r * w + c.end]
                                    .copy_from_slice(&src[r * c.len()..(r + 1) * c.len()]);
                            }
                        }
                        Ok(())
                    },
                    |()| (own.len() * w) as u64,
                )?;
            }
            mb.record_compute(
                engine,
                || {
                    let acc = std::slice::from_ref(&acc);
                    Ok(engine.epilogue_phase(program, dfg, g, globals.into(), acc, own.clone()))
                },
                |outs| outs.iter().map(|t| t.numel() as u64).sum(),
            )
        })?;
        {
            let mut comm = self.comm.lock().expect("cluster comm totals poisoned");
            comm.bytes += exchange.bytes_sent();
            comm.messages += exchange.messages_sent();
            for (coll, b) in exchange.bytes_by_collective() {
                *comm.by_collective.entry(coll).or_insert(0) += b;
            }
        }
        Ok(ClusterRun {
            outputs: concat_vertex_outputs(v, outs),
            exchange,
            per_device: self.engines.iter().map(Engine::stats).collect(),
            placement,
            timelines,
        })
    }

    /// Spawns one thread per device, wires the channel grid, runs `f` on
    /// each, and returns the per-device results plus the merged
    /// observability artifacts (exchange log and phase timelines, both in
    /// ascending device order). Errors propagate in device order.
    fn run_devices<T, F>(
        &self,
        f: F,
    ) -> Result<(Vec<T>, ExchangeLog, Vec<DeviceTimeline>), CompileError>
    where
        T: Send,
        F: Fn(usize, &mut Mailbox) -> Result<T, CompileError> + Sync,
    {
        let d = self.devices();
        let layer = self.layer.load(Ordering::Relaxed);
        // Channel grid: tx_grid[s][r] sends s → r; rx_grid[r][s] receives
        // s → r. Dedicated per-pair channels mean a device drains "the
        // message from s" by index, and a crashed peer disconnects
        // exactly its own channels (unblocking everyone else).
        let mut tx_grid: Vec<Vec<Sender<Message>>> = Vec::with_capacity(d);
        let mut rx_grid: Vec<Vec<Receiver<Message>>> =
            (0..d).map(|_| Vec::with_capacity(d)).collect();
        for _s in 0..d {
            let mut row = Vec::with_capacity(d);
            for rx_row in rx_grid.iter_mut() {
                let (tx, rx) = channel();
                row.push(tx);
                rx_row.push(rx);
            }
            tx_grid.push(row);
        }
        // Transpose: device dev sends on tx_grid[dev] (its row) and
        // receives on rx_grid[dev] (its column).
        type DeviceOut<T> = (T, ExchangeLog, DeviceTimeline);
        // Devices record into whatever capture the calling thread is in.
        let session = Session::current();
        let results: Vec<Result<DeviceOut<T>, CompileError>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = tx_grid
                    .into_iter()
                    .zip(rx_grid)
                    .enumerate()
                    .map(|(dev, (txs, rxs))| {
                        let (f, session) = (&f, &session);
                        let lane = self.device_lane(dev);
                        scope.spawn(move || {
                            with_lane(session, lane, || {
                                let _sp = span!("cluster.device", device = dev);
                                let mut mb = Mailbox {
                                    me: dev,
                                    txs,
                                    rxs,
                                    next_seq: 0,
                                    next_expected: vec![0; d],
                                    round: 0,
                                    log: ExchangeLog::default(),
                                    layer,
                                    timeline: Vec::new(),
                                };
                                f(dev, &mut mb).map(|t| {
                                    (
                                        t,
                                        std::mem::take(&mut mb.log),
                                        DeviceTimeline {
                                            device: dev as u32,
                                            segments: std::mem::take(&mut mb.timeline),
                                        },
                                    )
                                })
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("device thread panicked"))
                    .collect()
            });
        let (mut outs, mut exchange) = (Vec::new(), ExchangeLog::default());
        let mut timelines = Vec::new();
        for r in results {
            let (t, log, timeline) = r?;
            outs.push(t);
            exchange.events.extend(log.events);
            timelines.push(timeline);
        }
        Ok((outs, exchange, timelines))
    }
}

/// Assembles full outputs from per-device owned rows: ownership ranges
/// tile `[0, v)` in device order, so every output is the concatenation of
/// the devices' row blocks.
fn concat_vertex_outputs(v: usize, per_dev: Vec<Vec<Tensor>>) -> Vec<Tensor> {
    let n = per_dev.first().map_or(0, Vec::len);
    (0..n)
        .map(|i| {
            let mut dims = per_dev[0][i].dims().to_vec();
            dims[0] = v;
            let mut data = Vec::with_capacity(dims.iter().product());
            for outs in &per_dev {
                data.extend_from_slice(outs[i].data());
            }
            Tensor::from_vec(data, &dims)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::tests::globals_for;
    use wisegraph_dfg::Dim;
    use wisegraph_graph::generate::{rmat, RmatParams};
    use wisegraph_gtask::{partition, PartitionTable};
    use wisegraph_models::ModelKind;

    type Setup = (Graph, Dfg, HashMap<String, Tensor>);

    /// `model`'s layer DFG at `fi → fo` on `g`, with a value for every
    /// input.
    fn setup(g: Graph, model: ModelKind, fi: usize, fo: usize) -> Setup {
        let globals = globals_for(&g, fi, fo);
        (g, model.layer_dfg(fi, fo), globals)
    }

    fn rgcn_setup() -> Setup {
        setup(rmat(&RmatParams::standard(110, 900, 41).with_edge_types(3)), ModelKind::Rgcn, 5, 4)
    }

    fn gcn_setup() -> Setup {
        setup(rmat(&RmatParams::standard(100, 800, 43)), ModelKind::Gcn, 6, 3)
    }

    fn gat_setup() -> Setup {
        setup(rmat(&RmatParams::standard(80, 500, 47)), ModelKind::Gat, 4, 3)
    }

    #[test]
    fn data_parallel_is_bitwise_identical_to_single_engine() {
        let (g, dfg, globals) = rgcn_setup();
        let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
        let reference = Engine::new(2).execute(&dfg, &g, &plan, &globals).unwrap();
        for devices in [1usize, 2, 4] {
            let cluster = ClusterEngine::new(devices, 2);
            let run = cluster
                .execute(&dfg, &g, &plan, &globals, PlacementKind::DataParallel)
                .unwrap();
            for (a, b) in reference.iter().zip(run.outputs.iter()) {
                assert_eq!(a.data(), b.data(), "devices {devices}");
            }
            assert!(run.exchange.is_conserved(), "devices {devices}");
            if devices > 1 {
                assert!(run.exchange.bytes_sent() > 0);
                assert_eq!(
                    cluster.stats().count(keys::COMM_BYTES_EXCHANGED),
                    run.exchange.bytes_sent()
                );
            }
        }
    }

    #[test]
    fn project_then_communicate_matches_single_engine_on_gat() {
        let (g, dfg, globals) = gat_setup();
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let reference = Engine::new(2).execute(&dfg, &g, &plan, &globals).unwrap();
        let dp_bytes;
        {
            let cluster = ClusterEngine::new(4, 2);
            let run = cluster
                .execute(&dfg, &g, &plan, &globals, PlacementKind::DataParallel)
                .unwrap();
            for (a, b) in reference.iter().zip(run.outputs.iter()) {
                assert_eq!(a.data(), b.data(), "data-parallel");
            }
            dp_bytes = run.exchange.bytes_sent();
        }
        for devices in [1usize, 2, 4] {
            let cluster = ClusterEngine::new(devices, 2);
            let run = cluster
                .execute(
                    &dfg,
                    &g,
                    &plan,
                    &globals,
                    PlacementKind::ProjectThenCommunicate,
                )
                .unwrap();
            for (a, b) in reference.iter().zip(run.outputs.iter()) {
                assert_eq!(a.data(), b.data(), "devices {devices}");
            }
            assert!(run.exchange.is_conserved());
        }
        // f_in = 4 raw columns vs fo + 1 = 4 projected columns: volumes
        // are comparable here; the point is both executed for real.
        assert!(dp_bytes > 0);
    }

    #[test]
    fn tensor_parallel_is_bitwise_identical_at_any_device_count() {
        for (g, dfg, globals, table) in [
            {
                let (g, dfg, gl) = gcn_setup();
                (g, dfg, gl, PartitionTable::edge_batch(64))
            },
            {
                let (g, dfg, gl) = rgcn_setup();
                (g, dfg, gl, PartitionTable::src_batch_per_type(8))
            },
            // More devices than vertices and than columns: 8 devices on 5
            // vertices, accumulating 3 columns.
            {
                let (g, dfg, gl) =
                    setup(rmat(&RmatParams::standard(5, 12, 51)), ModelKind::Sage, 3, 2);
                (g, dfg, gl, PartitionTable::vertex_centric())
            },
        ] {
            let plan = partition(&g, &table);
            let reference = Engine::new(2).execute(&dfg, &g, &plan, &globals).unwrap();
            for devices in [1usize, 2, 3, 4, 8] {
                let cluster = ClusterEngine::new(devices, 2);
                let run = cluster
                    .execute(&dfg, &g, &plan, &globals, PlacementKind::TensorParallel)
                    .unwrap();
                for (a, b) in reference.iter().zip(run.outputs.iter()) {
                    assert_eq!(a.data(), b.data(), "devices {devices}");
                }
                assert!(run.exchange.is_conserved());
                // A device's epilogue segment costs the output elements of
                // its owned rows, so the devices' rows add up to |V|.
                let epilogues: u64 =
                    run.timelines.iter().map(|t| t.segments.last().unwrap().cost).sum();
                let elements: u64 = run.outputs.iter().map(|t| t.numel() as u64).sum();
                assert_eq!(epilogues, elements, "devices {devices}");
                assert_eq!(run.outputs[0].dims()[0], g.num_vertices());
            }
        }
    }

    #[test]
    fn compute_then_reduce_is_bitwise_stable_across_device_counts() {
        let (g, dfg, globals) = gcn_setup();
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let reference = Engine::new(2).execute(&dfg, &g, &plan, &globals).unwrap();
        let anchor = ClusterEngine::new(1, 2)
            .execute(&dfg, &g, &plan, &globals, PlacementKind::ComputeThenReduce)
            .unwrap()
            .outputs;
        // Different partial-sum order than the single engine: close, not
        // bitwise. Across device counts: bitwise, because the canonical
        // source groups fix the summation sequence.
        for (a, b) in reference.iter().zip(anchor.iter()) {
            assert!(a.allclose(b, 1e-3), "diff {}", a.max_abs_diff(b));
        }
        for devices in [2usize, 3, 4, 8] {
            let run = ClusterEngine::new(devices, 2)
                .execute(&dfg, &g, &plan, &globals, PlacementKind::ComputeThenReduce)
                .unwrap();
            for (a, b) in anchor.iter().zip(run.outputs.iter()) {
                assert_eq!(a.data(), b.data(), "devices {devices}");
            }
            assert!(run.exchange.is_conserved());
        }
    }

    #[test]
    fn incompatible_placements_are_rejected_up_front() {
        let (g, dfg, globals) = gcn_setup();
        let program = compile(&dfg, &g).unwrap();
        // GCN hoists no prologue: nothing to project before communicating.
        assert!(schedule(&program, &globals, PlacementKind::ProjectThenCommunicate).is_err());
        let (g, dfg, globals) = gat_setup();
        let program = compile(&dfg, &g).unwrap();
        // GAT's segment softmax forbids splitting a destination's
        // in-edges (compute-then-reduce) or its columns (tensor-parallel).
        assert!(schedule(&program, &globals, PlacementKind::ComputeThenReduce).is_err());
        assert!(schedule(&program, &globals, PlacementKind::TensorParallel).is_err());
        assert_eq!(
            compatible_placements(&program, &g, &globals),
            vec![
                PlacementKind::DataParallel,
                PlacementKind::ProjectThenCommunicate
            ]
        );
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let err = ClusterEngine::new(2, 1)
            .execute(&dfg, &g, &plan, &globals, PlacementKind::TensorParallel)
            .expect_err("rejected before any device thread starts");
        assert!(err.to_string().contains("tensor_parallel"), "{err}");
    }

    #[test]
    fn tp_slice_global_prefers_the_width_carrier() {
        let sliced = |(g, dfg, globals): Setup| {
            let program = compile(&dfg, &g).unwrap();
            match schedule(&program, &globals, PlacementKind::TensorParallel).map(|s| s.hold) {
                Ok(Hold::Columns(name)) => name,
                _ => panic!("tensor-parallel holds a column slice"),
            }
        };
        // RGCN accumulates at f_out: the rank-3 weight carries the width.
        assert_eq!(sliced(rgcn_setup()), "W");
        // GCN accumulates raw embeddings at f_in: h carries the width.
        assert_eq!(sliced(gcn_setup()), "h");
    }

    /// Which placements each model compiles for, stated once by
    /// `schedule`: GAT's per-call edge pass and hoisted projections rule
    /// out the source-group and column splits, and only GAT hoists a
    /// projection to run before communicating.
    #[test]
    fn compatible_placements_are_pinned_per_model() {
        use PlacementKind::*;
        let g = rmat(&RmatParams::standard(60, 400, 53).with_edge_types(3));
        let globals = globals_for(&g, 4, 3);
        for (model, want) in [
            (ModelKind::Gcn, vec![DataParallel, ComputeThenReduce, TensorParallel]),
            (ModelKind::Sage, vec![DataParallel, ComputeThenReduce, TensorParallel]),
            (ModelKind::Rgcn, vec![DataParallel, ComputeThenReduce, TensorParallel]),
            (ModelKind::Gat, vec![DataParallel, ProjectThenCommunicate]),
        ] {
            let program = compile(&model.layer_dfg(4, 3), &g).unwrap();
            assert_eq!(compatible_placements(&program, &g, &globals), want, "{}", model.name());
        }
    }

    #[test]
    fn attribution_reports_cover_every_schedule() {
        let (g, dfg, globals) = gcn_setup();
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let program = compile(&dfg, &g).unwrap();
        for placement in compatible_placements(&program, &g, &globals) {
            let cluster = ClusterEngine::new(3, 2);
            cluster.set_layer(2);
            let run = cluster.execute(&dfg, &g, &plan, &globals, placement).unwrap();
            // Every send drained: one message per peer pair and round.
            assert!(run.exchange.is_conserved(), "{placement:?}");
            let rounds = run.timelines[0]
                .segments
                .iter()
                .filter(|s| s.kind != PhaseKind::Compute)
                .count() as u64;
            assert_eq!(run.exchange.messages_sent(), 6 * rounds, "{placement:?}");
            assert_eq!(run.timelines.len(), 3);
            assert!(run
                .timelines
                .iter()
                .all(|tl| tl.segments.iter().all(|s| s.layer == 2)));
            let report = run.attribution().expect("analyzes");
            assert!(report.makespan > 0, "{placement:?}");
            assert_eq!(report.devices.len(), 3);
            // The replay prices every logged byte once per side.
            assert_eq!(
                report.devices.iter().map(|a| a.exchange).sum::<u64>(),
                run.exchange.bytes_sent() + run.exchange.bytes_received(),
                "{placement:?}"
            );
            assert!(
                report.devices.iter().map(|a| a.busy).sum::<u64>() > 0,
                "{placement:?}"
            );
            assert!(report.straggler_ranking.len() == 3);
        }
    }

    #[test]
    fn shard_state_is_rederived_only_when_graph_or_plan_content_changes() {
        let (g, dfg, globals) = gcn_setup();
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let cluster = ClusterEngine::new(2, 1);
        let rebuilds = || cluster.stats().count(keys::CLUSTER_SHARD_REBUILDS);
        let check = |g: &Graph, plan: &PartitionPlan, placement| {
            let reference = Engine::new(1).execute(&dfg, g, plan, &globals).unwrap();
            let run = cluster.execute(&dfg, g, plan, &globals, placement).unwrap();
            assert_eq!(reference[0].data(), run.outputs[0].data());
        };
        assert_eq!(rebuilds(), 0);
        check(&g, &plan, PlacementKind::DataParallel);
        assert_eq!(rebuilds(), 1);
        // Same content — even from fresh allocations — derives nothing,
        // whichever schedule asks.
        check(&g.clone(), &plan.clone(), PlacementKind::DataParallel);
        cluster
            .execute(&dfg, &g, &plan, &globals, PlacementKind::ComputeThenReduce)
            .unwrap();
        check(&g, &plan, PlacementKind::TensorParallel);
        assert_eq!(
            cluster.max_remote_unique_src(&g, &plan),
            ShardSpec::balanced(&g, 2).max_remote_unique_src(&g)
        );
        assert_eq!(rebuilds(), 1);
        // One edge moved to another task: a different plan.
        let mut tasks = plan.task_lists();
        let e = tasks[0].0.pop().expect("non-empty task");
        tasks[1].0.push(e);
        let moved =
            PartitionPlan::from_task_lists(plan.table.clone(), plan.tasks.attrs().to_vec(), tasks);
        check(&g, &moved, PlacementKind::DataParallel);
        assert_eq!(rebuilds(), 2);
        check(&g, &moved, PlacementKind::DataParallel);
        assert_eq!(rebuilds(), 2);
        // One edge re-pointed: a different graph under the same plan.
        let mut dst = g.dst().to_vec();
        dst[0] = (dst[0] + 1) % g.num_vertices() as u32;
        let repointed = Graph::untyped(g.num_vertices(), g.src().to_vec(), dst);
        check(&repointed, &moved, PlacementKind::DataParallel);
        assert_eq!(rebuilds(), 3);
    }

    /// A device reads a vertex-rowed input only in the rows it holds:
    /// through its view, every vertex-rowed DFG input is the caller's
    /// tensor in those rows and zero in every other. Outputs cannot show a
    /// device reading rows it does not hold — under project-then-
    /// communicate and compute-then-reduce they would keep the single
    /// engine's bits — so the view itself is pinned.
    #[test]
    fn devices_read_vertex_rowed_inputs_only_in_the_rows_they_hold() {
        let g = rmat(&RmatParams::standard(90, 700, 49).with_edge_types(3));
        let (v, fi, fo) = (g.num_vertices(), 4, 3);
        let globals = globals_for(&g, fi, fo);
        let plan = partition(&g, &PartitionTable::vertex_centric());
        let cluster = ClusterEngine::new(2, 1);
        let shard = cluster.shard_state(&g, &plan);
        let groups = SrcGroups::new(v, SrcGroups::CANONICAL);
        let mut checked = 0;
        for model in [ModelKind::Gcn, ModelKind::Rgcn, ModelKind::Gat, ModelKind::Sage] {
            let dfg = model.layer_dfg(fi, fo);
            let program = compile(&dfg, &g).unwrap();
            let rowed: Vec<&String> = (dfg.nodes().iter())
                .filter_map(|n| match &n.kind {
                    OpKind::Input { name, shape } if shape[0] == Dim::Vertices => Some(name),
                    _ => None,
                })
                .collect();
            for placement in compatible_placements(&program, &g, &globals) {
                // A tensor-parallel device runs every edge on every row.
                if placement == PlacementKind::TensorParallel {
                    continue;
                }
                for dev in 0..2 {
                    let own = ShardSpec::balanced(&g, 2).owned_range(dev);
                    let mine = groups.groups_of_device(dev, 2);
                    let holds = |r: usize| {
                        own.contains(&r)
                            || placement == PlacementKind::ComputeThenReduce
                                && mine.contains(&groups.group_of(r as u32))
                    };
                    let hold = schedule(&program, &globals, placement).unwrap().hold;
                    let cols = ShardSpec::new(program.out_width, 2);
                    let held = held(&hold, &dfg, &globals, Some(&shard), &cols, dev);
                    let view = Globals::with_prologue(&globals, &held);
                    for &name in &rowed {
                        let (seen, caller) = (&view[name.as_str()], &globals[name]);
                        let w = caller.numel() / v;
                        assert_eq!(seen.dims(), caller.dims());
                        let zeros = vec![0.0; w];
                        for r in 0..v {
                            let cells = r * w..(r + 1) * w;
                            let want: &[f32] =
                                if holds(r) { &caller.data()[cells.clone()] } else { &zeros };
                            assert_eq!(
                                &seen.data()[cells],
                                want,
                                "{} × {}: device {dev} row {r} of `{name}`",
                                model.name(),
                                placement.name()
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        // Every model runs data-parallel, GAT project-then-communicate and
        // the others compute-then-reduce: `h` on 2 devices each.
        assert_eq!(checked, 16);
    }

    #[test]
    fn per_device_counters_and_comm_totals_are_reported() {
        let (g, dfg, globals) = rgcn_setup();
        let plan = partition(&g, &PartitionTable::src_batch_per_type(8));
        let cluster = ClusterEngine::new(2, 2);
        let run = cluster
            .execute(&dfg, &g, &plan, &globals, PlacementKind::DataParallel)
            .unwrap();
        assert_eq!(run.per_device.len(), 2);
        let edges: u64 = run
            .per_device
            .iter()
            .map(|c| c.count(keys::KERNEL_EDGES))
            .sum();
        assert_eq!(edges, g.num_edges() as u64, "every edge runs exactly once");
        let stats = cluster.stats();
        let prefixed: u64 = (0..2)
            .map(|d| {
                stats.count(&format!(
                    "{}.{}",
                    keys::device_prefix(d),
                    keys::KERNEL_EDGES
                ))
            })
            .sum();
        assert_eq!(prefixed, edges);
        assert!(stats.count(keys::COMM_MESSAGES) > 0);
        assert_eq!(stats.count(keys::COMM_DEVICES), 2);
        assert_eq!(
            stats.count(&keys::comm_collective_bytes("all_to_all")),
            run.exchange.bytes_sent()
        );
    }
}
