//! Critical-path and idle-time attribution over device timelines.
//!
//! The cluster records, per device, an alternating sequence of *compute*
//! and *exchange* phase segments (each carrying a deterministic logical
//! cost plus a wall-clock overlay), and its exchange log says how many
//! bytes each device sent each peer in each round. This module replays
//! the segments against those [`Edges`] on a logical clock: computes
//! advance a device's clock by their cost, exchange rounds serialize
//! sends in ascending peer order and make each receive wait for the
//! matching send to complete. The replay yields exactly the quantities
//! the overlap ROADMAP item needs — the critical path through the device
//! DAG, a per-device busy/exchange/idle breakdown, a straggler ranking,
//! and per-layer *overlap headroom*: idle time a posted-early send could
//! have reclaimed, bounded by the compute the sender had available to
//! overlap.
//!
//! Everything derived from costs and edges is [`Class::Work`]: a pure
//! function of graph, schedule, and device count, bit-identical across
//! runs and thread counts, and therefore gateable. Wall-clock sums ride
//! along as a [`Class::Timing`] overlay.

use std::collections::BTreeMap;

use crate::counters::{Class, Counters};
use crate::json::Json;
use crate::keys;

/// The logical cost of the work a counter snapshot describes: FLOPs plus
/// edges plus moved bytes normalized to element units. Work-class inputs
/// only, so the result is bit-identical across runs and thread counts.
pub fn logical_cost(c: &Counters) -> u64 {
    c.count(keys::KERNEL_FLOPS)
        + c.count(keys::KERNEL_EDGES)
        + (c.count(keys::KERNEL_BYTES_GATHERED) + c.count(keys::KERNEL_BYTES_SCATTERED)) / 4
}

/// The messages of a run's exchange rounds: `(round, from, to) → bytes`.
pub type Edges = BTreeMap<(u32, u32, u32), u64>;

/// What a timeline segment did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PhaseKind {
    /// Local computation (engine work, prologue/epilogue evaluation).
    Compute,
    /// One collective exchange round.
    Exchange {
        /// The mailbox round it occupied.
        round: u32,
    },
}

/// One phase on one device: a logical cost plus a wall-clock overlay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Compute or exchange.
    pub kind: PhaseKind,
    /// The model layer the phase belongs to (0 for single-layer runs).
    pub layer: u32,
    /// Logical cost: compute = [`logical_cost`] delta (+ any non-engine
    /// element work); exchange = bytes sent plus bytes received.
    pub cost: u64,
    /// Measured wall time of the phase (Timing overlay).
    pub wall_ns: u64,
    /// Wall time spent blocked in receives (exchange phases only).
    pub idle_wall_ns: u64,
}

/// The ordered phase segments one device executed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceTimeline {
    /// Device index.
    pub device: u32,
    /// Segments in execution order.
    pub segments: Vec<Segment>,
}

/// Per-device totals from the replay, in logical units plus wall overlay.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceAttribution {
    /// Device index.
    pub device: u32,
    /// Logical compute units.
    pub busy: u64,
    /// Logical exchange units (bytes sent + received).
    pub exchange: u64,
    /// Logical units spent waiting for not-yet-complete sends.
    pub idle_wait: u64,
    /// Logical clock when the device finished its last segment.
    pub finish: u64,
    /// Measured wall time in compute phases (Timing overlay).
    pub busy_wall_ns: u64,
    /// Measured wall time in exchange phases net of blocking (Timing).
    pub exchange_wall_ns: u64,
    /// Measured wall time blocked in receives (Timing overlay).
    pub idle_wall_ns: u64,
}

/// One hop of the critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CriticalStep {
    /// Device the step ran on.
    pub device: u32,
    /// `"compute"`, `"send"`, `"recv"`, or `"wait"`.
    pub kind: &'static str,
    /// Layer of the segment the step belongs to.
    pub layer: u32,
    /// Logical length of the step.
    pub len: u64,
}

/// The full attribution report for one cluster run.
#[derive(Clone, Debug, PartialEq)]
pub struct AttributionReport {
    /// Per-device totals, in device order.
    pub devices: Vec<DeviceAttribution>,
    /// Logical length of the critical path (= cluster makespan).
    pub makespan: u64,
    /// The critical path, start to finish; hops devices at waits.
    pub critical_path: Vec<CriticalStep>,
    /// Devices most-loaded first (by busy + exchange, ties by index).
    pub straggler_ranking: Vec<u32>,
    /// Per-layer overlap headroom: idle a posted-early send could
    /// reclaim, bounded by the blocking sender's preceding compute.
    pub headroom_by_layer: BTreeMap<u32, u64>,
}

/// Replay item kinds (internal to the scheduler).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ItemKind {
    Compute,
    Send,
    Recv,
    Wait,
}

impl ItemKind {
    fn name(self) -> &'static str {
        match self {
            ItemKind::Compute => "compute",
            ItemKind::Send => "send",
            ItemKind::Recv => "recv",
            ItemKind::Wait => "wait",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Item {
    kind: ItemKind,
    layer: u32,
    start: u64,
    end: u64,
    /// `(device, item index)` of the step this one waited on; `None` at
    /// the head of a device's chain.
    pred: Option<(usize, usize)>,
}

/// Replays the per-device timelines against the messages of their
/// exchange rounds ([`Edges`]) and returns the attribution report.
/// Deterministic: only logical costs, rounds, and message byte counts
/// decide the Work-class fields.
///
/// # Errors
///
/// Fails if an edge names a device outside the timelines, if device
/// timelines disagree on exchange-round alignment (the schedules are
/// SPMD, so every device reaches the same rounds in the same order), or
/// if an edge references a round no timeline is at.
pub fn analyze(timelines: &[DeviceTimeline], edge_bytes: &Edges) -> Result<AttributionReport, String> {
    let d = timelines.len();
    if d == 0 {
        return Err("no device timelines".to_string());
    }
    if let Some(dev) = edge_bytes
        .keys()
        .map(|&(_, from, to)| from.max(to))
        .find(|&dev| dev as usize >= d)
    {
        return Err(format!("edge references device {dev} outside the {d} timelines"));
    }

    let mut pos = vec![0usize; d];
    let mut clock = vec![0u64; d];
    let mut busy = vec![0u64; d];
    let mut exchange = vec![0u64; d];
    let mut idle_wait = vec![0u64; d];
    let mut busy_wall = vec![0u64; d];
    let mut exchange_wall = vec![0u64; d];
    let mut idle_wall = vec![0u64; d];
    let mut items: Vec<Vec<Item>> = vec![Vec::new(); d];
    let mut last_compute = vec![0u64; d];
    let mut headroom: BTreeMap<u32, u64> = BTreeMap::new();

    loop {
        // Advance every device through its run of compute segments.
        for i in 0..d {
            while let Some(seg) = timelines[i].segments.get(pos[i]) {
                if seg.kind != PhaseKind::Compute {
                    break;
                }
                let pred = items[i].len().checked_sub(1).map(|j| (i, j));
                items[i].push(Item {
                    kind: ItemKind::Compute,
                    layer: seg.layer,
                    start: clock[i],
                    end: clock[i] + seg.cost,
                    pred,
                });
                clock[i] += seg.cost;
                busy[i] += seg.cost;
                busy_wall[i] += seg.wall_ns;
                last_compute[i] = seg.cost;
                pos[i] += 1;
            }
        }
        if (0..d).all(|i| pos[i] == timelines[i].segments.len()) {
            break;
        }
        // Every device must now sit at the same exchange round (SPMD).
        let mut round: Option<u32> = None;
        for (i, tl) in timelines.iter().enumerate() {
            let seg = tl.segments.get(pos[i]).ok_or_else(|| {
                format!("device {i} ran out of segments while others exchange")
            })?;
            let PhaseKind::Exchange { round: r } = seg.kind else {
                unreachable!("computes were advanced above");
            };
            match round {
                None => round = Some(r),
                Some(r0) if r0 == r => {}
                Some(r0) => {
                    return Err(format!(
                        "misaligned exchange rounds: device 0 at {r0}, device {i} at {r}"
                    ))
                }
            }
        }
        let round = round.unwrap();
        // Sends: each device serializes its outgoing messages in
        // ascending peer order (the mailbox send loop).
        let mut send_done: BTreeMap<(usize, usize), (u64, (usize, usize))> = BTreeMap::new();
        let mut after_send = clock.clone();
        for s in 0..d {
            let layer = timelines[s].segments[pos[s]].layer;
            for r in 0..d {
                if r == s {
                    continue;
                }
                if let Some(&bytes) = edge_bytes.get(&(round, s as u32, r as u32)) {
                    let pred = items[s].len().checked_sub(1).map(|j| (s, j));
                    let start = after_send[s];
                    after_send[s] = start + bytes;
                    items[s].push(Item {
                        kind: ItemKind::Send,
                        layer,
                        start,
                        end: after_send[s],
                        pred,
                    });
                    send_done.insert((s, r), (after_send[s], (s, items[s].len() - 1)));
                    exchange[s] += bytes;
                }
            }
        }
        // Receives: ascending peer order (the mailbox drain loop); a
        // receive whose send is not yet complete blocks the device.
        for i in 0..d {
            let seg = timelines[i].segments[pos[i]];
            let mut ti = after_send[i];
            for s in 0..d {
                if s == i {
                    continue;
                }
                if let Some(&bytes) = edge_bytes.get(&(round, s as u32, i as u32)) {
                    let (arrival, send_item) = send_done[&(s, i)];
                    if arrival > ti {
                        let wait = arrival - ti;
                        idle_wait[i] += wait;
                        *headroom.entry(seg.layer).or_insert(0) += wait.min(last_compute[s]);
                        items[i].push(Item {
                            kind: ItemKind::Wait,
                            layer: seg.layer,
                            start: ti,
                            end: arrival,
                            pred: Some(send_item),
                        });
                        ti = arrival;
                    }
                    let pred = items[i].len().checked_sub(1).map(|j| (i, j));
                    items[i].push(Item {
                        kind: ItemKind::Recv,
                        layer: seg.layer,
                        start: ti,
                        end: ti + bytes,
                        pred,
                    });
                    ti += bytes;
                    exchange[i] += bytes;
                }
            }
            clock[i] = ti;
            let blocked = seg.idle_wall_ns.min(seg.wall_ns);
            idle_wall[i] += blocked;
            exchange_wall[i] += seg.wall_ns - blocked;
            pos[i] += 1;
        }
    }
    // Every edge must have been consumed by a replayed round.
    for &(round, from, to) in edge_bytes.keys() {
        let replayed = timelines.iter().any(|tl| {
            tl.segments
                .iter()
                .any(|s| s.kind == PhaseKind::Exchange { round })
        });
        if !replayed {
            return Err(format!(
                "edge {from}->{to} references round {round} absent from all timelines"
            ));
        }
    }
    // Critical path: walk predecessor links back from the last item of
    // the latest-finishing device.
    let makespan = clock.iter().copied().max().unwrap_or(0);
    let mut critical_path = Vec::new();
    // Ties between equal finishers resolve toward the most-blocked
    // device, so the reported path walks through the cross-device wait
    // that explains the makespan rather than a local-only chain.
    let tail_dev = (0..d)
        .max_by_key(|&i| (clock[i], idle_wait[i], std::cmp::Reverse(i)))
        .unwrap_or(0);
    let mut cur = items[tail_dev].len().checked_sub(1).map(|j| (tail_dev, j));
    while let Some((dev, j)) = cur {
        let it = items[dev][j];
        critical_path.push(CriticalStep {
            device: dev as u32,
            kind: it.kind.name(),
            layer: it.layer,
            len: it.end - it.start,
        });
        cur = it.pred;
    }
    critical_path.reverse();

    let mut straggler_ranking: Vec<u32> = (0..d as u32).collect();
    straggler_ranking
        .sort_by_key(|&i| (std::cmp::Reverse(busy[i as usize] + exchange[i as usize]), i));

    let devices = (0..d)
        .map(|i| DeviceAttribution {
            device: timelines[i].device,
            busy: busy[i],
            exchange: exchange[i],
            idle_wait: idle_wait[i],
            finish: clock[i],
            busy_wall_ns: busy_wall[i],
            exchange_wall_ns: exchange_wall[i],
            idle_wall_ns: idle_wall[i],
        })
        .collect();

    Ok(AttributionReport {
        devices,
        makespan,
        critical_path,
        straggler_ranking,
        headroom_by_layer: headroom,
    })
}

impl AttributionReport {
    /// The most-loaded device.
    pub fn straggler(&self) -> u32 {
        self.straggler_ranking.first().copied().unwrap_or(0)
    }

    /// Total overlap headroom across layers.
    pub fn headroom_total(&self) -> u64 {
        self.headroom_by_layer.values().sum()
    }

    /// Per-device `(busy, exchange, idle)` fractions of the makespan.
    /// Idle includes both blocking waits and the tail slack between the
    /// device finishing and the cluster finishing, so the three fractions
    /// sum to 1 per device.
    pub fn fractions(&self, device: usize) -> (f64, f64, f64) {
        let a = &self.devices[device];
        if self.makespan == 0 {
            return (0.0, 0.0, 0.0);
        }
        let m = self.makespan as f64;
        let idle = a.idle_wait + (self.makespan - a.finish);
        (
            a.busy as f64 / m,
            a.exchange as f64 / m,
            idle as f64 / m,
        )
    }

    /// Records the report into a counter registry: logical attribution as
    /// [`Class::Work`] (gateable), wall sums as a [`Class::Timing`] overlay.
    pub fn record_counters(&self, c: &mut Counters) {
        c.record_max("critical.len", self.makespan, Class::Work);
        c.add_class("critical.steps", self.critical_path.len() as u64, Class::Work);
        c.record_max(
            "critical.straggler_device",
            u64::from(self.straggler()),
            Class::Work,
        );
        c.add_class("critical.headroom", self.headroom_total(), Class::Work);
        for (&layer, &h) in &self.headroom_by_layer {
            c.add_class(format!("critical.layer.{layer:02}.headroom"), h, Class::Work);
        }
        for a in &self.devices {
            let p = keys::device_prefix(a.device as usize);
            c.add_class(format!("{p}.attr_busy"), a.busy, Class::Work);
            c.add_class(format!("{p}.attr_exchange"), a.exchange, Class::Work);
            c.add_class(format!("{p}.attr_idle"), a.idle_wait, Class::Work);
            c.record_max(format!("{p}.attr_finish"), a.finish, Class::Work);
        }
        let busy_wall: u64 = self.devices.iter().map(|a| a.busy_wall_ns).sum();
        let exch_wall: u64 = self.devices.iter().map(|a| a.exchange_wall_ns).sum();
        let idle_wall: u64 = self.devices.iter().map(|a| a.idle_wall_ns).sum();
        c.set_gauge("wall.busy_ns", busy_wall as f64, Class::Timing);
        c.set_gauge("wall.exchange_ns", exch_wall as f64, Class::Timing);
        c.set_gauge("wall.idle_ns", idle_wall as f64, Class::Timing);
    }

    /// Byte-stable JSON of the Work-class view only: bit-identical across
    /// runs and thread counts for the same schedule.
    pub fn work_json(&self) -> String {
        let mut root = BTreeMap::new();
        root.insert(
            "schema".to_string(),
            Json::Str("wisegraph-critical/v1".to_string()),
        );
        root.insert("makespan".to_string(), Json::Num(self.makespan as f64));
        root.insert(
            "straggler".to_string(),
            Json::Num(f64::from(self.straggler())),
        );
        root.insert(
            "straggler_ranking".to_string(),
            Json::Arr(
                self.straggler_ranking
                    .iter()
                    .map(|&i| Json::Num(f64::from(i)))
                    .collect(),
            ),
        );
        root.insert(
            "headroom_total".to_string(),
            Json::Num(self.headroom_total() as f64),
        );
        let mut hl = BTreeMap::new();
        for (&layer, &h) in &self.headroom_by_layer {
            hl.insert(format!("{layer:02}"), Json::Num(h as f64));
        }
        root.insert("headroom_by_layer".to_string(), Json::Obj(hl));
        let devs: Vec<Json> = self
            .devices
            .iter()
            .map(|a| {
                let mut m = BTreeMap::new();
                m.insert("device".to_string(), Json::Num(f64::from(a.device)));
                m.insert("busy".to_string(), Json::Num(a.busy as f64));
                m.insert("exchange".to_string(), Json::Num(a.exchange as f64));
                m.insert("idle_wait".to_string(), Json::Num(a.idle_wait as f64));
                m.insert("finish".to_string(), Json::Num(a.finish as f64));
                Json::Obj(m)
            })
            .collect();
        root.insert("devices".to_string(), Json::Arr(devs));
        let path: Vec<Json> = self
            .critical_path
            .iter()
            .map(|s| {
                let mut m = BTreeMap::new();
                m.insert("device".to_string(), Json::Num(f64::from(s.device)));
                m.insert("kind".to_string(), Json::Str(s.kind.to_string()));
                m.insert("layer".to_string(), Json::Num(f64::from(s.layer)));
                m.insert("len".to_string(), Json::Num(s.len as f64));
                Json::Obj(m)
            })
            .collect();
        root.insert("critical_path".to_string(), Json::Arr(path));
        Json::Obj(root).to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compute(layer: u32, cost: u64) -> Segment {
        Segment {
            kind: PhaseKind::Compute,
            layer,
            cost,
            wall_ns: cost * 10,
            idle_wall_ns: 0,
        }
    }

    fn exchange(layer: u32, round: u32, cost: u64) -> Segment {
        Segment {
            kind: PhaseKind::Exchange { round },
            layer,
            cost,
            wall_ns: cost * 10,
            idle_wall_ns: 1,
        }
    }

    /// Two devices, device 0 computes 100 and device 1 computes 10, then
    /// they swap 8 bytes each.
    fn skewed_pair() -> (Vec<DeviceTimeline>, Edges) {
        let timelines = vec![
            DeviceTimeline {
                device: 0,
                segments: vec![compute(0, 100), exchange(0, 0, 16)],
            },
            DeviceTimeline {
                device: 1,
                segments: vec![compute(0, 10), exchange(0, 0, 16)],
            },
        ];
        let edges = BTreeMap::from([((0, 0, 1), 8), ((0, 1, 0), 8)]);
        (timelines, edges)
    }

    #[test]
    fn skewed_pair_attributes_idle_to_the_fast_device() {
        let (timelines, edges) = skewed_pair();
        let r = analyze(&timelines, &edges).expect("analyzes");
        // Device 0: compute 100, send 8 (done 108), recv arrives at 18
        // (device 1 computed 10, sent 8) — already there. Finish 116.
        // Device 1: compute 10, send 8 (done 18), wait for device 0's
        // send at 108, recv 8 → finish 116.
        assert_eq!(r.makespan, 116);
        assert_eq!(r.devices[0].idle_wait, 0);
        assert_eq!(r.devices[1].idle_wait, 108 - 18);
        assert_eq!(r.straggler(), 0);
        // Headroom: the 90-unit wait, within the blocking sender's
        // 100-unit preceding compute bound.
        assert_eq!(r.headroom_total(), 90);
        // The critical path crosses from device 1's tail back through
        // device 0's send and compute.
        assert!(r.critical_path.iter().any(|s| s.device == 0));
        assert!(r.critical_path.iter().any(|s| s.device == 1));
        assert_eq!(r.critical_path.last().unwrap().kind, "recv");
        let (b0, e0, i0) = r.fractions(0);
        assert!((b0 + e0 + i0 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn analysis_ignores_wall_overlay_in_work_view() {
        let (timelines, edges) = skewed_pair();
        let a = analyze(&timelines, &edges).expect("a");
        let noisy: Vec<DeviceTimeline> = timelines
            .iter()
            .map(|tl| DeviceTimeline {
                device: tl.device,
                segments: tl
                    .segments
                    .iter()
                    .map(|s| Segment {
                        wall_ns: s.wall_ns * 3 + 7,
                        idle_wall_ns: s.idle_wall_ns + 2,
                        ..*s
                    })
                    .collect(),
            })
            .collect();
        let b = analyze(&noisy, &edges).expect("b");
        assert_eq!(a.work_json(), b.work_json());
        assert_ne!(a.devices, b.devices, "the wall overlay differs");
    }

    #[test]
    fn misaligned_rounds_are_rejected() {
        let (mut timelines, edges) = skewed_pair();
        timelines[1].segments[1] = exchange(0, 3, 16);
        assert!(analyze(&timelines, &edges).unwrap_err().contains("misaligned"));
    }

    #[test]
    fn edges_past_the_timelines_are_rejected() {
        let (timelines, mut edges) = skewed_pair();
        edges.insert((0, 2, 0), 8);
        assert!(analyze(&timelines, &edges).unwrap_err().contains("device 2 outside"));
    }

    #[test]
    fn counters_split_work_and_timing() {
        let (timelines, edges) = skewed_pair();
        let r = analyze(&timelines, &edges).expect("analyzes");
        let mut c = Counters::new();
        r.record_counters(&mut c);
        assert_eq!(c.count("critical.len"), 116);
        assert_eq!(c.count("device.00.attr_busy"), 100);
        assert_eq!(c.count("device.01.attr_idle"), 90);
        let work = c.only(&[Class::Work]);
        assert_eq!(work.count("critical.len"), 116);
        // Wall overlay is Timing-class: absent from the Work view.
        assert!(!crate::counters_to_json(&work).contains("wall."));
    }

    #[test]
    fn single_device_has_no_idle() {
        let timelines = vec![DeviceTimeline {
            device: 0,
            segments: vec![compute(0, 50), exchange(0, 0, 0)],
        }];
        let r = analyze(&timelines, &Edges::new()).expect("analyzes");
        assert_eq!(r.makespan, 50);
        assert_eq!(r.devices[0].idle_wait, 0);
        assert_eq!(r.headroom_total(), 0);
    }
}
