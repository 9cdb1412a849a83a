//! Structured spans over per-thread ring buffers.
//!
//! A span is a named, argument-carrying interval (`span!("kernel.task",
//! edges = n)`) opened by the [`span!`](crate::span!) macro and closed by
//! RAII. Recording is designed for the execution hot path:
//!
//! - **Disabled by default.** When no capture is active anywhere in the
//!   process, opening a span is one relaxed atomic load — cheap enough to
//!   leave instrumentation in the per-task runner permanently.
//! - **Scoped captures.** A [`capture`] owns its sink (a [`Session`]). A
//!   thread records iff it belongs to a session: the capturing thread
//!   does, and so does every thread a member hands its session to
//!   ([`with_lane`] takes the spawning thread's [`Session::current`]).
//!   Threads of an unrelated, concurrently running execution belong to no
//!   session and record nothing, and concurrent captures never share
//!   events.
//! - **Per-thread ring buffers.** A recording span pushes into the calling
//!   thread's local buffer (no locks, no cross-thread traffic). The buffer
//!   drains into its session's sink when it fills, when a top-level span
//!   closes, and when the thread leaves the session; the sink is bounded,
//!   counting (not silently losing) anything past the cap.
//! - **Deterministic merge.** Every event carries a logical `lane` (set by
//!   [`with_lane`]; the engine assigns worker slot `i` lane `i + 1`) and a
//!   per-thread sequence number. [`Trace::sorted_events`] orders by
//!   `(lane, tid, seq)`, so traces of the same execution have the same
//!   event order regardless of OS scheduling. Timestamps are a wall-clock
//!   overlay on top of that order, never the order itself.
//!
//! [`capture`] is the only consumer entry point: it opens a session on
//! the calling thread, runs the closure, and drains the session's sink
//! into a [`Trace`].

use crate::clock;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Lane value of threads that never called [`with_lane`].
pub const NO_LANE: u32 = u32::MAX;

/// Local ring capacity: the buffer drains to the sink at this size.
const LOCAL_CAP: usize = 4096;

/// Per-session sink capacity; events past it are counted as dropped.
const SINK_CAP: usize = 1 << 20;

/// Span phase, mirroring Chrome trace-event `B`/`E`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
}

/// One recorded event.
#[derive(Clone, Debug)]
pub struct SpanEvent {
    /// Span name (static: the instrumentation vocabulary is closed).
    pub name: &'static str,
    /// Begin or end.
    pub phase: Phase,
    /// Unique id of the recording OS thread (assignment order — an
    /// overlay, not part of the deterministic order within a lane).
    pub tid: u64,
    /// Logical lane ([`with_lane`]), or [`NO_LANE`].
    pub lane: u32,
    /// Per-thread sequence number (the deterministic order within a lane).
    pub seq: u64,
    /// Wall-clock overlay, nanoseconds (see [`clock`]).
    pub ts_ns: u64,
    /// Structured arguments (`Begin`: at open; `End`: attached via
    /// [`SpanGuard::arg`]).
    pub args: Vec<(&'static str, u64)>,
}

/// Number of captures currently running in the process: the one load a
/// `span!` pays when nothing is being captured. `Relaxed` throughout: it
/// publishes no data (events travel through the session's mutex), and a
/// session's members are the capturing thread and threads spawned inside
/// the capture, which see its increment by program order or by the spawn.
static ACTIVE_CAPTURES: AtomicUsize = AtomicUsize::new(0);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

#[derive(Default)]
struct Sink {
    events: Vec<SpanEvent>,
    dropped: u64,
}

/// The capture a thread records into, if any. Cheap to clone; hand the
/// spawning thread's [`Session::current`] to [`with_lane`] on the spawned
/// thread so its spans land in the same [`Trace`].
#[derive(Clone, Default)]
pub struct Session(Option<Arc<Mutex<Sink>>>);

impl Session {
    /// The calling thread's session — empty outside any capture.
    pub fn current() -> Session {
        LOCAL.with(|l| l.borrow().session.clone())
    }
}

struct Local {
    tid: u64,
    lane: u32,
    seq: u64,
    depth: u32,
    buf: Vec<SpanEvent>,
    session: Session,
}

impl Local {
    fn push(&mut self, name: &'static str, phase: Phase, args: Vec<(&'static str, u64)>) {
        // A guard that outlives its session has nowhere to report to.
        if self.session.0.is_none() {
            return;
        }
        self.seq += 1;
        self.buf.push(SpanEvent {
            name,
            phase,
            tid: self.tid,
            lane: self.lane,
            seq: self.seq,
            ts_ns: clock::now_ns(),
            args,
        });
        if self.buf.len() >= LOCAL_CAP {
            self.flush();
        }
    }

    /// Drains the local buffer into the thread's session (`push` buffers
    /// nothing without one).
    fn flush(&mut self) {
        let Some(sink) = &self.session.0 else { return };
        if self.buf.is_empty() {
            return;
        }
        // Every update leaves the sink valid, so a poisoned lock is usable.
        let mut s = sink.lock().unwrap_or_else(PoisonError::into_inner);
        let room = SINK_CAP.saturating_sub(s.events.len());
        let take = self.buf.len().min(room);
        s.dropped += (self.buf.len() - take) as u64;
        s.events.extend(self.buf.drain(..take));
        self.buf.clear();
    }

    /// Joins `session` (flushing what was recorded for the one left) and
    /// returns the previous membership.
    fn enter(&mut self, session: Session) -> Session {
        self.flush();
        std::mem::replace(&mut self.session, session)
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        lane: NO_LANE,
        seq: 0,
        depth: 0,
        buf: Vec::new(),
        session: Session(None),
    });
}

/// `true` when the calling thread records: some capture is running (the
/// one relaxed load every `span!` pays) *and* this thread belongs to one.
fn recording() -> bool {
    ACTIVE_CAPTURES.load(Ordering::Relaxed) != 0
        && LOCAL.with(|l| l.borrow().session.0.is_some())
}

/// Restores a thread's lane and session on scope exit (also on panic),
/// flushing what it recorded into the session it leaves.
struct Restore(u32, Session);

impl Drop for Restore {
    fn drop(&mut self) {
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.lane = self.0;
            l.enter(std::mem::take(&mut self.1));
        });
    }
}

/// Runs `f` as a member of `session` with the calling thread's logical
/// lane set to `lane`, restoring both afterwards. A freshly spawned thread
/// belongs to no session: spawn sites pass the spawning thread's
/// [`Session::current`] so a capture follows the execution it wraps and
/// nothing else. The engine gives worker slot `i` lane `i + 1`, keeping
/// lane 0 for the driver.
pub fn with_lane<R>(session: &Session, lane: u32, f: impl FnOnce() -> R) -> R {
    let _restore = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let prev_lane = std::mem::replace(&mut l.lane, lane);
        Restore(prev_lane, l.enter(session.clone()))
    });
    f()
}

/// RAII guard of one open span; created by the [`span!`](crate::span!)
/// macro, closed (recording the `End` event) on drop.
pub struct SpanGuard {
    active: bool,
    name: &'static str,
    end_args: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// Opens a span (no-op unless the calling thread belongs to a running
    /// [`capture`]).
    pub fn begin(name: &'static str, args: &[(&'static str, u64)]) -> SpanGuard {
        let active = recording();
        if active {
            LOCAL.with(|l| {
                let mut l = l.borrow_mut();
                l.depth += 1;
                l.push(name, Phase::Begin, args.to_vec());
            });
        }
        SpanGuard { active, name, end_args: Vec::new() }
    }

    /// Attaches a result argument, reported on the span's `End` event —
    /// for values only known when the work completes (tasks produced,
    /// nodes after a rewrite).
    pub fn arg(&mut self, key: &'static str, value: impl IntoArg) {
        if self.active {
            self.end_args.push((key, value.into_arg()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let args = std::mem::take(&mut self.end_args);
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.push(self.name, Phase::End, args);
            l.depth = l.depth.saturating_sub(1);
            if l.depth == 0 {
                // A top-level span closed: make the thread's events visible
                // without waiting for thread exit (the driver thread of a
                // capture never exits inside it).
                l.flush();
            }
        });
    }
}

/// Argument conversion for the `span!` macro: spans carry `u64` values.
pub trait IntoArg {
    /// The value as a `u64` (signed values saturate at 0).
    fn into_arg(self) -> u64;
}

macro_rules! impl_into_arg {
    ($($t:ty),*) => {$(
        impl IntoArg for $t {
            fn into_arg(self) -> u64 {
                u64::try_from(self).unwrap_or(0)
            }
        }
    )*};
}
impl_into_arg!(u64, u32, u16, u8, usize, i64, i32, i16, i8, isize);

/// A drained capture: the merged events of every thread that recorded.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All events, in sink-arrival order.
    pub events: Vec<SpanEvent>,
    /// Events lost to the global cap (0 in any healthy capture).
    pub dropped: u64,
}

impl Trace {
    /// Events in the deterministic merge order: by `(lane, tid, seq)`.
    /// For lane-disciplined recorders (one thread per lane) this order is
    /// a pure function of the execution, independent of OS scheduling.
    pub fn sorted_events(&self) -> Vec<SpanEvent> {
        let mut out = self.events.clone();
        out.sort_by_key(|e| (e.lane, e.tid, e.seq));
        out
    }

    /// Number of `Begin` events with the given span name.
    ///
    /// # Panics
    ///
    /// Panics if the capture dropped events: past the sink's cap a count
    /// would silently read low.
    pub fn span_count(&self, name: &str) -> usize {
        assert_eq!(
            self.dropped, 0,
            "the capture dropped {} events past its cap of {SINK_CAP}: `{name}` cannot be counted",
            self.dropped
        );
        self.events
            .iter()
            .filter(|e| e.phase == Phase::Begin && e.name == name)
            .count()
    }

    /// Checks span-nesting well-formedness per recording thread: every
    /// `End` must match the innermost open `Begin` of its thread. Spans
    /// still open when the capture ends are not an error.
    ///
    /// # Errors
    ///
    /// Returns a description of the first ill-nested event.
    pub fn check_nesting(&self) -> Result<(), String> {
        use std::collections::BTreeMap;
        let mut stacks: BTreeMap<u64, Vec<&'static str>> = BTreeMap::new();
        for e in self.sorted_events() {
            let stack = stacks.entry(e.tid).or_default();
            match e.phase {
                Phase::Begin => stack.push(e.name),
                Phase::End => match stack.pop() {
                    Some(open) if open == e.name => {}
                    Some(open) => {
                        return Err(format!(
                            "thread {}: end of `{}` while `{open}` is open",
                            e.tid, e.name
                        ));
                    }
                    None => {
                        return Err(format!(
                            "thread {}: end of `{}` with no open span",
                            e.tid, e.name
                        ));
                    }
                },
            }
        }
        Ok(())
    }
}

/// Runs `f` with span recording enabled on the calling thread — and on
/// every thread handed its session through [`with_lane`] — and returns its
/// result plus the captured [`Trace`].
///
/// Each capture owns its sink, so concurrent captures (parallel tests) run
/// independently and never see each other's events. Threads spawned *and
/// joined* inside `f` (the engine's scoped workers) flush when they leave
/// the session; detached threads that outlive `f` are not part of the
/// contract.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    let sink = Arc::new(Mutex::new(Sink::default()));
    ACTIVE_CAPTURES.fetch_add(1, Ordering::Relaxed);
    let lane = LOCAL.with(|l| l.borrow().lane);
    let out = with_lane(&Session(Some(Arc::clone(&sink))), lane, f);
    ACTIVE_CAPTURES.fetch_sub(1, Ordering::Relaxed);
    let mut s = sink.lock().unwrap_or_else(PoisonError::into_inner);
    let trace = Trace {
        events: std::mem::take(&mut s.events),
        dropped: s.dropped,
    };
    drop(s);
    (out, trace)
}

/// Opens a named span, returning its RAII [`SpanGuard`].
///
/// ```
/// let edges = 12usize;
/// let mut s = wisegraph_obs::span!("kernel.task", edges = edges);
/// // ... do the work ...
/// s.arg("flops", 24u64); // reported on the End event
/// drop(s);
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal $(, $k:ident = $v:expr)* $(,)?) => {
        $crate::span::SpanGuard::begin(
            $name,
            &[$((stringify!($k), $crate::span::IntoArg::into_arg($v))),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_outside_the_session_record_nothing() {
        // A thread that was not handed the session is another execution:
        // its spans must not reach this capture, even while it is running.
        let ((), trace) = capture(|| {
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    assert!(!recording());
                    let _s = crate::span!("unit.foreign", x = 1u64);
                });
            });
            let _s = crate::span!("unit.mine");
        });
        assert_eq!(trace.span_count("unit.foreign"), 0);
        assert_eq!(trace.span_count("unit.mine"), 1);
        // And outside any capture the guard is inert.
        assert!(!recording());
    }

    #[test]
    fn concurrent_captures_do_not_share_events() {
        let barrier = std::sync::Barrier::new(2);
        let traces: Vec<Trace> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        capture(|| {
                            // Both captures are open before either records.
                            barrier.wait();
                            let _s = crate::span!("unit.concurrent");
                            barrier.wait();
                        })
                        .1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for t in &traces {
            assert_eq!(t.span_count("unit.concurrent"), 1);
            t.check_nesting().expect("well nested");
        }
    }

    #[test]
    fn capture_records_nested_spans_in_order() {
        let ((), trace) = capture(|| {
            let mut outer = crate::span!("unit.outer", n = 2u64);
            {
                let _inner = crate::span!("unit.inner");
            }
            outer.arg("done", 1u64);
        });
        assert_eq!(trace.dropped, 0);
        assert_eq!(trace.span_count("unit.outer"), 1);
        assert_eq!(trace.span_count("unit.inner"), 1);
        trace.check_nesting().expect("well nested");
        let names: Vec<(&str, Phase)> = trace
            .sorted_events()
            .iter()
            .filter(|e| e.name.starts_with("unit."))
            .map(|e| (e.name, e.phase))
            .collect();
        assert_eq!(
            names,
            vec![
                ("unit.outer", Phase::Begin),
                ("unit.inner", Phase::Begin),
                ("unit.inner", Phase::End),
                ("unit.outer", Phase::End),
            ]
        );
        let end = trace
            .events
            .iter()
            .find(|e| e.name == "unit.outer" && e.phase == Phase::End)
            .unwrap();
        assert_eq!(end.args, vec![("done", 1u64)]);
    }

    #[test]
    fn lanes_tag_worker_threads() {
        let ((), trace) = capture(|| {
            let session = Session::current();
            std::thread::scope(|scope| {
                for lane in 1..=2u32 {
                    let session = &session;
                    scope.spawn(move || {
                        with_lane(session, lane, || {
                            let _s = crate::span!("unit.worker", lane = lane);
                        })
                    });
                }
            });
        });
        trace.check_nesting().expect("well nested");
        let mut lanes: Vec<u32> = trace
            .events
            .iter()
            .filter(|e| e.name == "unit.worker" && e.phase == Phase::Begin)
            .map(|e| e.lane)
            .collect();
        lanes.sort_unstable();
        assert_eq!(lanes, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "past its cap of 1048576")]
    fn a_truncated_trace_cannot_count_spans() {
        let cut = Trace {
            dropped: 1,
            ..Trace::default()
        };
        cut.span_count("unit.any");
    }

    #[test]
    fn ill_nested_streams_are_rejected() {
        let bad = Trace {
            events: vec![
                SpanEvent {
                    name: "a",
                    phase: Phase::Begin,
                    tid: 1,
                    lane: 0,
                    seq: 1,
                    ts_ns: 0,
                    args: Vec::new(),
                },
                SpanEvent {
                    name: "b",
                    phase: Phase::End,
                    tid: 1,
                    lane: 0,
                    seq: 2,
                    ts_ns: 0,
                    args: Vec::new(),
                },
            ],
            dropped: 0,
        };
        assert!(bad.check_nesting().is_err());
    }
}
