//! The global tracer: installation, per-thread lanes, RAII guards.
//!
//! Recording is organized around *lanes*: each thread that opens a span
//! gets a private buffer (no locks, no sharing) plus a registered sink
//! it flushes into in amortized batches — at a size threshold, and
//! unconditionally when the thread exits. [`Tracer::drain`] collects
//! every sink. The disabled path is a single relaxed atomic load.

use crate::clock::Clock;
use crate::span::{Counter, SpanRecord, MAX_COUNTERS};
use crate::trace::{LaneTrace, Trace};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Completed spans buffered per thread before a flush to the sink.
const FLUSH_THRESHOLD: usize = 1024;

/// Per-lane cap on retained spans; beyond it new spans are counted in
/// [`Trace::dropped`] instead of retained, so a forgotten tracer on a
/// long run degrades to a counter instead of unbounded memory.
const MAX_SPANS_PER_LANE: usize = 4_000_000;

/// Fast global gate: `span()` returns an inert guard without touching
/// anything else when this is false.
static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped on every install/uninstall so thread-local lanes can detect
/// that their cached tracer is stale.
static GENERATION: AtomicU64 = AtomicU64::new(0);
/// The installed tracer's shared state.
static GLOBAL: Mutex<Option<Arc<Shared>>> = Mutex::new(None);

/// State shared between the installing thread, all recording lanes and
/// the drain side.
pub(crate) struct Shared {
    clock: Clock,
    /// The generation this tracer was installed under; stale lanes and
    /// guards compare against [`GENERATION`].
    generation: u64,
    /// One sink per lane, in lane-index order.
    sinks: Mutex<Vec<Arc<Mutex<Vec<SpanRecord>>>>>,
    dropped: AtomicU64,
}

/// A span currently open on this thread.
struct OpenSpan {
    name: &'static str,
    id: u32,
    parent: u32,
    start_ns: u64,
    counters: [(Counter, u64); MAX_COUNTERS],
    n_counters: u8,
}

/// This thread's recording state, bound to one tracer generation.
struct LocalLane {
    generation: u64,
    shared: Arc<Shared>,
    sink: Arc<Mutex<Vec<SpanRecord>>>,
    buf: Vec<SpanRecord>,
    stack: Vec<OpenSpan>,
    next_id: u32,
}

impl LocalLane {
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut sink = self.sink.lock().unwrap_or_else(|p| p.into_inner());
        let room = MAX_SPANS_PER_LANE.saturating_sub(sink.len());
        if room < self.buf.len() {
            let over = (self.buf.len() - room) as u64;
            self.shared.dropped.fetch_add(over, Ordering::Relaxed);
            self.buf.truncate(room);
        }
        sink.append(&mut self.buf);
    }
}

impl Drop for LocalLane {
    fn drop(&mut self) {
        // A worker thread exiting mid-span would leave the stack
        // populated; those spans were never closed and are discarded,
        // but everything completed is preserved.
        self.flush();
    }
}

thread_local! {
    static LANE: RefCell<Option<LocalLane>> = const { RefCell::new(None) };
}

/// Whether a tracer is currently installed and recording.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a span on the installed tracer. With no tracer installed this
/// is one relaxed atomic load and the guard is inert.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard::inert();
    }
    open_span(name)
}

/// The slow path of [`span`]: binds this thread's lane to the current
/// tracer if needed and pushes an open span.
fn open_span(name: &'static str) -> SpanGuard {
    LANE.with(|slot| {
        let mut slot = slot.borrow_mut();
        let generation = GENERATION.load(Ordering::Acquire);
        let rebind = match slot.as_ref() {
            Some(lane) => lane.generation != generation,
            None => true,
        };
        if rebind {
            // Preserve whatever the stale lane had completed (its sink
            // may still be drained by the old tracer's handle), then
            // bind to the freshly installed tracer.
            if let Some(mut old) = slot.take() {
                old.stack.clear();
                old.flush();
            }
            let shared = match GLOBAL.lock().unwrap_or_else(|p| p.into_inner()).clone() {
                // Install raced with uninstall: nothing to record into.
                None => return SpanGuard::inert(),
                Some(shared) => shared,
            };
            if shared.generation != generation {
                return SpanGuard::inert();
            }
            let sink = Arc::new(Mutex::new(Vec::new()));
            shared.sinks.lock().unwrap_or_else(|p| p.into_inner()).push(Arc::clone(&sink));
            *slot = Some(LocalLane {
                generation,
                shared,
                sink,
                buf: Vec::new(),
                stack: Vec::new(),
                next_id: 1,
            });
        }
        let lane = slot.as_mut().expect("lane bound above");
        let id = lane.next_id;
        lane.next_id += 1;
        let parent = lane.stack.last().map_or(0, |s| s.id);
        let start_ns = lane.shared.clock.now_ns();
        lane.stack.push(OpenSpan {
            name,
            id,
            parent,
            start_ns,
            counters: [(Counter::Ticks, 0); MAX_COUNTERS],
            n_counters: 0,
        });
        SpanGuard { depth: lane.stack.len() as u32, generation, _not_send: PhantomData }
    })
}

/// An RAII guard closing its span on drop.
///
/// Guards follow stack discipline per thread (drop order is the reverse
/// of open order); a guard dropped out of order closes every span
/// opened after it with the same end timestamp. Guards are `!Send` —
/// a span opens and closes on one thread.
#[must_use = "a span lasts until its guard is dropped"]
pub struct SpanGuard {
    /// 1-based stack depth of the span this guard closes; 0 = inert.
    depth: u32,
    generation: u64,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    #[inline]
    fn inert() -> Self {
        SpanGuard { depth: 0, generation: 0, _not_send: PhantomData }
    }

    /// Whether this guard records anything. Use to skip counter
    /// computations that are not free:
    /// `if g.is_recording() { g.add(Counter::Flops, 2 * m * n * k) }`.
    #[inline]
    pub fn is_recording(&self) -> bool {
        self.depth != 0
    }

    /// Adds `value` to `counter` on this span (saturating). A no-op on
    /// an inert guard; silently dropped beyond [`MAX_COUNTERS`]
    /// distinct counters.
    #[inline]
    pub fn add(&self, counter: Counter, value: u64) {
        if self.depth == 0 {
            return;
        }
        LANE.with(|slot| {
            let mut slot = slot.borrow_mut();
            let Some(lane) = slot.as_mut() else { return };
            if lane.generation != self.generation {
                return;
            }
            let Some(open) = lane.stack.get_mut(self.depth as usize - 1) else { return };
            let n = open.n_counters as usize;
            if let Some(c) = open.counters[..n].iter_mut().find(|(c, _)| *c == counter) {
                c.1 = c.1.saturating_add(value);
            } else if n < MAX_COUNTERS {
                open.counters[n] = (counter, value);
                open.n_counters += 1;
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.depth == 0 {
            return;
        }
        LANE.with(|slot| {
            let mut slot = slot.borrow_mut();
            let Some(lane) = slot.as_mut() else { return };
            if lane.generation != self.generation {
                return;
            }
            let end_ns = lane.shared.clock.now_ns();
            // Close this span and (defensively) any child left open.
            while lane.stack.len() >= self.depth as usize {
                let open = lane.stack.pop().expect("stack at least `depth` deep");
                lane.buf.push(SpanRecord {
                    name: open.name,
                    id: open.id,
                    parent: open.parent,
                    start_ns: open.start_ns,
                    end_ns,
                    counters: open.counters,
                    n_counters: open.n_counters,
                });
            }
            // Flush whenever the stack empties: a worker closure's
            // completed spans must be visible the moment the closure
            // returns, because `thread::scope` joins before TLS
            // destructors run. The threshold flush bounds TLS memory
            // while a long-lived root span (a whole training run) is
            // still open.
            if lane.stack.is_empty() || lane.buf.len() >= FLUSH_THRESHOLD {
                lane.flush();
            }
        });
    }
}

/// A handle on one tracer. [`Tracer::install`] makes it the process
/// global that [`span`] records into; the handle then drains collected
/// spans. Dropping the handle does *not* stop tracing — call
/// [`Tracer::uninstall`].
pub struct Tracer {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").field("enabled", &self.shared.is_some()).finish()
    }
}

impl Tracer {
    /// Installs a fresh tracer reading time from `clock` and returns
    /// its handle. Replaces (and implicitly uninstalls) any previously
    /// installed tracer; spans its lanes had already completed remain
    /// drainable through the old handle.
    pub fn install(clock: Clock) -> Tracer {
        let mut global = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
        let generation = GENERATION.load(Ordering::Acquire) + 1;
        let shared = Arc::new(Shared {
            clock,
            generation,
            sinks: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        });
        *global = Some(Arc::clone(&shared));
        GENERATION.store(generation, Ordering::Release);
        ENABLED.store(true, Ordering::Release);
        Tracer { shared: Some(shared) }
    }

    /// A handle that never records: its [`Tracer::span`] returns an
    /// inert guard and its [`Tracer::drain`] returns an empty trace.
    /// Exists so code can hold "a tracer" unconditionally; the
    /// disabled-tracing conformance test pins that this allocates
    /// nothing per span.
    pub fn disabled() -> Tracer {
        Tracer { shared: None }
    }

    /// A handle on the currently installed tracer, or a disabled handle
    /// when none is installed. Lets code that did not do the
    /// installation (e.g. an example behind [`init_from_env`]) drain.
    ///
    /// [`init_from_env`]: crate::init_from_env
    pub fn global() -> Tracer {
        Tracer { shared: GLOBAL.lock().unwrap_or_else(|p| p.into_inner()).clone() }
    }

    /// Stops recording globally. Already-collected spans stay drainable
    /// through existing handles.
    pub fn uninstall() {
        let mut global = GLOBAL.lock().unwrap_or_else(|p| p.into_inner());
        ENABLED.store(false, Ordering::Release);
        GENERATION.fetch_add(1, Ordering::AcqRel);
        *global = None;
    }

    /// Consumes the handle, leaving the tracer installed for the rest
    /// of the process. Used by [`init_from_env`](crate::init_from_env),
    /// where nobody holds a handle and draining happens through
    /// [`Tracer::global`]. (Dropping a handle never stops tracing; this
    /// method just states the intent.)
    pub fn leak(self) {}

    /// Whether this handle points at a live tracer.
    pub fn is_recording(&self) -> bool {
        match &self.shared {
            Some(shared) => GENERATION.load(Ordering::Acquire) == shared.generation,
            None => false,
        }
    }

    /// Opens a span on this tracer — inert for a [`disabled`] handle,
    /// equivalent to the free [`span`] function while this tracer is
    /// the installed one, inert after it has been replaced.
    ///
    /// [`disabled`]: Tracer::disabled
    pub fn span(&self, name: &'static str) -> SpanGuard {
        if self.is_recording() {
            span(name)
        } else {
            SpanGuard::inert()
        }
    }

    /// Takes every completed span collected so far, leaving the sinks
    /// empty (the tracer keeps recording). Spans still open, and spans
    /// buffered on *other* live threads that have not flushed yet, are
    /// not included — drain after joining worker threads (the runtime's
    /// scoped pools satisfy this by construction).
    pub fn drain(&self) -> Trace {
        self.collect(true)
    }

    /// Like [`Tracer::drain`] but leaves the collected spans in place,
    /// so periodic reporting does not steal the final trace.
    pub fn snapshot(&self) -> Trace {
        self.collect(false)
    }

    fn collect(&self, take: bool) -> Trace {
        let Some(shared) = &self.shared else {
            return Trace { lanes: Vec::new(), dropped: 0 };
        };
        // Make the calling thread's completed-but-buffered spans
        // visible (worker lanes flush when their threads exit).
        LANE.with(|slot| {
            if let Some(lane) = slot.borrow_mut().as_mut() {
                if Arc::ptr_eq(&lane.shared, shared) {
                    lane.flush();
                }
            }
        });
        let sinks = shared.sinks.lock().unwrap_or_else(|p| p.into_inner());
        let mut lanes = Vec::new();
        for (index, sink) in sinks.iter().enumerate() {
            let mut guard = sink.lock().unwrap_or_else(|p| p.into_inner());
            let spans = if take { std::mem::take(&mut *guard) } else { guard.clone() };
            drop(guard);
            if spans.is_empty() {
                continue;
            }
            let mut lane = LaneTrace { lane: index as u32, spans };
            lane.spans.sort_by_key(|s| s.id);
            lanes.push(lane);
        }
        Trace { lanes, dropped: shared.dropped.load(Ordering::Relaxed) }
    }
}

/// Aggregates the installed tracer's spans collected so far into a
/// [`ProfileReport`](crate::ProfileReport) without consuming them, or
/// `None` when tracing is off. Each call clones and sorts every span
/// recorded so far.
pub fn profile_snapshot() -> Option<crate::ProfileReport> {
    profile_since(TraceMark::default())
}

/// A point on the installed tracer's timeline, taken by [`mark`]. The
/// default mark precedes every span of every tracer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceMark {
    /// The generation of the tracer the reading was taken on; 0 when
    /// none was installed (installed tracers start at 1).
    generation: u64,
    /// That tracer's clock reading.
    ns: u64,
}

/// Marks the present moment on the installed tracer's clock (one clock
/// reading), for [`profile_since`]. With no tracer installed, the mark
/// precedes every span a tracer installed later records.
pub fn mark() -> TraceMark {
    match GLOBAL.lock().unwrap_or_else(|p| p.into_inner()).as_ref() {
        Some(shared) => TraceMark { generation: shared.generation, ns: shared.clock.now_ns() },
        None => TraceMark::default(),
    }
}

/// Like [`profile_snapshot`], over only the spans that started at or
/// after `mark`: every span, when the installed tracer was installed
/// after the mark was taken. The serving tier calls it once per
/// `pcnn_cluster::Cluster::report`, with a mark taken when the cluster
/// was built, to surface the live per-stage timings of that cluster's
/// lifetime in its report.
pub fn profile_since(mark: TraceMark) -> Option<crate::ProfileReport> {
    let tracer = Tracer::global();
    let shared = tracer.shared.as_ref().filter(|_| tracer.is_recording())?;
    let mut trace = tracer.snapshot();
    if shared.generation == mark.generation {
        for lane in &mut trace.lanes {
            lane.spans.retain(|s| s.start_ns >= mark.ns);
        }
    }
    Some(trace.profile())
}

#[cfg(test)]
pub(crate) mod test_lock {
    use std::sync::{Mutex, MutexGuard};

    /// Serializes tests that install the global tracer.
    static LOCK: Mutex<()> = Mutex::new(());

    pub fn hold() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_carry_counters() {
        let _guard = test_lock::hold();
        let tracer = Tracer::install(Clock::mock());
        {
            let a = span("a");
            {
                let b = span("b");
                b.add(Counter::Frames, 3);
                b.add(Counter::Frames, 2);
                b.add(Counter::Bytes, 7);
            }
            a.add(Counter::Ticks, 1);
        }
        let trace = tracer.drain();
        Tracer::uninstall();
        assert_eq!(trace.span_count(), 2);
        let lane = &trace.lanes[0];
        // Ids in open order: a=1, b=2; b closed first but sorts after a.
        assert_eq!(lane.spans[0].name, "a");
        assert_eq!(lane.spans[0].parent, 0);
        assert_eq!(lane.spans[1].name, "b");
        assert_eq!(lane.spans[1].parent, 1);
        assert_eq!(lane.spans[1].counter(Counter::Frames), Some(5));
        assert_eq!(lane.spans[1].counter(Counter::Bytes), Some(7));
        assert_eq!(lane.spans[0].counter(Counter::Ticks), Some(1));
    }

    #[test]
    fn disabled_guard_is_inert() {
        let _guard = test_lock::hold();
        Tracer::uninstall();
        let g = span("nothing");
        assert!(!g.is_recording());
        g.add(Counter::Frames, 1);
        drop(g);
        let t = Tracer::disabled();
        let g = t.span("also.nothing");
        assert!(!g.is_recording());
        drop(g);
        assert_eq!(t.drain().span_count(), 0);
    }

    #[test]
    fn worker_thread_lanes_flush_on_exit() {
        let _guard = test_lock::hold();
        let tracer = Tracer::install(Clock::mock());
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let g = span("worker");
                    g.add(Counter::Windows, 10);
                });
            }
        });
        let trace = tracer.drain();
        Tracer::uninstall();
        assert_eq!(trace.span_count(), 3);
        assert_eq!(trace.counter_total("worker", Counter::Windows), 30);
    }

    #[test]
    fn profile_since_counts_spans_started_after_the_mark() {
        let _guard = test_lock::hold();
        Tracer::uninstall();
        let before_install = mark();
        let _tracer = Tracer::install(Clock::mock());
        drop(span("early"));
        let middle = mark();
        drop(span("late"));
        let count = |p: &crate::ProfileReport, name| p.stage(name).map(|s| s.count);
        let since = profile_since(middle).expect("a tracer is installed");
        assert_eq!((count(&since, "early"), count(&since, "late")), (None, Some(1)));
        let all = profile_since(before_install).expect("a tracer is installed");
        assert_eq!((count(&all, "early"), count(&all, "late")), (Some(1), Some(1)));
        // A mark from an earlier tracer precedes every span of a new one.
        let _fresh = Tracer::install(Clock::mock());
        drop(span("fresh"));
        let fresh = profile_since(middle).expect("a tracer is installed");
        assert_eq!(count(&fresh, "fresh"), Some(1));
        Tracer::uninstall();
        assert!(profile_since(middle).is_none());
    }

    #[test]
    fn reinstall_starts_clean() {
        let _guard = test_lock::hold();
        let first = Tracer::install(Clock::mock());
        drop(span("old"));
        let stale = first.drain();
        assert_eq!(stale.span_count(), 1);
        let second = Tracer::install(Clock::mock());
        drop(span("new"));
        let trace = second.drain();
        Tracer::uninstall();
        assert_eq!(trace.span_count(), 1);
        assert_eq!(trace.lanes[0].spans[0].name, "new");
        // Timestamps restart with the fresh mock clock.
        assert_eq!(trace.lanes[0].spans[0].start_ns, 0);
    }

    #[test]
    fn out_of_order_drop_closes_children() {
        let _guard = test_lock::hold();
        let tracer = Tracer::install(Clock::mock());
        let outer = span("outer");
        let inner = span("inner");
        drop(outer); // closes inner too
        drop(inner); // harmless: already closed
        let trace = tracer.drain();
        Tracer::uninstall();
        assert_eq!(trace.span_count(), 2);
        let ends: Vec<u64> = trace.lanes[0].spans.iter().map(|s| s.end_ns).collect();
        assert_eq!(ends[0], ends[1], "children share the closing timestamp");
    }
}
