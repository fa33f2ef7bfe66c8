//! The thread-local span recorder.
//!
//! A *span* is one named, timed region of work: a monotonic-clock
//! enter/exit pair with a parent link, so a request's wall time decomposes
//! into a tree of self-times (pipeline stages, checker phases, segment-log
//! I/O, service queueing).  The recorder is built for a hot path that is
//! instrumented *everywhere* but traced *rarely*:
//!
//! * **Disabled is the default and costs one relaxed atomic load** per
//!   call site.  [`span`] returns an inert guard without touching the
//!   clock, the thread-local state or any lock.  `perfbench` runs every
//!   workload with tracing off against the parent build, and `--trace 1`
//!   reports the enabled cost as `bench.tracing_overhead_pct`.
//! * **Recording is thread-local.**  An enabled [`span`] reads the
//!   monotonic clock twice (enter/exit) and pushes one fixed-size
//!   [`SpanRecord`] onto a thread-local buffer — no allocation per span
//!   beyond the buffer's amortised growth, no synchronisation while spans
//!   are open.  Names are `&'static str`, so nothing is copied.
//! * **Publication happens at the trace boundary.**  When a thread's last
//!   open span closes, its buffer drains into the process-wide [`sink`]:
//!   per-trace buckets for spans that belong to a request trace, and a
//!   bounded ring for free spans (trace 0).  Both are capped, so an
//!   unconsumed recorder never grows without bound — old spans are
//!   dropped, newest kept.
//! * **Traces cross threads by value.**  [`current_context`] captures the
//!   active `(trace, parent)` pair; [`enter_trace`] re-establishes it on a
//!   worker thread (the rayon fan-out of `analyse_all` is the canonical
//!   user), so a request's spans land in one bucket no matter which
//!   threads did the work.
//!
//! Consumers: the service retains or drops a request's bucket at respond
//! time ([`retain_trace`] / [`discard_trace`]) and serves retained trees
//! through its `profile` op; `reproduce -- profile` drains everything
//! ([`drain_all`]) into a Chrome trace-event JSON.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use rustc_hash::FxHashMap;

/// One closed span.  `parent == 0` means "root of its trace"; `trace == 0`
/// means the span ran outside any request trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace the span belongs to (0 = none).
    pub trace: u64,
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Enclosing span's id (0 = root).
    pub parent: u64,
    /// Static name, e.g. `"stage:testgen"`.
    pub name: &'static str,
    /// Start, microseconds since the process epoch.
    pub start_us: u64,
    /// Duration in microseconds (end − start, saturating).
    pub dur_us: u64,
}

/// Spans kept in the free ring (trace 0) before old ones are dropped.
const RING_CAP: usize = 65_536;

/// Retained request traces kept for the `profile` op (FIFO eviction).
const RETAINED_TRACES_CAP: usize = 64;

/// Open spans recorded per live trace bucket before the tail is dropped
/// (a runaway trace must not hold the process hostage).
const TRACE_SPANS_CAP: usize = 16_384;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Turns recording on or off process-wide.  Disabled call sites cost one
/// relaxed load; spans that are open when recording flips off still record
/// on close (their guard was armed at entry).
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the recorder is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds from the process epoch to now (monotonic).
pub fn now_us() -> u64 {
    u64::try_from(epoch().elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Microseconds from the process epoch to `at` (0 when `at` predates the
/// epoch — only possible for instants captured before the first obs call).
pub fn instant_us(at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch()).as_micros()).unwrap_or(u64::MAX)
}

/// The per-thread recorder state: the active trace, the open-span stack
/// and the buffer of closed-but-unpublished spans.
struct ThreadState {
    trace: u64,
    /// Parent for new roots on this thread (a cross-thread continuation's
    /// anchor); 0 when the thread owns no trace.
    base_parent: u64,
    stack: Vec<u64>,
    buf: Vec<SpanRecord>,
}

thread_local! {
    static THREAD: RefCell<ThreadState> = const {
        RefCell::new(ThreadState { trace: 0, base_parent: 0, stack: Vec::new(), buf: Vec::new() })
    };
}

/// The process-wide sink the thread-local buffers drain into.
struct Sink {
    /// Closed spans of live (not yet retained or discarded) traces.
    live: FxHashMap<u64, Vec<SpanRecord>>,
    /// Spans recorded outside any trace, newest-kept ring.
    ring: Vec<SpanRecord>,
    /// Completed traces kept for the `profile` op, insertion-ordered for
    /// FIFO eviction.
    retained: Vec<(u64, Vec<SpanRecord>)>,
    /// Spans dropped at a cap (ring, trace bucket or retained evictions).
    dropped: u64,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            live: FxHashMap::default(),
            ring: Vec::new(),
            retained: Vec::new(),
            dropped: 0,
        })
    })
}

fn flush_buf(buf: &mut Vec<SpanRecord>) {
    if buf.is_empty() {
        return;
    }
    let mut sink = sink().lock().expect("span sink");
    for record in buf.drain(..) {
        if record.trace == 0 {
            if sink.ring.len() >= RING_CAP {
                sink.ring.remove(0);
                sink.dropped += 1;
            }
            sink.ring.push(record);
        } else {
            let bucket = sink.live.entry(record.trace).or_default();
            if bucket.len() >= TRACE_SPANS_CAP {
                sink.dropped += 1;
            } else {
                bucket.push(record);
            }
        }
    }
}

/// Closes its span on drop.  Inert (all-zero) when recording was disabled
/// at entry.
pub struct SpanGuard {
    id: u64,
    start_us: u64,
    name: &'static str,
}

impl SpanGuard {
    /// The span's id, for attaching manual child spans (0 when inert).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        close_span(self.id, self.name, self.start_us);
    }
}

/// The recording half of [`SpanGuard::drop`], kept out of line so the
/// guard inlined into hot pipeline/checker functions contributes nothing
/// to their code size beyond the `id == 0` check.
#[cold]
#[inline(never)]
fn close_span(id: u64, name: &'static str, start_us: u64) {
    let end = now_us();
    THREAD.with(|cell| {
        let mut state = cell.borrow_mut();
        // Unwind the stack to this guard (panics may skip inner pops).
        while let Some(top) = state.stack.pop() {
            if top == id {
                break;
            }
        }
        let parent = state.stack.last().copied().unwrap_or(state.base_parent);
        let record = SpanRecord {
            trace: state.trace,
            id,
            parent,
            name,
            start_us,
            dur_us: end.saturating_sub(start_us),
        };
        state.buf.push(record);
        if state.stack.is_empty() {
            flush_buf(&mut state.buf);
        }
    });
}

/// Opens a span named `name` under the thread's current span (or trace
/// root).  Near-zero cost when recording is disabled — the enabled path
/// is out of line for the same reason as [`close_span`].
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            id: 0,
            start_us: 0,
            name,
        };
    }
    open_span(name)
}

#[cold]
#[inline(never)]
fn open_span(name: &'static str) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    THREAD.with(|cell| cell.borrow_mut().stack.push(id));
    SpanGuard {
        id,
        start_us: now_us(),
        name,
    }
}

/// A `(trace, parent)` capture for continuing a trace on another thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// The trace id (0 = none).
    pub trace: u64,
    /// The span the continuation nests under (0 = trace root).
    pub parent: u64,
}

/// Captures the calling thread's active trace and innermost open span.
pub fn current_context() -> TraceContext {
    if !enabled() {
        return TraceContext::default();
    }
    THREAD.with(|cell| {
        let state = cell.borrow();
        TraceContext {
            trace: state.trace,
            parent: state.stack.last().copied().unwrap_or(state.base_parent),
        }
    })
}

/// Restores the previous thread trace state on drop.
pub struct TraceGuard {
    prev_trace: u64,
    prev_base: u64,
    active: bool,
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        THREAD.with(|cell| {
            let mut state = cell.borrow_mut();
            // Anything recorded under the entered trace publishes now —
            // the thread may never flush again (pool threads park).
            if state.stack.is_empty() {
                flush_buf(&mut state.buf);
            }
            state.trace = self.prev_trace;
            state.base_parent = self.prev_base;
        });
    }
}

/// Makes `ctx` the calling thread's active trace until the guard drops:
/// spans opened meanwhile belong to `ctx.trace` and root under
/// `ctx.parent`.  Used by the service worker for the request root and by
/// fan-out workers to continue the request's trace.
pub fn enter_trace(ctx: TraceContext) -> TraceGuard {
    if !enabled() {
        return TraceGuard {
            prev_trace: 0,
            prev_base: 0,
            active: false,
        };
    }
    THREAD.with(|cell| {
        let mut state = cell.borrow_mut();
        let guard = TraceGuard {
            prev_trace: state.trace,
            prev_base: state.base_parent,
            active: true,
        };
        state.trace = ctx.trace;
        state.base_parent = ctx.parent;
        guard
    })
}

/// Process-wide trace-id allocator for requests that do not bring their
/// own.  Starts at 1 (trace 0 is the free-span bucket) and never reuses
/// an id, so two servers in one process cannot cross-contaminate each
/// other's span buckets.
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh process-unique trace id.
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Records an already-elapsed span (e.g. queue-wait measured between two
/// instants on different threads).  Returns the span id, 0 when disabled.
pub fn record_manual(
    name: &'static str,
    trace: u64,
    parent: u64,
    start_us: u64,
    end_us: u64,
) -> u64 {
    if !enabled() {
        return 0;
    }
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let record = SpanRecord {
        trace,
        id,
        parent,
        name,
        start_us,
        dur_us: end_us.saturating_sub(start_us),
    };
    flush_buf(&mut vec![record]);
    id
}

/// Moves a completed trace's spans into the bounded retained set (the
/// slow-request log).  Oldest retained traces are evicted FIFO.
pub fn retain_trace(trace: u64) {
    if trace == 0 {
        return;
    }
    let mut sink = sink().lock().expect("span sink");
    let Some(spans) = sink.live.remove(&trace) else {
        return;
    };
    if let Some(slot) = sink.retained.iter_mut().find(|(t, _)| *t == trace) {
        slot.1.extend(spans);
        return;
    }
    if sink.retained.len() >= RETAINED_TRACES_CAP {
        let (_, evicted) = sink.retained.remove(0);
        sink.dropped += evicted.len() as u64;
    }
    sink.retained.push((trace, spans));
}

/// Drops a completed trace's spans (the fast-request path).
pub fn discard_trace(trace: u64) {
    if trace == 0 {
        return;
    }
    let mut sink = sink().lock().expect("span sink");
    if let Some(spans) = sink.live.remove(&trace) {
        sink.dropped += spans.len() as u64;
    }
}

/// A retained (or still-live) trace's spans, sorted by start time.
/// `None` when the trace was never recorded or already dropped.
pub fn trace_spans(trace: u64) -> Option<Vec<SpanRecord>> {
    let sink = sink().lock().expect("span sink");
    let spans = sink
        .retained
        .iter()
        .find(|(t, _)| *t == trace)
        .map(|(_, s)| s.clone())
        .or_else(|| sink.live.get(&trace).cloned())?;
    let mut spans = spans;
    spans.sort_by_key(|s| (s.start_us, s.id));
    Some(spans)
}

/// Drains every recorded span — free ring, live buckets and retained
/// traces — sorted by start time.  The whole-run consumer
/// (`reproduce -- profile`'s Chrome trace dump).
pub fn drain_all() -> Vec<SpanRecord> {
    let mut sink = sink().lock().expect("span sink");
    let mut all: Vec<SpanRecord> = sink.ring.drain(..).collect();
    for (_, spans) in sink.live.drain() {
        all.extend(spans);
    }
    for (_, spans) in sink.retained.drain(..) {
        all.extend(spans);
    }
    all.sort_by_key(|s| (s.start_us, s.id));
    all
}

/// Spans dropped at capacity so far (ring overwrites, bucket caps,
/// retained-trace evictions and discards).
pub fn dropped_spans() -> u64 {
    sink().lock().expect("span sink").dropped
}

/// One node of a reassembled span tree.
#[derive(Debug)]
pub struct SpanNode {
    /// The span itself.
    pub record: SpanRecord,
    /// Child spans, by start time.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    fn render_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{ \"name\": \"{}\", \"start_us\": {}, \"dur_us\": {}, \"children\": [",
            self.record.name, self.record.start_us, self.record.dur_us
        );
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            child.render_json(out);
        }
        out.push_str("] }");
    }
}

/// Reassembles flat records into root-level trees via the parent links.
/// Orphans (parent dropped at a cap) surface as roots rather than
/// disappearing.
pub fn build_tree(spans: &[SpanRecord]) -> Vec<SpanNode> {
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    let mut nodes: FxHashMap<u64, SpanNode> = spans
        .iter()
        .map(|&record| {
            (
                record.id,
                SpanNode {
                    record,
                    children: Vec::new(),
                },
            )
        })
        .collect();
    // Attach children to parents deepest-first, so a node only moves into
    // its parent after its whole subtree is already attached to it.
    let parent_of: FxHashMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let depth_of = |mut id: u64| -> usize {
        let mut depth = 0usize;
        while let Some(&parent) = parent_of.get(&id) {
            if parent == 0 || parent == id || !ids.contains(&parent) || depth > spans.len() {
                break;
            }
            depth += 1;
            id = parent;
        }
        depth
    };
    let mut order: Vec<u64> = spans.iter().map(|s| s.id).collect();
    order.sort_by_key(|&id| std::cmp::Reverse(depth_of(id)));
    let mut roots = Vec::new();
    for id in order {
        let parent = nodes[&id].record.parent;
        if parent != 0 && ids.contains(&parent) && parent != id {
            let node = nodes.remove(&id).expect("node");
            nodes
                .get_mut(&parent)
                .expect("parent node")
                .children
                .push(node);
        }
    }
    let mut remaining: Vec<SpanNode> = nodes.into_values().collect();
    remaining.sort_by_key(|n| (n.record.start_us, n.record.id));
    for mut node in remaining {
        sort_children(&mut node);
        roots.push(node);
    }
    roots
}

fn sort_children(node: &mut SpanNode) {
    node.children
        .sort_by_key(|n| (n.record.start_us, n.record.id));
    for child in &mut node.children {
        sort_children(child);
    }
}

/// Renders a span forest as hand-written JSON:
/// `[{"name": ..., "start_us": ..., "dur_us": ..., "children": [...]}]`.
pub fn tree_json(roots: &[SpanNode]) -> String {
    let mut out = String::from("[");
    for (i, root) in roots.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        root.render_json(&mut out);
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialises the tests in this module: they all toggle the global
    /// recorder.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().expect("test lock")
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = lock();
        set_enabled(false);
        {
            let guard = span("test:disabled");
            assert_eq!(guard.id(), 0);
        }
        assert!(trace_spans(u64::MAX).is_none());
    }

    #[test]
    fn spans_nest_and_publish_at_the_trace_boundary() {
        let _serial = lock();
        set_enabled(true);
        let trace = 9_000_001;
        {
            let _t = enter_trace(TraceContext { trace, parent: 0 });
            let root = span("test:root");
            assert_ne!(root.id(), 0);
            {
                let _child = span("test:child");
                let _grandchild = span("test:grandchild");
            }
        }
        let spans = trace_spans(trace).expect("trace recorded");
        set_enabled(false);
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.name == "test:root").expect("root");
        let child = spans
            .iter()
            .find(|s| s.name == "test:child")
            .expect("child");
        let grandchild = spans
            .iter()
            .find(|s| s.name == "test:grandchild")
            .expect("grandchild");
        assert_eq!(root.parent, 0);
        assert_eq!(child.parent, root.id);
        assert_eq!(grandchild.parent, child.id);
        assert!(root.dur_us >= child.dur_us);
        let tree = build_tree(&spans);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].record.name, "test:root");
        assert_eq!(tree[0].children.len(), 1);
        assert_eq!(tree[0].children[0].children.len(), 1);
        let json = tree_json(&tree);
        assert!(json.contains("\"name\": \"test:grandchild\""));
        discard_trace(trace);
    }

    #[test]
    fn a_trace_crosses_threads_through_its_context() {
        let _serial = lock();
        set_enabled(true);
        let trace = 9_000_002;
        {
            let _t = enter_trace(TraceContext { trace, parent: 0 });
            let root = span("test:xthread-root");
            let ctx = current_context();
            assert_eq!(ctx.trace, trace);
            assert_eq!(ctx.parent, root.id());
            std::thread::scope(|scope| {
                scope.spawn(move || {
                    let _t = enter_trace(ctx);
                    let _w = span("test:worker");
                });
            });
        }
        let spans = trace_spans(trace).expect("trace recorded");
        set_enabled(false);
        let root = spans
            .iter()
            .find(|s| s.name == "test:xthread-root")
            .expect("root");
        let worker = spans
            .iter()
            .find(|s| s.name == "test:worker")
            .expect("worker span crossed threads");
        assert_eq!(worker.parent, root.id);
        discard_trace(trace);
    }

    #[test]
    fn retain_then_discard_controls_the_slow_request_log() {
        let _serial = lock();
        set_enabled(true);
        let kept = 9_000_003;
        let dropped = 9_000_004;
        for trace in [kept, dropped] {
            let _t = enter_trace(TraceContext { trace, parent: 0 });
            let _s = span("test:request");
        }
        retain_trace(kept);
        discard_trace(dropped);
        set_enabled(false);
        assert!(trace_spans(kept).is_some());
        assert!(trace_spans(dropped).is_none());
        // Retained traces survive a later unrelated discard.
        discard_trace(kept + 17);
        assert!(trace_spans(kept).is_some());
    }

    #[test]
    fn manual_spans_carry_caller_supplied_bounds() {
        let _serial = lock();
        set_enabled(true);
        let trace = 9_000_005;
        let id = record_manual("test:manual", trace, 0, 100, 350);
        assert_ne!(id, 0);
        let spans = trace_spans(trace).expect("manual span recorded");
        set_enabled(false);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].start_us, 100);
        assert_eq!(spans[0].dur_us, 250);
        discard_trace(trace);
    }
}
