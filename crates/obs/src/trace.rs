//! Span-based query tracer with a bounded flight-recorder ring buffer.
//!
//! A *trace* is one query's tree of *spans* (plan, optimize, stage launch,
//! per-partition operator executions, stream deliveries, …). Spans are
//! created scoped on the current thread and parent themselves under the
//! innermost open span; completed spans are written into a fixed-size ring
//! of records that tests and `EXPLAIN ANALYZE` read back by trace id.
//!
//! Overhead discipline: when tracing is off, [`active`] is a single
//! relaxed atomic load and [`span`] returns `None` without allocating.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use parking_lot::Mutex;

/// Default flight-recorder capacity (records) when `SHARK_TRACE_RING` is
/// not set.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// A completed span, as stored in the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// Unique id of this span (process-wide).
    pub span_id: u64,
    /// Parent span id; `0` for trace roots.
    pub parent_id: u64,
    /// Operator / phase name (e.g. `plan`, `memstore_scan(lineitem)`).
    pub name: String,
    /// Start time in microseconds since the tracer was created.
    pub start_us: u64,
    /// Wall-clock duration in microseconds.
    pub duration_us: u64,
    /// Rows produced by the span (0 when not applicable).
    pub rows: u64,
    /// Bytes read or produced by the span (0 when not applicable).
    pub bytes: u64,
    /// Partition index for per-partition spans.
    pub partition: Option<usize>,
    /// Free-form key/value annotations (cache hits, rebuilds, evictions…).
    pub annotations: Vec<(String, String)>,
}

/// Portable handle to a live trace: enough to parent new spans from any
/// thread. Capture with [`current`], adopt with [`TraceContext::attach`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace id spans will be recorded under.
    pub trace_id: u64,
    /// The span that adopted children will parent under.
    pub span_id: u64,
}

struct Frame {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    /// `None` for context-only frames pushed by [`TraceContext::attach`];
    /// those are popped without emitting a record.
    name: Option<String>,
    start: Instant,
    start_us: u64,
    rows: u64,
    bytes: u64,
    partition: Option<usize>,
    annotations: Vec<(String, String)>,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Fixed-capacity ring of completed span records. Slot claims are a single
/// `fetch_add`; each slot is individually locked so writes stay in safe
/// Rust while concurrent recorders never contend on a shared lock.
struct Ring {
    slots: Box<[Mutex<Option<SpanRecord>>]>,
    head: AtomicUsize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(16);
        let slots: Vec<Mutex<Option<SpanRecord>>> =
            (0..capacity).map(|_| Mutex::new(None)).collect();
        Ring {
            slots: slots.into_boxed_slice(),
            head: AtomicUsize::new(0),
        }
    }

    fn push(&self, record: SpanRecord) {
        let idx = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        *self.slots[idx].lock() = Some(record);
    }

    fn snapshot(&self) -> Vec<SpanRecord> {
        self.slots
            .iter()
            .filter_map(|slot| slot.lock().clone())
            .collect()
    }

    fn clear(&self) {
        for slot in self.slots.iter() {
            *slot.lock() = None;
        }
    }
}

/// The process-wide tracer: enable flag, id allocator, span accounting and
/// the flight-recorder ring.
pub struct Tracer {
    enabled: AtomicBool,
    /// Scoped interest count (e.g. a running `EXPLAIN ANALYZE`); tracing
    /// records while either this is non-zero or `enabled` is set.
    interest: AtomicUsize,
    /// Spans started but not yet recorded — zero once all spans closed.
    open_spans: AtomicI64,
    next_id: AtomicU64,
    epoch: Instant,
    ring: Ring,
}

impl Tracer {
    fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            interest: AtomicUsize::new(0),
            open_spans: AtomicI64::new(0),
            next_id: AtomicU64::new(1),
            epoch: Instant::now(),
            ring: Ring::new(capacity),
        }
    }

    /// Globally enable or disable trace recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether any recording interest exists (global flag or scoped).
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) || self.interest.load(Ordering::Relaxed) != 0
    }

    /// Register scoped interest in tracing (used by `EXPLAIN ANALYZE`):
    /// recording stays on until the returned guard drops, independent of
    /// the global flag.
    pub fn subscribe(&'static self) -> InterestGuard {
        self.interest.fetch_add(1, Ordering::Relaxed);
        InterestGuard { tracer: self }
    }

    /// Number of spans currently open (started but not recorded). Zero
    /// when every span of every finished trace closed properly.
    pub fn open_spans(&self) -> i64 {
        self.open_spans.load(Ordering::Relaxed)
    }

    /// All records currently in the ring for the given trace, ordered by
    /// start time.
    pub fn records_for(&self, trace_id: u64) -> Vec<SpanRecord> {
        let mut records: Vec<SpanRecord> = self
            .ring
            .snapshot()
            .into_iter()
            .filter(|r| r.trace_id == trace_id)
            .collect();
        records.sort_by_key(|r| (r.start_us, r.span_id));
        records
    }

    /// All records currently in the ring, ordered by start time.
    pub fn all_records(&self) -> Vec<SpanRecord> {
        let mut records = self.ring.snapshot();
        records.sort_by_key(|r| (r.start_us, r.span_id));
        records
    }

    /// Drop all recorded spans (tests).
    pub fn clear(&self) {
        self.ring.clear();
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn next_span_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn record(&self, record: SpanRecord) {
        self.ring.push(record);
        self.open_spans.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Keeps tracing recording while alive; see [`Tracer::subscribe`].
pub struct InterestGuard {
    tracer: &'static Tracer,
}

impl Drop for InterestGuard {
    fn drop(&mut self) {
        self.tracer.interest.fetch_sub(1, Ordering::Relaxed);
    }
}

static TRACER: OnceLock<Tracer> = OnceLock::new();

/// The process-wide tracer. Ring capacity comes from `SHARK_TRACE_RING`
/// on first use (default [`DEFAULT_RING_CAPACITY`]).
pub fn tracer() -> &'static Tracer {
    TRACER.get_or_init(|| {
        let capacity = std::env::var("SHARK_TRACE_RING")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(DEFAULT_RING_CAPACITY);
        Tracer::with_capacity(capacity)
    })
}

/// Whether trace recording is currently on. The fast path every
/// instrumentation site checks first: two relaxed atomic loads, no
/// allocation.
#[inline]
pub fn active() -> bool {
    tracer().is_enabled()
}

/// Start a new trace: a root span recorded on the global tracer, returned
/// as a detached handle that may be held across threads and finished
/// explicitly (or on drop).
pub fn start_trace(name: &str) -> DetachedSpan {
    let t = tracer();
    let trace_id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let span_id = t.next_id.fetch_add(1, Ordering::Relaxed);
    t.open_spans.fetch_add(1, Ordering::Relaxed);
    DetachedSpan {
        trace_id,
        span_id,
        parent_id: 0,
        name: name.to_string(),
        start: Instant::now(),
        start_us: t.now_us(),
        rows: 0,
        bytes: 0,
        annotations: Vec::new(),
        finished: false,
    }
}

/// The innermost open trace context on this thread, if any.
pub fn current() -> Option<TraceContext> {
    STACK.with(|stack| {
        stack.borrow().last().map(|f| TraceContext {
            trace_id: f.trace_id,
            span_id: f.span_id,
        })
    })
}

/// Open a scoped span under the current thread's innermost context.
/// Returns `None` (and does nothing) when tracing is off or no trace
/// context is installed on this thread.
pub fn span(name: &str) -> Option<SpanHandle> {
    if !active() {
        return None;
    }
    let t = tracer();
    STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = stack.last()?;
        let frame = Frame {
            trace_id: parent.trace_id,
            span_id: t.next_span_id(),
            parent_id: parent.span_id,
            name: Some(name.to_string()),
            start: Instant::now(),
            start_us: t.now_us(),
            rows: 0,
            bytes: 0,
            partition: None,
            annotations: Vec::new(),
        };
        let span_id = frame.span_id;
        t.open_spans.fetch_add(1, Ordering::Relaxed);
        stack.push(frame);
        Some(SpanHandle { span_id })
    })
}

/// Record an instant (zero-duration) event span under the current context.
/// No-op when tracing is off or no context is installed.
pub fn event(name: &str, annotations: &[(&str, &str)]) {
    if !active() {
        return;
    }
    let Some(ctx) = current() else { return };
    let t = tracer();
    let now = t.now_us();
    t.open_spans.fetch_add(1, Ordering::Relaxed);
    t.record(SpanRecord {
        trace_id: ctx.trace_id,
        span_id: t.next_span_id(),
        parent_id: ctx.span_id,
        name: name.to_string(),
        start_us: now,
        duration_us: 0,
        rows: 0,
        bytes: 0,
        partition: None,
        annotations: annotations
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
    });
}

/// Attach a key/value annotation to the innermost open span on this
/// thread (e.g. `cache=hit` from inside a scan). No-op without a span.
pub fn annotate(key: &str, value: &str) {
    if !active() {
        return;
    }
    STACK.with(|stack| {
        if let Some(frame) = stack.borrow_mut().last_mut() {
            if frame.name.is_some() {
                frame.annotations.push((key.to_string(), value.to_string()));
            }
        }
    });
}

/// Add produced rows to the innermost open span on this thread.
pub fn add_rows(rows: u64) {
    if !active() {
        return;
    }
    STACK.with(|stack| {
        if let Some(frame) = stack.borrow_mut().last_mut() {
            frame.rows += rows;
        }
    });
}

/// Add read/produced bytes to the innermost open span on this thread.
pub fn add_bytes(bytes: u64) {
    if !active() {
        return;
    }
    STACK.with(|stack| {
        if let Some(frame) = stack.borrow_mut().last_mut() {
            frame.bytes += bytes;
        }
    });
}

/// Guard for a scoped span; records the span when dropped.
pub struct SpanHandle {
    span_id: u64,
}

impl SpanHandle {
    /// Set the rows produced by this span.
    pub fn set_rows(&self, rows: u64) {
        self.with_frame(|f| f.rows = rows);
    }

    /// Set the bytes read/produced by this span.
    pub fn set_bytes(&self, bytes: u64) {
        self.with_frame(|f| f.bytes = bytes);
    }

    /// Tag this span with a partition index.
    pub fn set_partition(&self, partition: usize) {
        self.with_frame(|f| f.partition = Some(partition));
    }

    /// Attach a key/value annotation to this span.
    pub fn annotate(&self, key: &str, value: &str) {
        self.with_frame(|f| f.annotations.push((key.to_string(), value.to_string())));
    }

    fn with_frame(&self, apply: impl FnOnce(&mut Frame)) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(frame) = stack.iter_mut().rev().find(|f| f.span_id == self.span_id) {
                apply(frame);
            }
        });
    }
}

impl Drop for SpanHandle {
    fn drop(&mut self) {
        let t = tracer();
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Spans are scoped, so ours is the top frame; pop defensively
            // down to it in case an inner guard leaked.
            while let Some(frame) = stack.pop() {
                let is_ours = frame.span_id == self.span_id;
                if let Some(name) = frame.name {
                    t.record(SpanRecord {
                        trace_id: frame.trace_id,
                        span_id: frame.span_id,
                        parent_id: frame.parent_id,
                        name,
                        start_us: frame.start_us,
                        duration_us: frame.start.elapsed().as_micros() as u64,
                        rows: frame.rows,
                        bytes: frame.bytes,
                        partition: frame.partition,
                        annotations: frame.annotations,
                    });
                }
                if is_ours {
                    break;
                }
            }
        });
    }
}

impl TraceContext {
    /// Install this context on the current thread so [`span`] calls parent
    /// under it. Used by worker threads adopting the query's trace.
    pub fn attach(&self) -> AttachGuard {
        STACK.with(|stack| {
            stack.borrow_mut().push(Frame {
                trace_id: self.trace_id,
                span_id: self.span_id,
                parent_id: 0,
                name: None,
                start: Instant::now(),
                start_us: 0,
                rows: 0,
                bytes: 0,
                partition: None,
                annotations: Vec::new(),
            });
        });
        AttachGuard {
            span_id: self.span_id,
        }
    }
}

/// Guard for an attached [`TraceContext`]; detaches when dropped.
pub struct AttachGuard {
    span_id: u64,
}

impl Drop for AttachGuard {
    fn drop(&mut self) {
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop the context-only frame (and defensively anything a leaked
            // inner guard left above it — those frames record nothing here
            // because well-nested SpanHandles have already popped theirs).
            while let Some(frame) = stack.pop() {
                if frame.name.is_none() && frame.span_id == self.span_id {
                    break;
                }
            }
        });
    }
}

/// A span that is not tied to a thread-local scope: held in structs (query
/// cursors, root query spans) and finished explicitly or on drop.
pub struct DetachedSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    name: String,
    start: Instant,
    start_us: u64,
    rows: u64,
    bytes: u64,
    annotations: Vec<(String, String)>,
    finished: bool,
}

impl DetachedSpan {
    /// The context under which children of this span should record.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
        }
    }

    /// The trace id this span roots or belongs to.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Open a detached child span of this one.
    pub fn child(&self, name: &str) -> DetachedSpan {
        let t = tracer();
        t.open_spans.fetch_add(1, Ordering::Relaxed);
        DetachedSpan {
            trace_id: self.trace_id,
            span_id: t.next_span_id(),
            parent_id: self.span_id,
            name: name.to_string(),
            start: Instant::now(),
            start_us: t.now_us(),
            rows: 0,
            bytes: 0,
            annotations: Vec::new(),
            finished: false,
        }
    }

    /// Attach a key/value annotation.
    pub fn annotate(&mut self, key: &str, value: &str) {
        self.annotations.push((key.to_string(), value.to_string()));
    }

    /// Add produced rows.
    pub fn add_rows(&mut self, rows: u64) {
        self.rows += rows;
    }

    /// Add read/produced bytes.
    pub fn add_bytes(&mut self, bytes: u64) {
        self.bytes += bytes;
    }

    /// Close the span and write its record to the flight recorder.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        tracer().record(SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_id: self.parent_id,
            name: std::mem::take(&mut self.name),
            start_us: self.start_us,
            duration_us: self.start.elapsed().as_micros() as u64,
            rows: self.rows,
            bytes: self.bytes,
            partition: None,
            annotations: std::mem::take(&mut self.annotations),
        });
    }
}

impl Drop for DetachedSpan {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that flip the global enabled flag.
    static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn spans_nest_and_record() {
        let _l = TEST_LOCK.lock();
        let t = tracer();
        t.set_enabled(true);
        let root = start_trace("query");
        let trace_id = root.trace_id();
        {
            let _attach = root.context().attach();
            let s = span("plan").expect("tracing on");
            s.set_rows(3);
            s.annotate("mode", "shark");
            drop(s);
            {
                let outer = span("execute").unwrap();
                outer.set_partition(2);
                let inner = span("scan").unwrap();
                inner.set_bytes(128);
                drop(inner);
                drop(outer);
            }
        }
        root.finish();
        let records = t.records_for(trace_id);
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].name, "query");
        assert_eq!(records[0].parent_id, 0);
        let plan = records.iter().find(|r| r.name == "plan").unwrap();
        assert_eq!(plan.parent_id, records[0].span_id);
        assert_eq!(plan.rows, 3);
        assert_eq!(plan.annotations, vec![("mode".into(), "shark".into())]);
        let execute = records.iter().find(|r| r.name == "execute").unwrap();
        assert_eq!(execute.partition, Some(2));
        let scan = records.iter().find(|r| r.name == "scan").unwrap();
        assert_eq!(scan.parent_id, execute.span_id);
        assert_eq!(scan.bytes, 128);
        // Every parent id points inside the trace.
        for r in &records {
            assert!(r.parent_id == 0 || records.iter().any(|p| p.span_id == r.parent_id));
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _l = TEST_LOCK.lock();
        let t = tracer();
        t.set_enabled(false);
        assert!(!t.is_enabled());
        assert!(span("nope").is_none());
        event("nope", &[]);
        annotate("k", "v");
        assert!(current().is_none());
        t.set_enabled(true);
    }

    #[test]
    fn context_attach_crosses_threads() {
        let _l = TEST_LOCK.lock();
        let t = tracer();
        t.set_enabled(true);
        let root = start_trace("xthread");
        let trace_id = root.trace_id();
        let ctx = root.context();
        let handle = std::thread::spawn(move || {
            let _g = ctx.attach();
            let s = span("worker").unwrap();
            s.set_rows(7);
        });
        handle.join().unwrap();
        root.finish();
        let records = t.records_for(trace_id);
        let worker = records.iter().find(|r| r.name == "worker").unwrap();
        assert_eq!(worker.rows, 7);
        assert_eq!(worker.parent_id, ctx.span_id);
    }

    #[test]
    fn events_and_open_span_accounting() {
        let _l = TEST_LOCK.lock();
        let t = tracer();
        t.set_enabled(true);
        let before_open = t.open_spans();
        let root = start_trace("evt");
        let trace_id = root.trace_id();
        {
            let _attach = root.context().attach();
            event("cache-evict", &[("table", "lineitem"), ("bytes", "42")]);
        }
        root.finish();
        assert_eq!(t.open_spans(), before_open);
        let records = t.records_for(trace_id);
        let evt = records.iter().find(|r| r.name == "cache-evict").unwrap();
        assert_eq!(evt.duration_us, 0);
        assert_eq!(evt.annotations[0], ("table".into(), "lineitem".into()));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let ring = Ring::new(16);
        for i in 0..40u64 {
            ring.push(SpanRecord {
                trace_id: 1,
                span_id: i,
                parent_id: 0,
                name: "t".into(),
                start_us: i,
                duration_us: 0,
                rows: 0,
                bytes: 0,
                partition: None,
                annotations: Vec::new(),
            });
        }
        let records = ring.snapshot();
        assert_eq!(records.len(), 16);
        // The survivors are the most recent 16.
        assert!(records.iter().all(|r| r.span_id >= 24));
    }

    #[test]
    fn scoped_interest_enables_recording() {
        let _l = TEST_LOCK.lock();
        let t = tracer();
        t.set_enabled(false);
        let guard = t.subscribe();
        assert!(t.is_enabled());
        drop(guard);
        assert!(!t.is_enabled());
        t.set_enabled(true);
    }
}
