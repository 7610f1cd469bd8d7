//! droplens-trace: hierarchical tracing with per-worker timelines.
//!
//! Where the run report aggregates wall-clock per *path*, the tracer
//! records every individual [`Span`] as an event carrying a parent id,
//! the worker thread that ran it, and typed attributes (source, item
//! counts, queue-wait). The result is a timeline, not a summary: load it
//! into Perfetto / `chrome://tracing` ([`Trace::to_chrome_json`]) to see
//! where wall-clock goes across workers, or render the deterministic
//! text tree ([`Trace::to_text_tree`]) for test assertions.
//!
//! # Recording model
//!
//! Tracing is **off by default**; a trace-only span ([`Tracer::span`])
//! then costs one atomic load. When enabled, every span's close event
//! becomes a [`TraceEvent`] pushed into its thread's **shard**: a
//! `Vec` behind a mutex that only the owning thread locks between
//! drains, registered with the tracer when the thread first opens a
//! traced span or records an instant. [`Tracer::drain`] takes every
//! shard's events, so it does not depend on thread-local destructors
//! (scoped threads signal their join before those run).
//!
//! # Hierarchy across threads
//!
//! A span's parent is the innermost traced span on its thread's frame
//! stack ([`crate::span`]). Fork-join helpers hand the spawning thread's
//! [`Frame`] to their workers ([`Frame::adopt`]), so a parser span
//! opened on a worker links under the `load` stage that scheduled it,
//! not under a disconnected root.
//!
//! ```
//! use droplens_obs::trace::Tracer;
//! let tracer = Tracer::new();
//! tracer.enable();
//! {
//!     let _outer = tracer.span("study", "stage");
//!     let mut inner = tracer.span("load", "stage");
//!     inner.arg_u64("items", 3);
//! }
//! let trace = tracer.drain();
//! assert_eq!(trace.events.len(), 2);
//! assert!(trace.to_text_tree().contains("load"));
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::alloc::MemDelta;
use crate::json::JsonObject;
use crate::span::{Frame, Span};

/// A typed attribute value on a trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer (counts, nanoseconds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Free-form string (source labels, locations).
    Str(String),
}

impl ArgValue {
    fn render(&self) -> String {
        match self {
            ArgValue::U64(v) => v.to_string(),
            ArgValue::I64(v) => v.to_string(),
            ArgValue::F64(v) => v.to_string(),
            ArgValue::Str(s) => s.clone(),
        }
    }
}

/// What kind of event was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A duration span (begin..end).
    Span,
    /// A point-in-time marker (quarantine hit, repair applied).
    Instant,
    /// A sampled counter value (per-worker `live_bytes` timelines) —
    /// exported as a Chrome `ph:"C"` counter track, excluded from the
    /// text tree and coverage.
    Counter,
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Unique id within the tracer (1-based, allocation order).
    pub id: u64,
    /// Id of the enclosing span (0 = root).
    pub parent: u64,
    /// Event name (`load`, `parse.bgp`, `par.task`, ...).
    pub name: String,
    /// Coarse category (`stage`, `parse`, `par`, `ingest`, ...).
    pub cat: &'static str,
    /// Worker-thread timeline the event ran on (registration order;
    /// the first thread to record is 0).
    pub tid: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Span or instant.
    pub kind: EventKind,
    /// Typed attributes, in insertion order.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl TraceEvent {
    fn end_ns(&self) -> u64 {
        self.ts_ns.saturating_add(self.dur_ns)
    }
}

/// One thread's slice of the trace, registered with the tracer so
/// [`Tracer::drain`] can collect it without relying on TLS destructors
/// (scoped threads signal their join *before* TLS drops run, so a
/// destructor-flush design loses a race against the draining thread).
/// Only the owning thread ever locks its shard between drains, so the
/// mutex is uncontended — an atomic CAS, no blocking on the hot path.
type Shard = Arc<Mutex<Vec<TraceEvent>>>;

#[derive(Debug)]
struct TracerInner {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    next_tid: AtomicU64,
    shards: Mutex<Vec<Shard>>,
}

impl Default for TracerInner {
    fn default() -> Self {
        TracerInner {
            enabled: AtomicBool::new(false),
            epoch: crate::clock::now(),
            next_id: AtomicU64::new(1),
            next_tid: AtomicU64::new(0),
            shards: Mutex::new(Vec::new()),
        }
    }
}

/// A hierarchical trace recorder. Cloning is one `Arc`; all clones feed
/// the same per-thread shards. Disabled tracers record nothing and cost
/// one atomic load per call.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

/// This thread's handle to its shard: owned by one tracer at a time.
struct LocalBuf {
    tracer: Arc<TracerInner>,
    tid: u64,
    shard: Shard,
}

thread_local! {
    /// Per-thread shard handle (the shard itself outlives the thread).
    static LOCAL_BUF: RefCell<Option<LocalBuf>> = const { RefCell::new(None) };
}

impl Tracer {
    /// A fresh, disabled tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Start recording. Events from spans opened before the call are
    /// not retroactively recorded.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Release);
    }

    /// Stop recording (already-open guards still record on drop).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Release);
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Acquire)
    }

    /// Open a trace-only span under this thread's innermost span. It
    /// records a [`TraceEvent`] on close and adds to no registry; while
    /// the tracer is disabled it is inert.
    pub fn span(&self, name: &str, cat: &'static str) -> Span {
        Span::open(None, self, name, cat)
    }

    /// Start the event of a span opening under trace id `parent`.
    pub(crate) fn begin(&self, parent: u64, name: &str, cat: &'static str) -> PendingEvent {
        // Register the thread now, not at the close-time push: open order
        // follows the fork-join hierarchy (a stage opens before the
        // workers it spawns), so timeline ids stay deterministic instead
        // of depending on which span happens to *finish* first.
        self.register_thread();
        PendingEvent {
            tracer: self.clone(),
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_owned(),
            cat,
            args: Vec::new(),
        }
    }

    /// Record a point-in-time event under this thread's innermost span.
    pub fn instant(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        args: Vec<(&'static str, ArgValue)>,
    ) {
        if !self.is_enabled() {
            return;
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let ts_ns = saturating_ns(self.inner.epoch.elapsed());
        self.push(TraceEvent {
            id,
            parent: Frame::current().trace,
            name: name.into(),
            cat,
            tid: 0, // filled by push
            ts_ns,
            dur_ns: 0,
            kind: EventKind::Instant,
            args,
        });
    }

    /// Ensure this thread has a shard (and timeline id) registered with
    /// this tracer, returning the id. Registration locks the shard list
    /// once per thread; afterwards only the thread's own shard is locked.
    fn register_thread(&self) -> u64 {
        LOCAL_BUF.with(|cell| {
            let mut cell = cell.borrow_mut();
            if let Some(buf) = cell.as_ref() {
                if Arc::ptr_eq(&buf.tracer, &self.inner) {
                    return buf.tid;
                }
            }
            let tid = self.inner.next_tid.fetch_add(1, Ordering::Relaxed);
            let shard: Shard = Arc::new(Mutex::new(Vec::with_capacity(256)));
            crate::registry::lock(&self.inner.shards).push(Arc::clone(&shard));
            *cell = Some(LocalBuf {
                tracer: Arc::clone(&self.inner),
                tid,
                shard,
            });
            tid
        })
    }

    /// Append `event` to this thread's shard, registering the thread on
    /// first use. The shard mutex is only ever contended by a concurrent
    /// [`Tracer::drain`], which the pipeline runs after workers joined.
    fn push(&self, mut event: TraceEvent) {
        let tid = self.register_thread();
        LOCAL_BUF.with(|cell| {
            let cell = cell.borrow();
            if let Some(buf) = cell.as_ref() {
                event.tid = tid;
                crate::registry::lock(&buf.shard).push(event);
            }
        });
    }

    /// Take every recorded event, sorted by start time (ties by id).
    /// Safe to call while workers are gone or idle; events pushed after
    /// the drain accumulate toward the next one.
    pub fn drain(&self) -> Trace {
        let shards: Vec<Shard> = crate::registry::lock(&self.inner.shards).clone();
        let mut events = Vec::new();
        for shard in shards {
            events.append(&mut crate::registry::lock(&shard));
        }
        events.sort_by_key(|e| (e.ts_ns, e.id));
        Trace { events }
    }
}

/// The process-wide tracer the pipeline's built-in instrumentation
/// records into (enabled by `reproduce --trace` / `droplens --trace`).
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The trace event of an open [`Span`], completed when the span closes.
#[derive(Debug)]
pub(crate) struct PendingEvent {
    tracer: Tracer,
    pub(crate) id: u64,
    parent: u64,
    name: String,
    cat: &'static str,
    pub(crate) args: Vec<(&'static str, ArgValue)>,
}

impl PendingEvent {
    /// Push the finished span event. With allocation attribution
    /// (`mem`), the event gains `alloc_bytes`/`freed_bytes`/`peak_delta`
    /// and this worker's live bytes are sampled as a counter event — a
    /// timeline dense exactly where the run is busy.
    pub(crate) fn record(mut self, start: Instant, dur: Duration, mem: Option<MemDelta>) {
        let ts_ns = saturating_ns(start.duration_since(self.tracer.inner.epoch));
        let dur_ns = saturating_ns(dur);
        if let Some(d) = mem {
            self.args.extend([
                ("alloc_bytes", ArgValue::U64(d.alloc_bytes)),
                ("freed_bytes", ArgValue::U64(d.freed_bytes)),
                ("peak_delta", ArgValue::U64(d.peak_delta)),
            ]);
        }
        self.tracer.push(TraceEvent {
            id: self.id,
            parent: self.parent,
            name: self.name,
            cat: self.cat,
            tid: 0, // filled by push
            ts_ns,
            dur_ns,
            kind: EventKind::Span,
            args: self.args,
        });
        if mem.is_some() {
            self.tracer.push(TraceEvent {
                id: self.tracer.inner.next_id.fetch_add(1, Ordering::Relaxed),
                parent: self.parent,
                name: "live_bytes".to_owned(),
                cat: "mem",
                tid: 0, // filled by push
                ts_ns: ts_ns.saturating_add(dur_ns),
                dur_ns: 0,
                kind: EventKind::Counter,
                args: vec![(
                    "live_bytes",
                    ArgValue::I64(crate::alloc::thread_live_bytes()),
                )],
            });
        }
    }
}

/// A drained trace: every event, sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The events, sorted by `(ts_ns, id)`.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Render as Chrome trace-event JSON (the `trace-event` format
    /// Perfetto and `chrome://tracing` load). Spans become complete
    /// (`"ph":"X"`) events with microsecond timestamps; instants become
    /// thread-scoped `"ph":"i"` markers; every worker timeline gets a
    /// `thread_name` metadata record. Span and parent ids travel in
    /// `args`, so cross-thread hierarchy survives the export.
    pub fn to_chrome_json(&self) -> String {
        let mut events: Vec<JsonObject> = Vec::with_capacity(self.events.len() + 8);
        let mut tids: Vec<u64> = self.events.iter().map(|e| e.tid).collect();
        tids.sort_unstable();
        tids.dedup();
        for tid in &tids {
            let mut name_args = JsonObject::new();
            name_args.field_str("name", &thread_label(*tid));
            let mut meta = JsonObject::new();
            meta.field_str("name", "thread_name")
                .field_str("ph", "M")
                .field_u64("pid", 1)
                .field_u64("tid", *tid)
                .field_object("args", name_args);
            events.push(meta);
        }
        for e in &self.events {
            let mut args = JsonObject::new();
            if e.kind != EventKind::Counter {
                // Counter args are pure series values; ids would render
                // as extra (meaningless) counter tracks.
                args.field_u64("id", e.id).field_u64("parent", e.parent);
            }
            for (k, v) in &e.args {
                match v {
                    ArgValue::U64(n) => args.field_u64(k, *n),
                    ArgValue::I64(n) => args.field_i64(k, *n),
                    ArgValue::F64(n) => args.field_f64(k, *n),
                    ArgValue::Str(s) => args.field_str(k, s),
                };
            }
            let mut o = JsonObject::new();
            match e.kind {
                // Chrome keys counter tracks by (pid, name): suffix the
                // worker label so every thread gets its own track.
                EventKind::Counter => {
                    o.field_str("name", &format!("{} ({})", e.name, thread_label(e.tid)))
                }
                _ => o.field_str("name", &e.name),
            };
            o.field_str("cat", e.cat);
            match e.kind {
                EventKind::Span => {
                    o.field_str("ph", "X")
                        .field_f64("ts", e.ts_ns as f64 / 1000.0)
                        .field_f64("dur", e.dur_ns as f64 / 1000.0);
                }
                EventKind::Instant => {
                    o.field_str("ph", "i")
                        .field_f64("ts", e.ts_ns as f64 / 1000.0)
                        .field_str("s", "t");
                }
                EventKind::Counter => {
                    o.field_str("ph", "C")
                        .field_f64("ts", e.ts_ns as f64 / 1000.0);
                }
            }
            o.field_u64("pid", 1)
                .field_u64("tid", e.tid)
                .field_object("args", args);
            events.push(o);
        }
        let mut root = JsonObject::new();
        root.field_str("schema", "droplens-trace/1")
            .field_str("displayTimeUnit", "ms")
            .field_object_array("traceEvents", events);
        let mut out = root.finish();
        out.push('\n');
        out
    }

    /// Render a deterministic text tree for test assertions.
    ///
    /// Determinism rules: siblings with the same `(name, cat, kind)`
    /// merge into one node (`×count`); children sort by name, not by
    /// wall-clock; node ids are renumbered depth-first; durations are
    /// bucketed into power-of-two ranges. Attributes are shown only when
    /// every merged event agrees on them, so run-varying values drop out
    /// while structural ones (source labels, fixed counts) stay.
    pub fn to_text_tree(&self) -> String {
        let mut children: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
        let ids: std::collections::BTreeSet<u64> = self.events.iter().map(|e| e.id).collect();
        for e in &self.events {
            if e.kind == EventKind::Counter {
                continue; // timeline samples, not structure
            }
            // Events whose parent was never recorded (opened before
            // enable, or parented to a disabled guard) are roots.
            let parent = if ids.contains(&e.parent) { e.parent } else { 0 };
            children.entry(parent).or_default().push(e);
        }
        let mut out = String::new();
        let mut next_id = 1u64;
        render_level(&children, 0, 0, &mut next_id, &mut out);
        out
    }

    /// Fraction of the first `root`-named span's wall-clock covered by
    /// its direct children (interval union, clipped to the root span).
    /// `None` when no such span exists or it has zero duration.
    pub fn coverage(&self, root: &str) -> Option<f64> {
        let root_ev = self
            .events
            .iter()
            .find(|e| e.name == root && e.kind == EventKind::Span)?;
        if root_ev.dur_ns == 0 {
            return None;
        }
        let mut intervals: Vec<(u64, u64)> = self
            .events
            .iter()
            .filter(|e| e.parent == root_ev.id && e.kind == EventKind::Span)
            .map(|e| (e.ts_ns.max(root_ev.ts_ns), e.end_ns().min(root_ev.end_ns())))
            .filter(|(lo, hi)| hi > lo)
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = 0u64;
        for (lo, hi) in intervals {
            let lo = lo.max(cursor);
            if hi > lo {
                covered += hi - lo;
                cursor = hi;
            }
        }
        Some(covered as f64 / root_ev.dur_ns as f64)
    }
}

/// Per-span memory attribution keys appended by the tracking allocator:
/// handled specially by the text tree (summed bucket, not raw values).
const MEM_ARG_KEYS: [&str; 3] = ["alloc_bytes", "freed_bytes", "peak_delta"];

/// The human label of a worker timeline (`main` / `worker-N`), used for
/// thread metadata and per-worker counter track names.
fn thread_label(tid: u64) -> String {
    if tid == 0 {
        "main".to_owned()
    } else {
        format!("worker-{tid}")
    }
}

/// Render one level of the merged tree (children of `parent`), indented.
fn render_level(
    children: &BTreeMap<u64, Vec<&TraceEvent>>,
    parent: u64,
    depth: usize,
    next_id: &mut u64,
    out: &mut String,
) {
    let Some(events) = children.get(&parent) else {
        return;
    };
    // Merge siblings by (name, cat, kind), keeping name order.
    let mut groups: BTreeMap<(&str, &str, bool), Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        groups
            .entry((e.name.as_str(), e.cat, e.kind == EventKind::Instant))
            .or_default()
            .push(e);
    }
    for ((name, cat, is_instant), group) in groups {
        let id = *next_id;
        *next_id += 1;
        let total_ns: u64 = group.iter().map(|e| e.dur_ns).sum();
        let _ = write!(out, "{}#{id} {name}", "  ".repeat(depth));
        if group.len() > 1 {
            let _ = write!(out, " ×{}", group.len());
        }
        if is_instant {
            let _ = write!(out, " [instant]");
        } else if total_ns == 0 {
            let _ = write!(out, " [0]");
        } else {
            // Half-open power-of-two bucket, e.g. `[2.048µs..4.096µs)`.
            let _ = write!(out, " [{})", duration_bucket(total_ns));
        }
        // The default categories carry no information beyond "a span";
        // only domain categories (par, parse, ingest, ...) are shown.
        if cat != "span" && cat != "stage" {
            let _ = write!(out, " <{cat}>");
        }
        // Allocation attribution is run-varying byte-for-byte but stable
        // in magnitude: render the *summed* power-of-two bucket instead
        // of the per-event agreement rule below.
        let alloc_total: u64 = group
            .iter()
            .flat_map(|e| &e.args)
            .filter(|(k, _)| *k == "alloc_bytes")
            .map(|(_, v)| match v {
                ArgValue::U64(n) => *n,
                _ => 0,
            })
            .sum();
        if alloc_total > 0 {
            let _ = write!(out, " alloc[{})", crate::alloc::byte_bucket(alloc_total));
        }
        // Attributes every merged event agrees on (memory attribution is
        // handled above and excluded here).
        if let Some(first) = group.first() {
            for (k, v) in &first.args {
                if MEM_ARG_KEYS.contains(k) {
                    continue;
                }
                if group
                    .iter()
                    .all(|e| e.args.iter().any(|(ek, ev)| ek == k && ev == v))
                {
                    let _ = write!(out, " {k}={}", v.render());
                }
            }
        }
        out.push('\n');
        for e in &group {
            render_level(children, e.id, depth + 1, next_id, out);
        }
    }
}

/// The power-of-two duration bucket containing `ns`, rendered as a
/// half-open range (`[512µs..1.048576ms)`), with exact zero kept exact.
fn duration_bucket(ns: u64) -> String {
    if ns == 0 {
        return "0".to_owned();
    }
    let exp = 63 - ns.leading_zeros();
    let lo = 1u64 << exp;
    let hi = lo.saturating_mul(2);
    format!(
        "{:?}..{:?}",
        Duration::from_nanos(lo),
        Duration::from_nanos(hi)
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    fn ev(
        id: u64,
        parent: u64,
        name: &str,
        cat: &'static str,
        ts: u64,
        dur: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> TraceEvent {
        TraceEvent {
            id,
            parent,
            name: name.to_owned(),
            cat,
            tid: 0,
            ts_ns: ts,
            dur_ns: dur,
            kind: EventKind::Span,
            args,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        {
            let mut g = t.span("noop", "test");
            g.arg_u64("n", 1);
            assert_eq!(g.id(), 0);
            t.instant("nope", "test", vec![]);
        }
        assert!(t.drain().events.is_empty());
    }

    #[test]
    fn spans_nest_and_record() {
        let t = Tracer::new();
        t.enable();
        let outer_id;
        {
            let outer = t.span("outer", "test");
            outer_id = outer.id();
            assert_ne!(outer_id, 0);
            assert_eq!(Frame::current().trace, outer_id);
            let inner = t.span("inner", "test");
            assert_ne!(inner.id(), 0);
            drop(inner);
            assert_eq!(Frame::current().trace, outer_id);
        }
        assert_eq!(Frame::current().trace, 0);
        let trace = t.drain();
        // Sibling alloc tests may flip the process-wide ACTIVE flag,
        // adding live_bytes counter samples: count spans only.
        let spans = trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Span)
            .count();
        assert_eq!(spans, 2);
        let outer = trace.events.iter().find(|e| e.name == "outer").unwrap();
        let inner = trace.events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.id, outer_id);
    }

    #[test]
    fn adopt_links_across_threads() {
        let t = Tracer::new();
        t.enable();
        let parent = t.span("stage", "test");
        let pid = parent.id();
        let frame = Frame::current();
        let tc = t.clone();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _a = frame.adopt();
                let mut g = tc.span("task", "test");
                g.arg_u64("queue_wait_ns", 17);
            });
        });
        drop(parent);
        let trace = t.drain();
        let task = trace.events.iter().find(|e| e.name == "task").unwrap();
        assert_eq!(task.parent, pid);
        assert_ne!(task.tid, 0, "worker gets its own timeline");
        assert_eq!(task.args[0], ("queue_wait_ns", ArgValue::U64(17)));
    }

    #[test]
    fn instants_attach_to_current_span() {
        let t = Tracer::new();
        t.enable();
        let g = t.span("parse", "test");
        let gid = g.id();
        t.instant(
            "quarantine",
            "ingest",
            vec![("source", ArgValue::Str("bgp".into()))],
        );
        drop(g);
        let trace = t.drain();
        let q = trace
            .events
            .iter()
            .find(|e| e.name == "quarantine")
            .unwrap();
        assert_eq!(q.parent, gid);
        assert_eq!(q.kind, EventKind::Instant);
        assert_eq!(q.dur_ns, 0);
    }

    #[test]
    fn chrome_json_shape() {
        let trace = Trace {
            events: vec![
                ev(1, 0, "root", "stage", 0, 2_000, vec![]),
                ev(
                    2,
                    1,
                    "leaf \"q\"",
                    "parse",
                    500,
                    1_000,
                    vec![("items", ArgValue::U64(3)), ("f", ArgValue::F64(0.5))],
                ),
            ],
        };
        let json = trace.to_chrome_json();
        assert!(json.starts_with("{\"schema\":\"droplens-trace/1\""));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":0.5"), "{json}");
        assert!(json.contains("\"dur\":1"), "{json}");
        assert!(json.contains("\"name\":\"leaf \\\"q\\\"\""));
        assert!(json.contains("\"items\":3"));
        assert!(json.contains("\"f\":0.5"));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"parent\":1"));
    }

    #[test]
    fn text_tree_is_deterministic_and_merges_siblings() {
        let mk = |order: [u64; 2]| Trace {
            events: vec![
                ev(1, 0, "study", "stage", 0, 4_000, vec![]),
                ev(
                    2,
                    1,
                    "task",
                    "par",
                    order[0],
                    1_000,
                    vec![("items", ArgValue::U64(5))],
                ),
                ev(
                    3,
                    1,
                    "task",
                    "par",
                    order[1],
                    1_000,
                    vec![("items", ArgValue::U64(7))],
                ),
                ev(
                    4,
                    1,
                    "annotate",
                    "stage",
                    100,
                    2_048,
                    vec![("source", ArgValue::Str("drop".into()))],
                ),
            ],
        };
        // Same events in either completion order render identically.
        let a = mk([10, 20]).to_text_tree();
        let b = mk([20, 10]).to_text_tree();
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines[0], "#1 study [2.048µs..4.096µs)");
        // Children sorted by name: annotate before task.
        assert_eq!(lines[1], "  #2 annotate [2.048µs..4.096µs) source=drop");
        // Merged node: ×2 with summed duration (2µs), disagreeing
        // `items` arg omitted.
        assert_eq!(lines[2], "  #3 task ×2 [1.024µs..2.048µs) <par>");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn orphaned_events_become_roots() {
        let trace = Trace {
            events: vec![ev(5, 99, "lost", "stage", 0, 10, vec![])],
        };
        let tree = trace.to_text_tree();
        assert!(tree.starts_with("#1 lost"));
    }

    #[test]
    fn coverage_unions_overlapping_children() {
        let trace = Trace {
            events: vec![
                ev(1, 0, "root", "stage", 0, 1_000, vec![]),
                // Two overlapping children on different workers.
                ev(2, 1, "a", "stage", 0, 600, vec![]),
                ev(3, 1, "b", "stage", 400, 500, vec![]),
            ],
        };
        let c = trace.coverage("root").unwrap();
        assert!((c - 0.9).abs() < 1e-9, "{c}");
        assert_eq!(trace.coverage("missing"), None);
    }

    #[test]
    fn duration_buckets() {
        assert_eq!(duration_bucket(0), "0");
        assert_eq!(duration_bucket(1), "1ns..2ns");
        assert_eq!(duration_bucket(1500), "1.024µs..2.048µs");
    }

    fn counter_ev(id: u64, tid: u64, ts: u64, live: i64) -> TraceEvent {
        TraceEvent {
            id,
            parent: 0,
            name: "live_bytes".to_owned(),
            cat: "mem",
            tid,
            ts_ns: ts,
            dur_ns: 0,
            kind: EventKind::Counter,
            args: vec![("live_bytes", ArgValue::I64(live))],
        }
    }

    #[test]
    fn counter_events_render_as_per_worker_chrome_tracks() {
        let trace = Trace {
            events: vec![
                ev(1, 0, "root", "stage", 0, 2_000, vec![]),
                counter_ev(2, 0, 100, 4096),
                counter_ev(3, 1, 200, 8192),
            ],
        };
        let json = trace.to_chrome_json();
        assert!(json.contains("\"ph\":\"C\""), "{json}");
        assert!(json.contains("\"name\":\"live_bytes (main)\""), "{json}");
        assert!(
            json.contains("\"name\":\"live_bytes (worker-1)\""),
            "{json}"
        );
        assert!(json.contains("\"live_bytes\":4096"), "{json}");
        // Counter args must carry only series values — an `id` field
        // would render as a bogus extra counter series in Perfetto.
        let counter_start = json.find("\"ph\":\"C\"").unwrap();
        let counter_args = &json[counter_start..];
        let args_field = counter_args.find("\"args\":{").unwrap();
        let close = counter_args[args_field..].find('}').unwrap();
        let args_body = &counter_args[args_field..args_field + close];
        assert!(!args_body.contains("\"id\""), "{args_body}");
        assert!(!args_body.contains("\"parent\""), "{args_body}");
    }

    #[test]
    fn counter_events_stay_out_of_text_tree() {
        let trace = Trace {
            events: vec![
                ev(1, 0, "root", "stage", 0, 2_000, vec![]),
                counter_ev(2, 0, 100, 4096),
            ],
        };
        let tree = trace.to_text_tree();
        assert!(!tree.contains("live_bytes"), "{tree}");
        assert_eq!(tree.lines().count(), 1);
    }

    #[test]
    fn text_tree_buckets_alloc_bytes() {
        let mem_args = |b: u64| {
            vec![
                ("alloc_bytes", ArgValue::U64(b)),
                ("freed_bytes", ArgValue::U64(b / 2)),
                ("peak_delta", ArgValue::U64(b / 4)),
            ]
        };
        let trace = Trace {
            events: vec![
                ev(1, 0, "root", "stage", 0, 4_000, mem_args(100)),
                ev(2, 1, "task", "par", 0, 1_000, mem_args(600)),
                ev(3, 1, "task", "par", 10, 1_000, mem_args(600)),
            ],
        };
        let tree = trace.to_text_tree();
        // Merged siblings sum to 1200B → the [1.0KiB..2.0KiB) bucket;
        // the raw per-event byte values never appear.
        assert!(tree.contains("task ×2"), "{tree}");
        assert!(tree.contains("alloc[1.0KiB..2.0KiB)"), "{tree}");
        assert!(!tree.contains("alloc_bytes="), "{tree}");
        assert!(!tree.contains("freed_bytes="), "{tree}");
        assert!(!tree.contains("peak_delta="), "{tree}");
    }

    #[test]
    fn coverage_of_zero_duration_root_is_none() {
        let trace = Trace {
            events: vec![ev(1, 0, "root", "stage", 0, 0, vec![])],
        };
        assert_eq!(trace.coverage("root"), None);
        // Zero-span trace: nothing to cover at all.
        assert_eq!(Trace::default().coverage("root"), None);
    }
}
