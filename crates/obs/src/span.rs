//! The span: one RAII guard behind both the run report's per-path
//! aggregate and the trace timeline.
//!
//! A span reads the clock once when it opens and once when it closes,
//! opens one allocation mark ([`crate::alloc::mark`]) and pushes one
//! frame on this thread's frame stack. Its close event feeds two
//! consumers: the [`Registry`] it was opened through adds the duration
//! and byte counts to the span's path, and — when the tracer is
//! enabled — the tracer records a [`crate::trace::TraceEvent`].
//! [`Registry::span`] opens a span that does both;
//! [`crate::trace::Tracer::span`] opens a trace-only span, which is
//! inert (one atomic load) while tracing is off.
//!
//! # Frames
//!
//! Each thread keeps a stack of [`Frame`]s, one per open span. A frame
//! holds the span's interned registry path and its trace id, so a span
//! opened inside another nests under it in both views: `load` opened
//! inside `study` aggregates as `study/load` and its trace event names
//! `study` as parent. Trace-only spans inherit the enclosing path, so
//! they never change where registry spans aggregate. Fork-join helpers
//! carry the caller's frame to their workers ([`Frame::adopt`]), so
//! nesting is the same whichever thread runs the work.
//!
//! Paths are interned once per (parent, name) pair: opening a span on
//! a path seen before allocates nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::alloc::MemMark;
use crate::registry::{lock, Registry, SpanStat};
use crate::trace::{ArgValue, PendingEvent, Tracer};

thread_local! {
    /// This thread's open spans and adopted frames, outermost first.
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// Every registry path any span has opened, process-wide.
static PATHS: Mutex<Paths> = Mutex::new(Paths::new());

/// The path interner: id 0 is the root, id `i + 1` joins to `joined[i]`.
struct Paths {
    joined: Vec<Box<str>>,
    /// Parent id → segment name → child id.
    children: BTreeMap<u32, BTreeMap<Box<str>, u32>>,
}

impl Paths {
    const fn new() -> Paths {
        Paths {
            joined: Vec::new(),
            children: BTreeMap::new(),
        }
    }

    /// The id of `name` under `parent`, interning it on first use.
    fn child(&mut self, parent: u32, name: &str) -> u32 {
        if let Some(&id) = self.children.get(&parent).and_then(|c| c.get(name)) {
            return id;
        }
        let joined = match self.get(parent) {
            "" => name.into(),
            prefix => format!("{prefix}/{name}").into(),
        };
        self.joined.push(joined);
        let id = u32::try_from(self.joined.len()).unwrap_or(u32::MAX);
        self.children
            .entry(parent)
            .or_default()
            .insert(name.into(), id);
        id
    }

    /// The joined path of `id` (empty for the root).
    fn get(&self, id: u32) -> &str {
        id.checked_sub(1)
            .and_then(|i| self.joined.get(i as usize))
            .map_or("", |p| p)
    }
}

/// Key per-path stats by their joined path. Ids that join to the same
/// string (a name containing `/`) merge into one row.
pub(crate) fn by_path(stats: &BTreeMap<u32, SpanStat>) -> BTreeMap<String, SpanStat> {
    let paths = lock(&PATHS);
    let mut out: BTreeMap<String, SpanStat> = BTreeMap::new();
    for (&id, stat) in stats {
        out.entry(paths.get(id).to_owned()).or_default().add(*stat);
    }
    out
}

/// A thread's innermost open span as a copyable value: the registry
/// path spans opened under it aggregate into, and the trace id they
/// link to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Frame {
    path: u32,
    /// The trace id spans opened under this frame link to (0 = root).
    pub(crate) trace: u64,
}

impl Frame {
    /// The innermost frame on this thread (the root when none is open).
    pub fn current() -> Frame {
        FRAMES.with(|f| f.borrow().last().copied().unwrap_or_default())
    }

    /// Continue this frame on the calling thread until the guard drops.
    /// Fork-join helpers capture [`Frame::current`] before spawning and
    /// adopt it on the worker, so spans the worker opens aggregate under
    /// the caller's path and link under the caller's trace span.
    pub fn adopt(self) -> Adopted {
        Adopted { depth: push(self) }
    }
}

/// Push `frame`, returning the stack depth to truncate back to.
fn push(frame: Frame) -> usize {
    FRAMES.with(|f| {
        let mut f = f.borrow_mut();
        let depth = f.len();
        f.push(frame);
        depth
    })
}

/// Truncate this thread's frame stack to `depth`. LIFO in well-formed
/// use; truncating also self-heals if an outer guard drops first.
fn pop_to(depth: usize) {
    FRAMES.with(|f| f.borrow_mut().truncate(depth));
}

/// An adopted [`Frame`]; pops it again on drop.
#[derive(Debug)]
pub struct Adopted {
    depth: usize,
}

impl Drop for Adopted {
    fn drop(&mut self) {
        pop_to(self.depth);
    }
}

/// An open span: records its duration when dropped or on
/// [`Span::finish`]. Spans are thread-bound — drop them on the thread
/// that opened them.
///
/// A trace-only span opened while tracing is off is inert: every method
/// is safe to call and does nothing.
#[derive(Debug)]
pub struct Span {
    open: Option<Open>,
}

#[derive(Debug)]
struct Open {
    /// The registry the close event aggregates into (`None` for
    /// trace-only spans).
    registry: Option<Registry>,
    path: u32,
    /// Frame-stack depth below this span's frame.
    depth: usize,
    mem: Option<MemMark>,
    /// The trace event, while the tracer was enabled at open.
    event: Option<PendingEvent>,
    start: Instant,
}

impl Span {
    pub(crate) fn open(
        registry: Option<&Registry>,
        tracer: &Tracer,
        name: &str,
        cat: &'static str,
    ) -> Span {
        let traced = tracer.is_enabled();
        if registry.is_none() && !traced {
            return Span { open: None };
        }
        let top = Frame::current();
        let path = match registry {
            Some(_) => lock(&PATHS).child(top.path, name),
            None => top.path,
        };
        let event = traced.then(|| tracer.begin(top.trace, name, cat));
        let trace = event.as_ref().map_or(top.trace, |e| e.id);
        Span {
            open: Some(Open {
                registry: registry.cloned(),
                path,
                depth: push(Frame { path, trace }),
                mem: crate::alloc::mark(),
                event,
                start: crate::clock::now(),
            }),
        }
    }

    /// The registry path this span aggregates under (trace-only spans
    /// report their enclosing path; empty when inert).
    pub fn path(&self) -> String {
        self.open
            .as_ref()
            .map_or_else(String::new, |o| lock(&PATHS).get(o.path).to_owned())
    }

    /// This span's trace id (0 while tracing is off).
    pub fn id(&self) -> u64 {
        self.open
            .as_ref()
            .and_then(|o| o.event.as_ref())
            .map_or(0, |e| e.id)
    }

    /// Attach an unsigned-integer attribute to the trace event.
    pub fn arg_u64(&mut self, key: &'static str, value: u64) -> &mut Self {
        self.arg(key, || ArgValue::U64(value))
    }

    /// Attach a string attribute to the trace event.
    pub fn arg_str(&mut self, key: &'static str, value: impl Into<String>) -> &mut Self {
        self.arg(key, || ArgValue::Str(value.into()))
    }

    /// Push an attribute, built only while the span is traced.
    fn arg(&mut self, key: &'static str, value: impl FnOnce() -> ArgValue) -> &mut Self {
        if let Some(e) = self.open.as_mut().and_then(|o| o.event.as_mut()) {
            e.args.push((key, value()));
        }
        self
    }

    /// Close the span now and return the duration it recorded.
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let Some(open) = self.open.take() else {
            return Duration::ZERO;
        };
        let elapsed = open.start.elapsed();
        let mem = open.mem.map(MemMark::finish);
        pop_to(open.depth);
        if let Some(registry) = &open.registry {
            registry.add_span(open.path, elapsed, mem.unwrap_or_default());
        }
        if let Some(event) = open.event {
            event.record(open.start, elapsed, mem);
        }
        elapsed
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_paths() {
        let r = Registry::new();
        {
            let _outer = r.span("outer");
            {
                let inner = r.span("inner");
                assert_eq!(inner.path(), "outer/inner");
            }
            let sibling = r.span("sibling");
            assert_eq!(sibling.path(), "outer/sibling");
        }
        let after = r.span("after");
        assert_eq!(after.path(), "after");
        drop(after);

        let snap = r.report();
        let paths: Vec<&str> = snap.spans.keys().map(String::as_str).collect();
        assert_eq!(
            paths,
            vec!["after", "outer", "outer/inner", "outer/sibling"]
        );
        assert_eq!(snap.spans["outer"].count, 1);
    }

    #[test]
    fn finish_records_once() {
        let r = Registry::new();
        let s = r.span("once");
        let d = s.finish();
        assert!(d >= Duration::ZERO);
        assert_eq!(r.report().spans["once"].count, 1);
    }

    #[test]
    fn finish_returns_the_recorded_duration() {
        let r = Registry::new();
        let span = r.span("timed");
        std::hint::black_box((0..1000u64).sum::<u64>());
        let returned = span.finish();
        let recorded = r.report().spans["timed"].total_ns;
        assert_eq!(u64::try_from(returned.as_nanos()).unwrap(), recorded);
    }

    #[test]
    fn trace_only_spans_do_not_change_registry_paths() {
        let r = Registry::new();
        let tracer = Tracer::new();
        tracer.enable();
        {
            let _stage = r.span("stage");
            let task = tracer.span("task", "par");
            assert_ne!(task.id(), 0);
            assert_eq!(task.path(), "stage");
            let _inner = r.span("inner");
        }
        assert!(r.report().spans.contains_key("stage/inner"));
    }

    #[test]
    fn names_with_slashes_merge_with_the_nested_path() {
        let r = Registry::new();
        {
            let _a = r.span("a");
            let _b = r.span("b/c");
        }
        {
            let _a = r.span("a");
            let _b = r.span("b");
            let _c = r.span("c");
        }
        let spans = r.report().spans;
        assert_eq!(spans["a/b/c"].count, 2);
        assert_eq!(spans.len(), 3);
    }
}
