//! The metric registry: named handles plus snapshotting.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

use crate::alloc::MemDelta;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::run_report::RunReport;
use crate::span::Span;

/// How many error samples each source retains (the first N seen).
pub const ERROR_SAMPLES_KEPT: usize = 5;

/// Accumulated timing (and, with a tracking allocator installed,
/// allocation) of one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total wall-clock across them, nanoseconds.
    pub total_ns: u64,
    /// Bytes allocated on the recording threads inside these spans
    /// (0 without a tracking allocator).
    pub alloc_bytes: u64,
    /// Bytes freed on the recording threads inside these spans.
    pub freed_bytes: u64,
}

impl SpanStat {
    /// Fold `other` into this stat.
    pub(crate) fn add(&mut self, other: SpanStat) {
        self.count = self.count.saturating_add(other.count);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
        self.alloc_bytes = self.alloc_bytes.saturating_add(other.alloc_bytes);
        self.freed_bytes = self.freed_bytes.saturating_add(other.freed_bytes);
    }

    /// Mean wall-clock per span, nanoseconds.
    pub fn mean_ns(&self) -> u64 {
        match self.count {
            0 => 0,
            n => self.total_ns / n,
        }
    }
}

/// Error tally for one source: total seen plus the first few samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorLog {
    /// Total errors recorded.
    pub seen: u64,
    /// The first [`ERROR_SAMPLES_KEPT`] error messages.
    pub samples: Vec<String>,
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    /// Keyed by interned span path (see [`crate::span`]).
    spans: Mutex<BTreeMap<u32, SpanStat>>,
    errors: Mutex<BTreeMap<String, ErrorLog>>,
}

/// A thread-safe collection of named metrics.
///
/// Cloning is cheap (one `Arc`); all clones observe the same metrics.
/// Lookups lock a `Mutex`-guarded map, but the returned handles mutate
/// lock-free atomics, so the intended pattern is *resolve once, update
/// often*. A sharded backend can later replace the maps without touching
/// this API: handles would simply resolve against a shard.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = lock(&self.inner.counters);
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Store `counter` under `name`, replacing any counter already
    /// there: the registry then reads a count that its owner keeps
    /// elsewhere (a server's per-server record, say) without a second
    /// increment. Handles resolved under `name` before the install keep
    /// the old counter.
    pub fn install_counter(&self, name: &str, counter: Counter) {
        lock(&self.inner.counters).insert(name.to_owned(), counter);
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = lock(&self.inner.gauges);
        map.entry(name.to_owned()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = lock(&self.inner.histograms);
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Open a span named `name`: it nests under the span currently open
    /// on this thread (`parent/child`), adds its duration and allocation
    /// to that path when it closes, and records a trace event while the
    /// global tracer ([`crate::trace::global`]) is enabled.
    pub fn span(&self, name: &str) -> Span {
        self.span_cat(name, "span")
    }

    /// [`Registry::span`] with trace category `cat` (`experiment`,
    /// `stage`, ...); the run report does not see categories.
    pub fn span_cat(&self, name: &str, cat: &'static str) -> Span {
        Span::open(Some(self), crate::trace::global(), name, cat)
    }

    /// A closed span's contribution to its path.
    pub(crate) fn add_span(&self, path: u32, elapsed: Duration, mem: MemDelta) {
        let stat = SpanStat {
            count: 1,
            total_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            alloc_bytes: mem.alloc_bytes,
            freed_bytes: mem.freed_bytes,
        };
        lock(&self.inner.spans).entry(path).or_default().add(stat);
    }

    /// Record one error for `source`, retaining the first
    /// [`ERROR_SAMPLES_KEPT`] sample messages.
    pub fn error_sample(&self, source: &str, message: impl Into<String>) {
        let mut map = lock(&self.inner.errors);
        let log = map.entry(source.to_owned()).or_default();
        log.seen += 1;
        if log.samples.len() < ERROR_SAMPLES_KEPT {
            log.samples.push(message.into());
        }
    }

    /// Snapshot every metric into a plain-data report.
    pub fn report(&self) -> RunReport {
        RunReport {
            meta: BTreeMap::new(),
            counters: lock(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            gauges: lock(&self.inner.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.value()))
                .collect(),
            histograms: lock(&self.inner.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
            spans: crate::span::by_path(&lock(&self.inner.spans)),
            errors: lock(&self.inner.errors).clone(),
        }
    }

    /// Discard every metric (new handles required afterwards: handles
    /// resolved before the reset keep feeding their detached atomics).
    pub fn reset(&self) {
        lock(&self.inner.counters).clear();
        lock(&self.inner.gauges).clear();
        lock(&self.inner.histograms).clear();
        lock(&self.inner.spans).clear();
        lock(&self.inner.errors).clear();
    }
}

/// Lock `m`, continuing with the data even if another thread panicked
/// while holding the guard. Every critical section here leaves the map
/// structurally valid (entry insertion, clone, clear), and the
/// instrumentation layer must never turn one panicking worker into a
/// cascade across every thread that touches a metric.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide registry the pipeline's built-in instrumentation
/// records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let r = Registry::new();
        r.counter("x").inc();
        r.counter("x").add(2);
        assert_eq!(r.counter("x").value(), 3);
        let snap = r.report();
        assert_eq!(snap.counters["x"], 3);
    }

    #[test]
    fn installed_counters_stay_live() {
        let r = Registry::new();
        let stale = r.counter("x");
        let owned = Counter::new();
        owned.add(4);
        r.install_counter("x", owned.clone());
        owned.inc();
        assert_eq!(r.counter("x").value(), 5);
        assert_eq!(r.report().counters["x"], 5);
        stale.inc();
        assert_eq!(r.counter("x").value(), 5, "the replaced handle is detached");
    }

    #[test]
    fn error_samples_capped() {
        let r = Registry::new();
        for i in 0..10 {
            r.error_sample("src", format!("e{i}"));
        }
        let snap = r.report();
        assert_eq!(snap.errors["src"].seen, 10);
        assert_eq!(snap.errors["src"].samples.len(), ERROR_SAMPLES_KEPT);
        assert_eq!(snap.errors["src"].samples[0], "e0");
    }

    #[test]
    fn reset_clears() {
        let r = Registry::new();
        r.counter("a").inc();
        drop(r.span("s"));
        r.reset();
        let snap = r.report();
        assert!(snap.counters.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn reset_racing_concurrent_counter_adds_is_safe() {
        // Handles resolved before a reset keep feeding their detached
        // atomics (the documented contract); the reset itself must never
        // panic, deadlock, or corrupt the maps while writers hammer both
        // old and freshly resolved handles from other threads.
        let r = Registry::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = r.clone();
                let stop = &stop;
                s.spawn(move || {
                    let pinned = reg.counter("race"); // survives resets, detached
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        pinned.add(1);
                        reg.counter("race").add(1); // re-resolves every time
                        drop(reg.span("race"));
                    }
                });
            }
            for _ in 0..50 {
                r.reset();
                std::thread::yield_now();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        // Post-reset state is coherent: one more reset gives a clean
        // slate, and a fresh handle starts from zero.
        r.reset();
        assert!(r.report().counters.is_empty());
        r.counter("race").add(2);
        assert_eq!(r.report().counters["race"], 2);
    }
}
