//! droplens-mem: an allocation-tracking `#[global_allocator]` wrapper
//! with per-thread shard counters and per-span attribution.
//!
//! [`TrackingAlloc`] wraps any [`GlobalAlloc`] (normally
//! [`std::alloc::System`]) and charges every allocation and free to a
//! fixed-size array of **shards**, one per thread. The hot path is a
//! handful of relaxed loads and stores on the calling thread's own
//! cache line — no locks, no compare-and-swap, no allocation (the
//! allocator must never re-enter itself).
//!
//! # Shard ownership
//!
//! Each thread picks a shard index on its first allocation (a single
//! `fetch_add` on a global counter, cached in a const-initialized
//! `thread_local` so the lookup never allocates and never runs a TLS
//! destructor) and from then on *only that thread* writes that shard:
//! allocations charge the allocating thread's shard, frees charge the
//! *freeing* thread's shard. Cross-thread frees therefore leave a
//! shard's own live-byte count (`alloc - freed`) negative sometimes;
//! the process-wide sum is still exact. Single-writer shards are what
//! make plain relaxed load/store updates sound — there is no RMW to
//! lose. Indices wrap modulo [`MAX_SHARDS`]; concurrent threads get
//! distinct shards as long as at most [`MAX_SHARDS`] are alive at once
//! (the pipeline's scoped pools stay far below that), while shards of
//! exited threads are safely reused because dead threads no longer
//! write.
//!
//! # Per-span attribution
//!
//! [`mark`]/[`MemMark::finish`] bracket a region of one thread's
//! execution: the delta carries bytes allocated, bytes freed, and the
//! **peak** net-allocation excursion inside the region. Peaks compose
//! across nesting with a save/rebase/restore stack discipline: a mark
//! saves the shard's current span-peak, rebases it to the present live
//! level, and `finish` restores `max(saved, inner peak)` — so an outer
//! span's peak always includes whatever its inner spans reached. Every
//! [`crate::Span`] opens one mark, which is how every span in a trace
//! carries `alloc_bytes`/`freed_bytes`/`peak_delta` and every registry
//! path carries byte columns.
//!
//! Attribution is per-thread: a parser span running on a pool worker
//! charges the worker's shard, and the span (nested under the
//! scheduling stage through [`crate::Frame::adopt`]) carries those
//! bytes — memory rolls up the worker→stage hierarchy exactly like
//! time does.
//!
//! # Determinism
//!
//! Counts of bytes allocated/freed are a function of the work, not the
//! schedule, so they are stable across `DROPLENS_THREADS` settings for
//! the deterministic pipeline. Live-byte *timelines* and peak values
//! depend on scheduling and are advisory. Nothing here ever writes to
//! stdout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering::Relaxed};

use crate::registry::Registry;

/// How many thread shards exist. Thread→shard assignment wraps modulo
/// this, so counters stay exact while at most this many threads are
/// alive concurrently.
pub const MAX_SHARDS: usize = 128;

/// One thread's counters, padded to a cache line so neighbouring
/// threads never false-share.
#[repr(align(64))]
struct Shard {
    /// Bytes this thread allocated (cumulative).
    alloc_bytes: AtomicU64,
    /// Allocation calls this thread made.
    alloc_ops: AtomicU64,
    /// Bytes this thread freed (cumulative; may exceed `alloc_bytes`
    /// when it frees another thread's allocations).
    freed_bytes: AtomicU64,
    /// Free calls this thread made.
    freed_ops: AtomicU64,
    /// High-water of this thread's net allocation (`alloc - freed`),
    /// rebased by [`mark`] for span attribution.
    span_peak: AtomicI64,
    /// Monotone high-water of this thread's net allocation, never
    /// rebased — summed into [`MemSnapshot::peak_live_bytes`].
    shard_peak: AtomicI64,
}

// `static` arrays need a const item to repeat; the interior mutability
// is exactly the point (each element is a fresh zeroed shard).
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_SHARD: Shard = Shard {
    alloc_bytes: AtomicU64::new(0),
    alloc_ops: AtomicU64::new(0),
    freed_bytes: AtomicU64::new(0),
    freed_ops: AtomicU64::new(0),
    span_peak: AtomicI64::new(0),
    shard_peak: AtomicI64::new(0),
};

static SHARDS: [Shard; MAX_SHARDS] = [ZERO_SHARD; MAX_SHARDS];

/// Total threads that ever claimed a shard (not capped by
/// [`MAX_SHARDS`]; indices wrap).
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// Set by the first tracked allocation. While false, [`mark`] and
/// [`thread_counts`] return `None`, so binaries *without* the tracking
/// allocator installed (unit-test runners, downstream users of the
/// library) skip attribution entirely.
static ACTIVE: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// This thread's shard index; `usize::MAX` until first use. Const
    /// init + no destructor: accessing it can never allocate or panic
    /// during thread teardown.
    static SHARD_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's shard, claiming an index on first use. Falls back to
/// shard 0 if TLS is unavailable (thread teardown) — counts then merge
/// into the main thread's shard rather than being dropped.
#[inline]
fn shard() -> &'static Shard {
    let idx = SHARD_IDX
        .try_with(|c| {
            let v = c.get();
            if v != usize::MAX {
                return v;
            }
            let v = NEXT_SHARD.fetch_add(1, Relaxed) % MAX_SHARDS;
            c.set(v);
            v
        })
        .unwrap_or(0);
    // shard index is reduced mod MAX_SHARDS on assignment
    &SHARDS[idx]
}

/// Single-writer update: `a += delta` as a relaxed load/store pair.
/// Sound because each shard field is only ever written by its owning
/// thread (see the module docs on shard ownership).
#[inline]
fn bump_u64(a: &AtomicU64, delta: u64) -> u64 {
    let v = a.load(Relaxed).wrapping_add(delta);
    a.store(v, Relaxed);
    v
}

/// Raise `a` to `v` if `v` is higher (single-writer, like [`bump_u64`]).
#[inline]
fn raise_i64(a: &AtomicI64, v: i64) {
    if v > a.load(Relaxed) {
        a.store(v, Relaxed);
    }
}

#[inline]
fn on_alloc(size: usize) {
    if !ACTIVE.load(Relaxed) {
        ACTIVE.store(true, Relaxed);
    }
    let s = shard();
    let alloc = bump_u64(&s.alloc_bytes, size as u64);
    bump_u64(&s.alloc_ops, 1);
    let live = alloc as i64 - s.freed_bytes.load(Relaxed) as i64;
    raise_i64(&s.span_peak, live);
    raise_i64(&s.shard_peak, live);
}

#[inline]
fn on_free(size: usize) {
    let s = shard();
    bump_u64(&s.freed_bytes, size as u64);
    bump_u64(&s.freed_ops, 1);
}

/// An allocation-tracking wrapper around another allocator, installed
/// as the `#[global_allocator]` of the binaries that want memory
/// observability:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: droplens_obs::alloc::TrackingAlloc =
///     droplens_obs::alloc::TrackingAlloc::system();
/// ```
///
/// Every call delegates to the inner allocator and then charges the
/// calling thread's shard — a few relaxed atomics on an exclusively
/// owned cache line, cheap enough to leave compiled in unconditionally
/// (the `--mem` flags only control *reporting*, never collection).
#[derive(Debug, Default, Clone, Copy)]
pub struct TrackingAlloc<A = System> {
    inner: A,
}

impl TrackingAlloc<System> {
    /// Track on top of the system allocator.
    pub const fn system() -> TrackingAlloc<System> {
        TrackingAlloc { inner: System }
    }
}

impl<A> TrackingAlloc<A> {
    /// Track on top of an arbitrary inner allocator.
    pub const fn new(inner: A) -> TrackingAlloc<A> {
        TrackingAlloc { inner }
    }
}

// The one unsafe impl in the workspace: `GlobalAlloc` is an unsafe
// trait, so wrapping the system allocator cannot be written without it.
// The impl adds no unsafe operations of its own — every call forwards
// to the inner allocator under the caller's contract, and the counter
// updates are safe atomics.
#[allow(unsafe_code)]
unsafe impl<A: GlobalAlloc> GlobalAlloc for TrackingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = self.inner.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = self.inner.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.inner.dealloc(ptr, layout);
        on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = self.inner.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Whether a [`TrackingAlloc`] has recorded at least one allocation in
/// this process — i.e. whether attribution data exists.
pub fn is_active() -> bool {
    ACTIVE.load(Relaxed)
}

/// A thread's cumulative allocation counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemCounts {
    /// Bytes allocated by this thread so far.
    pub alloc_bytes: u64,
    /// Bytes freed by this thread so far.
    pub freed_bytes: u64,
}

/// The calling thread's cumulative counters, or `None` when no tracking
/// allocator is installed. Subtract two readings for a region's
/// alloc/freed delta (no peak — use [`mark`] for that).
pub fn thread_counts() -> Option<MemCounts> {
    if !is_active() {
        return None;
    }
    let s = shard();
    Some(MemCounts {
        alloc_bytes: s.alloc_bytes.load(Relaxed),
        freed_bytes: s.freed_bytes.load(Relaxed),
    })
}

/// The calling thread's current net allocation (`alloc - freed`),
/// negative when it has freed more cross-thread memory than it
/// allocated. Sampled into `live_bytes` trace counters.
pub fn thread_live_bytes() -> i64 {
    let s = shard();
    s.alloc_bytes.load(Relaxed) as i64 - s.freed_bytes.load(Relaxed) as i64
}

/// An open attribution region on one thread (see the module docs for
/// the peak stack discipline). Obtain with [`mark`], close with
/// [`MemMark::finish`] on the *same thread*, in LIFO order with any
/// nested marks — exactly the discipline RAII guards already enforce.
#[derive(Debug)]
pub struct MemMark {
    shard: usize,
    base_alloc: u64,
    base_freed: u64,
    base_live: i64,
    saved_peak: i64,
}

/// What a region did to memory, per [`MemMark::finish`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemDelta {
    /// Bytes allocated on the marking thread inside the region.
    pub alloc_bytes: u64,
    /// Bytes freed on the marking thread inside the region.
    pub freed_bytes: u64,
    /// Highest net allocation above the region's starting level.
    pub peak_delta: u64,
}

/// Open an attribution region on the calling thread. `None` when no
/// tracking allocator is active (so instrumentation stays free for
/// binaries without one).
pub fn mark() -> Option<MemMark> {
    if !is_active() {
        return None;
    }
    let idx = SHARD_IDX.try_with(Cell::get).unwrap_or(0);
    let idx = if idx == usize::MAX {
        // The thread has not allocated yet; claim its shard now so the
        // mark and later allocations agree on where to look.
        let _ = shard();
        SHARD_IDX.try_with(Cell::get).unwrap_or(0)
    } else {
        idx
    };
    let s = &SHARDS[idx]; // idx is reduced mod MAX_SHARDS above
    let base_alloc = s.alloc_bytes.load(Relaxed);
    let base_freed = s.freed_bytes.load(Relaxed);
    let base_live = base_alloc as i64 - base_freed as i64;
    let saved_peak = s.span_peak.load(Relaxed);
    s.span_peak.store(base_live, Relaxed);
    Some(MemMark {
        shard: idx,
        base_alloc,
        base_freed,
        base_live,
        saved_peak,
    })
}

impl MemMark {
    /// Close the region and return its delta, restoring the outer
    /// region's peak so nesting composes.
    pub fn finish(self) -> MemDelta {
        let s = &SHARDS[self.shard];
        let alloc = s.alloc_bytes.load(Relaxed);
        let freed = s.freed_bytes.load(Relaxed);
        let inner_peak = s.span_peak.load(Relaxed);
        s.span_peak.store(self.saved_peak.max(inner_peak), Relaxed);
        MemDelta {
            alloc_bytes: alloc.saturating_sub(self.base_alloc),
            freed_bytes: freed.saturating_sub(self.base_freed),
            peak_delta: u64::try_from(inner_peak - self.base_live).unwrap_or(0),
        }
    }
}

/// Process-wide totals across every shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Bytes allocated, all threads.
    pub alloc_bytes: u64,
    /// Allocation calls, all threads.
    pub alloc_ops: u64,
    /// Bytes freed, all threads.
    pub freed_bytes: u64,
    /// Free calls, all threads.
    pub freed_ops: u64,
    /// Net allocation right now (`alloc - freed`).
    pub live_bytes: i64,
    /// Sum of per-thread high-waters — an upper bound on the true
    /// concurrent peak (threads rarely peak simultaneously).
    pub peak_live_bytes: i64,
    /// Threads that ever claimed a shard.
    pub threads: u64,
}

/// Sum every shard. Exact once worker threads have joined; advisory
/// (each shard internally consistent, the sum racing ongoing work)
/// while they run.
pub fn snapshot() -> MemSnapshot {
    let mut out = MemSnapshot {
        threads: NEXT_SHARD.load(Relaxed) as u64,
        ..MemSnapshot::default()
    };
    for s in &SHARDS {
        out.alloc_bytes = out.alloc_bytes.wrapping_add(s.alloc_bytes.load(Relaxed));
        out.alloc_ops = out.alloc_ops.wrapping_add(s.alloc_ops.load(Relaxed));
        out.freed_bytes = out.freed_bytes.wrapping_add(s.freed_bytes.load(Relaxed));
        out.freed_ops = out.freed_ops.wrapping_add(s.freed_ops.load(Relaxed));
        out.peak_live_bytes = out
            .peak_live_bytes
            .saturating_add(s.shard_peak.load(Relaxed));
    }
    out.live_bytes = out.alloc_bytes as i64 - out.freed_bytes as i64;
    out
}

impl MemSnapshot {
    /// One-line human summary for `--mem` stderr output.
    pub fn summary(&self) -> String {
        let rss = match peak_rss_bytes() {
            Some(b) => format_bytes(b),
            None => "n/a".to_owned(),
        };
        format!(
            "mem: {} allocated in {} ops, {} freed in {} ops, {} live, \
             peak(shards) {}, peak RSS {rss}, {} thread(s)",
            format_bytes(self.alloc_bytes),
            self.alloc_ops,
            format_bytes(self.freed_bytes),
            self.freed_ops,
            format_bytes_i64(self.live_bytes),
            format_bytes_i64(self.peak_live_bytes),
            self.threads,
        )
    }
}

/// The process's peak resident set, sampled from `/proc/self/status`
/// (`VmHWM`). `None` off Linux or when the file is unreadable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Record the current snapshot (and peak RSS, when sampled) as `mem.*`
/// gauges in `registry` — how `--mem` folds memory into run reports.
/// Gauges clamp at `i64::MAX`, far beyond any real byte count.
pub fn record_gauges(registry: &Registry) {
    let snap = snapshot();
    let as_i64 = |v: u64| i64::try_from(v).unwrap_or(i64::MAX);
    registry
        .gauge("mem.alloc_bytes")
        .set(as_i64(snap.alloc_bytes));
    registry.gauge("mem.alloc_ops").set(as_i64(snap.alloc_ops));
    registry
        .gauge("mem.freed_bytes")
        .set(as_i64(snap.freed_bytes));
    registry.gauge("mem.freed_ops").set(as_i64(snap.freed_ops));
    registry.gauge("mem.live_bytes").set(snap.live_bytes);
    registry
        .gauge("mem.peak_live_bytes")
        .set(snap.peak_live_bytes);
    registry.gauge("mem.threads").set(as_i64(snap.threads));
    if let Some(rss) = peak_rss_bytes() {
        registry.gauge("mem.peak_rss_bytes").set(as_i64(rss));
    }
}

/// Render a byte count with a binary-unit suffix (`1.5MiB`, `640KiB`,
/// `17B`).
pub fn format_bytes(n: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    if n < 1024 {
        return format!("{n}B");
    }
    let mut v = n as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit + 1 < UNITS.len() {
        v /= 1024.0;
        unit += 1;
    }
    format!("{v:.1}{}", UNITS[unit])
}

/// Signed variant of [`format_bytes`] for live-byte readings.
pub fn format_bytes_i64(n: i64) -> String {
    if n < 0 {
        format!("-{}", format_bytes(n.unsigned_abs()))
    } else {
        format_bytes(n as u64)
    }
}

/// The power-of-two byte bucket containing `n`, rendered as a half-open
/// range (`512.0KiB..1.0MiB`), with exact zero kept exact — the memory
/// analogue of the trace tree's duration buckets: deterministic under
/// allocator jitter, informative about magnitude.
pub fn byte_bucket(n: u64) -> String {
    if n == 0 {
        return "0".to_owned();
    }
    let exp = 63 - n.leading_zeros();
    let lo = 1u64 << exp;
    let hi = lo.saturating_mul(2);
    format!("{}..{}", format_bytes(lo), format_bytes(hi))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    // NOTE: these unit tests run in a binary *without* the tracking
    // allocator installed, so they drive the shard machinery manually;
    // the real allocator path is covered end-to-end by `tests/mem.rs`,
    // which installs its own `#[global_allocator]`.

    #[test]
    fn manual_charges_flow_through_marks() {
        // Drive the shard machinery directly (as the allocator would).
        let before = snapshot();
        let m = {
            on_alloc(0); // activates tracking without skewing byte counts
            mark().expect("active after first charge")
        };
        on_alloc(1000);
        on_alloc(500);
        on_free(200);
        let d = m.finish();
        assert_eq!(d.alloc_bytes, 1500);
        assert_eq!(d.freed_bytes, 200);
        // Peak hit after both allocations, before the free.
        assert!(d.peak_delta >= 1300, "{}", d.peak_delta);
        let after = snapshot();
        assert!(after.alloc_bytes >= before.alloc_bytes + 1500);
        assert!(after.alloc_ops > before.alloc_ops);
    }

    #[test]
    fn nested_marks_restore_outer_peak() {
        on_alloc(0);
        let outer = mark().unwrap();
        on_alloc(4096);
        on_free(4096);
        let inner = mark().unwrap();
        on_alloc(512);
        on_free(512);
        let di = inner.finish();
        assert!(di.peak_delta >= 512 && di.peak_delta < 4096, "{di:?}");
        let do_ = outer.finish();
        // The outer peak saw the 4096 excursion even though the inner
        // mark rebased the shard's span peak in between.
        assert!(do_.peak_delta >= 4096, "{do_:?}");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_bytes(17), "17B");
        assert_eq!(format_bytes(1536), "1.5KiB");
        assert_eq!(format_bytes(3 << 20), "3.0MiB");
        assert_eq!(format_bytes_i64(-2048), "-2.0KiB");
        assert_eq!(byte_bucket(0), "0");
        assert_eq!(byte_bucket(1), "1B..2B");
        assert_eq!(byte_bucket(1500), "1.0KiB..2.0KiB");
        assert_eq!(byte_bucket(1 << 20), "1.0MiB..2.0MiB");
    }

    #[test]
    fn peak_rss_parses_on_linux() {
        // On Linux the file exists and VmHWM is present for any live
        // process; elsewhere the function degrades to None.
        if cfg!(target_os = "linux") {
            let rss = peak_rss_bytes().expect("VmHWM readable");
            assert!(rss > 0);
        }
    }
}
