//! Windowed metrics: rolling counters and histograms over the last N
//! seconds.
//!
//! A live telemetry plane needs "how many, *lately*" — current q/s, the
//! p99 of the last few seconds — next to "how many, ever". A
//! [`WindowedCounter`] answers both for one event: each write lands in
//! the window and in a lifetime [`Counter`]
//! ([`WindowedCounter::lifetime`]), so one `inc()` feeds both questions
//! and the two counts cannot disagree.
//!
//! Both types here compute the recent view over a **ring of time
//! slots**: the window is `slots × slot_ns` wide, each slot owns
//! one `slot_ns`-sized stripe of the timeline, and a slot is lazily
//! reset the first time a write lands in a new stripe that maps onto
//! it. Reads merge only the slots whose stripe is still inside the
//! window, so expired data falls out without any background sweeper.
//!
//! # Sharding
//!
//! Writes follow the single-writer shard discipline of [`crate::alloc`]:
//! each writing thread claims a shard index on first use (one
//! `fetch_add`, cached in a const-initialized `thread_local`) and from
//! then on only that thread rotates that shard's slots. With at most
//! [`WINDOW_SHARDS`] concurrently writing threads every shard has one
//! writer and counts are exact; beyond that, threads share shards and a
//! rotation race at a slot boundary can drop a handful of samples from
//! the newest slot — tolerable for telemetry, and the serve worker
//! pools stay below the limit. Readers never write: a snapshot merges
//! shard slots into a fresh accumulator ([`Histogram::merge`]).
//!
//! # Time
//!
//! All time reads go through a [`Clock`], so every rate and expiry
//! decision is deterministic under [`Clock::mock`]: record, advance the
//! clock past the window, observe the samples gone — no sleeps.
//!
//! Slot stripes are identified by an **epoch**: `now_ns / slot_ns + 1`.
//! The `+ 1` keeps epoch 0 free as the "never written" sentinel, so a
//! freshly-zeroed slot is already correctly empty.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use crate::clock::Clock;
use crate::metrics::{Counter, Histogram, HistogramSummary};

/// Writer shards per windowed metric. Thread→shard assignment wraps
/// modulo this; see the module docs for the collision tolerance.
pub const WINDOW_SHARDS: usize = 8;

/// Threads that ever claimed a window-writer index (shared across all
/// windowed metrics in the process; indices wrap modulo
/// [`WINDOW_SHARDS`] at use sites).
static NEXT_WRITER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's writer index; `usize::MAX` until first use.
    static WRITER_IDX: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's shard index in `0..WINDOW_SHARDS`, claimed on first
/// use. Falls back to shard 0 if TLS is unavailable (thread teardown).
fn shard_index() -> usize {
    WRITER_IDX
        .try_with(|c| {
            let v = c.get();
            if v != usize::MAX {
                return v;
            }
            let v = NEXT_WRITER.fetch_add(1, Relaxed);
            c.set(v);
            v
        })
        .unwrap_or(0)
        % WINDOW_SHARDS
}

/// Geometry of a rolling window: `slots` ring slots of `slot_ns` each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Ring slots; the window covers this many slot-widths.
    pub slots: usize,
    /// Width of one slot in nanoseconds.
    pub slot_ns: u64,
}

impl Default for WindowConfig {
    /// Eight one-second slots: rates and quantiles over the last 8 s.
    fn default() -> WindowConfig {
        WindowConfig {
            slots: 8,
            slot_ns: 1_000_000_000,
        }
    }
}

impl WindowConfig {
    /// Total window width in nanoseconds.
    pub fn window_ns(&self) -> u64 {
        (self.slots as u64).saturating_mul(self.slot_ns)
    }

    /// Clamped-sane geometry: at least one slot, at least 1 ns wide.
    fn normalized(self) -> WindowConfig {
        WindowConfig {
            slots: self.slots.max(1),
            slot_ns: self.slot_ns.max(1),
        }
    }

    /// Epoch of the stripe containing `now_ns` (1-based; 0 is the
    /// never-written sentinel).
    fn epoch(&self, now_ns: u64) -> u64 {
        now_ns / self.slot_ns + 1
    }

    /// Whether `slot_epoch` is still inside the window ending at
    /// `now_epoch`.
    fn live(&self, slot_epoch: u64, now_epoch: u64) -> bool {
        slot_epoch != 0 && slot_epoch <= now_epoch && now_epoch - slot_epoch < self.slots as u64
    }
}

/// One counter slot: the stripe it currently holds, and its count.
#[derive(Debug)]
struct CountSlot {
    epoch: AtomicU64,
    count: AtomicU64,
}

/// A rolling event counter: totals and rates over the last window, plus
/// the lifetime count of the same events.
///
/// Cloning shares the ring and the lifetime count (an `Arc`), like
/// [`Counter`].
#[derive(Debug, Clone)]
pub struct WindowedCounter(Arc<WindowedCounterInner>);

#[derive(Debug)]
struct WindowedCounterInner {
    config: WindowConfig,
    clock: Clock,
    /// `WINDOW_SHARDS` shards of `config.slots` slots each, flattened
    /// shard-major: shard `s`, slot `i` lives at `s * slots + i`.
    slots: Vec<CountSlot>,
    /// Every event ever added, window or not.
    lifetime: Counter,
}

impl WindowedCounter {
    /// A windowed counter over `clock` with the given geometry.
    pub fn new(clock: Clock, config: WindowConfig) -> WindowedCounter {
        let config = config.normalized();
        let slots = (0..WINDOW_SHARDS * config.slots)
            .map(|_| CountSlot {
                epoch: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })
            .collect();
        WindowedCounter(Arc::new(WindowedCounterInner {
            config,
            clock,
            slots,
            lifetime: Counter::new(),
        }))
    }

    /// Add one now.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` now.
    pub fn add(&self, n: u64) {
        let inner = &self.0;
        let epoch = inner.config.epoch(inner.clock.now_ns());
        let slot = &inner.slots
            [shard_index() * inner.config.slots + (epoch as usize) % inner.config.slots];
        // Single-writer rotation: if the slot still holds an older
        // stripe, zero it and claim the new one before bumping.
        if slot.epoch.load(Relaxed) != epoch {
            slot.count.store(0, Relaxed);
            slot.epoch.store(epoch, Relaxed);
        }
        slot.count.fetch_add(n, Relaxed);
        inner.lifetime.add(n);
    }

    /// The lifetime count: every event ever added, expired or not. The
    /// handle shares its value, so it can be installed in a
    /// [`crate::Registry`] and stay live.
    pub fn lifetime(&self) -> &Counter {
        &self.0.lifetime
    }

    /// Events inside the current window.
    pub fn total(&self) -> u64 {
        let inner = &self.0;
        let now_epoch = inner.config.epoch(inner.clock.now_ns());
        inner
            .slots
            .iter()
            .filter(|s| inner.config.live(s.epoch.load(Relaxed), now_epoch))
            .map(|s| s.count.load(Relaxed))
            .sum()
    }

    /// Events per second over the covered window. Early in the process
    /// (or a fresh mock clock) the window is not yet full, so the
    /// divisor is the time actually covered, floored at one slot.
    pub fn rate_per_sec(&self) -> f64 {
        let inner = &self.0;
        let covered_ns = inner
            .clock
            .now_ns()
            .saturating_add(inner.config.slot_ns) // the current, partial slot
            .min(inner.config.window_ns())
            .max(inner.config.slot_ns);
        self.total() as f64 * 1e9 / covered_ns as f64
    }

    /// The window geometry this counter was built with.
    pub fn config(&self) -> WindowConfig {
        self.0.config
    }
}

/// One histogram slot: the stripe it currently holds, and its samples.
#[derive(Debug)]
struct HistSlot {
    epoch: AtomicU64,
    hist: Histogram,
}

/// A rolling histogram: quantiles over the last window.
///
/// Cloning shares the ring (an `Arc`), like [`crate::Histogram`].
#[derive(Debug, Clone)]
pub struct WindowedHistogram(Arc<WindowedHistogramInner>);

#[derive(Debug)]
struct WindowedHistogramInner {
    config: WindowConfig,
    clock: Clock,
    /// Flattened shard-major like [`WindowedCounterInner::slots`].
    slots: Vec<HistSlot>,
}

impl WindowedHistogram {
    /// A windowed histogram over `clock` with the given geometry.
    pub fn new(clock: Clock, config: WindowConfig) -> WindowedHistogram {
        let config = config.normalized();
        let slots = (0..WINDOW_SHARDS * config.slots)
            .map(|_| HistSlot {
                epoch: AtomicU64::new(0),
                hist: Histogram::new(),
            })
            .collect();
        WindowedHistogram(Arc::new(WindowedHistogramInner {
            config,
            clock,
            slots,
        }))
    }

    /// Record one sample now.
    pub fn record(&self, v: u64) {
        let inner = &self.0;
        let epoch = inner.config.epoch(inner.clock.now_ns());
        let slot = &inner.slots
            [shard_index() * inner.config.slots + (epoch as usize) % inner.config.slots];
        if slot.epoch.load(Relaxed) != epoch {
            slot.hist.reset();
            slot.epoch.store(epoch, Relaxed);
        }
        slot.hist.record(v);
    }

    /// Merge every live slot into one fresh histogram covering the
    /// current window.
    pub fn merged(&self) -> Histogram {
        let inner = &self.0;
        let now_epoch = inner.config.epoch(inner.clock.now_ns());
        let out = Histogram::new();
        for slot in &inner.slots {
            if inner.config.live(slot.epoch.load(Relaxed), now_epoch) {
                out.merge(&slot.hist);
            }
        }
        out
    }

    /// Plain-data summary of the current window.
    pub fn summary(&self) -> HistogramSummary {
        self.merged().summary()
    }

    /// The window geometry this histogram was built with.
    pub fn config(&self) -> WindowConfig {
        self.0.config
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use std::time::Duration;

    fn tight() -> WindowConfig {
        // 4 × 1 ms slots: a 4 ms window, fast to step through.
        WindowConfig {
            slots: 4,
            slot_ns: 1_000_000,
        }
    }

    #[test]
    fn window_config_normalizes_degenerate_geometry() {
        let c = WindowConfig {
            slots: 0,
            slot_ns: 0,
        }
        .normalized();
        assert_eq!((c.slots, c.slot_ns), (1, 1));
        assert_eq!(tight().window_ns(), 4_000_000);
    }

    #[test]
    fn counter_totals_cover_only_the_window() {
        let clock = Clock::mock();
        let c = WindowedCounter::new(clock.clone(), tight());
        c.add(3);
        assert_eq!(c.total(), 3);

        // Still inside the window two slots later...
        clock.advance(Duration::from_millis(2));
        c.inc();
        assert_eq!(c.total(), 4);

        // ...but the first slot expires once the window slides past it.
        clock.advance(Duration::from_millis(2));
        assert_eq!(c.total(), 1, "the 3 early events expired");

        // And far in the future everything is gone from the window,
        // while the lifetime count keeps every event.
        clock.advance(Duration::from_secs(1));
        assert_eq!(c.total(), 0);
        assert_eq!(c.lifetime().value(), 4);
    }

    #[test]
    fn counter_slot_reuse_resets_stale_counts() {
        let clock = Clock::mock();
        let c = WindowedCounter::new(clock.clone(), tight());
        c.add(100);
        // Advance exactly slots ring-periods: the new epoch maps onto
        // the same ring index, so the write must rotate the slot.
        clock.advance(Duration::from_millis(4));
        c.add(7);
        assert_eq!(c.total(), 7, "the stale 100 was rotated out, not added");
    }

    #[test]
    fn counter_rate_uses_covered_time_not_full_window() {
        let clock = Clock::mock();
        let c = WindowedCounter::new(clock.clone(), tight());
        c.add(10);
        // Only the first (1 ms) slot is covered: 10 events / 1 ms.
        let early = c.rate_per_sec();
        assert!((early - 10_000.0).abs() < 1.0, "early rate {early}");

        // With the clock deep into the window, the divisor is the full
        // 4 ms window.
        clock.advance(Duration::from_millis(3));
        let late = c.rate_per_sec();
        assert!((late - 2_500.0).abs() < 1.0, "late rate {late}");
    }

    #[test]
    fn histogram_window_slides_quantiles() {
        let clock = Clock::mock();
        let h = WindowedHistogram::new(clock.clone(), tight());
        for _ in 0..100 {
            h.record(1_000);
        }
        clock.advance(Duration::from_millis(2));
        h.record(8);
        let s = h.summary();
        assert_eq!(s.count, 101);
        assert_eq!(s.min, 8);
        assert_eq!(s.max, 1_000);

        // Slide the window past the burst of 1 000s: only the 8 stays.
        clock.advance(Duration::from_millis(2));
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max, s.p99), (1, 8, 8, 8));

        // Whole window empty → all-zero summary, like an empty Histogram.
        clock.advance(Duration::from_millis(10));
        assert_eq!(h.summary(), HistogramSummary::default());
    }

    #[test]
    fn histogram_slot_reuse_resets_stale_samples() {
        let clock = Clock::mock();
        let h = WindowedHistogram::new(clock.clone(), tight());
        h.record(1_000_000);
        clock.advance(Duration::from_millis(4)); // same ring index, new epoch
        h.record(5);
        let s = h.summary();
        assert_eq!((s.count, s.max), (1, 5), "stale sample rotated out");
    }

    #[test]
    fn clones_share_the_ring() {
        let clock = Clock::mock();
        let c = WindowedCounter::new(clock.clone(), WindowConfig::default());
        let twin = c.clone();
        twin.add(5);
        c.add(2);
        assert_eq!(c.total(), 7);
        assert_eq!(twin.lifetime().value(), 7);

        let h = WindowedHistogram::new(clock, WindowConfig::default());
        let htwin = h.clone();
        htwin.record(9);
        assert_eq!(h.summary().count, 1);
    }

    #[test]
    fn multithreaded_writes_from_few_threads_are_exact() {
        // At most WINDOW_SHARDS concurrent writers → shards are
        // single-writer and totals are exact.
        let clock = Clock::mock();
        let c = WindowedCounter::new(clock.clone(), WindowConfig::default());
        let h = WindowedHistogram::new(clock, WindowConfig::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for i in 0..1_000u64 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.total(), 4_000);
        assert_eq!(c.lifetime().value(), 4_000);
        assert_eq!(h.summary().count, 4_000);
    }
}
