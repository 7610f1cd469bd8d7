//! The workspace's only sanctioned clock.
//!
//! `clippy.toml` lists `Instant::now` and `SystemTime::now` under
//! `disallowed-methods`, and every crate denies that lint, so
//! output-affecting code can never branch on the time of day. The one
//! read left is this module's crate-private `now`, the one function
//! whose `#[allow(clippy::disallowed_methods)]` covers a clock: span open,
//! the tracer's epoch, [`Stopwatch::start`] and [`Clock::real`] all go
//! through it. Code that legitimately needs a duration — queue-wait
//! measurement in `droplens-par`, experiment timing in `droplens-core`
//! — takes it through a [`Stopwatch`], which keeps the clock read here
//! and hands out only elapsed durations.
//!
//! Code that needs an *advancing timeline* — the windowed metrics in
//! [`crate::window`], the serve telemetry plane built on them — takes a
//! [`Clock`] instead: a shareable time source that reads the real
//! monotonic clock by default and a test-controlled counter under
//! [`Clock::mock`], so window expiry and rate math are deterministic in
//! tests without sleeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Read the monotonic clock: the crate's one clock read, behind every
/// other time source here.
#[inline]
#[allow(clippy::disallowed_methods)] // the one read the clippy.toml ban leaves
pub(crate) fn now() -> Instant {
    Instant::now()
}

/// A started monotonic stopwatch. `Copy`, so it can be captured by the
/// many closures of a fork-join fan-out and read on any worker.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Stopwatch {
        Stopwatch { start: now() }
    }

    /// Time elapsed since [`Stopwatch::start`].
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A shareable time source reporting nanoseconds since its creation.
///
/// [`Clock::real`] anchors at the monotonic clock, so `now_ns` is the
/// process-relative elapsed time; cloning shares the anchor. Under
/// [`Clock::mock`] time stands still until [`Clock::advance`] moves it,
/// which is what makes ring-buffer window expiry testable: record, jump
/// the clock past the window, and assert the samples are gone — no
/// sleeps, no flakes.
#[derive(Debug, Clone)]
pub struct Clock(Arc<ClockInner>);

#[derive(Debug)]
enum ClockInner {
    Real(Instant),
    Mock(AtomicU64),
}

impl Default for Clock {
    fn default() -> Clock {
        Clock::real()
    }
}

impl Clock {
    /// A real monotonic clock anchored now.
    pub fn real() -> Clock {
        Clock(Arc::new(ClockInner::Real(now())))
    }

    /// A mock clock starting at zero; only [`Clock::advance`] moves it.
    pub fn mock() -> Clock {
        Clock(Arc::new(ClockInner::Mock(AtomicU64::new(0))))
    }

    /// Nanoseconds since the clock's creation (saturating at
    /// `u64::MAX`); the mock's current reading.
    pub fn now_ns(&self) -> u64 {
        match &*self.0 {
            ClockInner::Real(anchor) => {
                u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            ClockInner::Mock(ns) => ns.load(Ordering::Relaxed),
        }
    }

    /// Advance a mock clock by `d`. No-op on a real clock (the
    /// monotonic clock advances itself).
    pub fn advance(&self, d: Duration) {
        if let ClockInner::Mock(ns) = &*self.0 {
            let add = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            ns.fetch_add(add, Ordering::Relaxed);
        }
    }

    /// True for clocks built with [`Clock::mock`].
    pub fn is_mock(&self) -> bool {
        matches!(&*self.0, ClockInner::Mock(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elapsed_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        assert!(sw.elapsed().as_nanos() as u64 >= a);
    }

    #[test]
    fn real_clock_advances_on_its_own() {
        let clock = Clock::real();
        assert!(!clock.is_mock());
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
        // advance is a documented no-op for real clocks.
        clock.advance(Duration::from_secs(1));
        assert!(clock.now_ns() < 1_000_000_000 + a + 60_000_000_000);
    }

    #[test]
    fn mock_clock_only_moves_when_told() {
        let clock = Clock::mock();
        assert!(clock.is_mock());
        assert_eq!(clock.now_ns(), 0);
        clock.advance(Duration::from_millis(3));
        assert_eq!(clock.now_ns(), 3_000_000);
        // Clones share the timeline.
        let twin = clock.clone();
        twin.advance(Duration::from_nanos(7));
        assert_eq!(clock.now_ns(), 3_000_007);
    }
}
