//! Peak live heap, sampled from the tracking allocator.
//!
//! `droplens_obs::alloc::snapshot().live_bytes` is exact across threads
//! (allocations minus frees over every shard), but it is a point in
//! time. A sampler thread polls it every [`POLL`] and keeps the highest
//! reading since [`PeakSampler::start`], so a peak that lasts
//! longer than that is seen whichever thread causes it. The pipeline's
//! peaks are plateaus hundreds of milliseconds long; a slower poll
//! would miss nothing there and wakes the 2-core host less often.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const POLL: Duration = Duration::from_millis(5);

struct Shared {
    peak: AtomicI64,
    stop: AtomicBool,
}

pub struct PeakSampler {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

fn live_bytes() -> i64 {
    droplens_obs::alloc::snapshot().live_bytes
}

impl PeakSampler {
    pub fn start() -> PeakSampler {
        let shared = Arc::new(Shared {
            peak: AtomicI64::new(live_bytes()),
            stop: AtomicBool::new(false),
        });
        let polled = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("peak-sampler".to_owned())
            .spawn(move || {
                while !polled.stop.load(Ordering::SeqCst) {
                    polled.peak.fetch_max(live_bytes(), Ordering::SeqCst);
                    std::thread::sleep(POLL);
                }
            })
            .expect("spawning the peak sampler thread");
        PeakSampler {
            shared,
            thread: Some(thread),
        }
    }

    /// Highest live heap since the start, in MB (10^6 bytes).
    pub fn peak_mb(&self) -> f64 {
        let now = live_bytes();
        self.shared.peak.fetch_max(now, Ordering::SeqCst).max(now) as f64 / 1e6
    }
}

impl Drop for PeakSampler {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}
