//! droplens-obs: pipeline-wide instrumentation for droplens.
//!
//! A zero-heavy-dependency observability layer: counters, gauges, and
//! log-bucket histograms ([`metrics`]), a thread-safe [`Registry`]
//! collecting them, and two renderers — a human text summary and a
//! stable hand-rolled JSON document ([`RunReport`]) suitable for
//! machine-readable run reports.
//!
//! Timing has one primitive, the RAII [`Span`] ([`span`]). A span
//! opened through [`Registry::span`] nests under the span open on its
//! thread (or on the thread that forked it), and its close event adds
//! to the registry's per-path aggregate — the run report's span table.
//! The same close event feeds [`trace`] when the global tracer is
//! enabled: a hierarchical timeline with per-worker tracks, Chrome
//! trace-event JSON export (loadable in Perfetto / `chrome://tracing`),
//! and a deterministic text tree for test assertions. Tracing is off by
//! default.
//!
//! The pipeline's built-in instrumentation records into the process-wide
//! [`global`] registry; libraries that want isolation can carry their own
//! [`Registry`] (cloning is one `Arc`).
//!
//! The third observability axis is memory: [`alloc`] provides an
//! allocation-tracking `#[global_allocator]` wrapper ([`TrackingAlloc`])
//! with per-thread shard counters. When it is installed, every span
//! opens one allocation mark, so registry rows gain
//! `alloc_bytes`/`freed_bytes` columns, trace events carry
//! `alloc_bytes`/`freed_bytes`/`peak_delta`, traces grow per-worker
//! `live_bytes` counter timelines, and run reports gain `mem.*` gauges.
//!
//! ```
//! let reg = droplens_obs::Registry::new();
//! let parsed = reg.counter("bgp.records.parsed");
//! {
//!     let _span = reg.span("parse");
//!     parsed.add(3);
//! }
//! let report = reg.report();
//! assert_eq!(report.counters["bgp.records.parsed"], 3);
//! assert_eq!(report.spans["parse"].count, 1);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod clock;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod report;
pub mod run_report;
pub mod span;
pub mod trace;
pub mod window;

pub use alloc::{MemCounts, MemDelta, MemMark, MemSnapshot, TrackingAlloc};
pub use clock::{Clock, Stopwatch};
pub use metrics::{Counter, Gauge, Histogram, HistogramSummary};
pub use registry::{global, ErrorLog, Registry, SpanStat, ERROR_SAMPLES_KEPT};
pub use run_report::{RunReport, SpanRollup};
pub use span::{Frame, Span};
pub use trace::{ArgValue, Trace, TraceEvent, Tracer};
pub use window::{WindowConfig, WindowedCounter, WindowedHistogram};
