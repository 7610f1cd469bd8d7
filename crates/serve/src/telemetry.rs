//! The live telemetry plane: the server's one record of serve events.
//!
//! Each event a server handles — a connection taken, a request
//! answered, a connection shed, a malformed frame, a transport error —
//! is one call into its [`Telemetry`], and each count is stored once:
//! a [`WindowedCounter`] carries both the recent and the lifetime count
//! of its event. Every view of the server reads this record:
//!
//! * the `stats` reply's five `serve.*` pairs
//!   ([`Telemetry::stats_pairs`]);
//! * the [`Request::Metrics`] snapshot
//!   ([`Telemetry::snapshot_json`]): current q/s and tail latency per
//!   query kind over the last few seconds ([`droplens_obs::window`]),
//!   how deep the accept queue is right now, lifetime totals, and
//!   verbatim samples of the slowest requests with their per-phase
//!   timing breakdown (queue wait → decode → engine → write);
//! * the post-mortem [`ServeReport`] and its fault ledger
//!   ([`Telemetry::report`]);
//! * the process registry's `serve.*` counters, which
//!   [`Telemetry::install`] points at this record's lifetime counts.
//!
//! Counts are per server: two servers in one process never see each
//! other's traffic.
//!
//! Every time read goes through one [`Clock`], injected at
//! construction: under [`Clock::mock`] the whole plane — window expiry,
//! rates, slow-query detection — is deterministic in tests. Clippy's
//! `disallowed-methods` (`clippy.toml`) keeps raw `Instant::now` out of
//! this path.
//!
//! The snapshot is one stable JSON document (schema
//! `droplens-metrics/1`, insertion-ordered keys via
//! [`droplens_obs::json`]) so `droplens top`, `droplens slo check`, and
//! CI artifacts all consume the same bytes.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

use droplens_obs::json::JsonObject;
use droplens_obs::{
    Clock, Counter, Gauge, HistogramSummary, Registry, WindowConfig, WindowedCounter,
    WindowedHistogram,
};

use crate::protocol::{Request, KIND_LABELS};
use crate::server::{ServeLedger, ServeReport, LEDGER_SAMPLES_KEPT};

/// How many slow-query samples the ledger retains (most recent first
/// out, oldest evicted).
pub const SLOW_SAMPLES_KEPT: usize = 32;

/// Request-path phases, in pipeline order. `queue_wait` is accept → a
/// worker picking the connection up; the rest bracket one request.
pub const PHASE_LABELS: [&str; 4] = ["queue_wait", "decode", "engine", "write"];

/// Schema tag of the snapshot document.
pub const METRICS_SCHEMA: &str = "droplens-metrics/1";

/// Windowed series for one query kind.
struct KindSeries {
    /// Requests of this kind, inside the window and over the lifetime
    /// (what `droplens top` diffs between snapshots to show
    /// per-interval deltas).
    queries: WindowedCounter,
    /// Failed requests (write errors) inside the window.
    errors: WindowedCounter,
    /// Service latency (decode + engine + write) inside the window.
    latency: WindowedHistogram,
}

/// Nanosecond timing breakdown of one served request.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestTiming {
    /// Frame read + decode.
    pub decode_ns: u64,
    /// Engine answer (plus stats/metrics fill-in).
    pub engine_ns: u64,
    /// Reply serialization + the single `write_all`.
    pub write_ns: u64,
}

impl RequestTiming {
    /// Whole-request service time.
    pub fn total_ns(&self) -> u64 {
        self.decode_ns
            .saturating_add(self.engine_ns)
            .saturating_add(self.write_ns)
    }
}

/// One retained slow-request sample.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// The query kind label.
    pub kind: &'static str,
    /// Canonical rendering of the request's arguments.
    pub args: String,
    /// The timing breakdown that crossed the threshold.
    pub timing: RequestTiming,
}

#[derive(Default)]
struct SlowLedger {
    /// Requests that ever crossed the threshold (not capped).
    seen: u64,
    /// The most recent [`SLOW_SAMPLES_KEPT`] of them.
    samples: VecDeque<SlowQuery>,
}

/// One server's record of serve events. The server shares it behind
/// its existing `Arc`, so no cheap handles are needed.
pub struct Telemetry {
    clock: Clock,
    window: WindowConfig,
    /// Accept-queue capacity, as configured.
    queue_capacity: usize,
    /// Worker threads, as configured.
    workers: usize,
    /// Connections handed to a worker (lifetime only).
    connections: Counter,
    /// Connections waiting in the accept queue right now.
    queue_depth: Gauge,
    /// Connections being served by a worker right now.
    in_flight: Gauge,
    /// Requests answered, connections shed with `Busy`, connections
    /// killed by a malformed frame or a transport error: each over the
    /// window and over the lifetime.
    queries: WindowedCounter,
    shed: WindowedCounter,
    malformed: WindowedCounter,
    io_errors: WindowedCounter,
    /// Per-kind series, indexed by [`Request::kind_index`].
    kinds: Vec<KindSeries>,
    /// Per-phase latency, in [`PHASE_LABELS`] order.
    phases: [WindowedHistogram; PHASE_LABELS.len()],
    slow_threshold_ns: u64,
    slow: Mutex<SlowLedger>,
    /// The first [`LEDGER_SAMPLES_KEPT`] fault messages (malformed
    /// frames and transport errors), in arrival order.
    faults: Mutex<Vec<String>>,
}

impl Telemetry {
    /// Build the record over `clock` with the given window geometry and
    /// slow-query threshold, for a server with `queue_capacity` queue
    /// slots and `workers` workers.
    pub fn new(
        clock: Clock,
        window: WindowConfig,
        slow_threshold_ns: u64,
        queue_capacity: usize,
        workers: usize,
    ) -> Telemetry {
        let kinds = KIND_LABELS
            .iter()
            .map(|_| KindSeries {
                queries: WindowedCounter::new(clock.clone(), window),
                errors: WindowedCounter::new(clock.clone(), window),
                latency: WindowedHistogram::new(clock.clone(), window),
            })
            .collect();
        let phases = std::array::from_fn(|_| WindowedHistogram::new(clock.clone(), window));
        Telemetry {
            queue_capacity,
            workers,
            connections: Counter::new(),
            queue_depth: Gauge::new(),
            in_flight: Gauge::new(),
            queries: WindowedCounter::new(clock.clone(), window),
            shed: WindowedCounter::new(clock.clone(), window),
            malformed: WindowedCounter::new(clock.clone(), window),
            io_errors: WindowedCounter::new(clock.clone(), window),
            kinds,
            phases,
            slow_threshold_ns,
            slow: Mutex::new(SlowLedger::default()),
            faults: Mutex::new(Vec::new()),
            clock,
            window,
        }
    }

    /// Point `registry`'s five `serve.*` counters at this record's
    /// lifetime counts, so a run report reads them live without a second
    /// increment. With several servers in one process, the registry
    /// reads the one installed last.
    pub fn install(&self, registry: &Registry) {
        for (name, count) in self.lifetime_counts() {
            registry.install_counter(name, count.clone());
        }
    }

    /// The clock every timing in this plane reads.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// A connection is about to enter the accept queue. Call *before*
    /// the send: a worker can pull the connection (and charge
    /// [`Telemetry::dequeued`]) the instant it lands, so counting after
    /// the send lets a snapshot observe the dequeue first and read a
    /// negative depth. Revert with [`Telemetry::enqueue_reverted`] if
    /// the send fails.
    pub fn enqueued(&self) {
        self.queue_depth.add(1);
    }

    /// The send that [`Telemetry::enqueued`] announced did not happen
    /// (queue full or closed): take the depth increment back.
    pub fn enqueue_reverted(&self) {
        self.queue_depth.add(-1);
    }

    /// A worker pulled a connection that waited `wait_ns` in the queue.
    pub fn dequeued(&self, wait_ns: u64) {
        self.queue_depth.add(-1);
        let [queue_wait, ..] = &self.phases;
        queue_wait.record(wait_ns);
    }

    /// A worker started serving a connection.
    pub fn conn_started(&self) {
        self.connections.inc();
        self.in_flight.add(1);
    }

    /// A worker finished a connection.
    pub fn conn_finished(&self) {
        self.in_flight.add(-1);
    }

    /// A connection was shed with `Busy`.
    pub fn shed(&self) {
        self.shed.inc();
    }

    /// A connection died on a malformed frame; `message` says where.
    pub fn malformed(&self, message: String) {
        self.malformed.inc();
        self.sample_fault(message);
    }

    /// A connection died on a transport error, reading a request or
    /// writing its reply. (Per-kind error series are bumped by
    /// [`Telemetry::request_served`] with `ok=false`.)
    pub fn io_error(&self, message: String) {
        self.io_errors.inc();
        self.sample_fault(message);
    }

    fn sample_fault(&self, message: String) {
        let mut faults = lock(&self.faults);
        if faults.len() < LEDGER_SAMPLES_KEPT {
            faults.push(message);
        }
    }

    /// `req` was answered and its reply is about to be written: the
    /// total and its kind's series each count it once. Counted before
    /// the write, so a client that reads the reply and then asks
    /// `stats` or `Metrics` on another connection sees it counted.
    pub fn answered(&self, req: &Request) {
        self.queries.inc();
        if let Some(series) = self.kinds.get(req.kind_index()) {
            series.queries.inc();
        }
    }

    /// One answered request's reply went out (or its write failed —
    /// pass `ok=false`): its kind's latency and errors, the phases and
    /// the slow-query ledger. [`Telemetry::answered`] counted it
    /// already. `args` is rendered lazily: only slow requests pay for
    /// it.
    pub fn request_served(
        &self,
        req: &Request,
        ok: bool,
        timing: RequestTiming,
        args: impl FnOnce() -> String,
    ) {
        if let Some(series) = self.kinds.get(req.kind_index()) {
            series.latency.record(timing.total_ns());
            if !ok {
                series.errors.inc();
            }
        }
        let [_, decode, engine, write] = &self.phases;
        decode.record(timing.decode_ns);
        engine.record(timing.engine_ns);
        write.record(timing.write_ns);
        if timing.total_ns() >= self.slow_threshold_ns {
            let sample = SlowQuery {
                kind: req.label(),
                args: args(),
                timing,
            };
            let mut ledger = lock(&self.slow);
            ledger.seen += 1;
            if ledger.samples.len() == SLOW_SAMPLES_KEPT {
                ledger.samples.pop_front();
            }
            ledger.samples.push_back(sample);
        }
    }

    /// The five lifetime counts under their `serve.*` names, sorted by
    /// name.
    fn lifetime_counts(&self) -> [(&'static str, &Counter); 5] {
        [
            ("serve.busy", self.shed.lifetime()),
            ("serve.connections", &self.connections),
            ("serve.io_errors", self.io_errors.lifetime()),
            ("serve.malformed", self.malformed.lifetime()),
            ("serve.queries", self.queries.lifetime()),
        ]
    }

    /// The live pairs a `stats` reply merges in, sorted by name.
    pub fn stats_pairs(&self) -> Vec<(String, u64)> {
        self.lifetime_counts()
            .into_iter()
            .map(|(name, count)| (name.to_owned(), count.value()))
            .collect()
    }

    /// What the server did over its lifetime, fault ledger included.
    pub fn report(&self) -> ServeReport {
        ServeReport {
            connections: self.connections.value(),
            queries: self.queries.lifetime().value(),
            busy: self.shed.lifetime().value(),
            ledger: ServeLedger {
                malformed: self.malformed.lifetime().value(),
                io_errors: self.io_errors.lifetime().value(),
                samples: lock(&self.faults).clone(),
            },
        }
    }

    /// Render the full snapshot as one stable `droplens-metrics/1` JSON
    /// document.
    pub fn snapshot_json(&self) -> String {
        let mut doc = JsonObject::new();
        doc.field_str("schema", METRICS_SCHEMA)
            .field_u64("uptime_ns", self.clock.now_ns())
            .field_u64("window_ns", self.window.window_ns())
            .field_u64("workers", self.workers as u64)
            .field_u64("queue_capacity", self.queue_capacity as u64)
            .field_i64("queue_depth", self.queue_depth.value())
            .field_i64("in_flight", self.in_flight.value());

        let mut window = JsonObject::new();
        window
            .field_u64("queries", self.queries.total())
            .field_f64("qps", self.queries.rate_per_sec())
            .field_u64("shed", self.shed.total())
            .field_u64("malformed", self.malformed.total())
            .field_u64("io_errors", self.io_errors.total());
        doc.field_object("window", window);

        let mut lifetime = JsonObject::new();
        lifetime
            .field_u64("connections", self.connections.value())
            .field_u64("queries", self.queries.lifetime().value())
            .field_u64("busy", self.shed.lifetime().value())
            .field_u64("malformed", self.malformed.lifetime().value())
            .field_u64("io_errors", self.io_errors.lifetime().value());
        doc.field_object("totals", lifetime);

        let kinds = KIND_LABELS
            .iter()
            .zip(&self.kinds)
            .map(|(label, series)| {
                let mut k = JsonObject::new();
                k.field_str("kind", label)
                    .field_u64("total", series.queries.lifetime().value())
                    .field_u64("window_queries", series.queries.total())
                    .field_f64("qps", series.queries.rate_per_sec())
                    .field_u64("window_errors", series.errors.total())
                    .field_object("latency_ns", summary_json(series.latency.summary()));
                k
            })
            .collect();
        doc.field_object_array("kinds", kinds);

        let phases = PHASE_LABELS
            .iter()
            .zip(&self.phases)
            .map(|(label, hist)| {
                let mut p = JsonObject::new();
                p.field_str("phase", label)
                    .field_object("latency_ns", summary_json(hist.summary()));
                p
            })
            .collect();
        doc.field_object_array("phases", phases);

        let (seen, samples) = {
            let ledger = lock(&self.slow);
            (
                ledger.seen,
                ledger.samples.iter().cloned().collect::<Vec<_>>(),
            )
        };
        let mut slow = JsonObject::new();
        slow.field_u64("threshold_ns", self.slow_threshold_ns)
            .field_u64("seen", seen);
        let samples = samples
            .iter()
            .map(|s| {
                let mut o = JsonObject::new();
                o.field_str("kind", s.kind)
                    .field_str("args", &s.args)
                    .field_u64("total_ns", s.timing.total_ns())
                    .field_u64("decode_ns", s.timing.decode_ns)
                    .field_u64("engine_ns", s.timing.engine_ns)
                    .field_u64("write_ns", s.timing.write_ns);
                o
            })
            .collect();
        slow.field_object_array("samples", samples);
        doc.field_object("slow", slow);

        doc.finish()
    }
}

/// Lock `m`, continuing with the data if another thread panicked while
/// holding it: every critical section here leaves its ledger valid.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A histogram summary as the nested object every latency field uses.
fn summary_json(s: HistogramSummary) -> JsonObject {
    let mut o = JsonObject::new();
    o.field_u64("count", s.count)
        .field_u64("min", s.min)
        .field_u64("max", s.max)
        .field_u64("p50", s.p50)
        .field_u64("p90", s.p90)
        .field_u64("p99", s.p99);
    o
}

/// Canonical rendering of a request's arguments for the slow ledger
/// (the kind travels separately).
pub fn request_args(req: &Request) -> String {
    match req {
        Request::Ping | Request::Stats | Request::Metrics => String::new(),
        Request::Visibility { prefix, date } | Request::DropListed { prefix, date } => {
            format!("{prefix} {date}")
        }
        Request::Rov {
            prefix,
            origin,
            date,
            all_tals,
        } => format!(
            "{prefix} AS{} {date}{}",
            origin.value(),
            if *all_tals { " all-tals" } else { "" }
        ),
        Request::DropHistory { prefix } => prefix.to_string(),
        Request::Scorecard { source } => source.clone().unwrap_or_default(),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use droplens_obs::json::parse;
    use std::time::Duration;

    fn plane() -> (Clock, Telemetry) {
        let clock = Clock::mock();
        // 4 × 1 ms window, 1 ms slow threshold: easy to step through.
        let t = Telemetry::new(
            clock.clone(),
            WindowConfig {
                slots: 4,
                slot_ns: 1_000_000,
            },
            1_000_000,
            64,
            4,
        );
        (clock, t)
    }

    fn timing(ns: u64) -> RequestTiming {
        RequestTiming {
            decode_ns: ns / 4,
            engine_ns: ns / 2,
            write_ns: ns - ns / 4 - ns / 2,
        }
    }

    /// One request as the server records it: counted before the reply
    /// write, timed after it.
    fn serve(t: &Telemetry, req: &Request, ok: bool, ns: u64) {
        t.answered(req);
        t.request_served(req, ok, timing(ns), String::new);
    }

    /// A reply being written is already counted under its kind, so a
    /// `Metrics` request served by another worker meanwhile sees it.
    #[test]
    fn a_request_counts_under_its_kind_before_its_reply_is_written() {
        let (_clock, t) = plane();
        t.answered(&Request::Ping);
        let doc = parse(&t.snapshot_json()).unwrap();
        let ping = &doc.get("kinds").unwrap().items()[0];
        assert_eq!(ping.get("kind").unwrap().as_str(), Some("ping"));
        assert_eq!(ping.get("total").unwrap().as_u64(), Some(1));
        assert_eq!(ping.get("window_queries").unwrap().as_u64(), Some(1));
        // Its reply going out adds latency, not a second count.
        t.request_served(&Request::Ping, true, timing(1_000), String::new);
        let doc = parse(&t.snapshot_json()).unwrap();
        let ping = &doc.get("kinds").unwrap().items()[0];
        assert_eq!(ping.get("total").unwrap().as_u64(), Some(1));
        assert_eq!(
            ping.get("latency_ns")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn snapshot_reflects_recorded_requests() {
        let (_clock, t) = plane();
        t.enqueued();
        t.dequeued(500);
        t.conn_started();
        for _ in 0..5 {
            serve(&t, &Request::Ping, true, 1_000);
        }
        serve(&t, &Request::Stats, false, 2_000);

        let doc = parse(&t.snapshot_json()).expect("valid json");
        assert_eq!(doc.get("schema").unwrap().as_str(), Some(METRICS_SCHEMA));
        assert_eq!(doc.get("queue_depth").unwrap().as_i64(), Some(0));
        assert_eq!(doc.get("in_flight").unwrap().as_i64(), Some(1));
        let window = doc.get("window").unwrap();
        assert_eq!(window.get("queries").unwrap().as_u64(), Some(6));

        let kinds = doc.get("kinds").unwrap().items();
        assert_eq!(kinds.len(), KIND_LABELS.len());
        let ping = &kinds[0];
        assert_eq!(ping.get("kind").unwrap().as_str(), Some("ping"));
        assert_eq!(ping.get("window_queries").unwrap().as_u64(), Some(5));
        assert_eq!(
            ping.get("latency_ns").unwrap().get("p99").unwrap().as_u64(),
            Some(1_000)
        );
        let stats = &kinds[6];
        assert_eq!(stats.get("window_errors").unwrap().as_u64(), Some(1));

        let phases = doc.get("phases").unwrap().items();
        assert_eq!(phases.len(), PHASE_LABELS.len());
        assert_eq!(phases[0].get("phase").unwrap().as_str(), Some("queue_wait"));
        assert_eq!(
            phases[0]
                .get("latency_ns")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn window_slides_past_old_requests() {
        let (clock, t) = plane();
        for _ in 0..10 {
            serve(&t, &Request::Ping, true, 100);
        }
        let doc = parse(&t.snapshot_json()).unwrap();
        assert_eq!(
            doc.get("window").unwrap().get("queries").unwrap().as_u64(),
            Some(10)
        );

        clock.advance(Duration::from_millis(10)); // far past the 4 ms window
        let doc = parse(&t.snapshot_json()).unwrap();
        assert_eq!(
            doc.get("window").unwrap().get("queries").unwrap().as_u64(),
            Some(0)
        );
        // Lifetime totals survive the slide.
        assert_eq!(
            doc.get("totals").unwrap().get("queries").unwrap().as_u64(),
            Some(10)
        );
        let ping = &doc.get("kinds").unwrap().items()[0];
        assert_eq!(ping.get("total").unwrap().as_u64(), Some(10));
        assert_eq!(ping.get("window_queries").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn slow_queries_land_in_the_ledger_with_args() {
        let (_clock, t) = plane();
        // Below threshold: not sampled, and args are never rendered.
        t.request_served(&Request::Ping, true, timing(999_999), || {
            panic!("args rendered for a fast request")
        });
        let req = Request::DropHistory {
            prefix: "198.51.100.0/24".parse().unwrap(),
        };
        for _ in 0..SLOW_SAMPLES_KEPT + 5 {
            t.request_served(&req, true, timing(5_000_000), || request_args(&req));
        }
        let doc = parse(&t.snapshot_json()).unwrap();
        let slow = doc.get("slow").unwrap();
        assert_eq!(
            slow.get("seen").unwrap().as_u64(),
            Some(SLOW_SAMPLES_KEPT as u64 + 5)
        );
        let samples = slow.get("samples").unwrap().items();
        assert_eq!(samples.len(), SLOW_SAMPLES_KEPT, "ledger is bounded");
        let s = &samples[0];
        assert_eq!(s.get("kind").unwrap().as_str(), Some("drop_history"));
        assert_eq!(s.get("args").unwrap().as_str(), Some("198.51.100.0/24"));
        assert_eq!(s.get("total_ns").unwrap().as_u64(), Some(5_000_000));
    }

    /// A failed reply write is one `io_error` call, and every view of
    /// the record reads it the same way.
    #[test]
    fn a_write_error_shows_up_once_in_every_view() {
        let (_clock, t) = plane();
        t.conn_started();
        serve(&t, &Request::Ping, false, 1_000);
        t.io_error("reply write: transport: broken pipe".to_owned());
        t.conn_finished();

        let report = t.report();
        assert_eq!(report.ledger.io_errors, 1);
        assert_eq!(
            report.ledger.samples,
            ["reply write: transport: broken pipe"]
        );
        assert_eq!((report.connections, report.queries), (1, 1));
        let pairs = t.stats_pairs();
        assert!(
            pairs.contains(&("serve.io_errors".to_owned(), 1)),
            "{pairs:?}"
        );
        let doc = parse(&t.snapshot_json()).unwrap();
        assert_eq!(
            doc.get("totals")
                .unwrap()
                .get("io_errors")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        assert_eq!(
            doc.get("window")
                .unwrap()
                .get("io_errors")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }

    #[test]
    fn fault_samples_keep_the_first_few() {
        let (_clock, t) = plane();
        for i in 0..LEDGER_SAMPLES_KEPT + 3 {
            t.malformed(format!("bad frame {i}"));
        }
        t.io_error("late".to_owned());
        let ledger = t.report().ledger;
        assert_eq!(
            (ledger.malformed, ledger.io_errors),
            (LEDGER_SAMPLES_KEPT as u64 + 3, 1)
        );
        assert_eq!(ledger.samples.len(), LEDGER_SAMPLES_KEPT);
        assert_eq!(ledger.samples[0], "bad frame 0");
    }

    /// `stats` names the five lifetime counts in sorted order, and the
    /// registry install reads the same handles live.
    #[test]
    fn lifetime_counts_are_shared_with_stats_and_the_registry() {
        let (_clock, t) = plane();
        let registry = Registry::new();
        t.install(&registry);
        t.conn_started();
        serve(&t, &Request::Ping, true, 1_000);
        t.shed();
        let names: Vec<String> = t.stats_pairs().into_iter().map(|(n, _)| n).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(names.len(), 5);
        let counters = registry.report().counters;
        for (name, value) in t.stats_pairs() {
            assert_eq!(counters.get(&name), Some(&value), "{name}");
        }
        assert_eq!(counters["serve.queries"], 1);
        assert_eq!(counters["serve.busy"], 1);
    }

    #[test]
    fn request_args_are_canonical() {
        assert_eq!(request_args(&Request::Ping), "");
        assert_eq!(
            request_args(&Request::Rov {
                prefix: "203.0.113.0/24".parse().unwrap(),
                origin: droplens_net::Asn(64500),
                date: "2020-06-15".parse().unwrap(),
                all_tals: true,
            }),
            "203.0.113.0/24 AS64500 2020-06-15 all-tals"
        );
        assert_eq!(
            request_args(&Request::Scorecard {
                source: Some("fig2".to_owned())
            }),
            "fig2"
        );
    }
}
