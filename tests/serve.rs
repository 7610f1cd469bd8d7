//! End-to-end acceptance tests for `droplens serve`, mirroring the
//! robustness contract in the crate docs:
//!
//! * **byte identity** — every served answer equals the offline
//!   pipeline's answer for the same question, bit-for-bit;
//! * **overload** — with the queue saturated, a new connection gets a
//!   typed `Busy` within the deadline, not a hang and not a drop;
//! * **drain** — stopping under load never tears a reply: every frame
//!   a client starts receiving arrives whole;
//! * **chaos** — behind a fault-injecting proxy (corruption,
//!   truncation, delays, resets) every well-formed query still
//!   succeeds within its retry budget, with answers unchanged, and the
//!   server neither crashes nor deadlocks;
//! * **pool** — one busy worker never holds up the others: a client
//!   that pins a worker cannot delay another client's answer;
//! * **accept** — a connection is taken as soon as it arrives, so
//!   sequential connect-per-query traffic is paced by the transport,
//!   not by the acceptor;
//! * **stop** — an idle server or chaos proxy, blocked in `accept`,
//!   stops promptly and counts nothing;
//! * **per-server counts** — every count a server reports is its own,
//!   so the servers these tests start side by side never see each
//!   other's traffic.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use droplens_core::{paper, Study};
use droplens_faults::{ChaosProfile, ChaosProxy};
use droplens_obs::json::Value;
use droplens_obs::Stopwatch;
use droplens_serve::net::DeadlineStream;
use droplens_serve::{
    loadgen, Client, ClientConfig, Engine, LoadConfig, Reply, Request, Server, ServerConfig,
    WireError,
};
use droplens_synth::{World, WorldConfig};

/// One small world, indexed the same way the offline pipeline does it.
fn engine() -> Arc<Engine> {
    let world = World::generate(7, &WorldConfig::small());
    Arc::new(Engine::new(Arc::new(Study::from_world(&world))))
}

fn start(engine: &Arc<Engine>, config: ServerConfig) -> droplens_serve::ServerHandle {
    Server::start(Arc::clone(engine), config).expect("bind server")
}

/// The value of the `stats` pair `name`.
fn stat(pairs: &[(String, u64)], name: &str) -> Option<u64> {
    pairs.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

#[test]
fn served_answers_are_byte_identical_to_offline() {
    let engine = engine();
    let handle = start(&engine, ServerConfig::default());

    // The load generator checks every deterministic reply against the
    // local oracle engine; any divergence is a `mismatched` count.
    let config = LoadConfig {
        connections: 4,
        queries_per_conn: 25,
        ..LoadConfig::default()
    };
    let report = loadgen::run(handle.addr(), &engine, &config);
    assert!(report.clean(), "{}\n{:?}", report.summary(), report.samples);
    assert_eq!(report.ok, report.sent);

    // The scorecard reply is the offline rendering, byte-for-byte.
    let mut client = Client::new(ClientConfig::to_addr(handle.addr()));
    let reply = client
        .query(&Request::Scorecard { source: None })
        .expect("scorecard query");
    let offline = paper::render(&paper::scorecard(engine.study()));
    assert_eq!(reply, Reply::Scorecard { text: offline });

    let served = handle.stop();
    assert_eq!(served.ledger.malformed, 0, "{:?}", served.ledger.samples);
}

#[test]
fn stats_merges_live_counters_sorted() {
    let engine = engine();
    let handle = start(&engine, ServerConfig::default());
    let mut client = Client::new(ClientConfig::to_addr(handle.addr()));

    client.query(&Request::Ping).expect("ping");
    let reply = client.query(&Request::Stats).expect("stats");
    let Reply::Stats { pairs } = reply else {
        panic!("expected Stats, got {reply:?}");
    };
    let names: Vec<&str> = pairs.iter().map(|(n, _)| n.as_str()).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted, "stats pairs arrive sorted");
    assert_eq!(
        stat(&pairs, "serve.queries"),
        Some(1),
        "the ping was counted, and only this server's"
    );
    assert!(
        names.iter().any(|n| n.starts_with("study.")),
        "study facts present: {names:?}"
    );
    handle.stop();
}

/// Two servers in one process: A answers 3 pings and then a `stats`,
/// B answers 5 pings in between. Each server's `stats`, final `Metrics`
/// totals and `ServeReport` count its own traffic and nothing else.
#[test]
fn two_servers_in_one_process_count_only_their_own_traffic() {
    let engine = engine();
    let a = start(&engine, ServerConfig::default());
    let b = start(&engine, ServerConfig::default());
    let mut client_a = Client::new(ClientConfig::to_addr(a.addr()));
    let mut client_b = Client::new(ClientConfig::to_addr(b.addr()));
    for _ in 0..3 {
        assert_eq!(client_a.query(&Request::Ping).expect("ping A"), Reply::Pong);
    }
    for _ in 0..5 {
        assert_eq!(client_b.query(&Request::Ping).expect("ping B"), Reply::Pong);
    }
    let reply = client_a.query(&Request::Stats).expect("stats A");
    let Reply::Stats { pairs } = reply else {
        panic!("expected Stats, got {reply:?}");
    };
    assert_eq!(stat(&pairs, "serve.queries"), Some(3), "{pairs:?}");

    // One connection per query: A served 4 (the stats included), B 5.
    for (name, handle, own) in [("A", a, 4), ("B", b, 5)] {
        let doc = droplens_obs::json::parse(&handle.metrics_json()).expect("metrics JSON");
        let total = |key: &str| {
            doc.get("totals")
                .and_then(|t| t.get(key))
                .and_then(Value::as_u64)
        };
        assert_eq!(
            (total("connections"), total("queries")),
            (Some(own), Some(own)),
            "server {name}'s Metrics totals"
        );
        let report = handle.stop();
        assert_eq!(
            (report.connections, report.queries),
            (own, own),
            "server {name}: {}",
            report.summary()
        );
    }
}

/// Run `f` on its own thread and wait at most 5 s for it, so a `stop()`
/// whose wake was lost fails the test instead of hanging it.
fn within_watchdog<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let thread = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("stop() returned within the 5 s watchdog");
    thread.join().expect("watchdog thread");
    out
}

/// Stop a server nobody connected to: `stop()` wakes the acceptor with
/// a connection of its own, which must return promptly and be counted
/// nowhere.
fn idle_server_stops_and_counts_nothing(addr: SocketAddr) {
    let handle = start(
        &engine(),
        ServerConfig {
            addr,
            ..ServerConfig::default()
        },
    );
    let (snapshot, report) = within_watchdog(move || {
        handle.request_drain();
        let snapshot = handle.metrics_json();
        (snapshot, handle.stop())
    });
    assert_eq!(
        (
            report.connections,
            report.queries,
            report.busy,
            report.ledger.io_errors
        ),
        (0, 0, 0, 0),
        "bound to {addr}: {}",
        report.summary()
    );
    let doc = droplens_obs::json::parse(&snapshot).expect("metrics JSON");
    assert_eq!(doc.get("queue_depth").and_then(Value::as_i64), Some(0));
    assert_eq!(doc.get("in_flight").and_then(Value::as_i64), Some(0));
}

#[test]
fn idle_loopback_server_stops_promptly() {
    idle_server_stops_and_counts_nothing(SocketAddr::from(([127, 0, 0, 1], 0)));
}

/// Bound to every interface, the wake goes to loopback.
#[test]
fn idle_wildcard_server_stops_promptly() {
    idle_server_stops_and_counts_nothing(SocketAddr::from(([0, 0, 0, 0], 0)));
}

#[test]
fn idle_chaos_proxy_stops_promptly() {
    // An upstream that is never dialled: no client ever connects.
    let upstream = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
    let proxy = ChaosProxy::start(
        upstream.local_addr().expect("upstream address"),
        ChaosProfile::standard(5),
    )
    .expect("start proxy");
    let log = within_watchdog(move || proxy.stop());
    assert_eq!(log.connections, 0, "{log:?}");
}

/// One client, one worker, a fresh connection per query: 1000 pings
/// take about 0.1 s. Against a listener polled on a 2 ms sleep each
/// connection waits out most of the sleep, and the loop takes 1.7 s or
/// more.
#[test]
fn sequential_pings_are_not_paced_by_the_acceptor() {
    let engine = engine();
    let handle = start(
        &engine,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::new(ClientConfig::to_addr(handle.addr()));
    let stopwatch = Stopwatch::start();
    for _ in 0..1000 {
        assert_eq!(client.query(&Request::Ping).expect("ping"), Reply::Pong);
    }
    let elapsed = stopwatch.elapsed();
    handle.stop();
    assert!(
        elapsed < Duration::from_secs(1),
        "1000 sequential pings took {elapsed:?}"
    );
}

/// No socket can carry a zero deadline, so `start` refuses it before
/// binding: the address is already taken, and the error must still be
/// `InvalidInput`, not `AddrInUse`.
#[test]
fn zero_deadline_is_refused_before_binding() {
    let engine = engine();
    let taken = TcpListener::bind("127.0.0.1:0").expect("bind placeholder");
    let config = ServerConfig {
        addr: taken.local_addr().expect("placeholder address"),
        deadline: Duration::ZERO,
        ..ServerConfig::default()
    };
    match Server::start(Arc::clone(&engine), config) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
        Ok(handle) => {
            handle.stop();
            panic!("a zero deadline was accepted");
        }
    }
}

/// A connection that pins one worker: it never stops asking, and every
/// answered request renews the read deadline, so the worker stays
/// inside it until [`Occupier::release`].
struct Occupier {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl Occupier {
    /// Connect and start asking; returns once the first Pong proves a
    /// worker has taken the connection out of the queue.
    #[allow(clippy::panic)] // test helper: a reply other than Pong fails the test
    fn pin(addr: SocketAddr) -> Occupier {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conn = DeadlineStream::connect(addr, Duration::from_secs(2))
                    .expect("occupier connect");
                let mut first = true;
                while !stop.load(Ordering::Relaxed) {
                    Request::Ping.write_to(&mut conn).expect("occupier write");
                    match Reply::read_from(&mut conn) {
                        Ok(Some(Reply::Pong)) => {}
                        other => panic!("occupier expected Pong, got {other:?}"),
                    }
                    if first {
                        first = false;
                        ready_tx.send(()).expect("signal readiness");
                    }
                }
            })
        };
        ready_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("worker pinned");
        Occupier { stop, thread }
    }

    /// Stop asking and wait for the connection to close.
    fn release(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("occupier thread");
    }
}

/// With one of two workers pinned, another client's `Ping` is answered
/// at once, well inside the 2 s deadline. A worker that kept the queue
/// lock while it served its connection would leave the other unable to
/// take the `Ping` until the occupier let go.
#[test]
fn one_busy_worker_never_holds_up_the_pool() {
    let engine = engine();
    let handle = start(
        &engine,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();
    let occupier = Occupier::pin(addr);

    let stopwatch = Stopwatch::start();
    let mut conn = DeadlineStream::connect(addr, Duration::from_secs(2)).expect("connect");
    Request::Ping.write_to(&mut conn).expect("ping write");
    let reply = Reply::read_from(&mut conn);
    let waited = stopwatch.elapsed();

    occupier.release();
    drop(conn);
    handle.stop();
    assert!(
        matches!(reply, Ok(Some(Reply::Pong))),
        "expected Pong, got {reply:?}"
    );
    assert!(
        waited < Duration::from_millis(500),
        "the free worker took {waited:?} to answer"
    );
}

/// Saturate a 1-worker, depth-1 queue, then connect once more: the
/// extra connection must receive a typed `Busy` within the deadline
/// (the probe read would give up after 1 s otherwise).
#[test]
fn saturated_queue_sheds_with_typed_busy() {
    let engine = engine();
    let handle = start(
        &engine,
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    let occupier = Occupier::pin(addr);

    // With the worker pinned, this idle connection fills the depth-1
    // queue and stays there...
    let filler = DeadlineStream::connect(addr, Duration::from_secs(1)).expect("connect filler");
    std::thread::sleep(Duration::from_millis(100));

    // ...so the next connection must be shed at accept.
    let mut probe = DeadlineStream::connect(addr, Duration::from_secs(1)).expect("connect probe");
    match Reply::read_from(&mut probe) {
        Ok(Some(Reply::Busy)) => {}
        other => panic!("expected a typed Busy within the deadline, got {other:?}"),
    }

    occupier.release();
    drop(filler);
    drop(probe);
    let report = handle.stop();
    assert!(report.busy >= 1, "{}", report.summary());
}

/// Hammer the server from several raw-protocol threads, then drain it
/// mid-flight. Clean closes and connect failures are expected; a frame
/// that *starts* arriving and breaks — a torn reply — never is.
#[test]
fn drain_under_load_never_tears_a_reply() {
    let engine = engine();
    let handle = start(&engine, ServerConfig::default());
    let addr = handle.addr();

    let torn = Arc::new(AtomicU64::new(0));
    let mismatched = Arc::new(AtomicU64::new(0));
    let ok = Arc::new(AtomicU64::new(0));

    let threads: Vec<_> = (0..6)
        .map(|_| {
            let (torn, mismatched, ok) =
                (Arc::clone(&torn), Arc::clone(&mismatched), Arc::clone(&ok));
            let oracle = Arc::clone(&engine);
            std::thread::spawn(move || {
                for _ in 0..500 {
                    let Ok(mut conn) = DeadlineStream::connect(addr, Duration::from_secs(1)) else {
                        return; // server gone: drain finished
                    };
                    let req = Request::Ping;
                    if req.write_to(&mut conn).is_err() {
                        continue; // request lost in the drain: retryable
                    }
                    match Reply::read_from(&mut conn) {
                        Ok(Some(reply @ (Reply::Pong | Reply::Busy))) => {
                            if reply == Reply::Pong {
                                if oracle.answer(&req) != reply {
                                    mismatched.fetch_add(1, Ordering::Relaxed);
                                }
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Ok(Some(other)) => panic!("unexpected reply {other:?}"),
                        Ok(None) => {} // closed before replying: whole, just empty
                        Err(WireError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(WireError::Frame(_)) => {
                            torn.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(WireError::Io(_)) => {} // reset/timeout: transport, not torn
                    }
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(150));
    handle.request_drain();
    std::thread::sleep(Duration::from_millis(50));
    let report = handle.stop();
    for t in threads {
        t.join().expect("client thread");
    }

    assert_eq!(torn.load(Ordering::Relaxed), 0, "torn replies during drain");
    assert_eq!(mismatched.load(Ordering::Relaxed), 0);
    assert!(ok.load(Ordering::Relaxed) > 0, "some queries succeeded");
    assert!(report.queries > 0, "{}", report.summary());
}

/// The headline gate: behind the standard chaos profile (1% byte
/// corruption, 0.5% truncation, 0.5% resets, 2% delays) every
/// well-formed query still succeeds within its retry budget and every
/// answer is byte-identical to the offline oracle.
#[test]
fn chaos_every_query_succeeds_and_matches_offline() {
    let engine = engine();
    let handle = start(&engine, ServerConfig::default());
    let proxy = ChaosProxy::start(handle.addr(), ChaosProfile::standard(99)).expect("start proxy");

    let config = LoadConfig {
        connections: 6,
        queries_per_conn: 20,
        seed: 11,
        ..LoadConfig::default()
    };
    let report = loadgen::run(proxy.addr(), &engine, &config);
    let chaos = proxy.stop();
    assert!(
        chaos.total_faults() > 0,
        "the proxy injected nothing: {chaos:?}"
    );
    assert!(
        report.clean(),
        "under chaos {chaos:?}:\n{}\nsamples: {:?}",
        report.summary(),
        report.samples
    );

    // No crash, no deadlock: the server still answers directly, and
    // stop() returns with the fault ledger intact.
    let mut client = Client::new(ClientConfig::to_addr(handle.addr()));
    assert_eq!(client.query(&Request::Ping).expect("ping"), Reply::Pong);
    let served = handle.stop();
    assert!(served.queries >= report.ok, "{}", served.summary());
}

/// Fetch and parse one `Metrics` frame from a running server.
#[allow(clippy::panic)] // test helper: a wrong reply kind fails the test
fn metrics_snapshot(client: &mut Client) -> droplens_obs::json::Value {
    let reply = client.query(&Request::Metrics).expect("metrics query");
    let Reply::Metrics { json } = reply else {
        panic!("expected Metrics, got {reply:?}");
    };
    let doc = droplens_obs::json::parse(&json).expect("metrics JSON parses");
    assert_eq!(
        doc.get("schema").and_then(|v| v.as_str()),
        Some("droplens-metrics/1"),
        "schema marker present"
    );
    doc
}

/// The telemetry plane answers over the wire: after a known mix of
/// requests, the `Metrics` frame carries per-kind windowed series whose
/// counts cover that mix, live gauges sized to the server config, and
/// coherent latency quantiles.
#[test]
fn metrics_frames_expose_windowed_series() {
    let engine = engine();
    let handle = start(
        &engine,
        ServerConfig {
            workers: 2,
            queue_depth: 16,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::new(ClientConfig::to_addr(handle.addr()));

    let prefix = engine.study().entries[0].prefix();
    let date = engine.study().config.window.start();
    for _ in 0..3 {
        client.query(&Request::Ping).expect("ping");
    }
    for _ in 0..2 {
        client
            .query(&Request::Visibility { prefix, date })
            .expect("visibility");
    }

    let doc = metrics_snapshot(&mut client);
    assert_eq!(doc.get("workers").and_then(Value::as_u64), Some(2));
    assert_eq!(doc.get("queue_capacity").and_then(Value::as_u64), Some(16));
    let window_queries = doc
        .get("window")
        .and_then(|w| w.get("queries"))
        .and_then(Value::as_u64)
        .expect("window.queries");
    assert!(
        window_queries >= 5,
        "window covers the mix: {window_queries}"
    );
    let qps = doc
        .get("window")
        .and_then(|w| w.get("qps"))
        .and_then(Value::as_f64)
        .expect("window.qps");
    assert!(qps > 0.0, "fresh traffic has a rate: {qps}");

    let kinds = doc.get("kinds").expect("kinds array");
    let find = |label: &str| {
        kinds
            .items()
            .iter()
            .find(|k| k.get("kind").and_then(Value::as_str) == Some(label))
            .unwrap_or_else(|| panic!("kind {label} present"))
    };
    let ping = find("ping");
    assert!(ping.get("total").and_then(Value::as_u64).expect("total") >= 3);
    assert!(
        ping.get("window_queries")
            .and_then(Value::as_u64)
            .expect("window_queries")
            >= 3
    );
    let p50 = ping
        .get("latency_ns")
        .and_then(|l| l.get("p50"))
        .and_then(Value::as_u64)
        .expect("p50");
    let p99 = ping
        .get("latency_ns")
        .and_then(|l| l.get("p99"))
        .and_then(Value::as_u64)
        .expect("p99");
    assert!(p50 <= p99, "quantiles ordered: p50 {p50} p99 {p99}");
    let visibility = find("visibility");
    assert!(
        visibility
            .get("total")
            .and_then(Value::as_u64)
            .expect("total")
            >= 2
    );
    // A kind never sent reports zeros, not absence.
    let rov = find("rov");
    assert_eq!(rov.get("total").and_then(Value::as_u64), Some(0));

    handle.stop();
}

/// Gauge ground truth under sustained overload: with the lone worker
/// pinned (in-flight = 1) and the depth-1 queue filled (queue depth =
/// 1), every extra connection is shed — and the telemetry snapshot must
/// agree with that externally-arranged state exactly.
#[test]
fn overload_gauges_match_occupier_ground_truth() {
    let engine = engine();
    let handle = start(
        &engine,
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
    );
    let addr = handle.addr();

    // As in the typed-Busy test: the occupier holds the worker, the
    // filler holds the queue slot.
    let occupier = Occupier::pin(addr);
    let filler = DeadlineStream::connect(addr, Duration::from_secs(1)).expect("connect filler");
    std::thread::sleep(Duration::from_millis(100));

    // Shed three probes; each must get the typed Busy.
    const PROBES: u64 = 3;
    for _ in 0..PROBES {
        let mut probe =
            DeadlineStream::connect(addr, Duration::from_secs(1)).expect("connect probe");
        match Reply::read_from(&mut probe) {
            Ok(Some(Reply::Busy)) => {}
            other => panic!("expected Busy, got {other:?}"),
        }
    }

    // The worker is pinned, so read the snapshot off the handle (the
    // wire path is covered by `metrics_frames_expose_windowed_series`).
    let doc = droplens_obs::json::parse(&handle.metrics_json()).expect("metrics JSON");
    assert_eq!(
        doc.get("queue_depth").and_then(Value::as_i64),
        Some(1),
        "the filler holds the queue slot"
    );
    assert_eq!(
        doc.get("in_flight").and_then(Value::as_i64),
        Some(1),
        "the occupier holds the worker"
    );
    let shed = doc
        .get("window")
        .and_then(|w| w.get("shed"))
        .and_then(Value::as_u64)
        .expect("window.shed");
    assert!(shed >= PROBES, "all {PROBES} probes counted, saw {shed}");
    let busy = doc
        .get("totals")
        .and_then(|t| t.get("busy"))
        .and_then(Value::as_u64)
        .expect("totals.busy");
    assert!(busy >= PROBES, "lifetime busy covers the probes: {busy}");

    occupier.release();
    drop(filler);
    let report = handle.stop();
    assert!(report.busy >= PROBES, "{}", report.summary());
}

/// Telemetry under chaos: behind the standard fault profile, every
/// `Metrics` frame that survives the retry budget still parses as a
/// coherent `droplens-metrics/1` document — corruption can cost
/// retries, never a torn or half-rendered snapshot.
#[test]
fn chaos_metrics_frames_stay_coherent() {
    let engine = engine();
    let handle = start(&engine, ServerConfig::default());
    let proxy = ChaosProxy::start(handle.addr(), ChaosProfile::standard(23)).expect("start proxy");
    let mut client = Client::new(ClientConfig::to_addr(proxy.addr()));

    let mut frames = 0u64;
    for i in 0..120 {
        if i % 3 == 0 {
            let doc = metrics_snapshot(&mut client);
            assert!(
                doc.get("uptime_ns").and_then(Value::as_u64).is_some(),
                "snapshot carries uptime"
            );
            frames += 1;
        } else {
            assert_eq!(client.query(&Request::Ping).expect("ping"), Reply::Pong);
        }
    }
    assert!(frames >= 40, "all metrics queries answered: {frames}");

    let chaos = proxy.stop();
    assert!(
        chaos.total_faults() > 0,
        "the proxy injected nothing: {chaos:?}"
    );
    handle.stop();
}
