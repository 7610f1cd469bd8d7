//! Stopping an idle server or chaos proxy. Both block in `accept`, and
//! `stop()` wakes them with a connection of its own: it must return
//! promptly and count nothing, since nobody connected.
//!
//! This is its own test binary because a `ServeReport`'s connection,
//! query and busy counts are process-wide registry counters: in
//! `tests/serve.rs` other servers run alongside, so "0 connections"
//! could not be asserted there.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use droplens_core::Study;
use droplens_faults::{ChaosProfile, ChaosProxy};
use droplens_obs::json::Value;
use droplens_serve::{Engine, Server, ServerConfig};
use droplens_synth::{World, WorldConfig};

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

fn idle_server_stops_and_counts_nothing(addr: SocketAddr) {
    let world = World::generate(7, &WorldConfig::small());
    let engine = Arc::new(Engine::new(Arc::new(Study::from_world(&world))));
    let handle = Server::start(
        engine,
        ServerConfig {
            addr,
            ..ServerConfig::default()
        },
    )
    .expect("bind server");

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
