//! The server: bounded accept queue, worker pool, deadline-guarded
//! connections, typed overload shedding, and graceful drain.
//!
//! Architecture (all std, no async runtime):
//!
//! ```text
//!   acceptor thread ──try_send──▶ bounded queue ──recv──▶ N workers
//!        │                            │                       │
//!        │ full → Busy + close        │ drain → Busy + close  │ serve
//!        ▼                            ▼                       ▼
//!    stops on the shutdown flag; dropping the sender ends the workers
//! ```
//!
//! * The acceptor blocks in `accept` and checks the shutdown flag each
//!   time it returns. A drain sets the flag, then wakes the acceptor
//!   with a connection of its own ([`ServerHandle::request_drain`]);
//!   whatever is accepted after the flag, the wake included, is dropped
//!   uncounted, like the backlog the closing listener resets.
//!   [`ServerHandle::stop`] re-sends the wake until the acceptor has
//!   returned, so a lost wake cannot hang it.
//! * The queue is a `sync_channel` of depth [`ServerConfig::queue_depth`];
//!   when `try_send` fails the acceptor answers [`Reply::Busy`] inside
//!   the write deadline and closes — overload is a typed reply, never an
//!   unbounded queue and never a hang.
//! * Workers check the shutdown flag **between** requests only: a reply
//!   in flight always goes out whole (single `write_all` per frame), so
//!   a drain can tear nothing.
//! * A malformed frame closes only its own connection, after a best-
//!   effort located [`Reply::Error`]. So does a transport error, on the
//!   read of a request or on the write of its reply. Both faults are
//!   counted and sampled in the [`ServeLedger`], mirroring the
//!   ingestion quarantine.
//! * Each event is one call into the server's [`Telemetry`], its only
//!   record: the `stats` reply, the `Metrics` snapshot and the
//!   [`ServeReport`] all read it, so every count is this server's own.
//!   [`Server::start`] points the process registry's `serve.*`
//!   counters at the same record; with several servers in one process,
//!   the registry reads the one started last.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use droplens_obs::json::escape;
use droplens_obs::{Clock, WindowConfig};

use crate::engine::Engine;
use crate::net::DeadlineStream;
use crate::protocol::{self, FrameError, Reply, Request, WireError};
use crate::telemetry::{request_args, RequestTiming, Telemetry};

/// How many fault messages the ledger retains verbatim.
pub const LEDGER_SAMPLES_KEPT: usize = 16;

/// Connect timeout of a drain wake, and how long [`ServerHandle::stop`]
/// waits for the acceptor to return before it sends another.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (the bound address is on
    /// the handle).
    pub addr: std::net::SocketAddr,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded queue depth between acceptor and workers; accepts beyond
    /// it shed with [`Reply::Busy`].
    pub queue_depth: usize,
    /// Read/write deadline installed on every connection.
    pub deadline: Duration,
    /// Requests slower than this land in the telemetry plane's
    /// slow-query ledger with their args and timing breakdown.
    pub slow_threshold: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 4,
            queue_depth: 64,
            deadline: Duration::from_secs(2),
            slow_threshold: Duration::from_millis(100),
        }
    }
}

/// Quarantine-style ledger of per-connection faults: counts plus the
/// first [`LEDGER_SAMPLES_KEPT`] messages verbatim.
#[derive(Debug, Clone, Default)]
pub struct ServeLedger {
    /// Connections killed by a frame that did not decode.
    pub malformed: u64,
    /// Connections killed by a transport error (timeout, reset, torn
    /// read, failed reply write) outside a clean between-frames EOF.
    pub io_errors: u64,
    /// Sampled fault messages, in arrival order.
    pub samples: Vec<String>,
}

impl ServeLedger {
    /// Render as the JSON artifact CI uploads.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"malformed\": {},\n", self.malformed));
        out.push_str(&format!("  \"io_errors\": {},\n", self.io_errors));
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let comma = if i + 1 == self.samples.len() { "" } else { "," };
            out.push_str(&format!("    \"{}\"{}\n", escape(s), comma));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// What the server did over its lifetime; returned by
/// [`ServerHandle::stop`], copied from the server's [`Telemetry`].
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Connections accepted and handed to workers.
    pub connections: u64,
    /// Requests answered (any reply kind except shed `Busy`).
    pub queries: u64,
    /// Connections shed with a typed `Busy` (queue full or draining).
    pub busy: u64,
    /// The fault ledger.
    pub ledger: ServeLedger,
}

impl ServeReport {
    /// One-line summary for logs and the CLI.
    pub fn summary(&self) -> String {
        format!(
            "served {} queries over {} connections ({} shed busy, {} malformed, {} io errors)",
            self.queries, self.connections, self.busy, self.ledger.malformed, self.ledger.io_errors
        )
    }
}

/// A connection waiting in the bounded queue, stamped on accept so the
/// pulling worker can charge the queue-wait phase.
struct Queued {
    conn: DeadlineStream,
    accepted_ns: u64,
}

/// State shared by the acceptor and every worker.
struct Shared {
    engine: Arc<Engine>,
    telemetry: Telemetry,
    shutdown: AtomicBool,
}

/// The server's entry point. See the module docs for the architecture.
pub struct Server;

/// A running server: its bound address plus the handle to stop it.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    /// Disconnects when the acceptor thread returns.
    acceptor_exited: Receiver<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the worker pool and the acceptor, and return the
    /// handle. The engine is shared read-only across all workers. The
    /// process registry's `serve.*` counters read this server from here
    /// on.
    ///
    /// A zero [`ServerConfig::deadline`] is refused with
    /// `ErrorKind::InvalidInput` before binding: no socket can carry it.
    pub fn start(engine: Arc<Engine>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        if config.deadline.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "server deadline must be nonzero",
            ));
        }
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;

        let queue_depth = config.queue_depth.max(1);
        let worker_count = config.workers.max(1);
        let slow_ns = u64::try_from(config.slow_threshold.as_nanos()).unwrap_or(u64::MAX);
        let telemetry = Telemetry::new(
            Clock::real(),
            WindowConfig::default(),
            slow_ns,
            queue_depth,
            worker_count,
        );
        telemetry.install(droplens_obs::global());
        let shared = Arc::new(Shared {
            engine,
            telemetry,
            shutdown: AtomicBool::new(false),
        });

        let (tx, rx) = sync_channel::<Queued>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &shared))?,
            );
        }

        let deadline = config.deadline;
        let acceptor_shared = Arc::clone(&shared);
        let (exited_tx, acceptor_exited) = channel::<()>();
        let acceptor = std::thread::Builder::new()
            .name("serve-acceptor".to_owned())
            .spawn(move || {
                accept_loop(listener, tx, deadline, &acceptor_shared);
                drop(exited_tx);
            })?;

        Ok(ServerHandle {
            addr,
            shared,
            acceptor: Some(acceptor),
            acceptor_exited,
            workers,
        })
    }
}

impl ServerHandle {
    /// The address the listener actually bound (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// True once a drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The live telemetry snapshot, exactly what a `Metrics` frame
    /// answers — for in-process consumers (tests, the CLI's
    /// `--metrics-snapshot` artifact) without a socket round-trip.
    pub fn metrics_json(&self) -> String {
        self.shared.telemetry.snapshot_json()
    }

    /// Request a drain without waiting for it: stop accepting, shed the
    /// queue, finish requests in flight. Sets the shutdown flag, then
    /// wakes the acceptor blocked in `accept` with one connection to the
    /// bound address. Idempotent; safe from a signal watcher thread.
    pub fn request_drain(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        wake(self.addr);
    }

    /// Drain and wait for every thread to finish, then return the
    /// report. In-flight replies complete whole; nothing is torn.
    pub fn stop(mut self) -> ServeReport {
        self.request_drain();
        // A wake can be lost to a refused or timed-out connect: knock
        // again until the acceptor has returned.
        while let Err(RecvTimeoutError::Timeout) = self.acceptor_exited.recv_timeout(WAKE_TIMEOUT) {
            wake(self.addr);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.telemetry.report()
    }
}

/// Accept until the shutdown flag; shed to `Busy` when the queue is
/// full. Dropping `tx` on exit is what ends the workers.
fn accept_loop(
    listener: TcpListener,
    tx: std::sync::mpsc::SyncSender<Queued>,
    deadline: Duration,
    shared: &Shared,
) {
    loop {
        let accepted = DeadlineStream::accept(&listener, deadline);
        // A drain wakes this blocking accept with its own connection.
        // Whatever arrives once the flag is set is dropped uncounted.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            // Peer vanished between accept and setsockopt.
            Ok(None) => continue,
            Ok(Some(conn)) => {
                let _ = conn.set_nodelay(true);
                let queued = Queued {
                    conn,
                    accepted_ns: shared.telemetry.clock().now_ns(),
                };
                // Depth goes up before the send: a worker can pull the
                // connection the instant it lands, and a snapshot must
                // never see that dequeue before this enqueue.
                shared.telemetry.enqueued();
                match tx.try_send(queued) {
                    Ok(()) => {}
                    Err(TrySendError::Full(q)) => {
                        shared.telemetry.enqueue_reverted();
                        let mut conn = q.conn;
                        shed(&mut conn, shared);
                    }
                    Err(TrySendError::Disconnected(_)) => {
                        shared.telemetry.enqueue_reverted();
                        break;
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    // tx drops here: workers finish the queued backlog (as Busy, since
    // the flag is set by the time they pull) and exit on Disconnected.
    // The listener closes too, resetting connections still in its
    // backlog.
}

/// Wake an acceptor blocked in `accept` by connecting to the address it
/// listens on: itself, or loopback when bound to every interface
/// (0.0.0.0 or [::]). The connection is dropped at once; failures are
/// left to [`ServerHandle::stop`]'s retry.
fn wake(addr: SocketAddr) {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    let _ = DeadlineStream::connect(SocketAddr::new(ip, addr.port()), WAKE_TIMEOUT);
}

/// Typed overload shedding: one `Busy` frame inside the write deadline,
/// then close.
fn shed(conn: &mut DeadlineStream, shared: &Shared) {
    shared.telemetry.shed();
    let _ = Reply::Busy.write_to(conn);
}

fn worker_loop(rx: &Arc<Mutex<Receiver<Queued>>>, shared: &Shared) {
    let clock = shared.telemetry.clock().clone();
    loop {
        // Hold the lock only across the recv so workers pull in turn.
        let queued = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            match guard.recv() {
                Ok(queued) => queued,
                Err(_) => break, // acceptor gone, queue drained
            }
        };
        let mut conn = queued.conn;
        shared
            .telemetry
            .dequeued(clock.now_ns().saturating_sub(queued.accepted_ns));
        if shared.shutdown.load(Ordering::SeqCst) {
            // Draining: queued-but-unserved connections get a typed
            // Busy, not silence and not service.
            shed(&mut conn, shared);
            continue;
        }
        shared.telemetry.conn_started();
        handle_conn(&mut conn, shared);
        shared.telemetry.conn_finished();
    }
}

/// Serve one connection until clean EOF, a fault, or a drain request.
/// The shutdown flag is consulted only between requests: a reply being
/// written always goes out whole.
fn handle_conn(conn: &mut DeadlineStream, shared: &Shared) {
    let clock = shared.telemetry.clock().clone();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // The blocking wait for the next frame is client think-time;
        // the timed decode phase starts once the frame bytes are here.
        let (kind, payload) = match protocol::read_frame(conn) {
            Ok(None) => return, // peer closed between frames
            Ok(Some(frame)) => frame,
            Err(WireError::Frame(e)) => {
                malformed_fault(conn, shared, &e);
                return;
            }
            Err(WireError::Io(e)) => {
                shared.telemetry.io_error(e.to_string());
                return;
            }
        };
        let read_done = clock.now_ns();
        let req = match Request::decode(kind, &payload) {
            Ok(req) => req,
            Err(e) => {
                // Malformed or adversarial bytes: count, sample, answer
                // with a located error (best effort), kill only this
                // connection.
                malformed_fault(conn, shared, &e);
                return;
            }
        };
        let decode_done = clock.now_ns();
        let mut reply = shared.engine.answer(&req);
        if let Reply::Stats { pairs } = &mut reply {
            pairs.extend(shared.telemetry.stats_pairs());
            pairs.sort();
        }
        if let Reply::Metrics { json } = &mut reply {
            // Like Stats: the engine leaves the live part to the server.
            *json = shared.telemetry.snapshot_json();
        }
        let engine_done = clock.now_ns();
        shared.telemetry.answered(&req);
        let written = reply.write_to(conn);
        let timing = RequestTiming {
            decode_ns: decode_done.saturating_sub(read_done),
            engine_ns: engine_done.saturating_sub(decode_done),
            write_ns: clock.now_ns().saturating_sub(engine_done),
        };
        shared
            .telemetry
            .request_served(&req, written.is_ok(), timing, || request_args(&req));
        if let Err(e) = written {
            // Peer gone mid-reply (reset or write deadline); isolated
            // to this connection. The per-kind error series was already
            // bumped by `request_served`.
            shared.telemetry.io_error(format!("reply write: {e}"));
            return;
        }
    }
}

/// Shared malformed-frame exit: count, sample, best-effort located
/// error reply, and the caller kills only this connection.
fn malformed_fault(conn: &mut DeadlineStream, shared: &Shared, e: &FrameError) {
    let message = e.to_string();
    shared.telemetry.malformed(message.clone());
    let _ = Reply::Error { message }.write_to(conn);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the `--ledger` artifact bytes, escapes included.
    #[test]
    fn ledger_json_bytes_are_pinned() {
        assert_eq!(
            ServeLedger::default().to_json(),
            "{\n  \"malformed\": 0,\n  \"io_errors\": 0,\n  \"samples\": [\n  ]\n}\n"
        );
        let ledger = ServeLedger {
            malformed: 1,
            io_errors: 4,
            samples: [
                "quote \" here",
                "back\\slash",
                "line\nbreak",
                "tab\there",
                "ctl\u{1}",
            ]
            .map(str::to_owned)
            .to_vec(),
        };
        let expected = r#"{
  "malformed": 1,
  "io_errors": 4,
  "samples": [
    "quote \" here",
    "back\\slash",
    "line\nbreak",
    "tab\there",
    "ctl\u0001"
  ]
}
"#;
        assert_eq!(ledger.to_json(), expected);
    }
}
