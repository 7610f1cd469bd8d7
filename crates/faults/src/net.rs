//! Deterministic network chaos: a seeded TCP proxy that sits between a
//! client and a server and injects the wire-level fault classes a real
//! network produces — byte corruption, frame truncation, injected
//! delays, and mid-stream connection resets.
//!
//! The same discipline as the archive [`Corruptor`](crate::Corruptor):
//! every fault decision comes from a [`ChaosProfile`] seed, and each
//! proxied connection derives its own rng from the seed and the
//! connection index, so a given (seed, connection order) replays the
//! same fault schedule. Faults are injected per pumped chunk,
//! independently in each direction — a corrupted *request* exercises
//! the server's malformed-frame quarantine, a corrupted *reply*
//! exercises the client's decode-and-retry path, and a reset in either
//! direction exercises torn reads.
//!
//! Every socket the proxy touches carries read and write timeouts (the
//! pump polls its shutdown flag on each timeout), so a wedged peer can
//! never wedge the proxy — the same rule the serve paths live under.
//! This crate does not depend on droplens-serve, so it cannot use
//! `DeadlineStream`: the two functions that make raw sockets,
//! `accept_loop` and [`ChaosProxy::stop`], allow clippy's socket bans
//! and say why.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault rates for one proxy. All rates are per pumped chunk in
/// `[0, 1]`; a zeroed profile is a transparent relay.
#[derive(Debug, Clone)]
pub struct ChaosProfile {
    /// Master seed; per-connection streams derive from it.
    pub seed: u64,
    /// Probability of flipping one byte of a chunk.
    pub corrupt_rate: f64,
    /// Probability of forwarding only a prefix of a chunk and then
    /// closing both directions (a torn frame).
    pub truncate_rate: f64,
    /// Probability of dropping the connection outright before the
    /// chunk is forwarded (a mid-stream reset).
    pub reset_rate: f64,
    /// Probability of sleeping [`ChaosProfile::delay`] before
    /// forwarding a chunk.
    pub delay_rate: f64,
    /// The injected delay.
    pub delay: Duration,
}

impl ChaosProfile {
    /// A transparent relay (all rates zero) with `seed`.
    pub fn clean(seed: u64) -> ChaosProfile {
        ChaosProfile {
            seed,
            corrupt_rate: 0.0,
            truncate_rate: 0.0,
            reset_rate: 0.0,
            delay_rate: 0.0,
            delay: Duration::ZERO,
        }
    }

    /// The standard chaos mix used by the acceptance gate: 1% byte
    /// corruption, 0.5% truncation, 0.5% resets, 2% small delays.
    pub fn standard(seed: u64) -> ChaosProfile {
        ChaosProfile {
            seed,
            corrupt_rate: 0.01,
            truncate_rate: 0.005,
            reset_rate: 0.005,
            delay_rate: 0.02,
            delay: Duration::from_millis(2),
        }
    }
}

/// Tallies of what the proxy actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosLog {
    /// Connections proxied.
    pub connections: u64,
    /// Chunks with a flipped byte.
    pub corruptions: u64,
    /// Chunks truncated (connection closed after a prefix).
    pub truncations: u64,
    /// Connections reset mid-stream.
    pub resets: u64,
    /// Chunks delayed.
    pub delays: u64,
}

impl ChaosLog {
    /// Total faults of every class.
    pub fn total_faults(&self) -> u64 {
        self.corruptions + self.truncations + self.resets + self.delays
    }
}

/// A running chaos proxy: listens on [`ChaosProxy::addr`], forwards to
/// the upstream it was started with, injecting faults per its profile.
pub struct ChaosProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    log: Arc<Mutex<ChaosLog>>,
    acceptor: Option<JoinHandle<()>>,
    /// Disconnects when the acceptor thread returns.
    acceptor_exited: Receiver<()>,
}

/// How long a pump blocks in one read before re-checking shutdown.
const PUMP_TICK: Duration = Duration::from_millis(50);
/// Connect timeout of the wake [`ChaosProxy::stop`] sends its acceptor,
/// and how long it waits for the acceptor before sending another.
const WAKE_TIMEOUT: Duration = Duration::from_millis(100);
/// Pump chunk size. Small enough that several chunks make up a big
/// frame (so truncation can tear one), big enough to carry a whole
/// small frame in one piece.
const CHUNK: usize = 512;

impl ChaosProxy {
    /// Bind a local port and start relaying to `upstream` with faults
    /// drawn from `profile`.
    pub fn start(upstream: SocketAddr, profile: ChaosProfile) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let log = Arc::new(Mutex::new(ChaosLog::default()));

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_log = Arc::clone(&log);
        let (exited_tx, acceptor_exited) = channel::<()>();
        let acceptor = std::thread::Builder::new()
            .name("chaos-proxy".to_owned())
            .spawn(move || {
                accept_loop(listener, upstream, profile, &accept_shutdown, &accept_log);
                drop(exited_tx);
            })?;

        Ok(ChaosProxy {
            addr,
            shutdown,
            log,
            acceptor: Some(acceptor),
            acceptor_exited,
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the fault tallies so far.
    pub fn log(&self) -> ChaosLog {
        match self.log.lock() {
            Ok(g) => *g,
            Err(poisoned) => *poisoned.into_inner(),
        }
    }

    /// Stop relaying and wait for every pump to exit; returns the final
    /// tallies.
    #[allow(clippy::disallowed_methods)] // the wake is dropped unread and unwritten
    pub fn stop(mut self) -> ChaosLog {
        self.shutdown.store(true, Ordering::SeqCst);
        // The acceptor blocks in `accept`: wake it with a connection it
        // drops uncounted, and knock again until it has returned, since
        // a connect can fail.
        let wake = || TcpStream::connect_timeout(&self.addr, WAKE_TIMEOUT);
        let _ = wake();
        while let Err(RecvTimeoutError::Timeout) = self.acceptor_exited.recv_timeout(WAKE_TIMEOUT) {
            let _ = wake();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        self.log()
    }
}

#[allow(clippy::disallowed_methods)] // `spawn_pump` sets the 50 ms tick on both legs before any IO
fn accept_loop(
    listener: TcpListener,
    upstream: SocketAddr,
    profile: ChaosProfile,
    shutdown: &Arc<AtomicBool>,
    log: &Arc<Mutex<ChaosLog>>,
) {
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    let mut conn_index: u64 = 0;
    loop {
        let accepted = listener.accept();
        // `stop` wakes this blocking accept with its own connection.
        // Whatever arrives once the flag is set is dropped uncounted.
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((client, _)) => {
                conn_index += 1;
                bump(log, |l| l.connections += 1);
                // Both legs carry deadlines; a wedged peer surfaces as
                // a timeout tick, never a hang.
                let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(2))
                else {
                    continue; // upstream refused; client sees EOF
                };
                // Per-connection fault streams: one per direction,
                // derived from the profile seed and connection index.
                let base = profile
                    .seed
                    .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(conn_index));
                let reset = Arc::new(AtomicBool::new(false));
                if let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) {
                    pumps.push(spawn_pump(
                        client,
                        s2,
                        profile.clone(),
                        base,
                        Arc::clone(shutdown),
                        Arc::clone(&reset),
                        Arc::clone(log),
                    ));
                    pumps.push(spawn_pump(
                        server,
                        c2,
                        profile.clone(),
                        base ^ 0x5ca1ab1e,
                        Arc::clone(shutdown),
                        reset,
                        Arc::clone(log),
                    ));
                }
                // Reap finished pumps so long runs don't accumulate
                // handles.
                pumps.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    for pump in pumps {
        let _ = pump.join();
    }
}

fn bump(log: &Arc<Mutex<ChaosLog>>, f: impl FnOnce(&mut ChaosLog)) {
    let mut guard = match log.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    f(&mut guard);
}

#[allow(clippy::too_many_arguments)]
fn spawn_pump(
    mut from: TcpStream,
    mut to: TcpStream,
    profile: ChaosProfile,
    seed: u64,
    shutdown: Arc<AtomicBool>,
    reset: Arc<AtomicBool>,
    log: Arc<Mutex<ChaosLog>>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        // Deadlines on both legs before any IO: a wedged peer surfaces
        // as a timeout tick (re-checking the flags), never a hang.
        if from.set_read_timeout(Some(PUMP_TICK)).is_err()
            || from.set_write_timeout(Some(PUMP_TICK)).is_err()
            || to.set_read_timeout(Some(PUMP_TICK)).is_err()
            || to.set_write_timeout(Some(PUMP_TICK)).is_err()
        {
            return; // peer already gone
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut buf = [0u8; CHUNK];
        while !shutdown.load(Ordering::SeqCst) && !reset.load(Ordering::SeqCst) {
            let n = match from.read(&mut buf) {
                Ok(0) => break, // peer closed; relay the EOF
                Ok(n) => n,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    continue; // deadline tick: re-check the flags
                }
                Err(_) => break,
            };
            // Fault decisions, in severity order, one draw each so the
            // schedule is a pure function of (seed, chunk index).
            let reset_now = rng.gen_bool(profile.reset_rate);
            let truncate_now = rng.gen_bool(profile.truncate_rate);
            let corrupt_now = rng.gen_bool(profile.corrupt_rate);
            let delay_now = rng.gen_bool(profile.delay_rate);
            if reset_now {
                // Abrupt close in both directions: the receiver sees a
                // torn read, the sender a failed write.
                bump(&log, |l| l.resets += 1);
                reset.store(true, Ordering::SeqCst);
                break;
            }
            if delay_now {
                bump(&log, |l| l.delays += 1);
                std::thread::sleep(profile.delay);
            }
            let mut chunk = &mut buf[..n];
            if corrupt_now {
                bump(&log, |l| l.corruptions += 1);
                let at = rng.gen_range(0..chunk.len());
                chunk[at] ^= 0x20 | (rng.gen_range(1..=255u8) & 0x5f).max(1);
            }
            if truncate_now {
                bump(&log, |l| l.truncations += 1);
                let keep = rng.gen_range(0..chunk.len());
                chunk = &mut chunk[..keep];
                let _ = to.write_all(chunk);
                reset.store(true, Ordering::SeqCst);
                break;
            }
            if to.write_all(chunk).is_err() {
                break;
            }
        }
        // Dropping the sockets closes this direction; the sibling pump
        // notices via EOF, a failed write, or the shared reset flag.
        let _ = to.shutdown(std::net::Shutdown::Both);
        let _ = from.shutdown(std::net::Shutdown::Both);
    })
}
