//! The `serve_clean` workload: the query service a user hits.
//!
//! An in-process `Server` with [`SERVER_WORKERS`] workers serves the
//! seed's study. Load is a closed loop of [`CLIENT_THREADS`] threads,
//! each a blocking `Client::query` caller with the default 2 s deadline
//! and retry budget: a caller sends its next query only after the last
//! one completed. The traced run also routes the same traffic through a
//! `ChaosProxy` with `ChaosProfile::standard(seed)`.
//!
//! Every query and its expected reply are planned before the clock
//! starts, from a local oracle `Engine` over a study built in memory
//! (`Study::from_world`, no parsing); every deterministic reply is
//! compared with the oracle's answer.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use droplens_core::Study;
use droplens_faults::net::{ChaosLog, ChaosProfile, ChaosProxy};
use droplens_serve::net::DeadlineStream;
use droplens_serve::{
    Client, ClientConfig, Engine, Reply, Request, RetryPolicy, Server, ServerConfig, ServerHandle,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mem::PeakSampler;
use crate::report::{Metric, Outcome};
use crate::reproduce::{self, Inputs};
use crate::stats::{median, windowed_percentile, Basis, Samples};

pub const SERVER_WORKERS: usize = 2;
pub const CLIENT_THREADS: usize = 2;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Planned queries per client thread; a thread cycles through its list.
const QUERIES_PER_THREAD: usize = 4096;
/// The per-attempt deadline of the default client.
const DEADLINE: Duration = Duration::from_secs(2);
/// Tails are the median of the tails of windows this long: a few
/// seconds of host contention move the windows they touch, not the
/// median. 2 s holds about 1800 queries, 18 beyond the p99.
const TAIL_WINDOW_S: f64 = 2.0;
/// Queries slower than this count towards `client.slow_share`.
pub const SLOW_MS: f64 = 100.0;

/// One planned query and, when the reply is deterministic, the oracle's
/// answer to it.
pub struct Query {
    pub req: Request,
    pub expected: Option<Reply>,
}

/// Every client thread's query list.
pub struct Plan {
    pub threads: Vec<Vec<Query>>,
}

/// Per-thread seed derivation (the load generator's golden-ratio
/// stride).
fn thread_seed(seed: u64, thread: usize) -> u64 {
    seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(thread as u64 + 1))
}

impl Plan {
    pub fn new(oracle: &Engine, seed: u64) -> Plan {
        let threads = (0..CLIENT_THREADS)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(thread_seed(seed, t));
                (0..QUERIES_PER_THREAD)
                    .map(|_| {
                        let req = random_request(&mut rng, oracle.study());
                        // Stats replies mix in live server counters.
                        let expected = (!matches!(req, Request::Stats | Request::Metrics))
                            .then(|| oracle.answer(&req));
                        Query { req, expected }
                    })
                    .collect()
            })
            .collect();
        Plan { threads }
    }

    pub fn queries(&self) -> impl Iterator<Item = &Query> {
        self.threads.iter().flatten()
    }
}

/// Plan the seed's queries against an oracle over `Study::from_world`.
pub fn plan(inputs: &Inputs, seed: u64) -> Plan {
    let oracle = Engine::new(Arc::new(Study::from_world(&inputs.world)));
    Plan::new(&oracle, seed)
}

/// A query over the study's own prefixes and window, with the kind
/// weights of `droplens_serve::loadgen`: ping 1, visibility 3, rov 3,
/// drop_listed 2, drop_history 2, and 1 shared 1:3 by stats and
/// scorecard (out of 12).
fn random_request(rng: &mut StdRng, study: &Study) -> Request {
    let entries = &study.entries;
    if entries.is_empty() {
        return Request::Ping;
    }
    let prefix = entries[rng.gen_range(0..entries.len())].prefix();
    let window = study.config.window;
    let date = window.start() + rng.gen_range(0..window.len().max(1)) as i32;
    match rng.gen_range(0..12u32) {
        0 => Request::Ping,
        1..=3 => Request::Visibility { prefix, date },
        4..=6 => Request::Rov {
            prefix,
            origin: droplens_net::Asn(rng.gen_range(1..65_000)),
            date,
            all_tals: rng.gen_range(0..4u8) == 0,
        },
        7..=8 => Request::DropListed { prefix, date },
        9..=10 => Request::DropHistory { prefix },
        _ => {
            if rng.gen_range(0..4u8) == 0 {
                Request::Stats
            } else {
                Request::Scorecard {
                    source: (rng.gen_range(0..2u8) == 1).then(|| "Table".to_owned()),
                }
            }
        }
    }
}

/// A running server, and the chaos proxy in front of it when there is
/// one.
pub struct Service {
    pub engine: Arc<Engine>,
    handle: ServerHandle,
    proxy: Option<ChaosProxy>,
}

impl Service {
    /// The timed set-up: `Study::from_text`, `Engine::new`,
    /// `Server::start`, the first answered query, and the chaos proxy
    /// when `chaos_seed` is set.
    pub fn start(inputs: &Inputs, chaos_seed: Option<u64>) -> Service {
        let study = Arc::new(reproduce::study_from_text(inputs));
        let engine = Arc::new(Engine::new(study));
        let config = ServerConfig {
            workers: SERVER_WORKERS,
            ..ServerConfig::default()
        };
        let handle = Server::start(Arc::clone(&engine), config)
            .unwrap_or_else(|e| crate::fail(&format!("server failed to start: {e}")));
        match Client::new(ClientConfig::to_addr(handle.addr())).query(&Request::Ping) {
            Ok(Reply::Pong) => {}
            other => crate::fail(&format!("first ping failed: {other:?}")),
        }
        let proxy = chaos_seed.map(|seed| {
            ChaosProxy::start(handle.addr(), ChaosProfile::standard(seed))
                .unwrap_or_else(|e| crate::fail(&format!("chaos proxy failed to start: {e}")))
        });
        Service {
            engine,
            handle,
            proxy,
        }
    }

    /// Where clients connect: the proxy when there is one.
    pub fn addr(&self) -> SocketAddr {
        match &self.proxy {
            Some(p) => p.addr(),
            None => self.handle.addr(),
        }
    }

    pub fn chaos_log(&self) -> Option<ChaosLog> {
        self.proxy.as_ref().map(ChaosProxy::log)
    }

    /// Stop the proxy, then drain the server.
    pub fn stop(self) {
        if let Some(proxy) = self.proxy {
            proxy.stop();
        }
        self.handle.stop();
    }
}

/// Run the clean set-up [`SETUP_REPS`] times (stopping all but the
/// last service) and return the last service with every repetition's
/// time.
fn start_reps(inputs: &Inputs) -> (Service, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<Service> = None;
    for _ in 0..SETUP_REPS {
        if let Some(svc) = last.take() {
            svc.stop();
        }
        let t0 = Instant::now();
        let svc = Service::start(inputs, None);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(svc);
    }
    (last.expect("at least one set-up repetition"), times)
}

/// Something that answers one query to completion, retries included.
pub trait Caller: Send {
    fn call(&mut self, req: &Request) -> Result<Reply, String>;
}

/// The bundled retrying client, as a user runs it.
pub struct RealClient(Client);

impl RealClient {
    pub fn new(addr: SocketAddr, seed: u64, thread: usize) -> RealClient {
        RealClient(Client::new(ClientConfig {
            addr,
            deadline: DEADLINE,
            retry: RetryPolicy {
                seed: thread_seed(seed, thread) ^ 0x00c1_1e47,
                ..RetryPolicy::default()
            },
        }))
    }
}

impl Caller for RealClient {
    fn call(&mut self, req: &Request) -> Result<Reply, String> {
        self.0.query(req).map_err(|e| e.to_string())
    }
}

/// What a closed loop saw.
#[derive(Default)]
pub struct LoopStats {
    /// Per-query latency, retries included, of every attempted query.
    pub latencies_ms: Vec<f64>,
    /// When each of those queries started, seconds into the loop.
    pub started_s: Vec<f64>,
    pub attempted: u64,
    /// Queries answered correctly.
    pub ok: u64,
    /// Queries that exhausted the retry budget.
    pub exhausted: u64,
    /// Replies that differ from the oracle.
    pub mismatched: u64,
    pub elapsed_s: f64,
    /// The first few failure messages.
    pub samples: Vec<String>,
}

impl LoopStats {
    pub fn failed(&self) -> u64 {
        self.exhausted + self.mismatched
    }

    fn absorb(&mut self, other: LoopStats) {
        self.latencies_ms.extend(other.latencies_ms);
        self.started_s.extend(other.started_s);
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.exhausted += other.exhausted;
        self.mismatched += other.mismatched;
        for s in other.samples {
            if self.samples.len() < 4 {
                self.samples.push(s);
            }
        }
    }
}

/// Drive a closed loop for `seconds`: one thread per plan list, each
/// with its own caller, each sending its next query once the last one
/// completed. Returns the merged tallies and the callers.
pub fn drive<C: Caller>(
    plan: &Plan,
    seconds: f64,
    make: impl Fn(usize) -> C + Sync,
) -> (LoopStats, Vec<C>) {
    let start = Instant::now();
    let stop_at = start + Duration::from_secs_f64(seconds);
    let make = &make;
    let parts: Vec<(LoopStats, C)> = std::thread::scope(|s| {
        let handles: Vec<_> = plan
            .threads
            .iter()
            .enumerate()
            .map(|(t, queries)| {
                s.spawn(move || {
                    let mut caller = make(t);
                    let mut stats = LoopStats::default();
                    for q in queries.iter().cycle() {
                        if Instant::now() >= stop_at {
                            break;
                        }
                        let t0 = Instant::now();
                        let result = caller.call(&q.req);
                        stats.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        stats.started_s.push((t0 - start).as_secs_f64());
                        stats.attempted += 1;
                        let failure = match result {
                            Ok(reply) if q.expected.as_ref().is_some_and(|e| *e != reply) => {
                                stats.mismatched += 1;
                                Some(format!("oracle mismatch on {} query", q.req.label()))
                            }
                            Ok(_) => {
                                stats.ok += 1;
                                None
                            }
                            Err(e) => {
                                stats.exhausted += 1;
                                Some(e)
                            }
                        };
                        if let Some(msg) = failure {
                            if stats.samples.len() < 4 {
                                stats.samples.push(msg);
                            }
                        }
                    }
                    (stats, caller)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| crate::fail("a client thread panicked"))
            })
            .collect()
    });
    let mut merged = LoopStats::default();
    let mut callers = Vec::with_capacity(parts.len());
    for (stats, caller) in parts {
        merged.absorb(stats);
        callers.push(caller);
    }
    merged.elapsed_s = start.elapsed().as_secs_f64();
    (merged, callers)
}

/// The untraced `serve_clean` run: generate the world once, plan the
/// queries, time the set-up, then drive the closed loop.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let (inputs, _) = reproduce::generate(seed, 1);
    let plan = plan(&inputs, seed);
    let (svc, setup_times) = start_reps(&inputs);
    drop(inputs);
    let addr = svc.addr();

    let sampler = PeakSampler::start();
    let (stats, _) = drive(&plan, seconds, |t| RealClient::new(addr, seed, t));
    let peak_mb = sampler.peak_mb();
    drop(sampler);
    svc.stop();

    let latency = Samples::new(stats.latencies_ms.clone());
    let p50 = latency.p50().unwrap_or(0.0);
    let timed: Vec<(f64, f64)> = stats
        .started_s
        .iter()
        .copied()
        .zip(stats.latencies_ms.iter().copied())
        .collect();
    // The bounded tail is the windowed p90; the p99s go to the details.
    let tail = |q: f64| match windowed_percentile(&timed, TAIL_WINDOW_S, q) {
        Some((v, windows)) => (
            v,
            format!("\"median of {windows} {TAIL_WINDOW_S} s windows\""),
        ),
        None => {
            let (v, basis) = latency.tail(q).unwrap_or((0.0, Basis::Max));
            (v, format!("\"{}\"", basis.label()))
        }
    };
    let (p90, p90_basis) = tail(0.90);
    let (p99, _) = tail(0.99);
    let (whole_p99, whole_basis) = latency.tail(0.99).unwrap_or((0.0, Basis::Max));
    let mut outcome = Outcome::new(stats.attempted, stats.failed());
    outcome.metrics = vec![
        Metric::new("setup_s", median(&setup_times), "s"),
        Metric::new("peak_live_mb", peak_mb, "MB"),
        Metric::new("qps", stats.ok as f64 / stats.elapsed_s, "1/s"),
        Metric::new("p50_ms", p50, "ms"),
        Metric::new("p90_ms", p90, "ms"),
    ];
    outcome.detail("operation", "\"one Client::query call, retries included\"");
    outcome.detail("samples", &latency.len().to_string());
    outcome.detail("p90_basis", &p90_basis);
    outcome.detail("p99_windowed_ms", &p99.to_string());
    outcome.detail(
        "p99_whole_run_ms",
        &format!(
            "{{\"value\": {whole_p99}, \"basis\": \"{}\"}}",
            whole_basis.label()
        ),
    );
    outcome.detail(
        "queries",
        &format!(
            "{{\"attempted\": {}, \"ok\": {}, \"exhausted\": {}, \"mismatched\": {}}}",
            stats.attempted, stats.ok, stats.exhausted, stats.mismatched
        ),
    );
    outcome.detail("setup_reps", &format!("{:?}", setup_times));
    if !stats.samples.is_empty() {
        outcome.detail("failure_samples", &format!("{:?}", stats.samples));
    }
    outcome
}

/// The client's retry loop with each attempt's phases timed from
/// outside the server: `DeadlineStream::connect`, `Request::write_to`,
/// `Reply::read_from`. Mirrors `Client::query` (same deadline, attempt
/// budget and jittered exponential backoff), which does not expose its
/// phases.
pub struct TracedClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    rng: StdRng,
    /// Phases of successful attempts, microseconds.
    pub connect_us: Vec<f64>,
    pub send_us: Vec<f64>,
    pub reply_wait_us: Vec<f64>,
    /// Attempts made, first tries included.
    pub attempts: u64,
}

impl TracedClient {
    pub fn new(addr: SocketAddr, seed: u64, thread: usize) -> TracedClient {
        let policy = RetryPolicy {
            seed: thread_seed(seed, thread) ^ 0x00c1_1e47,
            ..RetryPolicy::default()
        };
        TracedClient {
            addr,
            rng: StdRng::seed_from_u64(policy.seed),
            policy,
            connect_us: Vec::new(),
            send_us: Vec::new(),
            reply_wait_us: Vec::new(),
            attempts: 0,
        }
    }

    /// Uniform in the upper half of `min(base << attempt, max)`.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let full = self
            .policy
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.policy.max_delay);
        let ns = full.as_nanos() as u64;
        Duration::from_nanos(ns / 2 + self.rng.gen_range(0..=ns / 2))
    }

    fn attempt(&mut self, req: &Request) -> Result<Reply, String> {
        let t0 = Instant::now();
        let mut conn =
            DeadlineStream::connect(self.addr, DEADLINE).map_err(|e| format!("connect: {e}"))?;
        let _ = conn.set_nodelay(true);
        let t1 = Instant::now();
        req.write_to(&mut conn).map_err(|e| format!("send: {e}"))?;
        let t2 = Instant::now();
        let reply = match Reply::read_from(&mut conn) {
            Ok(Some(Reply::Busy)) => Err("server busy".to_owned()),
            Ok(Some(Reply::Error { message })) => Err(format!("server error: {message}")),
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err("connection closed before reply".to_owned()),
            Err(e) => Err(e.to_string()),
        }?;
        let t3 = Instant::now();
        self.connect_us.push((t1 - t0).as_secs_f64() * 1e6);
        self.send_us.push((t2 - t1).as_secs_f64() * 1e6);
        self.reply_wait_us.push((t3 - t2).as_secs_f64() * 1e6);
        Ok(reply)
    }
}

impl Caller for TracedClient {
    fn call(&mut self, req: &Request) -> Result<Reply, String> {
        let budget = self.policy.max_attempts.max(1);
        let mut last = String::new();
        for attempt in 0..budget {
            if attempt > 0 {
                let pause = self.backoff(attempt - 1);
                std::thread::sleep(pause);
            }
            self.attempts += 1;
            match self.attempt(req) {
                Ok(reply) => return Ok(reply),
                Err(why) => last = why,
            }
        }
        Err(format!(
            "retry budget exhausted after {budget} attempts: {last}"
        ))
    }
}
