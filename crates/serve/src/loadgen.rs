//! The load generator: many concurrent retrying clients hammering a
//! server with a seeded query mix, checking every deterministic reply
//! byte-for-byte against a local oracle [`Engine`] over the same study.
//!
//! Each worker thread derives its own seed from [`LoadConfig::seed`]
//! and its index, so the whole run — query mix, retry jitter, and (when
//! the chaos proxy sits in between) the fault schedule — replays
//! exactly. Latencies go to the obs histogram `loadgen.latency_ns`,
//! measured around the *whole* retried query, which is what a caller
//! experiences under faults.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use droplens_obs::{Histogram, HistogramSummary, Stopwatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::client::{Client, ClientConfig, RetryPolicy};
use crate::engine::Engine;
use crate::protocol::{Request, KIND_LABELS};

/// Shape of a load run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client threads.
    pub connections: usize,
    /// Queries each thread runs to completion (retries not counted).
    pub queries_per_conn: usize,
    /// Master seed; thread seeds and the query mix derive from it.
    pub seed: u64,
    /// Per-attempt connect/read/write deadline.
    pub deadline: Duration,
    /// Retry budget per query (each thread's jitter seed derives from
    /// this policy's seed and the thread index).
    pub retry: RetryPolicy,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            connections: 8,
            queries_per_conn: 50,
            seed: 0xd201_4e5e,
            deadline: Duration::from_secs(2),
            retry: RetryPolicy::default(),
        }
    }
}

/// What a load run saw.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Queries attempted (sum over threads; retries not counted).
    pub sent: u64,
    /// Queries that got a good reply within the retry budget.
    pub ok: u64,
    /// Queries that exhausted the retry budget.
    pub failed: u64,
    /// Good replies that did **not** match the oracle byte-for-byte.
    pub mismatched: u64,
    /// Sampled failure/mismatch messages (first few, in order).
    pub samples: Vec<String>,
    /// End-to-end per-query latency (ns), including retries.
    pub latency: HistogramSummary,
    /// The same tallies broken down per query kind, in
    /// [`KIND_LABELS`] order (kinds the mix never sent report zeros).
    pub kinds: Vec<KindReport>,
    /// Wall clock of the whole run, nanoseconds.
    pub elapsed_ns: u64,
}

/// Load tallies for one query kind; what `droplens slo check` targets
/// individually.
#[derive(Debug, Clone)]
pub struct KindReport {
    /// The kind label (one of [`KIND_LABELS`]).
    pub kind: &'static str,
    /// Queries of this kind attempted.
    pub sent: u64,
    /// Queries that got a good reply within the retry budget.
    pub ok: u64,
    /// Queries that exhausted the retry budget.
    pub failed: u64,
    /// End-to-end latency (ns) of this kind, including retries.
    pub latency: HistogramSummary,
}

impl LoadReport {
    /// Completed queries per second over the run's wall clock.
    pub fn qps(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.ok as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    /// True when every query succeeded and matched the oracle.
    pub fn clean(&self) -> bool {
        self.failed == 0 && self.mismatched == 0
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} queries: {} ok, {} failed, {} mismatched; {:.0} q/s; latency p50 {} µs, p99 {} µs",
            self.sent,
            self.ok,
            self.failed,
            self.mismatched,
            self.qps(),
            self.latency.p50 / 1_000,
            self.latency.p99 / 1_000,
        )
    }

    /// JSON artifact for CI upload and the bench harness.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"sent\": {},\n  \"ok\": {},\n  \"failed\": {},\n  \"mismatched\": {},\n  \"qps\": {:.1},\n  \"latency_ns\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}},\n  \"kinds\": [\n",
            self.sent,
            self.ok,
            self.failed,
            self.mismatched,
            self.qps(),
            self.latency.p50,
            self.latency.p90,
            self.latency.p99,
            self.latency.max,
        );
        for (i, k) in self.kinds.iter().enumerate() {
            let comma = if i + 1 == self.kinds.len() { "" } else { "," };
            out.push_str(&format!(
                "    {{\"kind\": \"{}\", \"sent\": {}, \"ok\": {}, \"failed\": {}, \"latency_ns\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}}}{}\n",
                k.kind,
                k.sent,
                k.ok,
                k.failed,
                k.latency.p50,
                k.latency.p90,
                k.latency.p99,
                k.latency.max,
                comma,
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// How many failure messages the report samples.
const REPORT_SAMPLES_KEPT: usize = 8;

/// Run the load: `connections` threads, each driving
/// `queries_per_conn` seeded queries through a retrying [`Client`]
/// against `addr`, comparing deterministic replies with `oracle`.
pub fn run(addr: SocketAddr, oracle: &Arc<Engine>, config: &LoadConfig) -> LoadReport {
    let histogram = droplens_obs::global().histogram("loadgen.latency_ns");
    // Per-kind latency is run-local (not the global registry): each
    // run's report covers exactly that run's samples.
    let kind_hists: Arc<Vec<Histogram>> =
        Arc::new(KIND_LABELS.iter().map(|_| Histogram::new()).collect());
    let run_sw = Stopwatch::start();
    let mut handles = Vec::with_capacity(config.connections.max(1));
    for thread_idx in 0..config.connections.max(1) {
        let oracle = Arc::clone(oracle);
        let config = config.clone();
        let histogram = histogram.clone();
        let kind_hists = Arc::clone(&kind_hists);
        handles.push(std::thread::spawn(move || {
            drive_thread(
                addr,
                &oracle,
                &config,
                thread_idx as u64,
                &histogram,
                &kind_hists,
            )
        }));
    }
    let mut report = LoadReport {
        sent: 0,
        ok: 0,
        failed: 0,
        mismatched: 0,
        samples: Vec::new(),
        latency: HistogramSummary::default(),
        kinds: Vec::new(),
        elapsed_ns: 0,
    };
    let mut kind_tallies = [[0u64; 3]; KIND_LABELS.len()];
    for handle in handles {
        let Ok(part) = handle.join() else {
            report.failed += 1;
            report.samples.push("load thread panicked".to_owned());
            continue;
        };
        report.sent += part.sent;
        report.ok += part.ok;
        report.failed += part.failed;
        report.mismatched += part.mismatched;
        for (total, thread) in kind_tallies.iter_mut().zip(part.kinds) {
            for (t, v) in total.iter_mut().zip(thread) {
                *t += v;
            }
        }
        for s in part.samples {
            if report.samples.len() < REPORT_SAMPLES_KEPT {
                report.samples.push(s);
            }
        }
    }
    report.elapsed_ns = run_sw.elapsed_ns();
    report.latency = histogram.summary();
    report.kinds = KIND_LABELS
        .iter()
        .zip(kind_tallies)
        .zip(kind_hists.iter())
        .map(|((kind, [sent, ok, failed]), hist)| KindReport {
            kind,
            sent,
            ok,
            failed,
            latency: hist.summary(),
        })
        .collect(); // one entry per kind
    report
}

/// Per-thread tallies, merged by [`run`]. `kinds` rows are
/// `[sent, ok, failed]` per [`KIND_LABELS`] entry.
struct ThreadPart {
    sent: u64,
    ok: u64,
    failed: u64,
    mismatched: u64,
    kinds: [[u64; 3]; KIND_LABELS.len()],
    samples: Vec<String>,
}

fn drive_thread(
    addr: SocketAddr,
    oracle: &Arc<Engine>,
    config: &LoadConfig,
    thread_idx: u64,
    histogram: &droplens_obs::Histogram,
    kind_hists: &[Histogram],
) -> ThreadPart {
    // Golden-ratio stride keeps derived seeds well apart.
    let derived = config
        .seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(thread_idx + 1));
    let mut mix = StdRng::seed_from_u64(derived);
    let mut client = Client::new(ClientConfig {
        addr,
        deadline: config.deadline,
        retry: RetryPolicy {
            seed: derived ^ 0x00c1_1e47,
            ..config.retry.clone()
        },
    });
    let mut part = ThreadPart {
        sent: 0,
        ok: 0,
        failed: 0,
        mismatched: 0,
        kinds: [[0; 3]; KIND_LABELS.len()],
        samples: Vec::new(),
    };
    for _ in 0..config.queries_per_conn {
        let req = random_request(&mut mix, oracle);
        let kind = req.kind_index();
        part.sent += 1;
        let sw = Stopwatch::start();
        let ok = match client.query(&req) {
            Ok(reply) => {
                let elapsed = sw.elapsed_ns();
                histogram.record(elapsed);
                if let Some(hist) = kind_hists.get(kind) {
                    hist.record(elapsed);
                }
                part.ok += 1;
                // Stats and Metrics replies mix in live state; every
                // other kind must equal the offline answer exactly.
                if !matches!(req, Request::Stats | Request::Metrics) && reply != oracle.answer(&req)
                {
                    part.mismatched += 1;
                    if part.samples.len() < REPORT_SAMPLES_KEPT {
                        part.samples
                            .push(format!("oracle mismatch on {} query", req.label()));
                    }
                }
                true
            }
            Err(e) => {
                part.failed += 1;
                if part.samples.len() < REPORT_SAMPLES_KEPT {
                    part.samples.push(e.to_string());
                }
                false
            }
        };
        if let Some([sent, oks, failed]) = part.kinds.get_mut(kind) {
            *sent += 1;
            *if ok { oks } else { failed } += 1;
        }
    }
    part
}

/// A seeded query over the study's own prefixes and window — realistic
/// enough to exercise every index, deterministic for a given rng state.
fn random_request(rng: &mut StdRng, oracle: &Engine) -> Request {
    let study = oracle.study();
    let entries = &study.entries;
    let entry = match entries.len() {
        0 => None,
        n => entries.get(rng.gen_range(0..n)),
    };
    let Some(entry) = entry else {
        // Degenerate world: nothing to ask about beyond liveness.
        return Request::Ping;
    };
    let prefix = entry.prefix();
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
                    source: if rng.gen_range(0..2u8) == 0 {
                        None
                    } else {
                        Some("Table".to_owned())
                    },
                }
            }
        }
    }
}
