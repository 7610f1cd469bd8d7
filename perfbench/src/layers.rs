//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Every layer is timed from the benchmark, around the public call into
//! it; nothing inside the program changes. The run is the same on every
//! workload, so each traced run reports every metric:
//!
//! * **offline** — the batch pipeline replayed layer by layer on one
//!   thread (each parser, each index constructor, each experiment, the
//!   scorecard and the rendering), next to whole `reproduce` jobs at one
//!   thread and at `DROPLENS_THREADS` = nproc with the program's tracer
//!   off and on. The layer times must account for the one-thread job;
//!   what they leave over is `study.other_s`.
//! * **clean traffic** — the `serve_clean` closed loop with its client
//!   attempts split into connect, send and reply wait, plus decode,
//!   engine and encode timed offline on the same queries.
//! * **chaos traffic** — the same closed loop through the chaos proxy,
//!   for retries and faults.

use std::time::Instant;

use droplens_bgp::BgpArchive;
use droplens_core::paper::{self, ExperimentResults};
use droplens_core::{experiments, Study};
use droplens_drop::{DropSnapshot, DropTimeline, SblDatabase};
use droplens_irr::IrrRegistry;
use droplens_net::{IngestPolicy, Quarantine};
use droplens_rir::RirStatsArchive;
use droplens_rpki::RoaArchive;
use droplens_serve::protocol::read_frame;
use droplens_serve::{Request, KIND_LABELS};

use crate::report::{Metric, Outcome};
use crate::reproduce::{self, Inputs, SetupTimes};
use crate::serve::{self, Plan, RealClient, Service, TracedClient};
use crate::stats::{median, Basis, Samples};

/// Repetitions of the offline part; each figure is their median.
const REPS: usize = 3;
/// The share of the one-thread job the layer times must account for
/// (attributed / job). Wide, because the layers and the job are timed in
/// separate calls on a noisy host; it still catches a layer that grew
/// outside every wrapper.
const COVERAGE_BAND: (f64, f64) = (0.70, 1.30);

const SOURCES: [&str; 6] = ["bgp", "irr", "rpki", "rir", "drop", "sbl"];
const INDEXES: [&str; 5] = ["bgp", "irr", "rpki", "rir", "drop"];
const EXPERIMENTS: [&str; 16] = [
    "summary",
    "fig1",
    "fig2",
    "table1",
    "sec5",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "table2",
    "sec4",
    "sec6",
    "ext_maxlen",
    "ext_rov",
    "ext_profiles",
];
/// Engine kinds reported one by one (`KIND_LABELS` indices).
const ENGINE_KINDS: [usize; 5] = [1, 2, 3, 4, 5];

pub fn run(seed: u64, seconds: f64, reference: &Option<String>) -> Outcome {
    let (inputs, synth) = reproduce::generate(seed, reproduce::SETUP_REPS);
    let expected = reproduce::expected_output(seed, &inputs, reference);
    let mut outcome = offline(seed, &inputs, &synth, &expected);

    // The two traffic segments share the run's measuring time.
    let half = seconds / 2.0;
    let plan = serve::plan(&inputs, seed);
    let svc = Service::start(&inputs, None);
    outcome.absorb(serve_layers(&svc, &plan, half, seed));
    svc.stop();
    let svc = Service::start(&inputs, Some(seed));
    drop(inputs);
    outcome.absorb(chaos_layers(&svc, &plan, half, seed));
    svc.stop();
    outcome
}

/// One repetition of the offline part, in seconds unless named.
#[derive(Default)]
struct Rep {
    parse_s: [f64; 6],
    records: [usize; 6],
    parse_alloc_mb: f64,
    index_s: [f64; 5],
    index_alloc_mb: f64,
    from_text_s: f64,
    exp_s: [f64; 16],
    scorecard_s: f64,
    render_s: f64,
    compute_s: f64,
    /// The serial layer-by-layer replay, wrappers included.
    replay_s: f64,
    job_s: f64,
    traced_job_s: f64,
    single_job_s: f64,
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = std::hint::black_box(f());
    *slot = t0.elapsed().as_secs_f64();
    v
}

/// Bytes this thread allocated while `f` ran, in MB.
fn allocated_mb<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let before = droplens_obs::alloc::thread_counts().unwrap_or_default();
    let v = f();
    let after = droplens_obs::alloc::thread_counts().unwrap_or_default();
    *slot = after.alloc_bytes.saturating_sub(before.alloc_bytes) as f64 / 1e6;
    v
}

fn ingest_failed(what: &str, e: impl std::fmt::Display) -> ! {
    crate::fail(&format!("{what} failed on clean archives: {e}"))
}

/// Every parser, then every index constructor, one at a time.
fn parse_and_index(inputs: &Inputs, rep: &mut Rep) {
    let text = &inputs.text;
    let strict = IngestPolicy::Strict;
    let q = |label: &str| Quarantine::for_policy(label, &strict);
    let [p_bgp, p_irr, p_rpki, p_rir, p_drop, p_sbl] = &mut rep.parse_s;

    let (updates, journal, events, rir_files, snapshots, sbl) =
        allocated_mb(&mut rep.parse_alloc_mb, || {
            let updates = timed(p_bgp, || {
                droplens_bgp::format::parse_updates_with(&text.bgp_updates, &mut q("bgp"))
            })
            .unwrap_or_else(|e| ingest_failed("parse bgp", e));
            let journal = timed(p_irr, || {
                droplens_irr::journal::parse_journal_with(&text.irr_journal, &mut q("irr"))
            })
            .unwrap_or_else(|e| ingest_failed("parse irr", e));
            let events = timed(p_rpki, || {
                droplens_rpki::format::parse_events_with(&text.roa_events, &mut q("rpki"))
            })
            .unwrap_or_else(|e| ingest_failed("parse rpki", e));
            let rir_files = timed(p_rir, || {
                let mut out = Vec::with_capacity(text.rir_snapshots.len());
                for (date, files) in &text.rir_snapshots {
                    let mut kept = Vec::with_capacity(files.len());
                    for f in files {
                        match droplens_rir::format::parse_stats_file_with(f, &mut q("rir")) {
                            Ok(Some(file)) => kept.push(file),
                            Ok(None) => ingest_failed("parse rir", "a file was quarantined"),
                            Err(e) => ingest_failed("parse rir", e),
                        }
                    }
                    out.push((*date, kept));
                }
                out
            });
            let snapshots = timed(p_drop, || {
                text.drop_snapshots
                    .iter()
                    .map(|(date, body)| {
                        DropSnapshot::parse_with(*date, body, &mut q("drop"))
                            .unwrap_or_else(|e| ingest_failed("parse drop", e))
                    })
                    .collect::<Vec<_>>()
            });
            let sbl = timed(p_sbl, || {
                SblDatabase::parse_with(&text.sbl_records, &mut q("sbl"))
            })
            .unwrap_or_else(|e| ingest_failed("parse sbl", e));
            (updates, journal, events, rir_files, snapshots, sbl)
        });
    rep.records = [
        updates.len(),
        journal.len(),
        events.len(),
        rir_files
            .iter()
            .map(|(_, files)| files.iter().map(|f| f.records.len()).sum::<usize>())
            .sum(),
        snapshots.iter().map(|s| s.entries.len()).sum(),
        sbl.len(),
    ];

    let [i_bgp, i_irr, i_rpki, i_rir, i_drop] = &mut rep.index_s;
    let indexes = allocated_mb(&mut rep.index_alloc_mb, || {
        let bgp = timed(i_bgp, || {
            BgpArchive::from_updates(inputs.world.peers.clone(), &updates)
        });
        let irr = timed(i_irr, || IrrRegistry::from_journal(&journal));
        let roa = timed(i_rpki, || RoaArchive::from_events(&events));
        let rir = timed(i_rir, || {
            let mut rir = RirStatsArchive::new();
            for (date, files) in &rir_files {
                rir.try_add_snapshot(*date, files)
                    .unwrap_or_else(|e| ingest_failed("index rir", e));
            }
            rir
        });
        let drop = timed(i_drop, || DropTimeline::try_from_snapshots(&snapshots))
            .unwrap_or_else(|e| ingest_failed("index drop", e));
        (bgp, irr, roa, rir, drop)
    });
    drop((indexes, updates, journal, events, rir_files, snapshots, sbl));
}

/// Every experiment, the scorecard and the rendering, one at a time.
/// Returns the rendered report.
fn run_experiments(seed: u64, study: &Study, rep: &mut Rep) -> String {
    let e = &mut rep.exp_s;
    let results = ExperimentResults {
        summary: timed(&mut e[0], || experiments::summary::compute(study)),
        fig1: timed(&mut e[1], || experiments::fig1::compute(study)),
        fig2: timed(&mut e[2], || experiments::fig2::compute(study)),
        table1: timed(&mut e[3], || experiments::table1::compute(study)),
        sec5: timed(&mut e[4], || experiments::sec5::compute(study)),
        fig3: timed(&mut e[5], || experiments::fig3::compute(study)),
        fig4: timed(&mut e[6], || experiments::fig4::compute(study)),
        fig5: timed(&mut e[7], || experiments::fig5::compute(study)),
        fig6: timed(&mut e[8], || experiments::fig6::compute(study)),
        fig7: timed(&mut e[9], || experiments::fig7::compute(study)),
        table2: timed(&mut e[10], || experiments::table2::compute(study)),
        sec4: timed(&mut e[11], || experiments::sec4::compute(study)),
        sec6: timed(&mut e[12], || experiments::sec6::compute(study)),
        ext_maxlen: timed(&mut e[13], || experiments::ext_maxlen::compute(study)),
        ext_rov: timed(&mut e[14], || experiments::ext_rov::compute(study)),
        ext_profiles: timed(&mut e[15], || experiments::ext_profiles::compute(study)),
    };
    let targets = timed(&mut rep.scorecard_s, || {
        paper::scorecard_with(study, &results)
    });
    timed(&mut rep.render_s, || {
        reproduce::render(seed, &results, &targets)
    })
}

/// The serial layer-by-layer replay of one job, beside the two stages
/// it decomposes (`Study::from_text`, `ExperimentResults::compute`) run
/// whole at nproc. Returns the replay's rendered report.
fn replay(seed: u64, inputs: &Inputs, rep: &mut Rep) -> String {
    let t0 = Instant::now();
    with_threads(1, || parse_and_index(inputs, rep));
    let parse_index_s = t0.elapsed().as_secs_f64();
    // The experiments need an assembled study; the assembly itself
    // (annotation, correlation, the ingest ledger) is not a public
    // layer and lands in `study.other_s`.
    let study = timed(&mut rep.from_text_s, || reproduce::study_from_text(inputs));
    let t1 = Instant::now();
    let out = with_threads(1, || run_experiments(seed, &study, rep));
    rep.replay_s = parse_index_s + t1.elapsed().as_secs_f64();
    timed(&mut rep.compute_s, || ExperimentResults::compute(&study));
    out
}

/// Run `f` with `DROPLENS_THREADS` pinned to `n`, restoring the pinned
/// value afterwards. Called only while no other thread of this process
/// reads the environment.
fn with_threads<T>(n: usize, f: impl FnOnce() -> T) -> T {
    let saved = std::env::var("DROPLENS_THREADS").ok();
    std::env::set_var("DROPLENS_THREADS", n.to_string());
    let v = f();
    match saved {
        Some(s) => std::env::set_var("DROPLENS_THREADS", s),
        None => std::env::remove_var("DROPLENS_THREADS"),
    }
    v
}

fn offline(seed: u64, inputs: &Inputs, synth: &SetupTimes, expected: &str) -> Outcome {
    let mut reps: Vec<Rep> = Vec::with_capacity(REPS);
    let mut outputs = 0u64;
    let mut failed = 0u64;
    let mut check = |out: &str| {
        outputs += 1;
        if !reproduce::output_ok(seed, out, expected) {
            failed += 1;
        }
    };
    let tracer = droplens_obs::trace::global();
    for i in 0..REPS {
        let mut rep = Rep::default();
        check(&replay(seed, inputs, &mut rep));
        let done = with_threads(1, || {
            timed(&mut rep.single_job_s, || reproduce::job(seed, inputs))
        });
        check(&done.output);
        drop(done);
        // An untimed job at nproc first: the first one after the
        // one-thread job pays for the workers' fresh allocations, which
        // would bias whichever side of the pair ran first.
        check(&reproduce::job(seed, inputs).output);
        // The tracer-off/on pair alternates which side runs first.
        for traced in [i % 2 == 1, i % 2 == 0] {
            if traced {
                tracer.enable();
            }
            let slot = if traced {
                &mut rep.traced_job_s
            } else {
                &mut rep.job_s
            };
            let done = timed(slot, || reproduce::job(seed, inputs));
            if traced {
                tracer.disable();
                drop(tracer.drain());
            }
            check(&done.output);
        }
        reps.push(rep);
    }

    let med = |f: &dyn Fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let mut m = Vec::new();
    m.push(Metric::new(
        "synth.generate_s",
        median(&synth.generate_s),
        "s",
    ));
    m.push(Metric::new(
        "synth.serialize_s",
        median(&synth.serialize_s),
        "s",
    ));
    let mut parse_total = 0.0;
    for (i, src) in SOURCES.iter().enumerate() {
        let s = med(&|r| r.parse_s[i]);
        parse_total += s;
        m.push(Metric::new(format!("parse.{src}.s"), s, "s"));
        let records = reps[0].records[i] as f64;
        m.push(Metric::new(
            format!("parse.{src}.records_per_s"),
            records / s,
            "1/s",
        ));
    }
    m.push(Metric::new(
        "parse.alloc_mb",
        med(&|r| r.parse_alloc_mb),
        "MB",
    ));
    let mut index_total = 0.0;
    for (i, src) in INDEXES.iter().enumerate() {
        let s = med(&|r| r.index_s[i]);
        index_total += s;
        m.push(Metric::new(format!("index.{src}.s"), s, "s"));
    }
    m.push(Metric::new(
        "index.alloc_mb",
        med(&|r| r.index_alloc_mb),
        "MB",
    ));
    let mut exp_total = 0.0;
    for (i, name) in EXPERIMENTS.iter().enumerate() {
        let s = med(&|r| r.exp_s[i]);
        exp_total += s;
        m.push(Metric::new(format!("exp.{name}.s"), s, "s"));
    }
    let scorecard_s = med(&|r| r.scorecard_s);
    let render_s = med(&|r| r.render_s);
    m.push(Metric::new("exp.scorecard.s", scorecard_s, "s"));
    m.push(Metric::new("exp.render.s", render_s, "s"));

    // Study build and experiments at nproc against their serial layers.
    let from_text_s = med(&|r| r.from_text_s);
    let compute_s = med(&|r| r.compute_s);
    m.push(Metric::new("study.from_text_s", from_text_s, "s"));
    m.push(Metric::new(
        "par.study_speedup",
        (parse_total + index_total) / from_text_s,
        "ratio",
    ));
    m.push(Metric::new(
        "par.experiments_speedup",
        exp_total / compute_s,
        "ratio",
    ));

    // Coverage: the layers against the one-thread job.
    let attributed = parse_total + index_total + exp_total + scorecard_s + render_s;
    let single_s = med(&|r| r.single_job_s);
    let coverage = attributed / single_s;
    m.push(Metric::new("study.other_s", single_s - attributed, "s"));
    m.push(Metric::new("study.coverage_pct", coverage * 100.0, "%"));

    // Overheads against the untraced job at nproc, as the median of
    // each repetition's own ratio: the two sides of a ratio run seconds
    // apart, so host drift between repetitions cancels.
    let job_s = med(&|r| r.job_s);
    let traced_job_s = med(&|r| r.traced_job_s);
    let replay_s = med(&|r| r.replay_s);
    m.push(Metric::new(
        "obs.trace_overhead_pct",
        med(&|r| (r.traced_job_s / r.job_s - 1.0) * 100.0),
        "%",
    ));
    m.push(Metric::new(
        "trace.overhead_pct",
        med(&|r| (r.replay_s / r.job_s - 1.0) * 100.0),
        "%",
    ));

    let coverage_ok = (COVERAGE_BAND.0..=COVERAGE_BAND.1).contains(&coverage);
    let mut outcome = Outcome::new(outputs + 1, failed + u64::from(!coverage_ok));
    outcome.metrics = m;
    outcome.detail(
        "offline",
        &format!(
            "{{\"reps\": {REPS}, \"job_s\": {job_s}, \"traced_job_s\": {traced_job_s}, \
             \"single_thread_job_s\": {single_s}, \"attributed_s\": {attributed}, \
             \"replay_s\": {replay_s}, \"coverage_ok\": {coverage_ok}, \"outputs_checked\": {outputs}}}"
        ),
    );
    outcome
}

fn p50(values: Vec<f64>) -> f64 {
    Samples::new(values).p50().unwrap_or(0.0)
}

/// Share of client time spent in queries slower than [`serve::SLOW_MS`].
fn slow_share(latencies_ms: &[f64]) -> f64 {
    let total: f64 = latencies_ms.iter().sum();
    let slow: f64 = latencies_ms.iter().filter(|&&ms| ms > serve::SLOW_MS).sum();
    if total > 0.0 {
        slow / total
    } else {
        0.0
    }
}

/// Clean traffic: each attempt split into its phases, then decode,
/// engine and encode timed offline on the same queries.
fn serve_layers(svc: &Service, plan: &Plan, seconds: f64, seed: u64) -> Outcome {
    let server_conns = droplens_obs::global().counter("serve.connections");
    let conns_before = server_conns.value();
    let addr = svc.addr();
    let (stats, callers) = serve::drive(plan, seconds, |t| TracedClient::new(addr, seed, t));
    let connections = server_conns.value() - conns_before;

    let mut connect = Vec::new();
    let mut send = Vec::new();
    let mut wait = Vec::new();
    let mut attempts = 0;
    for c in callers {
        connect.extend(c.connect_us);
        send.extend(c.send_us);
        wait.extend(c.reply_wait_us);
        attempts += c.attempts;
    }

    let mut decode = Vec::new();
    let mut encode = Vec::new();
    let mut engine_all = Vec::new();
    let mut engine_kind: Vec<Vec<f64>> = vec![Vec::new(); KIND_LABELS.len()];
    let mut offline_failed = 0u64;
    for q in plan.queries() {
        let frame = q.req.to_frame();
        let t0 = Instant::now();
        let decoded = match read_frame(&mut frame.as_slice()) {
            Ok(Some((kind, payload))) => Request::decode(kind, &payload).ok(),
            _ => None,
        };
        let t1 = Instant::now();
        let Some(req) = decoded.filter(|r| *r == q.req) else {
            offline_failed += 1;
            continue;
        };
        let reply = std::hint::black_box(svc.engine.answer(&req));
        let t2 = Instant::now();
        let bytes = std::hint::black_box(reply.to_frame());
        let t3 = Instant::now();
        drop(bytes);
        if q.expected.as_ref().is_some_and(|e| *e != reply) {
            offline_failed += 1;
        }
        decode.push((t1 - t0).as_secs_f64() * 1e6);
        let engine_us = (t2 - t1).as_secs_f64() * 1e6;
        engine_all.push(engine_us);
        engine_kind[req.kind_index()].push(engine_us);
        encode.push((t3 - t2).as_secs_f64() * 1e6);
    }

    let reply_wait_us = p50(wait);
    let decode_us = p50(decode);
    let encode_us = p50(encode);
    let engine_us = p50(engine_all);
    let server_wait_us = reply_wait_us - decode_us - engine_us - encode_us;

    let mut m = vec![
        Metric::new("net.connect_us", p50(connect), "us"),
        Metric::new("proto.send_us", p50(send), "us"),
        Metric::new("serve.reply_wait_us", reply_wait_us, "us"),
        Metric::new("proto.decode_us", decode_us, "us"),
        Metric::new("proto.encode_us", encode_us, "us"),
    ];
    for k in ENGINE_KINDS {
        m.push(Metric::new(
            format!("engine.{}_us", KIND_LABELS[k]),
            p50(std::mem::take(&mut engine_kind[k])),
            "us",
        ));
    }
    m.push(Metric::new("serve.server_wait_us", server_wait_us, "us"));
    m.push(Metric::new(
        "serve.server_wait_share",
        server_wait_us / reply_wait_us,
        "ratio",
    ));
    // Connections the server accepted per query.
    m.push(Metric::new(
        "client.attempts_per_query",
        connections as f64 / stats.attempted.max(1) as f64,
        "ratio",
    ));
    m.push(Metric::new(
        "client.slow_share",
        slow_share(&stats.latencies_ms),
        "ratio",
    ));

    let checked_offline = plan.queries().count() as u64;
    let mut outcome = Outcome::new(
        stats.attempted + checked_offline,
        stats.failed() + offline_failed,
    );
    outcome.metrics = m;
    outcome.detail(
        "serve_clean_traced",
        &format!(
            "{{\"queries\": {}, \"ok\": {}, \"exhausted\": {}, \"mismatched\": {}, \
             \"attempts\": {attempts}, \"connections\": {connections}, \"qps\": {}}}",
            stats.attempted,
            stats.ok,
            stats.exhausted,
            stats.mismatched,
            stats.ok as f64 / stats.elapsed_s
        ),
    );
    outcome
}

/// Chaos traffic (`serve_chaos`): the `serve_clean` closed loop through
/// the chaos proxy. Its throughput and tail are reported here, as
/// per-layer figures without a bound, because a few 2 s deadline stalls
/// per run decide them.
fn chaos_layers(svc: &Service, plan: &Plan, seconds: f64, seed: u64) -> Outcome {
    let before = svc.chaos_log().unwrap_or_default();
    let addr = svc.addr();
    let (stats, _) = serve::drive(plan, seconds, |t| RealClient::new(addr, seed, t));
    let log = svc.chaos_log().unwrap_or_default();
    let (p99, basis) = Samples::new(stats.latencies_ms.clone())
        .tail(0.99)
        .unwrap_or((0.0, Basis::Max));
    let count = |after: u64, before: u64| (after - before) as f64;
    let mut outcome = Outcome::new(stats.attempted, stats.failed());
    outcome.metrics = vec![
        Metric::new("chaos.qps", stats.ok as f64 / stats.elapsed_s, "1/s"),
        Metric::new("chaos.p99_ms", p99, "ms"),
        // Connections the proxy accepted per query.
        Metric::new(
            "chaos.attempts_per_query",
            count(log.connections, before.connections) / stats.attempted.max(1) as f64,
            "ratio",
        ),
        Metric::new("chaos.slow_share", slow_share(&stats.latencies_ms), "ratio"),
        Metric::new(
            "chaos.corruptions",
            count(log.corruptions, before.corruptions),
            "count",
        ),
        Metric::new(
            "chaos.truncations",
            count(log.truncations, before.truncations),
            "count",
        ),
        Metric::new("chaos.resets", count(log.resets, before.resets), "count"),
        Metric::new("chaos.delays", count(log.delays, before.delays), "count"),
    ];
    outcome.detail(
        "serve_chaos_traced",
        &format!(
            "{{\"queries\": {}, \"ok\": {}, \"exhausted\": {}, \"mismatched\": {}, \
             \"samples\": {}, \"p99_basis\": \"{}\"}}",
            stats.attempted,
            stats.ok,
            stats.exhausted,
            stats.mismatched,
            stats.latencies_ms.len(),
            basis.label()
        ),
    );
    outcome
}
