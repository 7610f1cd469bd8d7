//! Regenerate every table and figure of the paper at full scale.
//!
//! ```text
//! cargo run --release -p droplens-bench --bin reproduce [seed]
//!     [--scale N]
//!     [--metrics-json PATH] [--trace PATH] [--mem]
//!     [--chaos SEED] [--ingest strict|permissive] [--quarantine PATH]
//! ```
//!
//! Generates the paper-scale synthetic world (≈712 DROP listings, ≈12k
//! routed prefixes, 30 collector peers, June 2019 – March 2022), builds
//! the five-source study, and prints each experiment in the order the
//! paper presents them. EXPERIMENTS.md records this output against the
//! published numbers.
//!
//! Every stage runs under a `droplens-obs` span; `--metrics-json PATH`
//! writes the resulting run report (per-stage wall clock, per-parser
//! record counters) as stable JSON. CI's perf-smoke job uploads it;
//! the benchmark figures themselves come from `perfbench/` and live in
//! `BENCH_LEDGER.jsonl`.
//!
//! `--scale N` multiplies the record-producing populations
//! ([`WorldConfig::paper_scaled`]): N× the routed prefixes, listings,
//! journal entries and ROA events, over the same study window. The
//! stderr summary and the run report gain total-record and records/sec
//! ingest-throughput figures. CI's scale-smoke job runs `--scale 4
//! --metrics-json PATH --mem` at 1 and 8 workers and compares the span
//! totals.
//!
//! `--chaos SEED` corrupts the serialized archives with a seeded
//! `droplens-faults` injector (0.5% of lines, all classes) before the
//! pipeline re-parses them — pair it with `--ingest permissive`. CI's
//! chaos-smoke job runs this at 1 and 8 workers and byte-compares the
//! stdout. `--quarantine PATH` writes the per-source ingest ledger.
//!
//! `--trace PATH` records a hierarchical trace of the whole run — stage
//! spans, per-worker `par` task spans with queue-wait, parser spans,
//! quarantine instants — and writes it as Chrome trace-event JSON
//! loadable in Perfetto. Tracing never touches stdout: the reproduction
//! output stays byte-identical with or without it.
//!
//! `--mem` prints the allocation summary (bytes/ops allocated and
//! freed, peak, peak RSS) to stderr and folds the `mem.*` gauges into
//! the `--metrics-json` report, if one is asked for. The binary
//! carries the tracking allocator unconditionally (a few relaxed
//! atomics per allocation); the flag only controls reporting, and
//! stdout stays byte-identical either way.

use std::fmt::Display;
use std::path::PathBuf;

use droplens_core::{paper, IngestError, Study, StudyConfig};
use droplens_net::{DateRange, IngestPolicy};
use droplens_synth::{TextArchives, World, WorldConfig};

/// Always-on allocation tracking (see the module docs): collection is
/// cheap enough to leave compiled in, `--mem` only controls reporting.
#[global_allocator]
static ALLOC: droplens_obs::alloc::TrackingAlloc = droplens_obs::alloc::TrackingAlloc::system();

fn main() {
    let mut seed = 42u64;
    let mut scale = 1usize;
    let mut metrics_json: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut mem = false;
    let mut chaos: Option<u64> = None;
    let mut policy = IngestPolicy::Strict;
    let mut quarantine: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let s = args.next().unwrap_or_else(|| die("--scale wants a count"));
                scale = s
                    .parse()
                    .unwrap_or_else(|_| die("--scale wants a positive integer"));
                if scale == 0 {
                    die("--scale wants a positive integer");
                }
            }
            "--metrics-json" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| die("--metrics-json wants a path"));
                metrics_json = Some(PathBuf::from(path));
            }
            "--trace" => {
                let path = args.next().unwrap_or_else(|| die("--trace wants a path"));
                trace_out = Some(PathBuf::from(path));
            }
            "--mem" => mem = true,
            "--chaos" => {
                let s = args.next().unwrap_or_else(|| die("--chaos wants a seed"));
                chaos = Some(
                    s.parse()
                        .unwrap_or_else(|_| die("chaos seed must be a u64")),
                );
            }
            "--ingest" => {
                policy = match args.next().as_deref() {
                    Some("strict") => IngestPolicy::Strict,
                    Some("permissive") => IngestPolicy::permissive(),
                    other => die(&format!("--ingest wants strict|permissive, got {other:?}")),
                };
            }
            "--quarantine" => {
                let path = args
                    .next()
                    .unwrap_or_else(|| die("--quarantine wants a path"));
                quarantine = Some(PathBuf::from(path));
            }
            flag if flag.starts_with("--") => die(&format!("unknown flag {flag:?}")),
            _ => seed = arg.parse().unwrap_or_else(|_| die("seed must be a u64")),
        }
    }

    if trace_out.is_some() {
        droplens_obs::trace::global().enable();
    }

    let obs = droplens_obs::global();
    let run_span = obs.span("reproduce");

    let gen_span = obs.span("generate");
    let config = WorldConfig::paper_scaled(scale);
    let world = World::generate(seed, &config);
    let generated_in = gen_span.finish();
    eprintln!(
        "world generated in {:?}: {} BGP updates, {} ROA events, {} IRR entries, {} listings",
        generated_in,
        world.bgp_updates.len(),
        world.roa_events.len(),
        world.irr_journal.len(),
        world.truth.listed.len(),
    );

    // Every record the study stage will parse back in — the throughput
    // denominator for the records/sec figure.
    let total_records = world.bgp_updates.len()
        + world.irr_journal.len()
        + world.roa_events.len()
        + world
            .rir_snapshots
            .iter()
            .map(|(_, files)| files.iter().map(|f| f.rows.len()).sum::<usize>())
            .sum::<usize>()
        + world
            .drop_snapshots
            .iter()
            .map(|s| s.entries.len())
            .sum::<usize>()
        + world.sbl_db.len();

    // Round-trip through the wire formats so the run report counts every
    // parsed record — the same path a deployment against real feeds uses.
    // (`Study::from_text` and `Study::from_world` produce identical
    // studies; the round trip is covered by core's tests.)
    let study_span = obs.span("study");
    let mut study_config = StudyConfig::new(DateRange::inclusive(
        world.config.study_start,
        world.config.study_end,
    ));
    study_config.ingest = policy;
    study_config.manual_labels = world.manual_labels();
    let loaded = load(&world, study_config, |text| {
        if let Some(chaos_seed) = chaos {
            let log = droplens_faults::Corruptor::new(chaos_seed)
                .with_rate(0.005)
                .corrupt_archives(text);
            eprintln!(
                "chaos: injected {} corruption events (seed {chaos_seed}, rate 0.5%)",
                log.total()
            );
        }
    });
    let study = match loaded {
        Ok(study) => study,
        Err(e) => {
            eprintln!("ingestion failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &quarantine {
        match std::fs::write(path, study.ingest.to_json()) {
            Ok(()) => eprintln!("quarantine ledger written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write quarantine ledger to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    let built_in = study_span.finish();
    let records_per_sec = total_records as f64 / built_in.as_secs_f64().max(f64::EPSILON);
    eprintln!(
        "study built in {built_in:?} ({total_records} records, {records_per_sec:.0} records/sec)\n"
    );

    println!("=== droplens reproduction (seed {seed}) ===\n");

    // Compute every experiment exactly once, fanning out across workers
    // (each records its own `reproduce/experiments/<name>` span), then
    // print from this thread in the paper's presentation order.
    let results = paper::ExperimentResults::compute(&study);

    present("Study overview", &results.summary);
    present("Figure 1 — classification of DROP entries", &results.fig1);
    present(
        "Figure 2 — effects of blocklisting on visibility",
        &results.fig2,
    );
    present("Table 1 — RPKI signing rates", &results.table1);
    present("Section 5 — effectiveness of the IRR", &results.sec5);
    present("Figure 3 — forged-IRR lead times", &results.fig3);
    present(
        "Figure 4 / Section 6.1 — RPKI-signed hijacks",
        &results.fig4,
    );
    present("Figure 5 — routing status of ROAs", &results.fig5);
    present(
        "Figure 6 — unallocated space on DROP vs AS0 policies",
        &results.fig6,
    );
    present("Figure 7 — RIR free pools", &results.fig7);
    present("Table 2 / Appendix A — SBL categorization", &results.table2);
    present("Section 4.1 — deallocation after listing", &results.sec4);
    present("Section 6.2 — AS0 at operator and RIR level", &results.sec6);
    present(
        "Extension — maxLength sub-prefix hijack surface",
        &results.ext_maxlen,
    );
    present(
        "Extension — counterfactual ROV deployment",
        &results.ext_rov,
    );
    present("Extension — attacker-AS dossiers", &results.ext_profiles);

    section("Scorecard — paper vs measured");
    {
        // Evaluates the precomputed results — the suite is not recomputed.
        let _span = obs.span("experiments/scorecard");
        let targets = paper::scorecard_with(&study, &results);
        println!("{}", paper::render(&targets));
    }

    eprintln!("total: {:?}", run_span.finish());

    if let Some(path) = trace_out {
        let tracer = droplens_obs::trace::global();
        tracer.disable();
        let trace = tracer.drain();
        match std::fs::write(&path, trace.to_chrome_json()) {
            Ok(()) => {
                let coverage = trace
                    .coverage("reproduce")
                    .map(|c| format!("{:.1}%", c * 100.0))
                    .unwrap_or_else(|| "n/a".to_owned());
                eprintln!(
                    "trace written to {} ({} events, {coverage} of the run inside child spans)",
                    path.display(),
                    trace.events.len(),
                );
            }
            Err(e) => {
                eprintln!("cannot write trace to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    // Fold mem.* gauges in before any report snapshot, so
    // `--metrics-json` + `--mem` produce one consistent document.
    if mem {
        droplens_obs::alloc::record_gauges(obs);
    }

    if let Some(path) = metrics_json {
        // Workload identity plus the ingest-throughput figures the
        // scale trajectory tracks.
        let mut report = obs.report();
        report.meta.insert("bin".to_owned(), "reproduce".to_owned());
        report.meta.insert("seed".to_owned(), seed.to_string());
        report.meta.insert("scale".to_owned(), scale.to_string());
        report
            .meta
            .insert("records_total".to_owned(), total_records.to_string());
        report.meta.insert(
            "records_per_sec".to_owned(),
            format!("{records_per_sec:.0}"),
        );
        match std::fs::write(&path, report.to_json()) {
            Ok(()) => eprintln!("metrics written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write metrics to {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if mem {
        eprintln!("{}", droplens_obs::alloc::snapshot().summary());
    }
}

/// Serialize the world, let `damage` rot the archives, and parse them
/// back into a study.
fn load(
    world: &World,
    config: StudyConfig,
    damage: impl FnOnce(&mut TextArchives),
) -> Result<Study, IngestError> {
    let mut archives = {
        let _span = droplens_obs::global().span("serialize");
        world.to_text_archives()
    };
    damage(&mut archives);
    Study::from_text(config, world.peers.clone(), &archives)
}

/// Reject a malformed command line: print the complaint and exit
/// nonzero, without the panic backtrace `expect` would produce.
fn die(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    std::process::exit(2);
}

/// Print one precomputed experiment section.
fn present<T: Display>(title: &str, result: &T) {
    section(title);
    println!("{result}");
}

fn section(title: &str) {
    println!("──────────────────────────────────────────────────────────");
    println!("{title}");
    println!("──────────────────────────────────────────────────────────");
}
