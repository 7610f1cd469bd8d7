//! Subcommand implementations, process-free for testability.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use droplens_core::{experiments, IngestPolicy, Study};
use droplens_drop::{classify, extract_asns};
use droplens_net::{Asn, Date, Ipv4Prefix};
use droplens_rpki::format::parse_events;
use droplens_rpki::{RoaArchive, RovOutcome, Tal};
use droplens_synth::{World, WorldConfig};

use crate::layout;
use crate::CliError;

/// `droplens generate`: write a world to an archive tree.
pub fn generate(out: &Path, seed: u64, scale: &str) -> Result<String, CliError> {
    let config = match scale {
        "small" => WorldConfig::small(),
        "paper" => WorldConfig::paper(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown scale {other:?} (small|paper)"
            )))
        }
    };
    let world = World::generate(seed, &config);
    layout::write_world(out, &world)?;
    Ok(format!(
        "wrote {} listings, {} BGP updates, {} ROA events, {} IRR entries, {} stats snapshots to {}",
        world.truth.listed.len(),
        world.bgp_updates.len(),
        world.roa_events.len(),
        world.irr_journal.len(),
        world.rir_snapshots.len(),
        out.display(),
    ))
}

/// How a loading command should treat malformed archive input.
///
/// `policy` selects strict (abort on the first malformed line, the
/// default) or permissive (quarantine within error/gap budgets)
/// parsing; `quarantine` optionally writes the per-source ingest
/// ledger as JSON after a successful load.
#[derive(Debug, Clone, Default)]
pub struct IngestOptions {
    /// Parsing policy handed to [`Study::from_text`].
    pub policy: IngestPolicy,
    /// Where to write the ingest ledger JSON, if anywhere.
    pub quarantine: Option<PathBuf>,
}

/// Load the archive tree under `dir` into a study, honouring the
/// ingest options (shared by `analyze`, `scorecard` and `serve`).
fn load_study(dir: &Path, ingest: &IngestOptions) -> Result<Study, CliError> {
    let (mut config, peers) = layout::read_manifest(dir)?;
    config.ingest = ingest.policy;
    let archives = layout::read_archives(dir)?;
    let study = Study::from_text(config, peers, &archives)?;
    if let Some(path) = &ingest.quarantine {
        std::fs::write(path, study.ingest.to_json())
            .map_err(|e| CliError::Io(path.display().to_string(), e))?;
    }
    Ok(study)
}

/// `droplens analyze`: load an archive tree and run experiments.
pub fn analyze(dir: &Path, experiment: &str, ingest: &IngestOptions) -> Result<String, CliError> {
    let study = load_study(dir, ingest)?;
    run_experiments(&study, experiment)
}

/// One `analyze` section: its name and how to render it.
type Section = (&'static str, fn(&Study) -> String);

/// Run one named experiment (or `all`) and render it. Only the
/// sections that are printed are computed.
pub fn run_experiments(study: &Study, experiment: &str) -> Result<String, CliError> {
    let sections: [Section; 16] = [
        ("summary", |s| experiments::summary::compute(s).to_string()),
        ("fig1", |s| experiments::fig1::compute(s).to_string()),
        ("fig2", |s| experiments::fig2::compute(s).to_string()),
        ("fig3", |s| experiments::fig3::compute(s).to_string()),
        ("fig4", |s| experiments::fig4::compute(s).to_string()),
        ("fig5", |s| experiments::fig5::compute(s).to_string()),
        ("fig6", |s| experiments::fig6::compute(s).to_string()),
        ("fig7", |s| experiments::fig7::compute(s).to_string()),
        ("table1", |s| experiments::table1::compute(s).to_string()),
        ("table2", |s| experiments::table2::compute(s).to_string()),
        ("sec4", |s| experiments::sec4::compute(s).to_string()),
        ("sec5", |s| experiments::sec5::compute(s).to_string()),
        ("sec6", |s| experiments::sec6::compute(s).to_string()),
        ("ext_maxlen", |s| {
            experiments::ext_maxlen::compute(s).to_string()
        }),
        ("ext_profiles", |s| {
            experiments::ext_profiles::compute(s).to_string()
        }),
        ("ext_rov", |s| experiments::ext_rov::compute(s).to_string()),
    ];
    let mut out = String::new();
    for (name, compute) in sections {
        if experiment == "all" || experiment == name {
            let _ = writeln!(out, "## {name}\n{}", compute(study));
        }
    }
    if out.is_empty() {
        return Err(CliError::Usage(format!(
            "unknown experiment {experiment:?}"
        )));
    }
    Ok(out)
}

/// `droplens scorecard`: load an archive tree and print the paper-vs-
/// measured scorecard.
pub fn scorecard(dir: &Path, ingest: &IngestOptions) -> Result<String, CliError> {
    let study = load_study(dir, ingest)?;
    let targets = droplens_core::paper::scorecard(&study);
    Ok(droplens_core::paper::render(&targets))
}

/// `droplens classify`: Appendix-A classification of SBL record text.
/// Blank-line-separated blocks are classified independently.
pub fn classify_text(text: &str) -> String {
    let mut out = String::new();
    for (i, block) in text
        .split("\n\n")
        .map(str::trim)
        .filter(|b| !b.is_empty())
        .enumerate()
    {
        let c = classify(block);
        let cats: Vec<&str> = c.categories.iter().map(|c| c.code()).collect();
        let asns: Vec<String> = extract_asns(block).iter().map(|a| a.to_string()).collect();
        let _ = writeln!(
            out,
            "record {}: categories=[{}] keywords={} asns=[{}]",
            i + 1,
            if cats.is_empty() {
                "(manual inference needed)".to_owned()
            } else {
                cats.join(",")
            },
            c.keyword_hits,
            asns.join(","),
        );
    }
    if out.is_empty() {
        out.push_str("no records found\n");
    }
    out
}

/// `droplens validate`: ROV of one announcement against a ROA journal.
pub fn validate(
    roas_path: &Path,
    date: Date,
    prefix: Ipv4Prefix,
    origin: Asn,
    all_tals: bool,
) -> Result<String, CliError> {
    let text = std::fs::read_to_string(roas_path)
        .map_err(|e| CliError::Io(roas_path.display().to_string(), e))?;
    let archive = RoaArchive::from_events(&parse_events(&text)?);
    let tals: &[Tal] = if all_tals {
        &Tal::ALL
    } else {
        &Tal::PRODUCTION
    };
    let outcome = archive.validate_at(&prefix, origin, date, tals);
    let mut out = format!(
        "{prefix} originated by {origin} on {date}: {}\n",
        match outcome {
            RovOutcome::Valid => "Valid",
            RovOutcome::Invalid => "Invalid",
            RovOutcome::NotFound => "NotFound",
        }
    );
    for roa in archive.roas_covering_at(&prefix, date, tals) {
        let _ = writeln!(out, "  covered by {roa}");
    }
    Ok(out)
}

/// Options for `droplens serve` beyond the shared ingest flags.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (port 0 picks a free port; the bound address is
    /// announced on stderr).
    pub addr: std::net::SocketAddr,
    /// Worker threads.
    pub workers: usize,
    /// Bounded accept/work queue depth.
    pub queue: usize,
    /// Per-connection read/write deadline, milliseconds.
    pub timeout_ms: u64,
    /// When set, run the built-in load generator against the server
    /// instead of waiting for a signal: `(connections, queries per
    /// connection, seed)`.
    pub load_gen: Option<(usize, usize, u64)>,
    /// Load-gen only: route traffic through a seeded chaos proxy with
    /// `ChaosProfile::standard(seed)`.
    pub chaos: Option<u64>,
    /// Where to write the fault-ledger JSON, if anywhere.
    pub ledger: Option<PathBuf>,
    /// Where to write the load report JSON, if anywhere (load-gen only).
    pub report: Option<PathBuf>,
    /// Slow-query ledger threshold, milliseconds: requests slower than
    /// this land in the telemetry plane's bounded slow-query ledger.
    pub slow_ms: u64,
    /// Where to write the final `droplens-metrics/1` telemetry snapshot
    /// (the same JSON a live `Metrics` query answers), if anywhere.
    pub metrics_snapshot: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
            workers: 4,
            queue: 64,
            timeout_ms: 2_000,
            load_gen: None,
            chaos: None,
            ledger: None,
            report: None,
            slow_ms: 100,
            metrics_snapshot: None,
        }
    }
}

/// `droplens serve`: load the study once, then answer queries over TCP
/// until SIGINT/SIGTERM (or, with `--load-gen`, until the built-in load
/// run finishes). Draining is graceful: accepts stop, queued
/// connections get a typed `Busy`, in-flight replies finish whole, and
/// the final report (plus optional ledger/report JSON) is written.
pub fn serve(dir: &Path, ingest: &IngestOptions, opts: &ServeOptions) -> Result<String, CliError> {
    use droplens_serve::{Engine, Server, ServerConfig};
    use std::sync::Arc;

    let study = Arc::new(load_study(dir, ingest)?);
    let engine = Arc::new(Engine::new(study));
    let config = ServerConfig {
        addr: opts.addr,
        workers: opts.workers.max(1),
        queue_depth: opts.queue.max(1),
        deadline: std::time::Duration::from_millis(opts.timeout_ms.max(1)),
        slow_threshold: std::time::Duration::from_millis(opts.slow_ms.max(1)),
    };
    let handle = Server::start(Arc::clone(&engine), config)
        .map_err(|e| CliError::Io(opts.addr.to_string(), e))?;
    // Announced on stderr so stdout stays the final report (tests and
    // scripts parse this line for the port).
    eprintln!("droplens: serving on {}", handle.addr());

    let mut out = String::new();
    if let Some((connections, queries, seed)) = opts.load_gen {
        let proxy = match opts.chaos {
            Some(chaos_seed) => Some(
                droplens_faults::ChaosProxy::start(
                    handle.addr(),
                    droplens_faults::ChaosProfile::standard(chaos_seed),
                )
                .map_err(|e| CliError::Io("chaos proxy".into(), e))?,
            ),
            None => None,
        };
        let target = proxy.as_ref().map(|p| p.addr()).unwrap_or(handle.addr());
        let load = droplens_serve::LoadConfig {
            connections,
            queries_per_conn: queries,
            seed,
            ..droplens_serve::LoadConfig::default()
        };
        let report = droplens_serve::loadgen::run(target, &engine, &load);
        if let Some(path) = &opts.report {
            std::fs::write(path, report.to_json())
                .map_err(|e| CliError::Io(path.display().to_string(), e))?;
        }
        // Snapshot telemetry while the server is still live: the
        // windowed series and gauges reflect the run just finished.
        if let Some(path) = &opts.metrics_snapshot {
            std::fs::write(path, handle.metrics_json())
                .map_err(|e| CliError::Io(path.display().to_string(), e))?;
        }
        let chaos_log = proxy.map(|p| p.stop());
        let serve_report = handle.stop();
        if let Some(path) = &opts.ledger {
            std::fs::write(path, serve_report.ledger.to_json())
                .map_err(|e| CliError::Io(path.display().to_string(), e))?;
        }
        let _ = writeln!(out, "{}", report.summary());
        let _ = writeln!(out, "{}", serve_report.summary());
        if let Some(log) = chaos_log {
            let _ = writeln!(
                out,
                "chaos: {} connections, {} corruptions, {} truncations, {} resets, {} delays",
                log.connections, log.corruptions, log.truncations, log.resets, log.delays
            );
        }
        for sample in &report.samples {
            let _ = writeln!(out, "  sample: {sample}");
        }
        if !report.clean() {
            return Err(CliError::Serve(out));
        }
    } else {
        droplens_serve::shutdown::install();
        while !droplens_serve::shutdown::drain_requested() {
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        eprintln!("droplens: drain requested, stopping");
        if let Some(path) = &opts.metrics_snapshot {
            std::fs::write(path, handle.metrics_json())
                .map_err(|e| CliError::Io(path.display().to_string(), e))?;
        }
        let serve_report = handle.stop();
        if let Some(path) = &opts.ledger {
            std::fs::write(path, serve_report.ledger.to_json())
                .map_err(|e| CliError::Io(path.display().to_string(), e))?;
        }
        let _ = writeln!(out, "{}", serve_report.summary());
    }
    Ok(out)
}

/// `droplens query`: one query against a running server, with the
/// client's standard retry budget.
pub fn query(
    addr: std::net::SocketAddr,
    timeout_ms: u64,
    req: &droplens_serve::Request,
) -> Result<String, CliError> {
    use droplens_serve::{Client, ClientConfig};
    let mut client = Client::new(ClientConfig {
        addr,
        deadline: std::time::Duration::from_millis(timeout_ms.max(1)),
        retry: droplens_serve::RetryPolicy::default(),
    });
    match client.query(req) {
        Ok(reply) => Ok(reply.to_text()),
        Err(e) => Err(CliError::Serve(format!("query failed: {e}\n"))),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    #[test]
    fn classify_blocks() {
        let out = classify_text(
            "Snowshoe IP block on Stolen AS62927\n\nbulletproof hosting outfit\n\nquiet range\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("HJ"));
        assert!(lines[0].contains("SS"));
        assert!(lines[0].contains("AS62927"));
        assert!(lines[1].contains("MH"));
        assert!(lines[2].contains("manual inference needed"));
    }

    #[test]
    fn classify_empty() {
        assert_eq!(classify_text("  \n \n"), "no records found\n");
    }

    #[test]
    fn generate_rejects_unknown_scale() {
        let err = generate(Path::new("/tmp/never-used"), 1, "galactic").unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
    }

    #[test]
    fn run_experiments_rejects_unknown_name() {
        // Cheap study via the small world.
        let world = World::generate(3, &WorldConfig::small());
        let study = Study::from_world(&world);
        assert!(run_experiments(&study, "fig99").is_err());
        let one = run_experiments(&study, "fig1").unwrap();
        assert!(one.contains("## fig1"));
        assert!(!one.contains("## fig2"));
    }
}
