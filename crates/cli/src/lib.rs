//! The `droplens` command-line tool.
//!
//! Four subcommands, all built on the workspace libraries:
//!
//! * `generate` — write a synthetic world to an archive directory tree,
//!   in the wire formats the real feeds use;
//! * `analyze` — load an archive tree and run the paper's experiments;
//! * `classify` — run the Appendix-A classifier over SBL record text;
//! * `validate` — RFC 6811 route origin validation against a ROA journal.
//!
//! The command implementations return their output as `String` so the
//! integration tests can drive them without spawning processes.

#![warn(missing_docs)]

pub mod commands;
pub mod layout;
pub mod slo;
pub mod top;

use std::fmt;

/// CLI-level error: IO, parse failures, or usage problems.
#[derive(Debug)]
pub enum CliError {
    /// Filesystem failure, with the path involved.
    Io(String, std::io::Error),
    /// Argument parse failure.
    Parse(droplens_net::ParseError),
    /// Ingestion failure: strict parse error (located in its archive),
    /// error budget breach, or coverage gap beyond the configured
    /// budget.
    Ingest(droplens_net::IngestError),
    /// Bad usage (unknown flag, missing argument, ...).
    Usage(String),
    /// `droplens slo check --gate` found a violated target: the carried
    /// string is the full SLO table, which the binary prints before
    /// exiting nonzero (no usage text — the invocation was fine, the
    /// numbers weren't).
    Gate(String),
    /// A serve/query failure: the carried string is the full report or
    /// error text, printed before exiting nonzero (queries that
    /// exhausted their retry budget, or a load-gen run with failures or
    /// oracle mismatches).
    Serve(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Io(path, e) => write!(f, "{path}: {e}"),
            CliError::Parse(e) => write!(f, "{e}"),
            CliError::Ingest(e) => write!(f, "{e}"),
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Gate(_) => write!(f, "regression gate failed"),
            CliError::Serve(_) => write!(f, "serve failed"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<droplens_net::ParseError> for CliError {
    fn from(e: droplens_net::ParseError) -> Self {
        CliError::Parse(e)
    }
}

impl From<droplens_net::LocatedError> for CliError {
    fn from(e: droplens_net::LocatedError) -> Self {
        CliError::Ingest(e.into())
    }
}

impl From<droplens_net::IngestError> for CliError {
    fn from(e: droplens_net::IngestError) -> Self {
        CliError::Ingest(e)
    }
}

/// Top-level usage text.
pub const USAGE: &str = "\
droplens — Stop, DROP, and ROA reproduction toolkit

USAGE:
    droplens generate --out DIR [--seed N] [--scale small|paper]
    droplens analyze --dir DIR [--experiment NAME] [INGEST FLAGS]
    droplens scorecard --dir DIR [INGEST FLAGS]
    droplens classify [FILE]            (stdin when no file)
    droplens validate --roas FILE --date YYYY-MM-DD [--all-tals] PREFIX ASN
    droplens serve --dir DIR [SERVE FLAGS] [INGEST FLAGS]
    droplens query --addr HOST:PORT [--timeout-ms N] KIND [ARGS...]
    droplens top --addr HOST:PORT [--interval-ms N] [--count N]
    droplens slo check REPORT --spec FILE [--gate]
    droplens help

GLOBAL FLAGS:
    --metrics           print the instrumentation summary to stderr
    --metrics=PATH      write the run report as JSON to PATH
    --mem               print the allocation summary to stderr and fold
                        mem.* gauges into any --metrics report (stdout
                        stays untouched)
    --trace=PATH        record a hierarchical trace of the run and write
                        it as Chrome trace-event JSON to PATH (open in
                        Perfetto or chrome://tracing)

SERVE (long-lived query service over the indexed study; DESIGN.md §12):
    --addr HOST:PORT    bind address (default 127.0.0.1:0; the bound
                        address is announced on stderr)
    --workers N         worker threads (default 4)
    --queue N           bounded work-queue depth; accepts beyond it are
                        shed with a typed Busy reply (default 64)
    --timeout-ms N      per-connection read/write deadline (default 2000)
    --load-gen N        run the built-in load generator with N client
                        threads instead of waiting for a signal
    --queries M         load-gen queries per client thread (default 50)
    --seed S            load-gen master seed (default 42)
    --chaos SEED        load-gen only: route traffic through a seeded
                        chaos proxy (corruption + truncation + resets +
                        delays); exit nonzero unless every query still
                        succeeds and matches the offline answers
    --ledger PATH       write the fault-ledger JSON (malformed frames,
                        transport errors, sampled messages) to PATH
    --report PATH       write the load-gen report JSON (qps, latency
                        percentiles, per-kind breakdown) to PATH
    --slow-ms N         slow-query ledger threshold: requests slower
                        than N ms keep their args and phase timings in
                        the telemetry plane (default 100)
    --metrics-snapshot PATH
                        write the final droplens-metrics/1 telemetry
                        snapshot (windowed series, gauges, slow-query
                        ledger) to PATH before shutdown
    Without --load-gen the server runs until SIGINT/SIGTERM, then drains
    gracefully: stop accepting, shed the queue, finish in-flight replies
    whole, write final metrics.

QUERY (one question to a running server, with retries):
    KIND [ARGS...] is one of:
        ping
        visibility PREFIX DATE
        rov PREFIX ASN DATE [--all-tals]
        drop-listed PREFIX DATE
        drop-history PREFIX
        scorecard [SOURCE]
        stats
        metrics
    --addr HOST:PORT    the server (required)
    --timeout-ms N      per-attempt deadline (default 2000)

TOP (live telemetry view of a running server; DESIGN.md §13):
    Polls the server's Metrics frame and renders windowed q/s, latency
    quantiles, queue/in-flight gauges, and per-kind lifetime deltas.
    --addr HOST:PORT    the server (required)
    --interval-ms N     milliseconds between frames (default 2000)
    --count N           frames to render before exiting (default 0 =
                        until interrupted)
    --timeout-ms N      per-attempt query deadline (default 2000)

SLO (gate a load report against service-level objectives):
    REPORT is a --report JSON file; the spec is a TOML file with a
    [default] section and per-kind [kind.NAME] overrides, each setting
    p99_ms and/or max_error_rate (kinds with no traffic are reported
    as no-data and never gated).
    --spec FILE         the SLO spec (required)
    --gate              exit nonzero when any kind violates its targets
                        (default: report only)

INGEST FLAGS (analyze, scorecard, serve):
    --ingest strict|permissive   parsing policy (default strict: any
                                 malformed line aborts the run)
    --max-error-rate R           permissive error budget per source,
                                 0..1 (default 0.01)
    --max-gap-days N             permissive coverage-gap budget in days,
                                 cadence-adjusted (default 14)
    --quarantine PATH            write the per-source ingest ledger
                                 (counts, gaps, quarantined samples) as
                                 JSON to PATH

EXPERIMENTS:
    all (default), summary, fig1..fig7, table1, table2, sec4, sec5, sec6,
    ext_maxlen, ext_profiles, ext_rov
";
