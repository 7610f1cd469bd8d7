//! `droplens` binary entry point: flag parsing and dispatch.

use std::path::PathBuf;
use std::process::ExitCode;

use droplens_cli::commands::IngestOptions;
use droplens_cli::{commands, CliError, USAGE};
use droplens_net::{Asn, Date, IngestPolicy, Ipv4Prefix};

/// Allocation tracking is always compiled in (collection is a few
/// relaxed atomics on the allocating thread's own cache line); the
/// `--mem` flag only controls reporting, never collection.
#[global_allocator]
static ALLOC: droplens_obs::alloc::TrackingAlloc = droplens_obs::alloc::TrackingAlloc::system();

/// The global `--metrics[=PATH]` flag: where the run report should go.
enum MetricsSink {
    /// Human summary on stderr.
    Stderr,
    /// JSON run report at the given path.
    Json(PathBuf),
}

fn main() -> ExitCode {
    let mut metrics: Option<MetricsSink> = None;
    let mut mem = false;
    let mut trace_out: Option<PathBuf> = None;
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| {
            if a == "--metrics" {
                metrics = Some(MetricsSink::Stderr);
                false
            } else if let Some(path) = a.strip_prefix("--metrics=") {
                metrics = Some(MetricsSink::Json(PathBuf::from(path)));
                false
            } else if a == "--mem" {
                mem = true;
                false
            } else if let Some(path) = a.strip_prefix("--trace=") {
                trace_out = Some(PathBuf::from(path));
                false
            } else {
                true
            }
        })
        .collect();
    if trace_out.is_some() {
        droplens_obs::trace::global().enable();
    }
    let result = run(&args);
    if let Some(path) = trace_out {
        let tracer = droplens_obs::trace::global();
        tracer.disable();
        let trace = tracer.drain();
        if let Err(e) = std::fs::write(&path, trace.to_chrome_json()) {
            eprintln!("droplens: cannot write trace to {}: {e}", path.display());
        }
    }
    // Fold mem.* gauges into the registry before any report snapshot,
    // so `--metrics --mem` sees one consistent document.
    if mem {
        droplens_obs::alloc::record_gauges(droplens_obs::global());
    }
    if let Some(sink) = metrics {
        let mut report = droplens_obs::global().report();
        report.meta.insert("command".to_owned(), args.join(" "));
        match sink {
            MetricsSink::Stderr => eprint!("{}", report.to_text()),
            MetricsSink::Json(path) => {
                if let Err(e) = std::fs::write(&path, report.to_json()) {
                    eprintln!("droplens: cannot write metrics to {}: {e}", path.display());
                }
            }
        }
    }
    if mem {
        eprintln!("{}", droplens_obs::alloc::snapshot().summary());
    }
    match result {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        // A tripped SLO gate still prints its table; the failure is in
        // the measured numbers, not the invocation.
        Err(CliError::Gate(output)) => {
            print!("{output}");
            eprintln!("droplens: regression gate failed");
            ExitCode::FAILURE
        }
        // Serve/query failures carry their report the same way.
        Err(CliError::Serve(output)) => {
            print!("{output}");
            eprintln!("droplens: serve failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("droplens: {e}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("generate") => {
            let mut out: Option<PathBuf> = None;
            let mut seed = 42u64;
            let mut scale = "small".to_owned();
            let rest: Vec<&str> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--out" => {
                        out = Some(PathBuf::from(value(&rest, &mut i)?));
                    }
                    "--seed" => {
                        seed = value(&rest, &mut i)?
                            .parse()
                            .map_err(|_| CliError::Usage("--seed wants a u64".into()))?;
                    }
                    "--scale" => scale = value(&rest, &mut i)?.to_owned(),
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
                i += 1;
            }
            let out = out.ok_or_else(|| CliError::Usage("generate needs --out DIR".into()))?;
            commands::generate(&out, seed, &scale).map(|s| s + "\n")
        }
        Some("analyze") => {
            let mut dir: Option<PathBuf> = None;
            let mut experiment = "all".to_owned();
            let mut ingest = IngestFlags::default();
            let rest: Vec<&str> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--dir" => dir = Some(PathBuf::from(value(&rest, &mut i)?)),
                    "--experiment" => experiment = value(&rest, &mut i)?.to_owned(),
                    flag if ingest.accept(flag, &rest, &mut i)? => {}
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
                i += 1;
            }
            let dir = dir.ok_or_else(|| CliError::Usage("analyze needs --dir DIR".into()))?;
            commands::analyze(&dir, &experiment, &ingest.build()?)
        }
        Some("scorecard") => {
            let mut dir: Option<PathBuf> = None;
            let mut ingest = IngestFlags::default();
            let rest: Vec<&str> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--dir" => dir = Some(PathBuf::from(value(&rest, &mut i)?)),
                    flag if ingest.accept(flag, &rest, &mut i)? => {}
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
                i += 1;
            }
            let dir = dir.ok_or_else(|| CliError::Usage("scorecard needs --dir DIR".into()))?;
            commands::scorecard(&dir, &ingest.build()?)
        }
        Some("classify") => {
            let text = match it.next() {
                Some(path) => {
                    std::fs::read_to_string(path).map_err(|e| CliError::Io(path.to_owned(), e))?
                }
                None => {
                    use std::io::Read as _;
                    let mut buf = String::new();
                    std::io::stdin()
                        .read_to_string(&mut buf)
                        .map_err(|e| CliError::Io("<stdin>".into(), e))?;
                    buf
                }
            };
            Ok(commands::classify_text(&text))
        }
        Some("validate") => {
            let mut roas: Option<PathBuf> = None;
            let mut date: Option<Date> = None;
            let mut all_tals = false;
            let mut positional: Vec<&str> = Vec::new();
            let rest: Vec<&str> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--roas" => roas = Some(PathBuf::from(value(&rest, &mut i)?)),
                    "--date" => date = Some(value(&rest, &mut i)?.parse()?),
                    "--all-tals" => all_tals = true,
                    other => positional.push(other),
                }
                i += 1;
            }
            let roas = roas.ok_or_else(|| CliError::Usage("validate needs --roas FILE".into()))?;
            let date = date.ok_or_else(|| CliError::Usage("validate needs --date".into()))?;
            let [prefix, asn] = positional.as_slice() else {
                return Err(CliError::Usage("validate needs PREFIX and ASN".into()));
            };
            let prefix: Ipv4Prefix = prefix.parse()?;
            let asn: Asn = asn.parse()?;
            commands::validate(&roas, date, prefix, asn, all_tals)
        }
        Some("serve") => {
            let mut dir: Option<PathBuf> = None;
            let mut ingest = IngestFlags::default();
            let mut opts = commands::ServeOptions::default();
            let mut load_gen: Option<usize> = None;
            let mut queries = 50usize;
            let mut seed = 42u64;
            let rest: Vec<&str> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--dir" => dir = Some(PathBuf::from(value(&rest, &mut i)?)),
                    "--addr" => opts.addr = parse_addr(value(&rest, &mut i)?)?,
                    "--workers" => opts.workers = parse_num(value(&rest, &mut i)?, "--workers")?,
                    "--queue" => opts.queue = parse_num(value(&rest, &mut i)?, "--queue")?,
                    "--timeout-ms" => {
                        opts.timeout_ms = parse_num(value(&rest, &mut i)?, "--timeout-ms")?
                    }
                    "--load-gen" => {
                        load_gen = Some(parse_num(value(&rest, &mut i)?, "--load-gen")?)
                    }
                    "--queries" => queries = parse_num(value(&rest, &mut i)?, "--queries")?,
                    "--seed" => seed = parse_num(value(&rest, &mut i)?, "--seed")?,
                    "--chaos" => opts.chaos = Some(parse_num(value(&rest, &mut i)?, "--chaos")?),
                    "--ledger" => opts.ledger = Some(PathBuf::from(value(&rest, &mut i)?)),
                    "--report" => opts.report = Some(PathBuf::from(value(&rest, &mut i)?)),
                    "--slow-ms" => opts.slow_ms = parse_num(value(&rest, &mut i)?, "--slow-ms")?,
                    "--metrics-snapshot" => {
                        opts.metrics_snapshot = Some(PathBuf::from(value(&rest, &mut i)?))
                    }
                    flag if ingest.accept(flag, &rest, &mut i)? => {}
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
                i += 1;
            }
            let dir = dir.ok_or_else(|| CliError::Usage("serve needs --dir DIR".into()))?;
            opts.load_gen = load_gen.map(|connections| (connections, queries, seed));
            if opts.chaos.is_some() && opts.load_gen.is_none() {
                return Err(CliError::Usage("--chaos needs --load-gen".into()));
            }
            commands::serve(&dir, &ingest.build()?, &opts)
        }
        Some("query") => {
            let mut addr: Option<std::net::SocketAddr> = None;
            let mut timeout_ms = 2_000u64;
            let mut all_tals = false;
            let mut positional: Vec<&str> = Vec::new();
            let rest: Vec<&str> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--addr" => addr = Some(parse_addr(value(&rest, &mut i)?)?),
                    "--timeout-ms" => {
                        timeout_ms = parse_num(value(&rest, &mut i)?, "--timeout-ms")?
                    }
                    "--all-tals" => all_tals = true,
                    flag if flag.starts_with("--") => {
                        return Err(CliError::Usage(format!("unknown flag {flag:?}")))
                    }
                    arg => positional.push(arg),
                }
                i += 1;
            }
            let addr =
                addr.ok_or_else(|| CliError::Usage("query needs --addr HOST:PORT".into()))?;
            let req = parse_query(&positional, all_tals)?;
            commands::query(addr, timeout_ms, &req)
        }
        Some("top") => {
            let mut opts = droplens_cli::top::TopOptions::default();
            let mut addr: Option<std::net::SocketAddr> = None;
            let rest: Vec<&str> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--addr" => addr = Some(parse_addr(value(&rest, &mut i)?)?),
                    "--interval-ms" => {
                        opts.interval_ms = parse_num(value(&rest, &mut i)?, "--interval-ms")?
                    }
                    "--count" => opts.count = parse_num(value(&rest, &mut i)?, "--count")?,
                    "--timeout-ms" => {
                        opts.timeout_ms = parse_num(value(&rest, &mut i)?, "--timeout-ms")?
                    }
                    other => return Err(CliError::Usage(format!("unknown flag {other:?}"))),
                }
                i += 1;
            }
            opts.addr = addr.ok_or_else(|| CliError::Usage("top needs --addr HOST:PORT".into()))?;
            droplens_cli::top::run(&opts)
        }
        Some("slo") => {
            let Some("check") = it.next() else {
                return Err(CliError::Usage("slo needs the check subcommand".into()));
            };
            let mut spec: Option<PathBuf> = None;
            let mut gate = false;
            let mut positional: Vec<&str> = Vec::new();
            let rest: Vec<&str> = it.collect();
            let mut i = 0;
            while i < rest.len() {
                match rest[i] {
                    "--spec" => spec = Some(PathBuf::from(value(&rest, &mut i)?)),
                    "--gate" => gate = true,
                    flag if flag.starts_with("--") => {
                        return Err(CliError::Usage(format!("unknown flag {flag:?}")))
                    }
                    arg => positional.push(arg),
                }
                i += 1;
            }
            let spec = spec.ok_or_else(|| CliError::Usage("slo check needs --spec FILE".into()))?;
            let [report] = positional.as_slice() else {
                return Err(CliError::Usage(
                    "slo check needs exactly one REPORT file".into(),
                ));
            };
            droplens_cli::slo::check(&spec, std::path::Path::new(report), gate)
        }
        Some("help") | None => Ok(USAGE.to_owned()),
        Some(other) => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Build the wire request from `query`'s positional arguments.
fn parse_query(positional: &[&str], all_tals: bool) -> Result<droplens_serve::Request, CliError> {
    use droplens_serve::Request;
    match positional {
        ["ping"] => Ok(Request::Ping),
        ["visibility", prefix, date] => Ok(Request::Visibility {
            prefix: prefix.parse()?,
            date: date.parse()?,
        }),
        ["rov", prefix, asn, date] => Ok(Request::Rov {
            prefix: prefix.parse()?,
            origin: asn.parse()?,
            date: date.parse()?,
            all_tals,
        }),
        ["drop-listed", prefix, date] => Ok(Request::DropListed {
            prefix: prefix.parse()?,
            date: date.parse()?,
        }),
        ["drop-history", prefix] => Ok(Request::DropHistory {
            prefix: prefix.parse()?,
        }),
        ["scorecard"] => Ok(Request::Scorecard { source: None }),
        ["scorecard", source] => Ok(Request::Scorecard {
            source: Some((*source).to_owned()),
        }),
        ["stats"] => Ok(Request::Stats),
        ["metrics"] => Ok(Request::Metrics),
        other => Err(CliError::Usage(format!(
            "unknown query {:?} (ping|visibility|rov|drop-listed|drop-history|scorecard|stats|metrics)",
            other.join(" ")
        ))),
    }
}

fn parse_addr(raw: &str) -> Result<std::net::SocketAddr, CliError> {
    raw.parse()
        .map_err(|_| CliError::Usage(format!("bad address {raw:?} (want HOST:PORT)")))
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, CliError> {
    raw.parse()
        .map_err(|_| CliError::Usage(format!("{flag} wants a number, got {raw:?}")))
}

/// Accumulator for the shared ingest flags on `analyze`/`scorecard`.
#[derive(Default)]
struct IngestFlags {
    policy: Option<IngestPolicy>,
    max_error_rate: Option<f64>,
    max_gap_days: Option<u32>,
    quarantine: Option<PathBuf>,
}

impl IngestFlags {
    /// Consume `flag` (and its value) if it is an ingest flag; returns
    /// `Ok(false)` when the flag is not ours so the caller can keep
    /// matching.
    fn accept(&mut self, flag: &str, rest: &[&str], i: &mut usize) -> Result<bool, CliError> {
        match flag {
            "--ingest" => self.policy = Some(value(rest, i)?.parse()?),
            "--max-error-rate" => {
                let raw = value(rest, i)?;
                let rate: f64 = raw.parse().map_err(|_| {
                    CliError::Usage(format!("--max-error-rate wants a number, got {raw:?}"))
                })?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(CliError::Usage(format!(
                        "--max-error-rate must be in 0..=1, got {rate}"
                    )));
                }
                self.max_error_rate = Some(rate);
            }
            "--max-gap-days" => {
                let raw = value(rest, i)?;
                self.max_gap_days = Some(raw.parse().map_err(|_| {
                    CliError::Usage(format!("--max-gap-days wants a day count, got {raw:?}"))
                })?);
            }
            "--quarantine" => self.quarantine = Some(PathBuf::from(value(rest, i)?)),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Resolve the accumulated flags into ingest options. Budget flags
    /// imply `--ingest permissive` when no policy was named, and are
    /// rejected under an explicit `--ingest strict` (strict has no
    /// budgets to tune).
    fn build(self) -> Result<IngestOptions, CliError> {
        let budgets_tuned = self.max_error_rate.is_some() || self.max_gap_days.is_some();
        let mut policy = match self.policy {
            Some(p) => p,
            None if budgets_tuned => IngestPolicy::permissive(),
            None => IngestPolicy::Strict,
        };
        if let IngestPolicy::Permissive {
            max_error_rate,
            max_gap_days,
        } = &mut policy
        {
            if let Some(rate) = self.max_error_rate {
                *max_error_rate = rate;
            }
            if let Some(days) = self.max_gap_days {
                *max_gap_days = days;
            }
        } else if budgets_tuned {
            return Err(CliError::Usage(
                "--max-error-rate/--max-gap-days need --ingest permissive".into(),
            ));
        }
        Ok(IngestOptions {
            policy,
            quarantine: self.quarantine,
        })
    }
}

fn value<'a>(rest: &[&'a str], i: &mut usize) -> Result<&'a str, CliError> {
    *i += 1;
    rest.get(*i)
        .copied()
        .ok_or_else(|| CliError::Usage(format!("{} needs a value", rest[*i - 1])))
}
