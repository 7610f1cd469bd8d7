//! Ingestion policy, quarantine accounting, and gap-aware coverage.
//!
//! The real feeds behind the study — FireHOL's DROP snapshot mirror,
//! RouteViews MRT dumps, the RADb journal, RIPE's ROA archive, RIR
//! delegated stats — are longitudinal archives with missing days,
//! truncated files, and malformed lines. This module defines how the
//! pipeline reacts to dirty input:
//!
//! * [`IngestPolicy`] — `Strict` (any bad byte aborts, the right default
//!   for synthetic input) or `Permissive` (malformed lines are
//!   *quarantined* and the run fails only when a per-source error budget
//!   or gap budget is blown);
//! * [`Quarantine`] — the per-source ledger a parser threads through one
//!   invocation: parsed/skipped/quarantined counts plus bounded samples
//!   of the rejected lines, each a [`LocatedError`] carrying file label
//!   and line number;
//! * [`GapSpan`] / [`SourceCoverage`] — explicit records of missing
//!   daily snapshots, so every number the pipeline emits can carry a
//!   data-completeness caveat;
//! * [`IngestReport`] — the merged pipeline-wide ledger, and
//!   [`IngestReport::enforce`], which turns a blown budget into an
//!   actionable [`IngestError`].
//!
//! Everything here is plain data merged in input order, so permissive
//! runs stay byte-identical at any worker count.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

use crate::{Date, DateRange, LocatedError, ParseError};

/// How archive loaders react to malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum IngestPolicy {
    /// Any malformed line aborts the whole run — correct for synthetic
    /// archives, where a bad byte means a bug, not a dirty feed.
    #[default]
    Strict,
    /// Malformed lines are quarantined (counted and sampled, not fatal);
    /// the run fails fast only when a source's error rate or snapshot-gap
    /// length exceeds its budget.
    Permissive {
        /// Highest tolerated per-source error rate, as a fraction in
        /// [0, 1] of candidate record lines.
        max_error_rate: f64,
        /// Longest tolerated run of missing snapshot days (beyond the
        /// source's expected cadence) in any one source.
        max_gap_days: u32,
    },
}

impl IngestPolicy {
    /// Default permissive error budget: 1% of record lines per source.
    pub const DEFAULT_MAX_ERROR_RATE: f64 = 0.01;
    /// Default permissive gap budget: two weeks of missing snapshots.
    pub const DEFAULT_MAX_GAP_DAYS: u32 = 14;

    /// Permissive mode with the default budgets.
    pub fn permissive() -> IngestPolicy {
        IngestPolicy::Permissive {
            max_error_rate: Self::DEFAULT_MAX_ERROR_RATE,
            max_gap_days: Self::DEFAULT_MAX_GAP_DAYS,
        }
    }

    /// True for [`IngestPolicy::Strict`].
    pub fn is_strict(&self) -> bool {
        matches!(self, IngestPolicy::Strict)
    }
}

impl FromStr for IngestPolicy {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "strict" => Ok(IngestPolicy::Strict),
            "permissive" => Ok(IngestPolicy::permissive()),
            other => Err(ParseError::new(
                "IngestPolicy",
                other,
                "expected strict or permissive",
            )),
        }
    }
}

impl fmt::Display for IngestPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestPolicy::Strict => write!(f, "strict"),
            IngestPolicy::Permissive {
                max_error_rate,
                max_gap_days,
            } => write!(
                f,
                "permissive (max_error_rate={max_error_rate}, max_gap_days={max_gap_days})"
            ),
        }
    }
}

/// How many quarantined-line samples each source ledger retains.
pub const QUARANTINE_SAMPLES_KEPT: usize = 8;

/// Per-source quarantine ledger, threaded through one parser invocation.
///
/// Parsers call [`Quarantine::record_ok`] for every accepted record,
/// [`Quarantine::record_skip`] for benign noise (blank and comment
/// lines), and [`Quarantine::reject`] for malformed input. `reject`
/// locates the error: in strict mode it returns it as a [`LocatedError`]
/// so the parser aborts with `?`; in permissive mode it counts the line,
/// keeps the first [`QUARANTINE_SAMPLES_KEPT`] errors, and lets the
/// parser continue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Quarantine {
    source: String,
    strict: bool,
    /// Records accepted.
    pub parsed: u64,
    /// Benign lines skipped (blank, comments, headers).
    pub skipped: u64,
    /// Malformed records quarantined (permissive mode only ever grows
    /// this past one).
    pub quarantined: u64,
    /// First [`QUARANTINE_SAMPLES_KEPT`] rejected lines, with location.
    pub samples: Vec<LocatedError>,
}

impl Quarantine {
    /// A strict ledger for `source` (any reject aborts).
    pub fn strict(source: impl Into<String>) -> Quarantine {
        Quarantine {
            source: source.into(),
            strict: true,
            ..Quarantine::default()
        }
    }

    /// A permissive ledger for `source` (rejects are quarantined).
    pub fn permissive(source: impl Into<String>) -> Quarantine {
        Quarantine {
            source: source.into(),
            strict: false,
            ..Quarantine::default()
        }
    }

    /// A ledger for `source` matching `policy`.
    pub fn for_policy(source: impl Into<String>, policy: &IngestPolicy) -> Quarantine {
        if policy.is_strict() {
            Quarantine::strict(source)
        } else {
            Quarantine::permissive(source)
        }
    }

    /// The source label (a file path or logical source name).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// True when rejects abort.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// An empty ledger for one part of this ledger's source, under the
    /// same policy and label; [`Quarantine::absorb`] it back, in input
    /// order, when the part is parsed.
    pub fn part(&self) -> Quarantine {
        Quarantine {
            source: self.source.clone(),
            strict: self.strict,
            ..Quarantine::default()
        }
    }

    /// Run the parse of one file (or one part of a file) against this
    /// ledger, then add what it accounted to the registry counters
    /// `<metric>.parsed`, `<metric>.skipped` and `<metric>.malformed`,
    /// once. A strict abort adds its malformed line, which the ledger
    /// does not count. Adding once per file rather than once per line
    /// keeps parsers on several workers off the counters' shared cache
    /// lines, and makes the counters equal the ledgers by construction.
    pub fn counted<T>(
        &mut self,
        metric: &str,
        parse: impl FnOnce(&mut Quarantine) -> Result<T, LocatedError>,
    ) -> Result<T, LocatedError> {
        let (parsed, skipped, quarantined) = (self.parsed, self.skipped, self.quarantined);
        let result = parse(self);
        let obs = droplens_obs::global();
        obs.counter(&format!("{metric}.parsed"))
            .add(self.parsed - parsed);
        obs.counter(&format!("{metric}.skipped"))
            .add(self.skipped - skipped);
        obs.counter(&format!("{metric}.malformed"))
            .add(self.quarantined - quarantined + u64::from(result.is_err()));
        result
    }

    /// Account one accepted record.
    pub fn record_ok(&mut self) {
        self.parsed += 1;
    }

    /// Account one benign skipped line.
    pub fn record_skip(&mut self) {
        self.skipped += 1;
    }

    /// Account one malformed record at 1-based `line` of this ledger's
    /// source, and sample it under `metric` in the process registry's
    /// error log. Strict: the located error is returned for the parser
    /// to propagate. Permissive: the line is quarantined and parsing
    /// continues.
    pub fn reject(
        &mut self,
        metric: &str,
        line: u32,
        error: ParseError,
    ) -> Result<(), LocatedError> {
        let located = LocatedError::new(error, &self.source, line);
        droplens_obs::global().error_sample(metric, located.to_string());
        if self.strict {
            return Err(located);
        }
        self.quarantined += 1;
        let tracer = droplens_obs::trace::global();
        if tracer.is_enabled() {
            use droplens_obs::trace::ArgValue;
            tracer.instant(
                "quarantine",
                "ingest",
                vec![
                    ("source", ArgValue::Str(self.source.clone())),
                    ("line", ArgValue::U64(u64::from(line))),
                    ("error", ArgValue::Str(located.to_string())),
                ],
            );
        }
        if self.samples.len() < QUARANTINE_SAMPLES_KEPT {
            self.samples.push(located);
        }
        Ok(())
    }

    /// Unwrap the `Ok(None)` of a parser that drops an unusable input
    /// whole, for that parser's strict wrapper. A strict ledger turns
    /// that reject into an error first, so `None` cannot come from one;
    /// should it, it is reported as `error` at `line`, located like any
    /// reject.
    pub fn require<T>(
        &self,
        parsed: Option<T>,
        line: u32,
        error: ParseError,
    ) -> Result<T, LocatedError> {
        parsed.ok_or_else(|| LocatedError::new(error, &self.source, line))
    }

    /// Candidate records seen: accepted plus quarantined.
    pub fn records_seen(&self) -> u64 {
        self.parsed + self.quarantined
    }

    /// Fraction of candidate records quarantined (0 when none seen).
    pub fn error_rate(&self) -> f64 {
        match self.records_seen() {
            0 => 0.0,
            n => self.quarantined as f64 / n as f64,
        }
    }

    /// Merge another ledger into this one (multi-file sources). Counts
    /// add; samples keep the first [`QUARANTINE_SAMPLES_KEPT`] in merge
    /// order, so merging in input order is deterministic.
    pub fn absorb(&mut self, other: Quarantine) {
        self.parsed += other.parsed;
        self.skipped += other.skipped;
        self.quarantined += other.quarantined;
        for s in other.samples {
            if self.samples.len() >= QUARANTINE_SAMPLES_KEPT {
                break;
            }
            self.samples.push(s);
        }
    }
}

/// An inclusive span of days a snapshot archive is missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GapSpan {
    /// First missing day.
    pub start: Date,
    /// Last missing day (inclusive).
    pub end: Date,
}

impl GapSpan {
    /// Number of missing days in the span.
    pub fn days(&self) -> u32 {
        (self.end - self.start + 1).max(0) as u32
    }
}

impl fmt::Display for GapSpan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{} ({} days)", self.start, self.end, self.days())
    }
}

/// Find the gaps in a sorted series of snapshot dates, given the source's
/// expected cadence in days (1 for daily archives, ~31 for monthly
/// stats). A delta larger than the cadence between consecutive snapshots
/// yields a [`GapSpan`] covering the missing days between them.
pub fn find_gaps(dates: &[Date], cadence_days: u32) -> Vec<GapSpan> {
    let mut gaps = Vec::new();
    for pair in dates.windows(2) {
        let delta = pair[1] - pair[0];
        if delta > cadence_days as i32 {
            gaps.push(GapSpan {
                start: pair[0] + 1,
                end: pair[1] - 1,
            });
        }
    }
    gaps
}

/// Snapshot coverage of one source over the study window, with explicit
/// gaps. Snapshot archives carry forward between snapshots, so a gap is
/// a span where the pipeline is *extrapolating*, not observing; the
/// budgeted size of a gap discounts the expected cadence (a monthly
/// source is not "missing" the 30 days between two monthly files).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceCoverage {
    /// First snapshot date (clamped into the window).
    pub first: Option<Date>,
    /// Last snapshot date (clamped into the window).
    pub last: Option<Date>,
    /// Number of snapshots observed.
    pub snapshots: u64,
    /// Expected days between snapshots (0 for event journals, which have
    /// no snapshot cadence and therefore no gap accounting).
    pub cadence_days: u32,
    /// Missing-day spans, in chronological order.
    pub gaps: Vec<GapSpan>,
}

impl SourceCoverage {
    /// Coverage of a snapshot series over `window` (half-open). Dates
    /// before the window count as covering its first day (carry-forward);
    /// a missing run at the head or tail of the window is a gap too.
    pub fn of_snapshots(dates: &[Date], cadence_days: u32, window: &DateRange) -> SourceCoverage {
        let Some(window_last) = window.last() else {
            return SourceCoverage {
                cadence_days,
                ..SourceCoverage::default()
            };
        };
        // Clamp into the window: anything at-or-before the start covers
        // the start day; anything past the end is outside the study.
        let mut clamped: Vec<Date> = dates
            .iter()
            .filter(|d| **d <= window_last)
            .map(|d| (*d).max(window.start()))
            .collect();
        clamped.dedup();
        let mut gaps = Vec::new();
        match (clamped.first(), clamped.last()) {
            (Some(&first), Some(&last)) => {
                if first > window.start() {
                    gaps.push(GapSpan {
                        start: window.start(),
                        end: first - 1,
                    });
                }
                gaps.extend(find_gaps(&clamped, cadence_days));
                if last < window_last && (window_last - last) > cadence_days as i32 {
                    gaps.push(GapSpan {
                        start: last + 1,
                        end: window_last,
                    });
                }
            }
            _ => gaps.push(GapSpan {
                start: window.start(),
                end: window_last,
            }),
        }
        SourceCoverage {
            first: clamped.first().copied(),
            last: clamped.last().copied(),
            snapshots: dates.len() as u64,
            cadence_days,
            gaps,
        }
    }

    /// Coverage entry for an event journal: first/last event recorded,
    /// no snapshot cadence, no gap accounting.
    pub fn of_events(first: Option<Date>, last: Option<Date>, events: u64) -> SourceCoverage {
        SourceCoverage {
            first,
            last,
            snapshots: events,
            cadence_days: 0,
            gaps: Vec::new(),
        }
    }

    /// Days a gap counts against the budget: the days beyond the expected
    /// cadence (0 for event journals).
    fn budgeted_days(&self, gap: &GapSpan) -> u32 {
        gap.days()
            .saturating_sub(self.cadence_days.saturating_sub(1))
    }

    /// Total budgeted missing days across all gaps.
    pub fn missing_days(&self) -> u32 {
        self.gaps.iter().map(|g| self.budgeted_days(g)).sum()
    }

    /// The longest gap by budgeted days, if any.
    pub fn worst_gap(&self) -> Option<&GapSpan> {
        self.gaps.iter().max_by_key(|g| self.budgeted_days(g))
    }

    /// Fraction of `window` covered (1.0 when gap-free; event journals
    /// report 1.0 — they have no snapshot cadence to miss).
    pub fn fraction(&self, window: &DateRange) -> f64 {
        let days = window.len() as u32;
        if days == 0 || self.cadence_days == 0 {
            return 1.0;
        }
        1.0 - f64::from(self.missing_days().min(days)) / f64::from(days)
    }
}

/// One source's merged ingestion ledger: quarantine plus coverage.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourceIngest {
    /// Merged quarantine counts and samples.
    pub quarantine: Quarantine,
    /// Snapshot/event coverage.
    pub coverage: SourceCoverage,
}

/// The pipeline-wide ingestion ledger: one entry per source, merged in
/// input order (deterministic at any worker count).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestReport {
    /// Per-source ledgers, keyed by logical source name (`bgp`, `irr`,
    /// `rpki`, `rir`, `drop`, `sbl`).
    pub sources: BTreeMap<String, SourceIngest>,
    /// The study window the coverage is measured against.
    pub window: Option<DateRange>,
}

impl IngestReport {
    /// Total quarantined records across sources.
    pub fn total_quarantined(&self) -> u64 {
        self.sources
            .values()
            .map(|s| s.quarantine.quarantined)
            .sum()
    }

    /// Check every source against `policy`'s budgets. Strict mode always
    /// passes (a strict run that got this far never quarantined
    /// anything); permissive mode fails fast on the first source whose
    /// error rate or worst gap exceeds its budget.
    pub fn enforce(&self, policy: &IngestPolicy) -> Result<(), IngestError> {
        let IngestPolicy::Permissive {
            max_error_rate,
            max_gap_days,
        } = *policy
        else {
            return Ok(());
        };
        for (name, src) in &self.sources {
            let q = &src.quarantine;
            if q.quarantined > 0 && q.error_rate() > max_error_rate {
                return Err(IngestError::BudgetExceeded {
                    source: name.clone(),
                    rate: q.error_rate(),
                    budget: max_error_rate,
                    quarantined: q.quarantined,
                    seen: q.records_seen(),
                    samples: q.samples.clone(),
                });
            }
        }
        for (name, src) in &self.sources {
            if let Some(gap) = src.coverage.worst_gap() {
                if src.coverage.budgeted_days(gap) > max_gap_days {
                    return Err(IngestError::GapExceeded {
                        source: name.clone(),
                        gap: *gap,
                        missing_days: src.coverage.budgeted_days(gap),
                        max_gap_days,
                    });
                }
            }
        }
        Ok(())
    }

    /// Human-readable ledger, one block per source.
    pub fn to_text(&self) -> String {
        let mut out = String::from("ingestion report\n");
        for (name, src) in &self.sources {
            let q = &src.quarantine;
            let _ = writeln!(
                out,
                "  {name}: {} parsed, {} skipped, {} quarantined ({:.3}% error rate)",
                q.parsed,
                q.skipped,
                q.quarantined,
                q.error_rate() * 100.0
            );
            for s in &q.samples {
                let _ = writeln!(out, "    quarantined: {s}");
            }
            let c = &src.coverage;
            if c.cadence_days > 0 {
                let cov = self
                    .window
                    .as_ref()
                    .map(|w| c.fraction(w) * 100.0)
                    .unwrap_or(100.0);
                let _ = writeln!(
                    out,
                    "    coverage: {} snapshots, cadence {}d, {} gap(s), {} missing day(s), {cov:.2}% of window",
                    c.snapshots, c.cadence_days, c.gaps.len(), c.missing_days(),
                );
                for g in &c.gaps {
                    let _ = writeln!(out, "    gap: {g}");
                }
            }
        }
        out
    }

    /// Stable JSON rendering (keys in `BTreeMap` order), suitable for the
    /// `--quarantine PATH` report artifact.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"sources\": {");
        for (i, (name, src)) in self.sources.iter().enumerate() {
            let q = &src.quarantine;
            let c = &src.coverage;
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{\"parsed\":{},\"skipped\":{},\"quarantined\":{},\"error_rate\":{:.6},",
                json_escape(name),
                q.parsed,
                q.skipped,
                q.quarantined,
                q.error_rate()
            );
            out.push_str("\"samples\":[");
            for (j, s) in q.samples.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", json_escape(&s.to_string()));
            }
            let _ = write!(
                out,
                "],\"snapshots\":{},\"cadence_days\":{},\"missing_days\":{},",
                c.snapshots,
                c.cadence_days,
                c.missing_days()
            );
            if let Some(w) = &self.window {
                let _ = write!(out, "\"coverage\":{:.6},", c.fraction(w));
            }
            out.push_str("\"gaps\":[");
            for (j, g) in c.gaps.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"start\":\"{}\",\"end\":\"{}\",\"days\":{}}}",
                    g.start,
                    g.end,
                    g.days()
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Why an ingestion run failed.
#[derive(Debug, Clone, PartialEq)]
pub enum IngestError {
    /// A malformed record aborted a strict run.
    Parse(LocatedError),
    /// Indexing found parsed snapshots out of date order. No file or
    /// line is at fault; the error names the offending snapshot date.
    Order(ParseError),
    /// A source's quarantine rate blew its permissive error budget.
    BudgetExceeded {
        /// The offending source.
        source: String,
        /// Its measured error rate.
        rate: f64,
        /// The configured budget.
        budget: f64,
        /// Quarantined record count.
        quarantined: u64,
        /// Candidate records seen.
        seen: u64,
        /// Sampled rejected lines (with file/line context).
        samples: Vec<LocatedError>,
    },
    /// A source's snapshot gap blew its permissive gap budget.
    GapExceeded {
        /// The offending source.
        source: String,
        /// The worst gap.
        gap: GapSpan,
        /// Its budgeted missing days (beyond the source's cadence).
        missing_days: u32,
        /// The configured budget.
        max_gap_days: u32,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Parse(e) => write!(f, "{e}"),
            IngestError::Order(e) => write!(f, "{e}"),
            IngestError::BudgetExceeded {
                source,
                rate,
                budget,
                quarantined,
                seen,
                samples,
            } => {
                write!(
                    f,
                    "source {source:?} blew its error budget: {quarantined} of {seen} records \
                     quarantined ({:.3}% > {:.3}% allowed)",
                    rate * 100.0,
                    budget * 100.0
                )?;
                for s in samples {
                    write!(f, "\n  quarantined: {s}")?;
                }
                Ok(())
            }
            IngestError::GapExceeded {
                source,
                gap,
                missing_days,
                max_gap_days,
            } => write!(
                f,
                "source {source:?} blew its gap budget: missing snapshots {gap}, \
                 {missing_days} budgeted day(s) > {max_gap_days} allowed"
            ),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IngestError::Parse(e) => Some(e),
            IngestError::Order(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LocatedError> for IngestError {
    fn from(e: LocatedError) -> Self {
        IngestError::Parse(e)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    #[test]
    fn policy_parses_and_defaults() {
        assert_eq!(
            "strict".parse::<IngestPolicy>().unwrap(),
            IngestPolicy::Strict
        );
        assert_eq!(
            "permissive".parse::<IngestPolicy>().unwrap(),
            IngestPolicy::permissive()
        );
        assert!("lenient".parse::<IngestPolicy>().is_err());
        assert!(IngestPolicy::default().is_strict());
    }

    #[test]
    fn strict_quarantine_rejects_with_location() {
        let mut q = Quarantine::strict("bgp/updates.txt");
        q.record_ok();
        let err = q
            .reject(
                "bgp.updates",
                7,
                ParseError::new("BgpUpdate", "junk", "too few fields"),
            )
            .unwrap_err();
        assert_eq!(err.location(), ("bgp/updates.txt", 7));
        assert_eq!(q.quarantined, 0);
    }

    #[test]
    fn permissive_quarantine_counts_and_samples() {
        let mut q = Quarantine::permissive("drop/x.txt");
        for i in 0..20 {
            q.reject(
                "drop.list",
                i + 1,
                ParseError::new("Ipv4Prefix", "999.9", "bad octet"),
            )
            .expect("permissive never errors");
        }
        for _ in 0..80 {
            q.record_ok();
        }
        assert_eq!(q.quarantined, 20);
        assert_eq!(q.samples.len(), QUARANTINE_SAMPLES_KEPT);
        assert_eq!(q.samples[0].location(), ("drop/x.txt", 1));
        assert!((q.error_rate() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn absorb_merges_in_order() {
        let mut a = Quarantine::permissive("rir");
        a.reject("rir.stats", 1, ParseError::new("StatsFile", "x", "bad"))
            .unwrap();
        a.record_ok();
        let mut b = Quarantine::permissive("rir/f2");
        b.reject("rir.stats", 9, ParseError::new("StatsFile", "y", "bad"))
            .unwrap();
        a.absorb(b);
        assert_eq!(a.quarantined, 2);
        assert_eq!(a.parsed, 1);
        assert_eq!(a.samples[1].location(), ("rir/f2", 9));
    }

    #[test]
    fn gaps_in_daily_series() {
        let dates = [d("2020-01-01"), d("2020-01-02"), d("2020-01-05")];
        let gaps = find_gaps(&dates, 1);
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].start, d("2020-01-03"));
        assert_eq!(gaps[0].end, d("2020-01-04"));
        assert_eq!(gaps[0].days(), 2);
        // Monthly cadence tolerates monthly deltas.
        let monthly = [d("2020-01-01"), d("2020-02-01"), d("2020-03-01")];
        assert!(find_gaps(&monthly, 31).is_empty());
    }

    #[test]
    fn coverage_counts_head_and_tail_gaps() {
        let window = DateRange::inclusive(d("2020-01-01"), d("2020-01-10"));
        let cov = SourceCoverage::of_snapshots(
            &[d("2020-01-03"), d("2020-01-04"), d("2020-01-05")],
            1,
            &window,
        );
        // Missing 01..02 at the head and 06..10 at the tail.
        assert_eq!(cov.gaps.len(), 2);
        assert_eq!(cov.missing_days(), 7);
        assert!((cov.fraction(&window) - 0.3).abs() < 1e-9);
        // A pre-window snapshot carries forward over the head.
        let cov = SourceCoverage::of_snapshots(&[d("2019-12-01"), d("2020-01-10")], 1, &window);
        assert_eq!(cov.first, Some(d("2020-01-01")));
        assert_eq!(cov.gaps.len(), 1);
        assert_eq!(cov.missing_days(), 8);
    }

    #[test]
    fn empty_series_is_one_big_gap() {
        let window = DateRange::inclusive(d("2020-01-01"), d("2020-01-10"));
        let cov = SourceCoverage::of_snapshots(&[], 1, &window);
        assert_eq!(cov.missing_days(), 10);
        assert_eq!(cov.fraction(&window), 0.0);
    }

    #[test]
    fn enforce_budgets() {
        let window = DateRange::inclusive(d("2020-01-01"), d("2020-03-31"));
        let mut report = IngestReport {
            window: Some(window),
            ..IngestReport::default()
        };
        let mut q = Quarantine::permissive("drop");
        for _ in 0..97 {
            q.record_ok();
        }
        for i in 0..3 {
            q.reject("drop.list", i, ParseError::new("Ipv4Prefix", "x", "bad"))
                .unwrap();
        }
        report.sources.insert(
            "drop".into(),
            SourceIngest {
                quarantine: q,
                coverage: SourceCoverage::default(),
            },
        );
        // 3% rate: fine under a 5% budget, fatal under 1%.
        assert!(report
            .enforce(&IngestPolicy::Permissive {
                max_error_rate: 0.05,
                max_gap_days: 14
            })
            .is_ok());
        let err = report
            .enforce(&IngestPolicy::permissive())
            .expect_err("3% > 1%");
        let msg = err.to_string();
        assert!(msg.contains("\"drop\""), "{msg}");
        assert!(msg.contains("error budget"), "{msg}");
        assert!(msg.contains("quarantined:"), "{msg}");
        // Strict enforcement is a no-op.
        assert!(report.enforce(&IngestPolicy::Strict).is_ok());
    }

    #[test]
    fn enforce_gap_budget() {
        let window = DateRange::inclusive(d("2020-01-01"), d("2020-03-31"));
        let mut report = IngestReport {
            window: Some(window),
            ..IngestReport::default()
        };
        let dates: Vec<Date> = window
            .iter()
            .filter(|dt| !(d("2020-02-01")..=d("2020-02-28")).contains(dt))
            .collect();
        report.sources.insert(
            "drop".into(),
            SourceIngest {
                quarantine: Quarantine::permissive("drop"),
                coverage: SourceCoverage::of_snapshots(&dates, 1, &window),
            },
        );
        let err = report
            .enforce(&IngestPolicy::permissive())
            .expect_err("28-day hole > 14");
        assert!(err.to_string().contains("gap budget"), "{err}");
        assert!(report
            .enforce(&IngestPolicy::Permissive {
                max_error_rate: 0.01,
                max_gap_days: 30
            })
            .is_ok());
    }

    #[test]
    fn report_renders_text_and_json() {
        let window = DateRange::inclusive(d("2020-01-01"), d("2020-01-10"));
        let mut report = IngestReport {
            window: Some(window),
            ..IngestReport::default()
        };
        let mut q = Quarantine::permissive("drop");
        q.record_ok();
        q.reject(
            "drop.list",
            3,
            ParseError::new("Ipv4Prefix", "999.1", "bad octet"),
        )
        .unwrap();
        report.sources.insert(
            "drop".into(),
            SourceIngest {
                quarantine: q,
                coverage: SourceCoverage::of_snapshots(&[d("2020-01-01")], 1, &window),
            },
        );
        let text = report.to_text();
        assert!(text.contains("drop: 1 parsed"), "{text}");
        assert!(text.contains("gap:"), "{text}");
        let json = report.to_json();
        assert!(json.contains("\"quarantined\":1"), "{json}");
        assert!(json.contains("\"gaps\":[{"), "{json}");
        assert_eq!(report.total_quarantined(), 1);
    }
}
