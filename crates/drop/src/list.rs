//! The DROP list file format and the daily-snapshot timeline.
//!
//! A DROP snapshot is the text file Spamhaus publishes (and FireHOL
//! archives) — comment headers, then one `prefix ; SBLnnnnn` line per
//! entry:
//!
//! ```text
//! ; Spamhaus DROP List 2020/12/01 - (c) 2020 The Spamhaus Project
//! ; Last-Modified: Tue, 1 Dec 2020 04:00:00 GMT
//! 132.255.0.0/22 ; SBL502548
//! ```
//!
//! [`DropTimeline`] diffs a chronological series of snapshots into
//! [`DropEntry`] listing episodes with added/removed dates — the unit of
//! analysis for every experiment.

use std::collections::BTreeMap;

use droplens_net::{
    find_gaps, Date, DateRange, GapSpan, Ipv4Prefix, LocatedError, ParseError, Quarantine,
};

use crate::SblId;

/// One parsed DROP snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropSnapshot {
    /// Snapshot day.
    pub date: Date,
    /// Listed prefixes with their SBL reference (if the line carried one).
    pub entries: BTreeMap<Ipv4Prefix, Option<SblId>>,
}

impl DropSnapshot {
    /// An empty snapshot for `date`.
    pub fn new(date: Date) -> DropSnapshot {
        DropSnapshot {
            date,
            entries: BTreeMap::new(),
        }
    }

    /// Add an entry.
    pub fn insert(&mut self, prefix: Ipv4Prefix, sbl: Option<SblId>) {
        self.entries.insert(prefix, sbl);
    }

    /// Serialize in the Spamhaus file shape.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let (y, m, d) = self.date.ymd();
        // One pre-sized buffer; entries stream in via `write!` (~30 bytes
        // each) instead of allocating a String per line.
        let mut out = String::with_capacity(96 + self.entries.len() * 30);
        let _ = write!(
            out,
            "; Spamhaus DROP List {y}/{m:02}/{d:02} - (c) {y} The Spamhaus Project\n; Entries: {}\n",
            self.entries.len()
        );
        for (prefix, sbl) in &self.entries {
            match sbl {
                Some(id) => {
                    let _ = writeln!(out, "{prefix} ; {id}");
                }
                None => {
                    let _ = writeln!(out, "{prefix}");
                }
            }
        }
        out
    }

    /// Parse a snapshot file; the date is supplied by the archive layout
    /// (FireHOL names files by date), not the header comment.
    pub fn parse(date: Date, text: &str) -> Result<DropSnapshot, LocatedError> {
        Self::parse_with(
            date,
            text,
            &mut Quarantine::strict(format!("drop/{date}.txt")),
        )
    }

    /// Parse a snapshot file under the ingestion policy carried by
    /// `quarantine`: strict rejects abort; permissive rejects are
    /// quarantined and parsing continues on the next line.
    pub fn parse_with(
        date: Date,
        text: &str,
        quarantine: &mut Quarantine,
    ) -> Result<DropSnapshot, LocatedError> {
        let obs = droplens_obs::global();
        let mut tspan = droplens_obs::trace::global().span("parse.drop.list", "parse");
        tspan.arg_str("file", quarantine.source());
        let parsed = obs.counter("drop.list.parsed");
        let skipped = obs.counter("drop.list.skipped");
        let malformed = obs.counter("drop.list.malformed");
        let mut snapshot = DropSnapshot::new(date);
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with(';') || line.starts_with('#') {
                skipped.inc();
                quarantine.record_skip();
                continue;
            }
            let lineno = idx as u32 + 1;
            let (prefix_s, sbl_s) = match line.split_once(';') {
                Some((p, s)) => (p.trim(), Some(s.trim())),
                None => (line, None),
            };
            let entry = prefix_s.parse::<Ipv4Prefix>().and_then(|prefix| {
                let sbl = match sbl_s {
                    Some(s) if !s.is_empty() => Some(s.parse::<SblId>()?),
                    _ => None,
                };
                Ok((prefix, sbl))
            });
            match entry {
                Ok((prefix, sbl)) => {
                    parsed.inc();
                    quarantine.record_ok();
                    snapshot.insert(prefix, sbl);
                }
                Err(e) => {
                    malformed.inc();
                    quarantine.reject("drop.list", lineno, e)?;
                }
            }
        }
        tspan.arg_u64("records", snapshot.entries.len() as u64);
        Ok(snapshot)
    }
}

/// Repair quarantine flicker across daily snapshots.
///
/// A *partial* snapshot (one that quarantined at least one malformed
/// line, `partial[i]`) cannot be trusted about absences: the missing
/// prefix may simply have been on the mangled line. A prefix that was
/// listed the day before a partial snapshot and is listed again at its
/// next trusted sighting — with every intervening snapshot also
/// partial — is carried forward instead of being split into two
/// phantom episodes. Absences confirmed by any intact snapshot are
/// left alone, so with clean inputs (every flag false) this is a
/// no-op and strict-mode results are untouched.
pub fn repair_flickers(snapshots: &mut [DropSnapshot], partial: &[bool]) {
    assert_eq!(
        snapshots.len(),
        partial.len(),
        "one partial flag per snapshot"
    );
    for i in 1..snapshots.len() {
        if !partial[i] {
            continue;
        }
        let prev: Vec<(Ipv4Prefix, Option<SblId>)> = snapshots[i - 1]
            .entries
            .iter()
            .map(|(p, s)| (*p, *s))
            .collect();
        for (prefix, sbl) in prev {
            if snapshots[i].entries.contains_key(&prefix) {
                continue;
            }
            let mut j = i + 1;
            let reappears = loop {
                match snapshots.get(j) {
                    Some(s) if s.entries.contains_key(&prefix) => break true,
                    Some(_) if partial[j] => j += 1,
                    // Trusted absence: the removal is real, not flicker.
                    Some(_) => break false,
                    // Ran off the end through partial snapshots only: no
                    // intact snapshot ever confirmed the absence, so the
                    // last trusted state (listed) carries forward.
                    None => break true,
                }
            };
            if reappears {
                let tracer = droplens_obs::trace::global();
                if tracer.is_enabled() {
                    use droplens_obs::trace::ArgValue;
                    tracer.instant(
                        "gap-repair",
                        "ingest",
                        vec![
                            ("source", ArgValue::Str("drop/list".into())),
                            ("date", ArgValue::Str(snapshots[i].date.to_string())),
                            ("prefix", ArgValue::Str(prefix.to_string())),
                        ],
                    );
                }
                snapshots[i].entries.insert(prefix, sbl);
            }
        }
    }
}

/// One listing episode of one prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DropEntry {
    /// The listed prefix.
    pub prefix: Ipv4Prefix,
    /// SBL record reference, if the list carried one.
    pub sbl: Option<SblId>,
    /// First snapshot day the prefix appeared.
    pub added: Date,
    /// First snapshot day the prefix was gone again; `None` if still
    /// listed in the final snapshot.
    pub removed: Option<Date>,
}

impl DropEntry {
    /// The listed period as a half-open range, using `horizon` (one past
    /// the last modeled day) for still-listed entries.
    pub fn listed_range(&self, horizon: Date) -> DateRange {
        DateRange::new(self.added, self.removed.unwrap_or(horizon))
    }

    /// True if the entry was removed before the archive ended.
    pub fn was_removed(&self) -> bool {
        self.removed.is_some()
    }
}

/// Listing episodes reconstructed by diffing chronological snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DropTimeline {
    entries: Vec<DropEntry>,
    snapshot_dates: Vec<Date>,
}

impl DropTimeline {
    /// Diff a chronological series of snapshots. A prefix present in
    /// snapshot N but not N−1 was *added* on N's date; present in N−1 but
    /// not N, *removed* on N's date. Relisting opens a new episode.
    ///
    /// Across a coverage gap the change actually happened on some
    /// unobserved day, so changes surfacing on the first post-gap
    /// snapshot are dated to the gap's first day (the earliest day the
    /// change could have happened) rather than the observation day —
    /// the dating convention that pairs with the carry-forward state
    /// semantics of [`DropTimeline::gaps`]. With a gap-free daily
    /// series this is a no-op.
    ///
    /// Panics if snapshots are out of order.
    // Documented invariant of this infallible wrapper; ingestion paths
    // go through `try_from_snapshots` instead.
    #[allow(clippy::panic)]
    pub fn from_snapshots(snapshots: &[DropSnapshot]) -> DropTimeline {
        match Self::try_from_snapshots(snapshots) {
            Ok(timeline) => timeline,
            Err(e) => panic!("snapshots must be chronological: {e}"),
        }
    }

    /// Fallible variant of [`DropTimeline::from_snapshots`]: out-of-order
    /// snapshots are reported as a [`ParseError`] instead of panicking,
    /// so ingestion can surface the offending date.
    pub fn try_from_snapshots(snapshots: &[DropSnapshot]) -> Result<DropTimeline, ParseError> {
        let mut entries: Vec<DropEntry> = Vec::new();
        let mut open: BTreeMap<Ipv4Prefix, usize> = BTreeMap::new();
        let mut snapshot_dates: Vec<Date> = Vec::with_capacity(snapshots.len());
        for snap in snapshots {
            if let Some(&prev) = snapshot_dates.last() {
                if prev >= snap.date {
                    // Chronology check over already-parsed snapshots:
                    // there is no file/line here, and the error names
                    // the offending snapshot date instead.
                    return Err(ParseError::new(
                        "DropTimeline",
                        &snap.date.to_string(),
                        format!("snapshot out of chronological order (follows {prev})"),
                    ));
                }
            }
            // Changes observed on the first snapshot after a gap are
            // dated to the gap's first day (see the method docs).
            let change_date = match snapshot_dates.last() {
                Some(&prev) if snap.date - prev > 1 => prev + 1,
                _ => snap.date,
            };
            snapshot_dates.push(snap.date);
            // Additions and SBL back-fill.
            for (&prefix, &sbl) in &snap.entries {
                match open.get(&prefix) {
                    Some(&idx) => {
                        // Lists occasionally gain the SBL reference later.
                        if entries[idx].sbl.is_none() {
                            entries[idx].sbl = sbl;
                        }
                    }
                    None => {
                        open.insert(prefix, entries.len());
                        entries.push(DropEntry {
                            prefix,
                            sbl,
                            added: change_date,
                            removed: None,
                        });
                    }
                }
            }
            // Removals.
            let removed: Vec<Ipv4Prefix> = open
                .keys()
                .filter(|p| !snap.entries.contains_key(p))
                .copied()
                .collect();
            for prefix in removed {
                if let Some(idx) = open.remove(&prefix) {
                    entries[idx].removed = Some(change_date);
                }
            }
        }
        Ok(DropTimeline {
            entries,
            snapshot_dates,
        })
    }

    /// The snapshot dates the timeline was diffed from, in order.
    pub fn snapshot_dates(&self) -> &[Date] {
        &self.snapshot_dates
    }

    /// Missing days in the (nominally daily) snapshot series. A change
    /// that happened inside a gap surfaces on its first post-gap
    /// snapshot and is dated to the gap's first day (see
    /// [`DropTimeline::try_from_snapshots`]).
    pub fn gaps(&self) -> Vec<GapSpan> {
        find_gaps(&self.snapshot_dates, 1)
    }

    /// All episodes, in add order (ties broken by prefix order).
    pub fn entries(&self) -> &[DropEntry] {
        &self.entries
    }

    /// Episodes for one prefix.
    pub fn for_prefix(&self, prefix: &Ipv4Prefix) -> Vec<&DropEntry> {
        self.entries
            .iter()
            .filter(|e| e.prefix == *prefix)
            .collect()
    }

    /// Unique prefixes ever listed.
    pub fn unique_prefixes(&self) -> Vec<Ipv4Prefix> {
        let mut out: Vec<Ipv4Prefix> = self.entries.iter().map(|e| e.prefix).collect();
        out.sort();
        out.dedup();
        out
    }

    /// True if `prefix` was listed on `date`.
    pub fn listed_on(&self, prefix: &Ipv4Prefix, date: Date) -> bool {
        self.entries
            .iter()
            .any(|e| e.prefix == *prefix && e.added <= date && e.removed.is_none_or(|r| date < r))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    #[test]
    fn snapshot_round_trip() {
        let mut s = DropSnapshot::new(d("2020-12-01"));
        s.insert(p("132.255.0.0/22"), Some(SblId(502548)));
        s.insert(p("5.188.0.0/17"), None);
        let text = s.to_text();
        assert!(text.starts_with("; Spamhaus DROP List 2020/12/01"));
        assert!(text.contains("132.255.0.0/22 ; SBL502548"));
        let parsed = DropSnapshot::parse(d("2020-12-01"), &text).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn snapshot_parse_rejects_garbage() {
        assert!(DropSnapshot::parse(d("2020-01-01"), "not-a-prefix ; SBL1\n").is_err());
        assert!(DropSnapshot::parse(d("2020-01-01"), "10.0.0.0/8 ; NOTSBL\n").is_err());
    }

    #[test]
    fn snapshot_parse_tolerates_comments() {
        let text = "; header\n# other\n\n10.0.0.0/8 ; SBL7\n";
        let s = DropSnapshot::parse(d("2020-01-01"), text).unwrap();
        assert_eq!(s.entries.len(), 1);
    }

    fn snap(date: &str, entries: &[(&str, u32)]) -> DropSnapshot {
        let mut s = DropSnapshot::new(d(date));
        for (prefix, id) in entries {
            s.insert(p(prefix), Some(SblId(*id)));
        }
        s
    }

    #[test]
    fn timeline_add_and_remove() {
        let timeline = DropTimeline::from_snapshots(&[
            snap("2020-01-01", &[("10.0.0.0/16", 1)]),
            snap("2020-01-02", &[("10.0.0.0/16", 1), ("11.0.0.0/16", 2)]),
            snap("2020-01-03", &[("11.0.0.0/16", 2)]),
        ]);
        let entries = timeline.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].prefix, p("10.0.0.0/16"));
        assert_eq!(entries[0].added, d("2020-01-01"));
        assert_eq!(entries[0].removed, Some(d("2020-01-03")));
        assert!(entries[0].was_removed());
        assert_eq!(entries[1].added, d("2020-01-02"));
        assert_eq!(entries[1].removed, None);
        assert!(!entries[1].was_removed());
    }

    #[test]
    fn relisting_opens_new_episode() {
        let timeline = DropTimeline::from_snapshots(&[
            snap("2020-01-01", &[("10.0.0.0/16", 1)]),
            snap("2020-02-01", &[]),
            snap("2020-03-01", &[("10.0.0.0/16", 1)]),
        ]);
        let eps = timeline.for_prefix(&p("10.0.0.0/16"));
        assert_eq!(eps.len(), 2);
        // Both changes surfaced right after a month-long coverage gap, so
        // both are dated to the gap's first day, not the observation day.
        assert_eq!(eps[0].removed, Some(d("2020-01-02")));
        assert_eq!(eps[1].added, d("2020-02-02"));
        assert_eq!(timeline.unique_prefixes().len(), 1);
    }

    #[test]
    fn listed_on() {
        let timeline = DropTimeline::from_snapshots(&[
            snap("2020-01-01", &[("10.0.0.0/16", 1)]),
            snap("2020-02-01", &[]),
        ]);
        let pfx = p("10.0.0.0/16");
        assert!(timeline.listed_on(&pfx, d("2020-01-01")));
        // The removal observed on 2020-02-01 is dated into the gap
        // (2020-01-02), so mid-gap days count as unlisted.
        assert!(!timeline.listed_on(&pfx, d("2020-01-15")));
        assert!(!timeline.listed_on(&pfx, d("2020-02-01")));
        assert!(!timeline.listed_on(&p("99.0.0.0/8"), d("2020-01-15")));
    }

    #[test]
    fn listed_range_uses_horizon_for_open_entries() {
        let timeline = DropTimeline::from_snapshots(&[snap("2020-01-01", &[("10.0.0.0/16", 1)])]);
        let e = &timeline.entries()[0];
        let r = e.listed_range(d("2022-03-31"));
        assert_eq!(r.start(), d("2020-01-01"));
        assert_eq!(r.end(), d("2022-03-31"));
    }

    #[test]
    fn sbl_backfill() {
        let mut s1 = DropSnapshot::new(d("2020-01-01"));
        s1.insert(p("10.0.0.0/16"), None);
        let mut s2 = DropSnapshot::new(d("2020-01-02"));
        s2.insert(p("10.0.0.0/16"), Some(SblId(42)));
        let timeline = DropTimeline::from_snapshots(&[s1, s2]);
        assert_eq!(timeline.entries()[0].sbl, Some(SblId(42)));
        assert_eq!(timeline.entries()[0].added, d("2020-01-01"));
    }

    #[test]
    #[should_panic]
    fn out_of_order_snapshots_panic() {
        DropTimeline::from_snapshots(&[snap("2020-02-01", &[]), snap("2020-01-01", &[])]);
    }

    #[test]
    fn empty_timeline() {
        let t = DropTimeline::from_snapshots(&[]);
        assert!(t.entries().is_empty());
        assert!(t.unique_prefixes().is_empty());
        assert!(t.gaps().is_empty());
    }

    #[test]
    fn try_from_snapshots_reports_out_of_order() {
        let err =
            DropTimeline::try_from_snapshots(&[snap("2020-02-01", &[]), snap("2020-01-01", &[])])
                .unwrap_err();
        assert!(err.to_string().contains("chronological"), "{err}");
    }

    #[test]
    fn timeline_records_snapshot_gaps() {
        let t = DropTimeline::from_snapshots(&[
            snap("2020-01-01", &[("10.0.0.0/16", 1)]),
            snap("2020-01-02", &[("10.0.0.0/16", 1)]),
            snap("2020-01-06", &[]),
        ]);
        assert_eq!(t.snapshot_dates().len(), 3);
        let gaps = t.gaps();
        assert_eq!(gaps.len(), 1);
        assert_eq!(gaps[0].start, d("2020-01-03"));
        assert_eq!(gaps[0].days(), 3);
        // The removal happened somewhere inside the gap; it is dated to
        // the gap's first day (the earliest day it could have happened).
        assert_eq!(t.entries()[0].removed, Some(d("2020-01-03")));
    }

    #[test]
    fn permissive_parse_quarantines_bad_lines() {
        let text = "10.0.0.0/8 ; SBL7\nnot-a-prefix ; SBL1\n11.0.0.0/8 ; SBL8\n";
        // Strict: aborts with per-file location.
        let err = DropSnapshot::parse(d("2020-01-01"), text).unwrap_err();
        assert_eq!(err.location(), ("drop/2020-01-01.txt", 2));
        // Permissive: the bad line is quarantined.
        let mut q = Quarantine::permissive("drop/2020-01-01.txt");
        let s = DropSnapshot::parse_with(d("2020-01-01"), text, &mut q).unwrap();
        assert_eq!(s.entries.len(), 2);
        assert_eq!(q.quarantined, 1);
    }
}
