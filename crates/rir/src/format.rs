//! Parser/writer for the RIR statistics exchange ("delegated-extended")
//! format.
//!
//! ```text
//! 2|apnic|20220330|2|19830613|20220330|+1000
//! apnic|*|ipv4|*|2|summary
//! apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|A91872ED
//! apnic|ZZ|ipv4|1.1.0.0|65536||available|
//! ```
//!
//! Only `ipv4` rows are materialized (the paper is IPv4-only); `asn` and
//! `ipv6` rows and summary lines are tolerated and skipped on parse, and
//! a correct summary line is emitted on write.

use std::fmt::Write as _;
use std::net::Ipv4Addr;

use droplens_net::{split_fields, Date, LocatedError, ParseError, Quarantine};

use crate::{AllocationStatus, DelegationRecord, Rir};

/// A parsed stats file: the header date plus its IPv4 records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsFile {
    /// Publishing registry (from the version line).
    pub rir: Rir,
    /// Snapshot date (from the version line).
    pub date: Date,
    /// IPv4 rows, in file order.
    pub records: Vec<DelegationRecord>,
}

/// Serialize a stats file in delegated-extended format.
pub fn write_stats_file(file: &StatsFile) -> String {
    // One pre-sized buffer (~64 bytes a row) the rows stream into,
    // instead of a String per record.
    let mut out = String::with_capacity(128 + file.records.len() * 64);
    push_stats_header(&mut out, file.rir, file.date, file.records.len());
    for r in &file.records {
        push_stats_row(&mut out, r);
    }
    out
}

/// Append a stats file's version and summary lines, for a file of `rows`
/// IPv4 rows.
fn push_stats_header(out: &mut String, rir: Rir, date: Date, rows: usize) {
    // Version line: version|registry|serial|records|startdate|enddate|UTCoffset
    let _ = writeln!(
        out,
        "2|{}|{}|{rows}|19830613|{}|+0000",
        rir.token(),
        date.compact(),
        date.compact(),
    );
    let _ = writeln!(out, "{}|*|ipv4|*|{rows}|summary", rir.token());
}

/// Append one row as its delegated-extended line, newline included: the
/// one row formatter of [`write_stats_file`] and [`RowLines`].
fn push_stats_row(out: &mut String, r: &DelegationRecord) {
    let _ = write!(
        out,
        "{}|{}|ipv4|{}|{}|",
        r.rir.token(),
        r.country,
        r.start,
        r.count,
    );
    if let Some(d) = r.date {
        let _ = write!(out, "{}", d.compact());
    }
    let _ = writeln!(out, "|{}|{}", r.status, r.opaque_id);
}

/// Every row of a [`StatsRows`] table formatted once as its
/// delegated-extended line, so that a series of files over the table is
/// written by copying lines instead of formatting each row of each file.
#[derive(Debug, Clone)]
pub struct RowLines {
    /// The lines, in row id order.
    text: String,
    /// Line `id` is `text[bounds[id]..bounds[id + 1]]`.
    bounds: Vec<usize>,
}

impl RowLines {
    /// Format every row of `rows`.
    pub fn new(rows: &StatsRows) -> RowLines {
        let mut text = String::with_capacity(rows.len() * 64);
        let mut bounds = Vec::with_capacity(rows.len() + 1);
        bounds.push(0);
        for r in &rows.rows {
            push_stats_row(&mut text, r);
            bounds.push(text.len());
        }
        RowLines { text, bounds }
    }

    /// Row `id`'s line, newline included.
    fn line(&self, id: RowId) -> &str {
        let id = id as usize;
        &self.text[self.bounds[id]..self.bounds[id + 1]]
    }

    /// `file` in delegated-extended format, byte for byte what
    /// [`write_stats_file`] writes for the same rows, in a buffer of
    /// exactly its size.
    pub fn write_file(&self, file: &SharedStatsFile) -> String {
        let mut header = String::new();
        push_stats_header(&mut header, file.rir, file.date, file.rows.len());
        let size = header.len()
            + file
                .rows
                .iter()
                .map(|&id| self.line(id).len())
                .sum::<usize>();
        let mut out = String::with_capacity(size);
        out.push_str(&header);
        for &id in &file.rows {
            out.push_str(self.line(id));
        }
        out
    }
}

/// What one stats-file line turned out to be; `R` is how a row is held
/// (the parsed record, its id in a [`StatsRows`] table, or nothing once
/// stored).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Row<R> {
    /// The version header: registry and snapshot date.
    Version(Rir, Date),
    /// Summary line or non-ipv4 row — tolerated and skipped.
    Skip,
    /// A materialized IPv4 delegation row.
    Record(R),
}

impl<R> Row<R> {
    fn map<T>(self, f: impl FnOnce(R) -> T) -> Row<T> {
        match self {
            Row::Version(rir, date) => Row::Version(rir, date),
            Row::Skip => Row::Skip,
            Row::Record(r) => Row::Record(f(r)),
        }
    }
}

fn parse_stats_row(line: &str, saw_version: bool) -> Result<Row<DelegationRecord>, ParseError> {
    // Delegated-extended rows have at most 8 fields.
    let (fields, n) = split_fields::<8>(line, b'|');
    // Version line: starts with the format version number.
    if !saw_version && n >= 6 && fields[0].chars().all(|c| c.is_ascii_digit()) {
        return Ok(Row::Version(
            fields[1].parse()?,
            Date::parse_compact(fields[2])?,
        ));
    }
    if n >= 6 && fields[5] == "summary" {
        return Ok(Row::Skip);
    }
    if n < 7 {
        return Err(ParseError::new("StatsFile", line, "too few fields"));
    }
    if fields[2] != "ipv4" {
        return Ok(Row::Skip); // asn / ipv6 rows
    }
    let row_rir: Rir = fields[0].parse()?;
    let start: Ipv4Addr = fields[3]
        .parse()
        .map_err(|_| ParseError::new("StatsFile", line, "bad start address"))?;
    let count: u64 = fields[4]
        .parse()
        .map_err(|_| ParseError::new("StatsFile", line, "bad address count"))?;
    if count == 0 || u64::from(u32::from(start)) + count > (1u64 << 32) {
        return Err(ParseError::new("StatsFile", line, "span out of range"));
    }
    let rec_date = if fields[5].is_empty() {
        None
    } else {
        Some(Date::parse_compact(fields[5])?)
    };
    let status: AllocationStatus = fields[6].parse()?;
    let opaque_id = if n > 7 { fields[7] } else { "" }.into();
    Ok(Row::Record(DelegationRecord {
        rir: row_rir,
        country: fields[1].into(),
        start,
        count,
        date: rec_date,
        status,
        opaque_id,
    }))
}

/// Parse a delegated(-extended) stats file.
pub fn parse_stats_file(text: &str) -> Result<StatsFile, LocatedError> {
    let mut quarantine = Quarantine::strict("rir/delegated-extended.txt");
    let file = parse_stats_file_with(text, &mut quarantine)?;
    quarantine.require(file, 1, missing_version())
}

/// The error of a stats file with no version line, reported at line 1.
fn missing_version() -> ParseError {
    ParseError::new("StatsFile", "", "missing version line")
}

/// Where the line loop puts what each line parsed to.
trait RowSink<'a> {
    /// What `line` parsed to earlier in the same context (before or
    /// after the version line), if known; a row is taken into the
    /// current file.
    fn reuse(&mut self, line: &'a str, after_version: bool) -> Option<Row<()>>;
    /// Keep what `line` just parsed to; a row is taken into the current
    /// file.
    fn keep(&mut self, line: &'a str, after_version: bool, row: Row<DelegationRecord>) -> Row<()>;
}

/// A one-off parse: nothing is known beforehand, and every row goes into
/// the file's own list.
impl RowSink<'_> for Vec<DelegationRecord> {
    fn reuse(&mut self, _: &str, _: bool) -> Option<Row<()>> {
        None
    }

    fn keep(&mut self, _: &str, _: bool, row: Row<DelegationRecord>) -> Row<()> {
        row.map(|record| self.push(record))
    }
}

/// The text parser's one line loop: classify every line, account it in
/// `quarantine` (and, once the file is done, in the `rir.stats.*`
/// counters), and hand what it parsed to to `rows`. Returns the version
/// line's registry and date; `None` when the file has no version line
/// and was quarantined whole.
fn scan_stats_file<'a>(
    text: &'a str,
    quarantine: &mut Quarantine,
    rows: &mut impl RowSink<'a>,
) -> Result<Option<(Rir, Date)>, LocatedError> {
    let mut tspan = droplens_obs::trace::global().span("parse.rir.stats", "parse");
    tspan.arg_str("file", quarantine.source());
    let parsed = quarantine.parsed;
    let version =
        quarantine.counted("rir.stats", |quarantine| scan_lines(text, quarantine, rows))?;
    tspan.arg_u64("records", quarantine.parsed - parsed);
    Ok(version)
}

/// [`scan_stats_file`]'s loop, accounting each line in `quarantine`.
fn scan_lines<'a>(
    text: &'a str,
    quarantine: &mut Quarantine,
    rows: &mut impl RowSink<'a>,
) -> Result<Option<(Rir, Date)>, LocatedError> {
    let mut version: Option<(Rir, Date)> = None;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            quarantine.record_skip();
            continue;
        }
        let lineno = idx as u32 + 1;
        let after_version = version.is_some();
        // A malformed line is never kept, so wherever it repeats it is
        // parsed again and its sample names its own line.
        let row = match rows.reuse(line, after_version) {
            Some(row) => row,
            None => match parse_stats_row(line, after_version) {
                Ok(row) => rows.keep(line, after_version, row),
                Err(e) => {
                    quarantine.reject("rir.stats", lineno, e)?;
                    continue;
                }
            },
        };
        match row {
            Row::Version(r, d) => {
                version = Some((r, d));
                quarantine.record_skip();
            }
            Row::Skip => quarantine.record_skip(),
            Row::Record(()) => quarantine.record_ok(),
        }
    }
    if version.is_none() {
        quarantine.reject("rir.stats", 1, missing_version())?;
    }
    Ok(version)
}

/// Parse a delegated(-extended) stats file under the ingestion policy
/// carried by `quarantine`. Strict rejects abort. Permissive row rejects
/// are quarantined; a structurally unusable file (no version line) is
/// quarantined whole and reported as `Ok(None)` so the caller can drop
/// the snapshot and record the gap.
pub fn parse_stats_file_with(
    text: &str,
    quarantine: &mut Quarantine,
) -> Result<Option<StatsFile>, LocatedError> {
    let mut records = Vec::with_capacity(stated_records(text));
    let version = scan_stats_file(text, quarantine, &mut records)?;
    Ok(version.map(|(rir, date)| StatsFile { rir, date, records }))
}

/// The record count a stats file's version line states, as a capacity
/// hint for its row list, which would otherwise allocate about three
/// times its final size while it grows: 0 when the first line is not a
/// version line, and never more rows than the text has room for (a row
/// that parses takes at least 31 bytes with its newline).
fn stated_records(text: &str) -> usize {
    let Some(line) = text
        .lines()
        .map(str::trim)
        .find(|line| !line.is_empty() && !line.starts_with('#'))
    else {
        return 0;
    };
    let (fields, n) = split_fields::<8>(line, b'|');
    if n < 6 {
        return 0;
    }
    fields[3]
        .parse::<usize>()
        .map_or(0, |count| count.min(text.len() / 31))
}

/// Index of a row in a [`StatsRows`] table.
pub type RowId = u32;

/// Distinct delegation rows, each stored once, which any number of
/// [`SharedStatsFile`]s refer to by [`RowId`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsRows {
    rows: Vec<DelegationRecord>,
}

impl StatsRows {
    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no row is stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Store `record` as a new row; returns its id.
    pub fn push(&mut self, record: DelegationRecord) -> RowId {
        self.rows.push(record);
        (self.rows.len() - 1) as RowId
    }

    /// Move `other`'s rows to the end of this table, and shift the ids
    /// of `files`, which refer to `other`, to match.
    pub fn append<'f>(
        &mut self,
        other: StatsRows,
        files: impl IntoIterator<Item = &'f mut SharedStatsFile>,
    ) {
        let base = self.rows.len() as RowId;
        self.rows.extend(other.rows);
        for file in files {
            for id in &mut file.rows {
                *id += base;
            }
        }
    }
}

impl std::ops::Index<RowId> for StatsRows {
    type Output = DelegationRecord;

    fn index(&self, id: RowId) -> &DelegationRecord {
        &self.rows[id as usize]
    }
}

/// A stats file whose rows live in a [`StatsRows`] table: the version
/// line's registry and date, and the file's IPv4 rows by id, in file
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedStatsFile {
    /// Publishing registry (from the version line).
    pub rir: Rir,
    /// Snapshot date (from the version line).
    pub date: Date,
    /// IPv4 rows, in file order.
    pub rows: Vec<RowId>,
}

/// One date of a stats series over a [`StatsRows`] table: the date and
/// its files, in registry order.
pub type SharedSnapshot = (Date, Vec<SharedStatsFile>);

impl SharedStatsFile {
    /// The file's rows, looked up in `table`, in file order.
    pub fn records<'t>(
        &'t self,
        table: &'t StatsRows,
    ) -> impl ExactSizeIterator<Item = &'t DelegationRecord> + Clone + 't {
        self.rows.iter().map(move |&id| &table[id])
    }
}

/// How many entries past the cursor [`StatsSeries`] looks for an
/// unchanged line.
const REUSE_WINDOW: usize = 16;

/// What one line of the previous file parsed to, and in which context.
#[derive(Debug, Clone, Copy)]
struct Seen<'a> {
    /// The trimmed line.
    line: &'a str,
    after_version: bool,
    row: Row<RowId>,
}

/// The first of the [`REUSE_WINDOW`] entries of `prev` from `*at` on
/// that `same` accepts; moves `*at` past it.
fn find_near<'p, T>(prev: &'p [T], at: &mut usize, same: impl Fn(&T) -> bool) -> Option<&'p T> {
    let k = prev.get(*at..)?.iter().take(REUSE_WINDOW).position(same)?;
    *at += k + 1;
    prev.get(*at - 1)
}

/// One registry's stats files, read in date order, each parsed only
/// where it differs from the file before it.
///
/// Consecutive files of a registry repeat almost every line. A line
/// equal to one of the previous file's, in the same context (before or
/// after the version line, which the row parser reads differently),
/// takes what that line parsed to, a row by its id; only other lines
/// are parsed, and each new row is stored once in the series' table.
/// Every line is still accounted in its own file's ledger, and a
/// malformed line is parsed again wherever it repeats.
///
/// The previous file is walked with a cursor: a line is looked for among
/// the 16 entries after the last one reused, which finds
/// every unchanged line when rows are inserted, replaced, or deleted in
/// runs shorter than the window, as in files sorted by address. A line
/// that moved further, or follows a longer deletion, is parsed again:
/// reuse saves work and never changes a result.
#[derive(Debug, Default)]
pub struct StatsSeries<'a> {
    rows: StatsRows,
    /// The previous file's lines, and the cursor into them.
    prev: Vec<Seen<'a>>,
    at: usize,
    /// The current file's lines, and its row ids.
    next: Vec<Seen<'a>>,
    ids: Vec<RowId>,
}

impl<'a> StatsSeries<'a> {
    /// A series with no file read yet.
    pub fn new() -> StatsSeries<'a> {
        StatsSeries::default()
    }

    /// Parse the series' next file as [`parse_stats_file_with`] does,
    /// parsing only the lines the previous file did not have.
    pub fn parse_text(
        &mut self,
        text: &'a str,
        quarantine: &mut Quarantine,
    ) -> Result<Option<SharedStatsFile>, LocatedError> {
        let version = scan_stats_file(text, quarantine, self);
        let rows = self.end_file();
        Ok(version?.map(|(rir, date)| SharedStatsFile { rir, date, rows }))
    }

    /// The table of every row the series stored.
    pub fn into_rows(self) -> StatsRows {
        self.rows
    }

    /// Account `seen` to the current file.
    fn take(&mut self, seen: Seen<'a>) -> Row<()> {
        self.next.push(seen);
        seen.row.map(|id| self.ids.push(id))
    }

    /// Make the current file the one the next is diffed against; returns
    /// its row ids.
    fn end_file(&mut self) -> Vec<RowId> {
        std::mem::swap(&mut self.prev, &mut self.next);
        self.next.clear();
        self.at = 0;
        std::mem::take(&mut self.ids)
    }
}

impl<'a> RowSink<'a> for StatsSeries<'a> {
    fn reuse(&mut self, line: &'a str, after_version: bool) -> Option<Row<()>> {
        let seen = *find_near(&self.prev, &mut self.at, |s| {
            s.line == line && s.after_version == after_version
        })?;
        Some(self.take(seen))
    }

    fn keep(&mut self, line: &'a str, after_version: bool, row: Row<DelegationRecord>) -> Row<()> {
        let row = row.map(|record| self.rows.push(record));
        self.take(Seen {
            line,
            after_version,
            row,
        })
    }
}

/// Repair quarantine flicker across a chronological series of stats
/// snapshots (one `Vec<SharedStatsFile>` per date over the `rows`
/// table, as the load spine assembles them).
///
/// A *partial* snapshot (`partial[i]`: one that quarantined at least
/// one row, or dropped a whole structurally-broken file) cannot be
/// trusted about absent delegations: the span may simply have been on
/// a mangled row. A span (keyed by registry, first address, and size)
/// that was delegated in the previous snapshot and is delegated again
/// at its next trusted sighting — with every intervening snapshot also
/// partial — is carried forward (last observation carried forward)
/// rather than read as a one-month deallocate/reallocate cycle.
/// Absences confirmed by an intact snapshot are left alone: genuine
/// deallocations (§4.1 of the paper) still surface on the month an
/// undamaged file first omits the span. With clean inputs this is a
/// no-op that builds nothing.
pub fn repair_flickers(
    rows: &StatsRows,
    snapshots: &mut [(Date, Vec<SharedStatsFile>)],
    partial: &[bool],
) {
    use std::collections::BTreeSet;
    use std::net::Ipv4Addr;

    assert_eq!(
        snapshots.len(),
        partial.len(),
        "one partial flag per snapshot"
    );
    if !partial.contains(&true) {
        return;
    }
    type Key = (Rir, Ipv4Addr, u64);
    let key = |id: RowId| {
        let r = &rows[id];
        (r.rir, r.start, r.count)
    };
    let mut keys: Vec<BTreeSet<Key>> = snapshots
        .iter()
        .map(|(_, files)| {
            files
                .iter()
                .flat_map(|f| f.rows.iter().map(|&id| key(id)))
                .collect() // backfill needs each snapshot's full key set
        })
        .collect(); // one key set per snapshot, dropped after the pass
    for i in 1..snapshots.len() {
        if !partial[i] {
            continue;
        }
        let prev: Vec<RowId> = snapshots[i - 1]
            .1
            .iter()
            .flat_map(|f| f.rows.iter().copied())
            .collect(); // one predecessor snapshot, only for flagged-partial gaps
        for id in prev {
            let k = key(id);
            if keys[i].contains(&k) {
                continue;
            }
            let mut j = i + 1;
            let reappears = loop {
                match keys.get(j) {
                    Some(s) if s.contains(&k) => break true,
                    Some(_) if partial[j] => j += 1,
                    // Trusted absence (or end of archive): a real
                    // deallocation, not flicker.
                    _ => break false,
                }
            };
            if !reappears {
                continue;
            }
            keys[i].insert(k);
            let rir = rows[id].rir;
            let (date, files) = &mut snapshots[i];
            let tracer = droplens_obs::trace::global();
            if tracer.is_enabled() {
                use droplens_obs::trace::ArgValue;
                tracer.instant(
                    "gap-repair",
                    "ingest",
                    vec![
                        ("source", ArgValue::Str("rir/delegated".into())),
                        ("date", ArgValue::Str(date.to_string())),
                        ("rir", ArgValue::Str(format!("{rir:?}"))),
                    ],
                );
            }
            match files.iter_mut().find(|f| f.rir == rir) {
                Some(f) => f.rows.push(id),
                // The registry's whole file was dropped: regrow it from
                // the carried-forward rows.
                None => files.push(SharedStatsFile {
                    rir,
                    date: *date,
                    rows: vec![id],
                }),
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    fn sample() -> StatsFile {
        StatsFile {
            rir: Rir::Apnic,
            date: Date::from_ymd(2022, 3, 30),
            records: vec![
                DelegationRecord::allocated(
                    Rir::Apnic,
                    "AU",
                    "1.0.0.0".parse().unwrap(),
                    256,
                    Date::from_ymd(2011, 8, 11),
                    "A91872ED",
                ),
                DelegationRecord::available(Rir::Apnic, "1.1.0.0".parse().unwrap(), 65536),
            ],
        }
    }

    #[test]
    fn round_trip() {
        let f = sample();
        let text = write_stats_file(&f);
        assert_eq!(parse_stats_file(&text).unwrap(), f);
    }

    #[test]
    fn row_list_is_sized_from_the_version_line() {
        let text = write_stats_file(&sample());
        let parsed = parse_stats_file(&text).unwrap();
        assert_eq!(parsed.records.capacity(), parsed.records.len());
        assert_eq!(stated_records(&format!("# comment\n\n{text}")), 2);
        // A stated count the text has no room for is cut to what it
        // could hold, and the rows parse as before.
        let inflated = text.replacen("|2|19830613|", "|4000000000|19830613|", 1);
        assert_eq!(stated_records(&inflated), inflated.len() / 31);
        assert_eq!(parse_stats_file(&inflated).unwrap(), parsed);
        // No version line first, no hint.
        assert_eq!(stated_records(text.split_once('\n').unwrap().1), 0);
        assert_eq!(stated_records(""), 0);
    }

    #[test]
    fn output_shape_matches_exchange_format() {
        let text = write_stats_file(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("2|apnic|20220330|2|"));
        assert_eq!(lines[1], "apnic|*|ipv4|*|2|summary");
        assert_eq!(
            lines[2],
            "apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|A91872ED"
        );
        assert_eq!(lines[3], "apnic|ZZ|ipv4|1.1.0.0|65536||available|");
    }

    #[test]
    fn skips_asn_and_ipv6_rows() {
        let text = "\
2|ripencc|20200101|3|19830613|20200101|+0000
ripencc|*|ipv4|*|1|summary
ripencc|NL|asn|3333|1|19930901|allocated|org1
ripencc|NL|ipv6|2001:600::|32|19990826|allocated|org1
ripencc|NL|ipv4|193.0.0.0|2048|19930901|allocated|org1
";
        let f = parse_stats_file(text).unwrap();
        assert_eq!(f.rir, Rir::RipeNcc);
        assert_eq!(f.records.len(), 1);
        assert_eq!(f.records[0].count, 2048);
    }

    #[test]
    fn rejects_missing_version_line() {
        assert!(parse_stats_file("apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|x\n").is_err());
        assert!(parse_stats_file("").is_err());
    }

    #[test]
    fn rejects_bad_rows() {
        let header = "2|apnic|20200101|1|19830613|20200101|+0000\n";
        for bad in [
            "apnic|AU|ipv4|1.0.0.0|256|20110811\n", // too few fields
            "apnic|AU|ipv4|nonsense|256|20110811|allocated|x\n", // bad address
            "apnic|AU|ipv4|1.0.0.0|0|20110811|allocated|x\n", // zero count
            "apnic|AU|ipv4|255.255.255.0|512||available|\n", // overflow span
            "apnic|AU|ipv4|1.0.0.0|256|20110811|bogus|x\n", // bad status
            "apnic|AU|ipv4|1.0.0.0|256|2011081|allocated|x\n", // bad date
        ] {
            let text = format!("{header}{bad}");
            assert!(parse_stats_file(&text).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn permissive_quarantines_rows_and_drops_headerless_files() {
        let text = "\
2|apnic|20200101|2|19830613|20200101|+0000
apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|x
apnic|AU|ipv4|nonsense|256|20110811|allocated|x
";
        // Strict: the bad row aborts with location context.
        let err = parse_stats_file(text).unwrap_err();
        assert_eq!(err.location(), ("rir/delegated-extended.txt", 3));
        // Permissive: the bad row is quarantined, the good one survives.
        let mut q = Quarantine::permissive("rir/f1");
        let f = parse_stats_file_with(text, &mut q).unwrap().unwrap();
        assert_eq!(f.records.len(), 1);
        assert_eq!(q.quarantined, 1);
        // A file with no version line is dropped whole in permissive mode.
        let mut q = Quarantine::permissive("rir/f2");
        let out = parse_stats_file_with("apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|x\n", &mut q)
            .unwrap();
        assert!(out.is_none());
        assert!(q.quarantined >= 1);
    }

    #[test]
    fn identical_files_parse_and_store_each_row_once() {
        let text = write_stats_file(&sample());
        let mut series = StatsSeries::new();
        let files: Vec<SharedStatsFile> = (0..4)
            .map(|_| {
                let mut q = Quarantine::strict("rir/f");
                let file = series.parse_text(&text, &mut q).unwrap().unwrap();
                assert_eq!(q.parsed, 2);
                file
            })
            .collect();
        // A row is stored when it is parsed: two rows, once each.
        assert!(files.iter().all(|f| f.rows == [0, 1]), "{files:?}");
        let rows = series.into_rows();
        assert_eq!(rows.len(), 2);
        let records: Vec<_> = files[3].records(&rows).cloned().collect();
        assert_eq!(records, sample().records);
    }

    #[test]
    fn a_line_is_reused_only_in_its_own_context() {
        // In the first file a second version line is a skipped row; at
        // the top of the next file the same line is its version line.
        let feb = "2|apnic|20200201|1|19830613|20200201|+0000";
        let row = "apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|A";
        let first = format!("2|apnic|20200101|1|19830613|20200101|+0000\n{feb}\n{row}\n");
        let second = format!("{feb}\n{row}\n");
        let mut series = StatsSeries::new();
        let mut q = Quarantine::strict("rir/a");
        let a = series.parse_text(&first, &mut q).unwrap().unwrap();
        assert_eq!(a.date, Date::from_ymd(2020, 1, 1));
        let mut q = Quarantine::strict("rir/b");
        let b = series.parse_text(&second, &mut q).unwrap().unwrap();
        assert_eq!(b.date, Date::from_ymd(2020, 2, 1));
        assert_eq!(b.rows, a.rows);
    }

    #[test]
    fn a_repeated_malformed_line_is_rejected_in_each_file() {
        let text = "\
2|apnic|20200101|2|19830613|20200101|+0000
apnic|AU|ipv4|nonsense|256|20110811|allocated|x
apnic|AU|ipv4|1.0.0.0|256|20110811|allocated|x
";
        let mut series = StatsSeries::new();
        for name in ["rir/a", "rir/b"] {
            let mut q = Quarantine::permissive(name);
            let file = series.parse_text(text, &mut q).unwrap().unwrap();
            assert_eq!((q.parsed, q.quarantined), (1, 1));
            assert_eq!(q.samples[0].location(), (name, 2));
            assert_eq!(file.rows, [0]);
        }
    }

    #[test]
    fn tolerates_comments_and_blanks() {
        let text = "\
# RIR stats
2|arin|20200101|0|19830613|20200101|+0000

arin|*|ipv4|*|0|summary
";
        let f = parse_stats_file(text).unwrap();
        assert!(f.records.is_empty());
        assert_eq!(f.rir, Rir::Arin);
    }
}
