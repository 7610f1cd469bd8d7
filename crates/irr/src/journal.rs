//! NRTM-style dated journal of registry changes.
//!
//! Real IRR mirrors replicate via NRTM streams of `ADD`/`DEL` operations.
//! Our archival format is the same idea with an explicit date on the
//! operation line (the paper needs creation/removal *dates*, which the
//! real pipeline recovers from snapshot diffs or NRTM serials):
//!
//! ```text
//! ADD 2020-11-20
//!
//! route:          132.255.0.0/22
//! origin:         AS263692
//! source:         RADB
//!
//! DEL 2021-02-01
//!
//! route:          132.255.0.0/22
//! origin:         AS263692
//! source:         RADB
//! ```

use droplens_net::{Date, LocatedError, ParseError, Quarantine};

use crate::RouteObject;

/// The operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// Object created.
    Add,
    /// Object deleted.
    Del,
}

/// One dated operation on one route object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// Day the change took effect.
    pub date: Date,
    /// Add or delete.
    pub op: JournalOp,
    /// The object (full body on both ADD and DEL, as NRTM does).
    pub object: RouteObject,
}

/// Serialize a journal.
pub fn write_journal(entries: &[JournalEntry]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for e in entries {
        let op = match e.op {
            JournalOp::Add => "ADD",
            JournalOp::Del => "DEL",
        };
        let _ = write!(out, "{op} {}\n\n{}", e.date, e.object);
        out.push('\n');
    }
    out
}

/// Parse a journal produced by [`write_journal`]. `%`-comment lines are
/// skipped. Entries must be chronologically ordered (the registry replay
/// relies on it); out-of-order entries are an error.
pub fn parse_journal(text: &str) -> Result<Vec<JournalEntry>, LocatedError> {
    parse_journal_with(text, &mut Quarantine::strict("irr/journal.txt"))
}

/// Parse a journal under the ingestion policy carried by `quarantine`.
/// The quarantine unit is a whole ADD/DEL entry: a malformed header,
/// object body, or out-of-order date quarantines that entry (located at
/// its header line) and, in permissive mode, parsing resumes at the next
/// header.
pub fn parse_journal_with(
    text: &str,
    quarantine: &mut Quarantine,
) -> Result<Vec<JournalEntry>, LocatedError> {
    let obs = droplens_obs::global();
    let mut tspan = droplens_obs::trace::global().span("parse.irr.journal", "parse");
    tspan.arg_str("file", quarantine.source());
    let parsed = obs.counter("irr.journal.parsed");
    let skipped = obs.counter("irr.journal.skipped");
    let malformed = obs.counter("irr.journal.malformed");

    let mut entries: Vec<JournalEntry> = Vec::new();
    // The pending header: (date, op, 1-based line number of the header).
    let mut pending: Option<(Date, JournalOp, u32)> = None;
    let mut body = String::new();
    // After a rejected header (permissive mode), swallow the orphaned body
    // lines until the next header rather than erroring on each one.
    let mut swallowing = false;

    macro_rules! reject {
        ($lineno:expr, $err:expr) => {{
            malformed.inc();
            quarantine.reject("irr.journal", $lineno, $err)?;
        }};
    }

    macro_rules! flush {
        () => {{
            if let Some((date, op, header_line)) = pending.take() {
                let result = body
                    .parse::<RouteObject>()
                    .and_then(|object| match entries.last() {
                        Some(last) if last.date > date => Err(ParseError::new(
                            "Journal",
                            &date.to_string(),
                            "journal entries out of chronological order",
                        )),
                        _ => Ok(object),
                    });
                match result {
                    Ok(object) => {
                        parsed.inc();
                        quarantine.record_ok();
                        entries.push(JournalEntry { date, op, object });
                    }
                    Err(e) => reject!(header_line, e),
                }
            }
            body.clear();
        }};
    }

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let trimmed = line.trim_end();
        if trimmed.starts_with('%') {
            skipped.inc();
            quarantine.record_skip();
            continue;
        }
        let header = if let Some(rest) = trimmed.strip_prefix("ADD ") {
            Some((JournalOp::Add, rest))
        } else {
            trimmed.strip_prefix("DEL ").map(|r| (JournalOp::Del, r))
        };
        if let Some((op, date_s)) = header {
            flush!();
            swallowing = false;
            match date_s.trim().parse::<Date>() {
                Ok(date) => pending = Some((date, op, lineno)),
                Err(e) => {
                    reject!(lineno, e);
                    swallowing = true;
                }
            }
        } else if pending.is_some() {
            body.push_str(trimmed);
            body.push('\n');
        } else if swallowing {
            skipped.inc();
            quarantine.record_skip();
        } else if !trimmed.is_empty() {
            reject!(
                lineno,
                ParseError::new("Journal", trimmed, "content before first ADD/DEL header")
            );
            swallowing = true;
        }
    }
    flush!();
    tspan.arg_u64("records", entries.len() as u64);
    Ok(entries)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use droplens_net::{Asn, Ipv4Prefix};

    fn obj(prefix: &str, asn: u32) -> RouteObject {
        RouteObject::new(prefix.parse::<Ipv4Prefix>().unwrap(), Asn(asn))
            .with_maintainer("MAINT-TEST")
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    #[test]
    fn round_trip() {
        let entries = vec![
            JournalEntry {
                date: d("2020-11-20"),
                op: JournalOp::Add,
                object: obj("132.255.0.0/22", 263692),
            },
            JournalEntry {
                date: d("2021-02-01"),
                op: JournalOp::Del,
                object: obj("132.255.0.0/22", 263692),
            },
        ];
        let text = write_journal(&entries);
        assert_eq!(parse_journal(&text).unwrap(), entries);
    }

    #[test]
    fn empty_journal() {
        assert!(parse_journal("").unwrap().is_empty());
        assert!(parse_journal("% just a comment\n").unwrap().is_empty());
    }

    #[test]
    fn comments_between_entries() {
        let mut text = String::from("% RADb NRTM-style journal\n");
        text.push_str(&write_journal(&[JournalEntry {
            date: d("2020-01-01"),
            op: JournalOp::Add,
            object: obj("10.0.0.0/8", 64500),
        }]));
        let parsed = parse_journal(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].op, JournalOp::Add);
    }

    #[test]
    fn out_of_order_rejected() {
        let entries = vec![
            JournalEntry {
                date: d("2021-01-01"),
                op: JournalOp::Add,
                object: obj("10.0.0.0/8", 1),
            },
            JournalEntry {
                date: d("2020-01-01"),
                op: JournalOp::Add,
                object: obj("11.0.0.0/8", 2),
            },
        ];
        let text = write_journal(&entries);
        assert!(parse_journal(&text).is_err());
    }

    #[test]
    fn garbage_before_header_rejected() {
        assert!(parse_journal("route: 10.0.0.0/8\n").is_err());
    }

    #[test]
    fn malformed_object_rejected() {
        let text = "ADD 2020-01-01\n\nroute: not-a-prefix\norigin: AS1\n";
        assert!(parse_journal(text).is_err());
    }

    #[test]
    fn bad_date_rejected() {
        let text = "ADD 2020-13-01\n\nroute: 10.0.0.0/8\norigin: AS1\n";
        assert!(parse_journal(text).is_err());
    }

    #[test]
    fn strict_errors_carry_header_location() {
        let text = "ADD 2020-01-01\n\nroute: 10.0.0.0/8\norigin: AS1\n\nADD 2020-02-01\n\nroute: junk\norigin: AS2\n";
        let err = parse_journal(text).unwrap_err();
        assert_eq!(err.location(), ("irr/journal.txt", 6));
    }

    #[test]
    fn permissive_quarantines_whole_entries() {
        // Entry 2 has a bad body, entry 3 a bad header date whose orphaned
        // body must be swallowed, entry 4 is fine.
        let text = "\
ADD 2020-01-01

route: 10.0.0.0/8
origin: AS1

ADD 2020-02-01

route: junk
origin: AS2

ADD 2020-13-01

route: 11.0.0.0/8
origin: AS3

ADD 2020-04-01

route: 12.0.0.0/8
origin: AS4
";
        let mut q = Quarantine::permissive("irr/journal.txt");
        let entries = parse_journal_with(text, &mut q).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].object.origin, Asn(1));
        assert_eq!(entries[1].object.origin, Asn(4));
        assert_eq!(q.quarantined, 2);
        assert_eq!(q.samples[0].location(), ("irr/journal.txt", 6));
        assert_eq!(q.samples[1].location(), ("irr/journal.txt", 11));
    }
}
