//! Dated CSV journal for ROA archives.
//!
//! The RIPE ROA archive publishes daily CSV snapshots
//! (`URI,ASN,IP Prefix,Max Length,Not Before,Not After`); the analysis
//! pipeline reduces them to dated create/revoke events. Our archival
//! format stores those events directly, one per line:
//!
//! ```text
//! date,op,tal,asn,prefix,maxLength
//! 2020-11-20,ADD,lacnic,AS263692,132.255.0.0/22,
//! 2021-05-05,ADD,lacnic,AS0,45.65.112.0/22,
//! 2021-06-16,DEL,lacnic,AS263692,132.255.0.0/22,
//! ```

use droplens_net::{split_fields, Asn, Date, LocatedError, ParseError, Quarantine};

use crate::{Roa, Tal};

/// Create or revoke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoaOp {
    /// ROA published.
    Add,
    /// ROA revoked/expired.
    Del,
}

/// One dated ROA event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoaEvent {
    /// Effective day.
    pub date: Date,
    /// Publish or revoke.
    pub op: RoaOp,
    /// The ROA.
    pub roa: Roa,
}

/// The CSV header line.
pub const HEADER: &str = "date,op,tal,asn,prefix,maxLength";

/// Serialize events (with header).
pub fn write_events(events: &[RoaEvent]) -> String {
    use std::fmt::Write as _;
    // One pre-sized buffer; lines stream in via `write!` (~44 bytes each)
    // instead of allocating a String per event.
    let mut out = String::with_capacity(HEADER.len() + 1 + events.len() * 44);
    out.push_str(HEADER);
    out.push('\n');
    for e in events {
        let op = match e.op {
            RoaOp::Add => "ADD",
            RoaOp::Del => "DEL",
        };
        let _ = write!(
            out,
            "{},{},{},{},{},",
            e.date, op, e.roa.tal, e.roa.asn, e.roa.prefix
        );
        if let Some(ml) = e.roa.max_length {
            let _ = write!(out, "{ml}");
        }
        out.push('\n');
    }
    out
}

/// Parse one event line (without the chronological-order check).
fn parse_event_line(line: &str) -> Result<RoaEvent, ParseError> {
    // Exactly 6 comma fields per event.
    let (fields, n) = split_fields::<6>(line, b',');
    if n != 6 {
        return Err(ParseError::new("RoaEvent", line, "expected 6 fields"));
    }
    let date: Date = fields[0].parse()?;
    let op = match fields[1] {
        "ADD" => RoaOp::Add,
        "DEL" => RoaOp::Del,
        other => {
            return Err(ParseError::new(
                "RoaEvent",
                line,
                format!("unknown op {other:?}"),
            ))
        }
    };
    let tal: Tal = fields[2].parse()?;
    let asn: Asn = fields[3].parse()?;
    let prefix = fields[4].parse()?;
    let max_length = if fields[5].is_empty() {
        None
    } else {
        let ml: u8 = fields[5]
            .parse()
            .map_err(|_| ParseError::new("RoaEvent", line, "bad maxLength"))?;
        if ml > 32 {
            return Err(ParseError::new("RoaEvent", line, "maxLength > 32"));
        }
        Some(ml)
    };
    let mut roa = Roa::new(prefix, asn, tal);
    roa.max_length = max_length;
    Ok(RoaEvent { date, op, roa })
}

/// Parse a CSV journal. The header is optional; blank and `#` lines are
/// skipped; events must be chronological.
pub fn parse_events(text: &str) -> Result<Vec<RoaEvent>, LocatedError> {
    parse_events_with(text, &mut Quarantine::strict("rpki/roas.csv"))
}

/// Parse a CSV journal under the ingestion policy carried by `quarantine`:
/// strict rejects abort; permissive rejects (malformed or out-of-order
/// lines) are quarantined and parsing continues on the next line.
pub fn parse_events_with(
    text: &str,
    quarantine: &mut Quarantine,
) -> Result<Vec<RoaEvent>, LocatedError> {
    let mut tspan = droplens_obs::trace::global().span("parse.rpki.events", "parse");
    tspan.arg_str("file", quarantine.source());
    let out = quarantine.counted("rpki.events", |quarantine| {
        parse_event_lines(text, quarantine)
    })?;
    tspan.arg_u64("records", out.len() as u64);
    Ok(out)
}

/// [`parse_events_with`]'s loop, accounting each line in `quarantine`.
fn parse_event_lines(
    text: &str,
    quarantine: &mut Quarantine,
) -> Result<Vec<RoaEvent>, LocatedError> {
    let mut out: Vec<RoaEvent> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line == HEADER {
            quarantine.record_skip();
            continue;
        }
        let lineno = idx as u32 + 1;
        let event = parse_event_line(line).and_then(|event| match out.last() {
            Some(last) if last.date > event.date => Err(ParseError::new(
                "RoaEvent",
                line,
                "events out of chronological order",
            )),
            _ => Ok(event),
        });
        match event {
            Ok(event) => {
                quarantine.record_ok();
                out.push(event);
            }
            Err(e) => quarantine.reject("rpki.events", lineno, e)?,
        }
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use droplens_net::Ipv4Prefix;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    #[test]
    fn round_trip() {
        let events = vec![
            RoaEvent {
                date: d("2020-11-20"),
                op: RoaOp::Add,
                roa: Roa::new(p("132.255.0.0/22"), Asn(263692), Tal::Lacnic),
            },
            RoaEvent {
                date: d("2021-05-05"),
                op: RoaOp::Add,
                roa: Roa::new(p("45.65.112.0/22"), Asn::AS0, Tal::Lacnic).with_max_length(24),
            },
            RoaEvent {
                date: d("2021-06-16"),
                op: RoaOp::Del,
                roa: Roa::new(p("132.255.0.0/22"), Asn(263692), Tal::Lacnic),
            },
        ];
        let text = write_events(&events);
        assert!(text.starts_with(HEADER));
        assert_eq!(parse_events(&text).unwrap(), events);
    }

    #[test]
    fn header_optional_and_comments_skipped() {
        let text = "# comment\n2020-01-01,ADD,arin,AS64500,10.0.0.0/8,\n";
        let events = parse_events(text).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].roa.tal, Tal::Arin);
        assert_eq!(events[0].roa.max_length, None);
    }

    #[test]
    fn as0_tal_round_trip() {
        let text = "2021-06-23,ADD,lacnic-as0,AS0,45.0.0.0/8,\n";
        let events = parse_events(text).unwrap();
        assert_eq!(events[0].roa.tal, Tal::LacnicAs0);
        assert!(events[0].roa.is_as0());
        assert_eq!(parse_events(&write_events(&events)).unwrap(), events);
    }

    #[test]
    fn malformed_rejected() {
        assert!(parse_events("2020-01-01,ADD,arin,AS1,10.0.0.0/8").is_err()); // 5 fields
        assert!(parse_events("2020-01-01,MOD,arin,AS1,10.0.0.0/8,\n").is_err());
        assert!(parse_events("2020-01-01,ADD,iana,AS1,10.0.0.0/8,\n").is_err());
        assert!(parse_events("2020-01-01,ADD,arin,AS1,10.0.0.0/8,33\n").is_err());
        assert!(parse_events("2020-01-01,ADD,arin,AS1,10.0.0.0/8,abc\n").is_err());
        assert!(parse_events("2020-01-99,ADD,arin,AS1,10.0.0.0/8,\n").is_err());
    }

    #[test]
    fn out_of_order_rejected() {
        let text = "2021-01-01,ADD,arin,AS1,10.0.0.0/8,\n2020-01-01,ADD,arin,AS2,11.0.0.0/8,\n";
        let err = parse_events(text).unwrap_err();
        assert_eq!(err.location(), ("rpki/roas.csv", 2));
        // Permissive: the out-of-order line is quarantined, order preserved.
        let mut q = Quarantine::permissive("rpki/roas.csv");
        let events = parse_events_with(text, &mut q).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(q.quarantined, 1);
    }

    #[test]
    fn permissive_quarantines_malformed_bodies() {
        let text = "2020-01-01,ADD,arin,AS1,10.0.0.0/8,\n2020-01-02,ADD,arin,ASX,11.0.0.0/8,\n2020-01-03,DEL,arin,AS1,10.0.0.0/8,\n";
        let mut q = Quarantine::permissive("rpki/roas.csv");
        let events = parse_events_with(text, &mut q).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(q.quarantined, 1);
        assert_eq!(q.samples[0].location(), ("rpki/roas.csv", 2));
    }
}
