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

use droplens_net::{Asn, BinReader, BinWriter, Date, LocatedError, ParseError, Quarantine};

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
    // Split without heap allocation: exactly 6 comma fields per event.
    let mut fields = [""; 6];
    let mut n = 0;
    for f in line.split(',') {
        if n < fields.len() {
            fields[n] = f;
        }
        n += 1;
    }
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

/// Kind tag of the binary ROA-journal sidecar (`droplens-bin/1`).
pub const BIN_KIND: &str = "rpki/roas";

/// Absent `maxLength` in the binary maxLength column (valid values ≤ 32).
const NO_MAXLEN: u8 = u8::MAX;

/// Serialize a ROA journal as a binary sidecar: per-event columns (date,
/// op, TAL code, ASN, prefix addr, prefix len, maxLength with
/// `255` = absent). The fast path next to the canonical CSV from
/// [`write_events`].
pub fn write_events_bin(events: &[RoaEvent]) -> Vec<u8> {
    let mut w = BinWriter::new(BIN_KIND);
    w.put_u32(events.len() as u32);
    for e in events {
        w.put_i32(e.date.days_since_epoch());
    }
    for e in events {
        w.put_u8(match e.op {
            RoaOp::Add => 0,
            RoaOp::Del => 1,
        });
    }
    for e in events {
        w.put_u8(e.roa.tal as u8);
    }
    for e in events {
        w.put_u32(e.roa.asn.value());
    }
    for e in events {
        w.put_u32(e.roa.prefix.network_u32());
    }
    for e in events {
        w.put_u8(e.roa.prefix.len());
    }
    for e in events {
        w.put_u8(e.roa.max_length.unwrap_or(NO_MAXLEN));
    }
    w.finish()
}

/// Decode the payload of a binary ROA sidecar (all-or-nothing), enforcing
/// the same chronological-order invariant as the CSV parser.
fn decode_events_bin(bytes: &[u8]) -> Result<Vec<RoaEvent>, ParseError> {
    let mut r = BinReader::new(bytes, BIN_KIND)?;
    let n = r.count("event count", 16)?;
    let mut dates = Vec::with_capacity(n);
    for _ in 0..n {
        let date = Date::from_days_since_epoch(r.i32("date")?);
        if let Some(&last) = dates.last() {
            if last > date {
                return Err(ParseError::new(
                    "BinArchive",
                    BIN_KIND,
                    "events out of chronological order",
                ));
            }
        }
        dates.push(date);
    }
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(match r.u8("op")? {
            0 => RoaOp::Add,
            1 => RoaOp::Del,
            _ => return Err(ParseError::new("BinArchive", BIN_KIND, "unknown op code")),
        });
    }
    let mut tals = Vec::with_capacity(n);
    for _ in 0..n {
        let code = r.u8("tal")? as usize;
        let tal = *Tal::ALL
            .get(code)
            .ok_or_else(|| ParseError::new("BinArchive", BIN_KIND, "unknown TAL code"))?;
        tals.push(tal);
    }
    let mut asns = Vec::with_capacity(n);
    for _ in 0..n {
        asns.push(Asn(r.u32("asn")?));
    }
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        addrs.push(r.u32("prefix addr")?);
    }
    let mut lens = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.u8("prefix len")?;
        if len > 32 {
            return Err(ParseError::new("BinArchive", BIN_KIND, "prefix len > 32"));
        }
        lens.push(len);
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let ml = r.u8("maxLength")?;
        let max_length = if ml == NO_MAXLEN {
            None
        } else if ml > 32 {
            return Err(ParseError::new("BinArchive", BIN_KIND, "maxLength > 32"));
        } else {
            Some(ml)
        };
        let prefix = droplens_net::Ipv4Prefix::from_u32(addrs[i], lens[i]);
        let mut roa = Roa::new(prefix, asns[i], tals[i]);
        roa.max_length = max_length;
        out.push(RoaEvent {
            date: dates[i],
            op: ops[i],
            roa,
        });
    }
    r.expect_done()?;
    Ok(out)
}

/// Parse a binary ROA sidecar strictly: any damage aborts.
pub fn parse_events_bin(bytes: &[u8]) -> Result<Vec<RoaEvent>, LocatedError> {
    parse_events_bin_with(bytes, &mut Quarantine::strict("rpki/roas.bin"))
}

/// Parse a binary ROA sidecar under the ingestion policy carried by
/// `quarantine`. Binary archives cannot be resynchronized mid-stream, so
/// damage quarantines the whole sidecar: strict aborts, permissive
/// records the rejection and returns no records.
pub fn parse_events_bin_with(
    bytes: &[u8],
    quarantine: &mut Quarantine,
) -> Result<Vec<RoaEvent>, LocatedError> {
    let obs = droplens_obs::global();
    let mut tspan = droplens_obs::trace::global().span("parse.rpki.events", "parse");
    tspan.arg_str("file", quarantine.source());
    match decode_events_bin(bytes) {
        Ok(out) => {
            obs.counter("rpki.events.parsed").add(out.len() as u64);
            for _ in &out {
                quarantine.record_ok();
            }
            tspan.arg_u64("records", out.len() as u64);
            Ok(out)
        }
        Err(e) => {
            obs.counter("rpki.events.malformed").inc();
            quarantine.reject("rpki.events", 0, e)?;
            Ok(Vec::new())
        }
    }
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

    fn sample_events() -> Vec<RoaEvent> {
        vec![
            RoaEvent {
                date: d("2020-11-20"),
                op: RoaOp::Add,
                roa: Roa::new(p("132.255.0.0/22"), Asn(263692), Tal::Lacnic),
            },
            RoaEvent {
                date: d("2021-05-05"),
                op: RoaOp::Add,
                roa: Roa::new(p("45.65.112.0/22"), Asn::AS0, Tal::LacnicAs0).with_max_length(24),
            },
            RoaEvent {
                date: d("2021-06-16"),
                op: RoaOp::Del,
                roa: Roa::new(p("132.255.0.0/22"), Asn(263692), Tal::Lacnic),
            },
        ]
    }

    #[test]
    fn binary_round_trip_matches_text_parse() {
        let events = sample_events();
        let bytes = write_events_bin(&events);
        let parsed = parse_events_bin(&bytes).unwrap();
        assert_eq!(parsed, events);
        // Binary and CSV decode to the very same records.
        assert_eq!(parse_events(&write_events(&events)).unwrap(), parsed);
    }

    #[test]
    fn binary_enforces_chronological_order() {
        let mut events = sample_events();
        events.swap(0, 2); // now out of order
        let bytes = write_events_bin(&events);
        assert!(parse_events_bin(&bytes).is_err());
    }

    #[test]
    fn truncated_binary_strict_aborts_permissive_quarantines() {
        let mut bytes = write_events_bin(&sample_events());
        bytes.truncate(bytes.len() - 1);
        assert!(parse_events_bin(&bytes).is_err());
        let mut q = Quarantine::permissive("rpki/roas.bin");
        assert!(parse_events_bin_with(&bytes, &mut q).unwrap().is_empty());
        assert_eq!(q.quarantined, 1);
    }

    #[test]
    fn binary_rejects_bad_codes() {
        // Corrupt the single event's TAL code (last-5th byte region): easier
        // to rebuild by hand — one event, then poke each column.
        let one = vec![RoaEvent {
            date: d("2020-01-01"),
            op: RoaOp::Add,
            roa: Roa::new(p("10.0.0.0/8"), Asn(1), Tal::Arin),
        }];
        let good = write_events_bin(&one);
        // Columns after the u32 count: i32 date, u8 op, u8 tal, u32 asn,
        // u32 addr, u8 len, u8 maxlen — maxlen is last, len is next-to-last.
        let mut bad_op = good.clone();
        let op_off = good.len() - 12;
        bad_op[op_off] = 9;
        assert!(parse_events_bin(&bad_op).is_err());
        let mut bad_tal = good.clone();
        bad_tal[op_off + 1] = 42;
        assert!(parse_events_bin(&bad_tal).is_err());
        let mut bad_ml = good.clone();
        bad_ml[good.len() - 1] = 60;
        assert!(parse_events_bin(&bad_ml).is_err());
    }
}
