//! Binary sidecar codec (`droplens-bin/1`) for the IRR journal.
//!
//! The canonical form stays the NRTM-style text journal parsed by
//! [`crate::parse_journal_with`]. This codec stores the same dated
//! ADD/DEL entries in length-prefixed little-endian columns with a
//! deduplicated string table for the handles that repeat across
//! thousands of objects (maintainers, ORG-IDs, sources, descriptions),
//! so the journal loads without per-line RPSL parsing.

use droplens_net::{
    read_str_table, Asn, BinReader, BinWriter, Date, Ipv4Prefix, LocatedError, ParseError,
    Quarantine, StrTable, NO_ID,
};

use crate::{JournalEntry, JournalOp, RouteObject};

/// Kind tag of the binary journal sidecar.
pub const BIN_KIND: &str = "irr/journal";

/// Serialize a journal as a binary sidecar: a deduplicated string table,
/// then per-entry columns (date, op, prefix, origin, attribute ids with
/// [`NO_ID`] = absent `org:`), then each entry's preserved-verbatim
/// extra attributes. The fast path next to the canonical text from
/// [`crate::write_journal`].
pub fn write_journal_bin(entries: &[JournalEntry]) -> Vec<u8> {
    let mut w = BinWriter::new(BIN_KIND);
    let mut strs = StrTable::new();
    // First pass assigns every string its table index in a deterministic
    // first-appearance order.
    let mut ids = Vec::with_capacity(entries.len());
    for e in entries {
        let o = &e.object;
        let descr = strs.add(&o.descr);
        let maintainer = strs.add(&o.maintainer);
        let org = o.org.as_deref().map_or(NO_ID, |s| strs.add(s));
        let source = strs.add(&o.source);
        let extra: Vec<(u32, u32)> = o
            .extra
            .iter()
            .map(|(k, v)| (strs.add(k), strs.add(v)))
            .collect(); // a handful of extra attributes per object
        ids.push((descr, maintainer, org, source, extra));
    }
    strs.write(&mut w);
    w.put_u32(entries.len() as u32);
    for e in entries {
        w.put_i32(e.date.days_since_epoch());
    }
    for e in entries {
        w.put_u8(match e.op {
            JournalOp::Add => 0,
            JournalOp::Del => 1,
        });
    }
    for e in entries {
        w.put_u32(e.object.prefix.network_u32());
    }
    for e in entries {
        w.put_u8(e.object.prefix.len());
    }
    for e in entries {
        w.put_u32(e.object.origin.value());
    }
    for (descr, ..) in &ids {
        w.put_u32(*descr);
    }
    for (_, maintainer, ..) in &ids {
        w.put_u32(*maintainer);
    }
    for (_, _, org, ..) in &ids {
        w.put_u32(*org);
    }
    for (_, _, _, source, _) in &ids {
        w.put_u32(*source);
    }
    for (_, _, _, _, extra) in &ids {
        w.put_u32(extra.len() as u32);
        for (k, v) in extra {
            w.put_u32(*k);
            w.put_u32(*v);
        }
    }
    w.finish()
}

/// Decode the payload of a binary journal sidecar (all-or-nothing),
/// enforcing the same chronological-order invariant as the text parser.
fn decode_journal_bin(bytes: &[u8]) -> Result<Vec<JournalEntry>, ParseError> {
    let mut r = BinReader::new(bytes, BIN_KIND)?;
    let strs = read_str_table(&mut r)?;
    let lookup = |id: u32, what: &str| -> Result<&str, ParseError> {
        strs.get(id as usize).copied().ok_or_else(|| {
            ParseError::new("BinArchive", BIN_KIND, format!("{what} id out of range"))
        })
    };
    let n = r.count("entry count", 34)?;
    let mut dates = Vec::with_capacity(n);
    for _ in 0..n {
        let date = Date::from_days_since_epoch(r.i32("date")?);
        if let Some(&last) = dates.last() {
            if last > date {
                return Err(ParseError::new(
                    "BinArchive",
                    BIN_KIND,
                    "journal entries out of chronological order",
                ));
            }
        }
        dates.push(date);
    }
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(match r.u8("op")? {
            0 => JournalOp::Add,
            1 => JournalOp::Del,
            _ => return Err(ParseError::new("BinArchive", BIN_KIND, "unknown op code")),
        });
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
    let mut origins = Vec::with_capacity(n);
    for _ in 0..n {
        origins.push(Asn(r.u32("origin")?));
    }
    let mut descrs = Vec::with_capacity(n);
    for _ in 0..n {
        descrs.push(lookup(r.u32("descr")?, "descr")?);
    }
    let mut maintainers = Vec::with_capacity(n);
    for _ in 0..n {
        maintainers.push(lookup(r.u32("maintainer")?, "maintainer")?);
    }
    let mut orgs = Vec::with_capacity(n);
    for _ in 0..n {
        let raw = r.u32("org")?;
        orgs.push(if raw == NO_ID {
            None
        } else {
            Some(lookup(raw, "org")?)
        });
    }
    let mut sources = Vec::with_capacity(n);
    for _ in 0..n {
        sources.push(lookup(r.u32("source")?, "source")?);
    }
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let n_extra = r.count("extra count", 8)?;
        let mut extra = Vec::with_capacity(n_extra);
        for _ in 0..n_extra {
            let k = lookup(r.u32("extra key")?, "extra key")?;
            let v = lookup(r.u32("extra value")?, "extra value")?;
            extra.push((k.to_owned(), v.to_owned()));
        }
        out.push(JournalEntry {
            date: dates[i],
            op: ops[i],
            object: RouteObject {
                prefix: Ipv4Prefix::from_u32(addrs[i], lens[i]),
                origin: origins[i],
                descr: descrs[i].to_owned(),
                maintainer: maintainers[i].to_owned(),
                org: orgs[i].map(str::to_owned),
                source: sources[i].to_owned(),
                extra,
            },
        });
    }
    r.expect_done()?;
    Ok(out)
}

/// Parse a binary journal sidecar strictly: any damage aborts.
pub fn parse_journal_bin(bytes: &[u8]) -> Result<Vec<JournalEntry>, LocatedError> {
    parse_journal_bin_with(bytes, &mut Quarantine::strict("irr/journal.bin"))
}

/// Parse a binary journal sidecar under the ingestion policy carried by
/// `quarantine`. Binary archives cannot be resynchronized mid-stream, so
/// damage quarantines the whole sidecar: strict aborts, permissive
/// records the rejection and returns no entries (callers fall back to
/// the canonical text journal).
pub fn parse_journal_bin_with(
    bytes: &[u8],
    quarantine: &mut Quarantine,
) -> Result<Vec<JournalEntry>, LocatedError> {
    let obs = droplens_obs::global();
    let mut tspan = droplens_obs::trace::global().span("parse.irr.journal", "parse");
    tspan.arg_str("file", quarantine.source());
    match decode_journal_bin(bytes) {
        Ok(out) => {
            obs.counter("irr.journal.parsed").add(out.len() as u64);
            for _ in &out {
                quarantine.record_ok();
            }
            tspan.arg_u64("records", out.len() as u64);
            Ok(out)
        }
        Err(e) => {
            obs.counter("irr.journal.malformed").inc();
            quarantine.reject("irr.journal", 0, e)?;
            Ok(Vec::new())
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use crate::{parse_journal, write_journal};

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    fn sample_entries() -> Vec<JournalEntry> {
        let full = RouteObject::new("132.255.0.0/22".parse().unwrap(), Asn(263692))
            .with_descr("LACNIC block")
            .with_maintainer("MAINT-AS263692")
            .with_org("ORG-PE42");
        let mut extra = full.clone();
        extra.extra.push(("admin-c".to_owned(), "XX123".to_owned()));
        let bare = RouteObject::new("10.0.0.0/8".parse().unwrap(), Asn(64500));
        vec![
            JournalEntry {
                date: d("2020-11-20"),
                op: JournalOp::Add,
                object: full.clone(),
            },
            JournalEntry {
                date: d("2020-12-01"),
                op: JournalOp::Add,
                object: extra,
            },
            JournalEntry {
                date: d("2021-01-05"),
                op: JournalOp::Add,
                object: bare,
            },
            JournalEntry {
                date: d("2021-02-01"),
                op: JournalOp::Del,
                object: full,
            },
        ]
    }

    #[test]
    fn binary_round_trip_matches_text_parse() {
        let entries = sample_entries();
        let bytes = write_journal_bin(&entries);
        let parsed = parse_journal_bin(&bytes).unwrap();
        assert_eq!(parsed, entries);
        // Binary and text decode to the very same entries.
        assert_eq!(parse_journal(&write_journal(&entries)).unwrap(), parsed);
    }

    #[test]
    fn binary_dedups_repeated_handles() {
        let entries = sample_entries();
        let bytes = write_journal_bin(&entries);
        let mut r = BinReader::new(&bytes, BIN_KIND).unwrap();
        // Distinct strings across four entries: "LACNIC block",
        // "MAINT-AS263692", "ORG-PE42", "RADB", "admin-c", "XX123", "" —
        // the repeated maintainer/org/source handles are stored once.
        assert_eq!(read_str_table(&mut r).unwrap().len(), 7);
    }

    #[test]
    fn binary_enforces_chronological_order() {
        let mut entries = sample_entries();
        entries.swap(0, 3);
        let bytes = write_journal_bin(&entries);
        assert!(parse_journal_bin(&bytes).is_err());
    }

    #[test]
    fn truncated_binary_strict_aborts_permissive_quarantines() {
        let mut bytes = write_journal_bin(&sample_entries());
        bytes.truncate(bytes.len() - 2);
        assert!(parse_journal_bin(&bytes).is_err());
        let mut q = Quarantine::permissive("irr/journal.bin");
        assert!(parse_journal_bin_with(&bytes, &mut q).unwrap().is_empty());
        assert_eq!(q.quarantined, 1);
    }

    #[test]
    fn empty_journal_round_trips() {
        let bytes = write_journal_bin(&[]);
        assert!(parse_journal_bin(&bytes).unwrap().is_empty());
    }
}
