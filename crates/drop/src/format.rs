//! Binary sidecar codecs (`droplens-bin/1`) for DROP snapshots and SBL
//! databases.
//!
//! The canonical forms stay textual — the Spamhaus file shape parsed by
//! [`DropSnapshot::parse_with`] and the block format parsed by
//! [`SblDatabase::parse_with`]. These codecs store the same records in
//! length-prefixed little-endian columns, which load without per-line
//! scanning; `droplens-core`'s round-trip equivalence test proves both
//! paths build byte-identical studies.

use droplens_net::{
    BinReader, BinWriter, Date, Ipv4Prefix, LocatedError, ParseError, Quarantine, NO_ID,
};

use crate::{DropSnapshot, SblDatabase, SblId, SblRecord};

/// Kind tag of the binary DROP-snapshot sidecar.
pub const SNAPSHOT_BIN_KIND: &str = "drop/snapshot";

/// Kind tag of the binary SBL-database sidecar.
pub const SBL_BIN_KIND: &str = "sbl/records";

/// Serialize a DROP snapshot as a binary sidecar: the snapshot date,
/// then per-entry columns (prefix addr, prefix len, SBL id with
/// [`NO_ID`] = absent) in prefix order — the same deterministic order
/// [`DropSnapshot::to_text`] emits.
pub fn write_snapshot_bin(snapshot: &DropSnapshot) -> Vec<u8> {
    let mut w = BinWriter::new(SNAPSHOT_BIN_KIND);
    w.put_i32(snapshot.date.days_since_epoch());
    w.put_u32(snapshot.entries.len() as u32);
    for prefix in snapshot.entries.keys() {
        w.put_u32(prefix.network_u32());
    }
    for prefix in snapshot.entries.keys() {
        w.put_u8(prefix.len());
    }
    for sbl in snapshot.entries.values() {
        w.put_u32(sbl.map_or(NO_ID, |id| id.0));
    }
    w.finish()
}

/// Decode the payload of a binary snapshot sidecar (all-or-nothing).
/// The archive layout supplies `date`, exactly as in the text path; the
/// stored date must agree.
fn decode_snapshot_bin(date: Date, bytes: &[u8]) -> Result<DropSnapshot, ParseError> {
    let mut r = BinReader::new(bytes, SNAPSHOT_BIN_KIND)?;
    let stored = Date::from_days_since_epoch(r.i32("date")?);
    if stored != date {
        return Err(ParseError::new(
            "BinArchive",
            SNAPSHOT_BIN_KIND,
            format!("snapshot date {stored} disagrees with archive layout {date}"),
        ));
    }
    let n = r.count("entry count", 9)?;
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        addrs.push(r.u32("prefix addr")?);
    }
    let mut lens = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.u8("prefix len")?;
        if len > 32 {
            return Err(ParseError::new(
                "BinArchive",
                SNAPSHOT_BIN_KIND,
                "prefix len > 32",
            ));
        }
        lens.push(len);
    }
    let mut snapshot = DropSnapshot::new(date);
    for i in 0..n {
        let raw = r.u32("sbl id")?;
        let sbl = (raw != NO_ID).then_some(SblId(raw));
        snapshot.insert(Ipv4Prefix::from_u32(addrs[i], lens[i]), sbl);
    }
    r.expect_done()?;
    Ok(snapshot)
}

/// Parse a binary snapshot sidecar strictly: any damage aborts.
pub fn parse_snapshot_bin(date: Date, bytes: &[u8]) -> Result<DropSnapshot, LocatedError> {
    parse_snapshot_bin_with(
        date,
        bytes,
        &mut Quarantine::strict(format!("drop/{date}.bin")),
    )
}

/// Parse a binary snapshot sidecar under the ingestion policy carried by
/// `quarantine`. Binary archives cannot be resynchronized mid-stream, so
/// damage quarantines the whole sidecar: strict aborts, permissive
/// records the rejection and returns an empty snapshot (callers fall
/// back to the canonical text archive).
pub fn parse_snapshot_bin_with(
    date: Date,
    bytes: &[u8],
    quarantine: &mut Quarantine,
) -> Result<DropSnapshot, LocatedError> {
    let obs = droplens_obs::global();
    let mut tspan = droplens_obs::trace::global().span("parse.drop.list", "parse");
    tspan.arg_str("file", quarantine.source());
    match decode_snapshot_bin(date, bytes) {
        Ok(snapshot) => {
            obs.counter("drop.list.parsed")
                .add(snapshot.entries.len() as u64);
            for _ in &snapshot.entries {
                quarantine.record_ok();
            }
            tspan.arg_u64("records", snapshot.entries.len() as u64);
            Ok(snapshot)
        }
        Err(e) => {
            obs.counter("drop.list.malformed").inc();
            quarantine.reject("drop.list", 0, e)?;
            Ok(DropSnapshot::new(date))
        }
    }
}

/// Serialize an SBL database as a binary sidecar: `u32 count`, then
/// `(u32 id, str body)` per record in id order — the same deterministic
/// order [`SblDatabase::to_text`] emits.
pub fn write_sbl_bin(db: &SblDatabase) -> Vec<u8> {
    let mut w = BinWriter::new(SBL_BIN_KIND);
    w.put_u32(db.len() as u32);
    for r in db.iter() {
        w.put_u32(r.id.0);
        w.put_str(&r.text);
    }
    w.finish()
}

/// Decode the payload of a binary SBL sidecar (all-or-nothing).
fn decode_sbl_bin(bytes: &[u8]) -> Result<SblDatabase, ParseError> {
    let mut r = BinReader::new(bytes, SBL_BIN_KIND)?;
    let n = r.count("record count", 8)?;
    let mut db = SblDatabase::new();
    for _ in 0..n {
        let id = SblId(r.u32("sbl id")?);
        let text = r.str("record body")?;
        db.insert(SblRecord::new(id, text));
    }
    r.expect_done()?;
    Ok(db)
}

/// Parse a binary SBL sidecar strictly: any damage aborts.
pub fn parse_sbl_bin(bytes: &[u8]) -> Result<SblDatabase, LocatedError> {
    parse_sbl_bin_with(bytes, &mut Quarantine::strict("sbl/records.bin"))
}

/// Parse a binary SBL sidecar under the ingestion policy carried by
/// `quarantine`: strict aborts on damage, permissive records the
/// rejection and returns an empty database.
pub fn parse_sbl_bin_with(
    bytes: &[u8],
    quarantine: &mut Quarantine,
) -> Result<SblDatabase, LocatedError> {
    let obs = droplens_obs::global();
    let mut tspan = droplens_obs::trace::global().span("parse.drop.sbl", "parse");
    tspan.arg_str("file", quarantine.source());
    match decode_sbl_bin(bytes) {
        Ok(db) => {
            obs.counter("drop.sbl.parsed").add(db.len() as u64);
            for _ in 0..db.len() {
                quarantine.record_ok();
            }
            tspan.arg_u64("records", db.len() as u64);
            Ok(db)
        }
        Err(e) => {
            obs.counter("drop.sbl.malformed").inc();
            quarantine.reject("drop.sbl", 0, e)?;
            Ok(SblDatabase::new())
        }
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

    fn sample_snapshot() -> DropSnapshot {
        let mut s = DropSnapshot::new(d("2020-12-01"));
        s.insert(p("132.255.0.0/22"), Some(SblId(502548)));
        s.insert(p("5.188.0.0/17"), None);
        s
    }

    #[test]
    fn snapshot_binary_round_trip_matches_text_parse() {
        let s = sample_snapshot();
        let bytes = write_snapshot_bin(&s);
        let parsed = parse_snapshot_bin(d("2020-12-01"), &bytes).unwrap();
        assert_eq!(parsed, s);
        // Binary and text decode to the very same snapshot.
        assert_eq!(
            DropSnapshot::parse(d("2020-12-01"), &s.to_text()).unwrap(),
            parsed
        );
    }

    #[test]
    fn snapshot_binary_rejects_layout_date_mismatch() {
        let bytes = write_snapshot_bin(&sample_snapshot());
        assert!(parse_snapshot_bin(d("2021-01-01"), &bytes).is_err());
    }

    #[test]
    fn snapshot_truncation_strict_aborts_permissive_quarantines() {
        let mut bytes = write_snapshot_bin(&sample_snapshot());
        bytes.truncate(bytes.len() - 1);
        assert!(parse_snapshot_bin(d("2020-12-01"), &bytes).is_err());
        let mut q = Quarantine::permissive("drop/2020-12-01.bin");
        let s = parse_snapshot_bin_with(d("2020-12-01"), &bytes, &mut q).unwrap();
        assert!(s.entries.is_empty());
        assert_eq!(q.quarantined, 1);
    }

    #[test]
    fn sbl_binary_round_trip_matches_text_parse() {
        let mut db = SblDatabase::new();
        db.insert(SblRecord::new(SblId(310721), "AS204139 spammer hosting"));
        db.insert(SblRecord::new(
            SblId(240976),
            "hijacked IP range\nbilling@ahostinginc.com",
        ));
        let bytes = write_sbl_bin(&db);
        let parsed = parse_sbl_bin(&bytes).unwrap();
        assert_eq!(parsed, db);
        assert_eq!(SblDatabase::parse(&db.to_text()).unwrap(), parsed);
    }

    #[test]
    fn sbl_binary_keeps_bodies_text_cannot() {
        // The block text format cannot round-trip a body with a blank
        // line; the binary sidecar can (length-prefixed, no sentinels).
        let mut db = SblDatabase::new();
        db.insert(SblRecord::new(SblId(7), "para one\n\npara two"));
        let parsed = parse_sbl_bin(&write_sbl_bin(&db)).unwrap();
        assert_eq!(parsed.get(SblId(7)).unwrap().text, "para one\n\npara two");
    }

    #[test]
    fn sbl_truncation_strict_aborts_permissive_quarantines() {
        let mut db = SblDatabase::new();
        db.insert(SblRecord::new(SblId(1), "body"));
        let mut bytes = write_sbl_bin(&db);
        bytes.truncate(bytes.len() - 1);
        assert!(parse_sbl_bin(&bytes).is_err());
        let mut q = Quarantine::permissive("sbl/records.bin");
        assert!(parse_sbl_bin_with(&bytes, &mut q).unwrap().is_empty());
        assert_eq!(q.quarantined, 1);
    }
}
