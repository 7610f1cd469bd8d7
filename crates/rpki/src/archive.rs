//! Temporal ROA archive.

use std::collections::BTreeMap;

use droplens_net::{Asn, Date, Ipv4Prefix, PrefixTrie};

use crate::format::{RoaEvent, RoaOp};
use crate::{validate, Roa, RovOutcome, Tal};

/// A ROA with its publication lifetime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoaRecord {
    /// The ROA.
    pub roa: Roa,
    /// Day it was published.
    pub created: Date,
    /// Day it was revoked; `None` if still published at archive end.
    pub removed: Option<Date>,
}

impl RoaRecord {
    /// True if the ROA was published on `date`.
    pub fn active_on(&self, date: Date) -> bool {
        date >= self.created && self.removed.is_none_or(|r| date < r)
    }
}

/// A longitudinal index over dated ROA create/revoke events — the
/// in-memory form of the RIPE daily ROA archive.
pub struct RoaArchive {
    records: Vec<RoaRecord>,
    /// ROA prefix → indices into `records` (all generations).
    by_prefix: PrefixTrie<Vec<usize>>,
}

impl RoaArchive {
    /// Replay chronological events. Duplicate ADDs for a live identical
    /// ROA are ignored; DELs for unknown ROAs are ignored.
    pub fn from_events(events: &[RoaEvent]) -> RoaArchive {
        let mut records: Vec<RoaRecord> = Vec::new();
        let mut live: BTreeMap<(Ipv4Prefix, Asn, Option<u8>, Tal), usize> = BTreeMap::new();
        let mut by_prefix: PrefixTrie<Vec<usize>> = PrefixTrie::new();
        for e in events {
            let key = (e.roa.prefix, e.roa.asn, e.roa.max_length, e.roa.tal);
            match e.op {
                RoaOp::Add => {
                    if live.contains_key(&key) {
                        continue;
                    }
                    let idx = records.len();
                    records.push(RoaRecord {
                        roa: e.roa.clone(),
                        created: e.date,
                        removed: None,
                    });
                    live.insert(key, idx);
                    match by_prefix.get_mut(&e.roa.prefix) {
                        Some(idxs) => idxs.push(idx),
                        None => {
                            by_prefix.insert(e.roa.prefix, vec![idx]);
                        }
                    }
                }
                RoaOp::Del => {
                    if let Some(idx) = live.remove(&key) {
                        records[idx].removed = Some(e.date);
                    }
                }
            }
        }
        RoaArchive { records, by_prefix }
    }

    /// Every ROA generation in the archive.
    pub fn all(&self) -> &[RoaRecord] {
        &self.records
    }

    /// ROA generations whose prefix exactly equals `prefix`.
    pub fn records_for_exact(&self, prefix: &Ipv4Prefix) -> Vec<&RoaRecord> {
        self.by_prefix
            .get(prefix)
            .map(|idxs| idxs.iter().map(|&i| &self.records[i]).collect()) // bounded by ROA generations for one prefix
            .unwrap_or_default()
    }

    /// ROA generations from `tals` covering `prefix` (equal or less
    /// specific), lazily: the covering chain least specific first, each
    /// prefix's generations in insertion order.
    fn covering<'a: 't, 't>(
        &'a self,
        prefix: &Ipv4Prefix,
        tals: &'t [Tal],
    ) -> impl Iterator<Item = &'a RoaRecord> + 't {
        self.by_prefix
            .matches_iter(prefix)
            // idxs are positions recorded at insert time
            .flat_map(move |(_, idxs)| idxs.iter().map(move |&i| &self.records[i]))
            .filter(move |r| tals.contains(&r.roa.tal))
    }

    /// ROA generations covering `prefix` (equal or less specific),
    /// restricted to `tals`.
    pub fn records_covering(&self, prefix: &Ipv4Prefix, tals: &[Tal]) -> Vec<&RoaRecord> {
        self.covering(prefix, tals).collect() // bounded by covering ROAs (prefix tree fan-in)
    }

    /// ROAs from `tals` covering `prefix` and active on `date`.
    pub fn roas_covering_at(&self, prefix: &Ipv4Prefix, date: Date, tals: &[Tal]) -> Vec<&Roa> {
        self.covering(prefix, tals)
            .filter(|r| r.active_on(date))
            .map(|r| &r.roa)
            .collect() // bounded by covering ROAs (prefix tree fan-in)
    }

    /// True if any ROA from `tals` covers `prefix` on `date` — the
    /// "prefix is RPKI-signed" predicate of Table 1 and §6.
    pub fn is_signed_at(&self, prefix: &Ipv4Prefix, date: Date, tals: &[Tal]) -> bool {
        self.covering(prefix, tals).any(|r| r.active_on(date))
    }

    /// RFC 6811 validation of `(prefix, origin)` on `date` against `tals`.
    pub fn validate_at(
        &self,
        prefix: &Ipv4Prefix,
        origin: Asn,
        date: Date,
        tals: &[Tal],
    ) -> RovOutcome {
        validate(
            self.covering(prefix, tals)
                .filter(|r| r.active_on(date))
                .map(|r| &r.roa),
            prefix,
            origin,
        )
    }

    /// The first ROA (from `tals`) ever covering `prefix`, with its
    /// creation date — "when was this prefix first signed".
    pub fn first_signing(&self, prefix: &Ipv4Prefix, tals: &[Tal]) -> Option<&RoaRecord> {
        self.covering(prefix, tals).min_by_key(|r| r.created)
    }

    /// Signings of `prefix` with creation dates in `[from, to]`.
    pub fn signings_in_window(
        &self,
        prefix: &Ipv4Prefix,
        from: Date,
        to: Date,
        tals: &[Tal],
    ) -> Vec<&RoaRecord> {
        self.covering(prefix, tals)
            .filter(|r| r.created >= from && r.created <= to)
            .collect() // creation-window subset of one prefix's coverage
    }

    /// ROA generations exactly for `prefix`, ordered by creation date —
    /// the §6.1 "did the ROA ASN track the BGP origin" history.
    pub fn asn_history(&self, prefix: &Ipv4Prefix) -> Vec<(&RoaRecord, Asn)> {
        let mut records = self.records_for_exact(prefix);
        records.sort_by_key(|r| r.created);
        records.into_iter().map(|r| (r, r.roa.asn)).collect() // one prefix's generation history
    }

    /// Iterate ROAs from `tals` active on `date` — the Figure 5 daily
    /// accounting walk.
    pub fn active_on<'a>(
        &'a self,
        date: Date,
        tals: &'a [Tal],
    ) -> impl Iterator<Item = &'a RoaRecord> + 'a {
        self.records
            .iter()
            .filter(move |r| r.active_on(date) && tals.contains(&r.roa.tal))
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

    fn add(date: &str, prefix: &str, asn: u32, tal: Tal) -> RoaEvent {
        RoaEvent {
            date: d(date),
            op: RoaOp::Add,
            roa: Roa::new(p(prefix), Asn(asn), tal),
        }
    }

    fn del(date: &str, prefix: &str, asn: u32, tal: Tal) -> RoaEvent {
        RoaEvent {
            date: d(date),
            op: RoaOp::Del,
            roa: Roa::new(p(prefix), Asn(asn), tal),
        }
    }

    #[test]
    fn lifetimes() {
        let a = RoaArchive::from_events(&[
            add("2020-01-01", "10.0.0.0/8", 64500, Tal::Arin),
            del("2021-01-01", "10.0.0.0/8", 64500, Tal::Arin),
            add("2021-06-01", "10.0.0.0/8", 64501, Tal::Arin),
        ]);
        assert_eq!(a.all().len(), 2);
        let recs = a.records_for_exact(&p("10.0.0.0/8"));
        assert_eq!(recs[0].removed, Some(d("2021-01-01")));
        assert!(recs[0].active_on(d("2020-06-01")));
        assert!(!recs[0].active_on(d("2021-01-01")));
        assert!(recs[1].active_on(d("2022-01-01")));
    }

    #[test]
    fn duplicate_add_and_stray_del() {
        let a = RoaArchive::from_events(&[
            add("2020-01-01", "10.0.0.0/8", 64500, Tal::Arin),
            add("2020-02-01", "10.0.0.0/8", 64500, Tal::Arin),
            del("2020-03-01", "11.0.0.0/8", 64500, Tal::Arin),
        ]);
        assert_eq!(a.all().len(), 1);
    }

    #[test]
    fn signed_predicate_and_covering() {
        let a = RoaArchive::from_events(&[add("2020-01-01", "10.0.0.0/8", 64500, Tal::Arin)]);
        // Covering ROA signs more-specifics too.
        assert!(a.is_signed_at(&p("10.5.0.0/16"), d("2020-06-01"), &Tal::PRODUCTION));
        assert!(!a.is_signed_at(&p("10.5.0.0/16"), d("2019-06-01"), &Tal::PRODUCTION));
        assert!(!a.is_signed_at(&p("11.0.0.0/8"), d("2020-06-01"), &Tal::PRODUCTION));
        // TAL filtering.
        assert!(!a.is_signed_at(&p("10.5.0.0/16"), d("2020-06-01"), &[Tal::Lacnic]));
    }

    #[test]
    fn validation_through_time() {
        let a =
            RoaArchive::from_events(&[add("2020-01-01", "132.255.0.0/22", 263692, Tal::Lacnic)]);
        let pfx = p("132.255.0.0/22");
        assert_eq!(
            a.validate_at(&pfx, Asn(263692), d("2020-06-01"), &Tal::PRODUCTION),
            RovOutcome::Valid
        );
        assert_eq!(
            a.validate_at(&pfx, Asn(50509), d("2020-06-01"), &Tal::PRODUCTION),
            RovOutcome::Invalid
        );
        assert_eq!(
            a.validate_at(&pfx, Asn(263692), d("2019-06-01"), &Tal::PRODUCTION),
            RovOutcome::NotFound
        );
    }

    #[test]
    fn as0_tal_changes_outcome_only_when_included() {
        // LACNIC AS0 TAL covers an unallocated block.
        let a = RoaArchive::from_events(&[RoaEvent {
            date: d("2021-06-23"),
            op: RoaOp::Add,
            roa: Roa::new(p("45.224.0.0/12"), Asn::AS0, Tal::LacnicAs0),
        }]);
        let pfx = p("45.230.0.0/16");
        // Default validator config (production TALs): NotFound.
        assert_eq!(
            a.validate_at(&pfx, Asn(64500), d("2021-07-01"), &Tal::PRODUCTION),
            RovOutcome::NotFound
        );
        // With the AS0 TAL configured: Invalid.
        assert_eq!(
            a.validate_at(&pfx, Asn(64500), d("2021-07-01"), &Tal::ALL),
            RovOutcome::Invalid
        );
    }

    #[test]
    fn first_signing_and_window() {
        let a = RoaArchive::from_events(&[
            add("2020-03-01", "10.0.0.0/8", 64500, Tal::Arin),
            add("2021-03-01", "10.0.0.0/16", 64501, Tal::Arin),
        ]);
        let first = a
            .first_signing(&p("10.0.0.0/16"), &Tal::PRODUCTION)
            .unwrap();
        assert_eq!(first.created, d("2020-03-01"));
        assert_eq!(first.roa.asn, Asn(64500));
        let w = a.signings_in_window(
            &p("10.0.0.0/16"),
            d("2021-01-01"),
            d("2021-12-31"),
            &Tal::PRODUCTION,
        );
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].roa.asn, Asn(64501));
        assert!(a
            .first_signing(&p("99.0.0.0/8"), &Tal::PRODUCTION)
            .is_none());
    }

    #[test]
    fn asn_history_tracks_changes() {
        // §6.1: attacker-controlled ROA — the ROA ASN follows the BGP origin.
        let a = RoaArchive::from_events(&[
            add("2019-01-01", "41.77.0.0/17", 11111, Tal::Afrinic),
            del("2020-01-01", "41.77.0.0/17", 11111, Tal::Afrinic),
            add("2020-01-01", "41.77.0.0/17", 22222, Tal::Afrinic),
        ]);
        let hist = a.asn_history(&p("41.77.0.0/17"));
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[0].1, Asn(11111));
        assert_eq!(hist[1].1, Asn(22222));
    }

    #[test]
    fn active_on_walk() {
        let a = RoaArchive::from_events(&[
            add("2020-01-01", "10.0.0.0/8", 64500, Tal::Arin),
            add("2020-06-01", "11.0.0.0/8", 0, Tal::Lacnic),
            del("2021-01-01", "10.0.0.0/8", 64500, Tal::Arin),
        ]);
        assert_eq!(a.active_on(d("2020-07-01"), &Tal::PRODUCTION).count(), 2);
        assert_eq!(a.active_on(d("2021-07-01"), &Tal::PRODUCTION).count(), 1);
        let as0_active: Vec<_> = a
            .active_on(d("2020-07-01"), &Tal::PRODUCTION)
            .filter(|r| r.roa.is_as0())
            .collect();
        assert_eq!(as0_active.len(), 1);
    }
}
