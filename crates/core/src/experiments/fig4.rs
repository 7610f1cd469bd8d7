//! Figure 4 / §6.1: hijacks of RPKI-signed prefixes and the RPKI-valid
//! hijack case study.
//!
//! Detection pipeline, from the data alone:
//!
//! 1. Find hijack listings whose prefix was RPKI-signed *before* it was
//!    listed (paper: 3 of 179).
//! 2. Split them by ROA history: if the ROA's ASN changed in the two
//!    years before listing, tracking the BGP origin, the attacker likely
//!    controls the ROA (paper: 2). Otherwise the announcement reused the
//!    authorized origin — an RPKI-valid hijack (paper: 1,
//!    132.255.0.0/22).
//! 3. For the RPKI-valid case, extract the announcement's suspicious
//!    transit (the AS upstream of the origin) and sweep the archive for
//!    other prefixes announced `origin via transit` (paper: 6 more, 3 of
//!    which were also DROP-listed), reconstructing the plotted timeline
//!    rows as origin/transit segments.

use std::fmt;

use droplens_bgp::history::{find_origin_via_transit, origin_segments, OriginSegment};
use droplens_drop::Category;
use droplens_net::{Asn, Date, DateRange, Ipv4Prefix};
use droplens_rpki::Tal;

use crate::Study;

/// One prefix in the case-study sweep.
#[derive(Debug, Clone)]
pub struct PatternRow {
    /// The prefix.
    pub prefix: Ipv4Prefix,
    /// First day the pattern (origin via transit) was observed.
    pub first_seen: Date,
    /// Whether the matched origin had originated the prefix before.
    pub origin_is_historic: bool,
    /// The prefix's DROP listing date, if it was listed.
    pub listed: Option<Date>,
    /// Whether the prefix is covered by a production-TAL ROA at the
    /// sweep date.
    pub rpki_signed: bool,
    /// The plotted timeline row: origin/transit segments over the study.
    pub segments: Vec<OriginSegment>,
}

/// The case study.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The RPKI-valid hijacked prefix (paper: 132.255.0.0/22).
    pub prefix: Ipv4Prefix,
    /// The ROA-authorized origin the hijacker reused (paper: AS263692).
    pub origin: Asn,
    /// The suspicious transit (paper: AS50509).
    pub transit: Asn,
    /// Every prefix matching `origin via transit`, including the case
    /// prefix, sorted by first appearance.
    pub pattern: Vec<PatternRow>,
}

/// §6.1 + Figure 4 results.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Hijack listings analyzed.
    pub hijack_listings: usize,
    /// Hijack prefixes RPKI-signed before listing (paper: 3).
    pub signed_before_listing: Vec<Ipv4Prefix>,
    /// Of those, prefixes whose ROA ASN tracked the BGP origin (paper: 2).
    pub attacker_controlled: Vec<Ipv4Prefix>,
    /// The RPKI-valid hijack case study (paper: 1).
    pub case: Option<CaseStudy>,
}

/// Compute Figure 4.
pub fn compute(study: &Study) -> Fig4 {
    let tals = &Tal::PRODUCTION;
    let hijacks: Vec<_> = study
        .without_incidents()
        .filter(|e| e.has(Category::Hijacked))
        .collect();

    let mut signed_before = Vec::new();
    let mut attacker_controlled = Vec::new();
    let mut valid_candidates = Vec::new();
    for e in &hijacks {
        let listed = e.entry.added;
        if !study.roa.is_signed_at(&e.prefix(), listed, tals) {
            continue;
        }
        signed_before.push(e.prefix());
        if roa_tracked_origin(study, &e.prefix(), listed) {
            attacker_controlled.push(e.prefix());
        } else {
            valid_candidates.push(*e);
        }
    }

    // The RPKI-valid case: the candidate whose announced origin matches
    // the ROA.
    let case = valid_candidates.iter().find_map(|e| {
        let listed = e.entry.added;
        let origins = study.bgp.origins_at(&e.prefix(), listed);
        let roas = study.roa.roas_covering_at(&e.prefix(), listed, tals);
        let origin = roas
            .iter()
            .map(|r| r.asn)
            .find(|asn| origins.contains(asn))?;
        // The suspicious transit: of the transit ASes carrying the
        // hijack, the one that recurs most across *other* hijack
        // listings' announcements — how the paper homed in on AS50509,
        // which also carried the forged-IRR hijacks.
        let transit = suspicious_transit(study, &e.prefix(), listed)?;
        Some(build_case(study, e.prefix(), origin, transit))
    });

    Fig4 {
        hijack_listings: hijacks.len(),
        signed_before_listing: signed_before,
        attacker_controlled,
        case,
    }
}

/// Did the exact-prefix ROA history change ASN in the two years before
/// listing, with each ROA ASN matching the then-current BGP origin?
fn roa_tracked_origin(study: &Study, prefix: &Ipv4Prefix, listed: Date) -> bool {
    let history = study.roa.asn_history(prefix);
    if history.len() < 2 {
        return false;
    }
    let mut changes = 0;
    for window in history.windows(2) {
        let prev_asn = window[0].1;
        let (next, next_asn) = (&window[1].0, window[1].1);
        if prev_asn == next_asn {
            continue;
        }
        let change_day = next.created;
        if change_day > listed || change_day < listed - 730 {
            continue;
        }
        // Origin before the change matched the old ROA; after, the new.
        let before = study.bgp.origins_at(prefix, change_day.pred());
        let after = study.bgp.origins_at(prefix, change_day + 1);
        if before.contains(&prev_asn) && after.contains(&next_asn) {
            changes += 1;
        }
    }
    changes > 0
}

/// Rank the case announcement's transit hops by how often each appears on
/// other hijack listings' announced paths; return the most recurrent.
fn suspicious_transit(study: &Study, case: &Ipv4Prefix, listed: Date) -> Option<Asn> {
    use std::collections::{BTreeMap, BTreeSet};
    let peer_asns: BTreeSet<Asn> = study.peers.iter().map(|p| p.asn).collect();

    // Candidate hops: the case announcement's transits.
    let mut candidates: BTreeSet<Asn> = BTreeSet::new();
    for peer in study.peers.iter() {
        if let Some(path) = study.bgp.path_at(case, peer.id, listed) {
            let origin = path.origin();
            candidates.extend(
                path.hops()
                    .iter()
                    .filter(|&&h| h != origin && !peer_asns.contains(&h)),
            );
        }
    }

    // Score candidates across the other hijack listings' paths.
    let mut score: BTreeMap<Asn, usize> = BTreeMap::new();
    for e in study.without_incidents() {
        if !e.has(Category::Hijacked) || e.prefix() == *case {
            continue;
        }
        let mut hops: BTreeSet<Asn> = BTreeSet::new();
        for peer in study.peers.iter() {
            for iv in study.bgp.intervals(&e.prefix(), peer.id) {
                let path = study.bgp.path_of(iv.path);
                let origin = path.origin();
                hops.extend(
                    path.hops()
                        .iter()
                        .filter(|&&h| h != origin && !peer_asns.contains(&h)),
                );
            }
        }
        for &c in &candidates {
            if hops.contains(&c) {
                *score.entry(c).or_insert(0) += 1;
            }
        }
    }
    candidates
        .into_iter()
        .max_by_key(|c| score.get(c).copied().unwrap_or(0))
}

fn build_case(study: &Study, prefix: Ipv4Prefix, origin: Asn, transit: Asn) -> CaseStudy {
    // Sweep the whole archive era, as the paper inspected all of its BGP
    // data for the pattern.
    let sweep = DateRange::new(
        study
            .bgp
            .first_date()
            .unwrap_or(study.config.window.start()),
        study.horizon(),
    );
    let mut pattern: Vec<PatternRow> = find_origin_via_transit(&study.bgp, origin, transit, sweep)
        .into_iter()
        .map(|m| {
            let listed = study.drop.for_prefix(&m.prefix).first().map(|e| e.added);
            PatternRow {
                prefix: m.prefix,
                first_seen: m.first_seen,
                origin_is_historic: m.origin_is_historic,
                listed,
                rpki_signed: study
                    .roa
                    .is_signed_at(&m.prefix, m.first_seen, &Tal::PRODUCTION),
                segments: origin_segments(&study.bgp, &m.prefix, sweep),
            }
        })
        .collect();
    pattern.sort_by_key(|r| (r.first_seen, r.prefix));
    CaseStudy {
        prefix,
        origin,
        transit,
        pattern,
    }
}

impl fmt::Display for Fig4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4 / §6.1: of {} hijack listings, {} were RPKI-signed before listing; {} with attacker-controlled ROAs",
            self.hijack_listings,
            self.signed_before_listing.len(),
            self.attacker_controlled.len(),
        )?;
        let Some(case) = &self.case else {
            return writeln!(f, "  no RPKI-valid hijack found");
        };
        writeln!(
            f,
            "  RPKI-valid hijack: {} (ROA origin {}, via transit {})",
            case.prefix, case.origin, case.transit
        )?;
        writeln!(
            f,
            "  pattern sweep ({} via {}): {} prefixes, {} DROP-listed",
            case.origin,
            case.transit,
            case.pattern.len(),
            case.pattern.iter().filter(|r| r.listed.is_some()).count(),
        )?;
        for row in &case.pattern {
            writeln!(
                f,
                "    {:<18} first {}  historic-origin={}  signed={}  listed={}",
                row.prefix.to_string(),
                row.first_seen,
                row.origin_is_historic,
                row.rpki_signed,
                row.listed
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "-".into()),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use crate::experiments::testutil;
    use droplens_bgp::history::PatternMatch;
    use droplens_bgp::BgpArchive;

    /// `find_origin_via_transit` as a lookup per (prefix, peer): the sweep
    /// the lane walk replaced.
    fn reference_sweep(
        archive: &BgpArchive,
        origin: Asn,
        transit: Asn,
        window: DateRange,
    ) -> Vec<PatternMatch> {
        let mut out = Vec::new();
        for prefix in archive.prefixes() {
            let mut first_seen: Option<Date> = None;
            for peer in archive.peers() {
                for iv in archive.intervals(&prefix, peer.id) {
                    let path = archive.path_of(iv.path);
                    if path.origin() != origin || !path.contains(transit) {
                        continue;
                    }
                    let seg_start = iv.start.max(window.start());
                    let seg_end = iv.end.unwrap_or(window.end()).min(window.end());
                    if seg_start < seg_end {
                        first_seen = Some(first_seen.map_or(seg_start, |d| d.min(seg_start)));
                    }
                }
            }
            if let Some(first_seen) = first_seen {
                let historic = archive
                    .historic_origins_before(&prefix, first_seen)
                    .get(&origin)
                    .is_some_and(|&d| d < first_seen);
                out.push(PatternMatch {
                    prefix,
                    first_seen,
                    origin_is_historic: historic,
                });
            }
        }
        out
    }

    #[test]
    fn pattern_sweep_equals_the_per_pair_reference() {
        for (world, study) in testutil::studies() {
            // The case study's pattern, and the (origin, upstream hop)
            // pattern of one route in every 500 prefixes.
            let mut patterns: Vec<(Asn, Asn)> = compute(study)
                .case
                .map(|c| (c.origin, c.transit))
                .into_iter()
                .collect();
            for (_, lanes) in study.bgp.lanes().step_by(500) {
                let Some(iv) = lanes.iter().find_map(|(_, lane)| lane.first()) else {
                    continue;
                };
                let hops = study.bgp.path_of(iv.path).hops();
                if let [.., upstream, origin] = hops {
                    patterns.push((*origin, *upstream));
                }
            }
            assert!(patterns.len() > 3, "{world}: {patterns:?}");
            let archive_era = DateRange::new(study.bgp.first_date().unwrap(), study.horizon());
            for window in [archive_era, study.config.window] {
                for &(origin, transit) in &patterns {
                    assert_eq!(
                        find_origin_via_transit(&study.bgp, origin, transit, window),
                        reference_sweep(&study.bgp, origin, transit, window),
                        "{world}: {origin} via {transit} in {window:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn three_signed_two_attacker_one_valid() {
        let fig = compute(testutil::study());
        // Scripted: 2 attacker-ROA + 1 RPKI-valid case + the 3 listed
        // pattern prefixes (unsigned) = signed_before has the case + 2.
        assert_eq!(fig.attacker_controlled.len(), 2);
        assert!(fig.case.is_some());
        assert!(fig.signed_before_listing.len() >= 3);
    }

    #[test]
    fn case_identity_matches_truth() {
        let fig = compute(testutil::study());
        let truth = &testutil::world().truth;
        let case = fig.case.as_ref().unwrap();
        assert_eq!(Some(case.prefix), truth.case_study_prefix);
        assert_eq!(Some(case.origin), truth.case_origin);
        assert_eq!(Some(case.transit), truth.case_transit);
    }

    #[test]
    fn pattern_sweep_finds_all_related_prefixes() {
        let fig = compute(testutil::study());
        let truth = &testutil::world().truth;
        let case = fig.case.as_ref().unwrap();
        let found: std::collections::BTreeSet<_> = case.pattern.iter().map(|r| r.prefix).collect();
        for p in &truth.case_pattern_prefixes {
            assert!(found.contains(p), "missing {p}");
        }
        // Four of them were listed on the scripted date.
        let listed = case.pattern.iter().filter(|r| r.listed.is_some()).count();
        assert_eq!(listed, 4);
    }

    #[test]
    fn case_prefix_reuses_historic_origin() {
        let fig = compute(testutil::study());
        let case = fig.case.as_ref().unwrap();
        let row = case
            .pattern
            .iter()
            .find(|r| r.prefix == case.prefix)
            .unwrap();
        assert!(row.origin_is_historic);
        assert!(row.rpki_signed);
        // Its timeline has a legitimate era, a gap, and the hijack era.
        assert!(row.segments.len() >= 3, "{:?}", row.segments);
        assert!(row.segments.iter().any(|s| s.is_unrouted()));
    }

    #[test]
    fn renders() {
        let fig = compute(testutil::study());
        let s = fig.to_string();
        assert!(s.contains("RPKI-valid hijack"));
        assert!(s.contains("pattern sweep"));
    }
}
