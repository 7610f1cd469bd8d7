//! Origin history segments and the Figure 4 hijack-pattern search.
//!
//! Figure 4 of the paper reconstructs, for each prefix in the case study,
//! the timeline of *who originated it through whom*. The hijacker's
//! signature was: originate with the prefix's **historic** origin ASN
//! (AS263692) while routing through a suspicious transit (AS50509). This
//! module extracts per-prefix origin/transit segments from a
//! [`BgpArchive`] and searches the archive for other prefixes matching the
//! same `(origin, via-transit)` pattern.

use std::collections::BTreeSet;

use droplens_net::{Asn, Date, DateRange, Ipv4Prefix};

use crate::{BgpArchive, PeerId};

/// A period during which the consensus view of a prefix's routing was
/// stable: the same set of origins and the same set of transit ASes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginSegment {
    /// The period, half-open.
    pub range: DateRange,
    /// Origin ASNs observed by any peer during the segment.
    pub origins: BTreeSet<Asn>,
    /// Non-origin, non-peer ASes on observed paths (the transit chain).
    pub transits: BTreeSet<Asn>,
}

impl OriginSegment {
    /// True if the prefix was unannounced during this segment.
    pub fn is_unrouted(&self) -> bool {
        self.origins.is_empty()
    }
}

/// Extract the origin/transit segments of `prefix` over `window`.
///
/// Boundaries occur only where some peer's interval starts or ends, so the
/// result is a compact piecewise-constant description of the plotted rows
/// in Figure 4.
pub fn origin_segments(
    archive: &BgpArchive,
    prefix: &Ipv4Prefix,
    window: DateRange,
) -> Vec<OriginSegment> {
    if window.is_empty() {
        return Vec::new();
    }
    // Collect boundary dates within the window.
    let mut bounds: BTreeSet<Date> = BTreeSet::new();
    bounds.insert(window.start());
    bounds.insert(window.end());
    for peer in archive.peers() {
        for iv in archive.intervals(prefix, peer.id) {
            if window.contains(iv.start) {
                bounds.insert(iv.start);
            }
            if let Some(end) = iv.end {
                if window.contains(end) {
                    bounds.insert(end);
                }
            }
        }
    }
    let bounds: Vec<Date> = bounds.into_iter().collect();
    let mut segments: Vec<OriginSegment> = Vec::new();
    for pair in bounds.windows(2) {
        let (start, end) = (pair[0], pair[1]);
        let snapshot = view_at(archive, prefix, start);
        match segments.last_mut() {
            Some(last) if last.origins == snapshot.0 && last.transits == snapshot.1 => {
                // Extend the previous segment.
                *last = OriginSegment {
                    range: DateRange::new(last.range.start(), end),
                    origins: last.origins.clone(),
                    transits: last.transits.clone(),
                };
            }
            _ => segments.push(OriginSegment {
                range: DateRange::new(start, end),
                origins: snapshot.0,
                transits: snapshot.1,
            }),
        }
    }
    segments
}

/// The (origins, transits) any peer observed for `prefix` on `date`.
fn view_at(
    archive: &BgpArchive,
    prefix: &Ipv4Prefix,
    date: Date,
) -> (BTreeSet<Asn>, BTreeSet<Asn>) {
    let mut origins = BTreeSet::new();
    let mut transits = BTreeSet::new();
    for peer in archive.peers() {
        if let Some(path) = archive.path_at(prefix, peer.id, date) {
            let origin = path.origin();
            origins.insert(origin);
            // Transit = every hop that is neither the origin nor the
            // observing peer itself (paths may or may not start with the
            // peer's own ASN depending on the collector's export config).
            for &hop in path.hops() {
                if hop != origin && hop != peer.asn {
                    transits.insert(hop);
                }
            }
        }
    }
    (origins, transits)
}

/// A prefix matching the Figure 4 hijack pattern, with the first day the
/// pattern was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternMatch {
    /// The matching prefix.
    pub prefix: Ipv4Prefix,
    /// First day `origin` was observed via `transit` in the window.
    pub first_seen: Date,
    /// True if the matched origin had originated the prefix before the
    /// window (i.e. the announcement *reuses a historic origin*).
    pub origin_is_historic: bool,
}

/// Search the archive for prefixes originated by `origin` while routed
/// through `transit` at any point in `window` — the "originated by
/// AS263692 and routed via AS50509" sweep of §6.1. One walk over every
/// prefix's lanes; only the lanes of the archive's own peers count.
pub fn find_origin_via_transit(
    archive: &BgpArchive,
    origin: Asn,
    transit: Asn,
    window: DateRange,
) -> Vec<PatternMatch> {
    let peers: BTreeSet<PeerId> = archive.peers().iter().map(|p| p.id).collect();
    let mut out = Vec::new();
    for (prefix, lanes) in archive.lanes() {
        let mut first_seen: Option<Date> = None;
        for (peer, lane) in lanes.iter() {
            for iv in lane {
                let path = archive.path_of(iv.path);
                if path.origin() != origin || !path.contains(transit) || !peers.contains(&peer) {
                    continue;
                }
                // Clamp the interval into the window.
                let seg_start = iv.start.max(window.start());
                let seg_end = iv.end.unwrap_or(window.end()).min(window.end());
                if seg_start >= seg_end {
                    continue;
                }
                first_seen = Some(first_seen.map_or(seg_start, |d| d.min(seg_start)));
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

/// Days the prefix had been continuously unrouted immediately before
/// `date` (`None` if it was routed the day before, or was never routed
/// before `date` at all — use [`BgpArchive::first_announced`] to
/// distinguish). Used for the "no origination for 15 yrs" annotations.
pub fn unrouted_gap_before(
    archive: &BgpArchive,
    prefix: &Ipv4Prefix,
    peer_scope: &[PeerId],
    date: Date,
) -> Option<i32> {
    // Find the latest interval end before `date` across peers in scope.
    let mut latest_end: Option<Date> = None;
    let mut any_before = false;
    for &peer in peer_scope {
        for iv in archive.intervals(prefix, peer) {
            if iv.start < date {
                any_before = true;
            }
            if iv.contains(date.pred()) {
                return None; // routed right before `date`
            }
            if let Some(end) = iv.end {
                if end <= date {
                    latest_end = Some(latest_end.map_or(end, |d| d.max(end)));
                }
            }
        }
    }
    if !any_before {
        return None;
    }
    latest_end.map(|end| date - end)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use crate::{BgpUpdate, Peer};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    fn build_case_study() -> BgpArchive {
        // Reconstructs the 132.255.0.0/22 story: legitimate origination via
        // AS21575 until 2020-07, then hijacked via AS50509/AS34665 with the
        // historic origin from 2020-12.
        let peers = vec![
            Peer::new(PeerId(0), Asn(3356), "p0"),
            Peer::new(PeerId(1), Asn(7018), "p1"),
        ];
        let pfx = p("132.255.0.0/22");
        let other = p("187.19.64.0/20");
        let mut updates = Vec::new();
        for peer in [PeerId(0), PeerId(1)] {
            updates.push(BgpUpdate::announce(
                d("2019-01-01"),
                peer,
                pfx,
                "21575 263692".parse().unwrap(),
            ));
            updates.push(BgpUpdate::withdraw(d("2020-07-01"), peer, pfx));
            updates.push(BgpUpdate::announce(
                d("2020-12-01"),
                peer,
                pfx,
                "50509 34665 263692".parse().unwrap(),
            ));
            // A second prefix hijacked with the same pattern in June 2021,
            // never originated by 263692 before.
            updates.push(BgpUpdate::announce(
                d("2021-06-01"),
                peer,
                other,
                "50509 34665 263692".parse().unwrap(),
            ));
        }
        updates.sort_by_key(|u| u.date);
        BgpArchive::from_updates(peers, &updates)
    }

    #[test]
    fn segments_capture_the_three_phases() {
        let a = build_case_study();
        let window = DateRange::new(d("2019-01-01"), d("2022-04-01"));
        let segs = origin_segments(&a, &p("132.255.0.0/22"), window);
        assert_eq!(segs.len(), 3);
        assert_eq!(
            segs[0].origins,
            [Asn(263692)].into_iter().collect::<BTreeSet<_>>()
        );
        assert!(segs[0].transits.contains(&Asn(21575)));
        assert!(segs[1].is_unrouted());
        assert_eq!(
            segs[1].range,
            DateRange::new(d("2020-07-01"), d("2020-12-01"))
        );
        assert!(segs[2].transits.contains(&Asn(50509)));
        assert!(segs[2].transits.contains(&Asn(34665)));
        assert!(!segs[2].transits.contains(&Asn(263692)));
        // Segments tile the window.
        assert_eq!(segs[0].range.start(), window.start());
        assert_eq!(segs.last().unwrap().range.end(), window.end());
    }

    #[test]
    fn segments_empty_window() {
        let a = build_case_study();
        let r = DateRange::new(d("2020-01-01"), d("2020-01-01"));
        assert!(origin_segments(&a, &p("132.255.0.0/22"), r).is_empty());
    }

    #[test]
    fn segments_for_unknown_prefix_are_unrouted() {
        let a = build_case_study();
        let window = DateRange::new(d("2019-01-01"), d("2019-02-01"));
        let segs = origin_segments(&a, &p("1.2.3.0/24"), window);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].is_unrouted());
    }

    #[test]
    fn pattern_search_finds_both_hijacked_prefixes() {
        let a = build_case_study();
        let window = DateRange::new(d("2020-01-01"), d("2022-04-01"));
        let matches = find_origin_via_transit(&a, Asn(263692), Asn(50509), window);
        assert_eq!(matches.len(), 2);
        let by_prefix: std::collections::BTreeMap<_, _> =
            matches.iter().map(|m| (m.prefix, m)).collect();
        let m1 = by_prefix[&p("132.255.0.0/22")];
        assert_eq!(m1.first_seen, d("2020-12-01"));
        assert!(m1.origin_is_historic, "AS263692 originated it in 2019");
        let m2 = by_prefix[&p("187.19.64.0/20")];
        assert_eq!(m2.first_seen, d("2021-06-01"));
        assert!(!m2.origin_is_historic);
    }

    #[test]
    fn pattern_search_ignores_lanes_of_unknown_peers() {
        let pfx = p("10.0.0.0/24");
        let known = [Peer::new(PeerId(0), Asn(3356), "p0")];
        // Only a peer the collector does not list carries the pattern.
        let updates = vec![
            BgpUpdate::announce(
                d("2021-01-01"),
                PeerId(0),
                pfx,
                "3356 64500".parse().unwrap(),
            ),
            BgpUpdate::announce(
                d("2021-01-01"),
                PeerId(9),
                pfx,
                "50509 263692".parse().unwrap(),
            ),
        ];
        let a = BgpArchive::from_updates(known.to_vec(), &updates);
        let window = DateRange::new(d("2020-01-01"), d("2022-01-01"));
        assert!(find_origin_via_transit(&a, Asn(263692), Asn(50509), window).is_empty());
        assert_eq!(
            find_origin_via_transit(&a, Asn(64500), Asn(3356), window).len(),
            1
        );
    }

    #[test]
    fn pattern_search_respects_window() {
        let a = build_case_study();
        // Window before the hijack: the legitimate era does not match the
        // 50509 transit pattern.
        let window = DateRange::new(d("2019-01-01"), d("2020-06-01"));
        let matches = find_origin_via_transit(&a, Asn(263692), Asn(50509), window);
        assert!(matches.is_empty());
        // Legitimate transit matches its own pattern.
        let matches = find_origin_via_transit(&a, Asn(263692), Asn(21575), window);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn unrouted_gap() {
        let a = build_case_study();
        let scope: Vec<PeerId> = a.peers().iter().map(|p| p.id).collect();
        let gap = unrouted_gap_before(&a, &p("132.255.0.0/22"), &scope, d("2020-12-01"));
        assert_eq!(gap, Some(d("2020-12-01") - d("2020-07-01")));
        // Routed the day before: no gap.
        assert_eq!(
            unrouted_gap_before(&a, &p("132.255.0.0/22"), &scope, d("2020-06-01")),
            None
        );
        // Never routed before the date: no gap to report.
        assert_eq!(
            unrouted_gap_before(&a, &p("187.19.64.0/20"), &scope, d("2021-06-01")),
            None
        );
    }
}
