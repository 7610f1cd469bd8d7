//! Property-based tests: the interval archive must agree with a naive
//! replay model and with the stream-order replay it is built to equal,
//! on every query, and the collector simulation must honor its
//! contracts.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use droplens_bgp::{
    format as bgpfmt, AsPath, BgpArchive, BgpEvent, BgpUpdate, CollectorSim, Interval, Origination,
    Peer, PeerId,
};
use std::collections::{BTreeMap, BTreeSet};

use droplens_net::{Asn, Date, DateRange, Ipv4Prefix};
use proptest::prelude::*;

const EPOCH: i32 = 18_000; // ≈ 2019-04, arbitrary base day

fn day() -> impl Strategy<Value = Date> {
    (0i32..400).prop_map(|o| Date::from_days_since_epoch(EPOCH + o))
}

fn prefix() -> impl Strategy<Value = Ipv4Prefix> {
    // A handful of prefixes so updates collide on the same lanes.
    (0u32..6, 16u8..22).prop_map(|(i, len)| Ipv4Prefix::from_u32(0x0a00_0000 | (i << 20), len))
}

fn path() -> impl Strategy<Value = AsPath> {
    prop::collection::vec(1u32..100, 1..4)
        .prop_map(|hops| AsPath::new(hops.into_iter().map(Asn).collect()))
}

fn update() -> impl Strategy<Value = BgpUpdate> {
    (day(), 0u32..3, prefix(), prop::option::of(path())).prop_map(|(date, peer, prefix, p)| match p
    {
        Some(path) => BgpUpdate::announce(date, PeerId(peer), prefix, path),
        None => BgpUpdate::withdraw(date, PeerId(peer), prefix),
    })
}

fn peers() -> Vec<Peer> {
    (0..3u32)
        .map(|i| Peer::new(PeerId(i), Asn(1000 + i), format!("p{i}")))
        .collect()
}

/// Naive model: replay the stream up to `date` (inclusive, in stream
/// order) and report the last state of (prefix, peer).
fn model_observed(updates: &[BgpUpdate], prefix: &Ipv4Prefix, peer: PeerId, date: Date) -> bool {
    let mut up = false;
    for u in updates {
        if u.date > date {
            break;
        }
        if u.peer == peer && u.prefix == *prefix {
            up = matches!(u.event, BgpEvent::Announce(_));
        }
    }
    up
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn archive_matches_replay_model(mut updates in prop::collection::vec(update(), 0..60),
                                    probe in day()) {
        // The archive assumes stream order is chronological.
        updates.sort_by_key(|u| u.date);
        let archive = BgpArchive::from_updates(peers(), &updates);
        for peer in 0..3u32 {
            for prefix in updates.iter().map(|u| u.prefix).collect::<std::collections::BTreeSet<_>>() {
                let expected = model_observed(&updates, &prefix, PeerId(peer), probe);
                let got = archive.observed_by(&prefix, PeerId(peer), probe);
                prop_assert_eq!(got, expected, "{} peer{} at {}", prefix, peer, probe);
            }
        }
    }

    #[test]
    fn first_unobserved_is_sound_and_minimal(mut updates in prop::collection::vec(update(), 1..40),
                                             from in day()) {
        updates.sort_by_key(|u| u.date);
        let archive = BgpArchive::from_updates(peers(), &updates);
        for prefix in updates.iter().map(|u| u.prefix).collect::<std::collections::BTreeSet<_>>() {
            match archive.first_unobserved_after(&prefix, from) {
                Some(gone) => {
                    prop_assert!(gone >= from);
                    prop_assert_eq!(archive.peers_observing(&prefix, gone), 0);
                    // Minimality: scan every day in [from, gone).
                    let mut d = from;
                    while d < gone {
                        prop_assert!(
                            archive.peers_observing(&prefix, d) > 0,
                            "{} unobserved at {} before reported {}", prefix, d, gone
                        );
                        d = d.succ();
                    }
                }
                None => {
                    // Still observed at the end of the archive.
                    let last = archive.last_date().expect("non-empty");
                    prop_assert!(archive.peers_observing(&prefix, last.max(from)) > 0);
                }
            }
        }
    }

    #[test]
    fn update_lines_round_trip(mut updates in prop::collection::vec(update(), 0..40)) {
        updates.sort_by_key(|u| u.date);
        let text = bgpfmt::write_updates(&updates, &peers());
        let parsed = bgpfmt::parse_updates(&text).expect("own output parses");
        prop_assert_eq!(parsed, updates);
    }

    #[test]
    fn as_path_round_trip(p in path()) {
        let s = p.to_string();
        prop_assert_eq!(s.parse::<AsPath>().expect("parses"), p);
    }

    #[test]
    fn collector_sim_full_visibility_without_filters(
        start_off in 0i32..200, len in 1i32..200, transits in prop::collection::vec(1u32..100, 0..3)
    ) {
        let start = Date::from_days_since_epoch(EPOCH + start_off);
        let end = start + len;
        let horizon = Date::from_days_since_epoch(EPOCH + 500);
        let o = Origination {
            prefix: "10.0.0.0/16".parse().expect("prefix"),
            origin: Asn(64500),
            transits: transits.into_iter().map(Asn).collect(),
            start,
            end: Some(end),
        };
        let sim = CollectorSim::new(peers(), horizon);
        let updates = sim.updates_for(std::slice::from_ref(&o));
        let archive = BgpArchive::from_updates(peers(), &updates);
        // Every peer sees it exactly during [start, end).
        for peer in 0..3u32 {
            prop_assert!(archive.observed_by(&o.prefix, PeerId(peer), start));
            prop_assert!(archive.observed_by(&o.prefix, PeerId(peer), end.pred()));
            prop_assert!(!archive.observed_by(&o.prefix, PeerId(peer), start.pred()));
            prop_assert!(!archive.observed_by(&o.prefix, PeerId(peer), end));
            // And the observed path ends at the origin.
            let path = archive.path_at(&o.prefix, PeerId(peer), start).expect("announced");
            prop_assert_eq!(path.origin(), o.origin);
            prop_assert_eq!(path.first_hop(), peers()[peer as usize].asn);
        }
    }

    #[test]
    fn suppression_never_widens_visibility(
        start_off in 0i32..100, len in 30i32..200,
        win_off in 0i32..300, win_len in 1i32..100,
    ) {
        let start = Date::from_days_since_epoch(EPOCH + start_off);
        let end = start + len;
        let horizon = Date::from_days_since_epoch(EPOCH + 500);
        let prefix: Ipv4Prefix = "10.0.0.0/16".parse().expect("prefix");
        let o = Origination {
            prefix,
            origin: Asn(64500),
            transits: vec![Asn(3356)],
            start,
            end: Some(end),
        };
        let win_start = Date::from_days_since_epoch(EPOCH + win_off);
        let window = DateRange::new(win_start, win_start + win_len);

        let plain = CollectorSim::new(peers(), horizon);
        let mut filtered = CollectorSim::new(peers(), horizon);
        filtered.suppress(PeerId(0), prefix, window);

        let a_plain = BgpArchive::from_updates(peers(), &plain.updates_for(std::slice::from_ref(&o)));
        let a_filt = BgpArchive::from_updates(peers(), &filtered.updates_for(std::slice::from_ref(&o)));

        let mut d = start - 5;
        while d < end + 5 {
            let plain_sees = a_plain.observed_by(&prefix, PeerId(0), d);
            let filt_sees = a_filt.observed_by(&prefix, PeerId(0), d);
            // Filtering can only remove visibility, never add it; and it
            // removes exactly the suppressed window.
            prop_assert!(!filt_sees || plain_sees, "widened at {d}");
            if plain_sees {
                prop_assert_eq!(filt_sees, !window.contains(d), "at {}", d);
            }
            // Peer 1 is untouched.
            prop_assert_eq!(
                a_plain.observed_by(&prefix, PeerId(1), d),
                a_filt.observed_by(&prefix, PeerId(1), d)
            );
            d = d.succ();
        }
    }
}

/// One lane interval of the stream-order replay, with its path by value.
type RefInterval = (Date, Option<Date>, AsPath);

/// The stream-order replay: every update, in order, extends, splits or
/// closes its (prefix, peer) lane's open interval. This is the update-
/// by-update loop the lane-by-lane archive build replaced, kept here as
/// the reference it must agree with.
#[derive(Default)]
struct Replay {
    lanes: BTreeMap<Ipv4Prefix, BTreeMap<PeerId, Vec<RefInterval>>>,
}

impl Replay {
    fn new(updates: &[BgpUpdate]) -> Replay {
        let mut replay = Replay::default();
        for u in updates {
            let lane = replay
                .lanes
                .entry(u.prefix)
                .or_default()
                .entry(u.peer)
                .or_default();
            let open = lane.last_mut().filter(|iv| iv.1.is_none());
            match &u.event {
                BgpEvent::Announce(path) => {
                    if let Some(open) = open {
                        if open.2 == *path {
                            continue; // duplicate announcement
                        }
                        open.1 = Some(u.date);
                    }
                    lane.push((u.date, None, path.clone()));
                }
                BgpEvent::Withdraw => {
                    if let Some(open) = open {
                        open.1 = Some(u.date);
                    }
                }
            }
        }
        replay
    }

    fn lane(&self, prefix: &Ipv4Prefix, peer: PeerId) -> &[RefInterval] {
        self.lanes
            .get(prefix)
            .and_then(|lanes| lanes.get(&peer))
            .map_or(&[], Vec::as_slice)
    }

    fn contains(iv: &RefInterval, date: Date) -> bool {
        date >= iv.0 && iv.1.is_none_or(|end| date < end)
    }

    fn path_at(&self, prefix: &Ipv4Prefix, peer: PeerId, date: Date) -> Option<&AsPath> {
        let lane = self.lane(prefix, peer);
        let idx = lane.partition_point(|iv| iv.0 <= date);
        lane[..idx]
            .last()
            .filter(|iv| Self::contains(iv, date))
            .map(|iv| &iv.2)
    }

    fn peers_observing(&self, prefix: &Ipv4Prefix, date: Date) -> usize {
        self.lanes.get(prefix).map_or(0, |lanes| {
            lanes
                .keys()
                .filter(|&&peer| self.path_at(prefix, peer, date).is_some())
                .count()
        })
    }

    fn observed_any(&self, prefix: &Ipv4Prefix, date: Date) -> bool {
        self.lanes
            .get(prefix)
            .is_some_and(|lanes| lanes.values().flatten().any(|iv| Self::contains(iv, date)))
    }

    fn routed_at(&self, prefix: &Ipv4Prefix, date: Date) -> bool {
        self.lanes
            .keys()
            .filter(|p| prefix.covers(p))
            .any(|p| self.observed_any(p, date))
    }

    /// Sibling-consensus zombie repair, as `BgpArchive::repair_zombie_routes`
    /// documents it.
    fn repair_zombie_routes(&mut self) -> usize {
        let mut repaired = 0;
        for lanes in self.lanes.values_mut() {
            let open: Vec<PeerId> = lanes
                .iter()
                .filter(|(_, lane)| lane.last().is_some_and(|iv| iv.1.is_none()))
                .map(|(&peer, _)| peer)
                .collect();
            let closes: Vec<Date> = lanes
                .values()
                .filter_map(|lane| lane.last().and_then(|iv| iv.1))
                .collect();
            let (&[peer], Some(&close_at)) = (open.as_slice(), closes.iter().max()) else {
                continue;
            };
            if closes.len() < 2 {
                continue;
            }
            let iv = lanes
                .get_mut(&peer)
                .and_then(|lane| lane.last_mut())
                .expect("open lane");
            if iv.0 <= close_at {
                iv.1 = Some(close_at);
                repaired += 1;
            }
        }
        repaired
    }
}

/// Few prefixes (two nested in a third), few peers and few paths, so
/// lanes collide: duplicate announcements and A→B→A flaps are common.
const PREFIXES: [&str; 4] = ["10.0.0.0/16", "10.0.0.0/24", "10.0.1.0/24", "10.1.0.0/16"];
const PATHS: [&str; 3] = ["1 2", "3 2", "1 4"];
/// Sees only withdraws, so its record exists but every lane is empty.
const WITHDRAWN_ONLY: &str = "10.9.0.0/16";

fn lane_update() -> impl Strategy<Value = BgpUpdate> {
    (
        0i32..16,
        0u32..4,
        0usize..PREFIXES.len(),
        prop::option::of(0usize..PATHS.len()),
    )
        .prop_map(|(day, peer, prefix, path)| {
            let date = Date::from_days_since_epoch(EPOCH + day);
            let prefix: Ipv4Prefix = PREFIXES[prefix].parse().expect("prefix");
            match path {
                Some(i) => {
                    BgpUpdate::announce(date, PeerId(peer), prefix, PATHS[i].parse().expect("path"))
                }
                None => BgpUpdate::withdraw(date, PeerId(peer), prefix),
            }
        })
}

fn withdraw_only() -> impl Strategy<Value = BgpUpdate> {
    (0i32..16, 0u32..4).prop_map(|(day, peer)| {
        let prefix: Ipv4Prefix = WITHDRAWN_ONLY.parse().expect("prefix");
        BgpUpdate::withdraw(
            Date::from_days_since_epoch(EPOCH + day),
            PeerId(peer),
            prefix,
        )
    })
}

/// Every answer the archive gives about lanes, against the replay.
fn assert_matches_replay(archive: &BgpArchive, replay: &Replay) -> Result<(), TestCaseError> {
    let prefixes: Vec<Ipv4Prefix> = archive.prefixes().collect();
    prop_assert_eq!(&prefixes, &replay.lanes.keys().copied().collect::<Vec<_>>());
    let mut queries = prefixes.clone();
    for extra in ["10.0.0.0/8", "10.0.0.0/23", "10.0.0.128/25", "11.0.0.0/8"] {
        queries.push(extra.parse().expect("prefix"));
    }
    // The lane walk yields every archived prefix once, in address order,
    // and each peer's lane exactly as `intervals` answers it.
    let walked: Vec<Ipv4Prefix> = archive.lanes().map(|(prefix, _)| prefix).collect();
    prop_assert_eq!(&walked, &prefixes);
    for (prefix, lanes) in archive.lanes() {
        let by_peer: BTreeMap<PeerId, &[Interval]> = lanes.iter().collect();
        prop_assert_eq!(
            by_peer.keys().copied().collect::<Vec<_>>(),
            replay.lanes[&prefix].keys().copied().collect::<Vec<_>>()
        );
        for peer in (0..4).chain([7]).map(PeerId) {
            let lane = by_peer.get(&peer).copied().unwrap_or(&[]);
            prop_assert_eq!(
                lane,
                archive.intervals(&prefix, peer),
                "{} {}",
                prefix,
                peer
            );
        }
        for day in -1..17 {
            let date = Date::from_days_since_epoch(EPOCH + day);
            for (peer, iv) in lanes.at(date) {
                prop_assert_eq!(
                    Some(archive.path_of(iv.path)),
                    replay.path_at(&prefix, peer, date)
                );
            }
            prop_assert_eq!(
                lanes.at(date).count(),
                replay.peers_observing(&prefix, date)
            );
        }
    }
    for prefix in &queries {
        let routed = archive.routed_spans(prefix);
        for peer in (0..4).chain([7]).map(PeerId) {
            let got: Vec<RefInterval> = archive
                .intervals(prefix, peer)
                .iter()
                .map(|iv| (iv.start, iv.end, archive.path_of(iv.path).clone()))
                .collect();
            prop_assert_eq!(&got[..], replay.lane(prefix, peer), "{} {}", prefix, peer);
            // The path a peer held on a day: gone once it withdrew, and
            // never another peer's.
            for day in -1..17 {
                let date = Date::from_days_since_epoch(EPOCH + day);
                prop_assert_eq!(
                    archive.path_at(prefix, peer, date),
                    replay.path_at(prefix, peer, date),
                    "{} {} on {}",
                    prefix,
                    peer,
                    date
                );
            }
        }
        for day in -1..17 {
            let date = Date::from_days_since_epoch(EPOCH + day);
            prop_assert_eq!(
                archive.peers_observing(prefix, date),
                replay.peers_observing(prefix, date),
                "{} on {}",
                prefix,
                date
            );
            prop_assert_eq!(
                archive.observed_any(prefix, date),
                replay.observed_any(prefix, date)
            );
            prop_assert_eq!(
                archive.routed_at(prefix, date),
                replay.routed_at(prefix, date)
            );
            // One walk of the covered subtree answers every date the same.
            prop_assert_eq!(
                routed.contains(date),
                replay.routed_at(prefix, date),
                "{} routed on {}",
                prefix,
                date
            );
            let origins: BTreeSet<Asn> = (0..4)
                .chain([7])
                .filter_map(|peer| replay.path_at(prefix, PeerId(peer), date))
                .map(AsPath::origin)
                .collect();
            prop_assert_eq!(
                archive.origins_at(prefix, date),
                origins,
                "{} on {}",
                prefix,
                date
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn archive_equals_stream_order_replay(
        lanes in prop::collection::vec(lane_update(), 0..60),
        withdraws in prop::collection::vec(withdraw_only(), 0..3),
    ) {
        let mut updates = lanes;
        updates.extend(withdraws);
        // Chronological, as collectors record; same-day updates keep
        // their stream order.
        updates.sort_by_key(|u| u.date);
        let mut archive = BgpArchive::from_updates(peers(), &updates);
        let mut replay = Replay::new(&updates);
        prop_assert_eq!(archive.first_date(), updates.iter().map(|u| u.date).min());
        prop_assert_eq!(archive.last_date(), updates.iter().map(|u| u.date).max());
        assert_matches_replay(&archive, &replay)?;
        prop_assert_eq!(archive.repair_zombie_routes(), replay.repair_zombie_routes());
        assert_matches_replay(&archive, &replay)?;
    }
}
