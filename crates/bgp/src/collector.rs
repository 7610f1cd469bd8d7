//! Collector simulation: turning origination intervals into per-peer
//! update streams.
//!
//! The synthetic world describes routing intent as [`Origination`]s — "AS X
//! originated prefix P via transit chain T from day A to day B". A
//! [`CollectorSim`] expands those into the per-peer announce/withdraw
//! streams a route collector would record, applying per-peer suppression
//! windows to model peers that filter routes (the three DROP-filtering
//! RouteViews peers of Figure 2).

use std::collections::BTreeMap;

use droplens_net::{Asn, Date, DateRange, Ipv4Prefix};

use crate::{AsPath, BgpUpdate, Peer, PeerId};

/// A period during which an AS originated a prefix through a transit chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Origination {
    /// The prefix announced.
    pub prefix: Ipv4Prefix,
    /// The origin AS (rightmost in every observed path).
    pub origin: Asn,
    /// Transit ASes between the collector peers and the origin, ordered
    /// nearest-peer first. E.g. `[50509, 34665]` yields observed paths
    /// `<peer> 50509 34665 <origin>`.
    pub transits: Vec<Asn>,
    /// First day of announcement.
    pub start: Date,
    /// Day of withdrawal; `None` if still announced at the end of study.
    pub end: Option<Date>,
}

impl Origination {
    /// The interval as announced, unsuppressed.
    pub fn active(&self, date: Date) -> bool {
        date >= self.start && self.end.is_none_or(|e| date < e)
    }

    /// The path a given peer observes for this origination.
    pub fn path_for(&self, peer: &Peer) -> AsPath {
        AsPath::through(peer.asn, &self.transits, self.origin)
    }
}

/// What a peer does with routes for a given prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterPolicy {
    /// Carry every route (the normal full-table peer).
    None,
    /// Suppress routes for specific prefixes during specific windows.
    /// Used to model peers that filter the DROP list: each listed prefix
    /// contributes a suppression window covering its listed period.
    Suppress(Vec<(Ipv4Prefix, DateRange)>),
}

impl FilterPolicy {
    /// The suppression windows keyed by filtered prefix, or `None` for a
    /// peer that carries every route.
    fn index(&self) -> Option<WindowIndex> {
        let FilterPolicy::Suppress(windows) = self else {
            return None;
        };
        let mut index = WindowIndex::default();
        for &(prefix, window) in windows {
            index.windows.entry(prefix).or_default().push(window);
            index.lengths |= 1 << prefix.len();
        }
        Some(index)
    }
}

/// One peer's suppression windows grouped by filtered prefix, each
/// prefix's windows in the order they were added.
#[derive(Debug, Default)]
struct WindowIndex {
    windows: BTreeMap<Ipv4Prefix, Vec<DateRange>>,
    /// Bit `l` is set when some filtered prefix is `/l` long.
    lengths: u64,
}

impl WindowIndex {
    /// The windows that apply to a route for `prefix`: those of the
    /// prefix itself and of every filtered prefix covering it, as a
    /// prefix-list filter applies to more specific routes too.
    fn covering<'a>(&'a self, prefix: &Ipv4Prefix) -> impl Iterator<Item = &'a DateRange> + 'a {
        let prefix = *prefix;
        (0..=prefix.len())
            .filter(move |len| self.lengths & (1 << len) != 0)
            .filter_map(move |len| self.windows.get(&prefix.truncate(len)))
            .flatten()
    }
}

/// Call `piece` with each portion of `o`'s interval during which a peer
/// filtering with `windows` carries its route, in date order: the
/// interval minus every window of a prefix covering `o.prefix`, `None`
/// ending a portion that lasts past the horizon. Removing windows from
/// an interval leaves the same pieces in any order, so the windows'
/// order does not matter.
fn carried_intervals(
    windows: Option<&WindowIndex>,
    o: &Origination,
    horizon: Date,
    mut piece: impl FnMut(Date, Option<Date>),
) {
    let (start, end) = (o.start, o.end);
    let effective_end = end.unwrap_or(horizon + 1);
    let mut covering = windows
        .into_iter()
        .flat_map(|w| w.covering(&o.prefix))
        .peekable();
    if covering.peek().is_none() {
        // The common case, an unfiltered route: no piece list to build.
        if effective_end > start {
            piece(start, end);
        }
        return;
    }
    let mut pieces = vec![(start, effective_end)];
    for wr in covering {
        let mut next = Vec::with_capacity(pieces.len() + 1);
        for (s, e) in pieces {
            // Remove [wr.start, wr.end) from [s, e)
            if wr.end() <= s || wr.start() >= e {
                next.push((s, e));
                continue;
            }
            if wr.start() > s {
                next.push((s, wr.start()));
            }
            if wr.end() < e {
                next.push((wr.end(), e));
            }
        }
        pieces = next;
    }
    for (s, e) in pieces {
        if e > s {
            piece(s, (end.is_some() || e != effective_end).then_some(e));
        }
    }
}

/// The order of the update stream: date, peer, prefix, withdrawals
/// before announcements. Updates equal in it keep their expansion order.
fn stream_key(u: &BgpUpdate) -> (Date, PeerId, Ipv4Prefix, bool) {
    (u.date, u.peer, u.prefix, u.event.is_announce())
}

/// Merge runs each sorted by [`stream_key`] into one stream of exactly
/// their total length, adjacent runs pairwise. On equal keys an earlier
/// run's updates come first, so merging the stably sorted runs of a cut
/// expansion equals stably sorting the whole expansion.
fn merge_runs(mut runs: Vec<Vec<BgpUpdate>>) -> Vec<BgpUpdate> {
    while runs.len() > 1 {
        let mut pairs = runs.into_iter();
        runs = Vec::with_capacity(pairs.len().div_ceil(2));
        while let Some(left) = pairs.next() {
            runs.push(match pairs.next() {
                Some(right) => merge_two(left, right),
                None => left,
            });
        }
    }
    let mut out = runs.pop().unwrap_or_default();
    out.shrink_to_fit();
    out
}

/// Merge two sorted runs, `left`'s updates first on equal keys.
fn merge_two(left: Vec<BgpUpdate>, right: Vec<BgpUpdate>) -> Vec<BgpUpdate> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut left = left.into_iter().peekable();
    let mut right = right.into_iter().peekable();
    while let (Some(l), Some(r)) = (left.peek(), right.peek()) {
        let next = if stream_key(r) < stream_key(l) {
            right.next()
        } else {
            left.next()
        };
        out.extend(next);
    }
    out.extend(left);
    out.extend(right);
    out
}

/// Expands originations into dated per-peer update streams.
pub struct CollectorSim {
    peers: Vec<Peer>,
    policies: Vec<FilterPolicy>,
    /// One day past the last date the simulation models; open-ended
    /// originations are treated as lasting through this day.
    horizon: Date,
}

impl CollectorSim {
    /// Create a simulator for `peers`, all initially unfiltered, with the
    /// given simulation `horizon` (last modeled day).
    pub fn new(peers: Vec<Peer>, horizon: Date) -> CollectorSim {
        let policies = vec![FilterPolicy::None; peers.len()];
        CollectorSim {
            peers,
            policies,
            horizon,
        }
    }

    /// The peer table.
    pub fn peers(&self) -> &[Peer] {
        &self.peers
    }

    /// Replace one peer's filter policy.
    pub fn set_policy(&mut self, peer: PeerId, policy: FilterPolicy) {
        self.policies[peer.index()] = policy;
    }

    /// Add one suppression window to a peer (converting a `None` policy).
    pub fn suppress(&mut self, peer: PeerId, prefix: Ipv4Prefix, window: DateRange) {
        let slot = &mut self.policies[peer.index()];
        match slot {
            FilterPolicy::Suppress(windows) => windows.push((prefix, window)),
            FilterPolicy::None => *slot = FilterPolicy::Suppress(vec![(prefix, window)]),
        }
    }

    /// Expand `originations` into a chronologically sorted update stream.
    /// The originations are cut into one contiguous run per worker; each
    /// worker expands and stably sorts its run, and the sorted runs are
    /// merged, earlier runs first on ties: the stream is the same at any
    /// worker count.
    pub fn updates_for(&self, originations: &[Origination]) -> Vec<BgpUpdate> {
        self.updates_on(droplens_par::max_threads(), originations)
    }

    /// [`CollectorSim::updates_for`] on `workers` runs.
    fn updates_on(&self, workers: usize, originations: &[Origination]) -> Vec<BgpUpdate> {
        self.expand(workers, originations, || {
            |o: &Origination, peer: &Peer| Some(o.path_for(peer))
        })
    }

    /// Like [`CollectorSim::updates_for`], but per-peer paths come from
    /// Gao–Rexford propagation over `graph` instead of the origination's
    /// flat transit chain: each peer observes the route its own AS
    /// selects, and peers whose AS receives no policy-compliant route
    /// simply never see the prefix. The origination's `transits` field is
    /// ignored; its prefix and timing still apply.
    pub fn updates_for_with_topology(
        &self,
        graph: &crate::topology::AsGraph,
        originations: &[Origination],
    ) -> Vec<BgpUpdate> {
        self.expand(droplens_par::max_threads(), originations, || {
            // Propagation depends only on the origin AS; each run caches
            // it per origin.
            let mut routes: BTreeMap<Asn, BTreeMap<Asn, crate::topology::SelectedRoute>> =
                BTreeMap::new();
            move |o: &Origination, peer: &Peer| {
                let table = routes
                    .entry(o.origin)
                    .or_insert_with(|| graph.propagate(o.origin));
                table.get(&peer.asn).map(|r| r.path.clone())
            }
        })
    }

    /// Expand `originations` on `workers` runs. `paths` makes each run's
    /// path function: the path a peer observes for an origination, or
    /// `None` when the peer never receives the route.
    fn expand<P>(
        &self,
        workers: usize,
        originations: &[Origination],
        paths: impl Fn() -> P + Sync,
    ) -> Vec<BgpUpdate>
    where
        P: FnMut(&Origination, &Peer) -> Option<AsPath>,
    {
        let windows: Vec<Option<WindowIndex>> =
            self.policies.iter().map(FilterPolicy::index).collect();
        let run = originations.len().div_ceil(workers.max(1)).max(1);
        let runs: Vec<&[Origination]> = originations.chunks(run).collect();
        let sorted = droplens_par::par_map_with(workers, &runs, |run| {
            let mut path_for = paths();
            let mut out = Vec::new();
            for o in *run {
                for (peer, windows) in self.peers.iter().zip(&windows) {
                    let Some(path) = path_for(o, peer) else {
                        continue; // this vantage point never receives the route
                    };
                    carried_intervals(windows.as_ref(), o, self.horizon, |s, e| {
                        out.push(BgpUpdate::announce(s, peer.id, o.prefix, path.clone()));
                        if let Some(e) = e {
                            out.push(BgpUpdate::withdraw(e, peer.id, o.prefix));
                        }
                    });
                }
            }
            out.sort_by_key(stream_key);
            out
        });
        merge_runs(sorted)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use crate::BgpArchive;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    fn peers() -> Vec<Peer> {
        vec![
            Peer::new(PeerId(0), Asn(3356), "p0"),
            Peer::new(PeerId(1), Asn(7018), "p1"),
        ]
    }

    fn orig() -> Origination {
        Origination {
            prefix: p("132.255.0.0/22"),
            origin: Asn(263692),
            transits: vec![Asn(50509), Asn(34665)],
            start: d("2020-12-01"),
            end: Some(d("2021-06-01")),
        }
    }

    #[test]
    fn path_for_includes_peer_transits_origin() {
        let o = orig();
        let path = o.path_for(&peers()[0]);
        assert_eq!(path.to_string(), "3356 50509 34665 263692");
        assert_eq!(path.origin(), Asn(263692));
        assert_eq!(path.upstream_of_origin(), Some(Asn(34665)));
    }

    #[test]
    fn active_window() {
        let o = orig();
        assert!(!o.active(d("2020-11-30")));
        assert!(o.active(d("2020-12-01")));
        assert!(o.active(d("2021-05-31")));
        assert!(!o.active(d("2021-06-01")));
    }

    #[test]
    fn unfiltered_expansion() {
        let sim = CollectorSim::new(peers(), d("2022-03-30"));
        let updates = sim.updates_for(&[orig()]);
        // 2 peers × (announce + withdraw)
        assert_eq!(updates.len(), 4);
        let a = BgpArchive::from_updates(sim.peers().to_vec(), &updates);
        assert_eq!(a.peers_observing(&p("132.255.0.0/22"), d("2021-01-01")), 2);
        assert_eq!(a.peers_observing(&p("132.255.0.0/22"), d("2021-07-01")), 0);
    }

    #[test]
    fn open_ended_origination_has_no_withdraw() {
        let sim = CollectorSim::new(peers(), d("2022-03-30"));
        let mut o = orig();
        o.end = None;
        let updates = sim.updates_for(&[o]);
        assert_eq!(updates.len(), 2);
        assert!(updates.iter().all(|u| u.event.is_announce()));
    }

    #[test]
    fn suppression_carves_window() {
        let mut sim = CollectorSim::new(peers(), d("2022-03-30"));
        // Peer 1 filters the prefix while "listed" Feb..Apr 2021.
        sim.suppress(
            PeerId(1),
            p("132.255.0.0/22"),
            DateRange::new(d("2021-02-01"), d("2021-04-01")),
        );
        let updates = sim.updates_for(&[orig()]);
        let a = BgpArchive::from_updates(sim.peers().to_vec(), &updates);
        let pfx = p("132.255.0.0/22");
        assert!(a.observed_by(&pfx, PeerId(1), d("2021-01-15")));
        assert!(!a.observed_by(&pfx, PeerId(1), d("2021-03-01")));
        assert!(a.observed_by(&pfx, PeerId(1), d("2021-04-15")));
        // Unfiltered peer unaffected.
        assert!(a.observed_by(&pfx, PeerId(0), d("2021-03-01")));
    }

    #[test]
    fn suppression_covering_whole_interval_removes_route() {
        let mut sim = CollectorSim::new(peers(), d("2022-03-30"));
        sim.suppress(
            PeerId(0),
            p("132.255.0.0/22"),
            DateRange::new(d("2020-01-01"), d("2022-01-01")),
        );
        let updates = sim.updates_for(&[orig()]);
        let a = BgpArchive::from_updates(sim.peers().to_vec(), &updates);
        assert!(!a.ever_observed_by(&p("132.255.0.0/22"), PeerId(0)));
        assert!(a.ever_observed_by(&p("132.255.0.0/22"), PeerId(1)));
    }

    #[test]
    fn suppression_of_covering_prefix_filters_more_specific() {
        let mut sim = CollectorSim::new(peers(), d("2022-03-30"));
        sim.suppress(
            PeerId(0),
            p("132.255.0.0/16"),
            DateRange::new(d("2020-01-01"), d("2022-01-01")),
        );
        let updates = sim.updates_for(&[orig()]);
        let a = BgpArchive::from_updates(sim.peers().to_vec(), &updates);
        assert!(!a.observed_by(&p("132.255.0.0/22"), PeerId(0), d("2021-01-01")));
    }

    #[test]
    fn suppression_of_more_specific_does_not_filter_covering() {
        let mut sim = CollectorSim::new(peers(), d("2022-03-30"));
        sim.suppress(
            PeerId(0),
            p("132.255.0.0/24"),
            DateRange::new(d("2020-01-01"), d("2022-01-01")),
        );
        let updates = sim.updates_for(&[orig()]);
        let a = BgpArchive::from_updates(sim.peers().to_vec(), &updates);
        assert!(a.observed_by(&p("132.255.0.0/22"), PeerId(0), d("2021-01-01")));
    }

    #[test]
    fn suppressing_open_ended_origination_tail() {
        let mut sim = CollectorSim::new(peers(), d("2022-03-30"));
        let mut o = orig();
        o.end = None;
        // Suppress from 2021-01-01 through past the horizon.
        sim.suppress(
            PeerId(0),
            o.prefix,
            DateRange::new(d("2021-01-01"), d("2023-01-01")),
        );
        let updates = sim.updates_for(&[o]);
        let a = BgpArchive::from_updates(sim.peers().to_vec(), &updates);
        let pfx = p("132.255.0.0/22");
        assert!(a.observed_by(&pfx, PeerId(0), d("2020-12-15")));
        assert!(!a.observed_by(&pfx, PeerId(0), d("2021-06-01")));
        assert!(!a.observed_by(&pfx, PeerId(0), d("2022-03-30")));
    }

    #[test]
    fn topology_paths_differ_per_peer() {
        use crate::topology::AsGraph;
        // peer0's AS (3356) reaches the origin via its customer chain;
        // peer1's AS (7018) only via a peering with 3356.
        let mut g = AsGraph::new();
        g.add_provider(Asn(64500), Asn(3356));
        g.add_peering(Asn(3356), Asn(7018));
        let sim = CollectorSim::new(peers(), d("2022-03-30"));
        let o = Origination {
            prefix: p("10.0.0.0/16"),
            origin: Asn(64500),
            transits: vec![], // ignored under topology expansion
            start: d("2020-01-01"),
            end: None,
        };
        let updates = sim.updates_for_with_topology(&g, std::slice::from_ref(&o));
        let a = BgpArchive::from_updates(sim.peers().to_vec(), &updates);
        let probe = d("2020-06-01");
        let p0 = a.path_at(&p("10.0.0.0/16"), PeerId(0), probe).unwrap();
        let p1 = a.path_at(&p("10.0.0.0/16"), PeerId(1), probe).unwrap();
        assert_eq!(p0.to_string(), "3356 64500");
        assert_eq!(p1.to_string(), "7018 3356 64500");
    }

    #[test]
    fn topology_unreached_peer_sees_nothing() {
        use crate::topology::AsGraph;
        // peer1's AS is isolated from the origin.
        let mut g = AsGraph::new();
        g.add_provider(Asn(64500), Asn(3356));
        g.add_provider(Asn(9999), Asn(7018)); // 7018's only edge is elsewhere
        let sim = CollectorSim::new(peers(), d("2022-03-30"));
        let o = Origination {
            prefix: p("10.0.0.0/16"),
            origin: Asn(64500),
            transits: vec![],
            start: d("2020-01-01"),
            end: None,
        };
        let updates = sim.updates_for_with_topology(&g, std::slice::from_ref(&o));
        let a = BgpArchive::from_updates(sim.peers().to_vec(), &updates);
        assert!(a.ever_observed_by(&p("10.0.0.0/16"), PeerId(0)));
        assert!(!a.ever_observed_by(&p("10.0.0.0/16"), PeerId(1)));
    }

    #[test]
    fn equal_updates_keep_expansion_order() {
        // Originations of one prefix from one date give each peer
        // announces equal in (date, peer, prefix, announce); they stay in
        // origination order, ascending or descending by origin.
        let sim = CollectorSim::new(peers(), d("2022-03-30"));
        let mut origins: Vec<Asn> = (64500..64516).map(Asn).collect();
        for _ in 0..2 {
            let originations: Vec<Origination> = origins
                .iter()
                .map(|&origin| Origination { origin, ..orig() })
                .collect();
            let want: Vec<(PeerId, Asn)> = peers()
                .iter()
                .flat_map(|peer| origins.iter().map(move |&asn| (peer.id, asn)))
                .collect();
            let announced: Vec<(PeerId, Asn)> = sim
                .updates_for(&originations)
                .iter()
                .filter_map(|u| Some((u.peer, u.event.path()?.origin())))
                .collect();
            assert_eq!(announced, want);
            origins.reverse();
        }
    }

    /// The interval subtraction `carried_intervals` replaced, kept as its
    /// reference: every window of the policy, in the order added, tested
    /// against the route's prefix.
    fn carried_by_scan(
        policy: &FilterPolicy,
        o: &Origination,
        horizon: Date,
    ) -> Vec<(Date, Option<Date>)> {
        let (prefix, start, end) = (&o.prefix, o.start, o.end);
        let effective_end = end.unwrap_or(horizon + 1);
        let mut pieces = vec![(start, effective_end)];
        if let FilterPolicy::Suppress(windows) = policy {
            for (wp, wr) in windows {
                if !wp.covers(prefix) {
                    continue;
                }
                let mut next = Vec::new();
                for (s, e) in pieces {
                    if wr.end() <= s || wr.start() >= e {
                        next.push((s, e));
                        continue;
                    }
                    if wr.start() > s {
                        next.push((s, wr.start()));
                    }
                    if wr.end() < e {
                        next.push((wr.end(), e));
                    }
                }
                pieces = next;
            }
        }
        pieces
            .into_iter()
            .filter(|(s, e)| e > s)
            .map(|(s, e)| {
                if end.is_none() && e == effective_end {
                    (s, None)
                } else {
                    (s, Some(e))
                }
            })
            .collect()
    }

    /// The expansion `updates_for` replaced, kept as its reference: one
    /// sequential pass over the originations, then one stable sort.
    fn expand_by_scan(sim: &CollectorSim, originations: &[Origination]) -> Vec<BgpUpdate> {
        let mut out = Vec::new();
        for o in originations {
            for (peer, policy) in sim.peers.iter().zip(&sim.policies) {
                let path = o.path_for(peer);
                for (s, e) in carried_by_scan(policy, o, sim.horizon) {
                    out.push(BgpUpdate::announce(s, peer.id, o.prefix, path.clone()));
                    if let Some(e) = e {
                        out.push(BgpUpdate::withdraw(e, peer.id, o.prefix));
                    }
                }
            }
        }
        out.sort_by(|a, b| {
            (a.date, a.peer, a.prefix, a.event.is_announce()).cmp(&(
                b.date,
                b.peer,
                b.prefix,
                b.event.is_announce(),
            ))
        });
        out
    }

    #[test]
    fn runs_merged_equal_one_scan_and_one_stable_sort() {
        let horizon = d("2022-03-30");
        let peers: Vec<Peer> = (0..4u32)
            .map(|i| Peer::new(PeerId(i), Asn(3356 + i), format!("p{i}")))
            .collect();
        let mut sim = CollectorSim::new(peers, horizon);
        let window = |from: &str, to: &str| DateRange::new(d(from), d(to));
        // Peer 1: a /8 window and, overlapping its dates, a /24 inside it;
        // peer 2 adds an empty window and a second window of the /24.
        for peer in [PeerId(1), PeerId(2)] {
            sim.suppress(peer, p("10.0.0.0/8"), window("2020-06-01", "2021-02-01"));
            sim.suppress(peer, p("10.1.2.0/24"), window("2020-11-01", "2021-05-01"));
        }
        sim.suppress(
            PeerId(2),
            p("10.1.0.0/16"),
            window("2021-01-10", "2021-01-10"),
        );
        sim.suppress(
            PeerId(2),
            p("10.1.2.0/24"),
            window("2021-08-01", "2021-09-01"),
        );
        sim.suppress(
            PeerId(3),
            p("11.0.0.0/16"),
            window("2019-01-01", "2023-01-01"),
        );

        let prefixes = [
            "10.0.0.0/8",
            "10.1.2.0/24",
            "10.1.2.128/25",
            "10.1.0.0/16",
            "11.0.0.0/16",
            "12.0.0.0/24",
        ];
        // A small LCG spreads starts and ends over the windows' edges.
        let mut state = 7u32;
        let mut next = |n: u32| {
            state = state.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            (state >> 16) % n
        };
        let base = d("2020-01-01");
        let mut originations: Vec<Origination> = (0..120)
            .map(|i| {
                let start = base + next(700) as i32;
                Origination {
                    prefix: p(prefixes[i % prefixes.len()]),
                    origin: Asn(64_500 + next(4)),
                    transits: vec![Asn(50_509)],
                    start,
                    end: (next(3) > 0).then(|| start + 1 + next(400) as i32),
                }
            })
            .collect();
        // A prefix originated twice, identically, and once more from
        // another origin over the same days.
        originations.push(orig());
        originations.push(orig());
        originations.push(Origination {
            origin: Asn(64_999),
            ..orig()
        });
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                sim.updates_on(workers, &originations),
                expand_by_scan(&sim, &originations),
                "{workers} workers"
            );
            assert!(sim.updates_on(workers, &[]).is_empty());
        }
        // Each peer's index finds exactly the windows the scan applies.
        for policy in &sim.policies {
            let index = policy.index();
            for o in &originations {
                let mut carried = Vec::new();
                carried_intervals(index.as_ref(), o, horizon, |s, e| carried.push((s, e)));
                assert_eq!(carried, carried_by_scan(policy, o, horizon));
            }
        }
    }

    #[test]
    fn merged_stream_has_no_spare_capacity() {
        let sim = CollectorSim::new(peers(), d("2022-03-30"));
        let originations: Vec<Origination> = (0..33).map(|_| orig()).collect();
        for workers in [1, 2, 8] {
            let updates = sim.updates_on(workers, &originations);
            assert_eq!(updates.len(), 33 * 4);
            assert_eq!(updates.capacity(), updates.len());
        }
    }

    #[test]
    fn updates_are_sorted() {
        let sim = CollectorSim::new(peers(), d("2022-03-30"));
        let o2 = Origination {
            prefix: p("10.0.0.0/8"),
            origin: Asn(64500),
            transits: vec![],
            start: d("2019-06-01"),
            end: None,
        };
        let updates = sim.updates_for(&[orig(), o2]);
        let dates: Vec<Date> = updates.iter().map(|u| u.date).collect();
        let mut sorted = dates.clone();
        sorted.sort();
        assert_eq!(dates, sorted);
    }
}
