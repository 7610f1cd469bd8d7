//! Longitudinal BGP observation index.
//!
//! [`BgpArchive`] compresses an update stream into per-(prefix, peer)
//! announcement *intervals* — the representation every §4 question needs:
//! "was this prefix observed on day X", "when after listing did every peer
//! stop observing it", "which origins did peers report on day X". Interval
//! lookups are binary searches, so the whole-study correlations stay fast
//! even with hundreds of peers and thousands of prefixes.

use std::collections::{BTreeMap, BTreeSet};

use droplens_net::{Asn, Date, Ipv4Prefix, PrefixTrie};

use crate::{AsPath, BgpEvent, BgpUpdate, Peer, PeerId};

/// Handle to the AS path of one [`Interval`] in a [`BgpArchive`]'s path
/// arena; resolve with [`BgpArchive::path_of`]. Ids are not
/// deduplicated: two intervals with equal paths may hold different ids,
/// so compare resolved paths, never ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

/// AS-path storage: one entry per interval, which refers to it by a
/// 4-byte [`PathId`]. An entry is an `Arc` clone of the announced path,
/// so the hop list is shared with the update, not copied. There is no
/// dedup index: a path ends at the prefix's origin, so nearly every
/// (prefix, peer) lane announces a path no other lane does, and hashing
/// every announcement to find the few repeats costs more than it saves.
#[derive(Debug)]
struct PathArena {
    paths: Vec<AsPath>,
}

impl PathArena {
    fn push(&mut self, path: &AsPath) -> PathId {
        let raw = self.paths.len() as u32;
        self.paths.push(path.clone());
        PathId(raw)
    }

    fn get(&self, id: PathId) -> &AsPath {
        // PathIds are only minted by push(), so they index in-bounds
        &self.paths[id.0 as usize]
    }
}

/// A maximal period `[start, end)` during which one peer continuously
/// reported one path for a prefix. `end == None` means the route was still
/// present at the end of the archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// First day the path was observed.
    pub start: Date,
    /// Day the route was withdrawn or replaced; `None` if never.
    pub end: Option<Date>,
    /// The path reported throughout the interval, as an arena id; resolve
    /// with [`BgpArchive::path_of`].
    pub path: PathId,
}

impl Interval {
    /// True if `date` falls inside the interval.
    pub fn contains(&self, date: Date) -> bool {
        date >= self.start && self.end.is_none_or(|e| date < e)
    }
}

/// The interval of a chronological `lane` in force on `date`, if any:
/// a binary search by start date.
fn interval_at(lane: &[Interval], date: Date) -> Option<&Interval> {
    let idx = lane.partition_point(|iv| iv.start <= date);
    // partition_point returns idx <= lane.len()
    lane[..idx].last().filter(|iv| iv.contains(date))
}

/// A `[start, end)` span of days; `end == None` runs through the end of
/// the archive.
type Span = (Date, Option<Date>);

/// The union of `spans` as disjoint spans sorted by start. Touching
/// spans merge: `[a, e) ∪ [e, b)` is contiguous.
fn union_of_spans(mut spans: Vec<Span>) -> Vec<Span> {
    spans.sort_by_key(|&(s, _)| s);
    let mut merged: Vec<Span> = Vec::with_capacity(spans.len().min(8));
    for (s, e) in spans {
        if let Some(last) = merged.last_mut() {
            if last.1.is_none_or(|end| s <= end) {
                last.1 = match (last.1, e) {
                    (None, _) | (_, None) => None,
                    (Some(a), Some(b)) => Some(a.max(b)),
                };
                continue;
            }
        }
        merged.push((s, e));
    }
    merged
}

/// True if one of the disjoint, sorted `spans` contains `date` (one
/// binary search).
fn spans_contain(spans: &[Span], date: Date) -> bool {
    let idx = spans.partition_point(|&(s, _)| s <= date);
    spans[..idx]
        .last()
        .is_some_and(|&(_, e)| e.is_none_or(|end| date < end))
}

/// The days on which an address block was routed, as
/// [`BgpArchive::routed_spans`] finds them once for many dates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutedSpans(Vec<Span>);

impl RoutedSpans {
    /// True if the block was routed on `date`: [`BgpArchive::routed_at`]'s
    /// answer, by one binary search.
    pub fn contains(&self, date: Date) -> bool {
        spans_contain(&self.0, date)
    }
}

/// One archived prefix's peer lanes, by peer id, as [`BgpArchive::lanes`]
/// yields them. Lanes are kept for every peer id the update stream
/// named, including ids outside [`BgpArchive::peers`].
#[derive(Debug, Clone, Copy)]
pub struct Lanes<'a> {
    by_peer: &'a BTreeMap<PeerId, Vec<Interval>>,
}

impl<'a> Lanes<'a> {
    /// Each peer that ever had an update for the prefix, with its
    /// intervals in date order (empty after withdrawals alone).
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, &'a [Interval])> + 'a {
        self.by_peer
            .iter()
            .map(|(&peer, lane)| (peer, lane.as_slice()))
    }

    /// The interval in force on `date`, for each lane that has one.
    pub fn at(&self, date: Date) -> impl Iterator<Item = (PeerId, &'a Interval)> + 'a {
        self.iter()
            .filter_map(move |(peer, lane)| interval_at(lane, date).map(|iv| (peer, iv)))
    }
}

/// Replay one (prefix, peer) lane's updates, given in stream order.
///
/// An announcement with an unchanged path extends the open interval; a
/// path change closes it and opens a new one on the same day; a
/// withdrawal closes it. Withdrawals without an open interval are
/// ignored (idle withdraws are legal BGP chatter), so a lane can end up
/// empty.
fn replay_lane<'a>(
    updates: impl ExactSizeIterator<Item = &'a BgpUpdate>,
    paths: &mut PathArena,
) -> Vec<Interval> {
    // At most one interval per update; most lanes hold one update.
    let mut lane: Vec<Interval> = Vec::with_capacity(updates.len());
    for u in updates {
        let open = lane.last_mut().filter(|iv| iv.end.is_none());
        match &u.event {
            BgpEvent::Announce(path) => {
                if let Some(open) = open {
                    if paths.get(open.path) == path {
                        continue; // duplicate announcement
                    }
                    open.end = Some(u.date);
                }
                lane.push(Interval {
                    start: u.date,
                    end: None,
                    path: paths.push(path),
                });
            }
            BgpEvent::Withdraw => {
                if let Some(open) = open {
                    open.end = Some(u.date);
                }
            }
        }
    }
    lane
}

/// Per-prefix observation record: intervals for every peer that ever
/// carried the prefix, plus the cross-peer union of those intervals
/// (the daily-visibility index), precomputed once at index time.
#[derive(Debug)]
struct PrefixRecord {
    by_peer: BTreeMap<PeerId, Vec<Interval>>,
    /// Disjoint, sorted `[start, end)` spans during which *any* peer
    /// carried the prefix (`end == None` = through end of archive).
    /// "Was this prefix visible on day X" becomes one binary search
    /// instead of a scan over every peer lane.
    merged: Vec<Span>,
}

impl PrefixRecord {
    /// Rebuild [`Self::merged`] from the peer lanes.
    fn build_visibility(&mut self) {
        self.merged = union_of_spans(
            self.by_peer
                .values()
                .flatten()
                .map(|iv| (iv.start, iv.end))
                .collect(), // one prefix record: bounded by peers × lane intervals
        );
    }

    /// True if any peer carried the prefix on `date` (visibility-index
    /// lookup; requires [`Self::build_visibility`] to have run).
    fn observed_on(&self, date: Date) -> bool {
        spans_contain(&self.merged, date)
    }

    /// Number of peer lanes with an interval in force on `date`.
    fn peers_observing(&self, date: Date) -> usize {
        self.by_peer
            .values()
            .filter(|lane| interval_at(lane, date).is_some())
            .count()
    }
}

/// An index over a complete collector update stream.
///
/// Build once with [`BgpArchive::from_updates`]; all queries are read-only.
pub struct BgpArchive {
    peers: Vec<Peer>,
    records: PrefixTrie<PrefixRecord>,
    paths: PathArena,
    first_date: Option<Date>,
    last_date: Option<Date>,
}

impl BgpArchive {
    /// Build the index, lane by lane, from `updates` in stream order.
    ///
    /// Every update touches only its own (prefix, peer) lane, so one
    /// sort of the stream positions by (prefix, peer, position) groups
    /// each lane's updates together in stream order. Each lane is then
    /// replayed once (see `replay_lane`), each prefix's record is built
    /// once, and each prefix enters the trie once, in address order. The
    /// result equals a replay of the whole stream in order, update by
    /// update; only the [`PathId`]s differ, as they are not deduplicated.
    pub fn from_updates(peers: Vec<Peer>, updates: &[BgpUpdate]) -> BgpArchive {
        let first_date = updates.iter().map(|u| u.date).min();
        let last_date = updates.iter().map(|u| u.date).max();
        let mut order: Vec<(Ipv4Prefix, PeerId, usize)> = updates
            .iter()
            .enumerate()
            .map(|(pos, u)| (u.prefix, u.peer, pos))
            .collect(); // one sort key per update, the index's own input size
        order.sort_unstable();
        let mut records: PrefixTrie<PrefixRecord> = PrefixTrie::new();
        // At most one path per update.
        let mut paths = PathArena {
            paths: Vec::with_capacity(updates.len()),
        };
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let by_peer = group
                .chunk_by(|a, b| a.1 == b.1)
                .map(|lane| {
                    let stream = lane.iter().map(|&(_, _, pos)| &updates[pos]);
                    (lane[0].1, replay_lane(stream, &mut paths))
                })
                .collect(); // one prefix's lanes: bounded by the collector peer count
            let record = PrefixRecord {
                by_peer,
                merged: Vec::new(),
            };
            records.insert(group[0].0, record);
        }
        // Finalize the daily-visibility index in a pass of its own, so the
        // merged spans are allocated together rather than between the
        // lane vectors: `routed_at` walks many records' spans per query,
        // and that walk is measurably slower when they are scattered.
        // Records are independent, so the pass fans out across workers.
        let mut values: Vec<&mut PrefixRecord> = records.values_mut().collect(); // one &mut per record, needed to fan out par_for_each_mut
        droplens_par::par_for_each_mut(&mut values, |r| r.build_visibility());
        BgpArchive {
            peers,
            records,
            paths,
            first_date,
            last_date,
        }
    }

    /// Resolve an interval's [`PathId`] to the actual path.
    pub fn path_of(&self, id: PathId) -> &AsPath {
        self.paths.get(id)
    }

    /// Close "zombie" lanes left behind by quarantined withdrawals.
    ///
    /// Permissive ingestion can quarantine a mangled withdraw record;
    /// the damaged lane then stays open to the end of the archive even
    /// though every other peer closed long ago — the BGP *zombie route*
    /// phenomenon (routes lingering at isolated collectors after the
    /// origin withdrew). When a prefix's lanes show exactly one open
    /// interval, at least two closed sibling lanes, and every sibling
    /// outlived that interval's announcement, sibling consensus wins:
    /// the open interval is closed at the latest sibling withdrawal
    /// date. Returns the number of intervals closed.
    ///
    /// A clean archive *can* contain this shape legitimately (one peer
    /// genuinely routing longer than the rest), so callers gate the
    /// sweep on quarantine evidence — [`crate::format`] reported update
    /// records as damaged — rather than running it unconditionally.
    pub fn repair_zombie_routes(&mut self) -> usize {
        let mut repaired = 0;
        for record in self.records.values_mut() {
            let mut open_peers: Vec<PeerId> = Vec::new();
            let mut latest_close: Option<Date> = None;
            let mut closed_lanes = 0usize;
            for (&peer, lane) in &record.by_peer {
                match lane.last().and_then(|iv| iv.end) {
                    None if lane.last().is_some() => open_peers.push(peer),
                    None => {}
                    Some(end) => {
                        closed_lanes += 1;
                        latest_close = Some(latest_close.map_or(end, |d: Date| d.max(end)));
                    }
                }
            }
            let (&[peer], Some(close_at)) = (open_peers.as_slice(), latest_close) else {
                continue;
            };
            if closed_lanes < 2 {
                continue;
            }
            if let Some(iv) = record.by_peer.get_mut(&peer).and_then(|l| l.last_mut()) {
                // A lane announced *after* every sibling closed is a
                // genuine late re-announcement, not a zombie.
                if iv.start <= close_at {
                    iv.end = Some(close_at);
                    record.build_visibility();
                    repaired += 1;
                    let tracer = droplens_obs::trace::global();
                    if tracer.is_enabled() {
                        use droplens_obs::trace::ArgValue;
                        tracer.instant(
                            "gap-repair",
                            "ingest",
                            vec![
                                ("source", ArgValue::Str("bgp/updates".into())),
                                ("kind", ArgValue::Str("zombie-route".into())),
                                ("peer", ArgValue::U64(u64::from(peer.0))),
                                ("closed_at", ArgValue::Str(close_at.to_string())),
                            ],
                        );
                    }
                }
            }
        }
        repaired
    }

    /// The collector's peers.
    pub fn peers(&self) -> &[Peer] {
        &self.peers
    }

    /// Earliest update date in the archive.
    pub fn first_date(&self) -> Option<Date> {
        self.first_date
    }

    /// Latest update date in the archive.
    pub fn last_date(&self) -> Option<Date> {
        self.last_date
    }

    /// Every prefix that ever appeared, in address order.
    pub fn prefixes(&self) -> impl Iterator<Item = Ipv4Prefix> + '_ {
        self.records.keys()
    }

    /// The announcement intervals one peer recorded for `prefix`.
    pub fn intervals(&self, prefix: &Ipv4Prefix, peer: PeerId) -> &[Interval] {
        self.records
            .get(prefix)
            .and_then(|r| r.by_peer.get(&peer))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// True if `peer` had a route for `prefix` on `date`.
    pub fn observed_by(&self, prefix: &Ipv4Prefix, peer: PeerId, date: Date) -> bool {
        self.path_at(prefix, peer, date).is_some()
    }

    /// The path `peer` reported for `prefix` on `date`, if any.
    pub fn path_at(&self, prefix: &Ipv4Prefix, peer: PeerId, date: Date) -> Option<&AsPath> {
        let lane = self.records.get(prefix)?.by_peer.get(&peer)?;
        interval_at(lane, date).map(|iv| self.paths.get(iv.path))
    }

    /// Number of peers with a route for `prefix` on `date` (one trie
    /// lookup, then one binary search per lane).
    pub fn peers_observing(&self, prefix: &Ipv4Prefix, date: Date) -> usize {
        self.records
            .get(prefix)
            .map_or(0, |record| record.peers_observing(date))
    }

    /// Fraction of all peers observing `prefix` on `date`.
    pub fn visibility(&self, prefix: &Ipv4Prefix, date: Date) -> f64 {
        if self.peers.is_empty() {
            return 0.0;
        }
        self.peers_observing(prefix, date) as f64 / self.peers.len() as f64
    }

    /// True if any peer observed `prefix` on `date` (one binary search on
    /// the precomputed visibility index).
    pub fn observed_any(&self, prefix: &Ipv4Prefix, date: Date) -> bool {
        self.records
            .get(prefix)
            .is_some_and(|record| record.observed_on(date))
    }

    /// True if `prefix` or any more-specific archived prefix was observed
    /// on `date` — "was this address space routed". Walks the covered
    /// subtree lazily, short-circuiting on the first visible span. The
    /// walk keeps its stack in a `Vec`, so it allocates when `prefix` is
    /// not visible itself but it or a more-specific is archived.
    pub fn routed_at(&self, prefix: &Ipv4Prefix, date: Date) -> bool {
        if self.observed_any(prefix, date) {
            return true;
        }
        self.records
            .covered_by_iter(prefix)
            .any(|(_, record)| record.observed_on(date))
    }

    /// Every day on which `prefix` is routed, as [`Self::routed_at`]
    /// decides it: the union of the visibility spans of `prefix` and of
    /// every archived more-specific. One walk of the covered subtree then
    /// answers any number of dates by binary search.
    pub fn routed_spans(&self, prefix: &Ipv4Prefix) -> RoutedSpans {
        RoutedSpans(union_of_spans(
            self.records
                .covered_by_iter(prefix)
                .flat_map(|(_, record)| record.merged.iter().copied())
                .collect(), // the covered records' spans, merged once per prefix
        ))
    }

    /// True if the prefix appears anywhere in the archive.
    pub fn ever_observed(&self, prefix: &Ipv4Prefix) -> bool {
        self.records.get(prefix).is_some()
    }

    /// True if `peer` ever carried `prefix`.
    pub fn ever_observed_by(&self, prefix: &Ipv4Prefix, peer: PeerId) -> bool {
        !self.intervals(prefix, peer).is_empty()
    }

    /// First day any peer announced `prefix`.
    pub fn first_announced(&self, prefix: &Ipv4Prefix) -> Option<Date> {
        let record = self.records.get(prefix)?;
        record
            .by_peer
            .values()
            .filter_map(|lane| lane.first())
            .map(|iv| iv.start)
            .min()
    }

    /// First day any peer announced `prefix` on or after `from`.
    pub fn first_announced_at_or_after(&self, prefix: &Ipv4Prefix, from: Date) -> Option<Date> {
        let record = self.records.get(prefix)?;
        record
            .by_peer
            .values()
            .flat_map(|lane| lane.iter())
            .filter_map(|iv| {
                if iv.contains(from) {
                    Some(from)
                } else if iv.start >= from {
                    Some(iv.start)
                } else {
                    None
                }
            })
            .min()
    }

    /// The first day `>= from` on which **no** peer observed `prefix` —
    /// the paper's withdrawal inference (§4.1). Returns `None` if the
    /// prefix stayed observed through the end of the archive.
    pub fn first_unobserved_after(&self, prefix: &Ipv4Prefix, from: Date) -> Option<Date> {
        self.first_below_threshold_after(prefix, from, 1)
    }

    /// Generalized withdrawal inference: the first day `>= from` on which
    /// fewer than `threshold` peers observed `prefix`. The paper uses
    /// `threshold = 1` ("not BGP-observed"); the sensitivity ablation
    /// sweeps it, since a route lingering at one stale peer arguably
    /// *is* withdrawn.
    ///
    /// Observation counts only change at interval boundaries, so only
    /// `from` itself and interval end dates need to be tested.
    pub fn first_below_threshold_after(
        &self,
        prefix: &Ipv4Prefix,
        from: Date,
        threshold: usize,
    ) -> Option<Date> {
        let record = self.records.get(prefix)?;
        let mut candidates: BTreeSet<Date> = BTreeSet::new();
        candidates.insert(from);
        for lane in record.by_peer.values() {
            for iv in lane {
                if let Some(end) = iv.end {
                    if end >= from {
                        candidates.insert(end);
                    }
                }
            }
        }
        candidates
            .into_iter()
            .find(|&d| record.peers_observing(d) < threshold)
    }

    /// Every archived prefix with its peer lanes, in address order: one
    /// walk of the trie for whole-table sweeps, which would otherwise look
    /// up each (prefix, peer) pair on its own.
    pub fn lanes(&self) -> impl Iterator<Item = (Ipv4Prefix, Lanes<'_>)> {
        self.records.iter().map(|(prefix, record)| {
            (
                prefix,
                Lanes {
                    by_peer: &record.by_peer,
                },
            )
        })
    }

    /// The set of origin ASNs peers reported for `prefix` on `date`.
    pub fn origins_at(&self, prefix: &Ipv4Prefix, date: Date) -> BTreeSet<Asn> {
        let Some(record) = self.records.get(prefix) else {
            return BTreeSet::new();
        };
        Lanes {
            by_peer: &record.by_peer,
        }
        .at(date)
        .map(|(_, iv)| self.paths.get(iv.path).origin())
        .collect() // bounded by the collector peer count
    }

    /// Every origin ASN ever reported for `prefix` before `date`, with the
    /// first day each was seen. Used to decide whether a new announcement
    /// reuses a historic origin (the Figure 4 spoofing pattern).
    pub fn historic_origins_before(&self, prefix: &Ipv4Prefix, date: Date) -> BTreeMap<Asn, Date> {
        let mut out: BTreeMap<Asn, Date> = BTreeMap::new();
        if let Some(record) = self.records.get(prefix) {
            for lane in record.by_peer.values() {
                for iv in lane {
                    if iv.start < date {
                        let origin = self.paths.get(iv.path).origin();
                        out.entry(origin)
                            .and_modify(|d| *d = (*d).min(iv.start))
                            .or_insert(iv.start);
                    }
                }
            }
        }
        out
    }

    /// The visibility fraction of `prefix` sampled on each day of
    /// `range` — the per-prefix series behind Figure 2's right panel.
    pub fn visibility_series(
        &self,
        prefix: &Ipv4Prefix,
        range: droplens_net::DateRange,
    ) -> Vec<(Date, f64)> {
        range
            .iter()
            .map(|d| (d, self.visibility(prefix, d)))
            .collect() // one point per day of the requested range
    }

    /// Archived prefixes equal to or more specific than `covering`.
    pub fn prefixes_covered_by(&self, covering: &Ipv4Prefix) -> Vec<Ipv4Prefix> {
        self.records
            .covered_by(covering)
            .into_iter()
            .map(|(p, _)| p)
            .collect()
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

    fn path(s: &str) -> AsPath {
        s.parse().unwrap()
    }

    fn two_peers() -> Vec<Peer> {
        vec![
            Peer::new(PeerId(0), Asn(3356), "p0"),
            Peer::new(PeerId(1), Asn(7018), "p1"),
        ]
    }

    #[test]
    fn interval_construction_from_updates() {
        let updates = vec![
            BgpUpdate::announce(
                d("2020-01-01"),
                PeerId(0),
                p("10.0.0.0/8"),
                path("3356 64500"),
            ),
            BgpUpdate::withdraw(d("2020-02-01"), PeerId(0), p("10.0.0.0/8")),
            BgpUpdate::announce(
                d("2020-03-01"),
                PeerId(0),
                p("10.0.0.0/8"),
                path("3356 64500"),
            ),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        let ivs = a.intervals(&p("10.0.0.0/8"), PeerId(0));
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].start, d("2020-01-01"));
        assert_eq!(ivs[0].end, Some(d("2020-02-01")));
        assert_eq!(ivs[1].start, d("2020-03-01"));
        assert_eq!(ivs[1].end, None);
        assert_eq!(a.first_date(), Some(d("2020-01-01")));
        assert_eq!(a.last_date(), Some(d("2020-03-01")));
    }

    #[test]
    fn duplicate_announce_extends_interval() {
        let updates = vec![
            BgpUpdate::announce(d("2020-01-01"), PeerId(0), p("10.0.0.0/8"), path("1 2")),
            BgpUpdate::announce(d("2020-06-01"), PeerId(0), p("10.0.0.0/8"), path("1 2")),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        assert_eq!(a.intervals(&p("10.0.0.0/8"), PeerId(0)).len(), 1);
    }

    #[test]
    fn path_change_splits_interval() {
        let updates = vec![
            BgpUpdate::announce(d("2020-01-01"), PeerId(0), p("10.0.0.0/8"), path("1 2")),
            BgpUpdate::announce(d("2020-06-01"), PeerId(0), p("10.0.0.0/8"), path("9 2")),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        let ivs = a.intervals(&p("10.0.0.0/8"), PeerId(0));
        assert_eq!(ivs.len(), 2);
        assert_eq!(ivs[0].end, Some(d("2020-06-01")));
        assert_eq!(
            a.path_at(&p("10.0.0.0/8"), PeerId(0), d("2020-05-31")),
            Some(&path("1 2"))
        );
        assert_eq!(
            a.path_at(&p("10.0.0.0/8"), PeerId(0), d("2020-06-01")),
            Some(&path("9 2"))
        );
    }

    #[test]
    fn idle_withdraw_ignored() {
        let updates = vec![BgpUpdate::withdraw(
            d("2020-01-01"),
            PeerId(0),
            p("10.0.0.0/8"),
        )];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        assert!(a.intervals(&p("10.0.0.0/8"), PeerId(0)).is_empty());
        assert!(a.ever_observed(&p("10.0.0.0/8"))); // recorded, but never up
        assert!(!a.ever_observed_by(&p("10.0.0.0/8"), PeerId(0)));
    }

    #[test]
    fn observation_queries() {
        let updates = vec![
            BgpUpdate::announce(d("2020-01-01"), PeerId(0), p("10.0.0.0/8"), path("1 2")),
            BgpUpdate::announce(d("2020-01-05"), PeerId(1), p("10.0.0.0/8"), path("9 2")),
            BgpUpdate::withdraw(d("2020-02-01"), PeerId(0), p("10.0.0.0/8")),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        let pfx = p("10.0.0.0/8");
        assert!(a.observed_by(&pfx, PeerId(0), d("2020-01-01")));
        assert!(!a.observed_by(&pfx, PeerId(0), d("2019-12-31")));
        assert!(!a.observed_by(&pfx, PeerId(0), d("2020-02-01"))); // end exclusive
        assert_eq!(a.peers_observing(&pfx, d("2020-01-10")), 2);
        assert_eq!(a.peers_observing(&pfx, d("2020-02-01")), 1);
        assert_eq!(a.visibility(&pfx, d("2020-01-10")), 1.0);
        assert!(a.observed_any(&pfx, d("2020-03-01")));
        assert_eq!(a.first_announced(&pfx), Some(d("2020-01-01")));
    }

    #[test]
    fn withdrawal_inference() {
        let updates = vec![
            BgpUpdate::announce(d("2020-01-01"), PeerId(0), p("10.0.0.0/8"), path("1 2")),
            BgpUpdate::announce(d("2020-01-01"), PeerId(1), p("10.0.0.0/8"), path("9 2")),
            BgpUpdate::withdraw(d("2020-01-20"), PeerId(0), p("10.0.0.0/8")),
            BgpUpdate::withdraw(d("2020-01-25"), PeerId(1), p("10.0.0.0/8")),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        // Listed on Jan 10: all peers stop observing on Jan 25.
        assert_eq!(
            a.first_unobserved_after(&p("10.0.0.0/8"), d("2020-01-10")),
            Some(d("2020-01-25"))
        );
        // If asked from a date when it is already down, that date qualifies.
        assert_eq!(
            a.first_unobserved_after(&p("10.0.0.0/8"), d("2020-02-15")),
            Some(d("2020-02-15"))
        );
    }

    #[test]
    fn threshold_sensitivity() {
        let pfx = p("10.0.0.0/8");
        let updates = vec![
            BgpUpdate::announce(d("2020-01-01"), PeerId(0), pfx, path("1 2")),
            BgpUpdate::announce(d("2020-01-01"), PeerId(1), pfx, path("9 2")),
            BgpUpdate::withdraw(d("2020-02-01"), PeerId(0), pfx),
            BgpUpdate::withdraw(d("2020-04-01"), PeerId(1), pfx),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        let from = d("2020-01-15");
        // Threshold 1 (the paper's): gone when the last peer drops it.
        assert_eq!(
            a.first_below_threshold_after(&pfx, from, 1),
            Some(d("2020-04-01"))
        );
        // Threshold 2: gone as soon as it dips below full visibility.
        assert_eq!(
            a.first_below_threshold_after(&pfx, from, 2),
            Some(d("2020-02-01"))
        );
        // Threshold 0 can never fire.
        assert_eq!(a.first_below_threshold_after(&pfx, from, 0), None);
    }

    #[test]
    fn still_observed_returns_none() {
        let updates = vec![BgpUpdate::announce(
            d("2020-01-01"),
            PeerId(0),
            p("10.0.0.0/8"),
            path("1 2"),
        )];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        assert_eq!(
            a.first_unobserved_after(&p("10.0.0.0/8"), d("2020-01-10")),
            None
        );
    }

    #[test]
    fn origins_and_history() {
        let pfx = p("132.255.0.0/22");
        let updates = vec![
            BgpUpdate::announce(d("2019-01-01"), PeerId(0), pfx, path("21575 263692")),
            BgpUpdate::withdraw(d("2020-07-01"), PeerId(0), pfx),
            BgpUpdate::announce(d("2020-12-01"), PeerId(0), pfx, path("50509 34665 263692")),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        assert_eq!(
            a.origins_at(&pfx, d("2021-01-01")),
            [Asn(263692)].into_iter().collect()
        );
        assert!(a.origins_at(&pfx, d("2020-08-01")).is_empty());
        let hist = a.historic_origins_before(&pfx, d("2020-12-01"));
        assert_eq!(hist.get(&Asn(263692)), Some(&d("2019-01-01")));
    }

    #[test]
    fn first_announced_at_or_after() {
        let pfx = p("10.0.0.0/8");
        let updates = vec![
            BgpUpdate::announce(d("2020-01-01"), PeerId(0), pfx, path("1 2")),
            BgpUpdate::withdraw(d("2020-02-01"), PeerId(0), pfx),
            BgpUpdate::announce(d("2020-05-01"), PeerId(0), pfx, path("1 2")),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        // During an open interval: the query date itself.
        assert_eq!(
            a.first_announced_at_or_after(&pfx, d("2020-01-15")),
            Some(d("2020-01-15"))
        );
        // During a gap: the next interval start.
        assert_eq!(
            a.first_announced_at_or_after(&pfx, d("2020-03-01")),
            Some(d("2020-05-01"))
        );
        // After everything: none only if no open interval; here open.
        assert_eq!(
            a.first_announced_at_or_after(&pfx, d("2021-01-01")),
            Some(d("2021-01-01"))
        );
    }

    #[test]
    fn covered_by_query() {
        let updates = vec![
            BgpUpdate::announce(d("2020-01-01"), PeerId(0), p("10.0.0.0/16"), path("1 2")),
            BgpUpdate::announce(d("2020-01-01"), PeerId(0), p("10.1.0.0/16"), path("1 2")),
            BgpUpdate::announce(d("2020-01-01"), PeerId(0), p("11.0.0.0/16"), path("1 2")),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        assert_eq!(a.prefixes_covered_by(&p("10.0.0.0/8")).len(), 2);
        assert_eq!(a.prefixes().count(), 3);
    }

    #[test]
    fn visibility_series_tracks_events() {
        let pfx = p("10.0.0.0/8");
        let updates = vec![
            BgpUpdate::announce(d("2020-01-02"), PeerId(0), pfx, path("1 2")),
            BgpUpdate::announce(d("2020-01-03"), PeerId(1), pfx, path("9 2")),
            BgpUpdate::withdraw(d("2020-01-05"), PeerId(0), pfx),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        let series = a.visibility_series(
            &pfx,
            droplens_net::DateRange::inclusive(d("2020-01-01"), d("2020-01-06")),
        );
        let values: Vec<f64> = series.iter().map(|(_, v)| *v).collect();
        assert_eq!(values, vec![0.0, 0.5, 1.0, 1.0, 0.5, 0.5]);
    }

    #[test]
    fn visibility_index_matches_peer_scan() {
        let pfx = p("10.0.0.0/8");
        // Overlapping, touching, and gapped intervals across two peers,
        // plus one open-ended interval.
        let updates = vec![
            BgpUpdate::announce(d("2020-01-01"), PeerId(0), pfx, path("1 2")),
            BgpUpdate::withdraw(d("2020-01-10"), PeerId(0), pfx),
            BgpUpdate::announce(d("2020-01-10"), PeerId(1), pfx, path("9 2")),
            BgpUpdate::withdraw(d("2020-01-20"), PeerId(1), pfx),
            BgpUpdate::announce(d("2020-02-01"), PeerId(0), pfx, path("1 2")),
            BgpUpdate::announce(d("2020-02-05"), PeerId(1), pfx, path("9 2")),
            BgpUpdate::withdraw(d("2020-02-10"), PeerId(0), pfx),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        let record = a.records.get(&pfx).unwrap();
        // [01-01, 01-20) (merged across the touching boundary), then
        // [02-01, None) (peer 1 still announcing).
        assert_eq!(
            record.merged,
            vec![
                (d("2020-01-01"), Some(d("2020-01-20"))),
                (d("2020-02-01"), None)
            ]
        );
        for day in [
            "2019-12-31",
            "2020-01-01",
            "2020-01-09",
            "2020-01-10",
            "2020-01-19",
            "2020-01-20",
            "2020-01-25",
            "2020-02-01",
            "2020-02-10",
            "2021-06-01",
        ] {
            let date = d(day);
            let scan = record
                .by_peer
                .keys()
                .any(|&peer| a.observed_by(&pfx, peer, date));
            assert_eq!(a.observed_any(&pfx, date), scan, "day {day}");
        }
    }

    #[test]
    fn routed_at_covers_more_specifics() {
        let updates = vec![
            BgpUpdate::announce(d("2020-01-01"), PeerId(0), p("10.5.0.0/16"), path("1 2")),
            BgpUpdate::withdraw(d("2020-02-01"), PeerId(0), p("10.5.0.0/16")),
        ];
        let a = BgpArchive::from_updates(two_peers(), &updates);
        // The /8 was never announced itself, but its /16 more-specific was.
        assert!(a.routed_at(&p("10.0.0.0/8"), d("2020-01-15")));
        assert!(!a.routed_at(&p("10.0.0.0/8"), d("2020-02-01")));
        // Exact prefix works through the fast path.
        assert!(a.routed_at(&p("10.5.0.0/16"), d("2020-01-15")));
        // A more-specific query is NOT routed by its covering /16.
        assert!(!a.routed_at(&p("10.5.9.0/24"), d("2020-01-15")));
        assert!(!a.routed_at(&p("11.0.0.0/8"), d("2020-01-15")));
    }

    #[test]
    fn empty_archive() {
        let a = BgpArchive::from_updates(two_peers(), &[]);
        assert_eq!(a.first_date(), None);
        assert_eq!(a.last_date(), None);
        assert!(!a.ever_observed(&p("10.0.0.0/8")));
        assert_eq!(a.visibility(&p("10.0.0.0/8"), d("2020-01-01")), 0.0);
        assert!(a
            .first_unobserved_after(&p("10.0.0.0/8"), d("2020-01-01"))
            .is_none());
    }
}
