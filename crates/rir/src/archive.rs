//! Temporal allocation database over stats-file snapshots.

use std::collections::BTreeMap;
use std::rc::Rc;

use droplens_net::{AddressSpace, Date, Ipv4Prefix, OrgId, ParseError, PrefixTrie, StringInterner};

use crate::format::{SharedStatsFile, StatsFile, StatsRows};
use crate::{AllocationStatus, DelegationRecord, Rir};

/// The allocation status of a prefix on a given day, as resolved by
/// longest-match against the snapshot in force.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusAt {
    /// Managing registry.
    pub rir: Rir,
    /// Row status.
    pub status: AllocationStatus,
    /// The allocation date recorded on the row, if any.
    pub allocated_on: Option<Date>,
    /// Registry-internal organization handle.
    pub opaque_id: String,
    /// The CIDR block the query matched.
    pub matched: Ipv4Prefix,
}

/// What one stats row says about one of its CIDR blocks. The archive
/// stores the org handle interned in [`RirStatsArchive::orgs`]; a
/// snapshot being added borrows it from its row until the entry turns
/// out to be a change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IndexEntry<Org = OrgId> {
    rir: Rir,
    status: AllocationStatus,
    allocated_on: Option<Date>,
    org: Org,
}

impl<Org> IndexEntry<Org> {
    fn with_org<T>(self, org: T) -> IndexEntry<T> {
        IndexEntry {
            rir: self.rir,
            status: self.status,
            allocated_on: self.allocated_on,
            org,
        }
    }
}

/// One change of a prefix's entry: from snapshot index `.0` on, the
/// prefix maps to `.1`, where `None` means no row of the snapshot
/// lists that exact block.
type ChangePoint = (u32, Option<IndexEntry>);

/// The entry a prefix's change points put in force at `snapshot`.
fn entry_at(points: &[ChangePoint], snapshot: usize) -> Option<IndexEntry> {
    let idx = points.partition_point(|&(at, _)| at as usize <= snapshot);
    points[..idx].last().and_then(|&(_, entry)| entry)
}

/// What a snapshot adds beside its rows: its date and its per-registry
/// totals.
struct Snapshot {
    date: Date,
    free_pool: BTreeMap<Rir, AddressSpace>,
    delegated: BTreeMap<Rir, AddressSpace>,
}

/// A time series of delegated-stats snapshots (typically one per day or
/// per month), answering point-in-time allocation queries.
///
/// The paper's convention: a prefix is **unallocated** on day D when the
/// stats in force on D do not show it as `allocated`/`assigned`.
///
/// Consecutive snapshots repeat almost every row, so the archive stores
/// what changed, not each snapshot: one [`PrefixTrie`] holds, for every
/// CIDR block any snapshot ever listed, its *change points* — the
/// snapshot indices at which the block's entry appeared, changed or
/// vanished. A query finds the snapshot in force by date, then takes the
/// most specific covering block whose entry at that snapshot exists. The
/// archive grows with the number of changes, not with snapshots × rows.
#[derive(Default)]
pub struct RirStatsArchive {
    /// Dates and totals, ascending by date; a snapshot's index is its
    /// position here.
    snapshots: Vec<Snapshot>,
    /// Per CIDR block, its change points in snapshot order.
    changes: PrefixTrie<Vec<ChangePoint>>,
    /// The latest snapshot's block → entry list in address order: the
    /// base the next snapshot is diffed against.
    latest: Vec<(Ipv4Prefix, IndexEntry)>,
    /// Interned org handles: a paper-scale run reads ~700k rows that
    /// name far fewer organizations, so change points store a 4-byte
    /// [`OrgId`] instead of a `String`.
    orgs: StringInterner<OrgId>,
}

impl RirStatsArchive {
    /// An empty archive.
    pub fn new() -> RirStatsArchive {
        RirStatsArchive::default()
    }

    /// Add a snapshot assembled from the (up to five) per-RIR files
    /// published on `date`. Snapshots must be added in chronological
    /// order: an out-of-order date is reported as a [`ParseError`], so
    /// ingestion can surface the offending snapshot.
    pub fn try_add_snapshot(&mut self, date: Date, files: &[StatsFile]) -> Result<(), ParseError> {
        self.try_add_rows(date, files.iter().flat_map(|f| &f.records))
    }

    /// [`RirStatsArchive::try_add_snapshot`] for files whose rows live in
    /// a shared table.
    pub fn try_add_shared_snapshot(
        &mut self,
        date: Date,
        table: &StatsRows,
        files: &[SharedStatsFile],
    ) -> Result<(), ParseError> {
        self.try_add_rows(date, files.iter().flat_map(|f| f.records(table)))
    }

    /// Add the snapshot whose rows are `rows` (files in order, rows in
    /// file order). They resolve to one entry per CIDR block, a later
    /// row overwriting an earlier one at the same block. That list is
    /// diffed against the previous snapshot's, and only the differences
    /// become change points.
    fn try_add_rows<'r>(
        &mut self,
        date: Date,
        rows: impl Iterator<Item = &'r DelegationRecord> + Clone,
    ) -> Result<(), ParseError> {
        if let Some(last) = self.snapshots.last() {
            if last.date >= date {
                return Err(ParseError::new(
                    "RirStatsArchive",
                    &date.to_string(),
                    format!(
                        "snapshot out of chronological order (follows {})",
                        last.date
                    ),
                ));
            }
        }
        let mut blocks: Vec<(Ipv4Prefix, IndexEntry<&str>)> =
            Vec::with_capacity(rows.clone().map(|r| r.blocks().count()).sum());
        let mut free_pool: BTreeMap<Rir, AddressSpace> = BTreeMap::new();
        let mut delegated: BTreeMap<Rir, AddressSpace> = BTreeMap::new();
        for record in rows {
            let space = AddressSpace::from_addresses(record.count);
            if record.status == AllocationStatus::Available {
                *free_pool.entry(record.rir).or_default() += space;
            }
            if record.status.is_delegated() {
                *delegated.entry(record.rir).or_default() += space;
            }
            let entry = IndexEntry {
                rir: record.rir,
                status: record.status,
                allocated_on: record.date,
                org: record.opaque_id.as_str(),
            };
            blocks.extend(record.blocks().map(|p| (p, entry)));
        }
        // A stable sort keeps row order among equal blocks; the dedup
        // then keeps the last row's entry in the first slot.
        blocks.sort_by_key(|&(p, _)| p);
        blocks.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 = later.1;
            }
            same
        });
        self.record_changes(&blocks);
        self.snapshots.push(Snapshot {
            date,
            free_pool,
            delegated,
        });
        Ok(())
    }

    /// Diff the next snapshot's sorted `blocks` against [`Self::latest`]
    /// in one merge pass: record a change point for every block that
    /// appeared, changed or vanished, and make `blocks` the new latest
    /// list. Only changed entries intern their org handle; an unchanged
    /// one keeps its id.
    fn record_changes(&mut self, blocks: &[(Ipv4Prefix, IndexEntry<&str>)]) {
        let snapshot = self.snapshots.len() as u32;
        let mut latest = Vec::with_capacity(blocks.len());
        let mut old = std::mem::take(&mut self.latest).into_iter().peekable();
        for &(prefix, entry) in blocks {
            while let Some((gone, _)) = old.next_if(|&(p, _)| p < prefix) {
                self.change(gone, snapshot, None);
            }
            let entry = match old.next_if(|&(p, _)| p == prefix) {
                Some((_, was)) if was.with_org(self.orgs.get(was.org)) == entry => was,
                _ => {
                    let entry = entry.with_org(self.orgs.intern(entry.org));
                    self.change(prefix, snapshot, Some(entry));
                    entry
                }
            };
            latest.push((prefix, entry));
        }
        for (gone, _) in old {
            self.change(gone, snapshot, None);
        }
        self.latest = latest;
    }

    fn change(&mut self, prefix: Ipv4Prefix, snapshot: u32, entry: Option<IndexEntry>) {
        self.changes
            .get_or_insert_with(prefix, Vec::new)
            .push((snapshot, entry));
    }

    /// Dates of all snapshots, ascending.
    pub fn snapshot_dates(&self) -> Vec<Date> {
        self.snapshots.iter().map(|s| s.date).collect() // one Date per snapshot (a few hundred)
    }

    /// Index of the snapshot in force on `date` (the latest snapshot at
    /// or before it), if any.
    fn snapshot_at(&self, date: Date) -> Option<usize> {
        self.snapshots
            .partition_point(|s| s.date <= date)
            .checked_sub(1)
    }

    /// The most specific block covering `prefix` whose entry exists at
    /// `snapshot`. Walks the covering chain without allocating.
    fn entry_matching(
        &self,
        prefix: &Ipv4Prefix,
        snapshot: usize,
    ) -> Option<(Ipv4Prefix, IndexEntry)> {
        self.changes
            .matches_iter(prefix)
            .filter_map(|(p, points)| entry_at(points, snapshot).map(|e| (p, e)))
            .last()
    }

    /// [`Self::entry_matching`] at the snapshot in force on `date`.
    fn entry_on(&self, prefix: &Ipv4Prefix, date: Date) -> Option<(Ipv4Prefix, IndexEntry)> {
        self.entry_matching(prefix, self.snapshot_at(date)?)
    }

    /// Longest-match status of `prefix` on `date`. `None` when no
    /// snapshot is in force or no record covers the prefix (legacy space
    /// outside the modeled world, or pre-archive dates).
    pub fn status_of(&self, prefix: &Ipv4Prefix, date: Date) -> Option<StatusAt> {
        let (matched, entry) = self.entry_on(prefix, date)?;
        Some(StatusAt {
            rir: entry.rir,
            status: entry.status,
            allocated_on: entry.allocated_on,
            opaque_id: self.orgs.get(entry.org).to_owned(),
            matched,
        })
    }

    /// True when the stats in force on `date` show `prefix` as delegated.
    pub fn is_allocated(&self, prefix: &Ipv4Prefix, date: Date) -> bool {
        self.entry_on(prefix, date)
            .is_some_and(|(_, e)| e.status.is_delegated())
    }

    /// The paper's "unallocated": not delegated (free pool, reserved, or
    /// entirely unknown to the stats).
    pub fn is_unallocated(&self, prefix: &Ipv4Prefix, date: Date) -> bool {
        !self.is_allocated(prefix, date)
    }

    /// The registry managing `prefix` on `date` (whatever the status).
    pub fn rir_managing(&self, prefix: &Ipv4Prefix, date: Date) -> Option<Rir> {
        self.entry_on(prefix, date).map(|(_, e)| e.rir)
    }

    /// The first snapshot date in `(after, until]` on which `prefix` is
    /// no longer delegated, given it was delegated at `after` — the §4.1
    /// deallocation detector.
    pub fn deallocation_date(&self, prefix: &Ipv4Prefix, after: Date, until: Date) -> Option<Date> {
        if !self.is_allocated(prefix, after) {
            return None;
        }
        self.snapshots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.date > after && s.date <= until)
            .find(|&(snapshot, _)| {
                self.entry_matching(prefix, snapshot)
                    .is_none_or(|(_, e)| !e.status.is_delegated())
            })
            .map(|(_, s)| s.date)
    }

    /// Size of `rir`'s free pool (sum of `available` rows) on `date`.
    pub fn free_pool(&self, rir: Rir, date: Date) -> AddressSpace {
        self.snapshot_at(date)
            .and_then(|i| self.snapshots.get(i))
            .and_then(|s| s.free_pool.get(&rir).copied())
            .unwrap_or(AddressSpace::ZERO)
    }

    /// Space delegated by `rir` on `date`.
    pub fn delegated_space(&self, rir: Rir, date: Date) -> AddressSpace {
        self.snapshot_at(date)
            .and_then(|i| self.snapshots.get(i))
            .and_then(|s| s.delegated.get(&rir).copied())
            .unwrap_or(AddressSpace::ZERO)
    }

    /// Every CIDR block delegated on any of `dates`, once for each such
    /// date, in address order and then in the order of `dates`: one walk
    /// of the change points answers every date, where a walk per date
    /// would visit each block once per date. A [`Delegation`] names its
    /// date by its position in `dates`.
    pub fn delegated_on<'a>(&'a self, dates: &[Date]) -> impl Iterator<Item = Delegation<'a>> + 'a {
        // Each date's snapshot, found once and shared by every block's
        // walk without a copy.
        let snapshots: Rc<[(usize, usize)]> = dates
            .iter()
            .enumerate()
            .filter_map(|(sample, &date)| Some((sample, self.snapshot_at(date)?)))
            .collect();
        self.changes.iter().flat_map(move |(prefix, points)| {
            let snapshots = Rc::clone(&snapshots);
            (0..snapshots.len()).filter_map(move |k| {
                // k < snapshots.len()
                let (sample, snapshot) = snapshots[k];
                let e = entry_at(points, snapshot)?;
                e.status.is_delegated().then(|| Delegation {
                    prefix,
                    sample,
                    rir: e.rir,
                    org: self.orgs.get(e.org),
                })
            })
        })
    }

    /// Every delegated CIDR prefix in force on `date`, with its registry
    /// and org handle, in address order: [`Self::delegated_on`] for one
    /// date.
    pub fn delegated_prefixes_at(&self, date: Date) -> Vec<(Ipv4Prefix, Rir, String)> {
        self.delegated_on(&[date])
            .map(|d| (d.prefix, d.rir, d.org.to_owned()))
            .collect()
    }
}

/// One CIDR block delegated on one date of a
/// [`RirStatsArchive::delegated_on`] walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delegation<'a> {
    /// The block.
    pub prefix: Ipv4Prefix,
    /// Position of the date in the walk's `dates`.
    pub sample: usize,
    /// Delegating registry.
    pub rir: Rir,
    /// Registry-internal organization handle.
    pub org: &'a str,
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

    fn file(rir: Rir, date: Date, records: Vec<DelegationRecord>) -> StatsFile {
        StatsFile { rir, date, records }
    }

    fn build() -> RirStatsArchive {
        let mut a = RirStatsArchive::new();
        a.try_add_snapshot(
            d("2019-06-01"),
            &[file(
                Rir::Lacnic,
                d("2019-06-01"),
                vec![
                    DelegationRecord::allocated(
                        Rir::Lacnic,
                        "PE",
                        "132.255.0.0".parse().unwrap(),
                        1024,
                        d("2014-03-01"),
                        "PE-ORG1",
                    ),
                    DelegationRecord::available(
                        Rir::Lacnic,
                        "45.224.0.0".parse().unwrap(),
                        1 << 20,
                    ),
                ],
            )],
        )
        .unwrap();
        a.try_add_snapshot(
            d("2021-01-01"),
            &[file(
                Rir::Lacnic,
                d("2021-01-01"),
                vec![
                    // The /22 was deallocated; part of free pool handed out.
                    DelegationRecord::available(Rir::Lacnic, "132.255.0.0".parse().unwrap(), 1024),
                    DelegationRecord::allocated(
                        Rir::Lacnic,
                        "BR",
                        "45.224.0.0".parse().unwrap(),
                        1 << 19,
                        d("2020-10-01"),
                        "BR-ORG9",
                    ),
                    DelegationRecord::available(
                        Rir::Lacnic,
                        "45.232.0.0".parse().unwrap(),
                        1 << 19,
                    ),
                ],
            )],
        )
        .unwrap();
        a
    }

    #[test]
    fn status_resolution_over_time() {
        let a = build();
        let pfx = p("132.255.0.0/22");
        // Before any snapshot: unknown.
        assert!(a.status_of(&pfx, d("2019-01-01")).is_none());
        assert!(a.is_unallocated(&pfx, d("2019-01-01")));
        // First era: allocated.
        let s = a.status_of(&pfx, d("2020-01-01")).unwrap();
        assert_eq!(s.rir, Rir::Lacnic);
        assert!(s.status.is_delegated());
        assert_eq!(s.allocated_on, Some(d("2014-03-01")));
        assert_eq!(s.opaque_id, "PE-ORG1");
        assert!(a.is_allocated(&pfx, d("2020-01-01")));
        // Second era: back in the pool.
        assert!(a.is_unallocated(&pfx, d("2021-06-01")));
        assert_eq!(a.rir_managing(&pfx, d("2021-06-01")), Some(Rir::Lacnic));
    }

    #[test]
    fn longest_match_inside_allocation() {
        let a = build();
        // A /24 inside the allocated /22.
        assert!(a.is_allocated(&p("132.255.1.0/24"), d("2020-01-01")));
        // A /16 above it is not covered by the record.
        assert!(a.status_of(&p("132.255.0.0/16"), d("2020-01-01")).is_none());
    }

    #[test]
    fn deallocation_detection() {
        let a = build();
        let pfx = p("132.255.0.0/22");
        assert_eq!(
            a.deallocation_date(&pfx, d("2020-01-01"), d("2022-03-30")),
            Some(d("2021-01-01"))
        );
        // Not allocated at the reference date: no deallocation event.
        assert_eq!(
            a.deallocation_date(&pfx, d("2021-06-01"), d("2022-03-30")),
            None
        );
        // Window too short to reach the change.
        assert_eq!(
            a.deallocation_date(&pfx, d("2020-01-01"), d("2020-12-31")),
            None
        );
    }

    #[test]
    fn free_pool_accounting() {
        let a = build();
        assert_eq!(
            a.free_pool(Rir::Lacnic, d("2020-01-01")).addresses(),
            1 << 20
        );
        // After the allocation: half the pool gone, plus the returned /22.
        assert_eq!(
            a.free_pool(Rir::Lacnic, d("2021-06-01")).addresses(),
            (1 << 19) + 1024
        );
        assert_eq!(a.free_pool(Rir::Arin, d("2021-06-01")), AddressSpace::ZERO);
        assert_eq!(
            a.free_pool(Rir::Lacnic, d("2018-01-01")),
            AddressSpace::ZERO
        );
    }

    #[test]
    fn delegated_space_accounting() {
        let a = build();
        assert_eq!(
            a.delegated_space(Rir::Lacnic, d("2020-01-01")).addresses(),
            1024
        );
        assert_eq!(
            a.delegated_space(Rir::Lacnic, d("2021-06-01")).addresses(),
            1 << 19
        );
    }

    #[test]
    fn delegated_prefixes_walk() {
        let a = build();
        let delegated = a.delegated_prefixes_at(d("2021-06-01"));
        assert_eq!(delegated.len(), 1);
        assert_eq!(delegated[0].0, p("45.224.0.0/13"));
        assert_eq!(delegated[0].2, "BR-ORG9");
        assert!(a.delegated_prefixes_at(d("2018-01-01")).is_empty());
    }

    #[test]
    fn out_of_order_snapshot_is_rejected() {
        let mut a = build();
        assert!(a.try_add_snapshot(d("2020-01-01"), &[]).is_err());
        assert!(a.try_add_snapshot(d("2021-01-01"), &[]).is_err());
        assert_eq!(a.snapshot_dates(), vec![d("2019-06-01"), d("2021-01-01")]);
    }

    #[test]
    fn snapshot_dates() {
        let a = build();
        assert_eq!(a.snapshot_dates(), vec![d("2019-06-01"), d("2021-01-01")]);
    }
}
