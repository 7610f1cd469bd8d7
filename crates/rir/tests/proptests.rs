//! Property-based tests: CIDR decomposition of delegation spans, stats
//! file round-trips, and temporal archive consistency, including the
//! change-point archive against a one-trie-per-snapshot reference.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use std::net::Ipv4Addr;

use droplens_net::{Date, Ipv4Prefix, PrefixTrie};
use droplens_rir::format::{parse_stats_file, write_stats_file, StatsFile};
use droplens_rir::{
    AllocationStatus, Delegation, DelegationRecord, Rir, RirStatsArchive, StatusAt,
};
use proptest::prelude::*;

fn rir() -> impl Strategy<Value = Rir> {
    prop::sample::select(Rir::ALL.to_vec())
}

fn span() -> impl Strategy<Value = (u32, u64)> {
    // Arbitrary start, count bounded so start+count fits.
    (any::<u32>(), 1u64..100_000).prop_map(|(start, count)| {
        let max = (1u64 << 32) - u64::from(start);
        (start, count.min(max))
    })
}

fn record() -> impl Strategy<Value = DelegationRecord> {
    (rir(), span(), prop::bool::ANY, 0i32..9_000).prop_map(|(rir, (start, count), alloc, off)| {
        if alloc {
            DelegationRecord::allocated(
                rir,
                "US",
                Ipv4Addr::from(start),
                count,
                Date::from_days_since_epoch(10_000 + off),
                "ORG-X",
            )
        } else {
            DelegationRecord::available(rir, Ipv4Addr::from(start), count)
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn decomposition_is_exact_disjoint_and_ordered((start, count) in span()) {
        let rec = DelegationRecord::available(Rir::Arin, Ipv4Addr::from(start), count);
        let prefixes = rec.prefixes();
        // Exact coverage.
        let total: u64 = prefixes.iter().map(|p| p.address_count()).sum();
        prop_assert_eq!(total, count);
        // Contiguous from the start, in order, disjoint.
        let mut cursor = u64::from(start);
        for p in &prefixes {
            prop_assert_eq!(u64::from(p.network_u32()), cursor);
            cursor += p.address_count();
        }
        // Minimality: a greedy decomposition never needs more than
        // 2*32 blocks.
        prop_assert!(prefixes.len() <= 64, "{} blocks", prefixes.len());
    }

    #[test]
    fn stats_file_round_trips(records in prop::collection::vec(record(), 0..20), rir in rir(), off in 0i32..9000) {
        // All rows in one file must belong to the file's registry.
        let records: Vec<DelegationRecord> = records
            .into_iter()
            .map(|mut r| {
                r.rir = rir;
                r
            })
            .collect();
        let file = StatsFile {
            rir,
            date: Date::from_days_since_epoch(10_000 + off),
            records,
        };
        let text = write_stats_file(&file);
        prop_assert_eq!(parse_stats_file(&text).expect("own output parses"), file);
    }

    #[test]
    fn archive_status_matches_snapshot_contents(
        blocks in prop::collection::vec((0u32..16, prop::bool::ANY), 1..10),
        probe_block in 0u32..16,
    ) {
        // One snapshot with /12 blocks inside 10.0.0.0/8, alternating
        // allocated/available.
        let date = Date::from_ymd(2020, 1, 1);
        let records: Vec<DelegationRecord> = blocks
            .iter()
            .map(|&(i, delegated)| {
                let start = Ipv4Addr::from(0x0a00_0000 | (i << 20));
                if delegated {
                    DelegationRecord::allocated(Rir::Arin, "US", start, 1 << 20, date, "ORG")
                } else {
                    DelegationRecord::available(Rir::Arin, start, 1 << 20)
                }
            })
            .collect();
        let mut archive = RirStatsArchive::new();
        archive
            .try_add_snapshot(date, &[StatsFile { rir: Rir::Arin, date, records: records.clone() }])
            .unwrap();

        let query = droplens_net::Ipv4Prefix::from_u32(0x0a00_0000 | (probe_block << 20), 12);
        let expected = records
            .iter()
            .rev() // later rows overwrite earlier in the trie
            .find(|r| u32::from(r.start) == query.network_u32())
            .map(|r| r.status);
        match (archive.status_of(&query, date), expected) {
            (Some(got), Some(status)) => {
                prop_assert_eq!(got.status, status);
                prop_assert_eq!(got.rir, Rir::Arin);
                prop_assert_eq!(
                    archive.is_allocated(&query, date),
                    status.is_delegated()
                );
            }
            (None, None) => {}
            (got, expected) => {
                return Err(TestCaseError::fail(format!("{got:?} vs {expected:?}")));
            }
        }
        // Before the snapshot: nothing resolves.
        prop_assert!(archive.status_of(&query, date.pred()).is_none());
    }

    #[test]
    fn free_pool_equals_sum_of_available_rows(blocks in prop::collection::vec((0u32..16, prop::bool::ANY), 1..12)) {
        let date = Date::from_ymd(2020, 1, 1);
        let mut seen = std::collections::BTreeSet::new();
        let records: Vec<DelegationRecord> = blocks
            .iter()
            .filter(|(i, _)| seen.insert(*i))
            .map(|&(i, delegated)| {
                let start = Ipv4Addr::from(0x0a00_0000 | (i << 20));
                if delegated {
                    DelegationRecord::allocated(Rir::Lacnic, "BR", start, 1 << 20, date, "ORG")
                } else {
                    DelegationRecord::available(Rir::Lacnic, start, 1 << 20)
                }
            })
            .collect();
        let expected: u64 = records
            .iter()
            .filter(|r| r.status == AllocationStatus::Available)
            .map(|r| r.count)
            .sum();
        let mut archive = RirStatsArchive::new();
        archive
            .try_add_snapshot(date, &[StatsFile { rir: Rir::Lacnic, date, records }])
            .unwrap();
        prop_assert_eq!(archive.free_pool(Rir::Lacnic, date).addresses(), expected);
        prop_assert_eq!(archive.free_pool(Rir::Arin, date).addresses(), 0);
    }
}

/// One snapshot's rows in the per-snapshot reference: a trie from each
/// CIDR block to the index of the last row that lists it.
struct RefSnapshot {
    date: Date,
    rows: Vec<DelegationRecord>,
    index: PrefixTrie<u32>,
}

/// The archive as one trie per snapshot: the layout the change-point
/// archive replaced, kept here as the reference it must agree with.
struct Reference {
    snapshots: Vec<RefSnapshot>,
}

impl Reference {
    fn new(snapshots: &[(Date, Vec<StatsFile>)]) -> Reference {
        let snapshots = snapshots
            .iter()
            .map(|(date, files)| {
                let rows: Vec<DelegationRecord> =
                    files.iter().flat_map(|f| f.records.clone()).collect();
                let mut index = PrefixTrie::new();
                for (id, row) in rows.iter().enumerate() {
                    for prefix in row.prefixes() {
                        index.insert(prefix, id as u32);
                    }
                }
                RefSnapshot {
                    date: *date,
                    rows,
                    index,
                }
            })
            .collect();
        Reference { snapshots }
    }

    fn at(&self, date: Date) -> Option<&RefSnapshot> {
        let idx = self.snapshots.partition_point(|s| s.date <= date);
        idx.checked_sub(1).map(|i| &self.snapshots[i])
    }

    fn matching<'a>(
        snapshot: &'a RefSnapshot,
        prefix: &Ipv4Prefix,
    ) -> Option<(Ipv4Prefix, &'a DelegationRecord)> {
        let (matched, &id) = snapshot.index.longest_match(prefix)?;
        Some((matched, &snapshot.rows[id as usize]))
    }

    fn status_of(&self, prefix: &Ipv4Prefix, date: Date) -> Option<StatusAt> {
        let (matched, row) = Self::matching(self.at(date)?, prefix)?;
        Some(StatusAt {
            rir: row.rir,
            status: row.status,
            allocated_on: row.date,
            opaque_id: row.opaque_id.to_string(),
            matched,
        })
    }

    fn deallocation_date(&self, prefix: &Ipv4Prefix, after: Date, until: Date) -> Option<Date> {
        if !self
            .status_of(prefix, after)
            .is_some_and(|s| s.status.is_delegated())
        {
            return None;
        }
        self.snapshots
            .iter()
            .filter(|s| s.date > after && s.date <= until)
            .find(|s| Self::matching(s, prefix).is_none_or(|(_, r)| !r.status.is_delegated()))
            .map(|s| s.date)
    }

    fn total(&self, rir: Rir, date: Date, counted: impl Fn(AllocationStatus) -> bool) -> u64 {
        self.at(date).map_or(0, |s| {
            s.rows
                .iter()
                .filter(|r| r.rir == rir && counted(r.status))
                .map(|r| r.count)
                .sum()
        })
    }

    fn delegated_prefixes_at(&self, date: Date) -> Vec<(Ipv4Prefix, Rir, String)> {
        self.at(date).map_or_else(Vec::new, |s| {
            s.index
                .iter()
                .map(|(p, &id)| (p, &s.rows[id as usize]))
                .filter(|(_, r)| r.status.is_delegated())
                .map(|(p, r)| (p, r.rir, r.opaque_id.to_string()))
                .collect()
        })
    }
}

/// A row template inside 10.0.0.0/20: first 256-address block, length
/// in blocks (3 and 5, and 2 or 4 from an unaligned start, split into
/// several CIDR blocks), status, org and allocation date, each drawn
/// from a small set so that rows recur.
type RowTemplate = (u32, u64, usize, usize, i32);

fn row_template() -> impl Strategy<Value = RowTemplate> {
    (0u32..8, 1u64..6, 0usize..4, 0usize..3, 0i32..3)
}

fn materialize(rir: Rir, (block, blocks, status, org, day): RowTemplate) -> DelegationRecord {
    const STATUSES: [AllocationStatus; 4] = [
        AllocationStatus::Allocated,
        AllocationStatus::Assigned,
        AllocationStatus::Available,
        AllocationStatus::Reserved,
    ];
    let status = STATUSES[status];
    DelegationRecord {
        rir,
        country: "ZZ".into(),
        start: Ipv4Addr::from(0x0a00_0000 + block * 256),
        count: blocks * 256,
        date: status
            .is_delegated()
            .then(|| Date::from_days_since_epoch(15_000 + day)),
        status,
        opaque_id: ["ORG-A", "ORG-B", "ORG-C"][org].into(),
    }
}

/// Every block of 10.0.0.0/20 from /20 to /25, plus one disjoint block.
fn query_prefixes() -> Vec<Ipv4Prefix> {
    let mut out = vec![Ipv4Prefix::from_u32(0x0b00_0000, 24)];
    for len in 20u8..=25 {
        let step = 1u32 << (32 - len);
        out.extend(
            (0..(1u32 << (len - 20))).map(|i| Ipv4Prefix::from_u32(0x0a00_0000 + i * step, len)),
        );
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn archive_matches_per_snapshot_reference(
        pool in prop::collection::vec(row_template(), 1..8),
        plan in prop::collection::vec(
            (1i32..20, prop::collection::vec((0usize..5, prop::collection::vec(0usize..16, 0..6)), 0..3)),
            1..9,
        ),
    ) {
        // Files draw rows from a shared pool, so rows overlap inside one
        // file and across files, and vanish and return across snapshots;
        // a snapshot with no files, or only empty ones, is empty.
        let mut date = Date::from_ymd(2020, 1, 1);
        let mut snapshots: Vec<(Date, Vec<StatsFile>)> = Vec::new();
        for (gap, files) in &plan {
            date += *gap;
            let files = files
                .iter()
                .map(|(rir, rows)| {
                    let rir = Rir::ALL[*rir];
                    let records = rows.iter().map(|&i| materialize(rir, pool[i % pool.len()])).collect();
                    StatsFile { rir, date, records }
                })
                .collect();
            snapshots.push((date, files));
        }
        let mut archive = RirStatsArchive::new();
        for (date, files) in &snapshots {
            archive.try_add_snapshot(*date, files).unwrap();
        }
        let reference = Reference::new(&snapshots);

        let dates: Vec<Date> = snapshots.iter().map(|(d, _)| *d).collect();
        prop_assert_eq!(archive.snapshot_dates(), dates.clone());
        // Before, on, between (the day after each snapshot, and the day
        // before the next) and after the snapshots.
        let mut probes = vec![dates[0] - 30];
        for d in &dates {
            probes.extend([d.pred(), *d, d.succ()]);
        }
        probes.push(*dates.last().expect("one snapshot at least") + 30);
        let mut untils = dates.clone();
        untils.push(dates[dates.len() - 1] + 30);

        for &day in &probes {
            for prefix in &query_prefixes() {
                let expected = reference.status_of(prefix, day);
                prop_assert_eq!(archive.status_of(prefix, day), expected.clone(), "{} on {}", prefix, day);
                prop_assert_eq!(
                    archive.is_allocated(prefix, day),
                    expected.as_ref().is_some_and(|s| s.status.is_delegated())
                );
                prop_assert_eq!(archive.rir_managing(prefix, day), expected.map(|s| s.rir));
                for &until in &untils {
                    prop_assert_eq!(
                        archive.deallocation_date(prefix, day, until),
                        reference.deallocation_date(prefix, day, until),
                        "{} from {} until {}", prefix, day, until
                    );
                }
            }
            prop_assert_eq!(archive.delegated_prefixes_at(day), reference.delegated_prefixes_at(day), "on {}", day);
            for rir in Rir::ALL {
                prop_assert_eq!(
                    archive.free_pool(rir, day).addresses(),
                    reference.total(rir, day, |s| s == AllocationStatus::Available)
                );
                prop_assert_eq!(
                    archive.delegated_space(rir, day).addresses(),
                    reference.total(rir, day, AllocationStatus::is_delegated)
                );
            }
        }

        // One walk over every probe day at once, in date order and
        // reversed, gives each day's delegated blocks.
        for days in [probes.clone(), probes.iter().rev().copied().collect()] {
            let walk: Vec<Delegation> = archive.delegated_on(&days).collect();
            prop_assert!(
                walk.windows(2).all(|w| w[0].prefix < w[1].prefix
                    || (w[0].prefix == w[1].prefix && w[0].sample < w[1].sample)),
                "walk out of (block, date) order"
            );
            for (sample, &day) in days.iter().enumerate() {
                let on_day: Vec<(Ipv4Prefix, Rir, String)> = walk
                    .iter()
                    .filter(|d| d.sample == sample)
                    .map(|d| (d.prefix, d.rir, d.org.to_owned()))
                    .collect();
                prop_assert_eq!(on_day, reference.delegated_prefixes_at(day), "on {} of a multi-date walk", day);
            }
        }
    }
}
