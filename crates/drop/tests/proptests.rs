//! Property-based tests: snapshot diffing must reconstruct exactly the
//! listing schedule that produced the snapshots, and the text format must
//! round-trip arbitrary snapshots.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use std::collections::BTreeMap;

use droplens_drop::{DropSnapshot, DropTimeline, SblId};
use droplens_net::{Date, Ipv4Prefix};
use proptest::prelude::*;

const EPOCH: i32 = 18_000;

fn prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (0u32..12, 18u8..24).prop_map(|(i, len)| Ipv4Prefix::from_u32(0x0a00_0000 | (i << 20), len))
}

/// A listing schedule: per prefix, an add offset and an optional removal
/// offset strictly after it.
fn schedule() -> impl Strategy<Value = Vec<(Ipv4Prefix, i32, Option<i32>)>> {
    prop::collection::btree_map(prefix(), (0i32..40, prop::option::of(1i32..40)), 0..10).prop_map(
        |m| {
            m.into_iter()
                .map(|(p, (add, rm))| (p, add, rm.map(|r| add + r)))
                .collect()
        },
    )
}

/// The snapshot writer the byte-level one replaced, kept as its
/// reference: every line through `write!`.
fn to_text_by_display(snap: &DropSnapshot) -> String {
    use std::fmt::Write as _;
    let (y, m, d) = snap.date.ymd();
    let mut out = String::new();
    let _ = write!(
        out,
        "; Spamhaus DROP List {y}/{m:02}/{d:02} - (c) {y} The Spamhaus Project\n; Entries: {}\n",
        snap.entries.len()
    );
    for (prefix, sbl) in &snap.entries {
        let _ = match sbl {
            Some(id) => writeln!(out, "{prefix} ; {id}"),
            None => writeln!(out, "{prefix}"),
        };
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn timeline_reconstructs_schedule(schedule in schedule()) {
        // Build daily snapshots over a window covering everything.
        let start = Date::from_days_since_epoch(EPOCH);
        let days = 90;
        let snapshots: Vec<DropSnapshot> = (0..days)
            .map(|off| {
                let day = start + off;
                let mut snap = DropSnapshot::new(day);
                for (i, &(p, add, rm)) in schedule.iter().enumerate() {
                    let added = start + add;
                    let removed = rm.map(|r| start + r);
                    if day >= added && removed.is_none_or(|r| day < r) {
                        snap.insert(p, Some(SblId(1000 + i as u32)));
                    }
                }
                snap
            })
            .collect();

        let timeline = DropTimeline::from_snapshots(&snapshots);
        let episodes: BTreeMap<Ipv4Prefix, _> = timeline
            .entries()
            .iter()
            .map(|e| (e.prefix, (e.added, e.removed)))
            .collect();

        prop_assert_eq!(episodes.len(), schedule.len());
        for &(p, add, rm) in &schedule {
            let (added, removed) = episodes[&p];
            prop_assert_eq!(added, start + add, "{}", p);
            prop_assert_eq!(removed, rm.map(|r| start + r), "{}", p);
        }

        // listed_on agrees with the schedule on every day.
        for off in 0..days {
            let day = start + off;
            for &(p, add, rm) in &schedule {
                let expected = day >= start + add && rm.is_none_or(|r| day < start + r);
                prop_assert_eq!(timeline.listed_on(&p, day), expected, "{} on {}", p, day);
            }
        }
    }

    #[test]
    fn snapshot_text_round_trips(entries in prop::collection::btree_map(prefix(), prop::option::of(1u32..1_000_000), 0..20),
                                 off in 0i32..2000) {
        let date = Date::from_days_since_epoch(EPOCH + off);
        let mut snap = DropSnapshot::new(date);
        for (p, sbl) in entries {
            snap.insert(p, sbl.map(SblId));
        }
        let text = snap.to_text();
        prop_assert_eq!(DropSnapshot::parse(date, &text).expect("own output parses"), snap);
    }

    #[test]
    fn snapshot_text_equals_its_display_lines(
        entries in prop::collection::btree_map(
            (any::<u32>(), 0u8..=32).prop_map(|(a, len)| Ipv4Prefix::from_u32(a, len)),
            prop::option::of(any::<u32>()),
            0..20,
        ),
        day in -354_285i32..=2_932_896,
    ) {
        let mut snap = DropSnapshot::new(Date::from_days_since_epoch(day));
        for (p, sbl) in entries {
            snap.insert(p, sbl.map(SblId));
        }
        prop_assert_eq!(snap.to_text(), to_text_by_display(&snap));
    }

    #[test]
    fn relisting_produces_separate_episodes(gap in 1i32..20, second_len in 1i32..20) {
        let start = Date::from_days_since_epoch(EPOCH);
        let p: Ipv4Prefix = "10.0.0.0/20".parse().expect("prefix");
        // Listed days 0..5, relisted after `gap`, for `second_len` days.
        let first_end = 5;
        let second_start = first_end + gap;
        let second_end = second_start + second_len;
        let snapshots: Vec<DropSnapshot> = (0..second_end + 5)
            .map(|off| {
                let day = start + off;
                let mut snap = DropSnapshot::new(day);
                if (0..first_end).contains(&off) || (second_start..second_end).contains(&off) {
                    snap.insert(p, Some(SblId(1)));
                }
                snap
            })
            .collect();
        let timeline = DropTimeline::from_snapshots(&snapshots);
        let eps = timeline.for_prefix(&p);
        prop_assert_eq!(eps.len(), 2);
        prop_assert_eq!(eps[0].added, start);
        prop_assert_eq!(eps[0].removed, Some(start + first_end));
        prop_assert_eq!(eps[1].added, start + second_start);
        prop_assert_eq!(eps[1].removed, Some(start + second_end));
        prop_assert_eq!(timeline.unique_prefixes(), vec![p]);
    }
}
