//! The RIR stage of the load parses each distinct delegated-stats row
//! once across a registry's snapshots ([`load_rir_stats`]). These
//! properties check it against the loader it replaced: every file parsed
//! in full with `parse_stats_file_with`, the same per-date merge, the flicker repair over owned rows, and
//! `RirStatsArchive::try_add_snapshot`, all kept below as test code.
//!
//! The generated series edit each registry's file from date to date
//! with repeated, inserted, deleted (also in runs longer than the
//! series' reuse window) and reordered lines, duplicate rows and
//! overlapping blocks, malformed lines that stay in later files, digit-
//! led lines before the version line, stray version lines that are rows
//! in one file and the version line of the next, files without a
//! version line, dates with fewer or more payloads than registries, and
//! both ingest policies.

#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // test code: panics are failures

use std::collections::BTreeSet;
use std::net::Ipv4Addr;

use droplens_core::{load_rir_stats, LoadedStats};
use droplens_net::{Date, IngestPolicy, Ipv4Prefix, LocatedError, Quarantine};
use droplens_rir::format::{
    parse_stats_file_with, SharedStatsFile, StatsFile, StatsRows, StatsSeries,
};
use droplens_rir::{DelegationRecord, Rir, RirStatsArchive};
use droplens_synth::codec::ArchiveFile;
use proptest::prelude::*;

/// SplitMix64: the generator's own stream, so one `u64` seed drives a
/// whole series.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

/// A row over sixteen /22s of 10.0.0.0/18, so blocks overlap and rows
/// repeat; now and then another registry's row.
fn row_line(rng: &mut Rng, rir: Rir) -> String {
    let owner = if rng.chance(90) {
        rir
    } else {
        Rir::ALL[rng.below(Rir::ALL.len())]
    };
    let start = Ipv4Addr::new(10, 0, 4 * rng.below(16) as u8, 0);
    let count = [256, 512, 768, 1024][rng.below(4)];
    let org = ["ORG-A", "ORG-B", "ORG-C"][rng.below(3)];
    let (cc, date, status, org) = match rng.below(4) {
        0 => ("ZZ", "", "available", ""),
        1 => ("ZZ", "", "reserved", ""),
        2 => ("AU", "20150101", "allocated", org),
        _ => ("BR", "20160301", "assigned", org),
    };
    format!(
        "{}|{cc}|ipv4|{start}|{count}|{date}|{status}|{org}",
        owner.token()
    )
}

/// A line the parser rejects, made from `line`.
fn corrupt(rng: &mut Rng, line: &str) -> String {
    match rng.below(4) {
        0 => line.replacen("|ipv4|10.", "|ipv4|nonsense.", 1),
        1 => line.split('|').take(5).collect::<Vec<_>>().join("|"),
        2 => line.replacen("|ipv4|", "|ipv4|999.", 1),
        _ => format!(
            "{}|bogus|x",
            line.split('|').take(6).collect::<Vec<_>>().join("|")
        ),
    }
}

fn version_line(rir: Rir, date: Date, rows: usize) -> String {
    format!(
        "2|{}|{}|{rows}|19830613|{}|+0000",
        rir.token(),
        date.compact(),
        date.compact()
    )
}

/// Edit a registry's body from one date to the next.
fn edit(rng: &mut Rng, body: &mut Vec<String>, rir: Rir) {
    for _ in 0..rng.below(5) {
        let len = body.len();
        match rng.below(10) {
            // Delete a run, now and then one longer than the reuse window.
            0 if len > 0 => {
                let at = rng.below(len);
                let longest = if rng.chance(25) { 40 } else { 3 };
                let run = 1 + rng.below(longest);
                body.drain(at..(at + run).min(len));
            }
            1 => body.insert(rng.below(len + 1), row_line(rng, rir)),
            2 if len > 0 => body[rng.below(len)] = row_line(rng, rir),
            // Reorder: move one line elsewhere.
            3 if len > 0 => {
                let line = body.remove(rng.below(len));
                body.insert(rng.below(len), line);
            }
            // Duplicate a row next to itself or at the end.
            4 if len > 0 => {
                let line = body[rng.below(len)].clone();
                let at = if rng.chance(50) {
                    len
                } else {
                    rng.below(len + 1)
                };
                body.insert(at, line);
            }
            // A malformed line, which later files repeat.
            5 if len > 0 => {
                let at = rng.below(len);
                body[at] = corrupt(rng, &body[at]);
            }
            // A run of new rows longer than the reuse window.
            6 => {
                let at = rng.below(len + 1);
                for _ in 0..20 {
                    body.insert(at, row_line(rng, rir));
                }
            }
            7 => body.insert(rng.below(len + 1), "# comment".to_owned()),
            // A stray version line, dated long before the series: after
            // the real version line it is a skipped row, but in a file
            // that lacks one, it is that file's version line.
            8 => body.insert(
                rng.below(len + 1),
                version_line(rir, Date::from_ymd(2018, 1, 1), 0),
            ),
            _ => {}
        }
    }
}

/// A text series: per date, one payload per registry in `Rir::ALL`
/// order, or fewer, or one more.
fn text_series(seed: u64) -> Vec<(Date, Vec<String>)> {
    let mut rng = Rng(seed);
    let dates = 1 + rng.below(7);
    let mut bodies: Vec<Vec<String>> = Rir::ALL
        .iter()
        .map(|&rir| {
            (0..rng.below(30))
                .map(|_| row_line(&mut rng, rir))
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    for i in 0..dates {
        let date = Date::from_ymd(2019, 1, 1) + 31 * i as i32;
        let payloads = if rng.chance(15) {
            rng.below(Rir::ALL.len())
        } else {
            Rir::ALL.len()
        };
        let mut files = Vec::new();
        for (slot, &rir) in Rir::ALL.iter().enumerate() {
            if i > 0 {
                edit(&mut rng, &mut bodies[slot], rir);
            }
            if slot >= payloads {
                continue;
            }
            let mut lines = Vec::new();
            // Digit-led lines before the version line: one that is not a
            // version line, and one that is (another registry's or
            // date's), which turns the real one into a skipped row.
            if rng.chance(8) {
                lines.push("7|AU|ipv4|10.0.0.0|256||available|".to_owned());
            }
            if rng.chance(8) {
                let other = Rir::ALL[rng.below(Rir::ALL.len())];
                lines.push(version_line(other, date + rng.below(2) as i32, 0));
            }
            // Now and then no version line: the file is dropped whole.
            if !rng.chance(8) {
                lines.push(version_line(rir, date, bodies[slot].len()));
            }
            if rng.chance(50) {
                lines.push(format!(
                    "{}|*|ipv4|*|{}|summary",
                    rir.token(),
                    bodies[slot].len()
                ));
            }
            lines.extend(bodies[slot].iter().cloned());
            files.push(lines.join("\n") + "\n");
        }
        // A payload past the last registry is never read, but it makes
        // the snapshot partial.
        if payloads == Rir::ALL.len() && rng.chance(30) {
            files.push(String::new());
        }
        out.push((date, files));
    }
    out
}

fn policy(strict: bool) -> IngestPolicy {
    if strict {
        IngestPolicy::Strict
    } else {
        IngestPolicy::permissive()
    }
}

/// The flicker repair as it was over owned rows.
fn reference_repair(snapshots: &mut [(Date, Vec<StatsFile>)], partial: &[bool]) {
    type Key = (Rir, Ipv4Addr, u64);
    let key = |r: &DelegationRecord| (r.rir, r.start, r.count);
    let mut keys: Vec<BTreeSet<Key>> = snapshots
        .iter()
        .map(|(_, files)| {
            files
                .iter()
                .flat_map(|f| f.records.iter().map(key))
                .collect()
        })
        .collect();
    for i in 1..snapshots.len() {
        if !partial[i] {
            continue;
        }
        let prev: Vec<DelegationRecord> = snapshots[i - 1]
            .1
            .iter()
            .flat_map(|f| f.records.iter().cloned())
            .collect();
        for record in prev {
            let k = key(&record);
            if keys[i].contains(&k) {
                continue;
            }
            let mut j = i + 1;
            let reappears = loop {
                match keys.get(j) {
                    Some(s) if s.contains(&k) => break true,
                    Some(_) if partial[j] => j += 1,
                    _ => break false,
                }
            };
            if !reappears {
                continue;
            }
            keys[i].insert(k);
            let (date, files) = &mut snapshots[i];
            match files.iter_mut().find(|f| f.rir == record.rir) {
                Some(f) => f.records.push(record),
                None => files.push(StatsFile {
                    rir: record.rir,
                    date: *date,
                    records: vec![record],
                }),
            }
        }
    }
}

/// Per date, its files with their rows owned.
type Snapshots = Vec<(Date, Vec<StatsFile>)>;

/// The loader as it was: every file parsed in full, merged by date then
/// registry, then repaired.
fn reference_load(
    snapshots: &[(Date, Vec<String>)],
    policy: &IngestPolicy,
) -> Result<(Snapshots, Quarantine), LocatedError> {
    let mut out = Vec::new();
    let mut partial = Vec::new();
    let mut ledger = Quarantine::for_policy("rir", policy);
    for (date, bodies) in snapshots {
        let mut kept = Vec::new();
        let mut merged = Quarantine::for_policy("rir", policy);
        for (rir, body) in Rir::ALL.into_iter().zip(bodies) {
            let mut q = Quarantine::for_policy(ArchiveFile::Stats(*date, rir).path(), policy);
            if let Some(file) = parse_stats_file_with(body, &mut q)? {
                kept.push(file);
            }
            merged.absorb(q);
        }
        let damaged = merged.quarantined > 0 || kept.len() < bodies.len();
        ledger.absorb(merged);
        if !kept.is_empty() {
            out.push((*date, kept));
            partial.push(damaged);
        }
    }
    reference_repair(&mut out, &partial);
    Ok((out, ledger))
}

fn materialize(rows: &StatsRows, files: &[SharedStatsFile]) -> Vec<StatsFile> {
    files
        .iter()
        .map(|f| StatsFile {
            rir: f.rir,
            date: f.date,
            records: f.records(rows).cloned().collect(),
        })
        .collect()
}

/// Every block the generated rows can name, their covering blocks, and
/// space outside them.
fn probes() -> Vec<Ipv4Prefix> {
    let mut out = vec![
        "10.0.0.0/16".parse().unwrap(),
        "10.0.0.0/18".parse().unwrap(),
        "11.0.0.0/24".parse().unwrap(),
    ];
    for block in 0..64u32 {
        let base = 0x0a00_0000 | (block << 8);
        out.push(Ipv4Prefix::from_u32(base, 24));
        out.push(Ipv4Prefix::from_u32(base | 0x80, 25));
        if block % 2 == 0 {
            out.push(Ipv4Prefix::from_u32(base, 23));
        }
        if block % 4 == 0 {
            out.push(Ipv4Prefix::from_u32(base, 22));
        }
    }
    out
}

/// The two archives answer every query alike.
fn same_answers(shared: &LoadedStats, reference: &[(Date, Vec<StatsFile>)]) {
    let mut got = RirStatsArchive::new();
    for (date, files) in &shared.snapshots {
        got.try_add_shared_snapshot(*date, &shared.rows, files)
            .unwrap();
    }
    let mut want = RirStatsArchive::new();
    for (date, files) in reference {
        want.try_add_snapshot(*date, files).unwrap();
    }
    let dates = want.snapshot_dates();
    assert_eq!(got.snapshot_dates(), dates);
    let Some(&last) = dates.last() else {
        return;
    };
    let mut days: Vec<Date> = dates.iter().flat_map(|&d| [d.pred(), d, d + 1]).collect();
    days.push(last + 40);
    let probes = probes();
    for &day in &days {
        for p in &probes {
            assert_eq!(
                got.status_of(p, day),
                want.status_of(p, day),
                "{p} on {day}"
            );
            assert_eq!(
                got.deallocation_date(p, day, last + 1),
                want.deallocation_date(p, day, last + 1),
                "{p} after {day}"
            );
        }
        assert_eq!(
            got.delegated_prefixes_at(day),
            want.delegated_prefixes_at(day),
            "{day}"
        );
        for rir in Rir::ALL {
            assert_eq!(got.free_pool(rir, day), want.free_pool(rir, day));
            assert_eq!(
                got.delegated_space(rir, day),
                want.delegated_space(rir, day)
            );
        }
    }
}

/// `load_rir_stats` equals the reference: the same error, or the same
/// snapshots, ledger and archive answers.
fn same_load(snapshots: &[(Date, Vec<String>)], policy: &IngestPolicy) {
    let got = load_rir_stats(snapshots, policy);
    let want = reference_load(snapshots, policy);
    match (got, want) {
        (Ok(got), Ok((want, ledger))) => {
            assert_eq!(got.ledger, ledger);
            let materialized: Snapshots = got
                .snapshots
                .iter()
                .map(|(date, files)| (*date, materialize(&got.rows, files)))
                .collect();
            assert_eq!(materialized, want);
            same_answers(&got, &want);
        }
        (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string()),
        (got, want) => panic!(
            "shared-row load {:?} but full parse {:?}",
            got.map(|_| "ok"),
            want.map(|_| "ok")
        ),
    }
}

/// Each registry's series, file by file, against a full parse of the
/// same file: the same rows, and the same ledger (counts and located
/// samples).
fn same_files(snapshots: &[(Date, Vec<String>)], policy: &IngestPolicy) {
    for (slot, rir) in Rir::ALL.into_iter().enumerate() {
        let mut series = StatsSeries::new();
        let mut pairs = Vec::new();
        for (date, bodies) in snapshots {
            let Some(body) = bodies.get(slot) else {
                continue;
            };
            let label = ArchiveFile::Stats(*date, rir).path();
            let mut full_q = Quarantine::for_policy(label.as_str(), policy);
            let mut shared_q = Quarantine::for_policy(label.as_str(), policy);
            let full = parse_stats_file_with(body, &mut full_q);
            let shared = series.parse_text(body, &mut shared_q);
            assert_eq!(shared_q, full_q, "{label}");
            match (shared, full) {
                (Ok(shared), Ok(full)) => pairs.push((shared, full)),
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string());
                    break;
                }
                (a, b) => panic!(
                    "{label}: series {:?}, full parse {:?}",
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
        let rows = series.into_rows();
        for (shared, full) in pairs {
            let shared = shared.map(|f| materialize(&rows, &[f]).remove(0));
            assert_eq!(shared, full);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn shared_row_text_ingest_equals_parsing_everything(seed in any::<u64>(), strict in any::<bool>()) {
        let series = text_series(seed);
        let policy = policy(strict);
        same_files(&series, &policy);
        same_load(&series, &policy);
    }
}

/// The generated series do reach the cases they are for: partial
/// snapshots repaired, files dropped whole, reused rows, and runs that
/// the reuse window misses.
#[test]
fn generated_series_cover_repairs_drops_and_reuse() {
    let (mut repaired, mut dropped, mut shared, mut stored) = (0, 0, 0usize, 0usize);
    for seed in 0..200u64 {
        let series = text_series(seed);
        let policy = IngestPolicy::permissive();
        let loaded = load_rir_stats(&series, &policy).unwrap();
        let (want, _) = reference_load(&series, &policy).unwrap();
        let mut unrepaired = Vec::new();
        for (date, bodies) in &series {
            let files: Vec<StatsFile> = Rir::ALL
                .into_iter()
                .zip(bodies)
                .filter_map(|(_, b)| {
                    parse_stats_file_with(b, &mut Quarantine::permissive("rir")).unwrap()
                })
                .collect();
            dropped +=
                usize::from(!files.is_empty() && files.len() < bodies.len().min(Rir::ALL.len()));
            if !files.is_empty() {
                unrepaired.push((*date, files));
            }
        }
        repaired += usize::from(unrepaired != want);
        shared += loaded
            .snapshots
            .iter()
            .map(|(_, files)| files.iter().map(|f| f.rows.len()).sum::<usize>())
            .sum::<usize>();
        stored += loaded.rows.len();
    }
    assert!(repaired > 50, "{repaired} series carried rows forward");
    assert!(dropped > 50, "{dropped} snapshots dropped a file");
    assert!(
        2 * shared > 3 * stored,
        "{shared} rows over {stored} stored"
    );
}
