//! CLI integration: generate an archive tree on disk, read it back, and
//! verify the analyses agree with the in-memory pipeline.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use std::path::{Path, PathBuf};

use droplens_cli::commands::IngestOptions;
use droplens_cli::{commands, layout};
use droplens_core::{IngestPolicy, Study};
use droplens_synth::{World, WorldConfig};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("droplens-test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn generate_then_analyze_round_trips() {
    let dir = temp_dir("roundtrip");
    let summary = commands::generate(&dir, 42, "small").expect("generate");
    assert!(summary.contains("listings"));

    // The tree has the documented shape, and nothing but it.
    for path in [
        "manifest.tsv",
        "bgp/updates.txt",
        "irr/journal.txt",
        "rpki/roas.csv",
        "sbl/records.txt",
        "labels/manual_labels.tsv",
    ] {
        assert!(dir.join(path).exists(), "{path} missing");
    }
    assert!(dir.join("drop").read_dir().expect("drop dir").count() > 100);
    assert!(dir.join("rir").read_dir().expect("rir dir").count() > 10);
    let bins: Vec<PathBuf> = files_under(&dir)
        .into_iter()
        .filter(|path| path.extension().is_some_and(|ext| ext == "bin"))
        .collect();
    assert!(bins.is_empty(), "{bins:?}");

    // Analysis over the on-disk tree equals the in-memory pipeline.
    let from_disk = commands::analyze(&dir, "all", &IngestOptions::default()).expect("analyze");
    let world = World::generate(42, &WorldConfig::small());
    let study = Study::from_world(&world);
    let in_memory = commands::run_experiments(&study, "all").expect("run");
    assert_eq!(from_disk, in_memory);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, at any depth.
fn files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            out.extend(files_under(&path));
        } else {
            out.push(path);
        }
    }
    out
}

/// The listing count of an `analyze --experiment summary` report.
fn listings(summary: &str) -> usize {
    let (head, _) = summary.split_once(" listings (").expect("summary line");
    let count = head.rsplit(' ').next().expect("count");
    count.parse().expect("numeric count")
}

#[test]
fn analyze_reads_the_drop_text_on_disk() {
    let dir = temp_dir("droptext");
    commands::generate(&dir, 7, "small").expect("generate");
    let summary = || commands::analyze(&dir, "summary", &IngestOptions::default());
    let before = listings(&summary().expect("analyze"));

    // Delete one prefix listed on the last day from every day's file.
    let mut days: Vec<PathBuf> = files_under(&dir.join("drop"))
        .into_iter()
        .filter(|path| path.extension().is_some_and(|ext| ext == "txt"))
        .collect();
    days.sort();
    let last = std::fs::read_to_string(days.last().expect("a day")).expect("read day");
    let prefix = last
        .lines()
        .find(|line| !line.starts_with(';'))
        .and_then(|line| line.split(" ; ").next())
        .expect("a listed prefix")
        .to_owned();
    for day in &days {
        let text = std::fs::read_to_string(day).expect("read day");
        let kept: String = text
            .lines()
            .filter(|line| line.split(" ; ").next() != Some(prefix.as_str()))
            .map(|line| format!("{line}\n"))
            .collect();
        std::fs::write(day, kept).expect("write day");
    }

    let after = listings(&summary().expect("analyze"));
    assert_eq!(after, before - 1, "deleted {prefix}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_single_experiment_selection() {
    let dir = temp_dir("single");
    commands::generate(&dir, 5, "small").expect("generate");
    let out = commands::analyze(&dir, "table1", &IngestOptions::default()).expect("analyze");
    assert!(out.contains("## table1"));
    assert!(!out.contains("## fig1"));
    assert!(commands::analyze(&dir, "nope", &IngestOptions::default()).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scorecard_over_archive_tree() {
    let dir = temp_dir("scorecard");
    commands::generate(&dir, 42, "small").expect("generate");
    let out = commands::scorecard(&dir, &IngestOptions::default()).expect("scorecard");
    assert!(out.contains("targets in band"), "{out}");
    assert!(out.contains("DROP-filtering peers"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_permissive_quarantines_corruption_and_writes_ledger() {
    let dir = temp_dir("quarantine");
    commands::generate(&dir, 7, "small").expect("generate");

    // Corrupt one BGP line in place: the default strict load must refuse
    // the tree, naming the damaged file.
    let updates = dir.join("bgp/updates.txt");
    let mut text = std::fs::read_to_string(&updates).expect("read updates");
    text.push_str("this line is not a bgp update\n");
    std::fs::write(&updates, &text).expect("write updates");
    let err = commands::analyze(&dir, "summary", &IngestOptions::default())
        .expect_err("strict must reject the corrupted tree");
    assert!(err.to_string().contains("bgp/updates.txt"), "{err}");

    // Permissive quarantines it, still analyzes, and writes the ledger.
    let ledger = dir.join("ingest.json");
    let opts = IngestOptions {
        policy: IngestPolicy::permissive(),
        quarantine: Some(ledger.clone()),
    };
    let out = commands::analyze(&dir, "summary", &opts).expect("permissive analyze");
    assert!(out.contains("## summary"));
    let json = std::fs::read_to_string(&ledger).expect("ledger written");
    assert!(json.contains("\"quarantined\":1"), "{json}");
    assert!(json.contains("bgp/updates.txt"), "{json}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn layout_read_rejects_missing_manifest() {
    let dir = temp_dir("nomanifest");
    std::fs::create_dir_all(&dir).expect("mkdir");
    assert!(layout::read_manifest(&dir).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validate_command_on_written_archive() {
    let dir = temp_dir("validate");
    commands::generate(&dir, 42, "small").expect("generate");
    // The scripted case-study ROA is in every world.
    let out = commands::validate(
        &dir.join("rpki/roas.csv"),
        "2021-01-01".parse().expect("date"),
        "132.255.0.0/22".parse().expect("prefix"),
        "AS263692".parse().expect("asn"),
        false,
    )
    .expect("validate");
    assert!(out.contains("Valid"), "{out}");
    let out = commands::validate(
        &dir.join("rpki/roas.csv"),
        "2021-01-01".parse().expect("date"),
        "132.255.0.0/22".parse().expect("prefix"),
        "AS50509".parse().expect("asn"),
        false,
    )
    .expect("validate");
    assert!(out.contains("Invalid"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}
