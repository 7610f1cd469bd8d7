//! CLI integration: generate an archive tree on disk, read it back, and
//! verify the analyses agree with the in-memory pipeline.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use std::path::PathBuf;

use droplens_cli::commands::{ArchiveFormat, IngestOptions};
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

    // The tree has the documented shape, binary sidecars included.
    for path in [
        "manifest.tsv",
        "bgp/updates.txt",
        "bgp/updates.bin",
        "irr/journal.txt",
        "irr/journal.bin",
        "rpki/roas.csv",
        "rpki/roas.bin",
        "sbl/records.txt",
        "sbl/records.bin",
        "labels/manual_labels.tsv",
    ] {
        assert!(dir.join(path).exists(), "{path} missing");
    }
    assert!(dir.join("drop").read_dir().expect("drop dir").count() > 100);
    assert!(dir.join("rir").read_dir().expect("rir dir").count() > 10);
    assert!(layout::binary_sidecars_complete(&dir));

    // Analysis over the on-disk tree equals the in-memory pipeline —
    // via the default (binary) path and the explicit text path alike.
    let from_disk = commands::analyze(&dir, "all", &IngestOptions::default()).expect("analyze");
    let world = World::generate(42, &WorldConfig::small());
    let study = Study::from_world(&world);
    let in_memory = commands::run_experiments(&study, "all").expect("run");
    assert_eq!(from_disk, in_memory);
    let text_opts = IngestOptions {
        format: ArchiveFormat::Text,
        ..IngestOptions::default()
    };
    assert_eq!(
        commands::analyze(&dir, "all", &text_opts).expect("text analyze"),
        in_memory
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn binary_sidecar_detection_and_explicit_formats() {
    let dir = temp_dir("formats");
    commands::generate(&dir, 11, "small").expect("generate");
    let baseline = commands::analyze(&dir, "summary", &IngestOptions::default()).expect("auto");
    let first = |sub: &str| {
        let mut names: Vec<String> = std::fs::read_dir(dir.join(sub))
            .expect("dated dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names.swap_remove(0)
    };
    let rir_date = first("rir");
    let drop_day = first("drop");
    let drop_day = drop_day.split('.').next().expect("dated name");
    let bin_opts = IngestOptions {
        format: ArchiveFormat::Binary,
        ..IngestOptions::default()
    };

    // (sidecar, whether an explicit --format binary must refuse the tree
    // without it). The binary reader takes its DROP days from the
    // sidecars present, so a missing day sidecar only demotes auto.
    for (sidecar, refused) in [
        ("irr/journal.bin".to_owned(), true),
        (format!("rir/{rir_date}/delegated-arin-extended.bin"), true),
        (format!("drop/{drop_day}.bin"), false),
    ] {
        let path = dir.join(&sidecar);
        let kept = std::fs::read(&path).expect("sidecar exists");
        std::fs::remove_file(&path).expect("remove sidecar");

        // Deleting one sidecar demotes auto to the text path...
        assert!(!layout::binary_sidecars_complete(&dir), "{sidecar}");
        let from_text =
            commands::analyze(&dir, "summary", &IngestOptions::default()).expect("text");
        assert_eq!(from_text, baseline, "{sidecar}");

        // ...while an explicit --format binary refuses the incomplete tree.
        if refused {
            let err = commands::analyze(&dir, "summary", &bin_opts).expect_err("incomplete tree");
            assert!(err.to_string().contains(&sidecar), "{err}");
        }

        std::fs::write(&path, kept).expect("restore sidecar");
        assert!(layout::binary_sidecars_complete(&dir), "{sidecar}");
    }

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

    // Corrupt one BGP line in place: strict must refuse the tree. The
    // corruption hits the canonical text, so the load is pinned to the
    // text path (auto would read the intact binary sidecar instead).
    let updates = dir.join("bgp/updates.txt");
    let mut text = std::fs::read_to_string(&updates).expect("read updates");
    text.push_str("this line is not a bgp update\n");
    std::fs::write(&updates, &text).expect("write updates");
    let strict_text = IngestOptions {
        format: ArchiveFormat::Text,
        ..IngestOptions::default()
    };
    let err = commands::analyze(&dir, "summary", &strict_text)
        .expect_err("strict must reject the corrupted tree");
    assert!(err.to_string().contains("bgp/updates.txt"), "{err}");

    // The sidecars are untouched, so the default load still succeeds.
    commands::analyze(&dir, "summary", &IngestOptions::default())
        .expect("binary path unaffected by text damage");

    // Permissive quarantines it, still analyzes, and writes the ledger.
    let ledger = dir.join("ingest.json");
    let opts = IngestOptions {
        policy: IngestPolicy::permissive(),
        quarantine: Some(ledger.clone()),
        format: ArchiveFormat::Text,
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
