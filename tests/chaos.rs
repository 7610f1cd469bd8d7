//! Chaos suite: deterministic fault injection (droplens-faults) against
//! the ingestion-policy layer.
//!
//! The contract under test, per corruption class:
//!
//! * **fatal classes** (truncation, byte flips, journal reordering) —
//!   strict ingestion rejects the bundle with a located error;
//!   permissive ingestion quarantines the damage and, at rates inside
//!   the error budget, still reproduces the paper's scorecard bands;
//! * **benign classes** (duplicates, CRLF) — strict ingestion absorbs
//!   them without error;
//! * **missing days** — not a parse error at all, but a coverage gap
//!   that the permissive gap budget converts into a fail-fast;
//! * and everything is **deterministic**: same corruption seed, same
//!   study, byte-for-byte, at any worker count.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use std::collections::BTreeSet;

use droplens_core::{paper, IngestPolicy, Study, StudyConfig};
use droplens_faults::{CorruptionClass, Corruptor};
use droplens_net::DateRange;
use droplens_synth::{TextArchives, World, WorldConfig};

/// One small world per process, shared read-only by all tests.
fn world() -> &'static World {
    use std::sync::OnceLock;
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| World::generate(42, &WorldConfig::small()))
}

fn config(policy: IngestPolicy) -> StudyConfig {
    let w = world();
    let mut config = StudyConfig::new(DateRange::inclusive(
        w.config.study_start,
        w.config.study_end,
    ));
    config.manual_labels = w.manual_labels();
    config.ingest = policy;
    config
}

/// Corrupt a fresh copy of the world's archives with the given seeded
/// harness configuration.
fn corrupted(seed: u64, rate: f64, classes: &[CorruptionClass]) -> TextArchives {
    let mut text = world().to_text_archives();
    let log = Corruptor::new(seed)
        .with_rate(rate)
        .only(classes)
        .corrupt_archives(&mut text);
    assert!(log.total() > 0, "harness injected nothing at rate {rate}");
    text
}

fn build(policy: IngestPolicy, text: &TextArchives) -> Result<Study, droplens_core::IngestError> {
    Study::from_text(config(policy), world().peers.clone(), text)
}

/// Permissive policy sized for the small test world: the smallest
/// source (the IRR journal, ~35 entries) quantizes error rates in
/// ~3% steps, so the default 1% budget would trip on a single
/// quarantined entry. 5% keeps the budget meaningful without making
/// the tests hostage to quantization.
fn permissive_small_world() -> IngestPolicy {
    IngestPolicy::Permissive {
        max_error_rate: 0.05,
        max_gap_days: 14,
    }
}

#[test]
fn strict_rejects_truncated_lines_with_location() {
    let text = corrupted(1, 0.01, &[CorruptionClass::TruncateLine]);
    let err = match build(IngestPolicy::Strict, &text) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("strict ingestion accepted truncated records"),
    };
    // The error names the damaged file and line ("<file>:<line>: invalid ...").
    assert!(err.contains("invalid"), "{err}");
    assert!(
        err.contains(".txt:") || err.contains(".csv:"),
        "error carries no file:line location: {err}"
    );
}

#[test]
fn strict_rejects_byte_flips() {
    let text = corrupted(2, 0.01, &[CorruptionClass::ByteFlip]);
    assert!(
        build(IngestPolicy::Strict, &text).is_err(),
        "strict ingestion accepted byte-flipped records"
    );
}

#[test]
fn strict_rejects_reordered_journals() {
    // Reordering breaks the chronological journals (RPKI events, IRR
    // entry structure) even though unordered sources shrug it off.
    let text = corrupted(3, 0.02, &[CorruptionClass::ReorderRecords]);
    assert!(
        build(IngestPolicy::Strict, &text).is_err(),
        "strict ingestion accepted reordered journals"
    );
}

#[test]
fn crlf_conversion_is_benign_even_in_strict() {
    let text = corrupted(4, 0.5, &[CorruptionClass::MixedLineEndings]);
    let clean =
        build(IngestPolicy::Strict, &world().to_text_archives()).expect("pristine archives parse");
    let study = build(IngestPolicy::Strict, &text).expect("CRLF must not be a parse error");
    assert_eq!(study.entries, clean.entries, "CRLF changed the study");
    assert_eq!(study.ingest.total_quarantined(), 0);
}

#[test]
fn duplicate_records_are_benign_where_records_are_events_or_maps() {
    // Duplicates are structurally benign for the event list (BGP) and
    // the daily set (DROP): replays and re-listings happen in the real
    // feeds too. (Block-structured sources like the IRR journal treat
    // a doubled header as damage — covered by the permissive tests.)
    let mut text = world().to_text_archives();
    let mut corruptor = Corruptor::new(5)
        .with_rate(0.05)
        .only(&[CorruptionClass::DuplicateRecord]);
    let mut log = droplens_faults::CorruptionLog::default();
    text.bgp_updates = corruptor.corrupt_lines("bgp/updates.txt", &text.bgp_updates, &mut log);
    for (date, body) in &mut text.drop_snapshots {
        let label = format!("drop/{date}.txt");
        *body = corruptor.corrupt_lines(&label, body, &mut log);
    }
    assert!(log.total() > 0);
    let clean =
        build(IngestPolicy::Strict, &world().to_text_archives()).expect("pristine archives parse");
    let study = build(IngestPolicy::Strict, &text).expect("duplicates must not be parse errors");
    assert_eq!(study.entries, clean.entries, "duplicates changed the study");
}

#[test]
fn permissive_low_rate_corruption_barely_moves_the_study() {
    // Every corruption class at once, at a ≤1% rate: the study must
    // build, quarantine the damage, and stay close to the pristine run.
    // (The scorecard *bands* are calibrated for paper scale and too
    // noisy to compare here — `paper_scale_chaos_stays_in_band` owns
    // that assertion.)
    let text = corrupted(6, 0.005, &CorruptionClass::ALL);
    let clean =
        build(IngestPolicy::Strict, &world().to_text_archives()).expect("pristine archives parse");
    let study = build(permissive_small_world(), &text)
        .expect("permissive ingestion must absorb in-budget corruption");

    assert!(study.ingest.total_quarantined() > 0, "nothing quarantined");
    assert_eq!(
        paper::scorecard(&study).len(),
        paper::scorecard(&clean).len(),
        "every scorecard target must still compute"
    );
    // ≤1% damage must not shift the listed population materially.
    let (clean_n, chaos_n) = (clean.entries.len() as f64, study.entries.len() as f64);
    assert!(
        (clean_n - chaos_n).abs() / clean_n < 0.05,
        "entry count moved {clean_n} -> {chaos_n} under 0.5% corruption"
    );
}

/// The acceptance bar: at paper scale, permissive ingestion of a bundle
/// with ≤1% injected corruption still lands **every** scorecard target
/// in its published band — the paper's conclusions survive the rot.
/// Slow (second only to `paper_scale.rs`); everything else here runs on
/// the small world.
#[test]
fn paper_scale_chaos_stays_in_band() {
    let world = World::generate(42, &WorldConfig::paper());
    let mut text = world.to_text_archives();
    let log = Corruptor::new(1066)
        .with_rate(0.005)
        .only(&CorruptionClass::ALL)
        .corrupt_archives(&mut text);
    assert!(log.total() > 0);

    let mut config = StudyConfig::new(DateRange::inclusive(
        world.config.study_start,
        world.config.study_end,
    ));
    config.manual_labels = world.manual_labels();
    config.ingest = IngestPolicy::permissive(); // default 1% budget, 14-day gaps
    let study = Study::from_text(config, world.peers.clone(), &text)
        .expect("paper-scale chaos within the default budgets");

    assert!(study.ingest.total_quarantined() > 0, "nothing quarantined");
    let targets = paper::scorecard(&study);
    let misses: Vec<&paper::Target> = targets.iter().filter(|t| !t.in_band()).collect();
    assert!(
        misses.is_empty(),
        "corruption pushed targets out of band:\n{}",
        misses
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn permissive_quarantine_samples_carry_locations() {
    let text = corrupted(7, 0.005, &CorruptionClass::ALL);
    let study = build(permissive_small_world(), &text).expect("in-budget corruption absorbed");
    let report = &study.ingest;
    assert!(report.total_quarantined() > 0);
    let mut sampled = 0;
    for source in report.sources.values() {
        for sample in &source.quarantine.samples {
            let (file, line) = sample.location();
            assert!(!file.is_empty() && line >= 1);
            sampled += 1;
        }
    }
    assert!(sampled > 0, "no quarantine samples retained");
    assert!(report.to_text().contains("quarantined"));
}

#[test]
fn permissive_fails_fast_when_error_budget_blows() {
    let text = corrupted(8, 0.2, &[CorruptionClass::TruncateLine]);
    let err = match build(IngestPolicy::permissive(), &text) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("20% corruption sailed through a 1% error budget"),
    };
    assert!(err.contains("error budget"), "{err}");
    assert!(err.contains("quarantined"), "{err}");
}

#[test]
fn permissive_fails_fast_when_gap_budget_blows() {
    // Drop most DROP days: the damage is silence, not parse errors, so
    // only the gap budget can catch it.
    let text = corrupted(9, 0.9, &[CorruptionClass::DropDay]);
    let err = match build(IngestPolicy::permissive(), &text) {
        Err(e) => e.to_string(),
        Ok(_) => panic!("massive coverage gaps sailed through a 14-day gap budget"),
    };
    assert!(err.contains("gap budget"), "{err}");
    assert!(err.contains("drop"), "{err}");
}

#[test]
fn permissive_chaos_study_is_byte_identical_across_worker_counts() {
    let snapshot = |threads: &str| {
        std::env::set_var("DROPLENS_THREADS", threads);
        let text = corrupted(10, 0.005, &CorruptionClass::ALL);
        let study = build(permissive_small_world(), &text).expect("in-budget chaos absorbed");
        let results = paper::ExperimentResults::compute(&study);
        let rendered = format!("{}{}{}", results.summary, results.fig1, results.fig2);
        let scorecard = paper::render(&paper::scorecard_with(&study, &results));
        (
            study.entries.clone(),
            study.ingest.to_text(),
            study.ingest.to_json(),
            rendered,
            scorecard,
        )
    };
    let one = snapshot("1");
    let eight = snapshot("8");
    std::env::remove_var("DROPLENS_THREADS");
    assert_eq!(one.0, eight.0, "entries must not depend on worker count");
    assert_eq!(
        one.1, eight.1,
        "ingest ledger must not depend on worker count"
    );
    assert_eq!(
        one.2, eight.2,
        "ledger JSON must not depend on worker count"
    );
    assert_eq!(one.3, eight.3, "rendered experiments must match");
    assert_eq!(one.4, eight.4, "scorecard must match");
}

#[test]
fn corruption_log_names_rir_files_as_the_ledger_does() {
    // Truncation is always fatal, so every quarantined RIR line is one
    // the harness damaged, and both ledgers must name it the same way.
    let mut text = world().to_text_archives();
    let log = Corruptor::new(1066)
        .only(&[CorruptionClass::TruncateLine])
        .corrupt_archives(&mut text);
    let injected: BTreeSet<String> = log
        .events
        .iter()
        .filter_map(|e| e.line.map(|line| format!("{}:{line}", e.archive)))
        .collect();
    let study = build(permissive_small_world(), &text).expect("in-budget truncation absorbed");
    let samples = &study.ingest.sources["rir"].quarantine.samples;
    assert!(!samples.is_empty(), "no RIR line was truncated");
    for sample in samples {
        let (file, line) = sample.location();
        let at = format!("{file}:{line}");
        assert!(injected.contains(&at), "{at} is not in the corruption log");
    }
}
