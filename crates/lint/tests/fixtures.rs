//! Golden-diagnostic tests over the fixture corpus.
//!
//! Each rule has one known-bad file (exact `(line, rule)` findings
//! pinned below) and one allow-escaped twin that must lint clean with
//! every finding suppressed. The corpus lives under `tests/fixtures/`,
//! which the workspace walk skips — CI lints it explicitly as the
//! self-test that the gate still fails on bad code.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

use std::path::{Path, PathBuf};

use droplens_lint::{collect_rs_files, lint_files, lint_source, Rule};

/// Absolute path of the fixture corpus.
fn corpus() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Lint one fixture by its corpus-relative path, labeling it with the
/// workspace-relative path so `rules_for_path` classifies it the same
/// way the CLI does.
#[allow(clippy::panic)] // test helper: a missing fixture fails the test
fn lint_fixture(rel: &str) -> (Vec<(u32, Rule)>, usize) {
    let file = corpus().join(rel);
    let src = std::fs::read_to_string(&file)
        .unwrap_or_else(|e| panic!("cannot read fixture {}: {e}", file.display()));
    let label = format!("crates/lint/tests/fixtures/{rel}");
    let (diags, suppressed) = lint_source(&label, &src);
    (diags.iter().map(|d| (d.line, d.rule)).collect(), suppressed)
}

#[test]
fn located_errors_goldens() {
    let (found, _) = lint_fixture("located_errors/bad/journal.rs");
    assert_eq!(found, vec![(7, Rule::LocatedErrors)]);
    let (found, suppressed) = lint_fixture("located_errors/allowed/journal.rs");
    assert!(found.is_empty(), "{found:?}");
    assert_eq!(suppressed, 1);
}

#[test]
fn no_unbounded_collect_goldens() {
    let (found, _) = lint_fixture("no_unbounded_collect/bad/format.rs");
    assert_eq!(
        found,
        vec![
            (7, Rule::NoUnboundedCollect),  // plain .collect()
            (12, Rule::NoUnboundedCollect), // turbofish .collect::<_>()
        ]
    );
    let (found, suppressed) = lint_fixture("no_unbounded_collect/allowed/format.rs");
    assert!(found.is_empty(), "{found:?}");
    assert_eq!(suppressed, 2);
}

#[test]
fn no_string_keyed_hot_map_goldens() {
    let (found, _) = lint_fixture("no_string_keyed_hot_map/bad/archive.rs");
    assert_eq!(
        found,
        vec![
            (5, Rule::NoStringKeyedHotMap),  // BTreeMap<String, _>
            (13, Rule::NoStringKeyedHotMap), // HashMap<String, _>
        ]
    );
    let (found, suppressed) = lint_fixture("no_string_keyed_hot_map/allowed/archive.rs");
    assert!(found.is_empty(), "{found:?}");
    assert_eq!(suppressed, 2);
}

#[test]
fn no_deadline_free_io_goldens() {
    let (found, _) = lint_fixture("no_deadline_free_io/bad/server.rs");
    assert_eq!(
        found,
        vec![
            (7, Rule::NoDeadlineFreeIo),  // .write_all, no timeouts at all
            (9, Rule::NoDeadlineFreeIo),  // .read_to_end, no timeouts at all
            (16, Rule::NoDeadlineFreeIo), // .read, write timeout missing
            (17, Rule::NoDeadlineFreeIo), // .write_all, write timeout missing
        ]
    );
    let (found, suppressed) = lint_fixture("no_deadline_free_io/allowed/server.rs");
    assert!(found.is_empty(), "{found:?}");
    assert_eq!(suppressed, 2); // relay is fixed properly, not escaped
}

#[test]
fn lock_across_io_goldens() {
    let (found, _) = lint_fixture("lock_across_io/bad/net.rs");
    assert_eq!(
        found,
        vec![
            (15, Rule::LockAcrossIo), // .read with `held` live
            (17, Rule::LockAcrossIo), // .write with `held` live
        ]
    );
    let (found, suppressed) = lint_fixture("lock_across_io/allowed/net.rs");
    assert!(found.is_empty(), "{found:?}");
    assert_eq!(suppressed, 1); // the write is fixed by drop(), not escaped
}

#[test]
fn bad_escape_goldens() {
    let (found, _) = lint_fixture("bad_escape/bad/escape.rs");
    assert_eq!(
        found,
        vec![
            (4, Rule::BadEscape), // unknown rule name
            (7, Rule::BadEscape), // a deny verb is not an escape
        ]
    );
}

/// The CI self-test contract: linting the corpus as a whole (explicit
/// path, so the `fixtures` walk-skip does not apply) must fail, and the
/// totals must match the sum of the per-file goldens above.
#[test]
fn corpus_as_a_whole_fails() {
    let files = collect_rs_files(&[corpus()]).expect("walk fixtures");
    assert_eq!(files.len(), 11, "{files:?}");
    let report = lint_files(&files).expect("lint fixtures");
    assert!(!report.is_clean());
    assert_eq!(report.files_checked, 11);
    assert_eq!(report.diagnostics.len(), 13);
    assert_eq!(report.suppressed, 8);
}
