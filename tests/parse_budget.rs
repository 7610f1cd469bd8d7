//! An allocation and counter budget for the archive load.
//!
//! Parsing and indexing the small world's BGP text must stay within a
//! stated number of allocation calls, and over a whole
//! `Study::from_text` every parser's registry counters must move by
//! exactly its ledger's counts. Lives alone in its own test binary, as
//! one test, because it installs the tracking allocator and reads the
//! process-global registry: nothing else may allocate or count while it
//! runs.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use std::collections::BTreeMap;

use droplens_bgp::{format as bgpfmt, BgpArchive};
use droplens_core::{Study, StudyConfig};
use droplens_net::{DateRange, IngestPolicy, Quarantine};
use droplens_obs::alloc;
use droplens_synth::{World, WorldConfig};

#[global_allocator]
static ALLOC: alloc::TrackingAlloc = alloc::TrackingAlloc::system();

/// Allocation calls the BGP text parse may make per announcement. Each
/// announced path takes one, its `Arc`; the rest is slack for the chunk
/// and output vectors and the worker threads. A `Vec` per path and then
/// a copy into the `Arc` would take two.
const PARSE_OPS_PER_ANNOUNCEMENT: f64 = 1.1;

/// Allocation calls the BGP index build may make per archived prefix.
/// Each prefix takes a lane table, an interval vector, its visibility
/// spans and a trie node; the rest is slack for the sort keys, the path
/// arena and the workers. A vector per (prefix, peer) lane in a
/// `BTreeMap` would take about fourteen in the small world.
const INDEX_OPS_PER_PREFIX: f64 = 5.0;

/// The result of `f` and the allocation calls made, on any thread,
/// while it ran.
fn alloc_ops<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = alloc::snapshot().alloc_ops;
    let out = f();
    (out, alloc::snapshot().alloc_ops - before)
}

fn counters() -> BTreeMap<String, u64> {
    droplens_obs::global().report().counters
}

#[test]
fn bgp_load_stays_in_its_allocation_budget_and_counters_equal_ledgers() {
    // A fixed worker count fixes the number of parse chunks and worker
    // threads, which the parse budget's slack covers.
    std::env::set_var("DROPLENS_THREADS", "2");
    let world = World::generate(42, &WorldConfig::small());
    let mut text = world.to_text_archives();

    let mut q = Quarantine::strict("bgp/updates.txt");
    let (updates, parse_ops) =
        alloc_ops(|| bgpfmt::parse_updates_with(&text.bgp_updates, &mut q).expect("parses"));
    let announcements = updates.iter().filter(|u| u.event.is_announce()).count();
    let peers = world.peers.clone();
    let (archive, index_ops) = alloc_ops(|| BgpArchive::from_updates(peers, &updates));
    let prefixes = archive.prefixes().count();
    let parse_budget = (PARSE_OPS_PER_ANNOUNCEMENT * announcements as f64) as u64;
    let index_budget = (INDEX_OPS_PER_PREFIX * prefixes as f64) as u64;
    assert!(
        parse_ops <= parse_budget,
        "parsing {announcements} announcements made {parse_ops} allocation calls, over the {parse_budget} budget"
    );
    assert!(
        index_ops <= index_budget,
        "indexing {prefixes} prefixes made {index_ops} allocation calls, over the {index_budget} budget"
    );

    // One damaged line in each source, so every malformed count is
    // nonzero; the SBL block with a bad header also skips its body.
    text.bgp_updates.push_str("GARBAGE\n");
    text.irr_journal.push_str("ADD not-a-date\n\nroute: x\n");
    text.roa_events.push_str("GARBAGE\n");
    text.rir_snapshots[0].1[0].push_str("garbage|line\n");
    text.drop_snapshots[0].1.push_str("999.1.2.3/8\n");
    text.sbl_records.push_str("\nNOT-AN-ID\nbody line\n");
    let mut config = StudyConfig::new(DateRange::inclusive(
        world.config.study_start,
        world.config.study_end,
    ));
    config.manual_labels = world.manual_labels();
    config.ingest = IngestPolicy::Permissive {
        max_error_rate: 0.5,
        max_gap_days: IngestPolicy::DEFAULT_MAX_GAP_DAYS,
    };
    let before = counters();
    let study = Study::from_text(config, world.peers.clone(), &text).expect("permissive parses");
    let after = counters();
    let moved = |name: String| {
        after.get(&name).copied().unwrap_or(0) - before.get(&name).copied().unwrap_or(0)
    };
    for (source, metric) in [
        ("bgp", "bgp.updates"),
        ("irr", "irr.journal"),
        ("rpki", "rpki.events"),
        ("rir", "rir.stats"),
        ("drop", "drop.list"),
        ("sbl", "drop.sbl"),
    ] {
        let ledger = &study.ingest.sources[source].quarantine;
        assert!(ledger.quarantined > 0, "{source}: no damage quarantined");
        assert_eq!(
            (
                moved(format!("{metric}.parsed")),
                moved(format!("{metric}.skipped")),
                moved(format!("{metric}.malformed")),
            ),
            (ledger.parsed, ledger.skipped, ledger.quarantined),
            "{source}: counters (parsed, skipped, malformed) against the ledger"
        );
    }
    assert!(study.ingest.sources["sbl"].quarantine.skipped > 0);
}
