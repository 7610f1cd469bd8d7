//! Integration tests over the generated world (small configuration).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use droplens_bgp::{format as bgpfmt, BgpArchive};
use droplens_drop::{DropSnapshot, DropTimeline, SblDatabase};
use droplens_irr::{journal, IrrRegistry};
use droplens_net::DateRange;
use droplens_rir::format::parse_stats_file;
use droplens_rpki::format::parse_events;
use droplens_rpki::{RoaArchive, Tal};
use droplens_synth::{World, WorldConfig};

fn world() -> World {
    World::generate(42, &WorldConfig::small())
}

#[test]
fn generation_is_deterministic() {
    let a = World::generate(7, &WorldConfig::small());
    let b = World::generate(7, &WorldConfig::small());
    assert_eq!(a.bgp_updates, b.bgp_updates);
    assert_eq!(a.irr_journal, b.irr_journal);
    assert_eq!(a.roa_events, b.roa_events);
    assert_eq!(a.sbl_db, b.sbl_db);
    assert_eq!(a.drop_snapshots.len(), b.drop_snapshots.len());
    assert_eq!(a.truth.listed.len(), b.truth.listed.len());
    for (x, y) in a.truth.listed.iter().zip(&b.truth.listed) {
        assert_eq!(x.prefix, y.prefix);
        assert_eq!(x.listed, y.listed);
    }
}

#[test]
fn different_seeds_differ() {
    let a = World::generate(1, &WorldConfig::small());
    let b = World::generate(2, &WorldConfig::small());
    assert_ne!(a.bgp_updates, b.bgp_updates);
}

#[test]
fn listing_population_matches_mix() {
    let w = world();
    let cfg = WorldConfig::small();
    assert_eq!(w.truth.listed.len(), cfg.mix.total());
    let with_record = w.truth.listed.iter().filter(|t| t.has_sbl_record).count();
    assert_eq!(with_record, cfg.mix.with_record());
    assert_eq!(w.sbl_db.len(), with_record);
}

#[test]
fn drop_snapshots_reconstruct_listings() {
    let w = world();
    let timeline = DropTimeline::from_snapshots(&w.drop_snapshots);
    // Every truth listing that starts strictly after the first snapshot
    // day must be recovered with its exact add date.
    let first_day = w.drop_snapshots[0].date;
    for t in &w.truth.listed {
        let eps = timeline.for_prefix(&t.prefix);
        assert!(!eps.is_empty(), "{} missing from timeline", t.prefix);
        if t.listed > first_day {
            assert_eq!(eps[0].added, t.listed, "{}", t.prefix);
        }
        match (t.removed, eps[0].removed) {
            (Some(r), Some(obs)) => assert_eq!(obs, r, "{}", t.prefix),
            (None, None) => {}
            // A removal on/before the first snapshot or after the last is
            // unobservable; neither happens with study-window listings.
            (a, b) => panic!("{}: removal mismatch {a:?} vs {b:?}", t.prefix),
        }
    }
}

#[test]
fn text_archives_round_trip_through_parsers() {
    let w = world();
    let text = w.to_text_archives();

    let updates = bgpfmt::parse_updates(&text.bgp_updates).expect("bgp parses");
    assert_eq!(updates, w.bgp_updates);

    let irr = journal::parse_journal(&text.irr_journal).expect("irr parses");
    assert_eq!(irr, w.irr_journal);

    let roas = parse_events(&text.roa_events).expect("roa parses");
    assert_eq!(roas, w.roa_events);

    for ((date, files), (tdate, tfiles)) in w.rir_snapshots.iter().zip(&text.rir_snapshots) {
        assert_eq!(date, tdate);
        for (file, ftext) in files.iter().zip(tfiles) {
            let parsed = parse_stats_file(ftext).expect("stats parse");
            assert_eq!((parsed.rir, parsed.date), (file.rir, file.date));
            let records: Vec<_> = file.records(&w.rir_rows).cloned().collect();
            assert_eq!(parsed.records, records);
        }
    }

    for (snap, (date, stext)) in w.drop_snapshots.iter().zip(&text.drop_snapshots) {
        assert_eq!(
            &DropSnapshot::parse(*date, stext).expect("drop parse"),
            snap
        );
    }

    let sbl = SblDatabase::parse(&text.sbl_records).expect("sbl parse");
    assert_eq!(sbl, w.sbl_db);
}

#[test]
fn filtering_peers_suppress_listed_prefixes() {
    let w = world();
    let archive = BgpArchive::from_updates(w.peers.clone(), &w.bgp_updates);
    let filtering = &w.truth.filtering_peers;
    assert_eq!(filtering.len(), w.config.filtering_peer_count);
    let normal = w
        .peers
        .iter()
        .map(|p| p.id)
        .find(|id| !filtering.contains(id))
        .unwrap();
    for t in &w.truth.listed {
        let probe = t.listed + 5;
        if t.removed.is_some_and(|r| probe >= r) {
            continue;
        }
        // If a normal peer sees the prefix mid-listing, filtering peers
        // must not.
        if archive.observed_by(&t.prefix, normal, probe) {
            for &f in filtering {
                assert!(
                    !archive.observed_by(&t.prefix, f, probe),
                    "filtering peer {f} carries {} during listing",
                    t.prefix
                );
            }
        }
    }
}

#[test]
fn case_study_pattern_is_discoverable() {
    let w = world();
    let archive = BgpArchive::from_updates(w.peers.clone(), &w.bgp_updates);
    let origin = w.truth.case_origin.unwrap();
    let transit = w.truth.case_transit.unwrap();
    let window = DateRange::new(w.config.study_start, w.config.study_end + 1);
    let matches = droplens_bgp::history::find_origin_via_transit(&archive, origin, transit, window);
    let found: std::collections::BTreeSet<_> = matches.iter().map(|m| m.prefix).collect();
    for p in &w.truth.case_pattern_prefixes {
        assert!(found.contains(p), "pattern prefix {p} not found");
    }
    // The case prefix itself reuses its historic origin.
    let case = w.truth.case_study_prefix.unwrap();
    let m = matches.iter().find(|m| m.prefix == case).unwrap();
    assert!(m.origin_is_historic);
}

#[test]
fn forged_irr_objects_precede_announcements() {
    let w = world();
    let registry = IrrRegistry::from_journal(&w.irr_journal);
    let archive = BgpArchive::from_updates(w.peers.clone(), &w.bgp_updates);
    let mut checked = 0;
    let mut late = 0;
    for t in &w.truth.listed {
        if !t.forged_irr {
            continue;
        }
        let asn = t.malicious_asn.expect("forged hijacks are labeled");
        let objects = registry.for_prefix(&t.prefix);
        let forged = objects
            .iter()
            .find(|o| o.object.origin == asn)
            .unwrap_or_else(|| panic!("no forged object for {}", t.prefix));
        let announced = archive.first_announced(&t.prefix).unwrap();
        if forged.created <= announced {
            assert!((announced - forged.created) < 7, "{}", t.prefix);
            checked += 1;
        } else {
            late += 1;
        }
    }
    assert!(checked > 0);
    assert_eq!(late, WorldConfig::small().late_irr_outliers);
}

#[test]
fn as0_tal_events_exist_and_cover_squats() {
    let w = world();
    let roa_archive = RoaArchive::from_events(&w.roa_events);
    let end = w.config.study_end;
    // AS0-TAL ROAs were published.
    let as0 = roa_archive
        .active_on(end, &[Tal::ApnicAs0, Tal::LacnicAs0])
        .count();
    assert!(as0 > 0, "no AS0 TAL ROAs");
    // Unlisted squats fall under AS0 TAL coverage.
    let mut covered = 0;
    for p in &w.truth.unlisted_squats {
        if roa_archive.is_signed_at(p, end, &[Tal::ApnicAs0, Tal::LacnicAs0]) {
            covered += 1;
        }
    }
    assert!(
        covered > 0,
        "no unlisted squat covered by an AS0 TAL ({} squats)",
        w.truth.unlisted_squats.len()
    );
    // But the production TALs know nothing of them.
    for p in &w.truth.unlisted_squats {
        assert!(!roa_archive.is_signed_at(p, end, &Tal::PRODUCTION));
    }
}

#[test]
fn journals_are_chronological() {
    let w = world();
    assert!(w.irr_journal.windows(2).all(|p| p[0].date <= p[1].date));
    assert!(w.roa_events.windows(2).all(|p| p[0].date <= p[1].date));
    assert!(w.bgp_updates.windows(2).all(|p| p[0].date <= p[1].date));
    let dates: Vec<_> = w.rir_snapshots.iter().map(|(d, _)| *d).collect();
    assert!(dates.windows(2).all(|p| p[0] < p[1]));
}

#[test]
fn operator_as0_story_dates() {
    let w = world();
    let p = w.truth.operator_as0_prefix.unwrap();
    let t = w.truth.for_prefix(&p).unwrap();
    assert_eq!(t.listed.to_string(), "2020-01-28");
    assert_eq!(t.removed.unwrap().to_string(), "2021-06-16");
    let roa_archive = RoaArchive::from_events(&w.roa_events);
    let recs = roa_archive.records_for_exact(&p);
    assert!(recs.iter().any(|r| r.roa.is_as0()
        && r.created.to_string() == "2021-05-05"
        && r.roa.tal == Tal::Lacnic));
}

#[test]
fn paper_scale_population_counts() {
    // Only verify the arithmetic of the paper config, not a full
    // generation (that is the benches' job).
    let cfg = WorldConfig::paper();
    assert_eq!(cfg.mix.total(), 712);
    assert_eq!(cfg.mix.with_record(), 526);
    assert_eq!(cfg.peer_count, 30);
    assert_eq!(cfg.filtering_peer_count, 3);
}
