//! Cross-source consistency invariants: the five generated datasets must
//! tell one coherent story, and the analysis indices must agree with
//! each other wherever they overlap.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use droplens_core::Study;
use droplens_drop::Category;
use droplens_net::PrefixSet;
use droplens_rpki::Tal;
use droplens_synth::{World, WorldConfig};

fn study_and_world() -> (Study, World) {
    let world = World::generate(21, &WorldConfig::small());
    let study = Study::from_world(&world);
    (study, world)
}

#[test]
fn every_listing_has_coherent_allocation_status() {
    let (study, _) = study_and_world();
    for e in &study.entries {
        match e.rir {
            Some(_) => {
                // Unallocated listings resolve to a registry (the pool's
                // owner) but must not be delegated.
                if e.has(Category::Unallocated) {
                    assert!(!e.allocated_at_listing, "{}", e.prefix());
                }
            }
            None => panic!("{}: no registry resolves the prefix", e.prefix()),
        }
    }
}

#[test]
fn roa_covered_listings_appear_in_both_indices() {
    let (study, _) = study_and_world();
    for e in &study.entries {
        let signed = study
            .roa
            .is_signed_at(&e.prefix(), e.entry.added, &Tal::PRODUCTION);
        let covering = study
            .roa
            .roas_covering_at(&e.prefix(), e.entry.added, &Tal::PRODUCTION);
        assert_eq!(signed, !covering.is_empty(), "{}", e.prefix());
    }
}

#[test]
fn drop_timeline_and_bgp_tell_consistent_withdrawal_stories() {
    let (study, world) = study_and_world();
    for t in &world.truth.listed {
        let outcome = droplens_bgp::visibility::withdrawal_outcome(
            &study.bgp,
            &t.prefix,
            t.listed,
            study.config.withdrawal_lookback,
        );
        use droplens_bgp::visibility::Withdrawal;
        match outcome {
            Withdrawal::WithdrawnAfterDays(d) if d <= 30 => {
                assert!(
                    t.withdrew_within_30d,
                    "{}: inferred withdrawal at {d}d but truth says no",
                    t.prefix
                );
            }
            Withdrawal::WithdrawnAfterDays(_) | Withdrawal::StillRouted => {
                assert!(
                    !t.withdrew_within_30d,
                    "{}: truth says withdrawn within 30d but inference disagrees",
                    t.prefix
                );
            }
            Withdrawal::NeverRouted => {
                // Nothing to check: never-announced listings carry no
                // withdrawal truth.
            }
        }
    }
}

#[test]
fn listed_prefixes_never_overlap_each_other() {
    let (study, _) = study_and_world();
    // The generator allocates disjoint blocks, so listings are disjoint;
    // the analysis relies on this for space accounting.
    let mut set = PrefixSet::new();
    for e in &study.entries {
        assert!(
            !set.overlaps(&e.prefix()),
            "{} overlaps an earlier listing",
            e.prefix()
        );
        set.insert(e.prefix());
    }
}

#[test]
fn irr_objects_for_listings_resolve_in_the_registry() {
    let (study, world) = study_and_world();
    for t in &world.truth.listed {
        if t.forged_irr {
            let objects = study.irr.for_prefix_or_more_specific(&t.prefix);
            assert!(
                objects
                    .iter()
                    .any(|o| Some(o.object.origin) == t.malicious_asn),
                "{}: forged object missing from registry",
                t.prefix
            );
        }
    }
}

#[test]
fn stats_files_partition_each_rir_plan() {
    // In every emitted snapshot, each RIR's records must exactly tile the
    // RIR's /8 plan: no gaps, no overlaps.
    let world = World::generate(21, &WorldConfig::small());
    for (date, files) in world.rir_snapshots.iter().take(3) {
        for file in files {
            let mut seen = PrefixSet::new();
            for record in file.records(&world.rir_rows) {
                for p in record.prefixes() {
                    assert!(
                        !seen.overlaps(&p),
                        "{date}: {} listed twice in {} stats",
                        p,
                        file.rir
                    );
                    seen.insert(p);
                }
            }
            let plan = droplens_synth::BlockAllocator::new()
                .available(file.rir)
                .clone();
            assert_eq!(
                seen, plan,
                "{date}: {} stats do not tile the plan",
                file.rir
            );
        }
    }
}

#[test]
fn as0_tal_roas_cover_only_pool_space() {
    let (study, world) = study_and_world();
    let end = study.config.window.last().unwrap();
    for rec in study.roa.active_on(end, &[Tal::ApnicAs0, Tal::LacnicAs0]) {
        // AS0-TAL space must not be delegated at the policy date.
        assert!(
            !study.rir.is_allocated(&rec.roa.prefix, rec.created),
            "{}: AS0 TAL ROA over delegated space",
            rec.roa.prefix
        );
        assert!(rec.roa.is_as0());
    }
    // And they do exist.
    assert!(
        study
            .roa
            .active_on(end, &[Tal::ApnicAs0, Tal::LacnicAs0])
            .count()
            > 0
    );
    let _ = world;
}
