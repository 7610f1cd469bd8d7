//! Property-based tests: RFC 6811 validation semantics and archive
//! replay, checked against brute-force models.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use droplens_net::{Asn, Date, Ipv4Prefix};
use droplens_rpki::format::{parse_events, write_events, RoaEvent, RoaOp};
use droplens_rpki::{validate, Roa, RoaArchive, RovOutcome, Tal};
use proptest::prelude::*;

fn prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (0u32..8, 12u8..24).prop_map(|(i, len)| Ipv4Prefix::from_u32(0x0a00_0000 | (i << 20), len))
}

fn tal() -> impl Strategy<Value = Tal> {
    prop::sample::select(Tal::ALL.to_vec())
}

fn roa() -> impl Strategy<Value = Roa> {
    (prefix(), 0u32..6, prop::option::of(0u8..8), tal()).prop_map(|(p, asn, ml, tal)| {
        let mut r = Roa::new(p, Asn(asn), tal);
        if let Some(extra) = ml {
            r = r.with_max_length((p.len() + extra).min(32));
        }
        r
    })
}

/// RFC 6811, written as directly from the spec as possible.
fn model_validate(roas: &[Roa], prefix: &Ipv4Prefix, origin: Asn) -> RovOutcome {
    let covered = roas.iter().any(|r| r.prefix.covers(prefix));
    let matched = roas.iter().any(|r| {
        r.prefix.covers(prefix)
            && prefix.len() <= r.max_length.unwrap_or(r.prefix.len())
            && r.asn == origin
            && !r.asn.is_as0()
    });
    if matched {
        RovOutcome::Valid
    } else if covered {
        RovOutcome::Invalid
    } else {
        RovOutcome::NotFound
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn validate_matches_spec_model(roas in prop::collection::vec(roa(), 0..12),
                                   query in prefix(), origin in 0u32..6) {
        let got = validate(roas.iter(), &query, Asn(origin));
        let expected = model_validate(&roas, &query, Asn(origin));
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn as0_roas_never_validate_anything(p in prefix(), origin in 0u32..100, tal in tal()) {
        let as0 = Roa::new(p, Asn::AS0, tal).with_max_length(32);
        // Even origin 0 itself cannot match an AS0 ROA.
        for q in [p, p.children().map(|(lo, _)| lo).unwrap_or(p)] {
            prop_assert_ne!(validate([&as0], &q, Asn(origin)), RovOutcome::Valid);
            prop_assert_eq!(validate([&as0], &q, Asn(origin)), RovOutcome::Invalid);
        }
    }

    #[test]
    fn maxlength_widens_but_never_narrows(p in prefix(), origin in 1u32..6, extra in 1u8..6) {
        let strict = Roa::new(p, Asn(origin), Tal::Arin);
        let loose = strict.clone().with_max_length((p.len() + extra).min(32));
        // Everything valid under the strict ROA stays valid under the
        // loose one.
        prop_assert_eq!(validate([&strict], &p, Asn(origin)), RovOutcome::Valid);
        prop_assert_eq!(validate([&loose], &p, Asn(origin)), RovOutcome::Valid);
        // The loose ROA validates more-specifics the strict one rejects.
        if let Some((lo, _)) = p.children() {
            if lo.len() <= loose.effective_max_length() {
                prop_assert_eq!(validate([&strict], &lo, Asn(origin)), RovOutcome::Invalid);
                prop_assert_eq!(validate([&loose], &lo, Asn(origin)), RovOutcome::Valid);
            }
        }
    }

    #[test]
    fn event_journal_round_trips(events in prop::collection::vec(
        (0i32..500, prop::bool::ANY, roa()), 0..30)) {
        let mut events: Vec<RoaEvent> = events
            .into_iter()
            .map(|(off, add, roa)| RoaEvent {
                date: Date::from_days_since_epoch(18_000 + off),
                op: if add { RoaOp::Add } else { RoaOp::Del },
                roa,
            })
            .collect();
        events.sort_by_key(|e| e.date);
        let text = write_events(&events);
        prop_assert_eq!(parse_events(&text).expect("own output parses"), events);
    }

    #[test]
    fn archive_replay_matches_live_set_model(events in prop::collection::vec(
        (0i32..500, prop::bool::ANY, roa()), 0..40), probe_off in 0i32..500) {
        let mut events: Vec<RoaEvent> = events
            .into_iter()
            .map(|(off, add, roa)| RoaEvent {
                date: Date::from_days_since_epoch(18_000 + off),
                op: if add { RoaOp::Add } else { RoaOp::Del },
                roa,
            })
            .collect();
        events.sort_by_key(|e| e.date);
        let probe = Date::from_days_since_epoch(18_000 + probe_off);

        // Model: replay the events up to and including `probe`.
        let mut live: Vec<Roa> = Vec::new();
        for e in &events {
            if e.date > probe {
                break;
            }
            match e.op {
                RoaOp::Add => {
                    if !live.contains(&e.roa) {
                        live.push(e.roa.clone());
                    }
                }
                RoaOp::Del => {
                    if let Some(pos) = live.iter().position(|r| r == &e.roa) {
                        live.remove(pos);
                    }
                }
            }
        }

        let archive = RoaArchive::from_events(&events);
        let mut got: Vec<Roa> = archive.active_on(probe, &Tal::ALL).map(|r| r.roa.clone()).collect();
        let sort = |v: &mut Vec<Roa>| {
            v.sort_by_key(|r| (r.prefix, r.asn, r.max_length, r.tal));
        };
        sort(&mut got);
        sort(&mut live);
        prop_assert_eq!(got, live);
    }

    #[test]
    fn signed_iff_some_covering_active_roa(events in prop::collection::vec(
        (0i32..300, roa()), 0..25), query in prefix(), probe_off in 0i32..300) {
        let mut events: Vec<RoaEvent> = events
            .into_iter()
            .map(|(off, roa)| RoaEvent {
                date: Date::from_days_since_epoch(18_000 + off),
                op: RoaOp::Add,
                roa,
            })
            .collect();
        events.sort_by_key(|e| e.date);
        let probe = Date::from_days_since_epoch(18_000 + probe_off);
        let archive = RoaArchive::from_events(&events);
        let expected = events
            .iter()
            .any(|e| e.date <= probe && e.roa.prefix.covers(&query));
        prop_assert_eq!(archive.is_signed_at(&query, probe, &Tal::ALL), expected);
    }

    #[test]
    fn coverage_queries_equal_a_filter_over_all(
        events in prop::collection::vec((0i32..300, prop::bool::ANY, roa()), 0..30),
        query in prefix(),
        origin in 0u32..6,
        probe_off in 0i32..300,
        tals in prop::collection::vec(tal(), 0..4),
    ) {
        let mut events: Vec<RoaEvent> = events
            .into_iter()
            .map(|(off, add, roa)| RoaEvent {
                date: Date::from_days_since_epoch(18_000 + off),
                op: if add { RoaOp::Add } else { RoaOp::Del },
                roa,
            })
            .collect();
        events.sort_by_key(|e| e.date);
        let probe = Date::from_days_since_epoch(18_000 + probe_off);
        let archive = RoaArchive::from_events(&events);
        // The reference: every generation that covers the query, is from
        // one of the TALs and is active on the probe day.
        let mut expected: Vec<Roa> = archive
            .all()
            .iter()
            .filter(|r| r.roa.prefix.covers(&query) && tals.contains(&r.roa.tal) && r.active_on(probe))
            .map(|r| r.roa.clone())
            .collect();
        let mut got: Vec<Roa> = archive
            .roas_covering_at(&query, probe, &tals)
            .into_iter()
            .cloned()
            .collect();
        let sort = |v: &mut Vec<Roa>| v.sort_by_key(|r| (r.prefix, r.asn, r.max_length, r.tal));
        sort(&mut got);
        sort(&mut expected);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(archive.is_signed_at(&query, probe, &tals), !expected.is_empty());
        prop_assert_eq!(
            archive.validate_at(&query, Asn(origin), probe, &tals),
            model_validate(&expected, &query, Asn(origin))
        );
    }
}
