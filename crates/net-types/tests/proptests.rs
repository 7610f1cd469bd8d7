//! Property-based tests for the core network types.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
use std::collections::BTreeSet;

use droplens_net::{split_fields, AddressSpace, Date, Ipv4Prefix, PrefixSet, PrefixTrie};
use proptest::prelude::*;

/// Strategy producing arbitrary prefixes, biased toward realistic lengths.
fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::from_u32(addr, len))
}

/// Strategy producing prefixes within 10.0.0.0/8 so that overlap is common.
fn arb_dense_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 8u8..=24)
        .prop_map(|(addr, len)| Ipv4Prefix::from_u32(0x0a00_0000 | (addr & 0x00ff_ffff), len))
}

proptest! {
    #[test]
    fn prefix_display_parse_round_trip(p in arb_prefix()) {
        let s = p.to_string();
        let back: Ipv4Prefix = s.parse().unwrap();
        prop_assert_eq!(p, back);
    }

    #[test]
    fn prefix_parent_covers_child(p in arb_prefix()) {
        if let Some(parent) = p.parent() {
            prop_assert!(parent.covers(&p));
            prop_assert!(!p.covers(&parent) || p == parent);
        }
        if let Some((lo, hi)) = p.children() {
            prop_assert!(p.covers(&lo));
            prop_assert!(p.covers(&hi));
            prop_assert!(!lo.overlaps(&hi));
            prop_assert_eq!(
                lo.address_count() + hi.address_count(),
                p.address_count()
            );
        }
    }

    #[test]
    fn covers_is_transitive(a in arb_prefix(), b in arb_prefix(), c in arb_prefix()) {
        if a.covers(&b) && b.covers(&c) {
            prop_assert!(a.covers(&c));
        }
    }

    #[test]
    fn overlap_iff_one_covers_other(a in arb_prefix(), b in arb_prefix()) {
        prop_assert_eq!(a.overlaps(&b), a.covers(&b) || b.covers(&a));
        // overlap is symmetric
        prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
    }

    #[test]
    fn trie_matches_linear_scan(prefixes in prop::collection::vec(arb_dense_prefix(), 1..64),
                                query in arb_dense_prefix()) {
        let trie: PrefixTrie<usize> =
            prefixes.iter().cloned().zip(0..).collect();
        // Longest match agrees with a linear scan over deduplicated prefixes.
        let dedup: BTreeSet<Ipv4Prefix> = prefixes.iter().cloned().collect();
        let linear_best = dedup
            .iter()
            .filter(|p| p.covers(&query))
            .max_by_key(|p| p.len());
        let trie_best = trie.longest_match(&query).map(|(p, _)| p);
        prop_assert_eq!(trie_best, linear_best.cloned());

        // covered_by agrees with a linear scan.
        let linear_covered: Vec<Ipv4Prefix> = dedup
            .iter()
            .filter(|p| query.covers(p))
            .cloned()
            .collect();
        let mut trie_covered: Vec<Ipv4Prefix> =
            trie.covered_by(&query).into_iter().map(|(p, _)| p).collect();
        trie_covered.sort();
        prop_assert_eq!(trie_covered, linear_covered);
    }

    #[test]
    fn trie_insert_then_remove_all_leaves_empty(prefixes in prop::collection::vec(arb_dense_prefix(), 0..64)) {
        let mut trie: PrefixTrie<u32> = PrefixTrie::new();
        let dedup: BTreeSet<Ipv4Prefix> = prefixes.iter().cloned().collect();
        for p in &prefixes {
            trie.insert(*p, p.network_u32());
        }
        prop_assert_eq!(trie.len(), dedup.len());
        for p in &dedup {
            prop_assert_eq!(trie.remove(p), Some(p.network_u32()));
        }
        prop_assert!(trie.is_empty());
        prop_assert_eq!(trie.iter().count(), 0);
    }

    #[test]
    fn trie_iteration_is_sorted_and_complete(prefixes in prop::collection::vec(arb_dense_prefix(), 0..64)) {
        let trie: PrefixTrie<()> =
            prefixes.iter().map(|p| (*p, ())).collect();
        let keys: Vec<Ipv4Prefix> = trie.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        prop_assert_eq!(&keys, &sorted);
        let expected: BTreeSet<Ipv4Prefix> = prefixes.into_iter().collect();
        prop_assert_eq!(keys.into_iter().collect::<BTreeSet<_>>(), expected);
    }

    #[test]
    fn set_space_equals_bitcount_model(prefixes in prop::collection::vec(
        // Confine to one /16 so the model set stays small.
        (any::<u32>(), 16u8..=32).prop_map(|(addr, len)| {
            Ipv4Prefix::from_u32(0xc0a8_0000 | (addr & 0xffff), len)
        }), 0..32)) {
        let set: PrefixSet = prefixes.iter().cloned().collect();
        // Model: explicit set of addresses (within the confined /16).
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for p in &prefixes {
            for a in p.network_u32()..=p.last_address_u32() {
                model.insert(a);
            }
        }
        prop_assert_eq!(set.space().addresses(), model.len() as u64);
    }

    #[test]
    fn set_insert_remove_inverse(base in prop::collection::vec(arb_dense_prefix(), 0..16),
                                 extra in arb_dense_prefix()) {
        let set: PrefixSet = base.iter().cloned().collect();
        if !set.overlaps(&extra) {
            let mut grown = set.clone();
            grown.insert(extra);
            prop_assert_eq!(
                grown.space().addresses(),
                set.space().addresses() + AddressSpace::of_prefix(&extra).addresses()
            );
            grown.remove(extra);
            prop_assert_eq!(grown, set);
        }
    }

    #[test]
    fn set_union_commutes(a in prop::collection::vec(arb_dense_prefix(), 0..16),
                          b in prop::collection::vec(arb_dense_prefix(), 0..16)) {
        let sa: PrefixSet = a.into_iter().collect();
        let sb: PrefixSet = b.into_iter().collect();
        prop_assert_eq!(sa.union(&sb), sb.union(&sa));
        // union space >= each operand
        prop_assert!(sa.union(&sb).space() >= sa.space());
        prop_assert!(sa.union(&sb).space() >= sb.space());
    }

    #[test]
    fn set_difference_and_intersection_partition(a in prop::collection::vec(arb_dense_prefix(), 0..12),
                                                 b in prop::collection::vec(arb_dense_prefix(), 0..12)) {
        let sa: PrefixSet = a.into_iter().collect();
        let sb: PrefixSet = b.into_iter().collect();
        let diff = sa.difference(&sb);
        let inter = sa.intersection(&sb);
        // diff and inter partition sa
        prop_assert_eq!(
            diff.space().addresses() + inter.space().addresses(),
            sa.space().addresses()
        );
        prop_assert_eq!(diff.union(&inter), sa.clone());
        // intersection commutes
        prop_assert_eq!(inter, sb.intersection(&sa));
    }

    #[test]
    fn set_canonical_form_is_disjoint_and_unmergeable(prefixes in prop::collection::vec(arb_dense_prefix(), 0..32)) {
        let set: PrefixSet = prefixes.into_iter().collect();
        let items: Vec<Ipv4Prefix> = set.iter().collect();
        for (i, a) in items.iter().enumerate() {
            for b in &items[i + 1..] {
                prop_assert!(!a.overlaps(b), "{a} overlaps {b}");
            }
        }
        // No two siblings both present (otherwise not canonical).
        for a in &items {
            if let Some(sib) = a.sibling() {
                prop_assert!(
                    !items.contains(&sib),
                    "siblings {a} and {sib} both present"
                );
            }
        }
    }

    #[test]
    fn date_roundtrip_and_ordering(days in -20_000i32..40_000) {
        let d = Date::from_days_since_epoch(days);
        let (y, m, dd) = d.ymd();
        prop_assert_eq!(Date::from_ymd(y, m, dd), d);
        prop_assert_eq!(d.to_string().parse::<Date>().unwrap(), d);
        prop_assert_eq!(Date::parse_compact(&d.to_compact_string()).unwrap(), d);
        prop_assert!(d.succ() > d);
        prop_assert!(d.pred() < d);
        prop_assert_eq!(d.succ() - d.pred(), 2);
    }

    #[test]
    fn split_fields_agrees_with_str_split(
        // Multi-byte characters between runs of separators, and every
        // field count from none past the array to well beyond it.
        parts in prop::collection::vec("(é|ü|€|🦀|[a-z0-9 ]|[|,]){0,6}", 0..12),
        sep in prop::sample::select(vec![b'|', b',']),
    ) {
        let line = parts.concat();
        let want: Vec<&str> = line.split(char::from(sep)).collect();
        let (fields, n) = split_fields::<4>(&line, sep);
        prop_assert_eq!(n, want.len());
        for (k, field) in fields.iter().enumerate() {
            prop_assert_eq!(*field, want.get(k).copied().unwrap_or(""));
        }
    }

    #[test]
    fn date_add_sub_inverse(days in -20_000i32..40_000, delta in -5_000i32..5_000) {
        let d = Date::from_days_since_epoch(days);
        prop_assert_eq!((d + delta) - delta, d);
        prop_assert_eq!((d + delta) - d, delta);
        prop_assert_eq!((d + delta).days_since(d), delta);
    }
}
