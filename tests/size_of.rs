//! Size-of regression tests for the hot data-model types.
//!
//! Larger worlds rest on the columnar diet of the per-record structs
//! (DESIGN.md §11); these tests pin the post-diet sizes so accidental
//! struct growth — a new field on a type instantiated millions of times —
//! fails CI instead of landing silently. If a size change is
//! *intentional*, update the constant here in the same commit and say
//! why in the message.

use std::mem::size_of;

use droplens_bgp::{AsPath, Interval, PathId, PeerId};
use droplens_drop::{DropEntry, SblId};
use droplens_net::{Asn, Date, Ipv4Prefix, MaintainerId, OrgId, TRIE_NODE_SIZE};

/// Interned/compact ids are a single u32 — the whole point of interning.
#[test]
fn interned_ids_are_four_bytes() {
    assert_eq!(size_of::<Asn>(), 4);
    assert_eq!(size_of::<PeerId>(), 4);
    assert_eq!(size_of::<SblId>(), 4);
    assert_eq!(size_of::<Date>(), 4);
    assert_eq!(size_of::<OrgId>(), 4);
    assert_eq!(size_of::<MaintainerId>(), 4);
    assert_eq!(size_of::<PathId>(), 4);
}

/// A prefix is addr + len, padded to one word-half: 8 bytes, copyable.
#[test]
fn prefix_is_eight_bytes() {
    assert_eq!(size_of::<Ipv4Prefix>(), 8);
    // The Option costs nothing extra only when a niche exists; today it
    // doesn't (all 2^32 addrs and 0..=32 lens are in use at u8 width is
    // not a niche the compiler exploits across the pair) — record the
    // real cost so a future niche optimization shows up as a *failure
    // to shrink* here, prompting the constant to be lowered.
    assert!(size_of::<Option<Ipv4Prefix>>() <= 12);
}

/// The shared path handle every update and archive path-arena entry
/// holds. `AsPath` is an `Arc<[Asn]>` (ptr + refcount-shared length):
/// two words, down from a `Vec`'s three, and clones are refcount bumps.
#[test]
fn rib_entry_stays_compact() {
    assert_eq!(size_of::<AsPath>(), 16);
}

/// A visibility interval: start + optional end + 4-byte arena path id
/// (down from 40 bytes when it carried an owned path vec).
#[test]
fn visibility_interval_stays_compact() {
    assert_eq!(size_of::<Interval>(), 16);
}

/// One DROP listing episode.
#[test]
fn drop_entry_stays_compact() {
    assert_eq!(size_of::<DropEntry>(), 28);
}

/// A prefix-trie arena node: packed prefix + two u32 child ids. The trie
/// backs every cross-source correlation index, so node size is the
/// constant factor on the whole study's memory.
#[test]
fn trie_node_stays_compact() {
    assert_eq!(TRIE_NODE_SIZE, 16, "trie node is no longer 16 bytes");
}
