//! Insertion-ordered string interning with typed u32 ids.
//!
//! The hot archives key records by organization handles, IRR maintainer
//! names, and similar short strings that repeat across millions of
//! rows. Storing each occurrence as an owned `String` costs 24 bytes of
//! header plus a heap block per row; interning stores each distinct
//! string once and hands out a 4-byte id.
//!
//! Determinism rules (DESIGN.md §11): ids are assigned in **insertion
//! order**, so any output derived from id order is identical to output
//! derived from first-appearance order — independent of hash seeds and
//! thread count. The dedup table is a `HashMap` internally but is never
//! iterated; every observable ordering comes from the insertion-ordered
//! columns.
//!
//! Layout is columnar: one shared `String` buffer plus a `(start, len)`
//! span table, so a million interned handles cost two allocations, not
//! a million.

use std::fmt;
use std::hash::{BuildHasher, Hash, RandomState};
use std::marker::PhantomData;

/// A typed interner id: a `u32` newtype tied to one interner's domain,
/// so an org id cannot be used to index the maintainer table.
pub trait InternId: Copy + Eq {
    /// Wrap a raw index.
    fn from_u32(raw: u32) -> Self;
    /// Unwrap to the raw index.
    fn as_u32(self) -> u32;
}

/// Declares an [`InternId`] newtype with `Display` as the raw index.
macro_rules! intern_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl InternId for $name {
            fn from_u32(raw: u32) -> Self {
                $name(raw)
            }
            fn as_u32(self) -> u32 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

intern_id! {
    /// Interned RIR organization handle (delegated-stats `opaque-id`).
    OrgId
}

intern_id! {
    /// Interned IRR maintainer handle (`mnt-by`).
    MaintainerId
}

/// An insertion-ordered string interner with columnar storage.
///
/// `I` is the typed id this interner hands out. Equal strings intern to
/// equal ids; distinct strings to distinct ids; ids count up from 0 in
/// first-appearance order.
#[derive(Debug, Clone)]
#[allow(clippy::disallowed_types)] // `dedup` is never iterated: ids follow insertion order
pub struct StringInterner<I> {
    /// Every interned string, concatenated.
    buf: String,
    /// Per-id `(start, len)` spans into `buf`, in insertion order.
    spans: Vec<(u32, u32)>,
    /// Hash → candidate ids. Never iterated (see the module docs), so
    /// the seeded default hasher is fine; collisions are resolved by
    /// comparing against the actual span text.
    dedup: std::collections::HashMap<u64, Vec<u32>>,
    hasher: RandomState,
    _marker: PhantomData<I>,
}

#[allow(clippy::disallowed_types)] // the never-iterated `dedup` table
impl<I> Default for StringInterner<I> {
    fn default() -> Self {
        StringInterner {
            buf: String::new(),
            spans: Vec::new(),
            dedup: std::collections::HashMap::new(),
            hasher: RandomState::new(),
            _marker: PhantomData,
        }
    }
}

impl<I> StringInterner<I> {
    fn hash_of(&self, s: &str) -> u64 {
        self.hasher.hash_one(s)
    }

    fn text(&self, raw: u32) -> &str {
        let (start, len) = self.spans[raw as usize];
        &self.buf[start as usize..(start + len) as usize]
    }
}

impl<I> PartialEq for StringInterner<I> {
    fn eq(&self, other: &Self) -> bool {
        // Two interners are equal when they hold the same strings in the
        // same insertion order — the dedup index is derived state.
        self.spans.len() == other.spans.len()
            && (0..self.spans.len()).all(|i| self.text(i as u32) == other.text(i as u32))
    }
}

impl<I> Eq for StringInterner<I> {}

impl<I: InternId> StringInterner<I> {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `s`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, s: &str) -> I {
        let hash = self.hash_of(s);
        if let Some(candidates) = self.dedup.get(&hash) {
            for &raw in candidates {
                if self.text(raw) == s {
                    return I::from_u32(raw);
                }
            }
        }
        let raw = u32::try_from(self.spans.len()).unwrap_or(u32::MAX);
        let start = u32::try_from(self.buf.len()).unwrap_or(u32::MAX);
        self.buf.push_str(s);
        self.spans.push((start, s.len() as u32));
        self.dedup.entry(hash).or_default().push(raw);
        I::from_u32(raw)
    }

    /// The string behind `id`.
    pub fn get(&self, id: I) -> &str {
        self.text(id.as_u32())
    }

    /// The id of `s`, if it has been interned.
    pub fn lookup(&self, s: &str) -> Option<I> {
        let hash = self.hash_of(s);
        self.dedup
            .get(&hash)?
            .iter()
            .find(|&&raw| self.text(raw) == s)
            .map(|&raw| I::from_u32(raw))
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterate `(id, string)` in insertion order — the deterministic
    /// order every output derives from.
    pub fn iter(&self) -> impl Iterator<Item = (I, &str)> {
        (0..self.spans.len() as u32).map(|raw| (I::from_u32(raw), self.text(raw)))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_orders_by_insertion() {
        let mut i: StringInterner<OrgId> = StringInterner::new();
        let a = i.intern("A91872ED");
        let b = i.intern("ORG-XYZ");
        let a2 = i.intern("A91872ED");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.as_u32(), 0);
        assert_eq!(b.as_u32(), 1);
        assert_eq!(i.len(), 2);
        assert_eq!(i.get(a), "A91872ED");
        assert_eq!(i.get(b), "ORG-XYZ");
        let all: Vec<(OrgId, &str)> = i.iter().collect();
        assert_eq!(all, vec![(OrgId(0), "A91872ED"), (OrgId(1), "ORG-XYZ")]);
    }

    #[test]
    fn lookup_without_inserting() {
        let mut i: StringInterner<MaintainerId> = StringInterner::new();
        assert!(i.lookup("MAINT-AS1").is_none());
        let id = i.intern("MAINT-AS1");
        assert_eq!(i.lookup("MAINT-AS1"), Some(id));
        assert!(i.lookup("MAINT-AS2").is_none());
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn empty_strings_and_empties() {
        let mut i: StringInterner<OrgId> = StringInterner::new();
        assert!(i.is_empty());
        let e = i.intern("");
        assert_eq!(i.get(e), "");
        assert_eq!(i.intern(""), e);
        assert!(!i.is_empty());
    }

    #[test]
    fn equality_ignores_dedup_index() {
        let mut a: StringInterner<OrgId> = StringInterner::new();
        let mut b: StringInterner<OrgId> = StringInterner::new();
        a.intern("x");
        a.intern("y");
        b.intern("x");
        b.intern("y");
        assert_eq!(a, b);
        b.intern("z");
        assert_ne!(a, b);
    }

    #[test]
    fn many_strings_survive() {
        let mut i: StringInterner<OrgId> = StringInterner::new();
        let ids: Vec<OrgId> = (0..1000).map(|n| i.intern(&format!("org-{n}"))).collect();
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(i.get(*id), format!("org-{n}"));
            assert_eq!(id.as_u32(), n as u32);
        }
        assert_eq!(i.len(), 1000);
    }
}
