//! AS-path attribute.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use droplens_net::{Asn, ParseError};

/// A BGP AS-path attribute (AS_SEQUENCE only; the analyses never need
/// AS_SETs, which have been deprecated since RFC 6472).
///
/// Stored collector-style: index 0 is the peer-adjacent (first-hop) AS and
/// the last element is the origin AS. The textual form is the familiar
/// space-separated list used by `bgpdump -m`, e.g. `"50509 34665 263692"`.
///
/// The hop list is a shared `Arc<[Asn]>`: paths repeat heavily across a
/// peer's routes (every route from the same peer shares a handful of
/// transit chains), so `clone()` is a reference-count bump and the struct itself
/// is two words instead of a `Vec`'s three plus an owned block per copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AsPath {
    hops: Arc<[Asn]>,
}

impl AsPath {
    /// Construct from hops ordered first-hop → origin. Panics on an empty
    /// hop list (an UPDATE with an empty AS_PATH is only legal for iBGP,
    /// which collectors do not model); use [`AsPath::try_new`] to handle
    /// untrusted input.
    pub fn new(hops: Vec<Asn>) -> AsPath {
        assert!(!hops.is_empty(), "AS path must have at least one hop");
        AsPath { hops: hops.into() }
    }

    /// The path `first`, then `middle`, then `last`, built in one
    /// allocation: what a peer observes of a route it receives through
    /// a transit chain.
    pub(crate) fn through(first: Asn, middle: &[Asn], last: Asn) -> AsPath {
        let hops = std::iter::once(first)
            .chain(middle.iter().copied())
            .chain(std::iter::once(last));
        AsPath {
            hops: hops.collect(),
        }
    }

    /// Fallible construction; `None` on an empty hop list.
    pub fn try_new(hops: Vec<Asn>) -> Option<AsPath> {
        if hops.is_empty() {
            None
        } else {
            Some(AsPath { hops: hops.into() })
        }
    }

    /// The origin AS (rightmost).
    pub fn origin(&self) -> Asn {
        // Non-empty by construction; indexes like [`AsPath::first_hop`].
        self.hops[self.hops.len() - 1]
    }

    /// The AS adjacent to the collector peer (leftmost).
    pub fn first_hop(&self) -> Asn {
        self.hops[0]
    }

    /// The AS immediately upstream of the origin (second to last), if the
    /// path has more than one distinct hop. Prepending is ignored: a path
    /// `"7018 3356 3356 263692"` has upstream `AS3356`.
    pub fn upstream_of_origin(&self) -> Option<Asn> {
        let origin = self.origin();
        self.hops.iter().rev().find(|&&a| a != origin).copied()
    }

    /// All hops, first-hop first.
    pub fn hops(&self) -> &[Asn] {
        &self.hops
    }

    /// Path length counting prepends, as BGP best-path selection does.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True only for the impossible empty path (kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Path length ignoring consecutive duplicate ASNs (prepending).
    pub fn unique_len(&self) -> usize {
        let mut n = 0;
        let mut prev = None;
        for &a in self.hops.iter() {
            if Some(a) != prev {
                n += 1;
                prev = Some(a);
            }
        }
        n
    }

    /// True if `asn` appears anywhere in the path. The Figure 4 analysis
    /// uses this to find routes carried through a suspicious transit AS.
    pub fn contains(&self, asn: Asn) -> bool {
        self.hops.contains(&asn)
    }

    /// A new path with `asn` prepended (as when a neighbor exports to us).
    pub fn prepended(&self, asn: Asn) -> AsPath {
        let mut hops = Vec::with_capacity(self.hops.len() + 1);
        hops.push(asn);
        hops.extend_from_slice(&self.hops);
        AsPath { hops: hops.into() }
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, asn) in self.hops.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            write!(f, "{}", asn.value())?;
        }
        Ok(())
    }
}

impl FromStr for AsPath {
    type Err = ParseError;

    /// Parses the `bgpdump -m` space-separated form, e.g. `"50509 34665 263692"`.
    /// The hops are read into a stack buffer, so a path of up to
    /// `INLINE_HOPS` hops takes one allocation, its `Arc`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut inline = [Asn(0); INLINE_HOPS];
        let mut spilled: Vec<Asn> = Vec::new();
        let mut n = 0;
        for tok in s.split_ascii_whitespace() {
            let asn: Asn = tok
                .parse()
                .map_err(|e: ParseError| ParseError::new("AsPath", s, e.detail().to_owned()))?;
            match inline.get_mut(n) {
                Some(slot) => *slot = asn,
                None => {
                    if spilled.is_empty() {
                        spilled.extend_from_slice(&inline);
                    }
                    spilled.push(asn);
                }
            }
            n += 1;
        }
        let hops = if n <= INLINE_HOPS {
            &inline[..n]
        } else {
            &spilled[..]
        };
        if hops.is_empty() {
            return Err(ParseError::new("AsPath", s, "empty path"));
        }
        Ok(AsPath { hops: hops.into() })
    }
}

/// Hops [`AsPath`]'s parser holds on the stack; longer paths, which
/// collectors rarely see, are read through a `Vec` first.
const INLINE_HOPS: usize = 32;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    fn path(s: &str) -> AsPath {
        s.parse().unwrap()
    }

    #[test]
    fn origin_and_first_hop() {
        let p = path("50509 34665 263692");
        assert_eq!(p.origin(), Asn(263692));
        assert_eq!(p.first_hop(), Asn(50509));
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn single_hop_path() {
        let p = path("64500");
        assert_eq!(p.origin(), Asn(64500));
        assert_eq!(p.first_hop(), Asn(64500));
        assert_eq!(p.upstream_of_origin(), None);
    }

    #[test]
    fn upstream_skips_prepends() {
        let p = path("7018 3356 263692 263692 263692");
        assert_eq!(p.origin(), Asn(263692));
        assert_eq!(p.upstream_of_origin(), Some(Asn(3356)));
        assert_eq!(p.unique_len(), 3);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn upstream_when_origin_prepends_only() {
        let p = path("64500 64500");
        assert_eq!(p.upstream_of_origin(), None);
    }

    #[test]
    fn contains() {
        let p = path("50509 34665 263692");
        assert!(p.contains(Asn(50509)));
        assert!(!p.contains(Asn(1)));
    }

    #[test]
    fn prepended() {
        let p = path("3356 263692").prepended(Asn(7018));
        assert_eq!(p.to_string(), "7018 3356 263692");
        assert_eq!(p.origin(), Asn(263692));
    }

    #[test]
    fn display_parse_round_trip() {
        for s in ["64500", "50509 34665 263692", "1 2 3 4 5"] {
            assert_eq!(path(s).to_string(), s);
        }
    }

    #[test]
    fn paths_longer_than_the_stack_buffer_round_trip() {
        for n in [
            INLINE_HOPS - 1,
            INLINE_HOPS,
            INLINE_HOPS + 1,
            3 * INLINE_HOPS,
        ] {
            let s = (1..=n).map(|h| h.to_string()).collect::<Vec<_>>().join(" ");
            let p = path(&s);
            assert_eq!(p.len(), n);
            assert_eq!(p.origin(), Asn(n as u32));
            assert_eq!(p.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!("".parse::<AsPath>().is_err());
        assert!("   ".parse::<AsPath>().is_err());
        assert!("1 two 3".parse::<AsPath>().is_err());
    }

    #[test]
    fn try_new_empty() {
        assert!(AsPath::try_new(vec![]).is_none());
    }
}
