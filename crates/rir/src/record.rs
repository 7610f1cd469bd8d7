//! Delegated stats records.

use std::fmt;
use std::net::Ipv4Addr;

use droplens_net::{Date, Ipv4Prefix};

use crate::{AllocationStatus, Rir};

/// One IPv4 row of a delegated-extended stats file:
/// `registry|cc|ipv4|start|count|date|status|opaque-id`.
///
/// The `(start, count)` span is not necessarily CIDR-aligned in real
/// files; [`DelegationRecord::prefixes`] decomposes it into the minimal
/// CIDR list, which is what the prefix indices consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DelegationRecord {
    /// Publishing registry.
    pub rir: Rir,
    /// ISO country code, or `"ZZ"`/empty for unassigned rows.
    pub country: ShortStr,
    /// First address of the span.
    pub start: Ipv4Addr,
    /// Number of addresses in the span.
    pub count: u64,
    /// Allocation date (absent for `available`/`reserved` rows).
    pub date: Option<Date>,
    /// Row status.
    pub status: AllocationStatus,
    /// Registry-internal organization handle (extended format).
    pub opaque_id: ShortStr,
}

impl DelegationRecord {
    /// A delegated (allocated) record.
    pub fn allocated(
        rir: Rir,
        country: &str,
        start: Ipv4Addr,
        count: u64,
        date: Date,
        opaque_id: &str,
    ) -> DelegationRecord {
        DelegationRecord {
            rir,
            country: country.into(),
            start,
            count,
            date: Some(date),
            status: AllocationStatus::Allocated,
            opaque_id: opaque_id.into(),
        }
    }

    /// A free-pool (`available`) record.
    pub fn available(rir: Rir, start: Ipv4Addr, count: u64) -> DelegationRecord {
        DelegationRecord {
            rir,
            country: "ZZ".into(),
            start,
            count,
            date: None,
            status: AllocationStatus::Available,
            opaque_id: "".into(),
        }
    }

    /// One past the last address of the span, as a u64 (may be 2^32).
    pub fn end_exclusive(&self) -> u64 {
        u64::from(u32::from(self.start)) + self.count
    }

    /// Decompose the `(start, count)` span into the minimal list of CIDR
    /// prefixes, in address order.
    pub fn prefixes(&self) -> Vec<Ipv4Prefix> {
        self.blocks().collect() // at most 64 blocks per span
    }

    /// [`Self::prefixes`] as an iterator, without the `Vec`: the greedy
    /// decomposition, each block the largest one both the alignment of
    /// the cursor and the remaining count allow.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = Ipv4Prefix> {
        let mut cur = u64::from(u32::from(self.start));
        let mut remaining = self.count;
        std::iter::from_fn(move || {
            if remaining == 0 || cur >= 1 << 32 {
                return None;
            }
            // Largest block allowed by alignment of `cur`.
            let align_size: u64 = if cur == 0 {
                1 << 32
            } else {
                1u64 << (cur as u32).trailing_zeros().min(32)
            };
            // Largest power of two not exceeding `remaining`.
            let fit_size = 1u64 << (63 - remaining.leading_zeros());
            let size = align_size.min(fit_size);
            let len = 32 - size.trailing_zeros() as u8;
            let block = Ipv4Prefix::from_u32(cur as u32, len);
            cur += size;
            remaining -= size;
            Some(block)
        })
    }
}

/// The most bytes a [`ShortStr`] holds inline.
const INLINE: usize = 22;

/// Text of a stats row field: up to 22 bytes inline and longer text on
/// the heap, in the 24 bytes of a `String`. Country codes and registry
/// handles are short, so parsing a row allocates nothing for them. Any
/// text is accepted.
#[derive(Clone, PartialEq, Eq)]
pub struct ShortStr(Repr);

/// Text of [`INLINE`] bytes or fewer is always inline, so equal texts
/// have equal representations.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    /// The text's length and its bytes, zero-padded.
    Inline(u8, [u8; INLINE]),
    Heap(Box<str>),
}

impl ShortStr {
    /// The text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            // Inline bytes are a whole `&str`'s, so they always decode.
            Repr::Inline(len, bytes) => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).unwrap_or_default()
            }
            Repr::Heap(text) => text,
        }
    }
}

impl From<&str> for ShortStr {
    fn from(text: &str) -> ShortStr {
        let mut bytes = [0; INLINE];
        match bytes.get_mut(..text.len()) {
            Some(inline) => {
                inline.copy_from_slice(text.as_bytes());
                ShortStr(Repr::Inline(text.len() as u8, bytes))
            }
            None => ShortStr(Repr::Heap(text.into())),
        }
    }
}

impl fmt::Display for ShortStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for ShortStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    fn addr(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn aligned_power_of_two_is_one_prefix() {
        let r = DelegationRecord::available(Rir::Apnic, addr("1.0.0.0"), 256);
        assert_eq!(
            r.prefixes(),
            vec!["1.0.0.0/24".parse::<Ipv4Prefix>().unwrap()]
        );
    }

    #[test]
    fn non_power_of_two_decomposes() {
        // 1.0.0.0 count 768 = /24 at .0 + /23 at .1.0? No: alignment of
        // 1.0.0.0 allows /8-scale blocks; fit = 512 first.
        let r = DelegationRecord::available(Rir::Apnic, addr("1.0.0.0"), 768);
        let got: Vec<String> = r.prefixes().iter().map(|p| p.to_string()).collect();
        assert_eq!(got, ["1.0.0.0/23", "1.0.2.0/24"]);
        let total: u64 = r.prefixes().iter().map(|p| p.address_count()).sum();
        assert_eq!(total, 768);
    }

    #[test]
    fn misaligned_start_decomposes() {
        let r = DelegationRecord::available(Rir::Arin, addr("10.0.1.0"), 512);
        let got: Vec<String> = r.prefixes().iter().map(|p| p.to_string()).collect();
        assert_eq!(got, ["10.0.1.0/24", "10.0.2.0/24"]);
    }

    #[test]
    fn single_address() {
        let r = DelegationRecord::available(Rir::Arin, addr("10.0.0.5"), 1);
        assert_eq!(r.prefixes()[0].to_string(), "10.0.0.5/32");
    }

    #[test]
    fn whole_space() {
        let r = DelegationRecord::available(Rir::Arin, addr("0.0.0.0"), 1 << 32);
        assert_eq!(r.prefixes()[0].to_string(), "0.0.0.0/0");
        assert_eq!(r.prefixes().len(), 1);
    }

    #[test]
    fn decomposition_is_disjoint_and_complete() {
        let r = DelegationRecord::available(Rir::Lacnic, addr("45.65.112.0"), 3 * 1024 + 256);
        let ps = r.prefixes();
        let total: u64 = ps.iter().map(|p| p.address_count()).sum();
        assert_eq!(total, r.count);
        for (i, a) in ps.iter().enumerate() {
            for b in &ps[i + 1..] {
                assert!(!a.overlaps(b));
            }
        }
        // Contiguous coverage from start.
        assert_eq!(u32::from(ps[0].network()), u32::from(r.start));
    }

    #[test]
    fn end_exclusive() {
        let r = DelegationRecord::available(Rir::Arin, addr("255.255.255.0"), 256);
        assert_eq!(r.end_exclusive(), 1u64 << 32);
    }

    #[test]
    fn short_strings_round_trip_inline_and_on_the_heap() {
        let long = "x".repeat(64);
        let texts = [
            "",
            "ZZ",
            "ORG-0123456789-ABCDEFG",
            "ORG-0123456789-ABCDEFGH",
            &long,
            "Ñandú-ORG-éü",
            "ñ".repeat(11).as_str(),
            "ñ".repeat(12).as_str(),
        ]
        .map(str::to_owned);
        let lens: Vec<usize> = texts[..5].iter().map(String::len).collect();
        assert_eq!(lens, [0, 2, 22, 23, 64]);
        for text in &texts {
            let short = ShortStr::from(text.as_str());
            assert_eq!(short.as_str(), text);
            assert_eq!(short.to_string(), *text);
            assert_eq!(format!("{short:?}"), format!("{text:?}"));
            assert_eq!(format!("[{short:>30}]"), format!("[{text:>30}]"));
            assert_eq!(matches!(short.0, Repr::Inline(..)), text.len() <= INLINE);
            assert_eq!(short.clone(), short);
        }
        assert_ne!(ShortStr::from("ZZ"), ShortStr::from("ZZ\0"));
        assert_eq!(std::mem::size_of::<ShortStr>(), 24);
        assert_eq!(std::mem::size_of::<DelegationRecord>(), 72);
    }

    #[test]
    fn constructors() {
        let d = Date::from_ymd(2011, 8, 11);
        let r = DelegationRecord::allocated(Rir::Apnic, "AU", addr("1.0.0.0"), 256, d, "A91872ED");
        assert_eq!(r.status, AllocationStatus::Allocated);
        assert_eq!(r.date, Some(d));
        assert!(r.status.is_delegated());
        let f = DelegationRecord::available(Rir::Apnic, addr("1.1.0.0"), 65536);
        assert_eq!(f.date, None);
        assert!(!f.status.is_delegated());
    }
}
