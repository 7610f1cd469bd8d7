//! Delegated stats records.

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
    pub country: String,
    /// First address of the span.
    pub start: Ipv4Addr,
    /// Number of addresses in the span.
    pub count: u64,
    /// Allocation date (absent for `available`/`reserved` rows).
    pub date: Option<Date>,
    /// Row status.
    pub status: AllocationStatus,
    /// Registry-internal organization handle (extended format).
    pub opaque_id: String,
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
            country: country.to_owned(),
            start,
            count,
            date: Some(date),
            status: AllocationStatus::Allocated,
            opaque_id: opaque_id.to_owned(),
        }
    }

    /// A free-pool (`available`) record.
    pub fn available(rir: Rir, start: Ipv4Addr, count: u64) -> DelegationRecord {
        DelegationRecord {
            rir,
            country: "ZZ".to_owned(),
            start,
            count,
            date: None,
            status: AllocationStatus::Available,
            opaque_id: String::new(),
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
