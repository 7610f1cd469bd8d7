//! Figure 5: routing status of ROAs over time.
//!
//! Monthly series over the study window:
//!
//! * space covered by (non-AS0, production-TAL) ROAs;
//! * the percentage of that space actually routed (paper: 97.1% → 90.5%);
//! * signed-but-unrouted space (paper: grows to 6.7 /8s — the hijackable
//!   surface §6 warns about);
//! * allocated, unrouted space with no ROA at all (paper: 30.0 /8s, 60.8%
//!   of it under ARIN).
//!
//! Plus the §6.2.1 concentration stat: the top holders of unrouted signed
//! space (paper: Amazon 3.1 /8s, Prudential 1.0, Alibaba 0.64 — 70.1%
//! among three orgs) and the largest month-over-month jump (the Amazon
//! ROA-creation event annotated in the figure).

use std::collections::BTreeMap;
use std::fmt;

use droplens_bgp::RoutedSpans;
use droplens_net::{AddressSpace, Date, Ipv4Prefix};
use droplens_rir::{Delegation, Rir};
use droplens_rpki::Tal;

use crate::report::{pct, render_series_csv, Series};
use crate::Study;

/// One sample date's accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Point {
    /// Sample day.
    pub date: Date,
    /// Space under non-AS0 production ROAs.
    pub signed: AddressSpace,
    /// Of that, space routed (announced exactly or more specifically).
    pub signed_routed: AddressSpace,
    /// Signed but unrouted (the hijackable signed surface).
    pub signed_unrouted: AddressSpace,
    /// Allocated, unrouted, and entirely unsigned.
    pub allocated_unrouted_unsigned: AddressSpace,
}

impl Fig5Point {
    /// Percent of signed space routed.
    pub fn routed_fraction(&self) -> f64 {
        self.signed_routed.fraction_of(self.signed)
    }
}

/// The computed figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// Monthly samples.
    pub points: Vec<Fig5Point>,
    /// Unrouted-signed space per holder org at the final sample,
    /// descending.
    pub top_holders: Vec<(String, AddressSpace)>,
    /// Fraction of unrouted-signed space held by the top three orgs
    /// (paper: 70.1%).
    pub top3_share: f64,
    /// Per-RIR share of the allocated-unrouted-unsigned space at the
    /// final sample (paper: ARIN 60.8%).
    pub unsigned_by_rir: Vec<(Rir, AddressSpace)>,
    /// The sample with the largest jump in unrouted-signed space (the
    /// Amazon event).
    pub biggest_jump: Option<(Date, AddressSpace)>,
}

/// The sample days: the first of each month in the study window, then
/// its last day. Ascending.
fn sample_dates(study: &Study) -> Vec<Date> {
    let mut dates = Vec::new();
    let mut d = study.config.window.start().first_of_month();
    while d < study.config.window.end() {
        dates.push(d);
        let (y, m, _) = d.ymd();
        d = if m == 12 {
            Date::from_ymd(y + 1, 1, 1)
        } else {
            Date::from_ymd(y, m + 1, 1)
        };
    }
    if let Some(last) = study.config.window.last() {
        if dates.last() != Some(&last) {
            dates.push(last);
        }
    }
    dates
}

/// Compute Figure 5 with monthly sampling.
///
/// Every sample is answered in one pass over the signed prefixes and one
/// walk of the delegated blocks: each prefix is found in the BGP trie
/// once, and its routed days ([`droplens_bgp::RoutedSpans`]) then answer
/// each sample by binary search. The sums are integer address counts, so
/// the order in which they accumulate cannot change a result.
pub fn compute(study: &Study) -> Fig5 {
    let dates = sample_dates(study);
    let last = dates.len().checked_sub(1);
    let mut points: Vec<Fig5Point> = dates
        .iter()
        .map(|&date| Fig5Point {
            date,
            signed: AddressSpace::ZERO,
            signed_routed: AddressSpace::ZERO,
            signed_unrouted: AddressSpace::ZERO,
            allocated_unrouted_unsigned: AddressSpace::ZERO,
        })
        .collect();

    // Signed space, counted over each sample's uncovered roots, as
    // exact prefixes: space sums count each address once, while holder
    // attribution still resolves against exact allocation records
    // (canonical aggregation would merge neighboring holders' blocks).
    // In address order a covering prefix precedes what it covers, so a
    // prefix is a root unless the last root kept covers it.
    let signed = signed_prefixes(study, &dates);
    let routed: Vec<RoutedSpans> = signed
        .iter()
        .map(|(prefix, _)| study.bgp.routed_spans(prefix))
        .collect();
    let mut unrouted_at_end: Vec<Ipv4Prefix> = Vec::new();
    for (sample, point) in points.iter_mut().enumerate() {
        let mut root: Option<Ipv4Prefix> = None;
        for ((prefix, active), routed) in signed.iter().zip(&routed) {
            if !active[sample] || root.is_some_and(|r| r.covers(prefix)) {
                continue;
            }
            root = Some(*prefix);
            let space = AddressSpace::of_prefix(prefix);
            point.signed += space;
            if routed.contains(point.date) {
                point.signed_routed += space;
            } else if Some(sample) == last {
                unrouted_at_end.push(*prefix);
            }
        }
        point.signed_unrouted = point.signed.saturating_sub(point.signed_routed);
    }

    // Allocated + unrouted + unsigned, and its by-RIR split at the final
    // sample. Delegated blocks are disjoint on any one date by
    // construction of the stats files.
    let mut by_rir: BTreeMap<Rir, AddressSpace> = BTreeMap::new();
    let mut delegations = study.rir.delegated_on(&dates).peekable();
    while let Some(&Delegation { prefix, .. }) = delegations.peek() {
        let routed = study.bgp.routed_spans(&prefix);
        let space = AddressSpace::of_prefix(&prefix);
        while let Some(d) = delegations.next_if(|d| d.prefix == prefix) {
            let date = dates[d.sample];
            if routed.contains(date) || study.roa.is_signed_at(&prefix, date, &Tal::PRODUCTION) {
                continue;
            }
            points[d.sample].allocated_unrouted_unsigned += space;
            if Some(d.sample) == last {
                *by_rir.entry(d.rir).or_default() += space;
            }
        }
    }
    let mut unsigned_by_rir: Vec<(Rir, AddressSpace)> = by_rir.into_iter().collect();
    unsigned_by_rir.sort_by_key(|&(_, s)| std::cmp::Reverse(s));

    // Holder concentration at the final sample.
    let mut by_org: BTreeMap<String, AddressSpace> = BTreeMap::new();
    if let Some(&end) = dates.last() {
        for prefix in unrouted_at_end {
            let org = study
                .rir
                .status_of(&prefix, end)
                .map(|s| s.opaque_id)
                .unwrap_or_else(|| "(unknown)".to_owned());
            *by_org.entry(org).or_default() += AddressSpace::of_prefix(&prefix);
        }
    }
    let mut top_holders: Vec<(String, AddressSpace)> = by_org.into_iter().collect();
    top_holders.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    finish(points, top_holders, unsigned_by_rir)
}

/// The distinct prefixes of non-AS0 production-TAL ROAs, in address
/// order, each with a flag per sample: does one of its ROAs hold on that
/// sample's day. `dates` is ascending.
fn signed_prefixes(study: &Study, dates: &[Date]) -> Vec<(Ipv4Prefix, Vec<bool>)> {
    let mut by_prefix: BTreeMap<Ipv4Prefix, Vec<bool>> = BTreeMap::new();
    for rec in study.roa.all() {
        if rec.roa.is_as0() || !Tal::PRODUCTION.contains(&rec.roa.tal) {
            continue;
        }
        // The samples in [created, removed).
        let from = dates.partition_point(|&d| d < rec.created);
        let to = rec
            .removed
            .map_or(dates.len(), |r| dates.partition_point(|&d| d < r));
        if from >= to {
            continue;
        }
        let active = by_prefix
            .entry(rec.roa.prefix)
            .or_insert_with(|| vec![false; dates.len()]);
        for flag in active.iter_mut().take(to).skip(from) {
            *flag = true;
        }
    }
    by_prefix.into_iter().collect()
}

/// Assemble the figure from its points and final-sample splits: the
/// top-three share and the largest month-over-month jump.
fn finish(
    points: Vec<Fig5Point>,
    top_holders: Vec<(String, AddressSpace)>,
    unsigned_by_rir: Vec<(Rir, AddressSpace)>,
) -> Fig5 {
    let total_unrouted: AddressSpace = top_holders.iter().map(|(_, s)| *s).sum();
    let top3: AddressSpace = top_holders.iter().take(3).map(|(_, s)| *s).sum();

    let mut biggest_jump = None;
    for pair in points.windows(2) {
        let jump = pair[1]
            .signed_unrouted
            .saturating_sub(pair[0].signed_unrouted);
        if biggest_jump
            .as_ref()
            .is_none_or(|&(_, best): &(Date, AddressSpace)| jump > best)
        {
            biggest_jump = Some((pair[1].date, jump));
        }
    }

    Fig5 {
        points,
        top_holders,
        top3_share: top3.fraction_of(total_unrouted),
        unsigned_by_rir,
        biggest_jump,
    }
}

impl fmt::Display for Fig5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 5: routing status of ROAs (monthly, /8 equivalents)"
        )?;
        let mut signed = Series::new("signed");
        let mut routed_pct = Series::new("pct_routed");
        let mut unrouted = Series::new("signed_unrouted");
        let mut unsigned = Series::new("alloc_unrouted_no_roa");
        for p in &self.points {
            signed.push(p.date, p.signed.slash8_equivalents());
            routed_pct.push(p.date, p.routed_fraction() * 100.0);
            unrouted.push(p.date, p.signed_unrouted.slash8_equivalents());
            unsigned.push(p.date, p.allocated_unrouted_unsigned.slash8_equivalents());
        }
        f.write_str(&render_series_csv(
            "date",
            &[signed, routed_pct, unrouted, unsigned],
        ))?;
        if let Some(last) = self.points.last() {
            writeln!(
                f,
                "final: signed={}, routed={}, signed-unrouted={}, allocated-unrouted-no-ROA={}",
                last.signed,
                pct(last.routed_fraction()),
                last.signed_unrouted,
                last.allocated_unrouted_unsigned,
            )?;
        }
        writeln!(
            f,
            "top unrouted-signed holders (top3 share {}):",
            pct(self.top3_share)
        )?;
        for (org, space) in self.top_holders.iter().take(5) {
            writeln!(f, "  {org}: {space}")?;
        }
        if let Some((date, jump)) = &self.biggest_jump {
            writeln!(f, "largest unrouted-signed jump: +{jump} at {date}")?;
        }
        writeln!(f, "allocated-unrouted-unsigned by RIR:")?;
        let total: AddressSpace = self.unsigned_by_rir.iter().map(|(_, s)| *s).sum();
        for (rir, space) in &self.unsigned_by_rir {
            writeln!(f, "  {rir}: {space} ({})", pct(space.fraction_of(total)))?;
        }
        Ok(())
    }
}

/// The per-sample computation that [`compute`] replaced, kept as the
/// reference it must agree with: for each sample, a trie of that day's
/// signed prefixes, and a `routed_at` / `is_signed_at` query per
/// (prefix, sample).
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn compute(study: &Study) -> Fig5 {
        let dates = sample_dates(study);
        let points: Vec<Fig5Point> = dates.iter().map(|&d| sample(study, d)).collect();
        let mut top_holders: Vec<(String, AddressSpace)> = Vec::new();
        let mut unsigned_by_rir: Vec<(Rir, AddressSpace)> = Vec::new();
        if let Some(&end) = dates.last() {
            let mut by_org: BTreeMap<String, AddressSpace> = BTreeMap::new();
            for prefix in signed_prefixes(study, end) {
                if study.routed_at(&prefix, end) {
                    continue;
                }
                let org = study
                    .rir
                    .status_of(&prefix, end)
                    .map(|s| s.opaque_id)
                    .unwrap_or_else(|| "(unknown)".to_owned());
                *by_org.entry(org).or_default() += AddressSpace::of_prefix(&prefix);
            }
            top_holders = by_org.into_iter().collect();
            top_holders.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

            let mut by_rir: BTreeMap<Rir, AddressSpace> = BTreeMap::new();
            for (prefix, rir, _) in study.rir.delegated_prefixes_at(end) {
                if study.routed_at(&prefix, end)
                    || study.roa.is_signed_at(&prefix, end, &Tal::PRODUCTION)
                {
                    continue;
                }
                *by_rir.entry(rir).or_default() += AddressSpace::of_prefix(&prefix);
            }
            unsigned_by_rir = by_rir.into_iter().collect();
            unsigned_by_rir.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
        }
        finish(points, top_holders, unsigned_by_rir)
    }

    /// The uncovered roots among the non-AS0 production-TAL ROA prefixes
    /// active on `date`.
    fn signed_prefixes(study: &Study, date: Date) -> Vec<Ipv4Prefix> {
        let mut trie: droplens_net::PrefixTrie<()> = droplens_net::PrefixTrie::new();
        for rec in study.roa.active_on(date, &Tal::PRODUCTION) {
            if !rec.roa.is_as0() {
                trie.insert(rec.roa.prefix, ());
            }
        }
        trie.keys()
            .filter(|p| trie.matches(p).len() == 1) // keep only uncovered roots
            .collect()
    }

    fn sample(study: &Study, date: Date) -> Fig5Point {
        let mut signed = AddressSpace::ZERO;
        let mut signed_routed = AddressSpace::ZERO;
        for prefix in signed_prefixes(study, date) {
            let space = AddressSpace::of_prefix(&prefix);
            signed += space;
            if study.routed_at(&prefix, date) {
                signed_routed += space;
            }
        }
        let mut allocated_unrouted_unsigned = AddressSpace::ZERO;
        for (prefix, _, _) in study.rir.delegated_prefixes_at(date) {
            if study.routed_at(&prefix, date) {
                continue;
            }
            if study.roa.is_signed_at(&prefix, date, &Tal::PRODUCTION) {
                continue;
            }
            allocated_unrouted_unsigned += AddressSpace::of_prefix(&prefix);
        }
        Fig5Point {
            date,
            signed,
            signed_routed,
            signed_unrouted: signed.saturating_sub(signed_routed),
            allocated_unrouted_unsigned,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use crate::experiments::testutil;

    #[test]
    fn equals_the_per_sample_reference() {
        for (world, study) in testutil::studies() {
            assert_eq!(compute(study), reference::compute(study), "{world}");
        }
    }

    #[test]
    fn signed_space_grows_and_routed_pct_declines() {
        let fig = compute(testutil::study());
        let first = fig.points.first().unwrap();
        let last = fig.points.last().unwrap();
        assert!(last.signed > first.signed, "ROA space should grow");
        assert!(
            last.routed_fraction() < first.routed_fraction(),
            "routed share should decline: {} -> {}",
            first.routed_fraction(),
            last.routed_fraction()
        );
        assert!(last.routed_fraction() > 0.5, "{}", last.routed_fraction());
    }

    #[test]
    fn unrouted_signed_space_grows() {
        let fig = compute(testutil::study());
        let first = fig.points.first().unwrap();
        let last = fig.points.last().unwrap();
        assert!(last.signed_unrouted > first.signed_unrouted);
        assert!(!last.allocated_unrouted_unsigned.is_zero());
    }

    #[test]
    fn amazon_style_event_is_the_biggest_jump() {
        let fig = compute(testutil::study());
        let (date, jump) = fig.biggest_jump.unwrap();
        // The small world's "amazon" signs 8 /12s on 2020-10-01, so the
        // October sample carries the step.
        assert_eq!((date.year(), date.month()), (2020, 10));
        assert!(jump.slash8_equivalents() > 0.4, "{jump}");
    }

    #[test]
    fn top_holders_concentrate_unrouted_signed_space() {
        let fig = compute(testutil::study());
        assert!(!fig.top_holders.is_empty());
        assert!(fig.top3_share > 0.5, "{}", fig.top3_share);
        // The Amazon-analog org leads.
        assert!(
            fig.top_holders[0].0.contains("amazon"),
            "{:?}",
            fig.top_holders[0]
        );
    }

    #[test]
    fn arin_dominates_unsigned_unrouted() {
        let fig = compute(testutil::study());
        assert_eq!(
            fig.unsigned_by_rir.first().map(|(r, _)| *r),
            Some(Rir::Arin)
        );
    }

    #[test]
    fn renders_csv() {
        let fig = compute(testutil::study());
        let s = fig.to_string();
        assert!(s.contains("date,signed,pct_routed"));
        assert!(s.contains("top unrouted-signed holders"));
    }
}
