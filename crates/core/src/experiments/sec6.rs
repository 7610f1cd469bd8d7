//! §6.2: AS0 at the operator and RIR level.
//!
//! * The operator-AS0 story: the one DROP prefix whose holder published an
//!   AS0 ROA while listed (paper: 45.65.112.0/22 — listed 2020-01-28,
//!   AS0-signed 2021-05-05, removed 2021-06-16).
//! * The RIR-AS0 reality check (§6.2.2): for each full-table peer at
//!   study end, how many of its routed prefixes would be rejected if it
//!   validated against the APNIC/LACNIC AS0 TALs. The paper found ≈30 per
//!   peer — i.e. **no** peer actually filters on those TALs.

use std::collections::BTreeMap;
use std::fmt;

use droplens_bgp::PeerId;
use droplens_net::{Asn, Date, Ipv4Prefix};
use droplens_rpki::{RovOutcome, Tal};

use crate::Study;

/// The operator-AS0 story, when found.
#[derive(Debug, Clone, Copy)]
pub struct OperatorAs0 {
    /// The protected prefix.
    pub prefix: Ipv4Prefix,
    /// Listing day.
    pub listed: Date,
    /// Day the operator's AS0 ROA appeared.
    pub as0_signed: Date,
    /// Day Spamhaus removed the prefix, if it did.
    pub removed: Option<Date>,
}

/// Per-peer count of routed prefixes an AS0-TAL validator would reject.
#[derive(Debug, Clone, Copy)]
pub struct PeerAs0Count {
    /// The peer.
    pub peer: PeerId,
    /// Routes in its table at study end that the AS0 TALs invalidate.
    pub filterable: usize,
}

/// The §6.2 results.
#[derive(Debug, Clone)]
pub struct Sec6 {
    /// Operator-AS0 stories found among the listings.
    pub operator_as0: Vec<OperatorAs0>,
    /// Per-peer AS0-TAL-filterable counts at study end.
    pub per_peer: Vec<PeerAs0Count>,
}

impl Sec6 {
    /// True when every peer still carries AS0-TAL-invalid routes — the
    /// paper's "no evidence anyone filters on those TALs".
    pub fn nobody_filters_as0_tals(&self) -> bool {
        !self.per_peer.is_empty() && self.per_peer.iter().all(|p| p.filterable > 0)
    }

    /// Smallest per-peer filterable count.
    pub fn min_filterable(&self) -> usize {
        self.per_peer
            .iter()
            .map(|p| p.filterable)
            .min()
            .unwrap_or(0)
    }

    /// Largest per-peer filterable count.
    pub fn max_filterable(&self) -> usize {
        self.per_peer
            .iter()
            .map(|p| p.filterable)
            .max()
            .unwrap_or(0)
    }
}

/// Compute the §6.2 results.
pub fn compute(study: &Study) -> Sec6 {
    let end = study.config.window.last_or_start();

    // Operator AS0: a production-TAL AS0 ROA covering a listed prefix,
    // created during the listing episode.
    let mut operator_as0 = Vec::new();
    for e in &study.entries {
        let listed = e.entry.added;
        let until = e.entry.removed.unwrap_or(end);
        let as0_signing = study
            .roa
            .signings_in_window(&e.prefix(), listed, until, &Tal::PRODUCTION)
            .into_iter()
            .filter(|r| r.roa.is_as0())
            .min_by_key(|r| r.created);
        if let Some(rec) = as0_signing {
            operator_as0.push(OperatorAs0 {
                prefix: e.prefix(),
                listed,
                as0_signed: rec.created,
                removed: e.entry.removed,
            });
        }
    }

    // §6.2.2: per peer, count the routes the AS0 TALs would reject. A
    // route is rejected when the AS0 TAL set alone covers it (any AS0 ROA
    // makes it Invalid) — the production TALs never rescue squatted pool
    // space.
    // Whether a prefix is rejected is peer-independent (ROV validation
    // aggregates over the origins all peers report), so one walk of the
    // prefixes' lanes decides it once per prefix, from the routes held
    // at study end, and then counts the peers holding one.
    let mut filterable: BTreeMap<PeerId, usize> = study.peers.iter().map(|p| (p.id, 0)).collect();
    // The origins of one prefix validated so far: most lanes repeat one.
    let mut validated: Vec<Asn> = Vec::new();
    for (prefix, lanes) in study.bgp.lanes() {
        validated.clear();
        let rejected = lanes.at(end).any(|(_, route)| {
            let origin = study.bgp.path_of(route.path).origin();
            if validated.contains(&origin) {
                return false;
            }
            validated.push(origin);
            rejected_by_as0_tals(study, &prefix, origin, end)
        });
        if !rejected {
            continue;
        }
        for (peer, _) in lanes.at(end) {
            if let Some(n) = filterable.get_mut(&peer) {
                *n += 1;
            }
        }
    }
    let per_peer = study
        .peers
        .iter()
        .map(|p| PeerAs0Count {
            peer: p.id,
            filterable: filterable[&p.id],
        })
        .collect();

    Sec6 {
        operator_as0,
        per_peer,
    }
}

/// True when the AS0 TALs invalidate the route `(prefix, origin)` on
/// `date` and the production TALs do not make it valid.
fn rejected_by_as0_tals(study: &Study, prefix: &Ipv4Prefix, origin: Asn, date: Date) -> bool {
    study
        .roa
        .validate_at(prefix, origin, date, &[Tal::ApnicAs0, Tal::LacnicAs0])
        == RovOutcome::Invalid
        && study
            .roa
            .validate_at(prefix, origin, date, &Tal::PRODUCTION)
            != RovOutcome::Valid
}

impl fmt::Display for Sec6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Section 6.2: AS0 at operator and RIR level")?;
        if self.operator_as0.is_empty() {
            writeln!(f, "  no operator-AS0 stories found")?;
        }
        for s in &self.operator_as0 {
            writeln!(
                f,
                "  operator AS0: {} listed {}, AS0-signed {}, removed {}",
                s.prefix,
                s.listed,
                s.as0_signed,
                s.removed
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "never".into()),
            )?;
        }
        writeln!(
            f,
            "  AS0-TAL-filterable routes per peer at study end: min={} max={}",
            self.min_filterable(),
            self.max_filterable(),
        )?;
        writeln!(
            f,
            "  => {}",
            if self.nobody_filters_as0_tals() {
                "every peer carries AS0-TAL-invalid routes: nobody filters on those TALs"
            } else {
                "some peer carries no AS0-TAL-invalid routes (possible AS0-TAL filtering)"
            }
        )
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use crate::experiments::testutil;

    /// §6.2.2's per-peer counts as a query per (prefix, peer): the
    /// computation the lane walk replaced.
    fn reference_per_peer(study: &Study) -> Vec<(PeerId, usize)> {
        let end = study.config.window.last_or_start();
        let mut filterable: BTreeMap<PeerId, usize> =
            study.peers.iter().map(|p| (p.id, 0)).collect();
        for prefix in study.bgp.prefixes() {
            if !study.bgp.observed_any(&prefix, end) {
                continue;
            }
            let origins = study.bgp.origins_at(&prefix, end);
            if !origins
                .iter()
                .any(|&origin| rejected_by_as0_tals(study, &prefix, origin, end))
            {
                continue;
            }
            for peer in study.peers.iter() {
                if study.bgp.observed_by(&prefix, peer.id, end) {
                    *filterable.get_mut(&peer.id).unwrap() += 1;
                }
            }
        }
        study
            .peers
            .iter()
            .map(|p| (p.id, filterable[&p.id]))
            .collect()
    }

    #[test]
    fn per_peer_counts_equal_the_per_pair_reference() {
        for (world, study) in testutil::studies() {
            let got: Vec<(PeerId, usize)> = compute(study)
                .per_peer
                .iter()
                .map(|p| (p.peer, p.filterable))
                .collect();
            assert_eq!(got, reference_per_peer(study), "{world}");
        }
    }

    #[test]
    fn finds_the_operator_as0_story() {
        let s = compute(testutil::study());
        let truth = testutil::world().truth.operator_as0_prefix.unwrap();
        assert_eq!(s.operator_as0.len(), 1);
        let story = &s.operator_as0[0];
        assert_eq!(story.prefix, truth);
        assert_eq!(story.listed.to_string(), "2020-01-28");
        assert_eq!(story.as0_signed.to_string(), "2021-05-05");
        assert_eq!(story.removed.unwrap().to_string(), "2021-06-16");
    }

    #[test]
    fn every_peer_carries_as0_tal_invalid_routes() {
        let s = compute(testutil::study());
        assert!(s.nobody_filters_as0_tals(), "{s}");
        // The filterable sets come from squats on APNIC/LACNIC pool space.
        assert!(s.min_filterable() >= 1, "min {}", s.min_filterable());
        assert!(s.max_filterable() >= s.min_filterable());
    }

    #[test]
    fn normal_peers_see_more_filterable_than_drop_filtering_peers() {
        // DROP-filtering peers drop listed squats, so they carry fewer
        // AS0-TAL-invalid routes (only the never-listed squats).
        let s = compute(testutil::study());
        let filtering = &testutil::world().truth.filtering_peers;
        let normal_min = s
            .per_peer
            .iter()
            .filter(|p| !filtering.contains(&p.peer))
            .map(|p| p.filterable)
            .min()
            .unwrap();
        let filtering_max = s
            .per_peer
            .iter()
            .filter(|p| filtering.contains(&p.peer))
            .map(|p| p.filterable)
            .max()
            .unwrap();
        assert!(
            normal_min >= filtering_max,
            "{normal_min} < {filtering_max}"
        );
    }

    #[test]
    fn renders() {
        let s = compute(testutil::study());
        let text = s.to_string();
        assert!(text.contains("operator AS0"));
        assert!(text.contains("nobody filters"));
    }
}
