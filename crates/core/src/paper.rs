//! The paper's published values, and an automated scorecard.
//!
//! EXPERIMENTS.md narrates paper-vs-measured; this module *checks* it:
//! every numeric claim the reproduction targets is encoded as a
//! [`Target`] with the paper's value and a tolerance band, and
//! [`scorecard`] evaluates all of them against a computed [`Study`].
//! The reproduce binary prints the scorecard; the paper-scale regression
//! test asserts every in-band verdict.
//!
//! Bands are deliberately loose for sampled statistics (the world is
//! synthetic and seeded) and tight for structural quantities the
//! analysis must recover exactly.

use std::fmt;

use droplens_drop::Category;
use droplens_rir::Rir;

use crate::experiments;
use crate::report::TextTable;
use crate::Study;

/// How a quantity is expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A count of things.
    Count,
    /// A fraction in [0, 1].
    Fraction,
    /// /8-equivalents of address space.
    Slash8,
}

/// One numeric claim from the paper, with the measured value.
#[derive(Debug, Clone)]
pub struct Target {
    /// Where in the paper the number lives.
    pub source: &'static str,
    /// What it measures.
    pub quantity: &'static str,
    /// The paper's published value.
    pub paper: f64,
    /// Our measured value.
    pub measured: f64,
    /// Unit of both values.
    pub unit: Unit,
    /// Acceptable absolute deviation.
    pub tolerance: f64,
}

impl Target {
    /// True when the measured value is within the band.
    pub fn in_band(&self) -> bool {
        (self.measured - self.paper).abs() <= self.tolerance
    }
}

/// Every experiment's typed result, computed once and shared between the
/// presentation pass (`reproduce` prints each in paper order) and the
/// scorecard — the suite is never computed twice per run.
pub struct ExperimentResults {
    /// Study overview.
    pub summary: experiments::summary::Summary,
    /// Figure 1 — classification of DROP entries.
    pub fig1: experiments::fig1::Fig1,
    /// Figure 2 — effects of blocklisting on visibility.
    pub fig2: experiments::fig2::Fig2,
    /// Table 1 — RPKI signing rates.
    pub table1: experiments::table1::Table1,
    /// Section 5 — effectiveness of the IRR.
    pub sec5: experiments::sec5::Sec5,
    /// Figure 3 — forged-IRR lead times.
    pub fig3: experiments::fig3::Fig3,
    /// Figure 4 / §6.1 — RPKI-signed hijacks.
    pub fig4: experiments::fig4::Fig4,
    /// Figure 5 — routing status of ROAs.
    pub fig5: experiments::fig5::Fig5,
    /// Figure 6 — unallocated space on DROP vs AS0 policies.
    pub fig6: experiments::fig6::Fig6,
    /// Figure 7 — RIR free pools.
    pub fig7: experiments::fig7::Fig7,
    /// Table 2 / Appendix A — SBL categorization.
    pub table2: experiments::table2::Table2,
    /// Section 4.1 — deallocation after listing.
    pub sec4: experiments::sec4::Sec4,
    /// Section 6.2 — AS0 at operator and RIR level.
    pub sec6: experiments::sec6::Sec6,
    /// Extension — maxLength sub-prefix hijack surface.
    pub ext_maxlen: experiments::ext_maxlen::ExtMaxLen,
    /// Extension — counterfactual ROV deployment.
    pub ext_rov: experiments::ext_rov::ExtRov,
    /// Extension — attacker-AS dossiers.
    pub ext_profiles: experiments::ext_profiles::ExtProfiles,
}

/// Compute one experiment inside a span named after it (category
/// `experiment`). The span nests under `experiments` even on a worker
/// thread, because the join that fanned out adopted the caller's frame.
fn spanned<T>(name: &str, compute: impl FnOnce() -> T) -> T {
    let _span = droplens_obs::global().span_cat(name, "experiment");
    compute()
}

impl ExperimentResults {
    /// Compute all sixteen experiments, fanning out across workers, each
    /// under its own span inside one `experiments` span (so
    /// `reproduce/experiments/fig5` in `reproduce`'s run report). Results
    /// land in named fields, so the output is identical at any
    /// `DROPLENS_THREADS`.
    pub fn compute(study: &Study) -> ExperimentResults {
        let _span = droplens_obs::global().span("experiments");
        let (
            (summary, fig1, fig2, table1),
            (sec5, fig3, fig4, fig5),
            (fig6, fig7, table2, sec4),
            (sec6, ext_maxlen, ext_rov, ext_profiles),
        ) = droplens_par::join4(
            || {
                droplens_par::join4(
                    || spanned("summary", || experiments::summary::compute(study)),
                    || spanned("fig1", || experiments::fig1::compute(study)),
                    || spanned("fig2", || experiments::fig2::compute(study)),
                    || spanned("table1", || experiments::table1::compute(study)),
                )
            },
            || {
                droplens_par::join4(
                    || spanned("sec5", || experiments::sec5::compute(study)),
                    || spanned("fig3", || experiments::fig3::compute(study)),
                    || spanned("fig4", || experiments::fig4::compute(study)),
                    || spanned("fig5", || experiments::fig5::compute(study)),
                )
            },
            || {
                droplens_par::join4(
                    || spanned("fig6", || experiments::fig6::compute(study)),
                    || spanned("fig7", || experiments::fig7::compute(study)),
                    || spanned("table2", || experiments::table2::compute(study)),
                    || spanned("sec4", || experiments::sec4::compute(study)),
                )
            },
            || {
                droplens_par::join4(
                    || spanned("sec6", || experiments::sec6::compute(study)),
                    || spanned("ext_maxlen", || experiments::ext_maxlen::compute(study)),
                    || spanned("ext_rov", || experiments::ext_rov::compute(study)),
                    || spanned("ext_profiles", || experiments::ext_profiles::compute(study)),
                )
            },
        );
        ExperimentResults {
            summary,
            fig1,
            fig2,
            table1,
            sec5,
            fig3,
            fig4,
            fig5,
            fig6,
            fig7,
            table2,
            sec4,
            sec6,
            ext_maxlen,
            ext_rov,
            ext_profiles,
        }
    }
}

/// Evaluate every target against the study, computing the experiment
/// suite first. Callers that already hold an [`ExperimentResults`]
/// (like `reproduce`) should use [`scorecard_with`] instead.
pub fn scorecard(study: &Study) -> Vec<Target> {
    scorecard_with(study, &ExperimentResults::compute(study))
}

/// Evaluate every target against precomputed experiment results.
pub fn scorecard_with(study: &Study, results: &ExperimentResults) -> Vec<Target> {
    let ExperimentResults {
        fig1,
        fig2,
        table1: t1,
        sec5: s5,
        fig3,
        fig4,
        fig5,
        fig6,
        table2: t2,
        sec4: s4,
        sec6: s6,
        ..
    } = results;

    let hijack_labeled = study.with_category(Category::Hijacked).count();
    let asn_labeled = study
        .entries
        .iter()
        .filter(|e| e.hijacker_asn().is_some() && !e.afrinic_incident)
        .count();
    let (one_kw, _, none_kw) = t2.distribution();
    let Some(last5) = fig5.points.last() else {
        return Vec::new(); // degenerate: an empty study window has no samples
    };
    let arin_unsigned_share = {
        let total: droplens_net::AddressSpace = fig5.unsigned_by_rir.iter().map(|(_, s)| *s).sum();
        fig5.unsigned_by_rir
            .iter()
            .find(|(r, _)| *r == Rir::Arin)
            .map(|(_, s)| s.fraction_of(total))
            .unwrap_or(0.0)
    };

    let t = |source, quantity, paper, measured, unit, tolerance| Target {
        source,
        quantity,
        paper,
        measured,
        unit,
        tolerance,
    };

    vec![
        // §3.1 population — structural.
        t(
            "§3.1",
            "unique prefixes on DROP",
            712.0,
            fig1.total_prefixes as f64,
            Unit::Count,
            0.0,
        ),
        t(
            "§3.1",
            "prefixes labeled hijacked",
            179.0,
            hijack_labeled as f64,
            Unit::Count,
            4.0,
        ),
        t(
            "§5",
            "hijacks with labeled ASN",
            130.0,
            asn_labeled as f64,
            Unit::Count,
            4.0,
        ),
        t(
            "§3.1",
            "incident share of prefixes",
            0.063,
            fig1.incident_prefix_fraction,
            Unit::Fraction,
            0.01,
        ),
        t(
            "§3.1",
            "incident share of space",
            0.488,
            fig1.incident_space_fraction,
            Unit::Fraction,
            0.06,
        ),
        // Figure 2.
        t(
            "Fig 2",
            "withdrawn ≤30d overall",
            0.19,
            fig2.overall_30d(),
            Unit::Fraction,
            0.05,
        ),
        t(
            "Fig 2",
            "withdrawn ≤30d hijacked",
            0.707,
            fig2.hijacked_30d(),
            Unit::Fraction,
            0.08,
        ),
        t(
            "Fig 2",
            "withdrawn ≤30d unallocated",
            0.548,
            fig2.unallocated_30d(),
            Unit::Fraction,
            0.14,
        ),
        t(
            "Fig 2",
            "DROP-filtering peers",
            3.0,
            fig2.filtering_peers.len() as f64,
            Unit::Count,
            0.0,
        ),
        // Table 1.
        t(
            "Tab 1",
            "signing rate, never on DROP",
            0.223,
            t1.overall.never.fraction(),
            Unit::Fraction,
            0.04,
        ),
        t(
            "Tab 1",
            "signing rate, removed",
            0.425,
            t1.overall.removed.fraction(),
            Unit::Fraction,
            0.08,
        ),
        t(
            "Tab 1",
            "signing rate, present",
            0.138,
            t1.overall.present.fraction(),
            Unit::Fraction,
            0.09,
        ),
        t(
            "§4.2",
            "removed-signed w/ different ASN",
            0.823,
            t1.different_asn_fraction(),
            Unit::Fraction,
            0.12,
        ),
        // §5.
        t(
            "§5",
            "listings w/ route object (7d)",
            0.317,
            s5.with_route_object as f64 / s5.total.max(1) as f64,
            Unit::Fraction,
            0.04,
        ),
        t(
            "§5",
            "space of listings w/ objects",
            0.688,
            s5.space_fraction,
            Unit::Fraction,
            0.09,
        ),
        t(
            "§5",
            "objects created month before",
            0.32,
            s5.created_month_before as f64 / s5.with_route_object.max(1) as f64,
            Unit::Fraction,
            0.08,
        ),
        t(
            "§5",
            "objects removed month after",
            0.43,
            s5.removed_month_after as f64 / s5.with_route_object.max(1) as f64,
            Unit::Fraction,
            0.09,
        ),
        t(
            "§5",
            "hijacks w/ matching route object",
            0.45,
            s5.matching_asn as f64 / s5.labeled_hijacks.max(1) as f64,
            Unit::Fraction,
            0.04,
        ),
        t(
            "§5",
            "top-3 ORG share of matches",
            49.0,
            s5.top3_org_prefixes as f64,
            Unit::Count,
            3.0,
        ),
        t(
            "§5",
            "unallocated w/ route object",
            1.0,
            s5.unallocated_with_object as f64,
            Unit::Count,
            0.0,
        ),
        // Figure 3.
        t(
            "Fig 3",
            "late-IRR outliers",
            2.0,
            fig3.announced_before_record() as f64,
            Unit::Count,
            2.0,
        ),
        // Figure 4 / §6.1.
        t(
            "§6.1",
            "hijacks signed before listing",
            3.0,
            fig4.signed_before_listing.len() as f64,
            Unit::Count,
            1.0,
        ),
        t(
            "§6.1",
            "attacker-controlled ROAs",
            2.0,
            fig4.attacker_controlled.len() as f64,
            Unit::Count,
            0.0,
        ),
        t(
            "Fig 4",
            "pattern-sweep prefixes",
            7.0,
            fig4.case.as_ref().map(|c| c.pattern.len()).unwrap_or(0) as f64,
            Unit::Count,
            0.0,
        ),
        t(
            "Fig 4",
            "pattern prefixes DROP-listed",
            4.0,
            fig4.case
                .as_ref()
                .map(|c| c.pattern.iter().filter(|r| r.listed.is_some()).count())
                .unwrap_or(0) as f64,
            Unit::Count,
            0.0,
        ),
        // Figure 5.
        t(
            "Fig 5",
            "signed-unrouted space (/8s)",
            6.7,
            last5.signed_unrouted.slash8_equivalents(),
            Unit::Slash8,
            0.5,
        ),
        t(
            "Fig 5",
            "alloc-unrouted-no-ROA (/8s)",
            30.0,
            last5.allocated_unrouted_unsigned.slash8_equivalents(),
            Unit::Slash8,
            1.5,
        ),
        t(
            "Fig 5",
            "% of signed space routed",
            0.905,
            last5.routed_fraction(),
            Unit::Fraction,
            0.03,
        ),
        t(
            "Fig 5",
            "ARIN share of unsigned-unrouted",
            0.608,
            arin_unsigned_share,
            Unit::Fraction,
            0.05,
        ),
        t(
            "§6.2.1",
            "top-3 unrouted-signed holders",
            0.701,
            fig5.top3_share,
            Unit::Fraction,
            0.08,
        ),
        // Figure 6.
        t(
            "Fig 6",
            "unallocated listings",
            40.0,
            fig6.total() as f64,
            Unit::Count,
            0.0,
        ),
        t(
            "Fig 6",
            "LACNIC cluster",
            19.0,
            *fig6.per_rir.get(&Rir::Lacnic).unwrap_or(&0) as f64,
            Unit::Count,
            0.0,
        ),
        t(
            "Fig 6",
            "AFRINIC cluster",
            12.0,
            *fig6.per_rir.get(&Rir::Afrinic).unwrap_or(&0) as f64,
            Unit::Count,
            0.0,
        ),
        // Table 2.
        t(
            "App A",
            "records w/ one keyword",
            0.90,
            one_kw,
            Unit::Fraction,
            0.04,
        ),
        t(
            "App A",
            "records w/ no keyword",
            0.073,
            none_kw,
            Unit::Fraction,
            0.04,
        ),
        // §4.1.
        t(
            "§4.1",
            "MH prefixes deallocated",
            0.174,
            s4.mh_dealloc_fraction(),
            Unit::Fraction,
            0.08,
        ),
        t(
            "§4.1",
            "removed prefixes deallocated",
            0.088,
            s4.removed_dealloc_fraction(),
            Unit::Fraction,
            0.05,
        ),
        // §6.2.
        t(
            "§6.2.1",
            "operator-AS0 stories",
            1.0,
            s6.operator_as0.len() as f64,
            Unit::Count,
            0.0,
        ),
        t(
            "§6.2.2",
            "peers free of AS0-TAL-invalid routes",
            0.0,
            s6.per_peer.iter().filter(|p| p.filterable == 0).count() as f64,
            Unit::Count,
            0.0,
        ),
    ]
}

/// Render the scorecard as a table.
pub fn render(targets: &[Target]) -> String {
    let mut t = TextTable::new(vec![
        "Source", "Quantity", "Paper", "Measured", "Band", "OK",
    ]);
    for target in targets {
        let fmt_val = |v: f64| match target.unit {
            Unit::Count => format!("{v:.0}"),
            Unit::Fraction => format!("{:.1}%", v * 100.0),
            Unit::Slash8 => format!("{v:.2} /8s"),
        };
        t.row(vec![
            target.source.to_owned(),
            target.quantity.to_owned(),
            fmt_val(target.paper),
            fmt_val(target.measured),
            format!("±{}", fmt_val(target.tolerance)),
            if target.in_band() {
                "✓".to_owned()
            } else {
                "✗".to_owned()
            },
        ]);
    }
    let ok = targets.iter().filter(|t| t.in_band()).count();
    format!(
        "{}{} of {} targets in band\n",
        t.render(),
        ok,
        targets.len()
    )
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}: paper {} measured {} (±{})",
            self.source, self.quantity, self.paper, self.measured, self.tolerance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::testutil;

    #[test]
    fn scorecard_runs_on_any_study() {
        // The small world is out of band for most population targets
        // (deliberately tiny), but the scorecard must compute and render.
        let targets = scorecard(testutil::study());
        assert!(targets.len() >= 35);
        let rendered = render(&targets);
        assert!(rendered.contains("Paper"));
        assert!(rendered.contains("targets in band"));
        // Structural recoveries hold even at small scale.
        let by_name = |q: &str| {
            targets
                .iter()
                .find(|t| t.quantity == q)
                .unwrap_or_else(|| panic!("{q} missing"))
        };
        assert!(by_name("DROP-filtering peers").measured > 0.0);
        assert!(by_name("attacker-controlled ROAs").in_band());
        assert!(by_name("operator-AS0 stories").in_band());
        assert!(by_name("unallocated w/ route object").in_band());
    }

    #[test]
    fn band_logic() {
        let t = Target {
            source: "x",
            quantity: "y",
            paper: 10.0,
            measured: 10.5,
            unit: Unit::Count,
            tolerance: 1.0,
        };
        assert!(t.in_band());
        let t = Target {
            measured: 11.5,
            ..t
        };
        assert!(!t.in_band());
    }
}
