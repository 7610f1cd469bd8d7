//! The droplens analysis pipeline — the paper's primary contribution.
//!
//! This crate correlates the five longitudinal data sources (DROP/SBL,
//! BGP, IRR, RPKI, RIR stats) and computes **every table and figure** of
//! *"Stop, DROP, and ROA"* (IMC 2022):
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`experiments::fig1`] | Figure 1 — DROP classification by prefix & space |
//! | [`experiments::fig2`] | Figure 2 — withdrawal CDF + filtering peers |
//! | [`experiments::table1`] | Table 1 — RPKI signing rates by region |
//! | [`experiments::sec5`] | §5 — IRR effectiveness statistics |
//! | [`experiments::fig3`] | Figure 3 — forged-IRR lead-time CDFs |
//! | [`experiments::fig4`] | Figure 4 — RPKI-valid hijack case study |
//! | [`experiments::fig5`] | Figure 5 — routing status of ROAs over time |
//! | [`experiments::fig6`] | Figure 6 — unallocated listings vs AS0 policies |
//! | [`experiments::fig7`] | Figure 7 — RIR free pools over time |
//! | [`experiments::table2`] | Table 2 / Appendix A — SBL classifier |
//! | [`experiments::sec4`] | §4.1 — deallocation after listing |
//! | [`experiments::sec6`] | §6 — RPKI-signed hijacks, operator/RIR AS0 |
//!
//! The entry point is [`Study`]: build it from a generated
//! [`droplens_synth::World`] (or from raw archive text via
//! [`Study::from_text`]), then hand it to the experiment modules. Each
//! experiment returns a typed result that renders (`Display`) as the
//! table/series the paper prints, so the bench harness regenerates the
//! evaluation verbatim.

#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
mod study;

// The table/series renderers moved into droplens-obs (the run-report
// renderer shares them); the long-standing `droplens_core::report` path
// keeps working via this re-export.
pub use droplens_obs::report;

pub use droplens_net::{IngestError, IngestPolicy, IngestReport};
pub use study::{load_rir_stats, LoadedStats, Study, StudyConfig, StudyEntry};
