//! Spamhaus DROP / SBL substrate.
//!
//! The study's primary input is the Don't Route Or Peer list: daily
//! snapshots of `prefix ; SBLnnnnn` lines (archived by FireHOL), plus the
//! freeform SBL records documenting why each prefix was listed. This
//! crate models both, and implements the paper's Appendix-A
//! semi-automated categorization.
//!
//! * [`Category`] — the six analysis categories (HJ, SS, KS, MH, UA, NR).
//! * [`SblRecord`] / [`SblDatabase`] — record bodies keyed by SBL id, with
//!   the keyword classifier ([`classify`]) and malicious-ASN extraction.
//! * [`list`] — the DROP file format and [`DropTimeline`], which diffs a
//!   series of daily snapshots into dated add/remove entries.

#![warn(missing_docs)]

mod category;
pub mod list;
mod sbl;

pub use category::Category;
pub use list::{repair_flickers, DropEntry, DropSnapshot, DropTimeline};
pub use sbl::{classify, extract_asns, Classification, SblDatabase, SblId, SblRecord};
