//! BGP substrate for the droplens reproduction.
//!
//! The paper correlates DROP-listed prefixes against BGP announcement data
//! from all 36 RouteViews collectors. This crate provides the complete
//! substrate those analyses need:
//!
//! * [`AsPath`] — an AS-path attribute with origin/first-hop accessors and
//!   prepend handling.
//! * [`Peer`] / [`PeerId`] — identities of the full-table peers whose
//!   vantage points define prefix visibility.
//! * [`BgpUpdate`] and [`BgpEvent`] — dated announce/withdraw events.
//! * [`mod@format`] — a one-line textual update format modeled on
//!   `bgpdump -m` output, so synthetic archives round-trip through genuine
//!   parsing code like the real MRT pipelines do.
//! * [`BgpArchive`] — the longitudinal index: per-(prefix, peer)
//!   announcement intervals supporting "who observed this prefix when"
//!   and "which path did this peer hold on that day" queries in
//!   O(log n).
//! * [`visibility`] — the paper's §4.1 machinery: withdrawal inference
//!   after DROP listing and detection of peers that filter DROP prefixes
//!   (Figure 2).
//! * [`history`] — origin/transit segment extraction and the Figure 4
//!   pattern search for hijacks that reuse a historic origin AS via a
//!   suspicious transit.
//! * [`CollectorSim`] — turns origination intervals into per-peer update
//!   streams, with per-peer filter policies (used by the synthetic world).
//! * [`topology`] — AS-level route propagation under Gao–Rexford
//!   policies: the business-relationship machinery that makes per-peer
//!   visibility differ in the first place.

#![warn(missing_docs)]

mod archive;
mod collector;
pub mod format;
pub mod history;
mod path;
mod peer;
pub mod topology;
mod update;
pub mod visibility;

pub use archive::{BgpArchive, Interval, Lanes, PathId, RoutedSpans};
pub use collector::{CollectorSim, FilterPolicy, Origination};
pub use path::AsPath;
pub use peer::{Peer, PeerId};
pub use update::{BgpEvent, BgpUpdate};
