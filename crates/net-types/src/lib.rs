//! Core network types shared by every droplens crate.
//!
//! This crate is the foundation of the droplens workspace, a reproduction of
//! *"Stop, DROP, and ROA: Effectiveness of Defenses through the lens of
//! DROP"* (IMC 2022). It provides the small set of domain primitives the
//! paper's analysis is built on:
//!
//! * [`Ipv4Prefix`] — an IPv4 CIDR prefix with canonical (host-bits-zeroed)
//!   representation, parsing, containment and set arithmetic helpers.
//! * [`Asn`] — an autonomous system number, including the reserved
//!   [`Asn::AS0`] used by RPKI AS0 ROAs.
//! * [`Date`] — a proleptic-Gregorian civil date with day arithmetic. The
//!   whole study is indexed in days; we deliberately avoid a full datetime
//!   dependency.
//! * [`PrefixTrie`] — a binary (Patricia-style) trie keyed by prefixes,
//!   supporting exact, longest-match, covering and covered-by queries. This
//!   is the workhorse index for correlating DROP entries with BGP routes,
//!   IRR objects, ROAs and RIR delegations.
//! * [`PrefixSet`] — a set of prefixes maintained in disjoint canonical
//!   form, with /8-equivalent accounting used throughout the paper's
//!   address-space figures.
//!
//! All types are plain data: `Copy` where possible, no interior mutability,
//! no global state, and deterministic `Ord` implementations so that every
//! downstream report is reproducible byte-for-byte.

#![warn(missing_docs)]

mod asn;
mod date;
mod error;
mod fields;
pub mod ingest;
mod intern;
mod prefix;
mod set;
mod space;
mod trie;

pub use asn::Asn;
pub use date::{CompactDate, Date, DateRange, Month};
pub use error::{LocatedError, ParseError};
pub use fields::split_fields;
pub use ingest::{
    find_gaps, GapSpan, IngestError, IngestPolicy, IngestReport, Quarantine, SourceCoverage,
    SourceIngest, QUARANTINE_SAMPLES_KEPT,
};
pub use intern::{InternId, MaintainerId, OrgId, StringInterner};
pub use prefix::Ipv4Prefix;
pub use set::PrefixSet;
pub use space::{AddressSpace, SLASH8};
pub use trie::{PrefixTrie, TRIE_NODE_SIZE};
