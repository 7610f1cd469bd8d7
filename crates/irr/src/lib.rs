//! Internet Routing Registry (IRR) substrate.
//!
//! The paper's §5 evaluates the IRR's effectiveness by correlating DROP
//! prefixes against Merit's RADb archive: which prefixes had `route`
//! objects shortly before listing, when those objects were created (32%
//! within the month before listing — forged records), when they were
//! removed, whether the object's origin matched the hijacking ASN, and
//! which ORG-IDs were behind the forged entries.
//!
//! This crate provides:
//!
//! * [`RouteObject`] — an RPSL `route` object with the attributes the
//!   analysis uses (`route`, `origin`, `descr`, `mnt-by`, `org`,
//!   `source`), plus genuine RPSL text parsing and serialization.
//! * [`journal`] — an NRTM-style dated ADD/DEL journal format, the way
//!   real registries propagate changes to mirrors.
//! * [`IrrRegistry`] — a temporal registry built by replaying a journal,
//!   answering "which objects covered prefix P on date D" queries through
//!   a prefix trie.

#![warn(missing_docs)]

pub mod journal;
mod object;
mod registry;

pub use journal::{parse_journal, parse_journal_with, write_journal, JournalEntry, JournalOp};
pub use object::RouteObject;
pub use registry::{IrrRegistry, RegisteredObject};
