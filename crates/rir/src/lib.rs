//! RIR statistics substrate.
//!
//! Each RIR publishes daily "delegated-extended" statistics files listing
//! the allocation status of every Internet number resource it manages.
//! The paper uses these archives to classify DROP prefixes as allocated
//! or unallocated (Figures 1 and 6), to detect post-listing deallocation
//! (§4.1), and to chart each RIR's remaining free pool (Figure 7).
//!
//! * [`Rir`] / [`AllocationStatus`] — registries and record statuses.
//! * [`DelegationRecord`] — one `registry|cc|ipv4|start|count|date|status`
//!   row, with CIDR decomposition of the `(start, count)` span.
//! * [`mod@format`] — byte-compatible parser/writer for the delegated-extended
//!   exchange format (version and summary lines included).
//! * [`RirStatsArchive`] — a time series of snapshot files with
//!   longest-match "status of prefix P on day D" queries, deallocation
//!   detection, and free-pool accounting.

#![warn(missing_docs)]

mod archive;
pub mod format;
mod record;
mod types;

pub use archive::{Delegation, RirStatsArchive, StatusAt};
pub use record::DelegationRecord;
pub use types::{AllocationStatus, Rir};
