//! Deterministic synthetic Internet for the droplens reproduction.
//!
//! The paper correlates five external longitudinal archives (Spamhaus
//! DROP/SBL, RouteViews BGP, RADb IRR, the RIPE ROA archive, and RIR
//! delegated stats). Those archives are not redistributable, so this crate
//! builds a *generative model of the routing ecosystem* and emits all five
//! datasets — in the same text formats the real archives use — calibrated
//! so the paper's findings reproduce in shape.
//!
//! Everything derives from a single `u64` seed through `StdRng`; two runs
//! with the same seed and [`WorldConfig`] produce byte-identical archives.
//!
//! The moving parts:
//!
//! * [`WorldConfig`] — every population size, probability, and date the
//!   generator uses, with paper-calibrated defaults and a
//!   [`WorldConfig::small`] variant for fast tests.
//! * [`World::generate`] — runs the actor simulation: RIR allocation
//!   processes, background operators with region-specific RPKI adoption,
//!   idle holders, unrouted signers (the Amazon/Prudential/Alibaba story
//!   of §6.2.1), IRR-forging hijackers (the AS50509 pattern of §5/Fig 4),
//!   the RPKI-valid hijack case study, unallocated-space squatters, the
//!   Spamhaus listing/remediation process, and three DROP-filtering
//!   collector peers.
//! * [`World`] — the generated datasets (typed) plus [`GroundTruth`]
//!   labels for every listed prefix, so tests can check the analysis
//!   pipeline against what the generator actually did.
//! * [`codec`] — each dataset's file name ([`codec::ArchiveFile`]) and
//!   the [`Archives`] bundle a world serializes into ([`TextArchives`]).

#![warn(missing_docs)]

mod alloc;
pub mod codec;
mod config;
mod sbltext;
mod truth;
mod world;

pub use alloc::BlockAllocator;
pub use codec::{Archives, TextArchives};
pub use config::{CategoryMix, WorldConfig};
pub use sbltext::SblTextGenerator;
pub use truth::{GroundTruth, HijackKind, ListedTruth, TrueCategory};
pub use world::World;
