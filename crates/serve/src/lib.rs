//! droplens-serve: a long-lived, fault-tolerant query service over the
//! indexed [`Study`](droplens_core::Study).
//!
//! The batch pipeline builds the expensive immutable study once; this
//! crate turns it into shared read-only state behind a persistent TCP
//! server answering queries — prefix visibility on a date, ROV
//! validity, DROP membership and history, scorecard slices, and a
//! `stats` health query exposing the obs counters — over a
//! length-prefixed binary protocol with a versioned frame header
//! ([`protocol`]).
//!
//! The robustness contract, end to end:
//!
//! * **no panics on untrusted input** — clippy denies `unwrap`,
//!   `expect`, `panic!`, `todo!`, `unimplemented!` and, in this crate,
//!   indexing and slicing: every byte a client sends is read through
//!   checked access, and a bad frame becomes a located error;
//! * **deadlines everywhere** — every socket is a
//!   [`DeadlineStream`](net::DeadlineStream), whose two constructors
//!   (`connect` and `accept`) configure read and write timeouts before
//!   returning it; `clippy.toml` bans the raw `TcpStream::connect`,
//!   `TcpStream::connect_timeout`, `TcpListener::accept` and
//!   `TcpListener::incoming` everywhere else;
//! * **bounded work, explicit shedding** — accepted connections enter a
//!   bounded queue; when it is full the acceptor answers with a typed
//!   [`Reply::Busy`] within the write deadline and closes, never
//!   queueing unboundedly and never hanging;
//! * **per-connection error isolation** — a malformed or adversarial
//!   frame, or a transport error on a read or a reply write, kills only
//!   its own connection; the fault is counted and sampled in a
//!   quarantine-style [`ServeLedger`];
//! * **graceful drain** — on shutdown (signal or
//!   [`ServerHandle::stop`](server::ServerHandle::stop)) the listener
//!   closes, queued connections get a typed `Busy`, the request in
//!   flight finishes its reply whole (no torn frames), and the final
//!   metrics flush;
//! * **retries under a budget** — the bundled [`Client`] retries
//!   connect failures, timeouts, torn replies, and `Busy` with jittered
//!   exponential backoff from an explicit seed, up to a hard attempt
//!   budget.
//!
//! A running server is observable while it runs: the [`telemetry`]
//! plane is each server's one record of serve events. It keeps
//! lifetime and windowed per-kind counts, latency quantiles, live
//! queue-depth/in-flight gauges, per-phase timings, a bounded
//! slow-query ledger and the fault samples, answered over the wire as
//! a `Metrics` frame (one stable JSON document) and consumed by
//! `droplens top` and `droplens slo check`. The `stats` reply and the
//! final [`ServeReport`] read the same record, so every count is that
//! server's own.
//!
//! The [`loadgen`] module hammers a server with many concurrent
//! client threads while obs records latency histograms, and
//! double-checks every deterministic reply byte-for-byte against the
//! offline engine — the chaos acceptance gate in `tests/serve.rs` runs
//! exactly that through `droplens-faults`' seeded network-fault proxy.

#![warn(missing_docs)]
// Indexing is a panic source clippy's workspace table does not cover;
// deny it here, where every frame is attacker-controlled. A site that
// is in bounds by construction takes an item-level allow with a reason.
#![deny(clippy::indexing_slicing)]

pub mod client;
pub mod engine;
pub mod loadgen;
pub mod net;
pub mod protocol;
pub mod server;
pub mod shutdown;
pub mod telemetry;

pub use client::{Client, ClientConfig, ClientError, RetryPolicy};
pub use engine::Engine;
pub use loadgen::{LoadConfig, LoadReport};
pub use protocol::{FrameError, Reply, Request, WireError, KIND_LABELS};
pub use server::{ServeLedger, ServeReport, Server, ServerConfig, ServerHandle};
pub use telemetry::{Telemetry, METRICS_SCHEMA};
