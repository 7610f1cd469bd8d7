//! The query engine: an [`Study`] indexed once, answering forever.
//!
//! [`Engine::answer`] is a pure function of the request and the
//! immutable study — the same call the offline pipeline makes for the
//! same question — so a served reply is byte-identical to the batch
//! answer regardless of worker count or thread interleaving. The chaos
//! acceptance test leans on exactly this: the load generator replays
//! every reply against a local `Engine` over the same study and
//! requires equality.

use std::sync::Arc;

use droplens_core::paper::{self, Target};
use droplens_core::Study;
use droplens_rpki::{RovOutcome, Tal};

use crate::protocol::{Episode, Reply, Request};

/// Shared read-only query state: the study plus the scorecard targets
/// computed once at startup.
pub struct Engine {
    study: Arc<Study>,
    targets: Vec<Target>,
}

impl Engine {
    /// Index `study` for serving. Computes the full scorecard once so
    /// scorecard queries are a render, not a recomputation.
    pub fn new(study: Arc<Study>) -> Engine {
        let targets = paper::scorecard(&study);
        Engine { study, targets }
    }

    /// The underlying study.
    pub fn study(&self) -> &Arc<Study> {
        &self.study
    }

    /// Answer one request. Never fails, never panics: every request
    /// that decodes has an answer.
    ///
    /// [`Request::Stats`] answers with the study-shape facts only; the
    /// server merges its live obs counters in before the reply goes out
    /// (see [`crate::server`]). All other replies are deterministic.
    pub fn answer(&self, req: &Request) -> Reply {
        match req {
            Request::Ping => Reply::Pong,
            Request::Visibility { prefix, date } => {
                let observing = self.study.bgp.peers_observing(prefix, *date) as u32;
                let total = self.study.peers.len() as u32;
                Reply::Visibility {
                    routed: self.study.routed_at(prefix, *date),
                    observing,
                    total,
                    fraction: self.study.bgp.visibility(prefix, *date),
                }
            }
            Request::Rov {
                prefix,
                origin,
                date,
                all_tals,
            } => {
                let tals: &[Tal] = if *all_tals {
                    &Tal::ALL
                } else {
                    &Tal::PRODUCTION
                };
                let outcome = match self.study.roa.validate_at(prefix, *origin, *date, tals) {
                    RovOutcome::Valid => 0,
                    RovOutcome::Invalid => 1,
                    RovOutcome::NotFound => 2,
                };
                let covering = self
                    .study
                    .roa
                    .roas_covering_at(prefix, *date, tals)
                    .iter()
                    .map(|roa| roa.to_string())
                    .collect(); // bounded by covering ROAs
                Reply::Rov { outcome, covering }
            }
            Request::DropListed { prefix, date } => Reply::DropListed {
                listed: self.study.drop.listed_on(prefix, *date),
            },
            Request::DropHistory { prefix } => {
                let episodes = self
                    .study
                    .drop
                    .for_prefix(prefix)
                    .iter()
                    .map(|entry| Episode {
                        added: entry.added,
                        removed: entry.removed,
                        sbl: entry.sbl.map(|s| s.to_string()),
                    })
                    .collect(); // bounded by the prefix's episodes
                Reply::DropHistory { episodes }
            }
            Request::Scorecard { source } => {
                let text = match source {
                    None => paper::render(&self.targets),
                    Some(needle) => {
                        let slice: Vec<Target> = self
                            .targets
                            .iter()
                            .filter(|t| t.source.contains(needle.as_str()))
                            .cloned()
                            .collect(); // bounded by scorecard size
                        paper::render(&slice)
                    }
                };
                Reply::Scorecard { text }
            }
            Request::Stats => Reply::Stats {
                pairs: self.stats_pairs(),
            },
            // The engine has no live state: the server overwrites the
            // empty document with its telemetry snapshot, the same way
            // it merges live counters into Stats.
            Request::Metrics => Reply::Metrics {
                json: String::new(),
            },
        }
    }

    /// Study-shape facts for the `stats` health query, sorted by name.
    /// The server appends its live obs counters after these.
    pub fn stats_pairs(&self) -> Vec<(String, u64)> {
        vec![
            (
                "study.drop_entries".to_owned(),
                self.study.entries.len() as u64,
            ),
            ("study.peers".to_owned(), self.study.peers.len() as u64),
            (
                "study.scorecard_targets".to_owned(),
                self.targets.len() as u64,
            ),
        ]
    }
}
