//! World generation: the actor simulation and its emitted datasets.

mod builder;

use droplens_bgp::format::write_updates;
use droplens_bgp::{BgpUpdate, Peer};
use droplens_drop::{DropSnapshot, SblDatabase};
use droplens_irr::{write_journal, JournalEntry};
use droplens_rir::format::{RowLines, SharedSnapshot, StatsRows};
use droplens_rpki::format::{write_events, RoaEvent};

use crate::codec::{Archives, StatsPayloads, TextArchives};
use crate::{GroundTruth, WorldConfig};

/// A fully generated synthetic world: every dataset the paper's pipeline
/// consumes, plus ground truth.
pub struct World {
    /// The configuration that produced it.
    pub config: WorldConfig,
    /// Collector peers.
    pub peers: Vec<Peer>,
    /// The complete BGP update stream, chronologically sorted.
    pub bgp_updates: Vec<BgpUpdate>,
    /// The IRR journal, chronologically sorted.
    pub irr_journal: Vec<JournalEntry>,
    /// The ROA event journal, chronologically sorted.
    pub roa_events: Vec<RoaEvent>,
    /// Every distinct delegated-stats row, stored once.
    pub rir_rows: StatsRows,
    /// Dated RIR stats snapshots (one file per RIR per date, in
    /// [`Rir::ALL`](droplens_rir::Rir::ALL) order) over `rir_rows`.
    pub rir_snapshots: Vec<SharedSnapshot>,
    /// Daily DROP snapshots over the study window.
    pub drop_snapshots: Vec<DropSnapshot>,
    /// SBL record bodies (NR prefixes are absent, as in reality).
    pub sbl_db: SblDatabase,
    /// What the generator actually did.
    pub truth: GroundTruth,
}

impl World {
    /// Generate a world from a seed and configuration. Identical inputs
    /// produce identical worlds.
    pub fn generate(seed: u64, config: &WorldConfig) -> World {
        let obs = droplens_obs::global();
        let world = {
            let mut span = obs.span("synth.generate");
            span.arg_u64("seed", seed)
                .arg_str("study_start", config.study_start.to_string())
                .arg_str("study_end", config.study_end.to_string())
                .arg_u64("peers", config.peer_count as u64);
            let world = builder::Builder::new(seed, config.clone()).build();
            span.arg_u64("bgp_updates", world.bgp_updates.len() as u64);
            world
        };
        obs.counter("synth.bgp_updates")
            .add(world.bgp_updates.len() as u64);
        obs.counter("synth.irr_entries")
            .add(world.irr_journal.len() as u64);
        obs.counter("synth.roa_events")
            .add(world.roa_events.len() as u64);
        obs.counter("synth.drop_listings")
            .add(world.truth.listed.len() as u64);
        world
    }

    /// The analyst's manual labels for every SBL record they could read.
    /// Keyed by SBL id; derived from ground truth, exactly as the paper's
    /// authors derived theirs by reading Spamhaus' prose. The pipeline
    /// consults them where automation falls short: records with no
    /// Appendix-A keyword (the paper's 7.3% bucket) and — under
    /// permissive ingestion — records lost to quarantined archive damage.
    pub fn manual_labels(
        &self,
    ) -> std::collections::BTreeMap<droplens_drop::SblId, Vec<droplens_drop::Category>> {
        use droplens_drop::Category;
        let mut out = std::collections::BTreeMap::new();
        for snap in &self.drop_snapshots {
            for (prefix, sbl) in &snap.entries {
                let Some(sbl) = sbl else { continue };
                if self.sbl_db.get(*sbl).is_none() {
                    continue; // a vanished record was never read by anyone
                }
                let Some(truth) = self.truth.for_prefix(prefix) else {
                    continue;
                };
                let cats: Vec<Category> = truth
                    .categories
                    .iter()
                    .map(|c| match c {
                        crate::TrueCategory::Hijacked => Category::Hijacked,
                        crate::TrueCategory::Snowshoe => Category::SnowshoeSpam,
                        crate::TrueCategory::KnownSpamOp => Category::KnownSpamOperation,
                        crate::TrueCategory::MaliciousHosting => Category::MaliciousHosting,
                        crate::TrueCategory::Unallocated => Category::Unallocated,
                    })
                    .collect();
                out.insert(*sbl, cats);
            }
        }
        out
    }

    /// Serialize every dataset into its wire format. The six datasets
    /// serialize independently, so they fan out and collect into fixed
    /// positions (identical output at any worker count).
    pub fn to_text_archives(&self) -> TextArchives {
        let (bgp_updates, irr_journal, roa_events, rir_snapshots, drop_and_sbl) =
            droplens_par::join5(
                || write_updates(&self.bgp_updates, &self.peers),
                || write_journal(&self.irr_journal),
                || write_events(&self.roa_events),
                || write_stats_series(&self.rir_rows, &self.rir_snapshots),
                || {
                    (
                        droplens_par::par_map(&self.drop_snapshots, |s| (s.date, s.to_text())),
                        self.sbl_db.to_text(),
                    )
                },
            );
        let (drop_snapshots, sbl_records) = drop_and_sbl;
        Archives {
            bgp_updates,
            irr_journal,
            roa_events,
            rir_snapshots,
            drop_snapshots,
            sbl_records,
        }
    }
}

/// Every file of a delegated-stats series as text, the dates spread over
/// the workers. Each distinct row is formatted once; files copy its line.
fn write_stats_series(rows: &StatsRows, snapshots: &[SharedSnapshot]) -> StatsPayloads<String> {
    let lines = RowLines::new(rows);
    droplens_par::par_map(snapshots, |(date, files)| {
        (
            *date,
            files.iter().map(|file| lines.write_file(file)).collect(),
        )
    })
}
