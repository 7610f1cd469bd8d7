//! The study: all five sources loaded, indexed, and annotated.

use std::collections::{BTreeMap, BTreeSet};

use droplens_bgp::format::parse_updates_with;
use droplens_bgp::{BgpArchive, BgpUpdate, Peer};
use droplens_drop::{
    classify, extract_asns, Category, DropEntry, DropSnapshot, DropTimeline, SblDatabase, SblId,
};
use droplens_irr::{parse_journal_with, IrrRegistry, JournalEntry};
use droplens_net::{
    AddressSpace, Asn, Date, DateRange, IngestError, IngestPolicy, IngestReport, Ipv4Prefix,
    LocatedError, ParseError, Quarantine, SourceCoverage, SourceIngest,
};
use droplens_rir::format::{SharedStatsFile, StatsRows, StatsSeries};
use droplens_rir::{Rir, RirStatsArchive};
use droplens_rpki::format::{parse_events_with, RoaEvent};
use droplens_rpki::RoaArchive;
use droplens_synth::codec::ArchiveFile;
use droplens_synth::{TextArchives, World};

/// Expected days between RIR delegated-stats snapshots: the synthetic
/// world publishes them monthly, so a ≤31-day delta is not a gap.
const RIR_CADENCE_DAYS: u32 = 31;

/// Knobs of the analysis itself (not of the data): the study window and
/// the analyst-supplied manual labels for keyword-less SBL records.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// The paper's measurement window (inclusive).
    pub window: DateRange,
    /// Manual labels for SBL records with no Appendix-A keyword.
    pub manual_labels: BTreeMap<SblId, Vec<Category>>,
    /// Days of lookback when inferring withdrawal around a listing
    /// (Figure 2's CDF starts at −1 day).
    pub withdrawal_lookback: i32,
    /// How archive loaders react to malformed input (strict by default:
    /// synthetic archives must be byte-perfect).
    pub ingest: IngestPolicy,
}

impl StudyConfig {
    /// The paper's window with no manual labels.
    pub fn new(window: DateRange) -> StudyConfig {
        StudyConfig {
            window,
            manual_labels: BTreeMap::new(),
            withdrawal_lookback: 1,
            ingest: IngestPolicy::Strict,
        }
    }
}

/// One DROP listing episode, annotated with everything the correlations
/// need: classification, labeled ASNs, allocation status, and the
/// AFRINIC-incident flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyEntry {
    /// The raw listing episode.
    pub entry: DropEntry,
    /// Categories (keyword classification, falling back to manual labels;
    /// `NoSblRecord` when the SBL record is gone).
    pub categories: BTreeSet<Category>,
    /// Appendix-A keyword groups that fired on the record.
    pub keyword_hits: usize,
    /// ASNs named in the SBL record ("malicious ASN" annotation).
    pub asns: Vec<Asn>,
    /// Managing RIR on the listing day.
    pub rir: Option<Rir>,
    /// Whether the stats in force on the listing day showed the prefix
    /// delegated.
    pub allocated_at_listing: bool,
    /// Registry org handle on the listing day (groups the AFRINIC
    /// incidents).
    pub org: Option<String>,
    /// Set for the prefixes attributed to the two AFRINIC incidents,
    /// which the paper excludes from most analyses.
    pub afrinic_incident: bool,
}

impl StudyEntry {
    /// The listed prefix.
    pub fn prefix(&self) -> Ipv4Prefix {
        self.entry.prefix
    }

    /// Space covered by the prefix.
    pub fn space(&self) -> AddressSpace {
        AddressSpace::of_prefix(&self.entry.prefix)
    }

    /// True if the entry carries `cat`.
    pub fn has(&self, cat: Category) -> bool {
        self.categories.contains(&cat)
    }

    /// The labeled malicious ASN, when exactly the hijack annotation the
    /// paper uses is present (classified hijacked + at least one ASN).
    pub fn hijacker_asn(&self) -> Option<Asn> {
        if self.has(Category::Hijacked) {
            self.asns.first().copied()
        } else {
            None
        }
    }
}

/// All five sources, loaded and cross-indexed.
pub struct Study {
    /// Analysis configuration.
    pub config: StudyConfig,
    /// Collector peers.
    pub peers: Vec<Peer>,
    /// BGP observation index.
    pub bgp: BgpArchive,
    /// IRR registry.
    pub irr: IrrRegistry,
    /// ROA archive.
    pub roa: RoaArchive,
    /// RIR delegated-stats archive.
    pub rir: RirStatsArchive,
    /// DROP listing timeline.
    pub drop: DropTimeline,
    /// SBL record bodies.
    pub sbl: SblDatabase,
    /// Annotated listing episodes, in listing order.
    pub entries: Vec<StudyEntry>,
    /// Ingestion ledger: per-source quarantine counts and gap-aware
    /// coverage. Empty sources when the study was built in memory via
    /// [`Study::from_world`] (no parsing happened).
    pub ingest: IngestReport,
}

/// Every source's parsed records plus its quarantine ledger — the output
/// of the load spine, ready for indexing.
struct LoadedSources {
    updates: Vec<BgpUpdate>,
    bgp_q: Quarantine,
    irr_journal: Vec<JournalEntry>,
    irr_q: Quarantine,
    roa_events: Vec<RoaEvent>,
    rpki_q: Quarantine,
    rir_stats: LoadedStats,
    snapshots: Vec<DropSnapshot>,
    drop_q: Quarantine,
    sbl: SblDatabase,
    sbl_q: Quarantine,
}

/// Index a generated world's RIR series. Panics if its snapshot dates
/// are not strictly ascending: the builder writes them so, and a study
/// that silently lacked a snapshot would differ from the same world's
/// text load, which refuses the misordered date with an ingest error.
#[allow(clippy::panic)] // the builder's ascending-dates guarantee
fn world_rir_archive(world: &World) -> RirStatsArchive {
    let mut rir = RirStatsArchive::new();
    for (date, files) in &world.rir_snapshots {
        if let Err(e) = rir.try_add_shared_snapshot(*date, &world.rir_rows, files) {
            panic!("world RIR snapshots must be dated strictly ascending: {e}");
        }
    }
    rir
}

impl Study {
    /// Build a study directly from a generated world. Panics if the
    /// world's RIR snapshots are not dated strictly ascending, as the
    /// builder dates them.
    pub fn from_world(world: &World) -> Study {
        let mut config = StudyConfig::new(DateRange::inclusive(
            world.config.study_start,
            world.config.study_end,
        ));
        config.manual_labels = world.manual_labels();

        let index_span = droplens_obs::global().span("index");
        // The five indices are built from disjoint inputs, so they fan out
        // across workers; results land in fixed tuple positions, keeping
        // the study identical at any `DROPLENS_THREADS`.
        let (bgp, irr, roa, rir, drop) = droplens_par::join5(
            || BgpArchive::from_updates(world.peers.clone(), &world.bgp_updates),
            || IrrRegistry::from_journal(&world.irr_journal),
            || RoaArchive::from_events(&world.roa_events),
            || world_rir_archive(world),
            || DropTimeline::from_snapshots(&world.drop_snapshots),
        );
        index_span.finish();
        let ingest = IngestReport {
            window: Some(config.window),
            ..IngestReport::default()
        };
        Self::assemble(
            config,
            world.peers.clone(),
            bgp,
            irr,
            roa,
            rir,
            drop,
            world.sbl_db.clone(),
            ingest,
        )
    }

    /// Build a study by parsing serialized archives — the same code path
    /// a deployment against the real feeds would use: parse every
    /// archive, repair the RIR and DROP flickers that damaged snapshots
    /// leave, and merge the quarantine ledgers in fixed input order,
    /// then index and assemble. Every ledger is labelled with the file's
    /// path ([`ArchiveFile::path`]).
    ///
    /// Parsing honors `config.ingest`: in strict mode any malformed line
    /// aborts; in permissive mode malformed records are quarantined
    /// per source and the run fails only when a source blows its error
    /// or gap budget. The resulting ledger (counts, bounded samples,
    /// gap-aware coverage) lands on [`Study::ingest`].
    pub fn from_text(
        config: StudyConfig,
        peers: Vec<Peer>,
        archives: &TextArchives,
    ) -> Result<Study, IngestError> {
        let obs = droplens_obs::global();
        let mut load_span = obs.span("load");
        let policy = config.ingest;
        let ledger = |file: ArchiveFile| Quarantine::for_policy(file.path(), &policy);
        // The five sources parse independently (each closure owns one
        // source, its counters commute, and its quarantine ledger is
        // merged in fixed input order), so the load stage fans out while
        // staying deterministic at any worker count.
        let (bgp_res, irr_res, rpki_res, rir_res, drop_res) = droplens_par::join5(
            || {
                let mut q = ledger(ArchiveFile::BgpUpdates);
                let updates = parse_updates_with(&archives.bgp_updates, &mut q)?;
                Ok::<_, LocatedError>((updates, q))
            },
            || {
                let mut q = ledger(ArchiveFile::IrrJournal);
                let entries = parse_journal_with(&archives.irr_journal, &mut q)?;
                Ok::<_, LocatedError>((entries, q))
            },
            || {
                let mut q = ledger(ArchiveFile::Roas);
                let events = parse_events_with(&archives.roa_events, &mut q)?;
                Ok::<_, LocatedError>((events, q))
            },
            || load_rir_stats(&archives.rir_snapshots, &policy),
            || {
                let per_snapshot =
                    droplens_par::par_map(&archives.drop_snapshots, |(date, body)| {
                        let mut q = ledger(ArchiveFile::DropSnapshot(*date));
                        let snap = DropSnapshot::parse_with(*date, body, &mut q)?;
                        Ok::<_, LocatedError>((snap, q))
                    });
                let repair_span = droplens_obs::global().span("drop_repair");
                let mut snapshots = Vec::with_capacity(per_snapshot.len());
                let mut partial = Vec::with_capacity(per_snapshot.len());
                let mut q = Quarantine::for_policy("drop", &policy);
                for r in per_snapshot {
                    let (snap, file_q) = r?;
                    // A day that quarantined lines cannot be trusted
                    // about absences; see `repair_flickers`.
                    partial.push(file_q.quarantined > 0);
                    q.absorb(file_q);
                    snapshots.push(snap);
                }
                droplens_drop::repair_flickers(&mut snapshots, &partial);
                repair_span.finish();
                let mut sbl_q = ledger(ArchiveFile::SblRecords);
                let sbl = SblDatabase::parse_with(&archives.sbl_records, &mut sbl_q)?;
                Ok::<_, LocatedError>((snapshots, q, sbl, sbl_q))
            },
        );
        let (updates, bgp_q) = bgp_res?;
        let (irr_journal, irr_q) = irr_res?;
        let (roa_events, rpki_q) = rpki_res?;
        let rir_stats = rir_res?;
        let (snapshots, drop_q, sbl, sbl_q) = drop_res?;
        load_span
            .arg_u64("bgp_updates", updates.len() as u64)
            .arg_u64("irr_entries", irr_journal.len() as u64)
            .arg_u64("roa_events", roa_events.len() as u64)
            .arg_u64("drop_days", snapshots.len() as u64);
        load_span.finish();
        Self::index_and_assemble(
            config,
            peers,
            LoadedSources {
                updates,
                bgp_q,
                irr_journal,
                irr_q,
                roa_events,
                rpki_q,
                rir_stats,
                snapshots,
                drop_q,
                sbl,
                sbl_q,
            },
        )
    }

    /// The back half of [`Study::from_text`]: build the ingestion ledger,
    /// enforce the policy budgets, index the five sources, and assemble
    /// the study.
    fn index_and_assemble(
        config: StudyConfig,
        peers: Vec<Peer>,
        loaded: LoadedSources,
    ) -> Result<Study, IngestError> {
        let obs = droplens_obs::global();
        let policy = config.ingest;
        let LoadedSources {
            updates,
            bgp_q,
            irr_journal,
            irr_q,
            roa_events,
            rpki_q,
            rir_stats,
            snapshots,
            drop_q,
            sbl,
            sbl_q,
        } = loaded;

        // Assemble the pipeline-wide ledger in fixed source order and
        // enforce the budgets before paying for indexing.
        let ledger_span = obs.span("ledger");
        let drop_dates: Vec<Date> = snapshots.iter().map(|s| s.date).collect();
        let LoadedStats {
            rows: rir_rows,
            snapshots: rir_files,
            ledger: rir_q,
        } = rir_stats;
        let rir_dates: Vec<Date> = rir_files.iter().map(|(d, _)| *d).collect();
        let mut report = IngestReport {
            window: Some(config.window),
            ..IngestReport::default()
        };
        let event_cov = |first: Option<Date>, last: Option<Date>, n: usize| {
            SourceCoverage::of_events(first, last, n as u64)
        };
        report.sources.insert(
            "bgp".into(),
            SourceIngest {
                quarantine: bgp_q,
                coverage: event_cov(
                    updates.first().map(|u| u.date),
                    updates.last().map(|u| u.date),
                    updates.len(),
                ),
            },
        );
        report.sources.insert(
            "irr".into(),
            SourceIngest {
                quarantine: irr_q,
                coverage: event_cov(
                    irr_journal.first().map(|e| e.date),
                    irr_journal.last().map(|e| e.date),
                    irr_journal.len(),
                ),
            },
        );
        report.sources.insert(
            "rpki".into(),
            SourceIngest {
                quarantine: rpki_q,
                coverage: event_cov(
                    roa_events.first().map(|e| e.date),
                    roa_events.last().map(|e| e.date),
                    roa_events.len(),
                ),
            },
        );
        report.sources.insert(
            "rir".into(),
            SourceIngest {
                quarantine: rir_q,
                coverage: SourceCoverage::of_snapshots(
                    &rir_dates,
                    RIR_CADENCE_DAYS,
                    &config.window,
                ),
            },
        );
        report.sources.insert(
            "drop".into(),
            SourceIngest {
                quarantine: drop_q,
                coverage: SourceCoverage::of_snapshots(&drop_dates, 1, &config.window),
            },
        );
        report.sources.insert(
            "sbl".into(),
            SourceIngest {
                quarantine: sbl_q,
                coverage: event_cov(None, None, sbl.len()),
            },
        );
        report.enforce(&policy)?;
        for (name, src) in &report.sources {
            obs.counter(&format!("ingest.{name}.quarantined"))
                .add(src.quarantine.quarantined);
            obs.gauge(&format!("ingest.{name}.missing_days"))
                .set(i64::from(src.coverage.missing_days()));
        }
        let bgp_damaged = report
            .sources
            .get("bgp")
            .is_some_and(|s| s.quarantine.quarantined > 0);
        ledger_span.finish();

        let index_span = obs.span("index");
        let (bgp, irr, roa, rir, drop) = droplens_par::join5(
            || {
                let mut bgp = BgpArchive::from_updates(peers.clone(), &updates);
                // A quarantined withdraw leaves its peer's route open
                // forever; close those zombie lanes by sibling consensus.
                // Gated on actual update damage so an undamaged stream
                // indexes identically under either policy.
                if bgp_damaged {
                    let zombies = bgp.repair_zombie_routes() as u64;
                    droplens_obs::global()
                        .counter("ingest.bgp.zombie_routes_closed")
                        .add(zombies);
                }
                bgp
            },
            || IrrRegistry::from_journal(&irr_journal),
            || RoaArchive::from_events(&roa_events),
            || {
                let mut rir = RirStatsArchive::new();
                for (date, files) in &rir_files {
                    rir.try_add_shared_snapshot(*date, &rir_rows, files)?;
                }
                Ok::<_, ParseError>(rir)
            },
            || DropTimeline::try_from_snapshots(&snapshots),
        );
        let (rir, drop) = (
            rir.map_err(IngestError::Order)?,
            drop.map_err(IngestError::Order)?,
        );
        index_span.finish();
        // Everything parsed is indexed now: free it here, under a span
        // of its own, rather than at the end of the build.
        let release_span = obs.span("release");
        std::mem::drop((
            updates,
            irr_journal,
            roa_events,
            rir_rows,
            rir_files,
            snapshots,
        ));
        release_span.finish();
        Ok(Self::assemble(
            config, peers, bgp, irr, roa, rir, drop, sbl, report,
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        config: StudyConfig,
        peers: Vec<Peer>,
        bgp: BgpArchive,
        irr: IrrRegistry,
        roa: RoaArchive,
        rir: RirStatsArchive,
        drop: DropTimeline,
        sbl: SblDatabase,
        ingest: IngestReport,
    ) -> Study {
        let obs = droplens_obs::global();
        let mut annotate_span = obs.span("annotate");
        // Entries annotate independently; `par_map` preserves listing order.
        let mut entries: Vec<StudyEntry> =
            droplens_par::par_map(drop.entries(), |e| annotate(e, &sbl, &rir, &config));
        annotate_span.arg_u64("entries", entries.len() as u64);
        annotate_span.finish();
        let correlate_span = obs.span("correlate");
        mark_afrinic_incidents(&mut entries);
        correlate_span.finish();
        obs.counter("study.entries").add(entries.len() as u64);
        Study {
            config,
            peers,
            bgp,
            irr,
            roa,
            rir,
            drop,
            sbl,
            entries,
            ingest,
        }
    }

    /// Entries carrying `cat`, lazily (no intermediate `Vec`).
    pub fn with_category(&self, cat: Category) -> impl Iterator<Item = &StudyEntry> {
        self.entries.iter().filter(move |e| e.has(cat))
    }

    /// Entries excluding the AFRINIC incidents (the paper's default
    /// analysis population), lazily.
    pub fn without_incidents(&self) -> impl Iterator<Item = &StudyEntry> {
        self.entries.iter().filter(|e| !e.afrinic_incident)
    }

    /// Total address space across listed prefixes (each address counted
    /// once).
    pub fn total_listed_space(&self) -> AddressSpace {
        let set: droplens_net::PrefixSet = self.entries.iter().map(|e| e.prefix()).collect();
        set.space()
    }

    /// One day past the end of the study window.
    pub fn horizon(&self) -> Date {
        self.config.window.end()
    }

    /// True when `prefix` or one of its more-specifics was announced on
    /// `date` — "routed" as Figure 5 defines it; a covering announcement
    /// does not count. Delegates to the archive's precomputed visibility
    /// index: one binary search per record of the covered subtree. When
    /// the prefix itself is not visible that day but it or a
    /// more-specific is archived, the subtree walk allocates its stack.
    pub fn routed_at(&self, prefix: &Ipv4Prefix, date: Date) -> bool {
        self.bgp.routed_at(prefix, date)
    }
}

/// The RIR stats of a load: every distinct row stored once, the
/// snapshots over them, and the merged quarantine ledger.
pub struct LoadedStats {
    /// Every distinct row any file parsed to.
    pub rows: StatsRows,
    /// Each date with a usable file, its files in registry order over
    /// `rows`, after flicker repair.
    pub snapshots: Vec<(Date, Vec<SharedStatsFile>)>,
    /// Every file's ledger, merged by date, then registry.
    pub ledger: Quarantine,
}

/// The RIR stage of [`Study::from_text`]: walk each registry's files in
/// date order, parsing a file only where it differs from the registry's
/// previous one ([`StatsSeries`]), so each distinct row is parsed and
/// stored once. Then assemble the snapshots, merge the ledgers and
/// repair the flickers that damaged snapshots leave. `snapshots` holds
/// one file's text per registry in [`Rir::ALL`] order for each date.
pub fn load_rir_stats(
    snapshots: &[(Date, Vec<String>)],
    policy: &IngestPolicy,
) -> Result<LoadedStats, LocatedError> {
    let per_rir = droplens_par::par_map(&Rir::ALL, |&rir| {
        let slot = rir as usize;
        let mut series = StatsSeries::new();
        let mut files = Vec::with_capacity(snapshots.len());
        for (at, (date, bodies)) in snapshots.iter().enumerate() {
            // A date with fewer payloads has no file for the registries
            // past them.
            let Some(body) = bodies.get(slot) else {
                files.push(None);
                continue;
            };
            let mut q = Quarantine::for_policy(ArchiveFile::Stats(*date, rir).path(), policy);
            // `None` = the file was unusable and quarantined whole; the
            // snapshot keeps the rest.
            let file = series.parse_text(body, &mut q).map_err(|e| (at, e))?;
            files.push(Some((file, q)));
        }
        Ok::<_, (usize, LocatedError)>((series.into_rows(), files))
    });
    let repair_span = droplens_obs::global().span("rir_repair");
    // A strict failure is the earliest date's, and of that date's, the
    // first registry's.
    let mut failed: Option<(usize, LocatedError)> = None;
    let mut rows = StatsRows::default();
    let mut by_rir = Vec::with_capacity(per_rir.len());
    for r in per_rir {
        match r {
            Ok((table, mut files)) => {
                rows.append(table, files.iter_mut().flatten().flat_map(|(f, _)| f));
                by_rir.push(files.into_iter());
            }
            Err((at, e)) => {
                if failed.as_ref().is_none_or(|(first, _)| at < *first) {
                    failed = Some((at, e));
                }
            }
        }
    }
    if let Some((_, e)) = failed {
        return Err(e);
    }
    let mut out = Vec::new();
    let mut partial = Vec::new();
    let mut ledger = Quarantine::for_policy("rir", policy);
    for (date, bodies) in snapshots {
        let mut kept = Vec::with_capacity(bodies.len());
        let mut merged = Quarantine::for_policy("rir", policy);
        for (file, q) in by_rir.iter_mut().filter_map(|files| files.next().flatten()) {
            kept.extend(file);
            merged.absorb(q);
        }
        // Quarantined rows or a dropped file make the snapshot
        // untrustworthy about *absent* spans.
        let damaged = merged.quarantined > 0 || kept.len() < bodies.len();
        ledger.absorb(merged);
        // A snapshot with every file dropped is a gap, not an empty
        // registry.
        if !kept.is_empty() {
            out.push((*date, kept));
            partial.push(damaged);
        }
    }
    droplens_rir::format::repair_flickers(&rows, &mut out, &partial);
    repair_span.finish();
    Ok(LoadedStats {
        rows,
        snapshots: out,
        ledger,
    })
}

fn annotate(
    entry: &DropEntry,
    sbl: &SblDatabase,
    rir: &RirStatsArchive,
    config: &StudyConfig,
) -> StudyEntry {
    let mut categories = BTreeSet::new();
    let mut keyword_hits = 0;
    let mut asns = Vec::new();
    match entry.sbl.and_then(|id| sbl.get(id)) {
        Some(record) => {
            let c = classify(&record.text);
            keyword_hits = c.keyword_hits;
            if c.categories.is_empty() {
                // The semi-automated step: fall back to the analyst's
                // manual read of the record.
                if let Some(manual) = config.manual_labels.get(&record.id) {
                    categories.extend(manual.iter().copied());
                }
            } else {
                categories.extend(c.categories);
            }
            asns = extract_asns(&record.text);
        }
        None => {
            // The record is gone — but the list entry still names its id,
            // and the analyst's labels are keyed by id. A manual label is
            // an independent read of the record, so it survives losing
            // the record text (to SBL churn or to quarantined damage).
            match entry.sbl.and_then(|id| config.manual_labels.get(&id)) {
                Some(manual) if !manual.is_empty() => {
                    categories.extend(manual.iter().copied());
                }
                _ => {
                    categories.insert(Category::NoSblRecord);
                }
            }
        }
    }
    let status = rir.status_of(&entry.prefix, entry.added);
    StudyEntry {
        entry: entry.clone(),
        categories,
        keyword_hits,
        asns,
        rir: status.as_ref().map(|s| s.rir),
        allocated_at_listing: status.as_ref().is_some_and(|s| s.status.is_delegated()),
        org: status.map(|s| s.opaque_id),
        afrinic_incident: false,
    }
}

/// The paper identified the two AFRINIC incidents from reporting; the
/// data-driven equivalent is that incident prefixes are AFRINIC-managed
/// hijack listings sharing a registry org with other hijack listings
/// (ordinary hijack targets have unrelated holders).
fn mark_afrinic_incidents(entries: &mut [StudyEntry]) {
    let mut org_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for e in entries.iter() {
        if e.rir == Some(Rir::Afrinic) && e.has(Category::Hijacked) {
            if let Some(org) = e.org.as_deref() {
                *org_counts.entry(org).or_insert(0) += 1;
            }
        }
    }
    let incident_orgs: BTreeSet<String> = org_counts
        .into_iter()
        .filter(|(_, n)| *n >= 2)
        .map(|(o, _)| o.to_owned())
        .collect();
    for e in entries.iter_mut() {
        if e.rir == Some(Rir::Afrinic)
            && e.has(Category::Hijacked)
            && e.org.as_deref().is_some_and(|o| incident_orgs.contains(o))
        {
            e.afrinic_incident = true;
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;
    use droplens_synth::WorldConfig;

    fn study() -> Study {
        let world = World::generate(42, &WorldConfig::small());
        Study::from_world(&world)
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_world_refuses_misordered_rir_snapshots() {
        let mut world = World::generate(42, &WorldConfig::small());
        world.rir_snapshots.swap(0, 1);
        Study::from_world(&world);
    }

    #[test]
    fn entry_population_matches_world() {
        let world = World::generate(42, &WorldConfig::small());
        let s = Study::from_world(&world);
        assert_eq!(s.entries.len(), world.truth.listed.len());
    }

    #[test]
    fn nr_entries_have_no_record_category() {
        let s = study();
        let nr: Vec<_> = s.with_category(Category::NoSblRecord).collect();
        assert_eq!(nr.len(), WorldConfig::small().mix.nr);
        for e in nr {
            assert_eq!(e.keyword_hits, 0);
            assert!(e.asns.is_empty());
        }
    }

    #[test]
    fn classification_matches_ground_truth() {
        let world = World::generate(42, &WorldConfig::small());
        let s = Study::from_world(&world);
        for e in &s.entries {
            let truth = world.truth.for_prefix(&e.prefix()).expect("listed");
            if !truth.has_sbl_record {
                assert!(e.has(Category::NoSblRecord), "{}", e.prefix());
                continue;
            }
            for cat in &truth.categories {
                let expected = match cat {
                    droplens_synth::TrueCategory::Hijacked => Category::Hijacked,
                    droplens_synth::TrueCategory::Snowshoe => Category::SnowshoeSpam,
                    droplens_synth::TrueCategory::KnownSpamOp => Category::KnownSpamOperation,
                    droplens_synth::TrueCategory::MaliciousHosting => Category::MaliciousHosting,
                    droplens_synth::TrueCategory::Unallocated => Category::Unallocated,
                };
                assert!(
                    e.has(expected),
                    "{}: missing {expected:?} (got {:?})",
                    e.prefix(),
                    e.categories
                );
            }
        }
    }

    #[test]
    fn unallocated_entries_show_unallocated_in_stats() {
        let s = study();
        for e in s.with_category(Category::Unallocated) {
            assert!(!e.allocated_at_listing, "{} delegated?", e.prefix());
        }
        // And hijacked entries are allocated space.
        for e in s.with_category(Category::Hijacked) {
            assert!(e.allocated_at_listing, "{} not delegated?", e.prefix());
        }
    }

    #[test]
    fn afrinic_incidents_detected() {
        let world = World::generate(42, &WorldConfig::small());
        let s = Study::from_world(&world);
        let flagged: BTreeSet<Ipv4Prefix> = s
            .entries
            .iter()
            .filter(|e| e.afrinic_incident)
            .map(|e| e.prefix())
            .collect();
        let truth: BTreeSet<Ipv4Prefix> = world
            .truth
            .listed
            .iter()
            .filter(|t| t.hijack_kind == Some(droplens_synth::HijackKind::AfrinicIncident))
            .map(|t| t.prefix)
            .collect();
        assert_eq!(flagged, truth);
        assert_eq!(s.without_incidents().count(), s.entries.len() - truth.len());
    }

    #[test]
    fn from_text_equals_from_world() {
        let world = World::generate(42, &WorldConfig::small());
        let direct = Study::from_world(&world);
        let text = world.to_text_archives();
        let mut config = StudyConfig::new(direct.config.window);
        config.manual_labels = world.manual_labels();
        let parsed = Study::from_text(config, world.peers.clone(), &text).expect("parses");
        assert_eq!(parsed.entries.len(), direct.entries.len());
        for (a, b) in parsed.entries.iter().zip(&direct.entries) {
            assert_eq!(a.prefix(), b.prefix());
            assert_eq!(a.categories, b.categories);
            assert_eq!(a.rir, b.rir);
            assert_eq!(a.afrinic_incident, b.afrinic_incident);
        }
    }

    #[test]
    fn from_text_builds_ingest_ledger() {
        let world = World::generate(42, &WorldConfig::small());
        let text = world.to_text_archives();
        let mut config = StudyConfig::new(DateRange::inclusive(
            world.config.study_start,
            world.config.study_end,
        ));
        config.manual_labels = world.manual_labels();
        let s = Study::from_text(config, world.peers.clone(), &text).expect("parses");
        // All six sources accounted for, nothing quarantined, full
        // coverage on clean archives.
        for name in ["bgp", "irr", "rpki", "rir", "drop", "sbl"] {
            let src = s.ingest.sources.get(name).expect(name);
            assert_eq!(src.quarantine.quarantined, 0, "{name}");
        }
        assert_eq!(s.ingest.total_quarantined(), 0);
        let drop_cov = &s.ingest.sources["drop"].coverage;
        assert!(drop_cov.gaps.is_empty(), "{:?}", drop_cov.gaps);
        assert_eq!(drop_cov.fraction(&s.config.window), 1.0);
        let rir_cov = &s.ingest.sources["rir"].coverage;
        assert!(rir_cov.gaps.is_empty(), "{:?}", rir_cov.gaps);
    }

    #[test]
    fn permissive_ingest_quarantines_within_budget() {
        let world = World::generate(42, &WorldConfig::small());
        let mut text = world.to_text_archives();
        // One malformed line per line-oriented source: well under 1%.
        text.bgp_updates.push_str("GARBAGE LINE\n");
        text.roa_events.push_str("not,a,roa\n");
        if let Some((_, body)) = text.drop_snapshots.last_mut() {
            body.push_str("999.999.0.0/33 ; SBLx\n");
        }
        let mut config = StudyConfig::new(DateRange::inclusive(
            world.config.study_start,
            world.config.study_end,
        ));
        config.manual_labels = world.manual_labels();
        // Strict: aborts.
        assert!(Study::from_text(config.clone(), world.peers.clone(), &text).is_err());
        // Permissive: quarantined, run proceeds, ledger records it.
        config.ingest = IngestPolicy::permissive();
        let s = Study::from_text(config, world.peers.clone(), &text).expect("within budget");
        assert_eq!(s.ingest.sources["bgp"].quarantine.quarantined, 1);
        assert_eq!(s.ingest.sources["rpki"].quarantine.quarantined, 1);
        assert_eq!(s.ingest.sources["drop"].quarantine.quarantined, 1);
        assert_eq!(s.ingest.total_quarantined(), 3);
        let sample = &s.ingest.sources["bgp"].quarantine.samples[0];
        assert_eq!(sample.location().0, "bgp/updates.txt");
    }

    #[test]
    fn permissive_ingest_fails_fast_over_budget() {
        let world = World::generate(42, &WorldConfig::small());
        let mut text = world.to_text_archives();
        // Corrupt far more than 1% of the (small) SBL database.
        text.sbl_records = format!("NOTANID\nbody\n\n{}", text.sbl_records);
        let mut config = StudyConfig::new(DateRange::inclusive(
            world.config.study_start,
            world.config.study_end,
        ));
        config.ingest = IngestPolicy::Permissive {
            max_error_rate: 0.001,
            max_gap_days: 14,
        };
        let err = match Study::from_text(config, world.peers.clone(), &text) {
            Err(e) => e,
            Ok(_) => panic!("expected budget failure"),
        };
        let msg = err.to_string();
        assert!(msg.contains("error budget"), "{msg}");
        assert!(msg.contains("sbl"), "{msg}");
        assert!(msg.contains("sbl/records.txt:1"), "{msg}");
    }

    #[test]
    fn permissive_ingest_enforces_gap_budget() {
        let world = World::generate(42, &WorldConfig::small());
        let mut text = world.to_text_archives();
        // Drop a 20-day run of daily DROP snapshots from the middle.
        let n = text.drop_snapshots.len();
        assert!(n > 40, "small world has {n} snapshots");
        text.drop_snapshots.drain(n / 2..n / 2 + 20);
        let mut config = StudyConfig::new(DateRange::inclusive(
            world.config.study_start,
            world.config.study_end,
        ));
        config.ingest = IngestPolicy::permissive(); // max_gap_days 14
        let err = match Study::from_text(config.clone(), world.peers.clone(), &text) {
            Err(e) => e,
            Ok(_) => panic!("expected gap failure"),
        };
        assert!(err.to_string().contains("gap budget"), "{err}");
        // A wider budget tolerates the hole and records it as coverage.
        config.ingest = IngestPolicy::Permissive {
            max_error_rate: 0.01,
            max_gap_days: 30,
        };
        let s = Study::from_text(config, world.peers.clone(), &text).expect("gap tolerated");
        let cov = &s.ingest.sources["drop"].coverage;
        assert_eq!(cov.missing_days(), 20);
        assert_eq!(cov.gaps.len(), 1);
        assert!(cov.fraction(&s.config.window) < 1.0);
    }

    #[test]
    fn hijacker_asn_annotation() {
        let world = World::generate(42, &WorldConfig::small());
        let s = Study::from_world(&world);
        // Forged-IRR hijacks must expose their labeled ASN.
        for t in &world.truth.listed {
            if t.forged_irr {
                let e = s
                    .entries
                    .iter()
                    .find(|e| e.prefix() == t.prefix)
                    .expect("entry");
                assert_eq!(e.hijacker_asn(), t.malicious_asn, "{}", t.prefix);
            }
        }
    }

    #[test]
    fn total_listed_space_counts_each_address_once() {
        let s = study();
        let total = s.total_listed_space();
        let naive: AddressSpace = s.entries.iter().map(|e| e.space()).sum();
        assert!(total <= naive);
        assert!(!total.is_zero());
    }
}
