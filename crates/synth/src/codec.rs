//! Archive codecs: how each dataset is written, parsed and named in one
//! representation.
//!
//! Every archive exists in two forms: the canonical text the real feeds
//! use, and the `droplens-bin/1` columnar sidecar that loads without
//! per-line scanning. A [`Codec`] is one form: for each of the six
//! datasets (BGP updates, IRR journal, ROA journal, RIR stats, DROP
//! snapshots, SBL records) its writer, its parser and its file name.
//! Everything that handles archives picks a codec instead of keeping a
//! copy per form: the world's serializer, the study's load spine, the
//! CLI's on-disk tree and the fault injector.
//!
//! The writers and parsers are the format crates' own; this module adds
//! no encoding.

use std::io;
use std::path::Path;

use droplens_bgp::{format as bgpfmt, BgpUpdate, Peer};
use droplens_drop::{format as dropfmt, DropSnapshot, SblDatabase};
use droplens_irr::{format as irrbin, journal as irrfmt, JournalEntry};
use droplens_net::{Date, LocatedError, Quarantine};
use droplens_rir::format::{
    self as rirfmt, RowLines, SharedSnapshot, SharedStatsFile, StatsRows, StatsSeries,
};
use droplens_rir::Rir;
use droplens_rpki::format::{self as rpkifmt, RoaEvent};

/// Directory of the dated RIR stats snapshots, one subdirectory per
/// date (`YYYYMMDD`).
pub const RIR_DIR: &str = "rir";
/// Directory of the daily DROP snapshots, one file per date.
pub const DROP_DIR: &str = "drop";

/// One file of an archive bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchiveFile {
    /// The BGP update stream.
    BgpUpdates,
    /// The IRR journal.
    IrrJournal,
    /// The ROA event journal.
    Roas,
    /// One registry's delegated-stats file of one snapshot date.
    Stats(Date, Rir),
    /// One day's DROP list.
    DropSnapshot(Date),
    /// The SBL record bodies.
    SblRecords,
}

/// One archive representation, whose files are payloads of type `B`:
/// a writer, a parser and a file name for every dataset. Each parser
/// works under the ingestion policy its quarantine ledger carries.
pub struct Codec<B> {
    /// File-name extension of every dataset but the ROA journal.
    pub extension: &'static str,
    /// File-name extension of the ROA journal.
    pub roa_extension: &'static str,
    /// Read one file's payload from disk.
    pub read: fn(&Path) -> io::Result<B>,
    /// Serialize the update stream.
    pub write_updates: fn(&[BgpUpdate], &[Peer]) -> B,
    /// Serialize the IRR journal.
    pub write_journal: fn(&[JournalEntry]) -> B,
    /// Serialize the ROA journal.
    pub write_events: fn(&[RoaEvent]) -> B,
    /// Serialize the delegated-stats series: per date, each file over
    /// the shared row table.
    pub write_stats_series: fn(&StatsRows, &[SharedSnapshot]) -> StatsPayloads<B>,
    /// Serialize one DROP snapshot.
    pub write_snapshot: fn(&DropSnapshot) -> B,
    /// Serialize the SBL database.
    pub write_sbl: fn(&SblDatabase) -> B,
    /// Parse the update stream.
    pub parse_updates: fn(&B, &mut Quarantine) -> Result<Vec<BgpUpdate>, LocatedError>,
    /// Parse the IRR journal.
    pub parse_journal: fn(&B, &mut Quarantine) -> Result<Vec<JournalEntry>, LocatedError>,
    /// Parse the ROA journal.
    pub parse_events: fn(&B, &mut Quarantine) -> Result<Vec<RoaEvent>, LocatedError>,
    /// Parse one delegated-stats file as the next file of its
    /// registry's series, which stores each distinct row once; `None`
    /// when the file was quarantined whole.
    pub parse_stats_file: for<'a> fn(
        &'a B,
        &mut StatsSeries<'a>,
        &mut Quarantine,
    ) -> Result<Option<SharedStatsFile>, LocatedError>,
    /// Parse the DROP snapshot published on the given date.
    pub parse_snapshot: fn(Date, &B, &mut Quarantine) -> Result<DropSnapshot, LocatedError>,
    /// Parse the SBL database.
    pub parse_sbl: fn(&B, &mut Quarantine) -> Result<SblDatabase, LocatedError>,
}

impl<B> Codec<B> {
    /// The file's path relative to the archive root. The one place each
    /// dataset's file name is built: quarantine labels, corruption logs
    /// and the on-disk tree all use it.
    pub fn path(&self, file: ArchiveFile) -> String {
        let ext = self.extension;
        match file {
            ArchiveFile::BgpUpdates => format!("bgp/updates.{ext}"),
            ArchiveFile::IrrJournal => format!("irr/journal.{ext}"),
            ArchiveFile::Roas => format!("rpki/roas.{}", self.roa_extension),
            ArchiveFile::Stats(date, rir) => format!(
                "{RIR_DIR}/{}/delegated-{}-extended.{ext}",
                date.compact(),
                rir.token()
            ),
            ArchiveFile::DropSnapshot(date) => format!("{DROP_DIR}/{date}.{ext}"),
            ArchiveFile::SblRecords => format!("sbl/records.{ext}"),
        }
    }
}

/// The canonical text archives, exactly as a scraper would have fetched
/// them.
pub const TEXT: Codec<String> = Codec {
    extension: "txt",
    roa_extension: "csv",
    read: |path| std::fs::read_to_string(path),
    write_updates: bgpfmt::write_updates,
    write_journal: irrfmt::write_journal,
    write_events: rpkifmt::write_events,
    write_stats_series: |rows, snapshots| {
        // Each distinct row is formatted once; files copy its line.
        let lines = RowLines::new(rows);
        per_stats_file(snapshots, |file| lines.write_file(file))
    },
    write_snapshot: DropSnapshot::to_text,
    write_sbl: SblDatabase::to_text,
    parse_updates: |text, q| bgpfmt::parse_updates_with(text, q),
    parse_journal: |text, q| irrfmt::parse_journal_with(text, q),
    parse_events: |text, q| rpkifmt::parse_events_with(text, q),
    parse_stats_file: |text, series, q| series.parse_text(text, q),
    parse_snapshot: |date, text, q| DropSnapshot::parse_with(date, text, q),
    parse_sbl: |text, q| SblDatabase::parse_with(text, q),
};

/// The `droplens-bin/1` sidecars: the same records in length-prefixed
/// little-endian columns. A damaged sidecar cannot be resynchronized
/// mid-stream, so its parsers quarantine the whole file.
pub const BINARY: Codec<Vec<u8>> = Codec {
    extension: "bin",
    roa_extension: "bin",
    read: |path| std::fs::read(path),
    write_updates: |updates, _peers| bgpfmt::write_updates_bin(updates),
    write_journal: irrbin::write_journal_bin,
    write_events: rpkifmt::write_events_bin,
    write_stats_series: |rows, snapshots| {
        per_stats_file(snapshots, |file| {
            rirfmt::write_shared_stats_file_bin(rows, file)
        })
    },
    write_snapshot: dropfmt::write_snapshot_bin,
    write_sbl: dropfmt::write_sbl_bin,
    parse_updates: |bytes, q| bgpfmt::parse_updates_bin_with(bytes, q),
    parse_journal: |bytes, q| irrbin::parse_journal_bin_with(bytes, q),
    parse_events: |bytes, q| rpkifmt::parse_events_bin_with(bytes, q),
    parse_stats_file: |bytes, series, q| {
        Ok(rirfmt::parse_stats_file_bin_with(bytes, q)?.map(|file| series.add_file(file)))
    },
    parse_snapshot: |date, bytes, q| dropfmt::parse_snapshot_bin_with(date, bytes, q),
    parse_sbl: |bytes, q| dropfmt::parse_sbl_bin_with(bytes, q),
};

/// Delegated-stats payloads: per date, one per registry in [`Rir::ALL`]
/// order.
pub type StatsPayloads<B> = Vec<(Date, Vec<B>)>;

/// `write` applied to every file of a stats series, the dates spread
/// over the workers.
fn per_stats_file<B: Send>(
    snapshots: &[SharedSnapshot],
    write: impl Fn(&SharedStatsFile) -> B + Sync,
) -> StatsPayloads<B> {
    droplens_par::par_map(snapshots, |(date, files)| {
        (*date, files.iter().map(&write).collect())
    })
}

/// The six datasets as one file payload each (`B` = `String` for text,
/// `Vec<u8>` for sidecars).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Archives<B> {
    /// The update stream (`bgp/updates`).
    pub bgp_updates: B,
    /// The IRR journal (`irr/journal`).
    pub irr_journal: B,
    /// The ROA journal (`rpki/roas`).
    pub roa_events: B,
    /// Per-date delegated-stats files, one per registry in [`Rir::ALL`]
    /// order (a payload past the last registry has no name and is not
    /// read).
    pub rir_snapshots: StatsPayloads<B>,
    /// Per-date DROP list files.
    pub drop_snapshots: Vec<(Date, B)>,
    /// The SBL record blocks (`sbl/records`).
    pub sbl_records: B,
}

/// The datasets as archive text: `bgpdump -m`-style update lines, an
/// NRTM-style IRR journal, a ROA CSV journal, delegated-extended stats
/// files, DROP list files and SBL record blocks.
pub type TextArchives = Archives<String>;

/// The datasets as `droplens-bin/1` sidecar payloads.
pub type BinaryArchives = Archives<Vec<u8>>;

impl<B> Archives<B> {
    /// The same bundle with every payload passed through `f` together
    /// with its file, in one fixed order: BGP, IRR, RPKI, RIR by date
    /// then registry, DROP by date, SBL. The first error stops the walk.
    pub fn try_map<'a, T, E>(
        &'a self,
        mut f: impl FnMut(ArchiveFile, &'a B) -> Result<T, E>,
    ) -> Result<Archives<T>, E> {
        let bgp_updates = f(ArchiveFile::BgpUpdates, &self.bgp_updates)?;
        let irr_journal = f(ArchiveFile::IrrJournal, &self.irr_journal)?;
        let roa_events = f(ArchiveFile::Roas, &self.roa_events)?;
        let mut rir_snapshots = Vec::with_capacity(self.rir_snapshots.len());
        for (date, files) in &self.rir_snapshots {
            let mut mapped = Vec::with_capacity(files.len());
            for (rir, body) in Rir::ALL.into_iter().zip(files) {
                mapped.push(f(ArchiveFile::Stats(*date, rir), body)?);
            }
            rir_snapshots.push((*date, mapped));
        }
        let mut drop_snapshots = Vec::with_capacity(self.drop_snapshots.len());
        for (date, body) in &self.drop_snapshots {
            drop_snapshots.push((*date, f(ArchiveFile::DropSnapshot(*date), body)?));
        }
        let sbl_records = f(ArchiveFile::SblRecords, &self.sbl_records)?;
        Ok(Archives {
            bgp_updates,
            irr_journal,
            roa_events,
            rir_snapshots,
            drop_snapshots,
            sbl_records,
        })
    }

    /// [`Archives::try_map`] for a function that cannot fail.
    pub fn map<'a, T>(&'a self, mut f: impl FnMut(ArchiveFile, &'a B) -> T) -> Archives<T> {
        match self.try_map(|file, body| Ok::<T, std::convert::Infallible>(f(file, body))) {
            Ok(mapped) => mapped,
            Err(never) => match never {},
        }
    }

    /// Every payload with its file, in [`Archives::try_map`] order.
    pub fn files(&self) -> Vec<(ArchiveFile, &B)> {
        let mut out = Vec::new();
        self.map(|file, body| out.push((file, body)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn files_walk_in_fixed_order() {
        let d1 = Date::from_ymd(2019, 6, 1);
        let d2 = Date::from_ymd(2019, 6, 2);
        let shape = Archives {
            bgp_updates: (),
            irr_journal: (),
            roa_events: (),
            rir_snapshots: vec![(d1, vec![(); Rir::ALL.len()])],
            drop_snapshots: vec![(d1, ()), (d2, ())],
            sbl_records: (),
        };
        let names: Vec<String> = shape
            .files()
            .into_iter()
            .map(|(file, ())| TEXT.path(file))
            .collect();
        assert_eq!(names.len(), 3 + 5 + 2 + 1);
        assert_eq!(names[0], "bgp/updates.txt");
        assert_eq!(names[3], "rir/20190601/delegated-afrinic-extended.txt");
        assert_eq!(names[8], "drop/2019-06-01.txt");
        assert_eq!(names[10], "sbl/records.txt");
    }
}
