//! Archive files: the name of each dataset's file, and the [`Archives`]
//! bundle a world serializes into.
//!
//! Every archive is the canonical text the real feeds use. A dataset's
//! writer and parser are the format crates' own; this module names the
//! files and walks a bundle in one fixed order, so the world's
//! serializer, the study's load spine, the CLI's on-disk tree and the
//! fault injector all agree on both.

use droplens_net::Date;
use droplens_rir::Rir;

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

impl ArchiveFile {
    /// The file's path relative to the archive root. The one place each
    /// dataset's file name is built: quarantine labels, corruption logs
    /// and the on-disk tree all use it.
    pub fn path(self) -> String {
        match self {
            ArchiveFile::BgpUpdates => "bgp/updates.txt".to_owned(),
            ArchiveFile::IrrJournal => "irr/journal.txt".to_owned(),
            ArchiveFile::Roas => "rpki/roas.csv".to_owned(),
            ArchiveFile::Stats(date, rir) => format!(
                "{RIR_DIR}/{}/delegated-{}-extended.txt",
                date.compact(),
                rir.token()
            ),
            ArchiveFile::DropSnapshot(date) => format!("{DROP_DIR}/{date}.txt"),
            ArchiveFile::SblRecords => "sbl/records.txt".to_owned(),
        }
    }
}

/// Delegated-stats payloads: per date, one per registry in [`Rir::ALL`]
/// order.
pub type StatsPayloads<B> = Vec<(Date, Vec<B>)>;

/// The six datasets as one payload each: `B` = `String` for the archive
/// text, or whatever a caller maps each file to.
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
            .map(|(file, ())| file.path())
            .collect();
        assert_eq!(names.len(), 3 + 5 + 2 + 1);
        assert_eq!(names[0], "bgp/updates.txt");
        assert_eq!(names[3], "rir/20190601/delegated-afrinic-extended.txt");
        assert_eq!(names[8], "drop/2019-06-01.txt");
        assert_eq!(names[10], "sbl/records.txt");
    }
}
