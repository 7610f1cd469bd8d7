//! On-disk archive layout: writing a world out and reading it back.
//!
//! ```text
//! <dir>/
//!   manifest.tsv                     study window + peer table
//!   bgp/updates.txt                  bgpdump-style one-line updates
//!   irr/journal.txt                  NRTM-style dated journal
//!   rpki/roas.csv                    dated ROA event journal
//!   rir/<YYYYMMDD>/delegated-<rir>-extended.txt
//!   drop/<YYYY-MM-DD>.txt            daily DROP snapshots
//!   sbl/records.txt                  SBL record blocks
//!   labels/manual_labels.tsv         analyst labels for keyword-less records
//! ```
//!
//! Every dataset file is named by
//! [`ArchiveFile::path`](droplens_synth::codec::ArchiveFile::path),
//! which the writer and the reader ([`read_archives`]) share.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use droplens_bgp::{Peer, PeerId};
use droplens_core::StudyConfig;
use droplens_drop::{Category, SblId};
use droplens_net::{Asn, Date, DateRange};
use droplens_rir::Rir;
use droplens_synth::codec::{DROP_DIR, RIR_DIR};
use droplens_synth::{Archives, TextArchives, World};

use crate::CliError;

fn io_error(path: &Path) -> impl FnOnce(std::io::Error) -> CliError + '_ {
    move |e| CliError::Io(path.display().to_string(), e)
}

fn write(path: &Path, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(io_error(parent))?;
    }
    fs::write(path, contents).map_err(io_error(path))
}

fn read(path: &Path) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(io_error(path))
}

/// Serialize a world into the archive tree rooted at `dir`.
pub fn write_world(dir: &Path, world: &World) -> Result<(), CliError> {
    // Manifest: window plus the peer table.
    let mut manifest = String::from("# droplens archive manifest\n");
    manifest.push_str(&format!(
        "window\t{}\t{}\n",
        world.config.study_start, world.config.study_end
    ));
    for peer in &world.peers {
        manifest.push_str(&format!(
            "peer\t{}\t{}\t{}\n",
            peer.id.0,
            peer.asn.value(),
            peer.name
        ));
    }
    write(&dir.join("manifest.tsv"), &manifest)?;

    for (file, text) in world.to_text_archives().files() {
        write(&dir.join(file.path()), text)?;
    }

    // The analyst's manual labels for keyword-less records.
    let mut labels = String::from("# sbl-id\tcategories\n");
    for (id, cats) in world.manual_labels() {
        let codes: Vec<&str> = cats.iter().map(|c| c.code()).collect();
        labels.push_str(&format!("{id}\t{}\n", codes.join(",")));
    }
    write(&dir.join("labels/manual_labels.tsv"), &labels)?;
    Ok(())
}

/// Read the manifest and labels: the study configuration (window,
/// manual labels) and the peer table.
pub fn read_manifest(dir: &Path) -> Result<(StudyConfig, Vec<Peer>), CliError> {
    let manifest = read(&dir.join("manifest.tsv"))?;
    let mut window: Option<DateRange> = None;
    let mut peers: Vec<Peer> = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[0] {
            "window" if fields.len() == 3 => {
                let start: Date = fields[1].parse()?;
                let end: Date = fields[2].parse()?;
                window = Some(DateRange::inclusive(start, end));
            }
            "peer" if fields.len() == 4 => {
                let id: u32 = fields[1]
                    .parse()
                    .map_err(|_| CliError::Usage(format!("bad peer id in manifest: {line}")))?;
                let asn: Asn = fields[2].parse()?;
                peers.push(Peer::new(PeerId(id), asn, fields[3]));
            }
            _ => return Err(CliError::Usage(format!("bad manifest line: {line}"))),
        }
    }
    let window = window.ok_or_else(|| CliError::Usage("manifest has no window line".to_owned()))?;

    let mut config = StudyConfig::new(window);
    config.manual_labels = read_labels(&dir.join("labels/manual_labels.tsv"))?;
    Ok((config, peers))
}

/// Read an archive tree's files. Any missing file is an error.
pub fn read_archives(dir: &Path) -> Result<TextArchives, CliError> {
    dates(dir)?.try_map(|file, ()| read(&dir.join(file.path())))
}

/// The snapshot dates of the tree under `dir`: every dated `rir/`
/// directory (one file per registry) and every `drop/` day's `.txt`
/// file. Entries sort by name, which is chronological.
fn dates(dir: &Path) -> Result<Archives<()>, CliError> {
    let mut rir_snapshots = Vec::new();
    for datedir in sorted_entries(&dir.join(RIR_DIR))? {
        let date = Date::parse_compact(file_name(&datedir))?;
        rir_snapshots.push((date, vec![(); Rir::ALL.len()]));
    }
    let mut drop_snapshots = Vec::new();
    for file in sorted_entries(&dir.join(DROP_DIR))? {
        if let Some(stem) = file_name(&file).strip_suffix(".txt") {
            drop_snapshots.push((stem.parse()?, ()));
        }
    }
    Ok(Archives {
        bgp_updates: (),
        irr_journal: (),
        roa_events: (),
        rir_snapshots,
        drop_snapshots,
        sbl_records: (),
    })
}

fn read_labels(path: &Path) -> Result<BTreeMap<SblId, Vec<Category>>, CliError> {
    let mut out = BTreeMap::new();
    if !path.exists() {
        return Ok(out); // labels are optional analyst input
    }
    for line in read(path)?.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (id_s, cats_s) = line
            .split_once('\t')
            .ok_or_else(|| CliError::Usage(format!("bad label line: {line}")))?;
        let id: SblId = id_s.parse()?;
        let mut cats = Vec::new();
        for code in cats_s.split(',') {
            cats.push(code.trim().parse::<Category>()?);
        }
        out.insert(id, cats);
    }
    Ok(out)
}

fn sorted_entries(dir: &Path) -> Result<Vec<PathBuf>, CliError> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(io_error(dir))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    out.sort();
    Ok(out)
}

fn file_name(path: &Path) -> &str {
    path.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default()
}
