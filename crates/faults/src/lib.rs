//! Deterministic corruption harness for chaos-testing ingestion.
//!
//! Real archive mirrors rot in mundane ways: truncated downloads, disk
//! bit flips surfacing as mangled characters, doubled or reordered
//! journal lines, missing days, and CRLF conversions by well-meaning
//! transfer tools. This crate injects exactly those faults into a
//! [`TextArchives`] bundle, **deterministically**: a [`Corruptor`] is
//! seeded, every decision comes from that seed, and the same seed over
//! the same archives produces byte-identical corrupted archives and an
//! identical [`CorruptionLog`].
//!
//! The harness underpins the chaos test suite (`tests/chaos.rs`):
//! strict ingestion must reject the fatal corruption classes with a
//! located error, and permissive ingestion must quarantine them within
//! the error budget without disturbing the study's conclusions.
//!
//! ```
//! use droplens_faults::{CorruptionClass, Corruptor};
//!
//! let mut corruptor = Corruptor::new(7)
//!     .with_rate(0.01)
//!     .only(&[CorruptionClass::TruncateLine]);
//! let mut log = droplens_faults::CorruptionLog::default();
//! let mangled = corruptor.corrupt_lines("demo.txt", "a b c\nd e f\n", &mut log);
//! assert_eq!(corruptor.seed(), 7);
//! # let _ = (mangled, log);
//! ```

#![warn(missing_docs)]

pub mod net;

pub use net::{ChaosLog, ChaosProfile, ChaosProxy};

use std::fmt;

use droplens_synth::codec::ArchiveFile;
use droplens_synth::TextArchives;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One way an archive line (or day) can rot.
///
/// The classes split into *fatal* ones — a spec-conforming strict
/// parser must reject the result — and *benign* ones that any robust
/// parser absorbs silently:
///
/// | class | typical effect |
/// |---|---|
/// | [`TruncateLine`](Self::TruncateLine) | fatal: half a record is not a record |
/// | [`ByteFlip`](Self::ByteFlip) | usually fatal: a `~` in a prefix field |
/// | [`DuplicateRecord`](Self::DuplicateRecord) | benign: events repeat, maps overwrite |
/// | [`ReorderRecords`](Self::ReorderRecords) | fatal for chronological journals (RPKI, IRR) |
/// | [`DropDay`](Self::DropDay) | coverage gap, not a parse error |
/// | [`MixedLineEndings`](Self::MixedLineEndings) | benign: parsers trim `\r` |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionClass {
    /// Cut a line off somewhere in its first half.
    TruncateLine,
    /// Replace one character of a line with junk.
    ByteFlip,
    /// Repeat a line immediately after itself.
    DuplicateRecord,
    /// Swap a line with its successor.
    ReorderRecords,
    /// Remove a whole daily DROP snapshot (archive-level; only applies
    /// through [`Corruptor::corrupt_archives`]).
    DropDay,
    /// Convert a line's terminator to CRLF.
    MixedLineEndings,
}

impl CorruptionClass {
    /// Every class, in a fixed order.
    pub const ALL: [CorruptionClass; 6] = [
        CorruptionClass::TruncateLine,
        CorruptionClass::ByteFlip,
        CorruptionClass::DuplicateRecord,
        CorruptionClass::ReorderRecords,
        CorruptionClass::DropDay,
        CorruptionClass::MixedLineEndings,
    ];

    /// Stable kebab-case label (used in logs and reports).
    pub fn label(self) -> &'static str {
        match self {
            CorruptionClass::TruncateLine => "truncate-line",
            CorruptionClass::ByteFlip => "byte-flip",
            CorruptionClass::DuplicateRecord => "duplicate-record",
            CorruptionClass::ReorderRecords => "reorder-records",
            CorruptionClass::DropDay => "drop-day",
            CorruptionClass::MixedLineEndings => "mixed-line-endings",
        }
    }

    /// Whether the class mutates individual lines (as opposed to whole
    /// archive days).
    fn is_line_class(self) -> bool {
        !matches!(self, CorruptionClass::DropDay)
    }
}

impl fmt::Display for CorruptionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One injected fault: what was done where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorruptionEvent {
    /// The fault class.
    pub class: CorruptionClass,
    /// Archive label: the file's path, as [`ArchiveFile::path`] names it
    /// (`bgp/updates.txt`, `rir/<YYYYMMDD>/delegated-<rir>-extended.txt`,
    /// `drop/<date>.txt`, ...). It is the label the quarantine ledger
    /// gives the same file, so `archive:line` finds the quarantined line.
    pub archive: String,
    /// 1-based line the fault landed on; `None` for day-level faults.
    pub line: Option<u32>,
}

impl fmt::Display for CorruptionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "{}:{}: {}", self.archive, n, self.class),
            None => write!(f, "{}: {}", self.archive, self.class),
        }
    }
}

/// Everything a [`Corruptor`] did to one archive bundle, in injection
/// order. Deterministic per seed, so two runs can be diffed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorruptionLog {
    /// The injected faults, in order.
    pub events: Vec<CorruptionEvent>,
}

impl CorruptionLog {
    /// Total faults injected.
    pub fn total(&self) -> usize {
        self.events.len()
    }

    /// Faults of one class.
    pub fn count(&self, class: CorruptionClass) -> usize {
        self.events.iter().filter(|e| e.class == class).count()
    }

    /// Faults whose archive label starts with `prefix` (e.g. `"drop/"`).
    pub fn count_in(&self, prefix: &str) -> usize {
        self.events
            .iter()
            .filter(|e| e.archive.starts_with(prefix))
            .count()
    }

    /// Human-readable ledger, one fault per line.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{} faults injected\n", self.total());
        for event in &self.events {
            let _ = writeln!(out, "  {event}");
        }
        out
    }
}

/// Seeded fault injector. All randomness flows from the seed; the
/// corruption of a given input is a pure function of
/// `(seed, rate, classes, input)`.
#[derive(Debug)]
pub struct Corruptor {
    rng: StdRng,
    seed: u64,
    rate: f64,
    classes: Vec<CorruptionClass>,
}

impl Corruptor {
    /// A corruptor over every class at a 0.5% per-line fault rate —
    /// comfortably inside the default 1% permissive error budget even
    /// if every fault were fatal.
    pub fn new(seed: u64) -> Self {
        Corruptor {
            rng: StdRng::seed_from_u64(seed),
            seed,
            rate: 0.005,
            classes: CorruptionClass::ALL.to_vec(),
        }
    }

    /// The seed this corruptor was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Set the per-line (and, for [`CorruptionClass::DropDay`],
    /// per-snapshot) fault probability.
    ///
    /// # Panics
    /// Panics unless `0.0 <= rate <= 1.0`.
    pub fn with_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate {rate} out of [0, 1]"
        );
        self.rate = rate;
        self
    }

    /// Restrict injection to the given classes (for per-class tests).
    pub fn only(mut self, classes: &[CorruptionClass]) -> Self {
        self.classes = classes.to_vec();
        self
    }

    /// Corrupt a whole archive bundle in place, returning the fault
    /// ledger. Archives are visited in a fixed order (BGP, IRR, RPKI,
    /// RIR by date, DROP by date, SBL, then day drops), so the result
    /// is a deterministic function of the seed and the input.
    pub fn corrupt_archives(&mut self, text: &mut TextArchives) -> CorruptionLog {
        let mut log = CorruptionLog::default();
        *text = text.map(|file, body| self.corrupt_lines(&file.path(), body, &mut log));

        if self.classes.contains(&CorruptionClass::DropDay) {
            let keep: Vec<bool> = text
                .drop_snapshots
                .iter()
                .map(|_| !self.rng.gen_bool(self.rate))
                .collect();
            let mut it = keep.iter();
            text.drop_snapshots.retain(|(date, _)| {
                let keep = *it.next().unwrap_or(&true);
                if !keep {
                    log.events.push(CorruptionEvent {
                        class: CorruptionClass::DropDay,
                        archive: ArchiveFile::DropSnapshot(*date).path(),
                        line: None,
                    });
                }
                keep
            });
        }
        log
    }

    /// Corrupt one line-oriented text. Blank lines and `#`/`;` comment
    /// lines are never touched (they are skipped, not parsed, so
    /// corrupting them would inject silence instead of faults).
    pub fn corrupt_lines(&mut self, archive: &str, text: &str, log: &mut CorruptionLog) -> String {
        let line_classes: Vec<CorruptionClass> = self
            .classes
            .iter()
            .copied()
            .filter(|c| c.is_line_class())
            .collect();
        if line_classes.is_empty() || text.is_empty() {
            return text.to_owned();
        }
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let mut i = 0;
        while i < lines.len() {
            let trimmed = lines[i].trim();
            let skip = trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with(';');
            if skip || !self.rng.gen_bool(self.rate) {
                i += 1;
                continue;
            }
            let class = line_classes[self.rng.gen_range(0..line_classes.len())];
            let lineno = i as u32 + 1;
            match class {
                CorruptionClass::TruncateLine => {
                    let chars: Vec<char> = lines[i].chars().collect();
                    let cut = self.rng.gen_range(1..=(chars.len() / 2).max(1));
                    let mut cut_line: String = chars[..cut].iter().collect();
                    // Never cut immediately after a digit: a cut landing
                    // right after a complete shorter numeric token can
                    // produce a *valid but different* record (e.g.
                    // "1.2.3.0/24" -> "1.2.3.0/2"), which no parser can
                    // detect — that failure mode is outside what a
                    // detectability harness should inject.
                    while cut_line.ends_with(|c: char| c.is_ascii_digit()) {
                        cut_line.pop();
                    }
                    if cut_line.trim().is_empty() {
                        cut_line = "~".to_owned(); // never rot into silence
                    }
                    lines[i] = cut_line;
                }
                CorruptionClass::ByteFlip => {
                    let chars: Vec<char> = lines[i].chars().collect();
                    let at = self.rng.gen_range(0..chars.len());
                    let junk = if chars[at] == '~' { '^' } else { '~' };
                    lines[i] = chars
                        .iter()
                        .enumerate()
                        .map(|(j, &c)| if j == at { junk } else { c })
                        .collect();
                }
                CorruptionClass::DuplicateRecord => {
                    let copy = lines[i].clone();
                    lines.insert(i + 1, copy);
                    i += 1; // don't re-corrupt the copy
                }
                CorruptionClass::ReorderRecords => {
                    if i + 1 < lines.len() && !lines[i + 1].trim().is_empty() {
                        lines.swap(i, i + 1);
                        i += 1; // the swapped pair is done
                    } else {
                        i += 1;
                        continue; // nothing to swap with: no fault injected
                    }
                }
                CorruptionClass::MixedLineEndings => {
                    lines[i].push('\r'); // joined with \n below => CRLF
                }
                CorruptionClass::DropDay => unreachable!("not a line class"),
            }
            log.events.push(CorruptionEvent {
                class,
                archive: archive.to_owned(),
                line: Some(lineno),
            });
            i += 1;
        }
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "alpha bravo charlie\ndelta echo foxtrot\n# comment stays\ngolf hotel india\njuliet kilo lima\n";

    fn corrupt(seed: u64, rate: f64, classes: &[CorruptionClass]) -> (String, CorruptionLog) {
        let mut log = CorruptionLog::default();
        let out = Corruptor::new(seed)
            .with_rate(rate)
            .only(classes)
            .corrupt_lines("t.txt", SAMPLE, &mut log);
        (out, log)
    }

    #[test]
    fn same_seed_same_corruption() {
        let a = corrupt(9, 0.8, &CorruptionClass::ALL);
        let b = corrupt(9, 0.8, &CorruptionClass::ALL);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        // High rate so both seeds certainly inject something.
        let a = corrupt(1, 1.0, &[CorruptionClass::TruncateLine]);
        let b = corrupt(2, 1.0, &[CorruptionClass::TruncateLine]);
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn zero_rate_is_identity() {
        let (out, log) = corrupt(3, 0.0, &CorruptionClass::ALL);
        assert_eq!(out, SAMPLE);
        assert_eq!(log.total(), 0);
    }

    #[test]
    fn comments_and_blanks_survive() {
        let (out, _) = corrupt(4, 1.0, &[CorruptionClass::TruncateLine]);
        assert!(out.contains("# comment stays"));
    }

    #[test]
    fn truncation_never_produces_blank_lines() {
        for seed in 0..20 {
            let (out, log) = corrupt(seed, 1.0, &[CorruptionClass::TruncateLine]);
            assert!(log.total() > 0);
            for line in out.lines() {
                if !line.starts_with('#') {
                    assert!(!line.trim().is_empty(), "seed {seed} rotted into silence");
                }
            }
        }
    }

    #[test]
    fn duplicate_doubles_a_line() {
        let (out, log) = corrupt(5, 1.0, &[CorruptionClass::DuplicateRecord]);
        assert_eq!(log.count(CorruptionClass::DuplicateRecord), 4);
        // Every non-comment line appears exactly twice.
        assert_eq!(out.matches("alpha bravo charlie").count(), 2);
        assert_eq!(out.matches("# comment stays").count(), 1);
    }

    #[test]
    fn crlf_lines_round_trip_through_lines_iter() {
        let (out, log) = corrupt(6, 1.0, &[CorruptionClass::MixedLineEndings]);
        assert!(log.total() > 0);
        assert!(out.contains("\r\n"));
        // str::lines strips the \r back off, as every parser relies on.
        let restored: Vec<&str> = out.lines().map(|l| l.trim_end_matches('\r')).collect();
        assert_eq!(restored.len(), SAMPLE.lines().count());
    }

    #[test]
    fn log_reports_archive_and_line() {
        let (_, log) = corrupt(7, 1.0, &[CorruptionClass::ByteFlip]);
        assert!(log.total() > 0);
        let text = log.to_text();
        assert!(text.contains("t.txt:1: byte-flip"), "{text}");
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn rejects_bad_rate() {
        let _ = Corruptor::new(1).with_rate(1.5);
    }
}
