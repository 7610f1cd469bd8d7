//! SBL records and the Appendix-A keyword classifier.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::str::FromStr;

use droplens_net::{Asn, LocatedError, ParseError, Quarantine};

use crate::Category;

/// A Spamhaus Block List record identifier, e.g. `SBL310721`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SblId(pub u32);

impl fmt::Display for SblId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SBL{}", self.0)
    }
}

impl FromStr for SblId {
    type Err = ParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let digits = s
            .strip_prefix("SBL")
            .ok_or_else(|| ParseError::new("SblId", s, "missing SBL prefix"))?;
        digits
            .parse::<u32>()
            .map(SblId)
            .map_err(|e| ParseError::new("SblId", s, e.to_string()))
    }
}

/// One SBL record: the freeform investigator text Spamhaus publishes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SblRecord {
    /// Record id.
    pub id: SblId,
    /// Freeform body.
    pub text: String,
}

impl SblRecord {
    /// Construct a record.
    pub fn new(id: SblId, text: impl Into<String>) -> SblRecord {
        SblRecord {
            id,
            text: text.into(),
        }
    }
}

/// The result of classifying one SBL record.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Classification {
    /// Categories inferred from keywords (empty when no keyword hit — the
    /// paper's 7.3% manual-inference bucket).
    pub categories: BTreeSet<Category>,
    /// Number of distinct keyword groups that fired (the paper reports
    /// 90% one, 2.7% two, 7.3% none).
    pub keyword_hits: usize,
}

/// Classify an SBL record body using the Appendix-A keyword rules:
///
/// * `hijack` or `stolen` → Hijacked
/// * `snowshoe` → Snowshoe Spam
/// * `known spam operation` → Known Spam Operation
/// * `hosting` → Malicious Hosting — **except** when the word only occurs
///   inside an email address or domain name (`billing@ahostinginc.com`
///   must not classify a hijack record as hosting; Table 2)
/// * `unallocated` or `bogon` → Unallocated
pub fn classify(text: &str) -> Classification {
    let lower = text.to_ascii_lowercase();
    let mut categories = BTreeSet::new();
    let mut keyword_hits = 0;

    if lower.contains("hijack") || lower.contains("stolen") {
        categories.insert(Category::Hijacked);
        keyword_hits += 1;
    }
    if lower.contains("snowshoe") {
        categories.insert(Category::SnowshoeSpam);
        keyword_hits += 1;
    }
    if lower.contains("known spam operation") {
        categories.insert(Category::KnownSpamOperation);
        keyword_hits += 1;
    }
    if has_standalone_hosting(&lower) {
        categories.insert(Category::MaliciousHosting);
        keyword_hits += 1;
    }
    if lower.contains("unallocated") || lower.contains("bogon") {
        categories.insert(Category::Unallocated);
        keyword_hits += 1;
    }

    Classification {
        categories,
        keyword_hits,
    }
}

/// True when `hosting` occurs outside an email address or domain name.
fn has_standalone_hosting(lower: &str) -> bool {
    lower
        .split_whitespace()
        .any(|token| token.contains("hosting") && !token.contains('@') && !token.contains('.'))
}

/// Extract every `ASnnnn` mention from a record body — the paper's
/// "malicious ASN" annotation. Returned deduplicated, in order of first
/// appearance.
pub fn extract_asns(text: &str) -> Vec<Asn> {
    let mut out: Vec<Asn> = Vec::new();
    let bytes = text.as_bytes();
    let mut i = 0;
    while i + 2 < bytes.len() {
        // Case-sensitive "AS" followed by digits, not preceded by an
        // alphanumeric (avoids matching inside words like "ALIAS1").
        let boundary = i == 0 || !bytes[i - 1].is_ascii_alphanumeric();
        if boundary && bytes[i] == b'A' && bytes[i + 1] == b'S' && bytes[i + 2].is_ascii_digit() {
            let mut j = i + 2;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if let Ok(v) = text[i + 2..j].parse::<u32>() {
                let asn = Asn(v);
                if !out.contains(&asn) {
                    out.push(asn);
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// A database of SBL records, with the paper's block text format:
///
/// ```text
/// SBL310721
/// AS204139 spammer hosting
///
/// SBL240976
/// hijacked IP range ... billing@ahostinginc.com
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SblDatabase {
    records: BTreeMap<SblId, SblRecord>,
}

impl SblDatabase {
    /// An empty database.
    pub fn new() -> SblDatabase {
        SblDatabase::default()
    }

    /// Insert (or replace) a record.
    pub fn insert(&mut self, record: SblRecord) {
        self.records.insert(record.id, record);
    }

    /// Look up by id.
    pub fn get(&self, id: SblId) -> Option<&SblRecord> {
        self.records.get(&id)
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterate records in id order.
    pub fn iter(&self) -> impl Iterator<Item = &SblRecord> {
        self.records.values()
    }

    /// Serialize as blank-line-separated blocks.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, r) in self.records.values().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str(&r.id.to_string());
            out.push('\n');
            out.push_str(r.text.trim_end());
            out.push('\n');
        }
        out
    }

    /// Parse the block format written by [`SblDatabase::to_text`].
    pub fn parse(text: &str) -> Result<SblDatabase, LocatedError> {
        Self::parse_with(text, &mut Quarantine::strict("sbl/records.txt"))
    }

    /// Parse the block format under the ingestion policy carried by
    /// `quarantine`. The quarantine unit is a record block: a bad header
    /// line quarantines the block (its body lines are swallowed until the
    /// next blank separator) and, in permissive mode, parsing resumes at
    /// the next block.
    pub fn parse_with(
        text: &str,
        quarantine: &mut Quarantine,
    ) -> Result<SblDatabase, LocatedError> {
        let mut tspan = droplens_obs::trace::global().span("parse.drop.sbl", "parse");
        tspan.arg_str("file", quarantine.source());
        let db = quarantine.counted("drop.sbl", |quarantine| {
            Self::parse_blocks(text, quarantine)
        })?;
        tspan.arg_u64("records", db.len() as u64);
        Ok(db)
    }

    /// [`SblDatabase::parse_with`]'s loop, accounting each block in
    /// `quarantine`.
    fn parse_blocks(text: &str, quarantine: &mut Quarantine) -> Result<SblDatabase, LocatedError> {
        let mut db = SblDatabase::new();
        let mut current: Option<(SblId, String)> = None;
        // After a rejected header (permissive mode), swallow the block's
        // body lines instead of misreading them as headers.
        let mut swallowing = false;
        for (idx, line) in text.lines().enumerate() {
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                swallowing = false;
                if let Some((id, body)) = current.take() {
                    quarantine.record_ok();
                    db.insert(SblRecord::new(id, body.trim_end()));
                }
                continue;
            }
            if swallowing {
                quarantine.record_skip();
                continue;
            }
            match &mut current {
                None => {
                    let lineno = idx as u32 + 1;
                    let id: SblId = match trimmed.trim().parse() {
                        Ok(id) => id,
                        Err(e) => {
                            quarantine.reject("drop.sbl", lineno, e)?;
                            swallowing = true;
                            continue;
                        }
                    };
                    current = Some((id, String::new()));
                }
                Some((_, body)) => {
                    body.push_str(trimmed);
                    body.push('\n');
                }
            }
        }
        if let Some((id, body)) = current.take() {
            quarantine.record_ok();
            db.insert(SblRecord::new(id, body.trim_end()));
        }
        Ok(db)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    #[test]
    fn sbl_id_round_trip() {
        assert_eq!("SBL310721".parse::<SblId>().unwrap(), SblId(310721));
        assert_eq!(SblId(310721).to_string(), "SBL310721");
        assert!("SBLx".parse::<SblId>().is_err());
        assert!("310721".parse::<SblId>().is_err());
    }

    // The six Table 2 excerpts, verbatim classification expectations.
    #[test]
    fn table2_row1_hosting() {
        let c = classify("AS204139 spammer hosting");
        assert_eq!(
            c.categories,
            [Category::MaliciousHosting].into_iter().collect()
        );
        assert_eq!(c.keyword_hits, 1);
    }

    #[test]
    fn table2_row2_hijack_not_hosting() {
        let c = classify("hijacked IP range ... billing@ahostinginc.com");
        assert_eq!(c.categories, [Category::Hijacked].into_iter().collect());
        assert_eq!(c.keyword_hits, 1);
    }

    #[test]
    fn table2_row3_snowshoe_and_hijack_not_hosting() {
        let c =
            classify("Snowshoe IP block on Stolen AS62927 ... james.johnson@networxhosting.com");
        assert_eq!(
            c.categories,
            [Category::Hijacked, Category::SnowshoeSpam]
                .into_iter()
                .collect()
        );
        assert_eq!(c.keyword_hits, 2);
    }

    #[test]
    fn table2_row4_ks_and_snowshoe() {
        let c = classify("Register Of Known Spam Operations ... snowshoe range");
        assert_eq!(
            c.categories,
            [Category::SnowshoeSpam, Category::KnownSpamOperation]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn table2_row5_ks_and_hijack() {
        let c =
            classify("Register Of Known Spam Operations ... illegal netblock hijacking operation");
        assert_eq!(
            c.categories,
            [Category::Hijacked, Category::KnownSpamOperation]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn table2_row6_no_keywords() {
        // SBL325529: classified manually as snowshoe; no keyword fires
        // ("spam emission" is not a keyword).
        let c = classify(
            "Department of Defense ... Spamhaus believes that this IP address range is \
             being used or is about to be used for the purpose of high volume spam emission.",
        );
        assert!(c.categories.is_empty());
        assert_eq!(c.keyword_hits, 0);
    }

    #[test]
    fn unallocated_keywords() {
        assert!(classify("unallocated address space, do not route")
            .categories
            .contains(&Category::Unallocated));
        assert!(classify("bogon prefix announced")
            .categories
            .contains(&Category::Unallocated));
    }

    #[test]
    fn hosting_matches_plain_word_variants() {
        assert!(classify("bulletproof hosting operation")
            .categories
            .contains(&Category::MaliciousHosting));
        assert!(classify("spamhosting outfit")
            .categories
            .contains(&Category::MaliciousHosting));
        // Domain-only mention is not hosting.
        assert!(!classify("see report at badhosting.example.com")
            .categories
            .contains(&Category::MaliciousHosting));
    }

    #[test]
    fn asn_extraction() {
        assert_eq!(
            extract_asns("Snowshoe IP block on Stolen AS62927 via AS204139 and AS62927"),
            vec![Asn(62927), Asn(204139)]
        );
        assert!(extract_asns("no asns here; ALIAS12 is not one; aS12 neither").is_empty());
        assert_eq!(extract_asns("AS1"), vec![Asn(1)]);
        assert!(extract_asns("").is_empty());
    }

    #[test]
    fn database_round_trip() {
        let mut db = SblDatabase::new();
        db.insert(SblRecord::new(SblId(310721), "AS204139 spammer hosting"));
        db.insert(SblRecord::new(
            SblId(240976),
            "hijacked IP range\nbilling@ahostinginc.com",
        ));
        let text = db.to_text();
        let parsed = SblDatabase::parse(&text).unwrap();
        assert_eq!(parsed, db);
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            parsed.get(SblId(310721)).unwrap().text,
            "AS204139 spammer hosting"
        );
        assert!(parsed.get(SblId(1)).is_none());
    }

    #[test]
    fn database_parse_rejects_garbage_header() {
        let err = SblDatabase::parse("NOTANID\nbody\n").unwrap_err();
        assert_eq!(err.location(), ("sbl/records.txt", 1));
    }

    #[test]
    fn permissive_parse_quarantines_whole_blocks() {
        let text = "NOTANID\nbody of the bad block\n\nSBL7\ngood body\n";
        let mut q = Quarantine::permissive("sbl/records.txt");
        let db = SblDatabase::parse_with(text, &mut q).unwrap();
        assert_eq!(db.len(), 1);
        assert_eq!(db.get(SblId(7)).unwrap().text, "good body");
        assert_eq!(q.quarantined, 1);
        assert_eq!(q.samples[0].location(), ("sbl/records.txt", 1));
    }

    #[test]
    fn empty_database() {
        let db = SblDatabase::parse("").unwrap();
        assert!(db.is_empty());
        assert_eq!(db.to_text(), "");
    }
}
