//! droplens-lint: the workspace's own invariant checker.
//!
//! The pipeline's non-negotiables — byte-identical output at any
//! `DROPLENS_THREADS`, located error handling in every parser, and
//! deadline-guarded sockets on the serve path — used to live in
//! reviewers' heads. This crate makes the project-specific ones
//! machine-enforced: a zero-dependency, token-level static analysis
//! over the workspace's own sources, run as `droplens lint` locally and
//! as a CI gate. What clippy configuration can say is not here: the
//! workspace lint table and `clippy.toml` enforce panic-freedom, the
//! ban on hash containers (`disallowed-types`), the bans on clock
//! reads, entropy-seeded RNGs and deadline-free `TcpStream::connect`
//! (`disallowed-methods`), and `clippy::indexing_slicing` on
//! `droplens-serve` (DESIGN.md §9).
//!
//! Five token-level rules, each scoped to the modules where its
//! invariant bites (see [`rules_for_path`] and DESIGN.md §9):
//!
//! | rule | scope | bans |
//! |------|-------|------|
//! | `located-errors` | parser modules (format/journal/list) | `ParseError::new` with no `.with_location` on any intra-file caller path |
//! | `no-unbounded-collect` | parser/writer hot paths (format/archive) | `.collect` without an acknowledging escape |
//! | `no-string-keyed-hot-map` | parser/writer hot paths (format/archive) | `HashMap<String, _>` / `BTreeMap<String, _>` |
//! | `no-deadline-free-io` | serve-path modules (server/client/loadgen/net) | socket read/write in functions with no configured timeout |
//! | `lock-across-io` | serve-path modules (server/client/loadgen/net) | a `let`-bound lock guard still live at a blocking socket read/write |
//!
//! Every rule sees one file at a time, so files lint independently and
//! in parallel. A finding can be suppressed per line with a trailing
//! `// lint: allow(<rule>)` comment (or one on its own line directly
//! above). Escapes naming unknown rules are themselves reported, so a
//! typo cannot silently disable checking.

#![warn(missing_docs)]

pub mod lexer;
mod rules;

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use rules::FileView;

/// The rules droplens-lint knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Every `ParseError` construction in a parser module is located.
    LocatedErrors,
    /// No `.collect` on format/archive hot paths without an explicit
    /// acknowledging escape — materializing an unbounded intermediate
    /// Vec is how 10–100× worlds run out of memory.
    NoUnboundedCollect,
    /// No `String`-keyed maps on format/archive hot paths: every
    /// insert/lookup hashes and possibly clones the full string. Intern
    /// to a `u32` id (`StrTable`/`StringInterner`) and key by that.
    NoStringKeyedHotMap,
    /// No deadline-free socket IO on serve paths: a function doing
    /// socket read/write must configure both `set_read_timeout` and
    /// `set_write_timeout` (or go through `DeadlineStream`, which does).
    /// The deadline-free `TcpStream::connect` is clippy's
    /// (`disallowed-methods`).
    NoDeadlineFreeIo,
    /// No `Mutex`/`RwLock` guard held live across a blocking socket
    /// read/write on serve paths — a wedged peer would hold the lock
    /// (and every waiter) hostage for its full network latency.
    LockAcrossIo,
    /// A `// lint: allow(...)` escape that names an unknown rule.
    BadEscape,
}

impl Rule {
    /// Every scannable rule (excludes [`Rule::BadEscape`], which is
    /// emitted by the escape parser, not scanned for).
    pub const ALL: [Rule; 5] = [
        Rule::LocatedErrors,
        Rule::NoUnboundedCollect,
        Rule::NoStringKeyedHotMap,
        Rule::NoDeadlineFreeIo,
        Rule::LockAcrossIo,
    ];

    /// The kebab-case name used in diagnostics and escapes.
    pub fn name(self) -> &'static str {
        match self {
            Rule::LocatedErrors => "located-errors",
            Rule::NoUnboundedCollect => "no-unbounded-collect",
            Rule::NoStringKeyedHotMap => "no-string-keyed-hot-map",
            Rule::NoDeadlineFreeIo => "no-deadline-free-io",
            Rule::LockAcrossIo => "lock-across-io",
            Rule::BadEscape => "bad-escape",
        }
    }

    /// Parse a rule name as written in an escape comment.
    pub fn from_name(s: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.name() == s)
    }
}

/// One finding: where, which rule, and what to do about it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file, `/`-separated.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

/// The outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct LintReport {
    /// How many files were scanned.
    pub files_checked: usize,
    /// Findings suppressed by `// lint: allow(...)` escapes.
    pub suppressed: usize,
    /// Findings removed by an accepted baseline snapshot
    /// ([`LintReport::apply_baseline`]).
    pub baselined: usize,
    /// Surviving findings, sorted by path, line, rule.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// True when no diagnostics survived.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Render as `path:line: [rule] message` lines plus a summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "{}:{}: [{}] {}",
                d.path,
                d.line,
                d.rule.name(),
                d.message
            );
        }
        let baselined = if self.baselined > 0 {
            format!(", {} baselined", self.baselined)
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "droplens-lint: {} violation{} ({} suppressed{}) in {} file{}",
            self.diagnostics.len(),
            if self.diagnostics.len() == 1 { "" } else { "s" },
            self.suppressed,
            baselined,
            self.files_checked,
            if self.files_checked == 1 { "" } else { "s" },
        );
        out
    }

    /// Render as stable JSON (schema `droplens-lint/2`): diagnostics in
    /// the same sorted order as [`LintReport::to_text`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\":\"droplens-lint/2\"");
        let _ = write!(
            out,
            ",\"files_checked\":{},\"violations\":{},\"suppressed\":{},\"baselined\":{},\"diagnostics\":[",
            self.files_checked,
            self.diagnostics.len(),
            self.suppressed,
            self.baselined,
        );
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&d.path),
                d.line,
                d.rule.name(),
                json_escape(&d.message),
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Render as minimal SARIF 2.1.0 for CI annotation. Hand-rolled and
    /// byte-stable like every other output: the driver lists all known
    /// rules, results carry `ruleId`, `level: error`, the message, and
    /// one physical location each, in diagnostic order.
    pub fn to_sarif(&self) -> String {
        let mut out = String::from(
            "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
             \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
             \"name\":\"droplens-lint\",\"rules\":[",
        );
        let mut rules: Vec<Rule> = Rule::ALL.to_vec();
        rules.push(Rule::BadEscape);
        for (i, r) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"id\":\"{}\"}}", r.name());
        }
        out.push_str("]}},\"results\":[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"ruleId\":\"{}\",\"level\":\"error\",\"message\":{{\"text\":\"{}\"}},\
                 \"locations\":[{{\"physicalLocation\":{{\"artifactLocation\":{{\"uri\":\"{}\"}},\
                 \"region\":{{\"startLine\":{}}}}}}}]}}",
                d.rule.name(),
                json_escape(&d.message),
                json_escape(&d.path),
                d.line,
            );
        }
        out.push_str("]}]}\n");
        out
    }

    /// Render the surviving findings as a baseline snapshot: one
    /// `path<TAB>rule<TAB>message` line per finding, in diagnostic
    /// order, duplicates kept. Line numbers are deliberately omitted so
    /// a baseline survives unrelated edits above a finding.
    pub fn to_baseline(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(
                out,
                "{}\t{}\t{}",
                d.path,
                d.rule.name(),
                json_escape(&d.message)
            );
        }
        out
    }

    /// Remove findings recorded in `baseline` (a [`to_baseline`]
    /// snapshot), with multiset semantics: a baseline line absolves at
    /// most one matching finding. Removed findings are counted in
    /// [`LintReport::baselined`]. Unknown or malformed baseline lines
    /// are ignored — a stale baseline can only fail closed (findings
    /// resurface), never suppress something new.
    ///
    /// [`to_baseline`]: LintReport::to_baseline
    pub fn apply_baseline(&mut self, baseline: &str) {
        let mut budget: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for line in baseline.lines() {
            let mut parts = line.splitn(3, '\t');
            if let (Some(p), Some(r), Some(m)) = (parts.next(), parts.next(), parts.next()) {
                *budget
                    .entry((p.to_owned(), r.to_owned(), m.to_owned()))
                    .or_default() += 1;
            }
        }
        let mut kept = Vec::with_capacity(self.diagnostics.len());
        for d in std::mem::take(&mut self.diagnostics) {
            let key = (
                d.path.clone(),
                d.rule.name().to_owned(),
                json_escape(&d.message),
            );
            match budget.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    self.baselined += 1;
                }
                _ => kept.push(d),
            }
        }
        self.diagnostics = kept;
    }
}

/// Escape `s` as the body of a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Which rules apply to the file at `path` (workspace-relative).
///
/// Scoping is by path shape, so the same classification covers real
/// sources and the fixture corpus:
///
/// * `vendor/`, `target/`, `.git/`, and test-ish trees (`tests/`,
///   `benches/`, `examples/` outside a `fixtures/` dir) — nothing
///   applies;
/// * file-stem scopes: `located-errors` on format/journal/list,
///   `no-unbounded-collect` and `no-string-keyed-hot-map` on the
///   per-record hot paths (format, archive), `no-deadline-free-io` and
///   `lock-across-io` on the socket-touching serve paths (server,
///   client, loadgen, net).
pub fn rules_for_path(path: &str) -> Vec<Rule> {
    let norm = path.replace('\\', "/");
    let comps: Vec<&str> = norm
        .split('/')
        .filter(|c| !c.is_empty() && *c != ".")
        .collect();
    let Some(file) = comps.last() else {
        return Vec::new();
    };
    let Some(stem) = file.strip_suffix(".rs") else {
        return Vec::new();
    };
    let has = |name: &str| comps.contains(&name);
    let test_tree = !has("fixtures") && (has("tests") || has("benches") || has("examples"));
    if has("vendor") || has("target") || has(".git") || test_tree {
        return Vec::new();
    }
    let mut rules = Vec::new();
    const DEADLINE_STEMS: [&str; 4] = ["server", "client", "loadgen", "net"];
    const LOCATED_STEMS: [&str; 3] = ["format", "journal", "list"];
    const COLLECT_STEMS: [&str; 2] = ["format", "archive"];
    if LOCATED_STEMS.contains(&stem) {
        rules.push(Rule::LocatedErrors);
    }
    if COLLECT_STEMS.contains(&stem) {
        rules.push(Rule::NoUnboundedCollect);
        rules.push(Rule::NoStringKeyedHotMap);
    }
    if DEADLINE_STEMS.contains(&stem) {
        rules.push(Rule::NoDeadlineFreeIo);
        rules.push(Rule::LockAcrossIo);
    }
    rules.sort();
    rules
}

/// Per-line allow-escapes parsed from `// lint: allow(a, b)` comments.
struct Escapes {
    /// (line, rule) pairs that are allowed.
    allowed: BTreeSet<(u32, Rule)>,
    /// Diagnostics for malformed escapes.
    bad: Vec<(u32, String)>,
}

/// Parse escapes from the comment tokens. A same-line escape suppresses
/// findings on its own line; an escape that is the only thing on its
/// line also covers the next code line (so rustfmt-wrapped lines keep
/// their escape). Doc comments (`///`, `//!`) never carry escapes.
fn parse_escapes(src: &str, view: &FileView<'_>) -> Escapes {
    let mut esc = Escapes {
        allowed: BTreeSet::new(),
        bad: Vec::new(),
    };
    for (idx, tok) in view.tokens.iter().enumerate() {
        if tok.kind != lexer::TokenKind::LineComment {
            continue;
        }
        let body = &tok.text[2..];
        if body.starts_with('/') || body.starts_with('!') {
            continue; // doc comment
        }
        let Some(rest) = body.trim_start().strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(list) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.split_once(')'))
            .map(|(names, _)| names)
        else {
            esc.bad.push((
                tok.line,
                format!(
                    "malformed lint escape {:?} — expected `lint: allow(<rule>, ...)`",
                    body.trim()
                ),
            ));
            continue;
        };
        let mut lines = vec![tok.line];
        // Standalone comment: nothing but whitespace before it on its
        // line — the escape also covers the next code line.
        let line_start = src[..tok.start].rfind('\n').map(|p| p + 1).unwrap_or(0);
        if src[line_start..tok.start].chars().all(char::is_whitespace) {
            if let Some(next) = view.tokens[idx + 1..].iter().find(|t| !t.is_trivia()) {
                lines.push(next.line);
            }
        }
        for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match Rule::from_name(name) {
                Some(rule) => {
                    for &l in &lines {
                        esc.allowed.insert((l, rule));
                    }
                }
                None => esc.bad.push((
                    tok.line,
                    format!(
                        "unknown rule {name:?} in lint escape (known: {})",
                        rule_names()
                    ),
                )),
            }
        }
    }
    esc
}

fn rule_names() -> String {
    Rule::ALL
        .iter()
        .map(|r| r.name())
        .collect::<Vec<_>>()
        .join(", ")
}

/// Lint one file's source text under the rules its path selects.
/// Returns the surviving diagnostics, sorted by line, and the
/// suppressed count.
pub fn lint_source(path: &str, src: &str) -> (Vec<Diagnostic>, usize) {
    let view = FileView::new(src);
    let escapes = parse_escapes(src, &view);
    let mut hits = Vec::new();
    for rule in rules_for_path(path) {
        rules::check(rule, &view, &mut hits);
    }
    let mut suppressed = 0usize;
    let mut out: Vec<Diagnostic> = Vec::new();
    for hit in hits {
        if escapes.allowed.contains(&(hit.line, hit.rule)) {
            suppressed += 1;
            continue;
        }
        out.push(Diagnostic {
            path: path.to_owned(),
            line: hit.line,
            rule: hit.rule,
            message: hit.message,
        });
    }
    for (line, message) in escapes.bad {
        out.push(Diagnostic {
            path: path.to_owned(),
            line,
            rule: Rule::BadEscape,
            message,
        });
    }
    out.sort_by(|a, b| (a.line, a.rule, &a.message).cmp(&(b.line, b.rule, &b.message)));
    (out, suppressed)
}

/// Recursively collect `.rs` files under each input, in sorted order.
/// Directories named `target`, `vendor`, `.git`, or `fixtures` are
/// skipped during the walk; explicitly named files are always included
/// (that is how the CI self-test lints the fixture corpus).
pub fn collect_rs_files(inputs: &[PathBuf]) -> io::Result<Vec<PathBuf>> {
    const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "fixtures"];
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<Vec<_>>>()?;
        entries.sort();
        for entry in entries {
            let name = entry
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if entry.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    walk(&entry, out)?;
                }
            } else if name.ends_with(".rs") {
                out.push(entry);
            }
        }
        Ok(())
    }
    let mut out = Vec::new();
    for input in inputs {
        if input.is_dir() {
            walk(input, &mut out)?;
        } else {
            out.push(input.clone());
        }
    }
    out.sort();
    out.dedup();
    Ok(out)
}

/// Lint every file in `files` (as returned by [`collect_rs_files`]):
/// each file is read and linted on a [`droplens_par`] worker
/// (`DROPLENS_THREADS` honored). Output is byte-identical at any worker
/// count: results are merged in input order and fully sorted at the
/// end.
pub fn lint_files(files: &[PathBuf]) -> io::Result<LintReport> {
    lint_files_with(droplens_par::max_threads(), files)
}

/// [`lint_files`] with an explicit worker count (the determinism tests
/// and the bench compare `1` against the default).
pub fn lint_files_with(workers: usize, files: &[PathBuf]) -> io::Result<LintReport> {
    let units: Vec<io::Result<(Vec<Diagnostic>, usize)>> =
        droplens_par::par_map_with(workers, files, |file| {
            let src = std::fs::read_to_string(file)?;
            let label = file.to_string_lossy().replace('\\', "/");
            let label = label.strip_prefix("./").unwrap_or(&label);
            Ok(lint_source(label, &src))
        });
    let mut report = LintReport::default();
    for unit in units {
        let (diags, suppressed) = unit?;
        report.files_checked += 1;
        report.suppressed += suppressed;
        report.diagnostics.extend(diags);
    }
    report.diagnostics.sort_by(|a, b| {
        (&a.path, a.line, a.rule, &a.message).cmp(&(&b.path, b.line, b.rule, &b.message))
    });
    Ok(report)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    #[test]
    fn scope_classification_matches_the_tree() {
        let r = rules_for_path("crates/bgp/src/format.rs");
        assert!(r.contains(&Rule::LocatedErrors));
        assert!(r.contains(&Rule::NoUnboundedCollect));

        let r = rules_for_path("crates/bgp/src/archive.rs");
        assert!(r.contains(&Rule::NoUnboundedCollect));
        let r = rules_for_path("crates/core/src/study.rs");
        assert!(!r.contains(&Rule::NoUnboundedCollect), "cold paths exempt");

        // The clock and RNG bans are clippy's: obs, test trees and the
        // benchmark (its own Cargo workspace, timing the system from
        // outside) get no rule.
        assert!(rules_for_path("crates/obs/src/trace.rs").is_empty());
        assert!(rules_for_path("crates/obs/src/clock.rs").is_empty());
        assert!(rules_for_path("crates/bgp/tests/proptests.rs").is_empty());
        assert!(rules_for_path("crates/serve/tests/server.rs").is_empty());
        assert!(rules_for_path("perfbench/src/serve.rs").is_empty());
        assert!(rules_for_path("perfbench/src/reproduce.rs").is_empty());

        assert!(rules_for_path("vendor/rand/src/lib.rs").is_empty());
        assert!(rules_for_path("crates/core/README.md").is_empty());

        // Serve paths: the socket-deadline and lock rules.
        let r = rules_for_path("crates/serve/src/server.rs");
        assert!(r.contains(&Rule::NoDeadlineFreeIo));
        assert!(r.contains(&Rule::LockAcrossIo));
        let r = rules_for_path("crates/faults/src/net.rs");
        assert!(r.contains(&Rule::NoDeadlineFreeIo));
        let r = rules_for_path("crates/serve/src/engine.rs");
        assert!(r.is_empty(), "engine is socket-free: {r:?}");

        // Fixtures classify like sources, not like tests.
        let r = rules_for_path("crates/lint/tests/fixtures/located_errors/format.rs");
        assert!(r.contains(&Rule::LocatedErrors));
    }

    #[test]
    fn backslash_paths_classify_like_forward_slash_paths() {
        // Windows-style separators must not defeat path-shape scoping:
        // every component test (vendor skip, test-tree downgrade,
        // fixture rescue, stem scopes) keys off normalized components.
        for (win, unix) in [
            (r"crates\bgp\src\format.rs", "crates/bgp/src/format.rs"),
            (r"vendor\rand\src\lib.rs", "vendor/rand/src/lib.rs"),
            (
                r"crates\bgp\tests\proptests.rs",
                "crates/bgp/tests/proptests.rs",
            ),
            (
                r"crates\lint\tests\fixtures\located_errors\format.rs",
                "crates/lint/tests/fixtures/located_errors/format.rs",
            ),
            (r"crates\serve\src\server.rs", "crates/serve/src/server.rs"),
        ] {
            assert_eq!(rules_for_path(win), rules_for_path(unix), "{win}");
        }
    }

    #[test]
    fn same_line_escape_suppresses() {
        let src = "fn f(v: &[u8]) -> Vec<u8> { v.iter().copied().collect() } // lint: allow(no-unbounded-collect)\n";
        let (diags, suppressed) = lint_source("crates/x/src/format.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn standalone_escape_covers_next_line() {
        let src = "fn f(v: &[u8]) -> Vec<u8> {\n    // lint: allow(no-unbounded-collect)\n    v.iter().copied().collect()\n}\n";
        let (diags, suppressed) = lint_source("crates/x/src/format.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn unknown_rule_in_escape_is_reported() {
        let src = "// lint: allow(no-unwarp)\nfn f() {}\n";
        let (diags, _) = lint_source("crates/x/src/format.rs", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::BadEscape);
        assert!(diags[0].message.contains("no-unwarp"));
    }

    #[test]
    fn rules_handed_to_clippy_are_unknown() {
        // Panic-freedom, the hash-container ban and the clock and RNG
        // bans are clippy's now: an escape naming one of these retired
        // rules is a bad escape, not a silent no-op.
        for name in [
            "no-unwrap",
            "no-panic-in-request-path",
            "wallclock-taint",
            "ordered-output",
            "no-wallclock",
            "seeded-rng-only",
        ] {
            assert_eq!(Rule::from_name(name), None, "{name}");
        }
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let body =
            "fn t(v: &[u8]) { let m: HashMap<String, u32> = HashMap::new(); let w: Vec<u8> = v.iter().copied().collect(); }";
        let (diags, _) = lint_source("crates/x/src/format.rs", &format!("{body}\n"));
        assert_eq!(
            diags.len(),
            2,
            "outside a test module the body fires: {diags:?}"
        );
        let src = format!("fn f() -> u32 {{ 1 }}\n#[cfg(test)]\nmod tests {{\n    {body}\n}}\n");
        let (diags, _) = lint_source("crates/x/src/format.rs", &src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn rule_patterns_in_strings_and_comments_are_ignored() {
        let src = "fn f() -> &'static str { \"HashMap<String, u8> and .collect()\" } // .collect() here\n";
        let (diags, _) = lint_source("crates/x/src/format.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn located_errors_accepts_the_parser_idiom() {
        // Line-level helper returns a bare error; the loop stamps the
        // location — the idiom every parser in the workspace uses.
        let src = r#"
fn parse_line(s: &str) -> Result<u32, ParseError> {
    s.parse().map_err(|_| ParseError::new("U32", s, "bad"))
}
fn parse_all(text: &str) -> Result<Vec<u32>, ParseError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        match parse_line(line) {
            Ok(v) => out.push(v),
            Err(e) => return Err(e.with_location("f.txt", i as u32 + 1)),
        }
    }
    Ok(out)
}
"#;
        let (diags, _) = lint_source("crates/x/src/format.rs", src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn located_errors_flags_unlocated_construction() {
        let src = r#"
fn parse_line(s: &str) -> Result<u32, ParseError> {
    s.parse().map_err(|_| ParseError::new("U32", s, "bad"))
}
pub fn parse_all(text: &str) -> Result<Vec<u32>, ParseError> {
    let mut out = Vec::new();
    for line in text.lines() {
        out.push(parse_line(line)?);
    }
    Ok(out)
}
"#;
        let (diags, _) = lint_source("crates/x/src/format.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, Rule::LocatedErrors);
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn json_report_is_stable() {
        let report = LintReport {
            files_checked: 2,
            suppressed: 1,
            baselined: 0,
            diagnostics: vec![Diagnostic {
                path: "crates/x/src/format.rs".into(),
                line: 7,
                rule: Rule::NoUnboundedCollect,
                message: "`.collect` bad".into(),
            }],
        };
        assert_eq!(
            report.to_json(),
            "{\"schema\":\"droplens-lint/2\",\"files_checked\":2,\"violations\":1,\"suppressed\":1,\"baselined\":0,\"diagnostics\":[{\"path\":\"crates/x/src/format.rs\",\"line\":7,\"rule\":\"no-unbounded-collect\",\"message\":\"`.collect` bad\"}]}\n"
        );
    }

    #[test]
    fn sarif_report_is_stable() {
        let report = LintReport {
            files_checked: 1,
            suppressed: 0,
            baselined: 0,
            diagnostics: vec![Diagnostic {
                path: "crates/x/src/format.rs".into(),
                line: 7,
                rule: Rule::NoUnboundedCollect,
                message: "`.collect` \"bad\"".into(),
            }],
        };
        let sarif = report.to_sarif();
        assert!(sarif.starts_with("{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\""));
        assert!(sarif.contains("\"version\":\"2.1.0\""));
        assert!(sarif.contains("{\"id\":\"lock-across-io\"},{\"id\":\"bad-escape\"}"));
        assert!(sarif.contains(
            "{\"ruleId\":\"no-unbounded-collect\",\"level\":\"error\",\
             \"message\":{\"text\":\"`.collect` \\\"bad\\\"\"},\
             \"locations\":[{\"physicalLocation\":{\"artifactLocation\":\
             {\"uri\":\"crates/x/src/format.rs\"},\"region\":{\"startLine\":7}}}]}"
        ));
    }

    #[test]
    fn baseline_round_trips_and_is_a_multiset() {
        let diag = |line: u32, msg: &str| Diagnostic {
            path: "crates/x/src/format.rs".into(),
            line,
            rule: Rule::NoUnboundedCollect,
            message: msg.into(),
        };
        let mut report = LintReport {
            files_checked: 1,
            suppressed: 0,
            baselined: 0,
            diagnostics: vec![diag(3, "same"), diag(9, "same"), diag(12, "other")],
        };
        // Baseline holds one "same" and one "other": exactly two of the
        // three findings are absolved, line numbers notwithstanding.
        let baseline = LintReport {
            files_checked: 1,
            suppressed: 0,
            baselined: 0,
            diagnostics: vec![diag(999, "same"), diag(999, "other")],
        }
        .to_baseline();
        report.apply_baseline(&baseline);
        assert_eq!(report.baselined, 2);
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.diagnostics[0].message, "same");
        assert!(report.to_text().contains("(0 suppressed, 2 baselined)"));
    }
}
