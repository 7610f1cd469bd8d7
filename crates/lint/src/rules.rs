//! The project-specific rules, run over the significant-token stream
//! of one file.
//!
//! Every rule is a local pattern over [`lexer`] tokens — no type
//! information, no macro expansion. That keeps the checker fast and
//! zero-dependency, at the cost of being a *lint*, not a proof: the
//! escape hatch (`// lint: allow(<rule>)`) exists precisely because
//! token-level analysis sometimes needs a human override. See
//! DESIGN.md §9 for the rule table and escape policy.

use crate::lexer::{Token, TokenKind};
use crate::Rule;

/// A rule hit before escape filtering: line and message.
pub(crate) struct Hit {
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

/// The lexed file plus the derived views every rule needs.
pub(crate) struct FileView<'a> {
    /// The full lossless token stream.
    pub tokens: Vec<Token<'a>>,
    /// Indices into `tokens` of the non-trivia tokens, in order.
    pub sig: Vec<usize>,
    /// Half-open ranges over `sig` positions that sit under an exact
    /// `#[cfg(test)]` attribute (the attribute itself plus the item it
    /// gates) or after `#![cfg(test)]`. Rules skip these.
    inactive: Vec<(usize, usize)>,
    /// Every `fn` with a body outside test code, in source order;
    /// nested fns (and fns inside closures) are listed too.
    fns: Vec<FnSpan<'a>>,
}

/// One function definition with a body, as found by the scanner.
struct FnSpan<'a> {
    name: &'a str,
    /// Sig position of the `fn` keyword.
    start: usize,
    /// Half-open sig range of the body: its `{` through just past `}`.
    body: (usize, usize),
}

impl FnSpan<'_> {
    /// The `fn` keyword through the body's closing brace, so names in
    /// the signature count as part of the function.
    fn span(&self) -> (usize, usize) {
        (self.start, self.body.1)
    }
}

impl<'a> FileView<'a> {
    pub fn new(src: &'a str) -> FileView<'a> {
        let tokens = crate::lexer::lex(src);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let mut view = FileView {
            tokens,
            sig,
            inactive: Vec::new(),
            fns: Vec::new(),
        };
        view.inactive = view.find_cfg_test_ranges();
        view.fns = view.find_fns();
        view
    }

    /// The token at sig position `i`, if any.
    fn tok(&self, i: usize) -> Option<&Token<'a>> {
        self.sig.get(i).map(|&ti| &self.tokens[ti])
    }

    /// The text at sig position `i`, or "".
    pub fn text(&self, i: usize) -> &'a str {
        self.tok(i).map(|t| t.text).unwrap_or("")
    }

    /// The kind at sig position `i`.
    fn kind(&self, i: usize) -> Option<TokenKind> {
        self.tok(i).map(|t| t.kind)
    }

    /// 1-based line of sig position `i` (0 when out of range).
    pub fn line(&self, i: usize) -> u32 {
        self.tok(i).map(|t| t.line).unwrap_or(0)
    }

    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// True when sig position `i` is inside a `#[cfg(test)]` region.
    pub fn is_test_code(&self, i: usize) -> bool {
        self.inactive.iter().any(|&(a, b)| a <= i && i < b)
    }

    /// Does the exact token sequence `pat` start at sig position `i`?
    pub fn matches(&self, i: usize, pat: &[&str]) -> bool {
        pat.iter()
            .enumerate()
            .all(|(k, want)| self.text(i + k) == *want)
    }

    /// Does the token `name` appear anywhere in the sig range `span`?
    fn mentions(&self, span: (usize, usize), name: &str) -> bool {
        (span.0..span.1).any(|p| self.text(p) == name)
    }

    /// Find `#[cfg(test)]`-gated regions: the attribute plus the item
    /// it introduces (up to a top-level `;`, or through the matched
    /// `{...}` block). Only the exact form is recognized; conditional
    /// spellings like `#[cfg(all(test, ...))]` are not test-gated for
    /// the linter's purposes.
    fn find_cfg_test_ranges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.sig.len() {
            if self.matches(i, &["#", "!", "[", "cfg", "(", "test", ")", "]"]) {
                // Inner attribute: the whole rest of the file is a test
                // module.
                out.push((i, self.sig.len()));
                break;
            }
            if self.matches(i, &["#", "[", "cfg", "(", "test", ")", "]"]) {
                let end = self.skip_item(i + 7);
                out.push((i, end));
                i = end;
                continue;
            }
            i += 1;
        }
        out
    }

    /// Find every `fn name ... { body }` outside test code: the body is
    /// the first top-level `{` before any top-level `;` (a `;` first
    /// means a bodyless declaration). Scanning continues inside each
    /// body, so nested fns and fns in closures get their own entries.
    fn find_fns(&self) -> Vec<FnSpan<'a>> {
        let mut fns = Vec::new();
        for i in 0..self.len() {
            if self.text(i) != "fn"
                || self.kind(i + 1) != Some(TokenKind::Ident)
                || self.is_test_code(i)
            {
                continue;
            }
            let mut depth = 0i64; // (), []
            for j in i + 2..self.len() {
                match self.text(j) {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    ";" if depth == 0 => break,
                    "{" if depth == 0 => {
                        fns.push(FnSpan {
                            name: self.text(i + 1),
                            start: i,
                            body: (j, self.skip_braces(j)),
                        });
                        break;
                    }
                    _ => {}
                }
            }
        }
        fns
    }

    /// From sig position `i` (just past an attribute), skip any further
    /// attributes and then one item: to a top-level `;`, or through the
    /// first `{`'s matched `}`. Returns the sig position just past it.
    fn skip_item(&self, mut i: usize) -> usize {
        let mut depth = 0i64; // (), []
        while i < self.sig.len() {
            match self.text(i) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                ";" if depth == 0 => return i + 1,
                "{" if depth == 0 => return self.skip_braces(i),
                _ => {}
            }
            i += 1;
        }
        i
    }

    /// From sig position `i` (an opening `{`), return the position just
    /// past its matching `}` (or EOF).
    pub fn skip_braces(&self, mut i: usize) -> usize {
        debug_assert_eq!(self.text(i), "{");
        let mut depth = 0i64;
        while i < self.sig.len() {
            match self.text(i) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        i
    }
}

/// Run `rule` over the file, appending hits.
pub(crate) fn check(rule: Rule, view: &FileView<'_>, hits: &mut Vec<Hit>) {
    match rule {
        Rule::LocatedErrors => located_errors(view, hits),
        Rule::NoUnboundedCollect => no_unbounded_collect(view, hits),
        Rule::NoStringKeyedHotMap => no_string_keyed_hot_map(view, hits),
        Rule::NoDeadlineFreeIo => no_deadline_free_io(view, hits),
        Rule::LockAcrossIo => lock_across_io(view, hits),
        // Emitted during escape parsing, never scanned for.
        Rule::BadEscape => {}
    }
}

/// `no-unbounded-collect`: `.collect` (plain or turbofish) on a
/// format/archive hot path materializes an intermediate collection
/// whose size scales with the input. The size-of tests pin per-record
/// costs; this rule makes whole-archive materialization a conscious
/// decision — every legitimate site carries a
/// `// lint: allow(no-unbounded-collect)` escape saying why the bound
/// is acceptable.
fn no_unbounded_collect(view: &FileView<'_>, hits: &mut Vec<Hit>) {
    for i in 0..view.len() {
        if view.is_test_code(i) || view.kind(i) != Some(TokenKind::Ident) {
            continue;
        }
        if view.text(i) == "collect"
            && i > 0
            && view.text(i - 1) == "."
            && (view.text(i + 1) == "(" || view.matches(i + 1, &[":", ":"]))
        {
            hits.push(Hit {
                line: view.line(i),
                rule: Rule::NoUnboundedCollect,
                message: "`.collect` on a format/archive hot path materializes an input-sized \
                          collection — stream instead, or escape with a comment saying why the \
                          size is bounded"
                    .to_owned(),
            });
        }
    }
}

/// `no-string-keyed-hot-map`: a `HashMap<String, _>` or
/// `BTreeMap<String, _>` on a format/archive hot path hashes (or
/// compares) and clones the full string once per record. The interners
/// exist exactly for this — add the string to a `StrTable` /
/// `StringInterner` once and key the map by the `u32` id. Reference
/// keys (`&str`, `&AsPath`, ids) do not trip the rule.
fn no_string_keyed_hot_map(view: &FileView<'_>, hits: &mut Vec<Hit>) {
    for i in 0..view.len() {
        if view.is_test_code(i) || view.kind(i) != Some(TokenKind::Ident) {
            continue;
        }
        let name = view.text(i);
        if (name == "HashMap" || name == "BTreeMap")
            && view.text(i + 1) == "<"
            && view.text(i + 2) == "String"
            && (view.text(i + 3) == "," || view.text(i + 3) == ">")
        {
            hits.push(Hit {
                line: view.line(i),
                rule: Rule::NoStringKeyedHotMap,
                message: format!(
                    "`{name}<String, _>` on a format/archive hot path — intern the keys \
                     (StrTable/StringInterner) and key by u32 id instead"
                ),
            });
        }
    }
}

/// The blocking socket read/write calls the serve-path rules watch.
const IO_CALLS: [&str; 5] = ["read", "read_exact", "read_to_end", "write", "write_all"];

/// `no-deadline-free-io`: serve-path sockets must always carry
/// deadlines, or a wedged peer holds a worker (or the whole drain)
/// hostage forever. Any function that touches `TcpStream`/`TcpListener`
/// and performs raw IO (`.read(`, `.read_exact(`, `.read_to_end(`,
/// `.write(`, `.write_all(`) must configure **both** `set_read_timeout`
/// and `set_write_timeout` in the same function, or route the socket
/// through `DeadlineStream` (whose constructor sets both). Each
/// unguarded IO call is a separate hit. The deadline-free
/// `TcpStream::connect` is clippy's to ban (`disallowed-methods` in
/// `clippy.toml`), in every crate and in tests too.
///
/// Token-level, like every rule here: a function that configures
/// timeouts on one socket and does raw IO on another will pass, and a
/// helper that receives an already-deadlined socket will be flagged —
/// that second case is what `// lint: allow(no-deadline-free-io)` is
/// for (or better: pass the `DeadlineStream` wrapper, which documents
/// the invariant in the type).
fn no_deadline_free_io(view: &FileView<'_>, hits: &mut Vec<Hit>) {
    // Unguarded IO calls in socket-touching functions. A function spans its `fn` token through the body's closing brace,
    // so timeouts configured anywhere in it (and socket types named in
    // the signature) both count; nested fns are judged on their own.
    let innermost = |p: usize| -> Option<(usize, usize)> {
        view.fns
            .iter()
            .map(FnSpan::span)
            .filter(|s| s.0 <= p && p < s.1)
            .min_by_key(|s| s.1 - s.0)
    };
    for p in 0..view.len() {
        if view.is_test_code(p) || view.kind(p) != Some(TokenKind::Ident) {
            continue;
        }
        let name = view.text(p);
        if !IO_CALLS.contains(&name) || p == 0 || view.text(p - 1) != "." || view.text(p + 1) != "("
        {
            continue;
        }
        let Some(span) = innermost(p) else {
            continue; // not inside any fn: macro plumbing, skip
        };
        if !view.mentions(span, "TcpStream") && !view.mentions(span, "TcpListener") {
            continue; // IO on something that is not a raw socket
        }
        let guarded = view.mentions(span, "DeadlineStream")
            || (view.mentions(span, "set_read_timeout")
                && view.mentions(span, "set_write_timeout"));
        if !guarded {
            hits.push(Hit {
                line: view.line(p),
                rule: Rule::NoDeadlineFreeIo,
                message: format!(
                    "`.{name}(` in a socket-touching function with no configured deadline — set \
                     both `set_read_timeout` and `set_write_timeout` first, or wrap the socket \
                     in `DeadlineStream`"
                ),
            });
        }
    }
}

/// `lock-across-io`: a `Mutex`/`RwLock` guard held across a blocking
/// socket read/write serializes the serve path — every other worker
/// that needs the lock now waits on a peer's network latency. The rule
/// tracks `let`-bound guards from `.lock(`/`.read(`/`.write(`-style
/// lock acquisitions (`let g = m.lock()...`, `let Ok(g) = m.lock()
/// else ...`) inside socket-touching functions and fires on each raw
/// IO call made while a guard is still live. A guard dies at its
/// block's closing brace or at an explicit `drop(g)` — the fix is
/// almost always "copy what you need out of the lock, then do IO".
///
/// Token-level approximations: only `let`-bound guards are tracked
/// (a temporary like `m.lock().push(x)` is dropped at the `;` and
/// cannot span IO), and a guard smuggled through a helper call is
/// invisible — escape with `// lint: allow(lock-across-io)` where the
/// rule is wrong.
fn lock_across_io(view: &FileView<'_>, hits: &mut Vec<Hit>) {
    for span in view.fns.iter().map(FnSpan::span) {
        if !view.mentions(span, "TcpStream")
            && !view.mentions(span, "TcpListener")
            && !view.mentions(span, "DeadlineStream")
        {
            continue;
        }
        // Live guards: (name, brace depth at the binding).
        let mut guards: Vec<(String, i64)> = Vec::new();
        let mut depth = 0i64;
        let mut p = span.0;
        while p < span.1 {
            // Skip nested fns entirely — they run on their own stack
            // of guards (and get their own span).
            if p != span.0 && view.text(p) == "fn" {
                if let Some(inner) = view.fns.iter().find(|f| f.start == p) {
                    p = inner.body.1;
                    continue;
                }
            }
            match view.text(p) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    guards.retain(|&(_, d)| d <= depth);
                }
                "lock" if p > 0 && view.text(p - 1) == "." && view.text(p + 1) == "(" => {
                    if let Some(name) = let_bound_name(view, span.0, p) {
                        guards.push((name, depth));
                    }
                }
                "drop" if view.text(p + 1) == "(" => {
                    let dropped = view.text(p + 2);
                    guards.retain(|(n, _)| n != dropped);
                }
                name if IO_CALLS.contains(&name)
                    && p > 0
                    && view.text(p - 1) == "."
                    && view.text(p + 1) == "("
                    && !guards.is_empty() =>
                {
                    let held: Vec<&str> = guards.iter().map(|(n, _)| n.as_str()).collect();
                    hits.push(Hit {
                        line: view.line(p),
                        rule: Rule::LockAcrossIo,
                        message: format!(
                            "blocking socket `.{name}(` while lock guard{} `{}` {} live — drop \
                             the guard before IO or every lock waiter inherits this peer's latency",
                            if held.len() == 1 { "" } else { "s" },
                            held.join("`, `"),
                            if held.len() == 1 { "is" } else { "are" },
                        ),
                    });
                }
                _ => {}
            }
            p += 1;
        }
    }
}

/// For a `.lock(` at sig position `p`, walk back to the statement's
/// `let` (stopping at `;`/`{`/`}` or the span start) and return the
/// bound name: `let g = ...`, `let mut g = ...`, or the ident inside
/// `let Ok(g)` / `let Some(g)`. `None` when the lock result is a
/// temporary or fed through `match`/`?`.
fn let_bound_name(view: &FileView<'_>, span_start: usize, p: usize) -> Option<String> {
    let mut q = p;
    while q > span_start {
        q -= 1;
        match view.text(q) {
            ";" | "{" | "}" => return None,
            "let" => {
                let mut n = q + 1;
                if view.text(n) == "mut" {
                    n += 1;
                }
                if matches!(view.text(n), "Ok" | "Some") && view.text(n + 1) == "(" {
                    n += 2;
                    if view.text(n) == "mut" {
                        n += 1;
                    }
                }
                if view.kind(n) == Some(TokenKind::Ident) && view.text(n) != "_" {
                    return Some(view.text(n).to_owned());
                }
                return None;
            }
            _ => {}
        }
    }
    None
}

/// What `located-errors` learns about one of [`FileView::fns`].
#[derive(Default)]
struct FnFacts {
    /// Sig positions of `ParseError::new` constructions in the body.
    constructions: Vec<usize>,
    /// Whether the body contains `.with_location(`.
    has_with_location: bool,
    /// Indices (into the fn table) of functions this one calls.
    calls: Vec<usize>,
    /// Indices of functions that call this one.
    callers: Vec<usize>,
}

/// `located-errors`: every `ParseError::new(...)` in a parser module
/// must end up located. A construction passes when the function it sits
/// in attaches `.with_location(...)` somewhere, or when every intra-file
/// caller of that function (transitively) does. This matches the parser
/// idiom where line-level helpers return bare errors and the archive
/// loop stamps file:line on the way out.
fn located_errors(view: &FileView<'_>, hits: &mut Vec<Hit>) {
    // Parallel to `view.fns`.
    let mut fns: Vec<FnFacts> = view.fns.iter().map(|_| FnFacts::default()).collect();

    // Innermost function whose body contains sig position `p`.
    let owner = |p: usize| -> Option<usize> {
        view.fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.body.0 <= p && p < f.body.1)
            .min_by_key(|(_, f)| f.body.1 - f.body.0)
            .map(|(k, _)| k)
    };

    // Constructions, with_location markers, and the intra-file call
    // graph.
    let mut orphans: Vec<usize> = Vec::new(); // constructions outside any fn
    for p in 0..view.len() {
        if view.is_test_code(p) {
            continue;
        }
        if view.matches(p, &["ParseError", ":", ":", "new"]) {
            match owner(p) {
                Some(k) => fns[k].constructions.push(p),
                None => orphans.push(p),
            }
        }
        if view.text(p) == "with_location" && p > 0 && view.text(p - 1) == "." {
            if let Some(k) = owner(p) {
                fns[k].has_with_location = true;
            }
        }
        if view.kind(p) == Some(TokenKind::Ident) && view.text(p + 1) == "(" && view.text(p) != "fn"
        {
            // A call to a function defined in this file (by name; free
            // or method position both count).
            if p > 0 && view.text(p - 1) == "fn" {
                continue; // the definition itself
            }
            let callee_name = view.text(p);
            if let Some(caller) = owner(p) {
                for (k, def) in view.fns.iter().enumerate() {
                    if def.name == callee_name && k != caller {
                        fns[caller].calls.push(k);
                        fns[k].callers.push(caller);
                    }
                }
            }
        }
    }

    // Fixpoint: a function is "located" when it attaches a
    // location itself, or when every one of its (at least one)
    // intra-file callers is located.
    let mut located: Vec<bool> = fns.iter().map(|f| f.has_with_location).collect();
    loop {
        let mut changed = false;
        for k in 0..fns.len() {
            if !located[k]
                && !fns[k].callers.is_empty()
                && fns[k].callers.iter().all(|&c| located[c])
            {
                located[k] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    for ((f, def), is_located) in fns.iter().zip(&view.fns).zip(located) {
        if is_located {
            continue;
        }
        for &p in &f.constructions {
            hits.push(Hit {
                line: view.line(p),
                rule: Rule::LocatedErrors,
                message: format!(
                    "ParseError constructed in `{}` without `.with_location(file, line)` on any \
                     caller path in this file",
                    def.name
                ),
            });
        }
    }
    for p in orphans {
        hits.push(Hit {
            line: view.line(p),
            rule: Rule::LocatedErrors,
            message: "ParseError constructed outside any function without `.with_location(file, \
                      line)`"
                .to_owned(),
        });
    }
}
