//! Parse-error types shared by the textual representations in this crate
//! and by every archive parser above it.

use std::fmt;

/// Error returned when parsing a textual network primitive fails.
///
/// The error records what was being parsed and the offending input, so that
/// callers higher up the stack (archive parsers chewing through millions of
/// lines) can produce actionable diagnostics without re-deriving context.
/// It carries no location: a line helper does not know where its input
/// came from. Archive parsers hand it to [`Quarantine::reject`], which
/// returns it as a [`LocatedError`].
///
/// [`Quarantine::reject`]: crate::Quarantine::reject
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    kind: &'static str,
    input: String,
    detail: String,
}

impl ParseError {
    /// Create a new parse error for `kind` (e.g. `"Ipv4Prefix"`) with the
    /// raw `input` and a human-readable `detail` message.
    pub fn new(kind: &'static str, input: &str, detail: impl Into<String>) -> Self {
        ParseError {
            kind,
            input: input.to_owned(),
            detail: detail.into(),
        }
    }

    /// The type that failed to parse (e.g. `"Asn"`).
    pub fn kind(&self) -> &'static str {
        self.kind
    }

    /// The raw input that failed to parse.
    pub fn input(&self) -> &str {
        &self.input
    }

    /// The human-readable failure detail.
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid {}: {:?} ({})",
            self.kind, self.input, self.detail
        )
    }
}

impl std::error::Error for ParseError {}

/// A [`ParseError`] with the place its input came from: a source-file
/// label and a 1-based line number. A bad byte in a multi-GB feed is
/// reported as `bgp/updates.txt:10482`, not just as the offending token.
///
/// Every archive parser returns this type, and only the ledger it
/// threads builds one ([`Quarantine::reject`], and
/// [`Quarantine::require`] for a strict wrapper). There is no
/// `From<ParseError>`, so a `?` that would pass a line helper's error
/// through without its location does not compile.
///
/// [`Quarantine::reject`]: crate::Quarantine::reject
/// [`Quarantine::require`]: crate::Quarantine::require
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocatedError {
    error: ParseError,
    file: String,
    line: u32,
}

impl LocatedError {
    pub(crate) fn new(error: ParseError, file: &str, line: u32) -> Self {
        LocatedError {
            error,
            file: file.to_owned(),
            line,
        }
    }

    /// The source-file label and the 1-based line number.
    pub fn location(&self) -> (&str, u32) {
        (&self.file, self.line)
    }
}

impl fmt::Display for LocatedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.error)
    }
}

impl std::error::Error for LocatedError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_kind_input_and_detail() {
        let e = ParseError::new("Asn", "ASX", "not a number");
        let s = e.to_string();
        assert!(s.contains("Asn"), "{s}");
        assert!(s.contains("ASX"), "{s}");
        assert!(s.contains("not a number"), "{s}");
    }

    #[test]
    fn accessors_round_trip() {
        let e = ParseError::new("Ipv4Prefix", "1.2.3.4/33", "prefix length > 32");
        assert_eq!(e.kind(), "Ipv4Prefix");
        assert_eq!(e.input(), "1.2.3.4/33");
        assert_eq!(e.detail(), "prefix length > 32");
    }

    #[test]
    fn location_is_attached_once_and_displayed() {
        let e = LocatedError::new(
            ParseError::new("Asn", "ASX", "not a number"),
            "bgp/updates.txt",
            42,
        );
        assert_eq!(e.location(), ("bgp/updates.txt", 42));
        assert_eq!(
            e.to_string(),
            "bgp/updates.txt:42: invalid Asn: \"ASX\" (not a number)"
        );
    }
}
