//! `droplens-bin/1`: the versioned binary sidecar archive container.
//!
//! Every archive the pipeline reads has a canonical line-oriented text
//! form (the reproduction path) and may carry a binary *sidecar* — the
//! same records in length-prefixed little-endian columns, which load
//! without any per-line scanning or per-field UTF-8 parsing. Text stays
//! canonical; binary is the fast path, and a round-trip equivalence
//! test in `droplens-core` proves both paths build byte-identical
//! studies.
//!
//! Container layout (all integers little-endian):
//!
//! ```text
//! magic    15 bytes   "droplens-bin/1\n"
//! kind     u32 len + bytes   e.g. "bgp/updates"
//! payload  columns, as documented by each archive's codec
//! ```
//!
//! This module provides the container plus bounds-checked primitive
//! reads; the per-archive column codecs live next to their text
//! counterparts in each crate's `format` module, and their parsers
//! report damage as a [`LocatedError`](crate::LocatedError) naming the
//! sidecar, as the text parsers do.

use crate::error::ParseError;
use crate::intern::{InternId, StrId, StringInterner};

/// The container magic, including the format version.
pub const MAGIC: &[u8; 15] = b"droplens-bin/1\n";

/// Sentinel id meaning "absent" in optional u32 id columns.
pub const NO_ID: u32 = u32::MAX;

/// Builds a deduplicated, insertion-ordered string table for one sidecar
/// payload. Repeated handles (org ids, maintainers, country codes) are
/// stored once; records refer to them by u32 index.
#[derive(Debug, Default)]
pub struct StrTable {
    interner: StringInterner<StrId>,
}

impl StrTable {
    /// An empty table.
    pub fn new() -> StrTable {
        StrTable::default()
    }

    /// Intern `s`, returning its table index.
    pub fn add(&mut self, s: &str) -> u32 {
        self.interner.intern(s).as_u32()
    }

    /// Serialize the table: `u32 count` then each string length-prefixed,
    /// in insertion order (index order).
    pub fn write(&self, w: &mut BinWriter) {
        w.put_u32(self.interner.len() as u32);
        for (_, s) in self.interner.iter() {
            w.put_str(s);
        }
    }
}

/// Read a [`StrTable`] payload: the strings in index order, borrowed from
/// the archive bytes (zero-copy).
pub fn read_str_table<'a>(r: &mut BinReader<'a>) -> Result<Vec<&'a str>, ParseError> {
    let n = r.count("string table", 4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(r.str("string table entry")?);
    }
    Ok(out)
}

/// Builds one binary sidecar payload.
#[derive(Debug, Default)]
pub struct BinWriter {
    buf: Vec<u8>,
}

impl BinWriter {
    /// Start a sidecar of the given kind (e.g. `"bgp/updates"`).
    pub fn new(kind: &str) -> BinWriter {
        let mut w = BinWriter {
            buf: Vec::with_capacity(64),
        };
        w.buf.extend_from_slice(MAGIC);
        w.put_str(kind);
        w
    }

    /// Append a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i32`.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Finish, returning the payload bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Bounds-checked reader over one binary sidecar.
///
/// Every read returns a located-style [`ParseError`] naming the byte
/// offset on truncation or corruption — binary archives fail loudly,
/// never silently misread.
#[derive(Debug)]
pub struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// Open a sidecar, checking the magic and the expected kind.
    pub fn new(bytes: &'a [u8], expect_kind: &str) -> Result<BinReader<'a>, ParseError> {
        let mut r = BinReader { bytes, pos: 0 };
        let magic = r.take(MAGIC.len(), "magic")?;
        if magic != MAGIC {
            return Err(ParseError::new(
                "BinArchive",
                expect_kind,
                "bad magic: not a droplens-bin/1 archive",
            ));
        }
        let kind = r.str("kind")?;
        if kind != expect_kind {
            return Err(ParseError::new(
                "BinArchive",
                expect_kind,
                format!("kind mismatch: archive says {kind:?}"),
            ));
        }
        Ok(r)
    }

    fn err(&self, what: &str, msg: &str) -> ParseError {
        ParseError::new("BinArchive", &format!("{what} at offset {}", self.pos), msg)
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ParseError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| self.err(what, "truncated archive"))?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Read a `u8`; `what` names the field in error messages.
    pub fn u8(&mut self, what: &str) -> Result<u8, ParseError> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, ParseError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `i32`.
    pub fn i32(&mut self, what: &str) -> Result<i32, ParseError> {
        let b = self.take(4, what)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, ParseError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a length-prefixed byte string.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], ParseError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<&'a str, ParseError> {
        let raw = self.bytes(what)?;
        std::str::from_utf8(raw).map_err(|_| self.err(what, "invalid UTF-8"))
    }

    /// Read an element count and sanity-check it against the bytes that
    /// remain (each element needs at least `min_element_size` bytes), so
    /// a corrupted count cannot provoke a huge allocation.
    pub fn count(&mut self, what: &str, min_element_size: usize) -> Result<usize, ParseError> {
        let n = self.u32(what)? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(min_element_size.max(1)) > remaining {
            return Err(self.err(what, "count exceeds remaining bytes"));
        }
        Ok(n)
    }

    /// True when every payload byte has been consumed.
    pub fn is_done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Require that the payload is fully consumed.
    pub fn expect_done(&self) -> Result<(), ParseError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(self.err("end", "trailing bytes after payload"))
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut w = BinWriter::new("test/kind");
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_i32(-42);
        w.put_u64(1 << 40);
        w.put_str("hello");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.finish();

        let mut r = BinReader::new(&bytes, "test/kind").unwrap();
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.i32("c").unwrap(), -42);
        assert_eq!(r.u64("d").unwrap(), 1 << 40);
        assert_eq!(r.str("e").unwrap(), "hello");
        assert_eq!(r.bytes("f").unwrap(), &[1, 2, 3]);
        assert!(r.is_done());
        r.expect_done().unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let err = BinReader::new(b"not a droplens archive", "x").unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn kind_mismatch_rejected() {
        let bytes = BinWriter::new("bgp/updates").finish();
        let err = BinReader::new(&bytes, "irr/journal").unwrap_err();
        assert!(err.to_string().contains("kind mismatch"), "{err}");
    }

    #[test]
    fn truncation_is_located_by_offset() {
        let mut w = BinWriter::new("t");
        w.put_u32(5);
        let mut bytes = w.finish();
        bytes.truncate(bytes.len() - 2);
        let mut r = BinReader::new(&bytes, "t").unwrap();
        let err = r.u32("n").unwrap_err();
        assert!(err.to_string().contains("offset"), "{err}");
    }

    #[test]
    fn hostile_count_rejected_before_allocation() {
        let mut w = BinWriter::new("t");
        w.put_u32(u32::MAX);
        let bytes = w.finish();
        let mut r = BinReader::new(&bytes, "t").unwrap();
        assert!(r.count("n", 4).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = BinWriter::new("t");
        w.put_u8(1);
        w.put_u8(2);
        let bytes = w.finish();
        let mut r = BinReader::new(&bytes, "t").unwrap();
        r.u8("a").unwrap();
        assert!(r.expect_done().is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = BinWriter::new("t");
        w.put_bytes(&[0xFF, 0xFE]);
        let bytes = w.finish();
        let mut r = BinReader::new(&bytes, "t").unwrap();
        assert!(r.str("s").is_err());
    }
}
