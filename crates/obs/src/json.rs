//! Minimal hand-rolled JSON writing and reading, matching the repo's
//! no-external-dependency idiom.
//!
//! Writing covers what run reports and trace exports need: objects with
//! string keys, string/number values, nested objects, object arrays, and
//! string arrays. Keys are emitted in the order fields are added —
//! reports add them from `BTreeMap`s, so the output is byte-stable for a
//! given set of metrics. Reading ([`parse`]) is a small recursive-descent
//! parser over the same subset (plus bools/null for robustness), enough
//! for `droplens slo check` to load a load report and `droplens top` to
//! read a telemetry snapshot.

use std::fmt::Write as _;

/// Escape `s` as the body of a JSON string literal (no quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// An in-progress JSON object.
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
}

impl JsonObject {
    /// Start an empty object.
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    fn key(&mut self, k: &str) -> &mut String {
        self.buf.push(if self.buf.is_empty() { '{' } else { ',' });
        let _ = write!(self.buf, "\"{}\":", escape(k));
        &mut self.buf
    }

    /// Add an unsigned integer field.
    pub fn field_u64(&mut self, k: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a signed integer field.
    pub fn field_i64(&mut self, k: &str, v: i64) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    /// Add a float field, formatted with Rust's shortest-roundtrip
    /// `Display` (stable across platforms; `1.0` renders as `1`).
    /// Non-finite values have no JSON representation and render `null`.
    pub fn field_f64(&mut self, k: &str, v: f64) -> &mut Self {
        let buf = self.key(k);
        if v.is_finite() {
            let _ = write!(buf, "{v}");
        } else {
            buf.push_str("null");
        }
        self
    }

    /// Add a string field.
    pub fn field_str(&mut self, k: &str, v: &str) -> &mut Self {
        let _ = write!(self.key(k), "\"{}\"", escape(v));
        self
    }

    /// Add a nested object field.
    pub fn field_object(&mut self, k: &str, v: JsonObject) -> &mut Self {
        let rendered = v.finish();
        self.key(k).push_str(&rendered);
        self
    }

    /// Add an array-of-objects field (trace exporters emit one object
    /// per event).
    pub fn field_object_array(&mut self, k: &str, items: Vec<JsonObject>) -> &mut Self {
        let mut rendered = String::new();
        rendered.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                rendered.push(',');
            }
            rendered.push_str(&item.finish());
        }
        rendered.push(']');
        self.key(k).push_str(&rendered);
        self
    }

    /// Add a string-array field.
    pub fn field_str_array(&mut self, k: &str, items: &[String]) -> &mut Self {
        let buf = self.key(k);
        buf.push('[');
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            let _ = write!(buf, "\"{}\"", escape(item));
        }
        buf.push(']');
        self
    }

    /// Render the object.
    pub fn finish(self) -> String {
        if self.buf.is_empty() {
            "{}".to_owned()
        } else {
            let mut buf = self.buf;
            buf.push('}');
            buf
        }
    }
}

/// A parsed JSON value (the subset this crate writes, plus bool/null).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (span totals up to 2^53 round-trip exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in document order (duplicate keys keep the last).
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects (`None` elsewhere or when absent).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array's items, or an empty slice.
    pub fn items(&self) -> &[Value] {
        match self {
            Value::Array(items) => items,
            _ => &[],
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value as u64 (negative / fractional → `None`).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// Numeric value as i64.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n)
                if n.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(n) =>
            {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a JSON document. Errors carry the byte offset where parsing
/// failed.
pub fn parse(text: &str) -> Result<Value, ParseJsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data"));
    }
    Ok(v)
}

/// A JSON parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    /// What was expected or found.
    pub message: &'static str,
    /// Byte offset into the document.
    pub offset: usize,
}

impl std::fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseJsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> ParseJsonError {
        ParseJsonError {
            message,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8, message: &'static str) -> Result<(), ParseJsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseJsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("unknown literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseJsonError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseJsonError> {
        self.eat(b'{', "expected '{'")?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseJsonError> {
        self.eat(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseJsonError> {
        self.eat(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs don't occur in our own
                            // output (we only \u-escape control chars);
                            // map lone surrogates to the replacement
                            // character rather than failing the document.
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-sync to char boundaries for multi-byte UTF-8.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseJsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn objects_nest() {
        let mut inner = JsonObject::new();
        inner.field_u64("n", 3);
        let mut outer = JsonObject::new();
        outer
            .field_str("name", "x")
            .field_i64("delta", -2)
            .field_object("inner", inner)
            .field_str_array("tags", &["a".into(), "b\"c".into()]);
        assert_eq!(
            outer.finish(),
            r#"{"name":"x","delta":-2,"inner":{"n":3},"tags":["a","b\"c"]}"#
        );
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn f64_fields_are_shortest_roundtrip() {
        let mut o = JsonObject::new();
        o.field_f64("a", 0.1)
            .field_f64("b", 1.0)
            .field_f64("c", 1234.5678)
            .field_f64("nan", f64::NAN);
        assert_eq!(o.finish(), r#"{"a":0.1,"b":1,"c":1234.5678,"nan":null}"#);
    }

    #[test]
    fn object_arrays() {
        let mut a = JsonObject::new();
        a.field_u64("n", 1);
        let mut b = JsonObject::new();
        b.field_str("s", "x");
        let mut o = JsonObject::new();
        o.field_object_array("items", vec![a, b])
            .field_object_array("empty", Vec::new());
        assert_eq!(o.finish(), r#"{"items":[{"n":1},{"s":"x"}],"empty":[]}"#);
    }

    #[test]
    fn parse_round_trips_written_documents() {
        let mut inner = JsonObject::new();
        inner.field_u64("count", 3).field_f64("rate", 0.25);
        let mut doc = JsonObject::new();
        doc.field_str("name", "x\n\"q\"")
            .field_i64("delta", -2)
            .field_object("inner", inner)
            .field_str_array("tags", &["a".into(), "b\\c".into()]);
        let text = doc.finish();
        let v = parse(&text).expect("parses");
        assert_eq!(v.get("name").and_then(Value::as_str), Some("x\n\"q\""));
        assert_eq!(v.get("delta").and_then(Value::as_i64), Some(-2));
        assert_eq!(
            v.get("inner")
                .and_then(|i| i.get("count"))
                .and_then(Value::as_u64),
            Some(3)
        );
        assert_eq!(
            v.get("inner")
                .and_then(|i| i.get("rate"))
                .and_then(Value::as_f64),
            Some(0.25)
        );
        match v.get("tags") {
            Some(Value::Array(items)) => {
                assert_eq!(items[1], Value::Str("b\\c".into()));
            }
            other => panic!("tags: {other:?}"),
        }
    }

    #[test]
    fn parse_handles_literals_whitespace_and_unicode() {
        let v = parse(" { \"a\" : [ true , false , null , -1.5e2 ] , \"é\" : \"☃\" } ").unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Value::Array(vec![
                Value::Bool(true),
                Value::Bool(false),
                Value::Null,
                Value::Num(-150.0),
            ]))
        );
        assert_eq!(v.get("é").and_then(Value::as_str), Some("☃"));
        assert_eq!(parse("\"\\u0041\"").unwrap(), Value::Str("A".into()));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "\"open",
            "{\"a\":1} extra",
            "tru",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.to_string().contains("invalid JSON"), "{bad}: {err}");
        }
    }

    #[test]
    fn u64_precision_holds_for_span_totals() {
        // Largest span total we realistically store: hours in ns — well
        // under 2^53, so f64 round-trips exactly.
        let ns: u64 = 3_600_000_000_000 * 24;
        let text = format!("{{\"t\":{ns}}}");
        assert_eq!(
            parse(&text).unwrap().get("t").and_then(Value::as_u64),
            Some(ns)
        );
    }
}
