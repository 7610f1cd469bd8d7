//! Field splitting and byte-level field formatting for the
//! line-oriented archive formats.
//!
//! The `push_*` helpers append a field's text to a line buffer digit by
//! digit, without going through `fmt::Write` and the `Display`
//! machinery; each writes exactly what its type's `Display` writes.

use crate::{Date, Ipv4Prefix};

/// Split `line` at every `sep` byte into up to `N` fields without heap
/// allocation, returning the filled array and the total field count. The
/// count may exceed `N`; the fields past `N` are dropped (no archive
/// format indexes past its `N`). For an ASCII `sep`, the fields and the
/// count are those of `line.split(char::from(sep))`.
///
/// The scan compares bytes instead of decoding chars. An ASCII byte
/// never occurs inside a multi-byte UTF-8 character, so every cut falls
/// on a char boundary. A non-ASCII `sep` matches nothing: the whole line
/// is one field.
pub fn split_fields<const N: usize>(line: &str, sep: u8) -> ([&str; N], usize) {
    let mut fields = [""; N];
    let mut n = 0;
    let mut start = 0;
    if sep.is_ascii() {
        for (at, &byte) in line.as_bytes().iter().enumerate() {
            if byte == sep {
                if let Some(field) = fields.get_mut(n) {
                    *field = &line[start..at];
                }
                n += 1;
                start = at + 1;
            }
        }
    }
    if let Some(field) = fields.get_mut(n) {
        *field = &line[start..];
    }
    (fields, n + 1)
}

/// Append `n` in decimal, as `n.to_string()` writes it.
pub fn push_u32(out: &mut Vec<u8>, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `prefix` in its `Display` form: dotted quad, `/`, length.
pub fn push_prefix(out: &mut Vec<u8>, prefix: Ipv4Prefix) {
    for (i, octet) in prefix.network().octets().into_iter().enumerate() {
        if i > 0 {
            out.push(b'.');
        }
        push_u32(out, u32::from(octet));
    }
    out.push(b'/');
    push_u32(out, u32::from(prefix.len()));
}

/// Append `date` in its `Display` form, `YYYY-MM-DD`. Years outside
/// 0..=9999 (never in an archive) go through `Display` itself.
pub fn push_date(out: &mut Vec<u8>, date: Date) {
    let (y, m, d) = date.ymd();
    let year = match u32::try_from(y) {
        Ok(year) if year <= 9999 => year,
        _ => return out.extend_from_slice(date.to_string().as_bytes()),
    };
    let digit = |n: u32| b'0' + (n % 10) as u8;
    out.extend_from_slice(&[
        digit(year / 1000),
        digit(year / 100),
        digit(year / 10),
        digit(year),
        b'-',
        digit(m / 10),
        digit(m),
        b'-',
        digit(d / 10),
        digit(d),
    ]);
}

/// The text of a buffer filled by the `push_*` helpers and string
/// literals, without copying it. Bytes that are not UTF-8, which no
/// writer makes, would be replaced as `String::from_utf8_lossy` does.
pub fn into_text(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes)
        .unwrap_or_else(|err| String::from_utf8_lossy(err.as_bytes()).into_owned())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // test code: panics are failures
mod tests {
    use super::*;

    #[test]
    fn splits_like_str_split_and_counts_dropped_fields() {
        assert_eq!(split_fields::<3>("a|b|c", b'|'), (["a", "b", "c"], 3));
        assert_eq!(split_fields::<2>("a||c|", b'|'), (["a", ""], 4));
        assert_eq!(split_fields::<4>("", b','), (["", "", "", ""], 1));
        assert_eq!(split_fields::<2>("é,ü", b','), (["é", "ü"], 2));
        // A non-ASCII byte is never a separator.
        assert_eq!(split_fields::<2>("aÃb", 0xC3), (["aÃb", ""], 1));
    }

    #[test]
    fn pushers_write_what_display_writes() {
        let mut out = Vec::new();
        for n in [0, 7, 10, 65_535, u32::MAX] {
            out.clear();
            push_u32(&mut out, n);
            assert_eq!(out, n.to_string().as_bytes());
        }
        for text in ["0.0.0.0/0", "132.255.0.0/22", "255.255.255.255/32"] {
            let prefix: Ipv4Prefix = text.parse().unwrap();
            out.clear();
            push_prefix(&mut out, prefix);
            assert_eq!(out, text.as_bytes());
        }
        // From year -1 to year 10000, where `Display` takes over.
        for days in [-719_893, -1, 0, 18_600, 2_932_896, 2_932_897] {
            let date = Date::from_days_since_epoch(days);
            out.clear();
            push_date(&mut out, date);
            assert_eq!(into_text(out.clone()), date.to_string(), "day {days}");
        }
    }

    #[test]
    fn into_text_keeps_utf8_and_replaces_the_rest() {
        assert_eq!(into_text("é|1".as_bytes().to_vec()), "é|1");
        assert_eq!(into_text(vec![b'a', 0xff]), "a\u{fffd}");
    }
}
