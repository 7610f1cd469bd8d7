//! Field splitting for the line-oriented archive formats.

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

#[cfg(test)]
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
}
