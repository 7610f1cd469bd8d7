//! Textual archive format for BGP updates.
//!
//! Real pipelines consume RouteViews MRT files through `bgpdump -m`, which
//! emits one pipe-separated line per route. Our synthetic archives use the
//! same shape so the analysis exercises genuine line-oriented parsing:
//!
//! ```text
//! BGP4MP|2020-12-01|A|peer3|50509|132.255.0.0/22|50509 34665 263692
//! BGP4MP|2021-01-15|W|peer3|50509|132.255.0.0/22
//! ```
//!
//! Fields: record type, date, `A`nnounce / `W`ithdraw, peer token, peer
//! ASN, prefix, and (for announcements) the AS path.

use droplens_net::{
    into_text, push_date, push_prefix, push_u32, split_fields, Asn, Date, LocatedError, ParseError,
    Quarantine,
};

use crate::{AsPath, BgpEvent, BgpUpdate, Peer, PeerId};

/// Append one update as an archive line (no trailing newline), each
/// field pushed byte by byte: the line its fields' `Display`s would
/// write.
fn push_update_line(out: &mut Vec<u8>, update: &BgpUpdate, peers: &[Peer]) {
    let peer_asn = peers
        .get(update.peer.index())
        .map(|p| p.asn)
        .unwrap_or(Asn(0));
    out.extend_from_slice(b"BGP4MP|");
    push_date(out, update.date);
    out.extend_from_slice(match update.event {
        BgpEvent::Announce(_) => b"|A|peer",
        BgpEvent::Withdraw => b"|W|peer",
    });
    push_u32(out, update.peer.0);
    out.push(b'|');
    push_u32(out, peer_asn.value());
    out.push(b'|');
    push_prefix(out, update.prefix);
    if let BgpEvent::Announce(path) = &update.event {
        out.push(b'|');
        for (i, asn) in path.hops().iter().enumerate() {
            if i > 0 {
                out.push(b' ');
            }
            push_u32(out, asn.value());
        }
    }
}

/// Serialize one update as an archive line.
pub fn write_update_line(update: &BgpUpdate, peers: &[Peer]) -> String {
    let mut out = Vec::new();
    push_update_line(&mut out, update, peers);
    into_text(out)
}

/// Parse one `BGP4MP` update line.
pub fn parse_update_line(line: &str) -> Result<BgpUpdate, ParseError> {
    let (fields, n) = split_fields::<8>(line, b'|');
    if n < 6 {
        return Err(ParseError::new("BgpUpdate", line, "too few fields"));
    }
    if fields[0] != "BGP4MP" {
        return Err(ParseError::new(
            "BgpUpdate",
            line,
            format!("expected BGP4MP record, got {:?}", fields[0]),
        ));
    }
    let date: Date = fields[1].parse()?;
    let peer = parse_peer_token(line, fields[3])?;
    let prefix = fields[5].parse()?;
    match fields[2] {
        "A" => {
            if n < 7 {
                return Err(ParseError::new(
                    "BgpUpdate",
                    line,
                    "announcement missing path",
                ));
            }
            let path: AsPath = fields[6].parse()?;
            Ok(BgpUpdate::announce(date, peer, prefix, path))
        }
        "W" => Ok(BgpUpdate::withdraw(date, peer, prefix)),
        other => Err(ParseError::new(
            "BgpUpdate",
            line,
            format!("unknown event type {other:?}"),
        )),
    }
}

fn parse_peer_token(line: &str, token: &str) -> Result<PeerId, ParseError> {
    let idx = token
        .strip_prefix("peer")
        .and_then(|n| n.parse::<u32>().ok())
        .ok_or_else(|| ParseError::new("BgpUpdate", line, format!("bad peer token {token:?}")))?;
    Ok(PeerId(idx))
}

/// Serialize an entire update stream, one line each, ordered as given.
/// The stream is cut into as many contiguous chunks as
/// [`parse_updates_with`] cuts its text into (four per worker), each
/// formatted into a buffer of its own by [`droplens_par::par_map`], and
/// the buffers are concatenated in order: the text is the same at any
/// worker count.
pub fn write_updates(updates: &[BgpUpdate], peers: &[Peer]) -> String {
    let chunk = updates
        .len()
        .div_ceil(CHUNKS_PER_WORKER * droplens_par::max_threads())
        .max(1);
    let parts: Vec<&[BgpUpdate]> = updates.chunks(chunk).collect();
    let texts = droplens_par::par_map(&parts, |part| {
        // Lines stream into one buffer (~64 bytes each) instead of a
        // String per update.
        let mut out = Vec::with_capacity(part.len() * 64);
        for u in *part {
            push_update_line(&mut out, u, peers);
            out.push(b'\n');
        }
        into_text(out)
    });
    let mut out = String::with_capacity(texts.iter().map(String::len).sum());
    for text in &texts {
        out.push_str(text);
    }
    out
}

/// Parse an update archive produced by [`write_updates`]. Blank lines and
/// `#` comment lines are skipped; any malformed line aborts with an error
/// identifying the file and line.
pub fn parse_updates(text: &str) -> Result<Vec<BgpUpdate>, LocatedError> {
    parse_updates_with(text, &mut Quarantine::strict("bgp/updates.txt"))
}

/// Parse an update archive under the ingestion policy carried by
/// `quarantine`: strict rejects abort; permissive rejects are quarantined
/// and parsing continues on the next line. The text is parsed in four
/// line-aligned chunks per worker (see [`parse_updates_in_chunks`]).
pub fn parse_updates_with(
    text: &str,
    quarantine: &mut Quarantine,
) -> Result<Vec<BgpUpdate>, LocatedError> {
    let chunks = CHUNKS_PER_WORKER * droplens_par::max_threads();
    parse_updates_in_chunks(text, chunks, quarantine)
}

/// Line-aligned chunks the update text is cut into per worker, and the
/// chunks of updates [`write_updates`] formats. More than one, so that a
/// one-worker run takes the same chunked path.
const CHUNKS_PER_WORKER: usize = 4;

/// [`parse_updates_with`] over an explicit number of chunks, each cut just
/// after a newline and parsed by [`droplens_par::par_map`] into a ledger
/// of its own. The records are concatenated and the ledgers absorbed in
/// chunk order, so records, counts, samples and line numbers equal those
/// of one pass over the text, and a strict error is the file's first bad
/// line. The registry's error-sample log, which rejects feed as they
/// happen, is in arrival order; after a strict abort it may also hold,
/// and the counters count, lines of the chunks after the failing one.
pub fn parse_updates_in_chunks(
    text: &str,
    chunks: usize,
    quarantine: &mut Quarantine,
) -> Result<Vec<BgpUpdate>, LocatedError> {
    let mut tspan = droplens_obs::trace::global().span("parse.bgp.updates", "parse");
    tspan.arg_str("file", quarantine.source());
    let parts = line_chunks(text, chunks);
    let newlines = droplens_par::par_map(&parts, |part| count_newlines(part));
    // A chunk's first line is one past the newlines before it.
    let mut first_line = 1;
    let parts: Vec<(&str, usize, usize)> = parts
        .iter()
        .zip(newlines)
        .map(|(&part, n)| {
            let chunk = (part, first_line, n + 1);
            first_line += n;
            chunk
        })
        .collect();
    let ledger = &*quarantine;
    let parsed = droplens_par::par_map(&parts, |&(part, first_line, max_lines)| {
        let mut q = ledger.part();
        let updates = q.counted("bgp.updates", |q| {
            parse_chunk(part, first_line, max_lines, q)
        });
        (q, updates)
    });
    let total = parsed
        .iter()
        .map(|(_, updates)| updates.as_ref().map_or(0, Vec::len))
        .sum();
    let mut out = Vec::with_capacity(total);
    for (q, updates) in parsed {
        quarantine.absorb(q);
        out.extend(updates?);
    }
    tspan.arg_u64("records", out.len() as u64);
    Ok(out)
}

/// Cut `text` into at most `chunks` non-empty parts, each ending just
/// after a newline (the last at the end of the text), so that every
/// line lies whole in one part.
fn line_chunks(text: &str, chunks: usize) -> Vec<&str> {
    let bytes = text.as_bytes();
    let target = text.len().div_ceil(chunks.max(1)).max(1);
    let mut parts = Vec::with_capacity(chunks);
    let mut start = 0;
    while start < text.len() {
        let from = (start + target).min(text.len());
        let end = bytes[from - 1..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(text.len(), |at| from + at);
        // `end` is just past a newline or at the end of the text, so it
        // is a char boundary.
        parts.push(&text[start..end]);
        start = end;
    }
    parts
}

/// The newlines in `text`, counted per 255-byte block: a block's count
/// fits a `u8`, so the compiler compares and adds whole vectors of bytes
/// at once (about four times the speed of one `usize` count).
fn count_newlines(text: &str) -> usize {
    text.as_bytes()
        .chunks(255)
        .map(|block| usize::from(block.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum()
}

/// The line loop over one chunk whose first line is `first_line` of its
/// file and which holds at most `max_lines` lines.
fn parse_chunk(
    text: &str,
    first_line: usize,
    max_lines: usize,
    quarantine: &mut Quarantine,
) -> Result<Vec<BgpUpdate>, LocatedError> {
    let mut out = Vec::with_capacity(max_lines);
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            quarantine.record_skip();
            continue;
        }
        match parse_update_line(line) {
            Ok(u) => {
                quarantine.record_ok();
                out.push(u);
            }
            Err(e) => {
                let lineno = (first_line + idx) as u32;
                quarantine.reject("bgp.updates", lineno, e)?;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    fn peers() -> Vec<Peer> {
        vec![
            Peer::new(PeerId(0), Asn(3356), "rv2/AS3356"),
            Peer::new(PeerId(1), Asn(7018), "rv2/AS7018"),
        ]
    }

    fn d(s: &str) -> Date {
        s.parse().unwrap()
    }

    #[test]
    fn announce_round_trip() {
        let u = BgpUpdate::announce(
            d("2020-12-01"),
            PeerId(1),
            "132.255.0.0/22".parse().unwrap(),
            "7018 50509 34665 263692".parse().unwrap(),
        );
        let line = write_update_line(&u, &peers());
        assert_eq!(
            line,
            "BGP4MP|2020-12-01|A|peer1|7018|132.255.0.0/22|7018 50509 34665 263692"
        );
        assert_eq!(parse_update_line(&line).unwrap(), u);
    }

    #[test]
    fn withdraw_round_trip() {
        let u = BgpUpdate::withdraw(d("2021-01-15"), PeerId(0), "10.0.0.0/8".parse().unwrap());
        let line = write_update_line(&u, &peers());
        assert_eq!(line, "BGP4MP|2021-01-15|W|peer0|3356|10.0.0.0/8");
        assert_eq!(parse_update_line(&line).unwrap(), u);
    }

    #[test]
    fn stream_round_trip_with_comments() {
        let updates = vec![
            BgpUpdate::announce(
                d("2020-01-01"),
                PeerId(0),
                "10.0.0.0/8".parse().unwrap(),
                "3356 64500".parse().unwrap(),
            ),
            BgpUpdate::withdraw(d("2020-02-01"), PeerId(0), "10.0.0.0/8".parse().unwrap()),
        ];
        let mut text = String::from("# synthetic archive\n\n");
        text.push_str(&write_updates(&updates, &peers()));
        assert_eq!(parse_updates(&text).unwrap(), updates);
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(parse_update_line("BOGUS|2020-01-01|A|peer0|1|10.0.0.0/8|1").is_err());
        assert!(parse_update_line("BGP4MP|2020-01-01|X|peer0|1|10.0.0.0/8|1").is_err());
        assert!(parse_update_line("BGP4MP|2020-01-01|A|peer0|1|10.0.0.0/8").is_err());
        assert!(parse_update_line("BGP4MP|2020-01-01|A|nope|1|10.0.0.0/8|1").is_err());
        assert!(parse_update_line("BGP4MP|2020-99-01|A|peer0|1|10.0.0.0/8|1").is_err());
        assert!(parse_update_line("BGP4MP|2020-01-01").is_err());
    }

    #[test]
    fn permissive_quarantines_and_locates_bad_lines() {
        let text = "BGP4MP|2020-01-01|A|peer0|1|10.0.0.0/8|1\nGARBAGE\nBGP4MP|2020-01-02|W|peer0|1|10.0.0.0/8\n";
        // Strict: aborts, reporting the file and line.
        let err = parse_updates(text).unwrap_err();
        assert_eq!(err.location(), ("bgp/updates.txt", 2));
        // Permissive: the bad line is quarantined, the rest parse.
        let mut q = Quarantine::permissive("bgp/updates.txt");
        let updates = parse_updates_with(text, &mut q).unwrap();
        assert_eq!(updates.len(), 2);
        assert_eq!(q.quarantined, 1);
        assert_eq!(q.samples[0].location(), ("bgp/updates.txt", 2));
    }

    #[test]
    fn newline_count_spans_blocks() {
        // Whole blocks of newlines, and counts that straddle a block end.
        for n in [0, 1, 254, 255, 256, 1000] {
            assert_eq!(count_newlines(&"\n".repeat(n)), n);
            assert_eq!(count_newlines(&"ab\r\n".repeat(n)), n);
        }
    }

    #[test]
    fn unknown_peer_serializes_as_as0() {
        let u = BgpUpdate::withdraw(d("2021-01-15"), PeerId(9), "10.0.0.0/8".parse().unwrap());
        let line = write_update_line(&u, &peers());
        assert!(line.contains("|peer9|0|"));
    }
}
