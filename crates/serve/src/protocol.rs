//! The `droplens-serve/2` wire protocol: length-prefixed binary frames
//! with a versioned, self-checking header.
//!
//! ```text
//! +----+----+---------+------+------------+--------------+--------------+-----------------+
//! | 'D'| 'L'| version | kind | len u32 LE | check u32 LE | head u32 LE  | payload (len B) |
//! +----+----+---------+------+------------+--------------+--------------+-----------------+
//! ```
//!
//! `check` is an FNV-1a digest over version, kind, the length bytes,
//! and the payload: a single flipped bit anywhere past the magic fails
//! the frame with a located error instead of silently changing an
//! answer, which is what lets the client treat *any* corruption in
//! transit as retryable. (TCP's own checksum is too weak a guarantee
//! once a deliberately hostile or fault-injecting middlebox — like the
//! chaos proxy in `droplens-faults` — sits on the path.)
//!
//! `head` is an FNV-1a digest over every header byte after the magic
//! (version, kind, len and check), verified before any payload byte is
//! read or allocated. A flipped bit that inflates `len` while staying
//! under [`MAX_PAYLOAD`] therefore fails at once as a located error,
//! instead of leaving the reader waiting out its deadline for payload
//! bytes that never come.
//!
//! Request kinds live in `0x01..=0x3f`, reply kinds in `0x81..=0xbf`,
//! control replies (`Busy`, `Error`) in `0xf0..=0xff` — a frame can
//! never be mistaken for the other direction. Payloads are
//! little-endian scalars and `u32`-length-prefixed UTF-8 strings;
//! prefixes and dates travel in their canonical text forms so decoding
//! reuses the same validated `FromStr` parsers the archive loaders use.
//!
//! Decoding never panics. Every malformed byte — bad magic, unknown
//! version or kind, a length over [`MAX_PAYLOAD`], a payload that ends
//! mid-field or carries trailing bytes — surfaces as a located
//! [`FrameError`] naming the frame being decoded and the byte offset
//! the decoder stopped at. Transport failures (timeouts, resets, torn
//! reads) stay separate as [`WireError::Io`], which is what the client
//! keys its retry decisions on.

use std::fmt;
use std::io::{Read, Write};

use droplens_net::{Asn, Date, Ipv4Prefix};

/// First two bytes of every frame.
pub const MAGIC: [u8; 2] = *b"DL";
/// Protocol version carried in byte 2 of the header.
pub const VERSION: u8 = 2;
/// Hard cap on payload length; a header announcing more is malformed
/// (adversarial lengths must not drive allocation).
pub const MAX_PAYLOAD: u32 = 1 << 20;
/// Bytes in the fixed frame header.
pub const HEADER_LEN: usize = 16;

/// FNV-1a over `bytes`.
fn fnv1a<'b>(bytes: impl IntoIterator<Item = &'b u8>) -> u32 {
    bytes.into_iter().fold(0x811c_9dc5, |h: u32, &b| {
        (h ^ u32::from(b)).wrapping_mul(0x0100_0193)
    })
}

/// The `check` digest: version, kind, the length bytes and the payload.
fn checksum(version: u8, kind: u8, payload: &[u8]) -> u32 {
    let len = (payload.len() as u32).to_le_bytes();
    fnv1a([version, kind].iter().chain(&len).chain(payload))
}

/// The `head` digest: every header byte after the magic.
fn header_digest(version: u8, kind: u8, len: [u8; 4], check: [u8; 4]) -> u32 {
    fnv1a([version, kind].iter().chain(&len).chain(&check))
}

/// A located decoding error: which frame, where in it, and what was
/// wrong. The service-side quarantine ledger samples these verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameError {
    /// What was being decoded (`"header"`, `"Visibility request"`, ...).
    pub frame: String,
    /// Byte offset into the frame (header) or payload (body) where
    /// decoding stopped.
    pub offset: usize,
    /// What was wrong.
    pub detail: String,
}

impl FrameError {
    fn new(frame: impl Into<String>, offset: usize, detail: impl Into<String>) -> FrameError {
        FrameError {
            frame: frame.into(),
            offset,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "malformed {} at byte {}: {}",
            self.frame, self.offset, self.detail
        )
    }
}

impl std::error::Error for FrameError {}

/// Anything that can go wrong reading or writing a frame.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure: timeout, reset, torn read mid-frame.
    Io(std::io::Error),
    /// The bytes arrived but do not decode.
    Frame(FrameError),
}

impl WireError {
    /// True when the IO error is a read/write deadline expiring (the
    /// two kinds `std::net` uses for socket timeouts).
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport: {e}"),
            WireError::Frame(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> WireError {
        WireError::Frame(e)
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

/// One query. Everything the engine can answer about the study.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Reply::Pong`].
    Ping,
    /// Was `prefix` (or any covering/covered prefix) visible on `date`,
    /// and by how many peers?
    Visibility {
        /// The prefix asked about.
        prefix: Ipv4Prefix,
        /// The observation day.
        date: Date,
    },
    /// RFC 6811 route origin validation of one announcement.
    Rov {
        /// The announced prefix.
        prefix: Ipv4Prefix,
        /// The origin ASN of the announcement.
        origin: Asn,
        /// The validation day.
        date: Date,
        /// Validate against all five TALs instead of the production set.
        all_tals: bool,
    },
    /// Was `prefix` on the DROP list on `date`?
    DropListed {
        /// The prefix asked about.
        prefix: Ipv4Prefix,
        /// The membership day.
        date: Date,
    },
    /// Every listing episode of `prefix`, in listing order.
    DropHistory {
        /// The prefix asked about.
        prefix: Ipv4Prefix,
    },
    /// The paper-vs-measured scorecard, optionally sliced to the
    /// targets whose source column contains `source`.
    Scorecard {
        /// Substring filter over the scorecard's source column
        /// (`"fig2"`, `"Table 1"`, ...); `None` is the full scorecard.
        source: Option<String>,
    },
    /// Health: study facts plus the server's live obs counters.
    Stats,
    /// Live telemetry: the server's windowed metrics snapshot
    /// (per-kind q/s and latency quantiles, queue depth, shed counts,
    /// slow-query ledger) as one stable JSON document.
    Metrics,
}

/// Stable per-kind labels, in [`Request::kind_index`] order. The
/// telemetry plane, the load generator's per-kind report, and the SLO
/// spec all key on these names.
pub const KIND_LABELS: [&str; 8] = [
    "ping",
    "visibility",
    "rov",
    "drop_listed",
    "drop_history",
    "scorecard",
    "stats",
    "metrics",
];

/// One answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Answer to [`Request::Ping`].
    Pong,
    /// Answer to [`Request::Visibility`].
    Visibility {
        /// True when the routed predicate held on the day.
        routed: bool,
        /// Peers observing the exact prefix that day.
        observing: u32,
        /// Total collector peers.
        total: u32,
        /// `observing / total` (bit-exact f64, transported as bits).
        fraction: f64,
    },
    /// Answer to [`Request::Rov`].
    Rov {
        /// 0 = Valid, 1 = Invalid, 2 = NotFound.
        outcome: u8,
        /// Rendered ROAs covering the prefix on the day.
        covering: Vec<String>,
    },
    /// Answer to [`Request::DropListed`].
    DropListed {
        /// True when the prefix was on the list that day.
        listed: bool,
    },
    /// Answer to [`Request::DropHistory`].
    DropHistory {
        /// The listing episodes.
        episodes: Vec<Episode>,
    },
    /// Answer to [`Request::Scorecard`]: the rendered table, byte-equal
    /// to the offline `droplens scorecard` rendering for the full set.
    Scorecard {
        /// The rendered scorecard slice.
        text: String,
    },
    /// Answer to [`Request::Stats`]: sorted `name → value` pairs.
    Stats {
        /// The counter pairs, sorted by name.
        pairs: Vec<(String, u64)>,
    },
    /// Answer to [`Request::Metrics`]: the live telemetry snapshot.
    Metrics {
        /// A stable `droplens-metrics/1` JSON document (see
        /// `droplens_serve::telemetry`).
        json: String,
    },
    /// Typed overload shedding: the work queue is full or the server is
    /// draining. Retry later; nothing was processed.
    Busy,
    /// The server could not act on the frame it read (malformed request,
    /// usually corruption in transit). The connection closes after this.
    Error {
        /// What was wrong, located.
        message: String,
    },
}

/// One DROP listing episode on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Episode {
    /// First snapshot day the prefix appeared.
    pub added: Date,
    /// First snapshot day it was gone again, if it was removed.
    pub removed: Option<Date>,
    /// SBL record reference, if the list carried one.
    pub sbl: Option<String>,
}

// Frame kinds. Requests 0x01..=0x3f, replies 0x81..=0xbf, control
// 0xf0..=0xff.
const K_PING: u8 = 0x01;
const K_VISIBILITY: u8 = 0x02;
const K_ROV: u8 = 0x03;
const K_DROP_LISTED: u8 = 0x04;
const K_DROP_HISTORY: u8 = 0x05;
const K_SCORECARD: u8 = 0x06;
const K_STATS: u8 = 0x07;
const K_METRICS: u8 = 0x08;
const K_R_PONG: u8 = 0x81;
const K_R_VISIBILITY: u8 = 0x82;
const K_R_ROV: u8 = 0x83;
const K_R_DROP_LISTED: u8 = 0x84;
const K_R_DROP_HISTORY: u8 = 0x85;
const K_R_SCORECARD: u8 = 0x86;
const K_R_STATS: u8 = 0x87;
const K_R_METRICS: u8 = 0x88;
const K_R_BUSY: u8 = 0xf0;
const K_R_ERROR: u8 = 0xf1;

/// Payload encoder: little-endian scalars, length-prefixed strings.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            None => self.u8(0),
            Some(s) => {
                self.u8(1);
                self.str(s);
            }
        }
    }
}

/// Payload decoder: tracks the byte offset so every failure is located.
struct Dec<'a> {
    frame: &'static str,
    buf: &'a [u8],
    at: usize,
}

impl<'a> Dec<'a> {
    fn new(frame: &'static str, buf: &'a [u8]) -> Dec<'a> {
        Dec { frame, buf, at: 0 }
    }

    fn err(&self, detail: impl Into<String>) -> FrameError {
        FrameError::new(self.frame, self.at, detail)
    }

    /// The next `n` bytes. `n` often comes from the client (a string
    /// length), so the end is computed checked and the slice taken with
    /// `get`: an oversized or overflowing length is a located error.
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let buf = self.buf;
        let Some(out) = self.at.checked_add(n).and_then(|end| buf.get(self.at..end)) else {
            return Err(self.err(format!(
                "payload ends after {} of {n} expected bytes",
                buf.len().saturating_sub(self.at)
            )));
        };
        self.at += n;
        Ok(out)
    }

    /// The next `N` bytes as an array, for the fixed-width scalars.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let b = self.take(N)?;
        b.try_into()
            .map_err(|_| self.err(format!("expected a {N}-byte field")))
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        let [b] = self.array()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn bool(&mut self) -> Result<bool, FrameError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            n => Err(self.err(format!("bool byte must be 0 or 1, got {n}"))),
        }
    }

    fn str(&mut self) -> Result<String, FrameError> {
        let len = self.u32()? as usize;
        if len > MAX_PAYLOAD as usize {
            return Err(self.err(format!("string length {len} exceeds {MAX_PAYLOAD}")));
        }
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| self.err(format!("string is not UTF-8: {e}")))
    }

    fn opt_str(&mut self) -> Result<Option<String>, FrameError> {
        if self.bool()? {
            Ok(Some(self.str()?))
        } else {
            Ok(None)
        }
    }

    /// Parse a decoded string field through `FromStr`, locating the
    /// failure at the field's start.
    fn parse<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, FrameError>
    where
        T::Err: fmt::Display,
    {
        let at = self.at;
        let s = self.str()?;
        s.parse().map_err(|e: T::Err| FrameError {
            frame: self.frame.to_owned(),
            offset: at,
            detail: format!("bad {what} {s:?}: {e}"),
        })
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.at != self.buf.len() {
            let n = self.buf.len() - self.at;
            return Err(self.err(format!(
                "{n} trailing byte{}",
                if n == 1 { "" } else { "s" }
            )));
        }
        Ok(())
    }
}

/// Assemble a full frame: header (with checksum) plus payload. Public
/// so tests can build arbitrary — including adversarial but correctly
/// checksummed — frames.
pub fn seal_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    let len = (payload.len() as u32).to_le_bytes();
    let check = checksum(VERSION, kind, payload).to_le_bytes();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&len);
    out.extend_from_slice(&check);
    out.extend_from_slice(&header_digest(VERSION, kind, len, check).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Read one frame. `Ok(None)` is a clean EOF — the peer closed between
/// frames, which is the normal end of a connection. EOF *inside* a
/// frame is a torn read and surfaces as [`WireError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, WireError> {
    // First byte by hand so "closed before any byte" is distinguishable
    // from "died mid-header".
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    // Destructured rather than indexed: irrefutable array patterns
    // cannot panic, and the crate denies `clippy::indexing_slicing`.
    let mut rest = [0u8; HEADER_LEN - 1];
    r.read_exact(&mut rest).map_err(WireError::Io)?;
    let [b0] = first;
    let [b1, version, kind, l0, l1, l2, l3, c0, c1, c2, c3, h0, h1, h2, h3] = rest;
    if [b0, b1] != MAGIC {
        return Err(FrameError::new("header", 0, format!("bad magic {b0:02x}{b1:02x}")).into());
    }
    if version != VERSION {
        return Err(FrameError::new(
            "header",
            2,
            format!("unsupported version {version} (speak {VERSION})"),
        )
        .into());
    }
    let (len_bytes, check_bytes) = ([l0, l1, l2, l3], [c0, c1, c2, c3]);
    let len = u32::from_le_bytes(len_bytes);
    let declared = u32::from_le_bytes(check_bytes);
    if len > MAX_PAYLOAD {
        return Err(FrameError::new(
            "header",
            4,
            format!("payload length {len} exceeds the {MAX_PAYLOAD}-byte cap"),
        )
        .into());
    }
    // Only a header that checks out may size the payload read.
    let head = u32::from_le_bytes([h0, h1, h2, h3]);
    let head_computed = header_digest(version, kind, len_bytes, check_bytes);
    if head_computed != head {
        return Err(FrameError::new(
            "header",
            12,
            format!(
                "header checksum mismatch: frame says {head:08x}, header hashes to {head_computed:08x}"
            ),
        )
        .into());
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(WireError::Io)?;
    let computed = checksum(VERSION, kind, &payload);
    if computed != declared {
        return Err(FrameError::new(
            "header",
            8,
            format!(
                "checksum mismatch: frame says {declared:08x}, payload hashes to {computed:08x}"
            ),
        )
        .into());
    }
    Ok(Some((kind, payload)))
}

impl Request {
    /// Encode into a full frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut e = Enc::default();
        let kind = match self {
            Request::Ping => K_PING,
            Request::Visibility { prefix, date } => {
                e.str(&prefix.to_string());
                e.str(&date.to_string());
                K_VISIBILITY
            }
            Request::Rov {
                prefix,
                origin,
                date,
                all_tals,
            } => {
                e.str(&prefix.to_string());
                e.u32(origin.value());
                e.str(&date.to_string());
                e.u8(u8::from(*all_tals));
                K_ROV
            }
            Request::DropListed { prefix, date } => {
                e.str(&prefix.to_string());
                e.str(&date.to_string());
                K_DROP_LISTED
            }
            Request::DropHistory { prefix } => {
                e.str(&prefix.to_string());
                K_DROP_HISTORY
            }
            Request::Scorecard { source } => {
                e.opt_str(source.as_deref());
                K_SCORECARD
            }
            Request::Stats => K_STATS,
            Request::Metrics => K_METRICS,
        };
        seal_frame(kind, &e.buf)
    }

    /// Write the frame in one `write_all` (a reply or request is never
    /// split across writes, so a drain can only cut *between* frames).
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        w.write_all(&self.to_frame()).map_err(WireError::Io)
    }

    /// Decode one request payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Request, FrameError> {
        match kind {
            K_PING => {
                Dec::new("Ping request", payload).finish()?;
                Ok(Request::Ping)
            }
            K_VISIBILITY => {
                let mut d = Dec::new("Visibility request", payload);
                let prefix = d.parse("prefix")?;
                let date = d.parse("date")?;
                d.finish()?;
                Ok(Request::Visibility { prefix, date })
            }
            K_ROV => {
                let mut d = Dec::new("Rov request", payload);
                let prefix = d.parse("prefix")?;
                let origin = Asn(d.u32()?);
                let date = d.parse("date")?;
                let all_tals = d.bool()?;
                d.finish()?;
                Ok(Request::Rov {
                    prefix,
                    origin,
                    date,
                    all_tals,
                })
            }
            K_DROP_LISTED => {
                let mut d = Dec::new("DropListed request", payload);
                let prefix = d.parse("prefix")?;
                let date = d.parse("date")?;
                d.finish()?;
                Ok(Request::DropListed { prefix, date })
            }
            K_DROP_HISTORY => {
                let mut d = Dec::new("DropHistory request", payload);
                let prefix = d.parse("prefix")?;
                d.finish()?;
                Ok(Request::DropHistory { prefix })
            }
            K_SCORECARD => {
                let mut d = Dec::new("Scorecard request", payload);
                let source = d.opt_str()?;
                d.finish()?;
                Ok(Request::Scorecard { source })
            }
            K_STATS => {
                Dec::new("Stats request", payload).finish()?;
                Ok(Request::Stats)
            }
            K_METRICS => {
                Dec::new("Metrics request", payload).finish()?;
                Ok(Request::Metrics)
            }
            other => Err(FrameError::new(
                "header",
                3,
                format!("unknown request kind 0x{other:02x}"),
            )),
        }
    }

    /// Read one request. `Ok(None)` is a clean EOF between frames.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Request>, WireError> {
        match read_frame(r)? {
            None => Ok(None),
            Some((kind, payload)) => Ok(Some(Request::decode(kind, &payload)?)),
        }
    }

    /// Stable label for counters and latency histograms; always
    /// `KIND_LABELS[self.kind_index()]`.
    #[allow(clippy::indexing_slicing)] // kind_index() < KIND_LABELS.len(): both list the 8 kinds
    pub fn label(&self) -> &'static str {
        KIND_LABELS[self.kind_index()]
    }

    /// Dense index of this request's kind into [`KIND_LABELS`], used
    /// by per-kind telemetry arrays.
    pub fn kind_index(&self) -> usize {
        match self {
            Request::Ping => 0,
            Request::Visibility { .. } => 1,
            Request::Rov { .. } => 2,
            Request::DropListed { .. } => 3,
            Request::DropHistory { .. } => 4,
            Request::Scorecard { .. } => 5,
            Request::Stats => 6,
            Request::Metrics => 7,
        }
    }
}

impl Reply {
    /// Encode into a full frame.
    pub fn to_frame(&self) -> Vec<u8> {
        let mut e = Enc::default();
        let kind = match self {
            Reply::Pong => K_R_PONG,
            Reply::Visibility {
                routed,
                observing,
                total,
                fraction,
            } => {
                e.u8(u8::from(*routed));
                e.u32(*observing);
                e.u32(*total);
                e.u64(fraction.to_bits());
                K_R_VISIBILITY
            }
            Reply::Rov { outcome, covering } => {
                e.u8(*outcome);
                e.u16(covering.len() as u16);
                for roa in covering {
                    e.str(roa);
                }
                K_R_ROV
            }
            Reply::DropListed { listed } => {
                e.u8(u8::from(*listed));
                K_R_DROP_LISTED
            }
            Reply::DropHistory { episodes } => {
                e.u16(episodes.len() as u16);
                for ep in episodes {
                    e.str(&ep.added.to_string());
                    e.opt_str(ep.removed.map(|d| d.to_string()).as_deref());
                    e.opt_str(ep.sbl.as_deref());
                }
                K_R_DROP_HISTORY
            }
            Reply::Scorecard { text } => {
                e.str(text);
                K_R_SCORECARD
            }
            Reply::Stats { pairs } => {
                e.u32(pairs.len() as u32);
                for (name, value) in pairs {
                    e.str(name);
                    e.u64(*value);
                }
                K_R_STATS
            }
            Reply::Metrics { json } => {
                e.str(json);
                K_R_METRICS
            }
            Reply::Busy => K_R_BUSY,
            Reply::Error { message } => {
                e.str(message);
                K_R_ERROR
            }
        };
        seal_frame(kind, &e.buf)
    }

    /// Write the frame in one `write_all`.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), WireError> {
        w.write_all(&self.to_frame()).map_err(WireError::Io)
    }

    /// Decode one reply payload.
    pub fn decode(kind: u8, payload: &[u8]) -> Result<Reply, FrameError> {
        match kind {
            K_R_PONG => {
                Dec::new("Pong reply", payload).finish()?;
                Ok(Reply::Pong)
            }
            K_R_VISIBILITY => {
                let mut d = Dec::new("Visibility reply", payload);
                let routed = d.bool()?;
                let observing = d.u32()?;
                let total = d.u32()?;
                let fraction = f64::from_bits(d.u64()?);
                d.finish()?;
                Ok(Reply::Visibility {
                    routed,
                    observing,
                    total,
                    fraction,
                })
            }
            K_R_ROV => {
                let mut d = Dec::new("Rov reply", payload);
                let outcome = d.u8()?;
                if outcome > 2 {
                    return Err(FrameError::new(
                        "Rov reply",
                        0,
                        format!("outcome must be 0..=2, got {outcome}"),
                    ));
                }
                let n = d.u16()?;
                let mut covering = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    covering.push(d.str()?);
                }
                d.finish()?;
                Ok(Reply::Rov { outcome, covering })
            }
            K_R_DROP_LISTED => {
                let mut d = Dec::new("DropListed reply", payload);
                let listed = d.bool()?;
                d.finish()?;
                Ok(Reply::DropListed { listed })
            }
            K_R_DROP_HISTORY => {
                let mut d = Dec::new("DropHistory reply", payload);
                let n = d.u16()?;
                let mut episodes = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let added = d.parse("date")?;
                    let removed = match d.opt_str()? {
                        None => None,
                        Some(s) => Some(s.parse::<Date>().map_err(|e| {
                            FrameError::new("DropHistory reply", d.at, format!("bad date: {e}"))
                        })?),
                    };
                    let sbl = d.opt_str()?;
                    episodes.push(Episode {
                        added,
                        removed,
                        sbl,
                    });
                }
                d.finish()?;
                Ok(Reply::DropHistory { episodes })
            }
            K_R_SCORECARD => {
                let mut d = Dec::new("Scorecard reply", payload);
                let text = d.str()?;
                d.finish()?;
                Ok(Reply::Scorecard { text })
            }
            K_R_STATS => {
                let mut d = Dec::new("Stats reply", payload);
                let n = d.u32()?;
                if n as usize > payload.len() {
                    return Err(FrameError::new(
                        "Stats reply",
                        0,
                        format!("pair count {n} exceeds the payload"),
                    ));
                }
                let mut pairs = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let name = d.str()?;
                    let value = d.u64()?;
                    pairs.push((name, value));
                }
                d.finish()?;
                Ok(Reply::Stats { pairs })
            }
            K_R_METRICS => {
                let mut d = Dec::new("Metrics reply", payload);
                let json = d.str()?;
                d.finish()?;
                Ok(Reply::Metrics { json })
            }
            K_R_BUSY => {
                Dec::new("Busy reply", payload).finish()?;
                Ok(Reply::Busy)
            }
            K_R_ERROR => {
                let mut d = Dec::new("Error reply", payload);
                let message = d.str()?;
                d.finish()?;
                Ok(Reply::Error { message })
            }
            other => Err(FrameError::new(
                "header",
                3,
                format!("unknown reply kind 0x{other:02x}"),
            )),
        }
    }

    /// Read one reply. `Ok(None)` is a clean EOF between frames.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Reply>, WireError> {
        match read_frame(r)? {
            None => Ok(None),
            Some((kind, payload)) => Ok(Some(Reply::decode(kind, &payload)?)),
        }
    }

    /// Render the reply as the human text the `droplens query` command
    /// prints.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        match self {
            Reply::Pong => "pong\n".to_owned(),
            Reply::Visibility {
                routed,
                observing,
                total,
                fraction,
            } => format!(
                "routed: {routed}\nobserving peers: {observing}/{total} ({:.1}%)\n",
                fraction * 100.0
            ),
            Reply::Rov { outcome, covering } => {
                let mut out = format!(
                    "{}\n",
                    match outcome {
                        0 => "Valid",
                        1 => "Invalid",
                        _ => "NotFound",
                    }
                );
                for roa in covering {
                    let _ = writeln!(out, "  covered by {roa}");
                }
                out
            }
            Reply::DropListed { listed } => format!("listed: {listed}\n"),
            Reply::DropHistory { episodes } => {
                if episodes.is_empty() {
                    return "never listed\n".to_owned();
                }
                let mut out = String::new();
                for ep in episodes {
                    let _ = writeln!(
                        out,
                        "listed {} — {}{}",
                        ep.added,
                        ep.removed
                            .map(|d| d.to_string())
                            .unwrap_or_else(|| "(still listed)".to_owned()),
                        ep.sbl
                            .as_deref()
                            .map(|s| format!(" ({s})"))
                            .unwrap_or_default(),
                    );
                }
                out
            }
            Reply::Scorecard { text } => text.clone(),
            Reply::Stats { pairs } => {
                let mut out = String::new();
                for (name, value) in pairs {
                    let _ = writeln!(out, "{name} {value}");
                }
                out
            }
            Reply::Metrics { json } => {
                if json.ends_with('\n') {
                    json.clone()
                } else {
                    format!("{json}\n")
                }
            }
            Reply::Busy => "busy\n".to_owned(),
            Reply::Error { message } => format!("server error: {message}\n"),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let bytes = req.to_frame();
        let mut cursor = &bytes[..];
        let back = Request::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(back, req);
    }

    fn roundtrip_reply(reply: Reply) {
        let bytes = reply.to_frame();
        let mut cursor = &bytes[..];
        let back = Reply::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(back, reply);
    }

    #[test]
    fn request_roundtrips() {
        let prefix: Ipv4Prefix = "198.51.100.0/24".parse().unwrap();
        let date: Date = "2020-06-15".parse().unwrap();
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Visibility { prefix, date });
        roundtrip_request(Request::Rov {
            prefix,
            origin: Asn(64500),
            date,
            all_tals: true,
        });
        roundtrip_request(Request::DropListed { prefix, date });
        roundtrip_request(Request::DropHistory { prefix });
        roundtrip_request(Request::Scorecard { source: None });
        roundtrip_request(Request::Scorecard {
            source: Some("fig2".to_owned()),
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Metrics);
    }

    #[test]
    fn kind_labels_match_kind_index() {
        let prefix: Ipv4Prefix = "198.51.100.0/24".parse().unwrap();
        let date: Date = "2020-06-15".parse().unwrap();
        let all = [
            Request::Ping,
            Request::Visibility { prefix, date },
            Request::Rov {
                prefix,
                origin: Asn(64500),
                date,
                all_tals: false,
            },
            Request::DropListed { prefix, date },
            Request::DropHistory { prefix },
            Request::Scorecard { source: None },
            Request::Stats,
            Request::Metrics,
        ];
        assert_eq!(all.len(), KIND_LABELS.len());
        for (i, req) in all.iter().enumerate() {
            assert_eq!(req.kind_index(), i, "{req:?}");
            assert_eq!(req.label(), KIND_LABELS[i], "{req:?}");
        }
    }

    #[test]
    fn reply_roundtrips() {
        let date: Date = "2020-06-15".parse().unwrap();
        roundtrip_reply(Reply::Pong);
        roundtrip_reply(Reply::Visibility {
            routed: true,
            observing: 12,
            total: 30,
            fraction: 0.4,
        });
        roundtrip_reply(Reply::Rov {
            outcome: 1,
            covering: vec!["ROA x".to_owned(), "ROA y".to_owned()],
        });
        roundtrip_reply(Reply::DropListed { listed: false });
        roundtrip_reply(Reply::DropHistory {
            episodes: vec![Episode {
                added: date,
                removed: None,
                sbl: Some("SBL123".to_owned()),
            }],
        });
        roundtrip_reply(Reply::Scorecard {
            text: "table\n".to_owned(),
        });
        roundtrip_reply(Reply::Stats {
            pairs: vec![("serve.queries".to_owned(), 7)],
        });
        roundtrip_reply(Reply::Metrics {
            json: "{\"schema\":\"droplens-metrics/1\"}".to_owned(),
        });
        roundtrip_reply(Reply::Busy);
        roundtrip_reply(Reply::Error {
            message: "malformed Visibility request at byte 4: x".to_owned(),
        });
    }

    #[test]
    fn clean_eof_is_none() {
        let mut empty: &[u8] = &[];
        assert!(Request::read_from(&mut empty).unwrap().is_none());
    }

    #[test]
    fn eof_mid_header_is_io() {
        let frame = Request::Ping.to_frame();
        let mut torn = &frame[..3];
        match Request::read_from(&mut torn) {
            Err(WireError::Io(e)) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => panic!("expected torn-header Io error, got {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_located() {
        let mut frame = Request::Ping.to_frame();
        frame[0] = b'X';
        let mut cursor = &frame[..];
        match Request::read_from(&mut cursor) {
            Err(WireError::Frame(e)) => {
                assert_eq!(e.offset, 0);
                assert!(e.detail.contains("magic"), "{e}");
            }
            other => panic!("expected frame error, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut frame = Request::Ping.to_frame();
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = &frame[..];
        match Request::read_from(&mut cursor) {
            Err(WireError::Frame(e)) => {
                assert_eq!(e.offset, 4);
                assert!(e.detail.contains("cap"), "{e}");
            }
            other => panic!("expected frame error, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let prefix: Ipv4Prefix = "198.51.100.0/24".parse().unwrap();
        let inner = Request::DropHistory { prefix }.to_frame();
        // Reseal with one junk byte appended so only the trailing check
        // can object (length and checksum both account for it).
        let mut payload = inner[HEADER_LEN..].to_vec();
        payload.push(0xaa);
        let frame = seal_frame(inner[3], &payload);
        let mut cursor = &frame[..];
        match Request::read_from(&mut cursor) {
            Err(WireError::Frame(e)) => assert!(e.detail.contains("trailing"), "{e}"),
            other => panic!("expected frame error, got {other:?}"),
        }
    }

    #[test]
    fn payload_corruption_fails_the_checksum() {
        let mut frame = Reply::Scorecard {
            text: "the measured table\n".to_owned(),
        }
        .to_frame();
        // Flip one bit deep inside the string payload — without the
        // checksum this would decode fine with silently altered text.
        let at = frame.len() - 3;
        frame[at] ^= 0x10;
        let mut cursor = &frame[..];
        match Reply::read_from(&mut cursor) {
            Err(WireError::Frame(e)) => {
                assert_eq!(e.offset, 8);
                assert!(e.detail.contains("checksum"), "{e}");
            }
            other => panic!("expected checksum error, got {other:?}"),
        }
    }

    #[test]
    fn reply_kind_is_not_a_request() {
        let frame = Reply::Busy.to_frame();
        let mut cursor = &frame[..];
        match Request::read_from(&mut cursor) {
            Err(WireError::Frame(e)) => assert!(e.detail.contains("request kind"), "{e}"),
            other => panic!("expected frame error, got {other:?}"),
        }
    }
}
