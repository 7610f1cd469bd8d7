//! Property and adversarial tests for the `droplens-serve/2` wire
//! protocol.
//!
//! Two contracts, straight from the module docs:
//!
//! * every request and reply round-trips through its frame bytes
//!   exactly;
//! * no byte sequence panics the decoder — malformed input surfaces as
//!   a located [`FrameError`] naming the frame and the offending
//!   offset, and torn transport surfaces separately as
//!   [`WireError::Io`]; a damaged header fails before any payload byte
//!   is read, so a live server answers it at once.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panics are failures

use std::sync::Arc;
use std::time::Duration;

use droplens_core::Study;
use droplens_net::{Asn, Date, Ipv4Prefix};
use droplens_obs::Stopwatch;
use droplens_serve::net::DeadlineStream;
use droplens_serve::protocol::{self, read_frame, seal_frame, HEADER_LEN, MAX_PAYLOAD};
use droplens_serve::{Engine, FrameError, Reply, Request, Server, ServerConfig, WireError};
use droplens_synth::{World, WorldConfig};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::from_u32(addr, len))
}

fn arb_date() -> impl Strategy<Value = Date> {
    // ~11 years around the paper's window; Date + i32 is total.
    (0i32..4000).prop_map(|d| Date::from_ymd(2015, 1, 1) + d)
}

/// Every request variant, selector-driven (the vendored proptest shim
/// has no `prop_oneof!`).
fn arb_request() -> impl Strategy<Value = Request> {
    (
        0u8..8,
        arb_prefix(),
        arb_date(),
        any::<u32>(),
        any::<bool>(),
        prop::option::of("[a-z0-9 ]{0,12}"),
    )
        .prop_map(|(sel, prefix, date, origin, flag, source)| match sel {
            0 => Request::Ping,
            1 => Request::Visibility { prefix, date },
            2 => Request::Rov {
                prefix,
                origin: Asn(origin),
                date,
                all_tals: flag,
            },
            3 => Request::DropListed { prefix, date },
            4 => Request::DropHistory { prefix },
            5 => Request::Scorecard { source },
            6 => Request::Metrics,
            _ => Request::Stats,
        })
}

fn arb_episode() -> impl Strategy<Value = protocol::Episode> {
    (
        arb_date(),
        prop::option::of(arb_date()),
        prop::option::of("SBL[0-9]{1,6}"),
    )
        .prop_map(|(added, removed, sbl)| protocol::Episode {
            added,
            removed,
            sbl,
        })
}

/// Arbitrary finite-or-infinite f64 by bit pattern; NaN is remapped
/// because it breaks `PartialEq`, not the wire (bits round-trip fine).
fn arb_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let f = f64::from_bits(bits);
        if f.is_nan() {
            0.5
        } else {
            f
        }
    })
}

/// Every reply variant, selector-driven.
fn arb_reply() -> impl Strategy<Value = Reply> {
    (
        (
            0u8..10,
            any::<bool>(),
            any::<u32>(),
            any::<u32>(),
            arb_f64(),
        ),
        (
            0u8..=2,
            prop::collection::vec("[a-zA-Z0-9 ./]{0,16}", 0..4),
            prop::collection::vec(arb_episode(), 0..4),
            "[ -~]{0,64}",
            prop::collection::vec(("[a-z.]{1,16}", any::<u64>()), 0..6),
        ),
    )
        .prop_map(
            |(
                (sel, flag, observing, total, fraction),
                (outcome, covering, episodes, text, pairs),
            )| {
                match sel {
                    0 => Reply::Pong,
                    1 => Reply::Visibility {
                        routed: flag,
                        observing,
                        total,
                        fraction,
                    },
                    2 => Reply::Rov { outcome, covering },
                    3 => Reply::DropListed { listed: flag },
                    4 => Reply::DropHistory { episodes },
                    5 => Reply::Scorecard { text },
                    6 => Reply::Stats { pairs },
                    7 => Reply::Busy,
                    8 => Reply::Metrics { json: text },
                    _ => Reply::Error { message: text },
                }
            },
        )
}

proptest! {
    /// Every request round-trips bytes-exactly, and consumes its whole
    /// frame (the reader is left at a clean EOF).
    #[test]
    fn request_frames_round_trip(req in arb_request()) {
        let frame = req.to_frame();
        let mut r = &frame[..];
        let got = Request::read_from(&mut r).expect("decode").expect("not EOF");
        prop_assert_eq!(got, req);
        prop_assert!(read_frame(&mut r).expect("clean tail").is_none());
    }

    /// Every reply round-trips bytes-exactly, including bit-exact f64
    /// fractions.
    #[test]
    fn reply_frames_round_trip(reply in arb_reply()) {
        let frame = reply.to_frame();
        let mut r = &frame[..];
        let got = Reply::read_from(&mut r).expect("decode").expect("not EOF");
        prop_assert_eq!(got, reply);
        prop_assert!(read_frame(&mut r).expect("clean tail").is_none());
    }

    /// Truncating a frame at ANY interior boundary is a torn read:
    /// `WireError::Io` with `UnexpectedEof`, never a panic, never a
    /// silent success.
    #[test]
    fn torn_frames_are_io_errors(req in arb_request(), cut_seed in any::<u64>()) {
        let frame = req.to_frame();
        let cut = 1 + (cut_seed as usize) % (frame.len() - 1);
        let mut r = &frame[..cut];
        match read_frame(&mut r) {
            Err(WireError::Io(e)) => {
                prop_assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
            }
            other => prop_assert!(false, "cut at {cut}: expected torn-read Io, got {other:?}"),
        }
    }

    /// Flipping ANY single bit of a sealed frame makes it fail to
    /// decode: the FNV-1a multiplier is odd, so a nonzero digest delta
    /// can never cancel, and the magic check covers the two bytes the
    /// checksums do not. A flip anywhere in the header fails on the
    /// header alone, before any payload byte is read: the reader below
    /// yields the header and then fails, so a flip that reached for the
    /// payload would surface as `Io`, not as a located `Frame` error.
    #[test]
    fn any_single_bit_flip_is_caught(req in arb_request(), at_seed in any::<u64>(), bit in 0u8..8) {
        let sealed = req.to_frame();
        let mut frame = sealed.clone();
        let at = (at_seed as usize) % frame.len();
        frame[at] ^= 1 << bit;
        let mut r = &frame[..];
        prop_assert!(
            Request::read_from(&mut r).is_err(),
            "flip bit {bit} at byte {at}: decoder accepted a corrupted frame"
        );
        for at in 0..HEADER_LEN {
            for bit in 0..8 {
                let mut header = sealed[..HEADER_LEN].to_vec();
                header[at] ^= 1 << bit;
                match read_frame(&mut HeaderThenFail(&header)) {
                    Err(WireError::Frame(e)) => prop_assert_eq!(e.frame.as_str(), "header"),
                    other => prop_assert!(false, "flip bit {bit} at header byte {at}: {other:?}"),
                }
            }
        }
    }

    /// Arbitrary bytes never panic the frame reader.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut r = &bytes[..];
        let _ = read_frame(&mut r);
        let mut r = &bytes[..];
        let _ = Request::read_from(&mut r);
        let mut r = &bytes[..];
        let _ = Reply::read_from(&mut r);
    }

    /// Raw bytes almost never pass the magic and checksum checks, so
    /// the payload decoders behind them rarely run. Resealing garbage
    /// under a valid header drives every kind byte's decoder, and the
    /// `Dec` reader under it, over arbitrary payloads.
    #[test]
    fn resealed_garbage_payloads_never_panic(payload in prop::collection::vec(any::<u8>(), 0..257)) {
        for kind in 0..=u8::MAX {
            decode_resealed(kind, &payload);
        }
    }

    /// Payloads one edit away from valid, which get deep into a decoder
    /// before going wrong: a real frame's payload with one byte changed,
    /// cut short, or with bytes inserted (appended when `at` is the
    /// end), then resealed.
    #[test]
    fn resealed_near_valid_payloads_never_panic(
        req in arb_request(),
        reply in arb_reply(),
        edit in 0u8..3,
        at_seed in any::<u64>(),
        extra in prop::collection::vec(any::<u8>(), 1..9),
    ) {
        for frame in [req.to_frame(), reply.to_frame()] {
            let kind = frame[3];
            let mut payload = frame[HEADER_LEN..].to_vec();
            let at = (at_seed as usize) % (payload.len() + 1);
            match (edit, payload.get_mut(at)) {
                (0, Some(byte)) => *byte = byte.wrapping_add(1 + extra[0] % 255),
                (1, _) => payload.truncate(at),
                _ => {
                    payload.splice(at..at, extra.iter().copied());
                }
            }
            decode_resealed(kind, &payload);
        }
    }
}

/// A reader that yields the given header bytes and then fails, as a
/// peer does that never sends the payload its header announces.
struct HeaderThenFail<'a>(&'a [u8]);

impl std::io::Read for HeaderThenFail<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.0.is_empty() {
            return Err(std::io::Error::other("the payload never arrives"));
        }
        let n = buf.len().min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// Seal `payload` under `kind` with a correct header and checksum, then
/// read it back through both decoders: each must return, never panic.
fn decode_resealed(kind: u8, payload: &[u8]) {
    let frame = seal_frame(kind, payload);
    let _ = Request::read_from(&mut &frame[..]);
    let _ = Reply::read_from(&mut &frame[..]);
}

/// A located error for a specific malformed frame: the checks that pin
/// frame names and offsets, beyond what the properties assert.
#[allow(clippy::panic)] // test helper: any other outcome fails the test
fn frame_err(res: Result<Option<Request>, WireError>) -> FrameError {
    match res {
        Err(WireError::Frame(e)) => e,
        other => panic!("expected a frame error, got {other:?}"),
    }
}

#[test]
fn oversized_length_is_rejected_before_allocation() {
    let mut frame = seal_frame(0x01, &[]);
    frame[4..8].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
    let e = frame_err(Request::read_from(&mut &frame[..]));
    assert_eq!(e.frame, "header");
    assert_eq!(e.offset, 4);
    assert!(e.to_string().contains("exceeds"), "{e}");
}

#[test]
fn payload_cut_mid_field_is_located_in_the_payload() {
    // A Visibility request whose payload is resealed one byte short:
    // the header is perfectly valid, the *payload* ends mid-string.
    let frame = Request::Visibility {
        prefix: "192.0.2.0/24".parse().expect("prefix"),
        date: Date::from_ymd(2019, 6, 1),
    }
    .to_frame();
    let cut = &frame[HEADER_LEN..frame.len() - 1];
    let reseal = seal_frame(frame[3], cut);
    let e = frame_err(Request::read_from(&mut &reseal[..]));
    assert_eq!(e.frame, "Visibility request");
    assert!(e.offset > 0, "offset points into the payload: {e}");
    assert!(e.to_string().contains("ends after"), "{e}");
}

#[test]
fn unknown_kind_is_a_located_error() {
    let frame = seal_frame(0x42, &[]);
    let e = frame_err(Request::read_from(&mut &frame[..]));
    assert!(
        e.to_string().contains("0x42") || e.to_string().contains("66"),
        "{e}"
    );
}

#[test]
fn wrong_direction_kind_is_a_located_error() {
    // A syntactically perfect *reply* frame is not a request.
    let frame = Reply::Busy.to_frame();
    let e = frame_err(Request::read_from(&mut &frame[..]));
    assert!(!e.frame.is_empty(), "{e}");
}

#[test]
fn bad_magic_fails_at_offset_zero() {
    let mut frame = seal_frame(0x01, &[]);
    frame[0] = b'X';
    let e = frame_err(Request::read_from(&mut &frame[..]));
    assert_eq!((e.frame.as_str(), e.offset), ("header", 0));
}

#[test]
fn future_version_fails_at_offset_two() {
    let mut frame = seal_frame(0x01, &[]);
    frame[2] = 9;
    let e = frame_err(Request::read_from(&mut &frame[..]));
    assert_eq!((e.frame.as_str(), e.offset), ("header", 2));
    assert!(e.to_string().contains("version"), "{e}");
}

/// A ping whose header announces payload bytes that never come (a
/// flipped length bit under the cap) is answered by a live server with
/// a typed `Error` at once, not after the server's 2 s read deadline:
/// the header digest fails before the payload is read.
#[test]
fn inflated_length_is_answered_well_inside_the_deadline() {
    let world = World::generate(7, &WorldConfig::small());
    let engine = Arc::new(Engine::new(Arc::new(Study::from_world(&world))));
    let handle = Server::start(engine, ServerConfig::default()).expect("bind server");
    let mut frame = Request::Ping.to_frame();
    frame[4] ^= 0x10; // the length byte: 0 -> 16 payload bytes
    let mut conn = DeadlineStream::connect(handle.addr(), Duration::from_secs(5)).expect("connect");
    let stopwatch = Stopwatch::start();
    std::io::Write::write_all(&mut conn, &frame).expect("write the frame");
    let reply = Reply::read_from(&mut conn);
    let elapsed = stopwatch.elapsed();
    drop(conn);
    handle.stop();
    match reply {
        Ok(Some(Reply::Error { message })) => assert!(message.contains("header"), "{message}"),
        other => panic!("expected a typed Error, got {other:?} after {elapsed:?}"),
    }
    assert!(
        elapsed < Duration::from_millis(500),
        "the Error took {elapsed:?}"
    );
}
