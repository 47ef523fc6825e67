//! The length-prefixed wire protocol spoken between the driver and the
//! worker processes of the process backend.
//!
//! Frames are hand-rolled over the spill primitives (`put_len` and
//! `SpillCursor`) — no serialization framework, std only. Every frame is
//!
//! ```text
//! "SPW2" | type: u8 | len: u64 LE | crc: u64 LE | payload (len bytes)
//! ```
//!
//! where `crc` is the FNV-1a64 of the payload (the same hash the spill
//! files use). A frame that is short, oversized, carries a bad magic, an
//! unknown type, a mismatched checksum, or a payload its type cannot
//! decode is *torn*: the reader reports `WireError::Torn` and the
//! connection is considered broken — the block store above this layer
//! turns that into a lost block or a worker-loss wait, never into
//! silently truncated data.
//!
//! The protocol is deliberately small: a worker announces itself with
//! `Hello`, keeps itself alive with `Heartbeat` (stamped into the
//! driver's `HealthBoard` by the session reader thread), and otherwise
//! serves driver `Request`s over its byte map — `Put` a block's encoded
//! bytes, `Get` them back, `Remove` a batch, `Stats`, `Shutdown` — with
//! correlated `Reply` frames (`Remove` and `Shutdown` get none).

use crate::memsize::{put_len, SpillCursor};
use crate::spill::fnv1a64;
use crate::sync::Mutex;
use std::io::{Read, Write};

/// Frame preamble, first on the wire.
pub(crate) const MAGIC: [u8; 4] = *b"SPW2";

/// Upper bound a reader accepts for one payload; anything larger is torn
/// (a corrupted length prefix would otherwise ask for an absurd
/// allocation).
pub(crate) const MAX_FRAME_PAYLOAD: u64 = 1 << 32;

const FRAME_HELLO: u8 = 1;
const FRAME_HEARTBEAT: u8 = 2;
const FRAME_REQUEST: u8 = 3;
const FRAME_REPLY: u8 = 4;

const REQ_PUT: u8 = 1;
const REQ_GET: u8 = 2;
const REQ_REMOVE: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

const REPLY_STORED: u8 = 1;
const REPLY_BLOCK: u8 = 2;
const REPLY_NOT_FOUND: u8 = 3;
const REPLY_STATS: u8 = 4;

/// A driver-to-worker request body. Block ids are allocated by the
/// driver's block store and never reused, so a stale `Remove` can never
/// hit a newer block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum RequestBody {
    /// Store `bytes` under `id`.
    Put { id: u64, bytes: Vec<u8> },
    /// Return the bytes stored under `id`.
    Get { id: u64 },
    /// Drop these ids (absent ones are ignored). Not answered.
    Remove { ids: Vec<u64> },
    /// Report the worker's store size, epoch, and pid.
    Stats,
    /// Exit. Not answered.
    Shutdown,
}

/// A worker-to-driver reply body, correlated by request id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ReplyBody {
    /// `Put` stored the block.
    Stored,
    /// `Get` found the block.
    Block(Vec<u8>),
    /// `Get` found nothing under the id.
    NotFound,
    /// `Stats` snapshot: blocks held, their total bytes, the incarnation
    /// the worker was spawned for, and its OS pid.
    Stats {
        blocks: u64,
        bytes: u64,
        epoch: u64,
        pid: u64,
    },
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Frame {
    /// First frame a worker sends: which slot and incarnation it serves.
    Hello { slot: u64, epoch: u64 },
    /// Periodic keepalive; `beats` increments per frame.
    Heartbeat { beats: u64 },
    /// A driver request; `req_id` correlates the eventual reply.
    Request { req_id: u64, body: RequestBody },
    /// A worker reply to request `req_id`.
    Reply { req_id: u64, body: ReplyBody },
}

/// Why a frame could not be read.
#[derive(Debug)]
pub(crate) enum WireError {
    /// Clean end of stream at a frame boundary (peer closed).
    Eof,
    /// Transport error mid-frame.
    Io(std::io::Error),
    /// The bytes on the wire do not decode to a frame: short read,
    /// bad magic, oversized length, checksum mismatch, or an undecodable
    /// payload. The connection is unusable from here on.
    Torn(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Eof => write!(f, "connection closed"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
            WireError::Torn(why) => write!(f, "torn frame: {why}"),
        }
    }
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_len(out, bytes.len());
    out.extend_from_slice(bytes);
}

fn take_bytes(cur: &mut SpillCursor<'_>) -> Option<Vec<u8>> {
    let n = cur.len_prefix()?;
    cur.take(n).map(|b| b.to_vec())
}

impl Frame {
    fn frame_type(&self) -> u8 {
        match self {
            Frame::Hello { .. } => FRAME_HELLO,
            Frame::Heartbeat { .. } => FRAME_HEARTBEAT,
            Frame::Request { .. } => FRAME_REQUEST,
            Frame::Reply { .. } => FRAME_REPLY,
        }
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Frame::Hello { slot, epoch } => {
                put_u64(&mut out, *slot);
                put_u64(&mut out, *epoch);
            }
            Frame::Heartbeat { beats } => put_u64(&mut out, *beats),
            Frame::Request { req_id, body } => {
                put_u64(&mut out, *req_id);
                match body {
                    RequestBody::Put { id, bytes } => {
                        out.push(REQ_PUT);
                        put_u64(&mut out, *id);
                        put_bytes(&mut out, bytes);
                    }
                    RequestBody::Get { id } => {
                        out.push(REQ_GET);
                        put_u64(&mut out, *id);
                    }
                    RequestBody::Remove { ids } => {
                        out.push(REQ_REMOVE);
                        put_len(&mut out, ids.len());
                        for &id in ids {
                            put_u64(&mut out, id);
                        }
                    }
                    RequestBody::Stats => out.push(REQ_STATS),
                    RequestBody::Shutdown => out.push(REQ_SHUTDOWN),
                }
            }
            Frame::Reply { req_id, body } => {
                put_u64(&mut out, *req_id);
                match body {
                    ReplyBody::Stored => out.push(REPLY_STORED),
                    ReplyBody::Block(bytes) => {
                        out.push(REPLY_BLOCK);
                        put_bytes(&mut out, bytes);
                    }
                    ReplyBody::NotFound => out.push(REPLY_NOT_FOUND),
                    ReplyBody::Stats {
                        blocks,
                        bytes,
                        epoch,
                        pid,
                    } => {
                        out.push(REPLY_STATS);
                        for v in [blocks, bytes, epoch, pid] {
                            put_u64(&mut out, *v);
                        }
                    }
                }
            }
        }
        out
    }

    fn decode_payload(frame_type: u8, payload: &[u8]) -> Option<Frame> {
        let mut cur = SpillCursor::new(payload);
        let frame = match frame_type {
            FRAME_HELLO => Frame::Hello {
                slot: cur.u64()?,
                epoch: cur.u64()?,
            },
            FRAME_HEARTBEAT => Frame::Heartbeat { beats: cur.u64()? },
            FRAME_REQUEST => {
                let req_id = cur.u64()?;
                let body = match cur.u8()? {
                    REQ_PUT => RequestBody::Put {
                        id: cur.u64()?,
                        bytes: take_bytes(&mut cur)?,
                    },
                    REQ_GET => RequestBody::Get { id: cur.u64()? },
                    REQ_REMOVE => {
                        let n = cur.len_prefix()?;
                        let ids = (0..n).map(|_| cur.u64()).collect::<Option<_>>()?;
                        RequestBody::Remove { ids }
                    }
                    REQ_STATS => RequestBody::Stats,
                    REQ_SHUTDOWN => RequestBody::Shutdown,
                    _ => return None,
                };
                Frame::Request { req_id, body }
            }
            FRAME_REPLY => {
                let req_id = cur.u64()?;
                let body = match cur.u8()? {
                    REPLY_STORED => ReplyBody::Stored,
                    REPLY_BLOCK => ReplyBody::Block(take_bytes(&mut cur)?),
                    REPLY_NOT_FOUND => ReplyBody::NotFound,
                    REPLY_STATS => ReplyBody::Stats {
                        blocks: cur.u64()?,
                        bytes: cur.u64()?,
                        epoch: cur.u64()?,
                        pid: cur.u64()?,
                    },
                    _ => return None,
                };
                Frame::Reply { req_id, body }
            }
            _ => return None,
        };
        (cur.remaining() == 0).then_some(frame)
    }

    /// Encodes the full frame (header + payload) into one buffer, ready
    /// for a single `write_all`.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(21 + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(self.frame_type());
        put_u64(&mut out, payload.len() as u64);
        put_u64(&mut out, fnv1a64(&payload));
        out.extend_from_slice(&payload);
        out
    }
}

/// Writes one frame through a writer shared by several threads. The frame
/// is encoded before the lock is taken, so encoding a large block never
/// holds up a keepalive, and one `write_all` keeps frames from
/// interleaving.
pub(crate) fn write_frame<W: Write>(w: &Mutex<W>, frame: &Frame) -> std::io::Result<()> {
    let buf = frame.encode();
    let mut w = w.lock();
    w.write_all(&buf)?;
    w.flush()
}

/// Fills `buf`. A stream that ends before its first byte is a clean
/// [`WireError::Eof`] when `at_boundary`; every other short read is torn.
fn read_exact_or(
    r: &mut impl Read,
    buf: &mut [u8],
    at_boundary: bool,
    torn: &'static str,
) -> Result<(), WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 && at_boundary => return Err(WireError::Eof),
            // The peer died mid-frame: a short read, not a clean close.
            Ok(0) => return Err(WireError::Torn(torn)),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Payload bytes read between two calls of [`read_frame_with`]'s hook.
const READ_CHUNK: usize = 1 << 20;

/// Reads and validates one frame. [`WireError::Eof`] means the peer
/// closed cleanly between frames; everything else means the connection is
/// broken and must not be read again.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    read_frame_with(r, || {})
}

/// [`read_frame`], calling `alive` after every mebibyte of payload: a
/// peer still sending a large block is alive, even though no keepalive
/// can overtake that block on the stream.
pub(crate) fn read_frame_with(
    r: &mut impl Read,
    mut alive: impl FnMut(),
) -> Result<Frame, WireError> {
    let mut header = [0u8; 21];
    read_exact_or(r, &mut header, true, "short header")?;
    if header[..4] != MAGIC {
        return Err(WireError::Torn("bad magic"));
    }
    let frame_type = header[4];
    let len = u64::from_le_bytes(header[5..13].try_into().unwrap());
    let crc = u64::from_le_bytes(header[13..21].try_into().unwrap());
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::Torn("oversized payload"));
    }
    let mut payload = vec![0u8; len as usize];
    for chunk in payload.chunks_mut(READ_CHUNK) {
        read_exact_or(r, chunk, false, "short payload")?;
        alive();
    }
    if fnv1a64(&payload) != crc {
        return Err(WireError::Torn("checksum mismatch"));
    }
    Frame::decode_payload(frame_type, &payload).ok_or(WireError::Torn("undecodable payload"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: Frame) {
        let bytes = frame.encode();
        let mut cursor = std::io::Cursor::new(bytes);
        let back = read_frame(&mut cursor).expect("frame must decode");
        assert_eq!(back, frame);
    }

    #[test]
    fn frames_roundtrip() {
        roundtrip(Frame::Hello { slot: 3, epoch: 7 });
        roundtrip(Frame::Heartbeat { beats: 42 });
        let requests = [
            RequestBody::Put {
                id: 9,
                bytes: vec![1, 2, 3],
            },
            RequestBody::Get { id: 9 },
            RequestBody::Remove { ids: vec![4, 9] },
            RequestBody::Remove { ids: vec![] },
            RequestBody::Stats,
            RequestBody::Shutdown,
        ];
        for (req_id, body) in requests.into_iter().enumerate() {
            roundtrip(Frame::Request {
                req_id: req_id as u64,
                body,
            });
        }
        let replies = [
            ReplyBody::Stored,
            ReplyBody::Block(vec![7; 100]),
            ReplyBody::NotFound,
            ReplyBody::Stats {
                blocks: 2,
                bytes: 64,
                epoch: 1,
                pid: 4242,
            },
        ];
        for (req_id, body) in replies.into_iter().enumerate() {
            roundtrip(Frame::Reply {
                req_id: req_id as u64,
                body,
            });
        }
    }

    #[test]
    fn clean_eof_at_frame_boundary_is_eof_not_torn() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Eof)));
    }

    #[test]
    fn short_frames_are_torn_not_eof() {
        let full = Frame::Hello { slot: 1, epoch: 2 }.encode();
        // Truncate inside the header, right after it, and inside the
        // payload.
        for cut in [1, 10, 21, full.len() - 1] {
            let mut cursor = std::io::Cursor::new(full[..cut].to_vec());
            assert!(
                matches!(read_frame(&mut cursor), Err(WireError::Torn(_))),
                "cut at {cut} must be torn"
            );
        }
    }

    #[test]
    fn corrupted_frames_are_torn() {
        let mut bad_magic = Frame::Hello { slot: 1, epoch: 2 }.encode();
        bad_magic[0] = b'X';
        let mut cursor = std::io::Cursor::new(bad_magic);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Torn(_))));

        // Flip one payload byte: the checksum must catch it.
        let mut bad_crc = Frame::Heartbeat { beats: 1 }.encode();
        let last = bad_crc.len() - 1;
        bad_crc[last] ^= 0xFF;
        let mut cursor = std::io::Cursor::new(bad_crc);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Torn("checksum mismatch"))
        ));

        // An absurd length prefix must be refused before allocating.
        let mut oversized = Frame::Hello { slot: 1, epoch: 2 }.encode();
        oversized[5..13].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(oversized);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Torn("oversized payload"))
        ));
    }

    #[test]
    fn unknown_frame_types_and_trailing_bytes_are_torn() {
        let mut unknown = Frame::Hello { slot: 1, epoch: 2 }.encode();
        unknown[4] = 200;
        let mut cursor = std::io::Cursor::new(unknown);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Torn(_))));

        // A payload with trailing garbage (but a matching checksum) is
        // still refused: every byte must be consumed by the decoder.
        let inner = Frame::Hello { slot: 1, epoch: 2 };
        let mut payload = vec![];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&2u64.to_le_bytes());
        payload.push(99);
        let mut framed = Vec::new();
        framed.extend_from_slice(&MAGIC);
        framed.push(inner.frame_type());
        framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        framed.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        let mut cursor = std::io::Cursor::new(framed);
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Torn(_))));
    }
}
