//! The `reach-served` wire format: length-prefixed binary frames.
//!
//! This module is the *implementation* of the protocol; the normative
//! specification an independent client should be written against is
//! `docs/PROTOCOL.md`. The two are kept in lockstep — every constant
//! here appears in the spec and vice versa.
//!
//! # Frame layout
//!
//! Every frame, both directions, is a fixed 14-byte header followed by a
//! length-delimited payload (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     payload_len : u32   (bytes after the header)
//! 4       1     version     : u8    (currently 1)
//! 5       1     opcode      : u8
//! 6       8     request_id  : u64   (echoed verbatim in the response)
//! 14      …     payload     (payload_len bytes)
//! ```
//!
//! The length prefix makes every frame skippable without understanding
//! its opcode — the basis of the forward-compatibility rules: an unknown
//! opcode is answered with [`ErrorCode::UnknownOpcode`] and the
//! connection stays synchronized, while malformed *framing* (bad
//! version, oversized length) is unrecoverable and closes the connection
//! after a fatal error frame ([`ErrorCode::is_fatal`]).

use std::io::{self, Read};

use reach_graph::VertexId;
use reach_serve::ServeError;

/// Protocol version this build speaks. A server rejects frames carrying
/// any other version with [`ErrorCode::UnsupportedVersion`] (fatal).
pub const VERSION: u8 = 1;

/// Bytes of header preceding every payload.
pub const HEADER_LEN: usize = 14;

/// Default cap on `payload_len`; larger frames are rejected with
/// [`ErrorCode::FrameTooLarge`] (fatal) before any allocation.
pub const DEFAULT_MAX_FRAME: u32 = 1 << 20;

/// Request and response opcodes. Responses set the high bit of the
/// request opcode they answer; [`ERROR`](opcode::ERROR) may answer any
/// request.
pub mod opcode {
    /// Reachability batch: answered through the batch/ticket machinery.
    pub const QUERY: u8 = 0x01;
    /// Witness batch: answered from one epoch snapshot.
    pub const WITNESS: u8 = 0x02;
    /// Hot-reload the served index from a `.ridx` file path.
    pub const RELOAD: u8 = 0x03;
    /// Begin graceful drain: stop admission, finish in-flight work.
    pub const DRAIN: u8 = 0x04;
    /// Liveness probe.
    pub const PING: u8 = 0x05;
    /// Serving counters snapshot.
    pub const STATS: u8 = 0x06;

    /// Response to [`QUERY`].
    pub const QUERY_OK: u8 = 0x81;
    /// Response to [`WITNESS`].
    pub const WITNESS_OK: u8 = 0x82;
    /// Response to [`RELOAD`].
    pub const RELOAD_OK: u8 = 0x83;
    /// Response to [`DRAIN`].
    pub const DRAIN_OK: u8 = 0x84;
    /// Response to [`PING`].
    pub const PONG: u8 = 0x85;
    /// Response to [`STATS`].
    pub const STATS_OK: u8 = 0x86;
    /// Typed failure response to any request.
    pub const ERROR: u8 = 0xFF;
}

/// Batch priority on the wire, mapping onto
/// [`reach_serve::Priority`]. Any other byte is
/// [`ErrorCode::BadPayload`].
pub mod priority {
    /// [`reach_serve::Priority::Low`].
    pub const LOW: u8 = 0;
    /// [`reach_serve::Priority::Normal`].
    pub const NORMAL: u8 = 1;
    /// [`reach_serve::Priority::High`].
    pub const HIGH: u8 = 2;
}

/// Typed error codes carried by `ERROR` frames.
///
/// Codes below 64 leave the connection synchronized and usable; codes at
/// or above 64 are **fatal**: the server writes the error frame and then
/// closes the connection, because framing can no longer be trusted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// [`ServeError::Overloaded`] — admission-control queue full.
    Overloaded = 1,
    /// [`ServeError::DeadlineExceeded`].
    DeadlineExceeded = 2,
    /// [`ServeError::InvalidVertex`] — a vertex the index does not cover.
    InvalidVertex = 3,
    /// [`ServeError::ShuttingDown`] — the server is draining.
    ShuttingDown = 4,
    /// [`ServeError::Degraded`] — shed by a degradation tier.
    Degraded = 5,
    /// [`ServeError::SwapFailed`] — a reload install failed atomically;
    /// the previous generation keeps serving.
    SwapFailed = 6,
    /// A per-connection quota (in-flight window or query-rate bucket)
    /// was exhausted; retry after backoff.
    QuotaExceeded = 16,
    /// The opcode is not known to this server version. The frame was
    /// skipped whole; the connection stays usable.
    UnknownOpcode = 17,
    /// The index file named by a RELOAD could not be read or decoded.
    ReloadFailed = 18,
    /// The payload of a known opcode did not decode (truncated counts,
    /// trailing bytes, bad priority, non-UTF-8 path, …).
    BadPayload = 19,
    /// The batch exceeds the server's per-frame query cap.
    BatchTooLarge = 20,
    /// Fatal: the frame header did not parse.
    MalformedFrame = 64,
    /// Fatal: `payload_len` exceeds the server's frame cap.
    FrameTooLarge = 65,
    /// Fatal: the version byte is not one this server speaks.
    UnsupportedVersion = 66,
}

impl ErrorCode {
    /// Decodes a wire code; unknown codes (a newer peer) are `None`.
    pub fn from_u16(code: u16) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExceeded,
            3 => ErrorCode::InvalidVertex,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::Degraded,
            6 => ErrorCode::SwapFailed,
            16 => ErrorCode::QuotaExceeded,
            17 => ErrorCode::UnknownOpcode,
            18 => ErrorCode::ReloadFailed,
            19 => ErrorCode::BadPayload,
            20 => ErrorCode::BatchTooLarge,
            64 => ErrorCode::MalformedFrame,
            65 => ErrorCode::FrameTooLarge,
            66 => ErrorCode::UnsupportedVersion,
            _ => return None,
        })
    }

    /// Fatal codes close the connection after the error frame.
    pub fn is_fatal(self) -> bool {
        self as u16 >= 64
    }

    /// Whether a client should retry the request after backoff —
    /// transient server conditions, mirroring
    /// [`reach_serve::RetryPolicy`]'s transient set plus the quota
    /// bucket.
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Overloaded
                | ErrorCode::Degraded
                | ErrorCode::QuotaExceeded
                | ErrorCode::DeadlineExceeded
        )
    }

    /// Maps a service rejection onto its wire code and human-readable
    /// detail message.
    pub fn from_serve_error(err: &ServeError) -> (ErrorCode, String) {
        let code = match err {
            ServeError::Overloaded { .. } => ErrorCode::Overloaded,
            ServeError::DeadlineExceeded => ErrorCode::DeadlineExceeded,
            ServeError::InvalidVertex { .. } => ErrorCode::InvalidVertex,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::Degraded { .. } => ErrorCode::Degraded,
            ServeError::SwapFailed { .. } => ErrorCode::SwapFailed,
        };
        (code, err.to_string())
    }
}

/// One parsed frame, either direction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version byte.
    pub version: u8,
    /// Opcode (see [`opcode`]).
    pub opcode: u8,
    /// Request correlation id, echoed in responses.
    pub request_id: u64,
    /// Opcode-specific payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Serializes the frame (header + payload) into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        out.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        out.push(self.version);
        out.push(self.opcode);
        out.extend_from_slice(&self.request_id.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// A version-1 frame with the given opcode, id, and payload.
    pub fn new(opcode: u8, request_id: u64, payload: Vec<u8>) -> Frame {
        Frame {
            version: VERSION,
            opcode,
            request_id,
            payload,
        }
    }
}

/// Why an incremental frame read could not produce a frame.
#[derive(Debug)]
pub enum ReadError {
    /// The peer closed the stream (mid-frame or between frames; the flag
    /// distinguishes them).
    Eof {
        /// True when bytes of an unfinished frame were already buffered.
        mid_frame: bool,
    },
    /// Framing violation — the matching fatal [`ErrorCode`] plus the
    /// request id to address the error frame to (0 when the header did
    /// not get far enough to carry one).
    Fatal {
        /// Which fatal framing rule was violated.
        code: ErrorCode,
        /// Request id from the offending header, or 0.
        request_id: u64,
    },
    /// Underlying socket error other than the timeout family.
    Io(io::Error),
}

/// Outcome of one [`FrameReader::poll`] call.
#[derive(Debug)]
pub enum Polled {
    /// A complete frame.
    Frame(Frame),
    /// The read timed out (or would block) before a frame completed —
    /// a client's receive timeout; the server's sockets have none.
    Pending,
}

/// Incremental frame parser over a non-blocking or read-timeout socket.
///
/// Buffers partial reads so a frame split across arbitrarily many TCP
/// segments (or interleaved with read timeouts) is reassembled without
/// ever losing stream position — the property that lets a client retry
/// a receive after its timeout.
pub struct FrameReader {
    buf: Vec<u8>,
    max_frame: u32,
}

impl FrameReader {
    /// A reader enforcing the given payload-size cap.
    pub fn new(max_frame: u32) -> FrameReader {
        FrameReader {
            buf: Vec::with_capacity(4096),
            max_frame,
        }
    }

    /// Attempts to read one frame from `r`. Returns [`Polled::Pending`]
    /// on timeout, with the partial frame kept for the next call; framing
    /// violations are [`ReadError::Fatal`] with the code to report.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Polled, ReadError> {
        loop {
            if let Some(frame) = self.try_parse()? {
                return Ok(Polled::Frame(frame));
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return Err(ReadError::Eof {
                        mid_frame: !self.buf.is_empty(),
                    })
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(Polled::Pending)
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
    }

    /// Parses a complete buffered frame, if any, validating the framing
    /// rules (version, size cap) as soon as the header is available.
    fn try_parse(&mut self) -> Result<Option<Frame>, ReadError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let payload_len = u32::from_le_bytes(self.buf[0..4].try_into().unwrap());
        let version = self.buf[4];
        let opcode = self.buf[5];
        let request_id = u64::from_le_bytes(self.buf[6..14].try_into().unwrap());
        if version != VERSION {
            return Err(ReadError::Fatal {
                code: ErrorCode::UnsupportedVersion,
                request_id,
            });
        }
        if payload_len > self.max_frame {
            return Err(ReadError::Fatal {
                code: ErrorCode::FrameTooLarge,
                request_id,
            });
        }
        let total = HEADER_LEN + payload_len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[HEADER_LEN..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Frame {
            version,
            opcode,
            request_id,
            payload,
        }))
    }
}

/// Bounds-checked little-endian payload cursor; every decoder below is
/// written against it so truncated or trailing bytes surface as
/// [`ErrorCode::BadPayload`], never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Decode failure of a known opcode's payload (maps to
/// [`ErrorCode::BadPayload`]).
#[derive(Debug, PartialEq, Eq)]
pub struct PayloadError(pub &'static str);

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PayloadError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(PayloadError("payload truncated"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, PayloadError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, PayloadError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, PayloadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PayloadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(&self) -> Result<(), PayloadError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(PayloadError("trailing bytes after payload"))
        }
    }
}

/// A decoded QUERY or WITNESS request payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchRequest {
    /// Per-batch deadline in milliseconds; 0 means none.
    pub deadline_ms: u32,
    /// Wire priority byte (see [`priority`]).
    pub priority: u8,
    /// The `(source, target)` pairs, in submission order.
    pub pairs: Vec<(VertexId, VertexId)>,
}

/// Encodes a QUERY/WITNESS payload: `u32 deadline_ms, u8 priority,
/// u32 count, count × (u32 s, u32 t)`.
pub fn encode_batch(req: &BatchRequest) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + 8 * req.pairs.len());
    out.extend_from_slice(&req.deadline_ms.to_le_bytes());
    out.push(req.priority);
    out.extend_from_slice(&(req.pairs.len() as u32).to_le_bytes());
    for &(s, t) in &req.pairs {
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&t.to_le_bytes());
    }
    out
}

/// Decodes a QUERY/WITNESS payload (see [`encode_batch`]).
pub fn decode_batch(payload: &[u8]) -> Result<BatchRequest, PayloadError> {
    let mut c = Cursor::new(payload);
    let deadline_ms = c.u32()?;
    let priority = c.u8()?;
    if priority > priority::HIGH {
        return Err(PayloadError("unknown priority byte"));
    }
    let count = c.u32()? as usize;
    // The count must be consistent with the bytes actually present —
    // a hostile count cannot force an allocation beyond the frame cap.
    if payload.len().saturating_sub(c.pos) != count * 8 {
        return Err(PayloadError("pair count disagrees with payload length"));
    }
    let mut pairs = Vec::with_capacity(count);
    for _ in 0..count {
        let s = c.u32()?;
        let t = c.u32()?;
        pairs.push((s, t));
    }
    c.finish()?;
    Ok(BatchRequest {
        deadline_ms,
        priority,
        pairs,
    })
}

/// Encodes a QUERY_OK payload: `u64 generation, u32 count, count ×
/// u8 answer` (0 = unreachable, 1 = reachable).
pub fn encode_query_ok(generation: u64, answers: &[bool]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + answers.len());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(answers.len() as u32).to_le_bytes());
    out.extend(answers.iter().map(|&a| a as u8));
    out
}

/// Decodes a QUERY_OK payload into `(generation, answers)`.
pub fn decode_query_ok(payload: &[u8]) -> Result<(u64, Vec<bool>), PayloadError> {
    let mut c = Cursor::new(payload);
    let generation = c.u64()?;
    let count = c.u32()? as usize;
    let bytes = c.take(count)?;
    if bytes.iter().any(|&b| b > 1) {
        return Err(PayloadError("answer byte not 0 or 1"));
    }
    let answers = bytes.iter().map(|&b| b == 1).collect();
    c.finish()?;
    Ok((generation, answers))
}

/// Encodes a WITNESS_OK payload: `u64 generation, u32 count, count ×
/// (u8 reachable, u32 witness)` — `witness` is meaningful only when
/// `reachable == 1` (it is written as 0 otherwise).
pub fn encode_witness_ok(generation: u64, witnesses: &[Option<VertexId>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + 5 * witnesses.len());
    out.extend_from_slice(&generation.to_le_bytes());
    out.extend_from_slice(&(witnesses.len() as u32).to_le_bytes());
    for w in witnesses {
        out.push(w.is_some() as u8);
        out.extend_from_slice(&w.unwrap_or(0).to_le_bytes());
    }
    out
}

/// Decodes a WITNESS_OK payload into `(generation, witnesses)`.
#[allow(clippy::type_complexity)]
pub fn decode_witness_ok(payload: &[u8]) -> Result<(u64, Vec<Option<VertexId>>), PayloadError> {
    let mut c = Cursor::new(payload);
    let generation = c.u64()?;
    let count = c.u32()? as usize;
    if payload.len().saturating_sub(c.pos) != count * 5 {
        return Err(PayloadError("witness count disagrees with payload length"));
    }
    let mut witnesses = Vec::with_capacity(count);
    for _ in 0..count {
        let flag = c.u8()?;
        let w = c.u32()?;
        witnesses.push(match flag {
            0 => None,
            1 => Some(w),
            _ => return Err(PayloadError("witness flag not 0 or 1")),
        });
    }
    c.finish()?;
    Ok((generation, witnesses))
}

/// Encodes a RELOAD payload: `u32 path_len, path bytes` (UTF-8). An
/// empty path asks the server to reload its startup index path.
pub fn encode_reload(path: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + path.len());
    out.extend_from_slice(&(path.len() as u32).to_le_bytes());
    out.extend_from_slice(path.as_bytes());
    out
}

/// Decodes a RELOAD payload into its path.
pub fn decode_reload(payload: &[u8]) -> Result<String, PayloadError> {
    let mut c = Cursor::new(payload);
    let len = c.u32()? as usize;
    let bytes = c.take(len)?;
    c.finish()?;
    String::from_utf8(bytes.to_vec()).map_err(|_| PayloadError("reload path is not UTF-8"))
}

/// Encodes a RELOAD_OK payload: `u64 new_generation`.
pub fn encode_reload_ok(generation: u64) -> Vec<u8> {
    generation.to_le_bytes().to_vec()
}

/// Decodes a RELOAD_OK payload.
pub fn decode_reload_ok(payload: &[u8]) -> Result<u64, PayloadError> {
    let mut c = Cursor::new(payload);
    let generation = c.u64()?;
    c.finish()?;
    Ok(generation)
}

/// The counters a STATS_OK frame carries — a wire projection of
/// [`reach_serve::ServeStats`] plus the server's own connection count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Generation currently being served.
    pub generation: u64,
    /// Batches submitted through the wire and in-process combined.
    pub submitted: u64,
    /// Batches fully answered.
    pub answered: u64,
    /// Batches rejected (all causes).
    pub rejected: u64,
    /// Batches shed by degradation tiers.
    pub shed: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Index hot-swaps installed (reloads included).
    pub swaps: u64,
    /// Currently open client connections.
    pub connections: u64,
}

/// Encodes a STATS_OK payload: nine `u64` fields in declaration order.
pub fn encode_stats_ok(s: &WireStats) -> Vec<u8> {
    let fields = [
        s.generation,
        s.submitted,
        s.answered,
        s.rejected,
        s.shed,
        s.cache_hits,
        s.cache_misses,
        s.swaps,
        s.connections,
    ];
    let mut out = Vec::with_capacity(8 * fields.len());
    for f in fields {
        out.extend_from_slice(&f.to_le_bytes());
    }
    out
}

/// Decodes a STATS_OK payload.
pub fn decode_stats_ok(payload: &[u8]) -> Result<WireStats, PayloadError> {
    let mut c = Cursor::new(payload);
    let s = WireStats {
        generation: c.u64()?,
        submitted: c.u64()?,
        answered: c.u64()?,
        rejected: c.u64()?,
        shed: c.u64()?,
        cache_hits: c.u64()?,
        cache_misses: c.u64()?,
        swaps: c.u64()?,
        connections: c.u64()?,
    };
    c.finish()?;
    Ok(s)
}

/// Encodes an ERROR payload: `u16 code, u16 reserved (0), u32 msg_len,
/// msg bytes` (UTF-8).
pub fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + message.len());
    out.extend_from_slice(&(code as u16).to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&(message.len() as u32).to_le_bytes());
    out.extend_from_slice(message.as_bytes());
    out
}

/// Decodes an ERROR payload into `(raw code, decoded code, message)` —
/// the raw code survives even when this build does not know it.
pub fn decode_error(payload: &[u8]) -> Result<(u16, Option<ErrorCode>, String), PayloadError> {
    let mut c = Cursor::new(payload);
    let raw = c.u16()?;
    let _reserved = c.u16()?;
    let len = c.u32()? as usize;
    let bytes = c.take(len)?;
    c.finish()?;
    let message =
        String::from_utf8(bytes.to_vec()).map_err(|_| PayloadError("error message not UTF-8"))?;
    Ok((raw, ErrorCode::from_u16(raw), message))
}

/// Builds a ready-to-send ERROR frame for `request_id`.
pub fn error_frame(request_id: u64, code: ErrorCode, message: &str) -> Vec<u8> {
    Frame::new(opcode::ERROR, request_id, encode_error(code, message)).encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_frame(f: &Frame) -> Frame {
        let bytes = f.encode();
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        match reader.poll(&mut &bytes[..]) {
            Ok(Polled::Frame(out)) => out,
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_roundtrip() {
        let f = Frame::new(opcode::QUERY, 42, vec![1, 2, 3]);
        assert_eq!(roundtrip_frame(&f), f);
        let empty = Frame::new(opcode::PING, u64::MAX, Vec::new());
        assert_eq!(roundtrip_frame(&empty), empty);
    }

    #[test]
    fn split_reads_reassemble() {
        let f = Frame::new(opcode::WITNESS, 7, vec![9; 100]);
        let bytes = f.encode();
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        for chunk in bytes.chunks(3) {
            let mut src = chunk;
            match reader.poll(&mut src) {
                Ok(Polled::Frame(out)) => {
                    assert_eq!(out, f);
                    return;
                }
                // Chunk exhausted: read() returns 0, which poll reports
                // as EOF — feed the next chunk.
                Err(ReadError::Eof { .. }) => continue,
                other => panic!("unexpected {other:?}"),
            }
        }
        panic!("frame never completed");
    }

    #[test]
    fn bad_version_is_fatal() {
        let mut bytes = Frame::new(opcode::PING, 3, Vec::new()).encode();
        bytes[4] = 9;
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        match reader.poll(&mut &bytes[..]) {
            Err(ReadError::Fatal { code, request_id }) => {
                assert_eq!(code, ErrorCode::UnsupportedVersion);
                assert_eq!(request_id, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversized_length_is_fatal_before_allocation() {
        let mut bytes = Frame::new(opcode::QUERY, 8, Vec::new()).encode();
        bytes[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut reader = FrameReader::new(1024);
        match reader.poll(&mut &bytes[..]) {
            Err(ReadError::Fatal { code, .. }) => assert_eq!(code, ErrorCode::FrameTooLarge),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn batch_payloads_roundtrip() {
        let req = BatchRequest {
            deadline_ms: 250,
            priority: priority::HIGH,
            pairs: vec![(0, 1), (5, 5), (u32::MAX - 1, 3)],
        };
        assert_eq!(decode_batch(&encode_batch(&req)), Ok(req));
    }

    #[test]
    fn batch_count_must_match_bytes() {
        let mut p = encode_batch(&BatchRequest {
            deadline_ms: 0,
            priority: priority::NORMAL,
            pairs: vec![(1, 2)],
        });
        // Claim two pairs while carrying one.
        p[5..9].copy_from_slice(&2u32.to_le_bytes());
        assert!(decode_batch(&p).is_err());
        // Truncate mid-pair.
        let req = BatchRequest {
            deadline_ms: 0,
            priority: priority::NORMAL,
            pairs: vec![(1, 2), (3, 4)],
        };
        let full = encode_batch(&req);
        assert!(decode_batch(&full[..full.len() - 3]).is_err());
        // Trailing garbage.
        let mut extended = full.clone();
        extended.push(0);
        assert!(decode_batch(&extended).is_err());
    }

    #[test]
    fn bad_priority_rejected() {
        let mut p = encode_batch(&BatchRequest {
            deadline_ms: 0,
            priority: priority::NORMAL,
            pairs: vec![],
        });
        p[4] = 7;
        assert!(decode_batch(&p).is_err());
    }

    #[test]
    fn result_payloads_roundtrip() {
        let answers = vec![true, false, true];
        assert_eq!(
            decode_query_ok(&encode_query_ok(9, &answers)),
            Ok((9, answers))
        );
        let wits = vec![Some(4u32), None, Some(0)];
        assert_eq!(
            decode_witness_ok(&encode_witness_ok(2, &wits)),
            Ok((2, wits))
        );
        assert_eq!(decode_reload_ok(&encode_reload_ok(17)), Ok(17));
        assert_eq!(
            decode_reload(&encode_reload("/tmp/x.ridx")).as_deref(),
            Ok("/tmp/x.ridx")
        );
        let stats = WireStats {
            generation: 1,
            submitted: 2,
            answered: 3,
            rejected: 4,
            shed: 5,
            cache_hits: 6,
            cache_misses: 7,
            swaps: 8,
            connections: 9,
        };
        assert_eq!(decode_stats_ok(&encode_stats_ok(&stats)), Ok(stats));
    }

    #[test]
    fn error_payloads_roundtrip_and_classify() {
        let p = encode_error(ErrorCode::QuotaExceeded, "slow down");
        let (raw, code, msg) = decode_error(&p).unwrap();
        assert_eq!(raw, 16);
        assert_eq!(code, Some(ErrorCode::QuotaExceeded));
        assert_eq!(msg, "slow down");
        assert!(ErrorCode::QuotaExceeded.is_retryable());
        assert!(!ErrorCode::QuotaExceeded.is_fatal());
        assert!(ErrorCode::FrameTooLarge.is_fatal());
        assert!(!ErrorCode::InvalidVertex.is_retryable());
        // Unknown code from a newer peer decodes raw.
        let (raw, code, _) = decode_error(&encode_error_raw(999, "future")).unwrap();
        assert_eq!(raw, 999);
        assert_eq!(code, None);
    }

    fn encode_error_raw(code: u16, message: &str) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&code.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(message.len() as u32).to_le_bytes());
        out.extend_from_slice(message.as_bytes());
        out
    }

    #[test]
    fn serve_errors_map_to_codes() {
        let cases: Vec<(ServeError, ErrorCode)> = vec![
            (
                ServeError::Overloaded {
                    shard: 0,
                    capacity: 1,
                },
                ErrorCode::Overloaded,
            ),
            (ServeError::DeadlineExceeded, ErrorCode::DeadlineExceeded),
            (
                ServeError::InvalidVertex {
                    vertex: 3,
                    num_vertices: 2,
                },
                ErrorCode::InvalidVertex,
            ),
            (ServeError::ShuttingDown, ErrorCode::ShuttingDown),
            (
                ServeError::Degraded {
                    tier: reach_serve::DegradeTier::SheddingLow,
                },
                ErrorCode::Degraded,
            ),
            (
                ServeError::SwapFailed { generation: 1 },
                ErrorCode::SwapFailed,
            ),
        ];
        for (err, want) in cases {
            let (code, msg) = ErrorCode::from_serve_error(&err);
            assert_eq!(code, want);
            assert!(!msg.is_empty());
        }
    }
}
