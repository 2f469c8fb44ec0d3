//! The serve frame protocol: length-prefixed, CRC-checked binary frames
//! with per-request correlation ids (protocol version 2).
//!
//! Wire layout of one frame (all integers big-endian, matching the `.cdm` /
//! `.cdns` formats):
//!
//! ```text
//! u32  length      covers everything after this field: op + id + payload + crc
//! u8   op          frame type (see [`Op`])
//! u32  request_id  client-chosen correlation id, echoed by the response
//! ...  payload     op-specific body
//! u32  crc         CRC-32 (IEEE) over op + request_id + payload
//! ```
//!
//! The request id is what makes pipelining work: a connection may have many
//! requests in flight, and responses — which may complete **out of order**
//! — carry the id of the request they answer. Ids must be unique among a
//! connection's in-flight requests (a reuse is answered with the typed
//! `DUPLICATE_ID` error); id `0` is legal but is also what the server
//! echoes for errors it cannot attribute to a parsed request, so clients
//! that want unambiguous attribution should start at 1.
//!
//! A `REQ_COMPRESS` payload is:
//!
//! ```text
//! u8   codec          EncodingKind tag: 0 baseline, 1 onebyte, 2 nibble, 3 huffman
//! u8   selector       SelectorKind tag: 0 greedy, 1 refine
//! u16  max_entry_len  maximum instructions per dictionary entry
//! u32  max_codewords  0 = the encoding's full codeword space
//! ...  module         a serialized `.cdm` ObjectModule
//! ```
//!
//! An unknown codec or selector tag is malformed (`BAD_FRAME`). (The
//! selector byte was the must-be-zero reserved byte of early v2 frames;
//! greedy = 0 keeps those frames decoding identically.)
//!
//! The matching `RESP_OK` payload is the serialized `.cdns` container.
//! A `RESP_ERR` payload is `u8 code | u16 msg_len | msg` (see
//! [`ErrorCode`]).
//!
//! **Resynchronization contract.** The length prefix frames the stream, so
//! most malformed frames do not cost the connection: as long as the length
//! field itself is trustworthy (`<=` [`MAX_FRAME`]), the server can skip
//! exactly the bad frame's bytes, answer a typed `RESP_ERR`, and keep
//! parsing at the next frame boundary. Only an oversized length field (the
//! framing can no longer be trusted) or an EOF in the middle of a frame is
//! terminal for the connection. [`parse_frame`] encodes this contract in
//! its return type; the protocol-conformance suite pins it case by case.

use std::fmt;
use std::io::{self, Read, Write};
use std::ops::Range;

use codense_core::{CompressionConfig, EncodingKind, SelectorKind};
use codense_obj::crc32::crc32;

/// Largest accepted frame (length field bound): 64 MiB.
pub const MAX_FRAME: u32 = 64 << 20;

/// Smallest well-formed length field: op + request id + CRC.
pub const MIN_FRAME: u32 = 1 + 4 + 4;

/// Frame types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Op {
    /// Compress a module (request).
    ReqCompress = 0x01,
    /// Fetch the schema-1 telemetry JSON (request).
    ReqMetrics = 0x02,
    /// Liveness probe (request).
    ReqPing = 0x03,
    /// Begin graceful shutdown (request).
    ReqShutdown = 0x04,
    /// Compression succeeded; payload is the `.cdns` container (response).
    RespOk = 0x81,
    /// Payload is the schema-1 telemetry JSON (response).
    RespMetrics = 0x82,
    /// Liveness / shutdown acknowledgement (response).
    RespPong = 0x83,
    /// Typed failure; payload is `code | msg_len | msg` (response).
    RespErr = 0x7f,
}

impl Op {
    /// Decodes a wire op byte.
    pub fn from_u8(b: u8) -> Option<Op> {
        match b {
            0x01 => Some(Op::ReqCompress),
            0x02 => Some(Op::ReqMetrics),
            0x03 => Some(Op::ReqPing),
            0x04 => Some(Op::ReqShutdown),
            0x81 => Some(Op::RespOk),
            0x82 => Some(Op::RespMetrics),
            0x83 => Some(Op::RespPong),
            0x7f => Some(Op::RespErr),
            _ => None,
        }
    }
}

/// Typed request-failure codes carried by [`Op::RespErr`] frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame failed to parse (bad CRC, truncation, unknown op, short
    /// payload), or a request body's fixed header was malformed.
    BadFrame = 1,
    /// The `.cdm` module bytes failed to deserialize or validate.
    BadModule = 2,
    /// Compression returned a typed `CompressError`.
    CompressFailed = 3,
    /// The bounded work queue is full; retry later.
    Busy = 4,
    /// The request missed its completion deadline.
    Deadline = 5,
    /// The frame length exceeds [`MAX_FRAME`].
    TooLarge = 6,
    /// The server is draining; no new work is accepted.
    ShuttingDown = 7,
    /// The request id is already in flight on this connection.
    DuplicateId = 8,
}

impl ErrorCode {
    /// Decodes a wire error-code byte.
    pub fn from_u8(b: u8) -> Option<ErrorCode> {
        match b {
            1 => Some(ErrorCode::BadFrame),
            2 => Some(ErrorCode::BadModule),
            3 => Some(ErrorCode::CompressFailed),
            4 => Some(ErrorCode::Busy),
            5 => Some(ErrorCode::Deadline),
            6 => Some(ErrorCode::TooLarge),
            7 => Some(ErrorCode::ShuttingDown),
            8 => Some(ErrorCode::DuplicateId),
            _ => None,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::BadFrame => "BAD_FRAME",
            ErrorCode::BadModule => "BAD_MODULE",
            ErrorCode::CompressFailed => "COMPRESS_FAILED",
            ErrorCode::Busy => "BUSY",
            ErrorCode::Deadline => "DEADLINE",
            ErrorCode::TooLarge => "TOO_LARGE",
            ErrorCode::ShuttingDown => "SHUTTING_DOWN",
            ErrorCode::DuplicateId => "DUPLICATE_ID",
        };
        f.write_str(s)
    }
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (including read/write timeouts and an
    /// EOF in the middle of a frame).
    Io(io::Error),
    /// The length field exceeds [`MAX_FRAME`].
    TooLarge(u32),
    /// The length field is shorter than op + request id + CRC.
    TooShort(u32),
    /// The trailing CRC-32 does not match the frame body.
    BadCrc {
        /// CRC carried by the frame.
        got: u32,
        /// CRC computed over the received body.
        want: u32,
    },
    /// The op byte is not a known frame type.
    UnknownOp(u8),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "socket error: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame length {n} exceeds {MAX_FRAME}"),
            FrameError::TooShort(n) => write!(f, "frame length {n} below minimum {MIN_FRAME}"),
            FrameError::BadCrc { got, want } => {
                write!(f, "frame crc {got:#010x}, computed {want:#010x}")
            }
            FrameError::UnknownOp(b) => write!(f, "unknown frame op {b:#04x}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl FrameError {
    /// The error frame the server answers with for this parse failure, or
    /// `None` when the connection is beyond answering (socket error).
    pub fn response_code(&self) -> Option<ErrorCode> {
        match self {
            FrameError::Io(_) => None,
            FrameError::TooLarge(_) => Some(ErrorCode::TooLarge),
            FrameError::TooShort(_) | FrameError::BadCrc { .. } | FrameError::UnknownOp(_) => {
                Some(ErrorCode::BadFrame)
            }
        }
    }
}

/// One parsed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame type.
    pub op: Op,
    /// The correlation id this frame carries (echoed on responses).
    pub request_id: u32,
    /// Op-specific body.
    pub payload: Vec<u8>,
}

/// Encodes one frame into a standalone byte vector.
pub fn encode_frame(op: Op, request_id: u32, payload: &[u8]) -> Vec<u8> {
    let len = 1 + 4 + payload.len() + 4;
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.push(op as u8);
    frame.extend_from_slice(&request_id.to_be_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame[4..]);
    frame.extend_from_slice(&crc.to_be_bytes());
    frame
}

/// Writes one frame. Returns the total bytes put on the wire.
pub fn write_frame(w: &mut impl Write, op: Op, request_id: u32, payload: &[u8]) -> io::Result<u64> {
    let frame = encode_frame(op, request_id, payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len() as u64)
}

/// Outcome of attempting to parse one frame from the front of a buffer.
///
/// This is the reactor's incremental interface: bytes accumulate in a
/// per-connection buffer and are offered to [`parse_frame`] until it
/// reports [`ParseOutcome::Incomplete`].
#[derive(Debug)]
pub enum ParseOutcome {
    /// The buffer does not yet hold a whole frame; read more bytes.
    Incomplete,
    /// A well-formed frame; `consumed` bytes were used from the buffer.
    Frame {
        /// The parsed frame.
        frame: Frame,
        /// Bytes consumed from the front of the buffer.
        consumed: usize,
    },
    /// A malformed frame whose length field is still trustworthy. The
    /// caller answers with the typed error (echoing `request_id` when one
    /// survived the damage, 0 otherwise), skips `consumed` bytes, and keeps
    /// the connection: the next frame boundary is known.
    Bad {
        /// What was wrong with the frame.
        err: FrameError,
        /// Best-effort id recovered from the bad frame (0 when none).
        request_id: u32,
        /// Bytes to skip to resynchronize on the next frame boundary.
        consumed: usize,
    },
    /// The framing itself is untrustworthy (length field over
    /// [`MAX_FRAME`]): answer the typed error, then close the connection.
    Fatal {
        /// What was wrong with the stream.
        err: FrameError,
    },
}

/// Attempts to parse one frame from the front of `buf`. Never blocks and
/// never consumes implicitly — the caller drains `consumed` bytes itself.
pub fn parse_frame(buf: &[u8]) -> ParseOutcome {
    let Some(len) = buf.get(..4) else { return ParseOutcome::Incomplete };
    let len = u32::from_be_bytes(len.try_into().expect("4 bytes"));
    if len > MAX_FRAME {
        return ParseOutcome::Fatal { err: FrameError::TooLarge(len) };
    }
    let consumed = 4 + len as usize;
    let Some(body) = buf.get(4..consumed) else { return ParseOutcome::Incomplete };
    match check_body(body) {
        Ok((op, request_id, payload)) => ParseOutcome::Frame {
            frame: Frame { op, request_id, payload: body[payload].to_vec() },
            consumed,
        },
        // The declared extent is still skippable: resynchronize past it.
        Err((err, request_id)) => ParseOutcome::Bad { err, request_id, consumed },
    }
}

/// Reads one frame from a blocking stream. `Ok(None)` is a clean end of
/// stream (the peer closed between frames); any partial or corrupt frame is
/// a typed [`FrameError`]. The second tuple field is the total bytes
/// consumed from the wire.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(Frame, u64)>, FrameError> {
    let mut len_buf = [0u8; 4];
    match r.read(&mut len_buf).map_err(FrameError::Io)? {
        0 => return Ok(None),
        mut got => {
            while got < 4 {
                let n = r.read(&mut len_buf[got..]).map_err(FrameError::Io)?;
                if n == 0 {
                    return Err(FrameError::Io(io::ErrorKind::UnexpectedEof.into()));
                }
                got += n;
            }
        }
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut body = vec![0u8; len as usize];
    // A body below the minimum is refused unread, by its length alone.
    if len >= MIN_FRAME {
        r.read_exact(&mut body).map_err(FrameError::Io)?;
    }
    let (op, request_id, payload) = check_body(&body).map_err(|(err, _)| err)?;
    body.truncate(payload.end);
    body.drain(..payload.start);
    Ok(Some((Frame { op, request_id, payload: body }, 4 + len as u64)))
}

/// Checks a frame body, the `len <= MAX_FRAME` bytes after its length
/// field: the minimum length, the CRC, then the op. Returns the op, the
/// request id and the payload's range in `body`. An error carries the
/// best-effort request id: 0 when the body is too short to hold one, and
/// possibly damaged when the CRC does not match.
fn check_body(body: &[u8]) -> Result<(Op, u32, Range<usize>), (FrameError, u32)> {
    if body.len() < MIN_FRAME as usize {
        return Err((FrameError::TooShort(body.len() as u32), 0));
    }
    let crc_at = body.len() - 4;
    let request_id = u32::from_be_bytes(body[1..5].try_into().expect("4 bytes"));
    let got = u32::from_be_bytes(body[crc_at..].try_into().expect("4 bytes"));
    let want = crc32(&body[..crc_at]);
    if got != want {
        return Err((FrameError::BadCrc { got, want }, request_id));
    }
    let op = Op::from_u8(body[0]).ok_or((FrameError::UnknownOp(body[0]), request_id))?;
    Ok((op, request_id, 5..crc_at))
}

/// Encodes an [`Op::RespErr`] payload.
pub fn encode_error(code: ErrorCode, msg: &str) -> Vec<u8> {
    let msg = &msg.as_bytes()[..msg.len().min(u16::MAX as usize)];
    let mut out = Vec::with_capacity(3 + msg.len());
    out.push(code as u8);
    out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    out.extend_from_slice(msg);
    out
}

/// Decodes an [`Op::RespErr`] payload.
pub fn decode_error(payload: &[u8]) -> Option<(ErrorCode, String)> {
    if payload.len() < 3 {
        return None;
    }
    let code = ErrorCode::from_u8(payload[0])?;
    let len = u16::from_be_bytes([payload[1], payload[2]]) as usize;
    let msg = payload.get(3..3 + len)?;
    Some((code, String::from_utf8_lossy(msg).into_owned()))
}

/// A parsed `REQ_COMPRESS` body: compression parameters plus the serialized
/// module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressRequest {
    /// Codeword encoding to compress under (wire byte: its tag).
    pub encoding: EncodingKind,
    /// Dictionary selection strategy (wire byte: its tag).
    pub selector: SelectorKind,
    /// Maximum instructions per dictionary entry.
    pub max_entry_len: u16,
    /// Dictionary size cap; 0 selects the encoding's full codeword space.
    pub max_codewords: u32,
    /// The serialized `.cdm` module.
    pub module: Vec<u8>,
}

impl CompressRequest {
    /// Encodes the request into a `REQ_COMPRESS` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.module.len());
        out.extend_from_slice(&[self.encoding.tag(), self.selector.tag()]);
        out.extend_from_slice(&self.max_entry_len.to_be_bytes());
        out.extend_from_slice(&self.max_codewords.to_be_bytes());
        out.extend_from_slice(&self.module);
        out
    }

    /// Decodes a `REQ_COMPRESS` frame payload. The error is the message a
    /// `BAD_FRAME` answer carries.
    pub fn decode(payload: &[u8]) -> Result<CompressRequest, String> {
        if payload.len() < 8 {
            return Err(format!("compress request header needs 8 bytes, got {}", payload.len()));
        }
        let encoding = EncodingKind::from_tag(payload[0])
            .ok_or_else(|| format!("unknown codec tag {}", payload[0]))?;
        let selector = SelectorKind::from_tag(payload[1]).ok_or_else(|| {
            format!("selector byte must be 0 (greedy) or 1 (refine), got {}", payload[1])
        })?;
        let max_entry_len = u16::from_be_bytes([payload[2], payload[3]]);
        if max_entry_len == 0 {
            return Err("max_entry_len must be >= 1".into());
        }
        let max_codewords = u32::from_be_bytes(payload[4..8].try_into().expect("4 bytes"));
        Ok(CompressRequest {
            encoding,
            selector,
            max_entry_len,
            max_codewords,
            module: payload[8..].to_vec(),
        })
    }

    /// The [`CompressionConfig`] this request selects (0 codewords = the
    /// encoding's full space; the compressor clamps oversized values).
    pub fn config(&self) -> CompressionConfig {
        CompressionConfig {
            max_entry_len: self.max_entry_len as usize,
            max_codewords: if self.max_codewords == 0 {
                self.encoding.capacity()
            } else {
                self.max_codewords as usize
            },
            encoding: self.encoding,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        let wrote = write_frame(&mut wire, Op::ReqCompress, 7, b"payload").unwrap();
        assert_eq!(wrote, wire.len() as u64);
        let mut r = &wire[..];
        let (frame, read) = read_frame(&mut r).unwrap().unwrap();
        assert_eq!(frame.op, Op::ReqCompress);
        assert_eq!(frame.request_id, 7);
        assert_eq!(frame.payload, b"payload");
        assert_eq!(read, wrote);
        // Stream is exactly consumed: next read is a clean EOF.
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn incremental_parser_agrees_with_blocking_reader() {
        let wire = encode_frame(Op::ReqPing, 42, b"abc");
        // Every strict prefix is Incomplete.
        for cut in 0..wire.len() {
            assert!(
                matches!(parse_frame(&wire[..cut]), ParseOutcome::Incomplete),
                "prefix of {cut} bytes should be incomplete"
            );
        }
        match parse_frame(&wire) {
            ParseOutcome::Frame { frame, consumed } => {
                assert_eq!(consumed, wire.len());
                assert_eq!(frame.op, Op::ReqPing);
                assert_eq!(frame.request_id, 42);
                assert_eq!(frame.payload, b"abc");
            }
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn parser_resynchronizes_past_a_bad_crc() {
        let mut wire = encode_frame(Op::ReqPing, 1, b"");
        let bad_at = wire.len() - 1;
        wire[bad_at] ^= 0xff; // corrupt the CRC
        let good = encode_frame(Op::ReqPing, 2, b"");
        wire.extend_from_slice(&good);
        let (bad_consumed, id) = match parse_frame(&wire) {
            ParseOutcome::Bad { err: FrameError::BadCrc { .. }, request_id, consumed } => {
                (consumed, request_id)
            }
            other => panic!("expected BadCrc, got {other:?}"),
        };
        assert_eq!(id, 1, "id is recoverable when the damage missed it");
        match parse_frame(&wire[bad_consumed..]) {
            ParseOutcome::Frame { frame, .. } => assert_eq!(frame.request_id, 2),
            other => panic!("expected the good frame after resync, got {other:?}"),
        }
    }

    #[test]
    fn parser_treats_oversized_length_as_fatal() {
        let mut wire = (MAX_FRAME + 1).to_be_bytes().to_vec();
        wire.extend_from_slice(&[0; 16]);
        assert!(matches!(parse_frame(&wire), ParseOutcome::Fatal { err: FrameError::TooLarge(_) }));
    }

    #[test]
    fn parser_skips_short_length_frames() {
        // length 3 < MIN_FRAME but the 3 declared bytes are skippable.
        let mut wire = 3u32.to_be_bytes().to_vec();
        wire.extend_from_slice(&[9, 9, 9]);
        let good = encode_frame(Op::ReqPing, 5, b"");
        wire.extend_from_slice(&good);
        match parse_frame(&wire) {
            ParseOutcome::Bad { err: FrameError::TooShort(3), request_id: 0, consumed } => {
                assert_eq!(consumed, 7);
                match parse_frame(&wire[consumed..]) {
                    ParseOutcome::Frame { frame, .. } => assert_eq!(frame.request_id, 5),
                    other => panic!("expected resync, got {other:?}"),
                }
            }
            other => panic!("expected TooShort, got {other:?}"),
        }
    }

    #[test]
    fn crc_flip_is_detected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Op::ReqPing, 3, b"").unwrap();
        for bit in 0..8 {
            for i in 4..wire.len() {
                let mut bad = wire.clone();
                bad[i] ^= 1 << bit;
                let err = read_frame(&mut &bad[..]).unwrap_err();
                assert!(
                    matches!(err, FrameError::BadCrc { .. } | FrameError::UnknownOp(_)),
                    "flip at {i}.{bit}: {err}"
                );
            }
        }
    }

    #[test]
    fn hostile_lengths_are_typed_errors() {
        let too_large = (MAX_FRAME + 1).to_be_bytes();
        assert!(matches!(read_frame(&mut &too_large[..]), Err(FrameError::TooLarge(_))));
        let too_short = 2u32.to_be_bytes();
        assert!(matches!(read_frame(&mut &too_short[..]), Err(FrameError::TooShort(2))));
        let truncated = [0, 0, 0, 64, 1, 2, 3];
        assert!(matches!(read_frame(&mut &truncated[..]), Err(FrameError::Io(_))));
    }

    #[test]
    fn compress_request_roundtrips() {
        for (encoding, selector) in [
            (EncodingKind::NibbleAligned, SelectorKind::Greedy),
            (EncodingKind::Huffman, SelectorKind::Refine),
        ] {
            let req = CompressRequest {
                encoding,
                selector,
                max_entry_len: 4,
                max_codewords: 0,
                module: vec![1, 2, 3, 4, 5],
            };
            assert_eq!(CompressRequest::decode(&req.encode()).unwrap(), req);
            assert_eq!(req.config().max_codewords, encoding.capacity());
            assert_eq!(req.config().max_entry_len, 4);
        }
    }

    #[test]
    fn unknown_codec_tags_are_malformed() {
        // Tag 4 is the first past `EncodingKind::ALL`.
        for tag in [4u8, 99] {
            let err = CompressRequest::decode(&[tag, 0, 0, 4, 0, 0, 0, 0]).unwrap_err();
            assert_eq!(err, format!("unknown codec tag {tag}"));
        }
    }

    #[test]
    fn huffman_tag_is_servable_on_the_wire() {
        let mut payload = vec![3u8, 0, 0, 4, 0, 0, 0, 0];
        payload.extend_from_slice(b"module");
        let req = CompressRequest::decode(&payload).unwrap();
        assert_eq!(req.encoding, EncodingKind::Huffman);
        assert_eq!(req.selector, SelectorKind::Greedy);
    }

    #[test]
    fn selector_byte_out_of_range_is_malformed() {
        // Byte 1 was the must-be-zero reserved byte; 0 and 1 now select,
        // anything else stays a typed BAD_FRAME.
        assert!(CompressRequest::decode(&[2, 2, 0, 4, 0, 0, 0, 0]).is_err());
        let refined = CompressRequest::decode(&[2, 1, 0, 4, 0, 0, 0, 0]).unwrap();
        assert_eq!(refined.selector, SelectorKind::Refine);
    }

    #[test]
    fn error_payloads_roundtrip() {
        for code in [
            ErrorCode::BadFrame,
            ErrorCode::BadModule,
            ErrorCode::CompressFailed,
            ErrorCode::Busy,
            ErrorCode::Deadline,
            ErrorCode::TooLarge,
            ErrorCode::ShuttingDown,
            ErrorCode::DuplicateId,
        ] {
            let payload = encode_error(code, "why it failed");
            assert_eq!(decode_error(&payload), Some((code, "why it failed".to_owned())));
        }
        assert_eq!(decode_error(&[]), None);
        assert_eq!(decode_error(&[99, 0, 0]), None, "unknown code");
    }
}
