//! Protocol-conformance suite: the full op × corruption matrix against a
//! live server. Every malformed frame must produce the documented typed
//! `RESP_ERR` — and the connection must survive every error whose frame
//! boundary is still known (only an untrustworthy length prefix or EOF
//! inside a frame closes it).

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use codense_core::EncodingKind;
use codense_obj::crc32::crc32;
use codense_service::protocol::{
    decode_error, encode_frame, read_frame, Frame, FrameError, MAX_FRAME,
};
use codense_service::{serve, Client, CompressRequest, ErrorCode, Op, RequestError, ServeOptions};

mod common;
use common::request;

fn small_module() -> codense_obj::ObjectModule {
    common::module("protocol-test", 16, None)
}

fn compress_request() -> CompressRequest {
    request(&small_module(), EncodingKind::NibbleAligned)
}

fn connect(addr: &std::net::SocketAddr) -> TcpStream {
    let stream = TcpStream::connect_timeout(addr, Duration::from_millis(2000)).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(5000))).unwrap();
    stream.set_write_timeout(Some(Duration::from_millis(5000))).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
}

fn recv(stream: &TcpStream) -> Option<Frame> {
    match read_frame(&mut &*stream) {
        Ok(frame) => frame.map(|(f, _)| f),
        Err(e) => panic!("server sent a corrupt frame: {e}"),
    }
}

fn expect_err(frame: &Frame, code: ErrorCode) -> String {
    assert_eq!(frame.op, Op::RespErr, "expected RESP_ERR, got {:?}", frame.op);
    let (got, msg) = decode_error(&frame.payload).expect("decodable error payload");
    assert_eq!(got, code, "wrong error code ({msg})");
    msg
}

/// A well-formed frame with an op byte outside the registry.
fn unknown_op_frame(op: u8, request_id: u32, payload: &[u8]) -> Vec<u8> {
    let len = 1 + 4 + payload.len() + 4;
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.push(op);
    frame.extend_from_slice(&request_id.to_be_bytes());
    frame.extend_from_slice(payload);
    let crc = crc32(&frame[4..]);
    frame.extend_from_slice(&crc.to_be_bytes());
    frame
}

/// Truncating any request frame at every field boundary yields the typed
/// `BAD_FRAME` "closed inside a frame" error with request id 0 (the id is
/// unrecoverable from a cut-off frame), then a close — for every REQ op.
#[test]
fn truncation_at_every_field_boundary_is_a_typed_error() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let addr = handle.addr();
    let req_payload = compress_request().encode();

    let frames: Vec<(Op, Vec<u8>)> = vec![
        (Op::ReqPing, encode_frame(Op::ReqPing, 5, b"")),
        (Op::ReqMetrics, encode_frame(Op::ReqMetrics, 5, b"")),
        (Op::ReqShutdown, encode_frame(Op::ReqShutdown, 5, b"")),
        (Op::ReqCompress, encode_frame(Op::ReqCompress, 5, &req_payload)),
    ];
    for (op, pristine) in frames {
        // Field boundaries: inside the length prefix, after it, after the
        // op byte, after the request id, inside the payload/CRC, and one
        // byte short of complete.
        let cuts = [1, 4, 5, 9, pristine.len() / 2, pristine.len() - 1];
        for cut in cuts {
            assert!(cut < pristine.len(), "{op:?}: cut {cut} is not a truncation");
            let stream = connect(&addr);
            (&stream).write_all(&pristine[..cut]).unwrap();
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let frame = recv(&stream)
                .unwrap_or_else(|| panic!("{op:?} cut at {cut}: no typed error came back"));
            expect_err(&frame, ErrorCode::BadFrame);
            assert_eq!(frame.request_id, 0, "{op:?} cut at {cut}: truncated frames echo id 0");
            assert!(recv(&stream).is_none(), "{op:?} cut at {cut}: connection must close");
        }
    }
    // A truncated SHUTDOWN never parsed, so the server must still be alive.
    Client::connect(addr, 5000).unwrap().ping().expect("server alive after truncation battery");
    drop(handle);
}

/// A CRC-damaged frame answers `BAD_FRAME` and the connection survives:
/// the length prefix still delimits the frame, so the stream resyncs.
#[test]
fn bad_crc_is_answered_and_survived_for_every_op() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let addr = handle.addr();
    let req_payload = compress_request().encode();

    for (op, payload) in [
        (Op::ReqPing, &b""[..]),
        (Op::ReqMetrics, &b""[..]),
        (Op::ReqShutdown, &b""[..]),
        (Op::ReqCompress, &req_payload[..]),
    ] {
        let mut frame = encode_frame(op, 9, payload);
        *frame.last_mut().unwrap() ^= 0xff;
        let stream = connect(&addr);
        (&stream).write_all(&frame).unwrap();
        let resp = recv(&stream).unwrap_or_else(|| panic!("{op:?}: no error frame"));
        expect_err(&resp, ErrorCode::BadFrame);
        // The op/id fields were undamaged, so the id echo is best-effort 9.
        assert_eq!(resp.request_id, 9, "{op:?}: intact id field must be echoed");

        // Same connection, follow-up request: must work. (A damaged
        // SHUTDOWN must not have drained the server either.)
        (&stream).write_all(&encode_frame(Op::ReqPing, 10, b"")).unwrap();
        let pong = recv(&stream).expect("connection survives a bad CRC");
        assert_eq!((pong.op, pong.request_id), (Op::RespPong, 10), "{op:?}");
    }
    drop(handle);
}

/// An op byte outside the registry (with a valid CRC) answers `BAD_FRAME`
/// and the connection survives.
#[test]
fn unknown_op_is_answered_and_survived() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let stream = connect(&handle.addr());
    (&stream).write_all(&unknown_op_frame(0x55, 3, b"payload")).unwrap();
    let resp = recv(&stream).expect("a typed response");
    expect_err(&resp, ErrorCode::BadFrame);
    assert_eq!(resp.request_id, 3, "valid-CRC unknown op echoes its id");

    (&stream).write_all(&encode_frame(Op::ReqPing, 4, b"")).unwrap();
    let pong = recv(&stream).expect("connection survives an unknown op");
    assert_eq!((pong.op, pong.request_id), (Op::RespPong, 4));
    drop(handle);
}

/// A length field below the frame minimum answers `BAD_FRAME`, skips the
/// declared bytes, and the connection survives.
#[test]
fn undersized_length_is_answered_and_survived() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let stream = connect(&handle.addr());
    // Length 3 declares a 3-byte body (below op+id+crc = 9); the 3 junk
    // bytes are skipped as the declared body.
    let mut bytes = 3u32.to_be_bytes().to_vec();
    bytes.extend_from_slice(b"junk"[..3].as_ref());
    (&stream).write_all(&bytes).unwrap();
    let resp = recv(&stream).expect("a typed response");
    expect_err(&resp, ErrorCode::BadFrame);
    assert_eq!(resp.request_id, 0, "no id is recoverable from a short frame");

    (&stream).write_all(&encode_frame(Op::ReqPing, 6, b"")).unwrap();
    let pong = recv(&stream).expect("connection survives an undersized length");
    assert_eq!((pong.op, pong.request_id), (Op::RespPong, 6));
    drop(handle);
}

/// A length prefix over `MAX_FRAME` is the one *fatal* corruption: the
/// typed `TOO_LARGE` error is answered, then the connection closes (the
/// stream offset can no longer be trusted).
#[test]
fn oversized_length_is_answered_then_closed() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let stream = connect(&handle.addr());
    (&stream).write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
    let resp = recv(&stream).expect("a typed response");
    expect_err(&resp, ErrorCode::TooLarge);
    assert!(recv(&stream).is_none(), "connection must close after an oversized length");
    drop(handle);
}

/// A zero-length module is a well-formed frame carrying an empty module:
/// `BAD_MODULE`, and the connection survives.
#[test]
fn zero_length_module_is_bad_module_not_a_hang() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(handle.addr(), 10_000).unwrap();
    let req = CompressRequest { module: Vec::new(), ..compress_request() };
    match client.compress(&req) {
        Err(RequestError::Rejected(ErrorCode::BadModule, _)) => {}
        other => panic!("expected BAD_MODULE, got {other:?}"),
    }
    client.ping().expect("connection survives an empty module");
    drop(handle);
}

/// A request id already in flight on the connection answers
/// `DUPLICATE_ID` (and the original request still completes).
#[test]
fn duplicate_request_id_in_flight_is_rejected() {
    let handle = serve(&ServeOptions { jobs: 1, ..Default::default() }).unwrap();
    // A heavyweight module keeps the first request in flight long enough
    // that the duplicate (sent in the same TCP segment) always lands while
    // it is outstanding.
    let module = codense_codegen::benchmark("compress", codense_obj::IsaId::Ppc).unwrap();
    let payload = request(&module, EncodingKind::NibbleAligned).encode();
    let mut two = encode_frame(Op::ReqCompress, 42, &payload);
    two.extend_from_slice(&encode_frame(Op::ReqCompress, 42, &payload));

    let stream = connect(&handle.addr());
    stream.set_read_timeout(Some(Duration::from_millis(60_000))).unwrap();
    (&stream).write_all(&two).unwrap();

    // The duplicate is rejected immediately; the original completes later.
    let first = recv(&stream).expect("a response");
    expect_err(&first, ErrorCode::DuplicateId);
    assert_eq!(first.request_id, 42);
    let second = recv(&stream).expect("the original request still completes");
    assert_eq!((second.op, second.request_id), (Op::RespOk, 42));
    drop(handle);
}

/// Pipelining across damage: good frame, bad-CRC frame, good frame in one
/// write. The responses come back in order — pong, typed error, pong —
/// because inline ops and resync errors answer in arrival order.
#[test]
fn malformed_frame_between_two_good_frames_answers_all_three_in_order() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let mut bad = encode_frame(Op::ReqPing, 2, b"");
    *bad.last_mut().unwrap() ^= 0xff;
    let mut wire = encode_frame(Op::ReqPing, 1, b"");
    wire.extend_from_slice(&bad);
    wire.extend_from_slice(&encode_frame(Op::ReqPing, 3, b""));

    let stream = connect(&handle.addr());
    (&stream).write_all(&wire).unwrap();
    let first = recv(&stream).expect("first response");
    assert_eq!((first.op, first.request_id), (Op::RespPong, 1));
    let second = recv(&stream).expect("second response");
    expect_err(&second, ErrorCode::BadFrame);
    let third = recv(&stream).expect("third response");
    assert_eq!((third.op, third.request_id), (Op::RespPong, 3));
    drop(handle);
}

/// A compressor error answers `COMPRESS_FAILED` and the connection
/// survives. The module validates, but its first word has opcode 0, an
/// escape byte the baseline encoding cannot store.
#[test]
fn compressor_error_is_compress_failed() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let mut module = small_module();
    module.code[0] = 0x0000_0000;
    let payload = request(&module, EncodingKind::Baseline).encode();

    let stream = connect(&handle.addr());
    (&stream).write_all(&encode_frame(Op::ReqCompress, 11, &payload)).unwrap();
    let resp = recv(&stream).expect("a typed response");
    let msg = expect_err(&resp, ErrorCode::CompressFailed);
    assert!(msg.contains("reserved escape opcode"), "{msg}");
    assert_eq!(resp.request_id, 11);

    (&stream).write_all(&encode_frame(Op::ReqPing, 12, b"")).unwrap();
    let pong = recv(&stream).expect("connection survives a compressor error");
    assert_eq!((pong.op, pong.request_id), (Op::RespPong, 12));
    drop(handle);
}

/// A codec tag no `EncodingKind` has is a malformed request: `BAD_FRAME`,
/// and the connection survives. Tag 4 is one past `EncodingKind::ALL`.
#[test]
fn unregistered_codec_tag_is_bad_frame() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let stream = connect(&handle.addr());
    for (id, tag) in [(13, 4u8), (14, 99)] {
        let mut payload = compress_request().encode();
        payload[0] = tag;
        (&stream).write_all(&encode_frame(Op::ReqCompress, id, &payload)).unwrap();
        let resp = recv(&stream).expect("a typed response");
        let msg = expect_err(&resp, ErrorCode::BadFrame);
        assert_eq!(msg, format!("unknown codec tag {tag}"));
        assert_eq!(resp.request_id, id);
    }
    (&stream).write_all(&encode_frame(Op::ReqPing, 15, b"")).unwrap();
    let pong = recv(&stream).expect("connection survives an unknown codec tag");
    assert_eq!((pong.op, pong.request_id), (Op::RespPong, 15));
    drop(handle);
}

/// The `FrameError::response_code` contract: every recoverable parse error
/// maps to `BAD_FRAME`, the fatal one to `TOO_LARGE`, socket errors to
/// nothing.
#[test]
fn frame_error_response_codes_are_documented() {
    assert_eq!(FrameError::TooLarge(MAX_FRAME + 1).response_code(), Some(ErrorCode::TooLarge));
    assert_eq!(FrameError::TooShort(3).response_code(), Some(ErrorCode::BadFrame));
    assert_eq!(FrameError::BadCrc { got: 1, want: 2 }.response_code(), Some(ErrorCode::BadFrame));
    assert_eq!(FrameError::UnknownOp(0x55).response_code(), Some(ErrorCode::BadFrame));
    assert_eq!(FrameError::Io(std::io::ErrorKind::TimedOut.into()).response_code(), None);
}
