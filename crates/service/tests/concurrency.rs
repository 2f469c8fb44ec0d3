//! Concurrency and pipelining stress tests: many connections × many
//! pipelined requests, adversarial byte-by-byte writes, out-of-order
//! completion, and graceful drain under pipelined load.

use std::collections::HashMap;
use std::io::Write;
use std::time::Duration;

use codense_core::EncodingKind;
use codense_service::protocol::encode_frame;
use codense_service::{
    serve, Client, CompressRequest, ErrorCode, Op, PipelinedClient, ServeOptions,
};

mod common;
use common::expected_container;

/// A distinct small module per (connection, request) pair: base repetition
/// plus a differentiating instruction, so every request has its own cache
/// key and its own expected container.
fn module_for(tag: u32) -> codense_obj::ObjectModule {
    common::module("concurrency-test", 12, Some(tag))
}

fn request_for(module: &codense_obj::ObjectModule) -> CompressRequest {
    common::request(module, EncodingKind::NibbleAligned)
}

/// N connections × M pipelined requests each, written to the socket in
/// tiny adversarial chunks: every response must arrive, be matched by
/// request id (completion order is not request order), and byte-match the
/// in-process compression of that id's module.
#[test]
fn pipelined_requests_across_connections_all_complete_and_byte_match() {
    const CONNS: u32 = 8;
    const PER_CONN: u32 = 16;
    let handle = serve(&ServeOptions {
        jobs: 4,
        queue_depth: (CONNS * PER_CONN) as usize,
        timeout_ms: 60_000,
        ..Default::default()
    })
    .unwrap();
    let addr = handle.addr();

    std::thread::scope(|scope| {
        for c in 0..CONNS {
            scope.spawn(move || {
                // Distinct module (and expected bytes) per request id.
                let mut expect: HashMap<u32, Vec<u8>> = HashMap::new();
                let mut wire = Vec::new();
                let mut sender = PipelinedClient::connect(addr, 60_000).unwrap();
                for r in 0..PER_CONN {
                    let id = r + 1;
                    let module = module_for(c * 1000 + r);
                    let req = request_for(&module);
                    expect.insert(id, expected_container(&module, &req));
                    wire.extend_from_slice(&codense_service::protocol::encode_frame(
                        Op::ReqCompress,
                        id,
                        &req.encode(),
                    ));
                }

                let mut receiver = sender.try_clone().unwrap();
                let reader = scope.spawn(move || {
                    let mut got: HashMap<u32, Vec<u8>> = HashMap::new();
                    while got.len() < PER_CONN as usize {
                        let frame = receiver
                            .recv()
                            .expect("well-formed response")
                            .expect("server must answer every pipelined request");
                        assert_eq!(frame.op, Op::RespOk, "conn {c}: id {}", frame.request_id);
                        let prev = got.insert(frame.request_id, frame.payload);
                        assert!(prev.is_none(), "conn {c}: id {} answered twice", frame.request_id);
                    }
                    got
                });

                // Byte-by-byte writes: frame boundaries never align with
                // socket writes, so the server's incremental parser sees
                // every possible split.
                for chunk in wire.chunks(1) {
                    sender.stream_write_all(chunk);
                }
                let got = reader.join().unwrap();
                for (id, expected) in &expect {
                    assert_eq!(
                        got.get(id),
                        Some(expected),
                        "conn {c}: id {id} bytes differ from in-process compression"
                    );
                }
            });
        }
    });
    drop(handle);
}

/// Graceful drain with pipelined work in flight: every already-sent
/// request is answered (completed or refused as SHUTTING_DOWN, never
/// dropped), and the server then exits.
#[test]
fn graceful_drain_answers_every_pipelined_request() {
    const PER_CONN: u32 = 4;
    let handle =
        serve(&ServeOptions { jobs: 1, timeout_ms: 60_000, ..Default::default() }).unwrap();
    let addr = handle.addr();

    let module = codense_codegen::benchmark("compress", codense_obj::IsaId::Ppc).unwrap();
    let req = request_for(&module);
    let expected = expected_container(&module, &req);

    let conns: Vec<_> = (0..2)
        .map(|_| {
            let mut sender = PipelinedClient::connect(addr, 60_000).unwrap();
            for id in 1..=PER_CONN {
                sender.send_compress(id, &req).unwrap();
            }
            sender
        })
        .collect();

    // Let the frames reach the reactor, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    Client::connect(addr, 10_000).unwrap().shutdown().unwrap();

    for (c, mut conn) in conns.into_iter().enumerate() {
        let mut answered = 0;
        while let Some(frame) = conn.recv().expect("well-formed response") {
            answered += 1;
            match frame.op {
                Op::RespOk => assert_eq!(frame.payload, expected, "conn {c}"),
                Op::RespErr => {
                    let (code, _) = codense_service::protocol::decode_error(&frame.payload)
                        .expect("decodable error");
                    assert_eq!(code, ErrorCode::ShuttingDown, "conn {c}");
                }
                other => panic!("conn {c}: unexpected response {other:?}"),
            }
        }
        assert_eq!(answered, PER_CONN, "conn {c}: every pipelined request is answered");
    }
    handle.join();
}

/// One pipelined connection mixing inline ops and compressions: pings
/// answer immediately (ahead of slower compressions sent before them),
/// which is the out-of-order completion contract in its simplest form.
#[test]
fn inline_ops_overtake_in_flight_compressions() {
    let handle = serve(&ServeOptions { jobs: 1, ..Default::default() }).unwrap();
    let module = codense_codegen::benchmark("compress", codense_obj::IsaId::Ppc).unwrap();
    let req = request_for(&module);
    let expected = expected_container(&module, &req);

    // Both frames go out in one write, so the reactor parses the ping in
    // the same pass that dispatches the compression, before it can apply
    // any completion: a fast compression cannot be answered first.
    let mut conn = PipelinedClient::connect(handle.addr(), 60_000).unwrap();
    let mut frames = encode_frame(Op::ReqCompress, 1, &req.encode());
    frames.extend(encode_frame(Op::ReqPing, 2, b""));
    conn.raw_stream().write_all(&frames).unwrap();

    let first = conn.recv().unwrap().expect("a response");
    assert_eq!(
        (first.op, first.request_id),
        (Op::RespPong, 2),
        "the ping must not wait behind the in-flight compression"
    );
    let second = conn.recv().unwrap().expect("the compression completes");
    assert_eq!((second.op, second.request_id), (Op::RespOk, 1));
    assert_eq!(second.payload, expected);
    drop(handle);
}

/// Helper extension: write a raw chunk through the pipelined client's
/// socket (the stress test writes sub-frame chunks directly).
trait RawWrite {
    fn stream_write_all(&mut self, chunk: &[u8]);
}

impl RawWrite for PipelinedClient {
    fn stream_write_all(&mut self, chunk: &[u8]) {
        self.raw_stream().write_all(chunk).unwrap();
    }
}
