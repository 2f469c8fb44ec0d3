//! End-to-end tests for the batch-compression server: byte identity with
//! in-process compression, BUSY backpressure, graceful drain, and the
//! malformed-frame battery (reusing the fuzz crate's corruption patterns).

use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use codense_core::EncodingKind;
use codense_service::protocol::{decode_error, read_frame, write_frame, FrameError, MAX_FRAME};
use codense_service::{serve, Client, CompressRequest, ErrorCode, Op, RequestError, ServeOptions};

mod common;
use common::{expected_container, request};

fn small_module() -> codense_obj::ObjectModule {
    common::module("serve-test", 16, None)
}

#[test]
fn served_results_are_byte_identical_to_in_process_compression() {
    let handle = serve(&ServeOptions { jobs: 2, ..Default::default() }).unwrap();
    let addr = handle.addr().to_string();

    for bench in ["compress", "li"] {
        let module =
            codense_codegen::benchmark(bench, codense_obj::IsaId::Ppc).expect("known benchmark");
        for encoding in EncodingKind::ALL {
            let req = request(&module, encoding);
            let expected = expected_container(&module, &req);
            let mut client = Client::connect(addr.as_str(), 60_000).unwrap();
            let served = client
                .compress(&req)
                .unwrap_or_else(|e| panic!("{bench}/{encoding:?}: request failed: {e}"));
            assert_eq!(served, expected, "{bench}/{encoding:?}: served bytes differ");
        }
    }
    drop(handle);
}

#[test]
fn one_connection_serves_many_sequential_requests() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let module = small_module();
    let req = request(&module, EncodingKind::NibbleAligned);
    let expected = expected_container(&module, &req);

    let mut client = Client::connect(handle.addr(), 30_000).unwrap();
    client.ping().unwrap();
    for _ in 0..10 {
        assert_eq!(client.compress(&req).unwrap(), expected);
    }
    let metrics = client.metrics().unwrap();
    assert!(metrics.contains("\"schema\": 1"), "metrics is not schema-1 JSON:\n{metrics}");
    for key in [
        "serve.bytes_in",
        "serve.bytes_out",
        "serve.cache.bytes_high_water",
        "serve.cache.evictions",
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.conns_accepted",
        "serve.frames_bad",
        "serve.pipeline_high_water",
        "serve.queue_high_water",
        "serve.requests_accepted",
        "serve.requests_busy",
        "serve.requests_failed",
        "serve.requests_ok",
    ] {
        assert!(metrics.contains(key), "metrics is missing {key}");
    }
    drop(handle);
}

#[test]
fn full_queue_answers_busy_and_never_drops_a_request() {
    // One worker, queue depth one: with 6 simultaneous heavyweight requests
    // at most two are admitted (one in flight + one queued); the rest must
    // get an immediate BUSY, and every admitted request must still return
    // the byte-exact container. Each sender of each round sends a module
    // the server has not seen (renamed by round and sender), so no request
    // is answered from the cache and every one needs the worker. The name
    // is part of the module's bytes, not of the container.
    let handle =
        serve(&ServeOptions { jobs: 1, queue_depth: 1, timeout_ms: 60_000, ..Default::default() })
            .unwrap();
    let addr = handle.addr().to_string();
    let module = codense_codegen::benchmark("compress", codense_obj::IsaId::Ppc).unwrap();
    let expected = expected_container(&module, &request(&module, EncodingKind::NibbleAligned));

    let busy = AtomicU64::new(0);
    let ok = AtomicU64::new(0);
    for round in 0..10 {
        let barrier = Barrier::new(6);
        std::thread::scope(|scope| {
            for sender in 0..6 {
                let (module, addr, barrier, expected) = (&module, &addr, &barrier, &expected);
                let (busy, ok) = (&busy, &ok);
                scope.spawn(move || {
                    let mut fresh = module.clone();
                    fresh.name = format!("compress-r{round}-s{sender}");
                    let req = request(&fresh, EncodingKind::NibbleAligned);
                    let mut client = Client::connect(addr.as_str(), 60_000).unwrap();
                    barrier.wait();
                    match client.compress(&req) {
                        Ok(bytes) => {
                            assert_eq!(&bytes, expected, "admitted request returned wrong bytes");
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(RequestError::Rejected(ErrorCode::Busy, _)) => {
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => panic!("unexpected outcome: {e}"),
                    }
                });
            }
        });
        if busy.load(Ordering::Relaxed) > 0 && round >= 1 {
            break;
        }
    }
    assert!(ok.load(Ordering::Relaxed) > 0, "no request was ever admitted");
    assert!(
        busy.load(Ordering::Relaxed) > 0,
        "queue depth 1 with 6 simultaneous senders never reported BUSY"
    );
    drop(handle);
}

#[test]
fn graceful_drain_completes_in_flight_work_then_refuses_connections() {
    let handle = serve(&ServeOptions { jobs: 1, ..Default::default() }).unwrap();
    let addr = handle.addr();
    let module = codense_codegen::benchmark("compress", codense_obj::IsaId::Ppc).unwrap();
    let req = request(&module, EncodingKind::NibbleAligned);
    let expected = expected_container(&module, &req);

    let in_flight = std::thread::spawn({
        let req = req.clone();
        move || Client::connect(addr, 60_000).unwrap().compress(&req)
    });
    // Let the request reach the worker, then ask the server to drain.
    std::thread::sleep(Duration::from_millis(200));
    Client::connect(addr, 10_000).unwrap().shutdown().unwrap();
    handle.join();

    let served = in_flight.join().unwrap().expect("in-flight request must complete during drain");
    assert_eq!(served, expected, "drained request returned wrong bytes");

    // The listener is gone: new connections are refused outright.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "server still accepting after drain"
    );
}

#[test]
fn malformed_frames_get_typed_errors_and_never_kill_the_server() {
    // Short server timeout so truncated frames expire quickly.
    let handle = serve(&ServeOptions { jobs: 1, timeout_ms: 150, ..Default::default() }).unwrap();
    let addr = handle.addr();
    let module = small_module();
    let req = request(&module, EncodingKind::NibbleAligned);

    // The pristine frame the corruption battery mutates.
    let mut pristine = Vec::new();
    write_frame(&mut pristine, Op::ReqCompress, 1, &req.encode()).unwrap();

    let mut rng = codense_codegen::Rng::new(0x5e7e_c0de);
    for round in 0..150 {
        let corrupted = codense_fuzz::corrupt(&pristine, &mut rng);
        let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(1000))
            .unwrap_or_else(|e| panic!("round {round}: server stopped accepting: {e}"));
        stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        stream.set_write_timeout(Some(Duration::from_millis(1000))).unwrap();
        let mut stream = stream;
        // The server may close mid-write on garbage; that is a valid outcome.
        let _ = stream.write_all(&corrupted);
        let _ = stream.flush();
        // Whatever comes back must be either nothing (timeout / clean close)
        // or a well-formed frame; a server-side panic or hang would surface
        // as the liveness check below failing.
        match read_frame(&mut &stream) {
            Ok(None) | Err(FrameError::Io(_)) => {}
            Ok(Some((frame, _))) if frame.op == Op::RespErr => {
                let (code, _) = decode_error(&frame.payload)
                    .unwrap_or_else(|| panic!("round {round}: undecodable error frame"));
                assert!(
                    matches!(
                        code,
                        ErrorCode::BadFrame
                            | ErrorCode::BadModule
                            | ErrorCode::CompressFailed
                            | ErrorCode::TooLarge
                            | ErrorCode::Deadline
                            | ErrorCode::Busy
                    ),
                    "round {round}: unexpected error code {code}"
                );
            }
            // A mutation can leave a prefix that is still a valid request
            // (e.g. a CRC-repaired payload flip); any well-formed response
            // is acceptable.
            Ok(Some(_)) => {}
            Err(e) => panic!("round {round}: server sent a corrupt frame: {e}"),
        }
    }

    // Liveness: after 150 rounds of garbage the server still answers, and
    // compression still returns byte-exact results.
    let mut client = Client::connect(addr, 30_000).unwrap();
    client.ping().expect("server must survive the malformed-frame battery");
    let expected = expected_container(&module, &req);
    assert_eq!(client.compress(&req).unwrap(), expected);
    drop(handle);
}

#[test]
fn oversized_length_prefix_is_rejected_with_too_large() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let mut stream =
        TcpStream::connect_timeout(&handle.addr(), Duration::from_millis(1000)).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(2000))).unwrap();
    stream.write_all(&(MAX_FRAME + 1).to_be_bytes()).unwrap();
    let (frame, _) = read_frame(&mut &stream).unwrap().expect("a typed response");
    assert_eq!(frame.op, Op::RespErr);
    assert_eq!(decode_error(&frame.payload).unwrap().0, ErrorCode::TooLarge);
    drop(handle);
}

#[test]
fn response_op_sent_to_server_is_a_bad_frame() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let mut stream =
        TcpStream::connect_timeout(&handle.addr(), Duration::from_millis(1000)).unwrap();
    stream.set_read_timeout(Some(Duration::from_millis(2000))).unwrap();
    write_frame(&mut stream, Op::RespOk, 7, b"not a request").unwrap();
    let (frame, _) = read_frame(&mut &stream).unwrap().expect("a typed response");
    assert_eq!(frame.op, Op::RespErr);
    assert_eq!(frame.request_id, 7, "the violation echoes the offending id");
    assert_eq!(decode_error(&frame.payload).unwrap().0, ErrorCode::BadFrame);
    drop(handle);
}

#[test]
fn bad_module_bytes_get_a_typed_error_not_a_panic() {
    let handle = serve(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(handle.addr(), 10_000).unwrap();
    let req = CompressRequest {
        module: b"definitely not a .cdm module".to_vec(),
        ..request(&small_module(), EncodingKind::NibbleAligned)
    };
    match client.compress(&req) {
        Err(RequestError::Rejected(ErrorCode::BadModule, _)) => {}
        other => panic!("expected BAD_MODULE, got {other:?}"),
    }
    // The connection survives a rejected request.
    client.ping().unwrap();
    drop(handle);
}
