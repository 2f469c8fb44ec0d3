//! The event-driven batch-compression server: a `poll(2)` reactor with
//! per-connection state machines, request pipelining, a content-addressed
//! result cache, and a worker pool behind a completion queue.
//!
//! Threading model:
//!
//! * one **reactor** thread owns the (nonblocking) listener and every
//!   connection. Connections are plain state machines — read-accumulate →
//!   parse frame → dispatch → write-drain — so thousands of idle
//!   connections cost a few pollfd entries each, no threads;
//! * `jobs` **worker** threads share a bounded [`sync_channel`] of
//!   compression jobs (the queue depth is the backpressure bound; a full
//!   queue answers `BUSY`). A finished job goes onto a completion queue and
//!   the worker wakes the reactor through a **self-pipe** — the reactor is
//!   never blocked on anything but `poll`.
//!
//! Requests are **pipelined**: a connection may have many compressions in
//! flight, identified by the frame's request id; responses are written in
//! completion order, which may differ from request order. Inline ops
//! (`PING`, `METRICS`, cache hits) are answered in arrival order.
//!
//! The **result cache** ([`crate::cache`]) is owned by the reactor thread,
//! so every lookup and insert happens in deterministic arrival order —
//! worker scheduling can never change the `serve.cache.*` counters seen by
//! a sequential client.
//!
//! Graceful drain: a `SHUTDOWN` frame (or [`ServerHandle::shutdown`]) flips
//! a flag and wakes the reactor; the listener closes, new compressions are
//! refused with `SHUTTING_DOWN`, in-flight work completes and flushes, and
//! each connection closes as soon as it quiesces. When the last connection
//! is gone the reactor drops the job channel so the workers drain and exit.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use codense_core::telemetry;

use crate::cache::{CacheKey, ResultCache};
use crate::codec;
use crate::protocol::{
    encode_error, encode_frame, parse_frame, CompressRequest, ErrorCode, Frame, Op, ParseOutcome,
};
use crate::sys::{poll_fds, PollFd, POLLIN, POLLOUT};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Compression worker threads.
    pub jobs: usize,
    /// Bounded work-queue depth; a full queue answers `BUSY`.
    pub queue_depth: usize,
    /// Per-request completion deadline in milliseconds.
    pub timeout_ms: u64,
    /// Result-cache byte budget; 0 disables the cache.
    pub cache_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            jobs: 1,
            queue_depth: 32,
            timeout_ms: 10_000,
            cache_bytes: 64 << 20,
        }
    }
}

/// One queued compression job, already decoded by the reactor.
struct Job {
    token: usize,
    gen: u64,
    request_id: u32,
    request: CompressRequest,
    key: CacheKey,
}

/// A finished job traveling back to the reactor.
struct Completion {
    token: usize,
    gen: u64,
    request_id: u32,
    key: CacheKey,
    result: Result<Vec<u8>, (ErrorCode, String)>,
}

struct Shared {
    shutting_down: AtomicBool,
    /// Jobs currently sitting in the queue (not yet dequeued by a worker).
    depth: AtomicU64,
    /// The self-pipe write end: one byte = "reactor, look around".
    wake: Mutex<std::io::PipeWriter>,
}

impl Shared {
    fn wake(&self) {
        // The reader can only be gone during teardown; a failed wake is
        // then irrelevant.
        let _ = self.wake.lock().unwrap().write(&[1]);
    }

    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            self.wake();
        }
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("shutting_down", &self.shutting_down)
            .field("depth", &self.depth)
            .finish_non_exhaustive()
    }
}

/// A running server. Dropping the handle shuts it down gracefully.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Initiates graceful drain and blocks until every in-flight request
    /// has completed and all threads have exited.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }

    /// Blocks until the server shuts down (via a `SHUTDOWN` frame or
    /// [`ServerHandle::shutdown`] from another thread), then drains.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join_threads();
    }
}

/// Binds the listener and starts the reactor and worker threads. Returns
/// once the server is accepting connections.
pub fn serve(opts: &ServeOptions) -> std::io::Result<ServerHandle> {
    let listener =
        TcpListener::bind(opts.addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::other(format!("unresolvable address {}", opts.addr))
        })?)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let (pipe_r, pipe_w) = std::io::pipe()?;
    let shared = Arc::new(Shared {
        shutting_down: AtomicBool::new(false),
        depth: AtomicU64::new(0),
        wake: Mutex::new(pipe_w),
    });
    let completions = Arc::new(Mutex::new(VecDeque::new()));

    let (tx, rx) = sync_channel::<Job>(opts.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<_> = (0..opts.jobs.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            let completions = Arc::clone(&completions);
            std::thread::Builder::new()
                .name(format!("codense-worker-{i}"))
                .spawn(move || worker_loop(&rx, &shared, &completions))
                .expect("spawn worker")
        })
        .collect();

    let reactor = {
        let shared = Arc::clone(&shared);
        let reactor = Reactor {
            listener: Some(listener),
            pipe: pipe_r,
            shared,
            completions,
            tx,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            cache: ResultCache::new(opts.cache_bytes),
            timeout: Duration::from_millis(opts.timeout_ms.max(1)),
        };
        std::thread::Builder::new()
            .name("codense-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawn reactor")
    };

    Ok(ServerHandle { addr, shared, reactor: Some(reactor), workers })
}

fn worker_loop(
    rx: &Mutex<Receiver<Job>>,
    shared: &Shared,
    completions: &Mutex<VecDeque<Completion>>,
) {
    loop {
        // Holding the lock only while blocked on `recv` serializes dequeue,
        // not processing: the lock drops as soon as a job is claimed.
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return, // all senders gone: drained
        };
        shared.depth.fetch_sub(1, Ordering::SeqCst);
        // The library's no-panic policy is pinned by the fuzz crate;
        // catch_unwind is defense in depth so one bad request can never
        // take the worker (and with it the whole pool) down.
        let result = catch_unwind(AssertUnwindSafe(|| codec::process(&job.request)))
            .unwrap_or_else(|_| Err((ErrorCode::CompressFailed, "internal panic".into())));
        completions.lock().unwrap().push_back(Completion {
            token: job.token,
            gen: job.gen,
            request_id: job.request_id,
            key: job.key,
            result,
        });
        shared.wake();
    }
}

/// A connection's write buffer may not grow past this before the server
/// gives up on the peer (it is not reading its responses).
const MAX_WRITE_BACKLOG: usize = 128 << 20;

/// At most this many bytes are read from one connection per reactor
/// iteration, so a firehose peer cannot starve the others.
const READ_QUANTUM: usize = 256 << 10;

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    gen: u64,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// In-flight compressions: request id → dispatch time.
    in_flight: HashMap<u32, Instant>,
    /// Peer EOF seen (or fatal protocol error): no more reads.
    read_closed: bool,
    /// Close as soon as responses are flushed and in-flight work is done.
    close_after_flush: bool,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }
}

/// Appends a response frame to the connection's write buffer, counting the
/// bytes toward `serve.bytes_out` at queue time (before any write reaches
/// the wire — a client that has *read* a response must already observe it
/// in a later METRICS snapshot).
fn respond(conn: &mut Conn, op: Op, request_id: u32, payload: &[u8]) {
    let frame = encode_frame(op, request_id, payload);
    telemetry::SERVE_BYTES_OUT.add(frame.len() as u64);
    conn.wbuf.extend_from_slice(&frame);
}

fn respond_err(conn: &mut Conn, request_id: u32, code: ErrorCode, msg: &str) {
    respond(conn, Op::RespErr, request_id, &encode_error(code, msg));
}

enum Token {
    Pipe,
    Listener,
    Conn(usize),
}

struct Reactor {
    listener: Option<TcpListener>,
    pipe: std::io::PipeReader,
    shared: Arc<Shared>,
    completions: Arc<Mutex<VecDeque<Completion>>>,
    tx: SyncSender<Job>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    cache: ResultCache,
    timeout: Duration,
}

impl Reactor {
    fn run(mut self) {
        let mut scratch = vec![0u8; 64 << 10];
        loop {
            let draining = self.shared.shutting_down.load(Ordering::SeqCst);
            if draining && self.listener.is_some() {
                // Closing the listener is what makes new connections be
                // *refused*, not merely ignored.
                self.listener = None;
            }

            let (mut fds, tokens) = self.build_poll_set(draining);
            let timeout = self.poll_timeout(draining);
            if let Err(e) = poll_fds(&mut fds, timeout) {
                // Unreachable in practice (EINTR is retried inside); avoid
                // a hot error loop if it ever happens.
                debug_assert!(false, "poll failed: {e}");
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }

            // Self-pipe first: consume wake bytes, then the completions
            // they announce. Completions are drained unconditionally — a
            // missed wake byte must never strand a finished job.
            for (fd, token) in fds.iter().zip(&tokens) {
                if matches!(token, Token::Pipe) && fd.readable() {
                    let _ = self.pipe.read(&mut scratch);
                }
            }
            self.apply_completions();

            for (fd, token) in fds.iter().zip(&tokens) {
                match token {
                    Token::Listener if fd.readable() => self.accept_ready(),
                    Token::Conn(i) if fd.readable() => {
                        self.conn_read(*i, &mut scratch);
                    }
                    _ => {}
                }
            }

            // Opportunistic flush of every connection with queued output
            // (cache hits and inline responses usually fit the socket
            // buffer, saving a poll round-trip).
            for i in 0..self.conns.len() {
                self.conn_flush(i);
            }

            self.expire_deadlines();
            self.sweep_closes(draining);

            if draining && self.conns.iter().all(Option::is_none) {
                // Dropping the reactor drops `tx`; the workers then drain
                // the queue and exit. Jobs from already-closed connections
                // complete harmlessly (their completions have no one to
                // read them).
                return;
            }
        }
    }

    fn build_poll_set(&self, _draining: bool) -> (Vec<PollFd>, Vec<Token>) {
        let mut fds = Vec::with_capacity(2 + self.conns.len());
        let mut tokens = Vec::with_capacity(fds.capacity());
        fds.push(PollFd::new(&self.pipe, POLLIN));
        tokens.push(Token::Pipe);
        if let Some(listener) = &self.listener {
            fds.push(PollFd::new(listener, POLLIN));
            tokens.push(Token::Listener);
        }
        for (i, slot) in self.conns.iter().enumerate() {
            let Some(conn) = slot else { continue };
            let mut events = 0;
            if !conn.read_closed {
                events |= POLLIN;
            }
            if conn.pending_write() > 0 {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd::new(&conn.stream, events));
                tokens.push(Token::Conn(i));
            }
        }
        (fds, tokens)
    }

    fn poll_timeout(&self, draining: bool) -> i32 {
        let busy = self
            .conns
            .iter()
            .flatten()
            .any(|c| !c.in_flight.is_empty() || c.pending_write() > 0 || c.read_closed);
        if draining || busy {
            // Ticks bound deadline detection and drain progress checks.
            50
        } else {
            500
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.as_ref().map(|l| l.accept()) {
                Some(Ok((stream, _peer))) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    telemetry::SERVE_CONNS_ACCEPTED.inc();
                    self.next_gen += 1;
                    let conn = Conn {
                        stream,
                        gen: self.next_gen,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        in_flight: HashMap::new(),
                        read_closed: false,
                        close_after_flush: false,
                    };
                    match self.free.pop() {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                }
                Some(Err(ref e)) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Some(Err(_)) | None => return,
            }
        }
    }

    /// Reads what the socket has (up to the fairness quantum), then parses
    /// and dispatches every complete frame in the buffer.
    fn conn_read(&mut self, i: usize, scratch: &mut [u8]) {
        let Some(conn) = self.conns[i].as_mut() else { return };
        let mut read = 0;
        while read < READ_QUANTUM {
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    read += n;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(i);
                    return;
                }
            }
        }
        self.parse_and_dispatch(i);
    }

    fn parse_and_dispatch(&mut self, i: usize) {
        loop {
            let Some(conn) = self.conns[i].as_mut() else { return };
            match parse_frame(&conn.rbuf) {
                ParseOutcome::Incomplete => break,
                ParseOutcome::Frame { frame, consumed } => {
                    telemetry::SERVE_BYTES_IN.add(consumed as u64);
                    conn.rbuf.drain(..consumed);
                    self.dispatch(i, frame);
                }
                ParseOutcome::Bad { err, request_id, consumed } => {
                    // The frame boundary is known: answer, skip, continue.
                    telemetry::SERVE_BYTES_IN.add(consumed as u64);
                    telemetry::SERVE_FRAMES_BAD.inc();
                    conn.rbuf.drain(..consumed);
                    let code = err.response_code().unwrap_or(ErrorCode::BadFrame);
                    respond_err(conn, request_id, code, &err.to_string());
                }
                ParseOutcome::Fatal { err } => {
                    // The framing is untrustworthy: answer and close.
                    telemetry::SERVE_FRAMES_BAD.inc();
                    let code = err.response_code().unwrap_or(ErrorCode::BadFrame);
                    respond_err(conn, 0, code, &err.to_string());
                    conn.rbuf.clear();
                    conn.read_closed = true;
                    conn.close_after_flush = true;
                    break;
                }
            }
        }
        let Some(conn) = self.conns[i].as_mut() else { return };
        if conn.read_closed && !conn.rbuf.is_empty() {
            // EOF in the middle of a frame: the peer half-closed after a
            // truncated send. Answer the typed error (the peer may still
            // be reading), then close once flushed.
            telemetry::SERVE_FRAMES_BAD.inc();
            respond_err(conn, 0, ErrorCode::BadFrame, "connection closed inside a frame");
            conn.rbuf.clear();
            conn.close_after_flush = true;
        }
    }

    fn dispatch(&mut self, i: usize, frame: Frame) {
        let draining = self.shared.shutting_down.load(Ordering::SeqCst);
        match frame.op {
            Op::ReqPing => {
                let Some(conn) = self.conns[i].as_mut() else { return };
                respond(conn, Op::RespPong, frame.request_id, b"");
            }
            Op::ReqMetrics => {
                // Render before queueing so the reported `serve.bytes_out`
                // excludes this response's own bytes (a sequential client
                // then sees a deterministic value).
                let json = telemetry::metrics_json("serve");
                let Some(conn) = self.conns[i].as_mut() else { return };
                respond(conn, Op::RespMetrics, frame.request_id, json.as_bytes());
            }
            Op::ReqShutdown => {
                let Some(conn) = self.conns[i].as_mut() else { return };
                respond(conn, Op::RespPong, frame.request_id, b"");
                self.shared.begin_shutdown();
            }
            Op::ReqCompress => self.dispatch_compress(i, frame.request_id, frame.payload, draining),
            // A response op arriving at the server is a protocol violation;
            // the frame was well-formed, so the connection survives.
            Op::RespOk | Op::RespMetrics | Op::RespPong | Op::RespErr => {
                telemetry::SERVE_FRAMES_BAD.inc();
                let Some(conn) = self.conns[i].as_mut() else { return };
                respond_err(
                    conn,
                    frame.request_id,
                    ErrorCode::BadFrame,
                    "response op sent to server",
                );
            }
        }
    }

    fn dispatch_compress(&mut self, i: usize, request_id: u32, payload: Vec<u8>, draining: bool) {
        let Some(conn) = self.conns[i].as_mut() else { return };
        if draining {
            respond_err(conn, request_id, ErrorCode::ShuttingDown, "server is draining");
            return;
        }
        let request = match CompressRequest::decode(&payload) {
            Ok(req) => req,
            Err(msg) => {
                telemetry::SERVE_REQUESTS_FAILED.inc();
                respond_err(conn, request_id, ErrorCode::BadFrame, &msg);
                return;
            }
        };
        if conn.in_flight.contains_key(&request_id) {
            telemetry::SERVE_REQUESTS_FAILED.inc();
            respond_err(
                conn,
                request_id,
                ErrorCode::DuplicateId,
                "request id is already in flight on this connection",
            );
            return;
        }
        let key = CacheKey::new(
            request.encoding.tag(),
            request.selector.tag(),
            request.max_entry_len,
            request.max_codewords,
            &request.module,
        );
        if let Some(bytes) = self.cache.get(&key) {
            let bytes = bytes.to_vec();
            telemetry::SERVE_CACHE_HITS.inc();
            telemetry::SERVE_REQUESTS_ACCEPTED.inc();
            telemetry::SERVE_REQUESTS_OK.inc();
            let Some(conn) = self.conns[i].as_mut() else { return };
            respond(conn, Op::RespOk, request_id, &bytes);
            return;
        }
        telemetry::SERVE_CACHE_MISSES.inc();
        // Reserve the depth slot *before* the send: the worker's decrement
        // at dequeue must always observe the increment, or the gauge
        // underflows.
        let depth = self.shared.depth.fetch_add(1, Ordering::SeqCst) + 1;
        let gen = conn.gen;
        match self.tx.try_send(Job { token: i, gen, request_id, request, key }) {
            Ok(()) => {
                telemetry::SERVE_REQUESTS_ACCEPTED.inc();
                telemetry::SERVE_QUEUE_HIGH_WATER.record_max(depth);
                let Some(conn) = self.conns[i].as_mut() else { return };
                conn.in_flight.insert(request_id, Instant::now());
                telemetry::SERVE_PIPELINE_HIGH_WATER.record_max(conn.in_flight.len() as u64);
            }
            Err(TrySendError::Full(_)) => {
                self.shared.depth.fetch_sub(1, Ordering::SeqCst);
                telemetry::SERVE_REQUESTS_BUSY.inc();
                let Some(conn) = self.conns[i].as_mut() else { return };
                respond_err(conn, request_id, ErrorCode::Busy, "work queue is full");
            }
            Err(TrySendError::Disconnected(_)) => {
                self.shared.depth.fetch_sub(1, Ordering::SeqCst);
                let Some(conn) = self.conns[i].as_mut() else { return };
                respond_err(conn, request_id, ErrorCode::ShuttingDown, "server is draining");
            }
        }
    }

    fn apply_completions(&mut self) {
        let drained: Vec<Completion> = {
            let mut q = self.completions.lock().unwrap();
            q.drain(..).collect()
        };
        for done in drained {
            // Cache the result even when the requester is gone (deadline,
            // closed connection): the compression already happened; let
            // the next identical request profit from it.
            if let Ok(bytes) = &done.result {
                let outcome = self.cache.insert(done.key, bytes.clone());
                if outcome.stored {
                    telemetry::SERVE_CACHE_EVICTIONS.add(outcome.evicted as u64);
                    telemetry::SERVE_CACHE_BYTES_HIGH_WATER.record_max(self.cache.bytes() as u64);
                }
            }
            let Some(conn) = self.conns.get_mut(done.token).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != done.gen || conn.in_flight.remove(&done.request_id).is_none() {
                continue; // stale slot reuse, or already answered (deadline)
            }
            match done.result {
                Ok(bytes) => {
                    telemetry::SERVE_REQUESTS_OK.inc();
                    respond(conn, Op::RespOk, done.request_id, &bytes);
                }
                Err((code, msg)) => {
                    telemetry::SERVE_REQUESTS_FAILED.inc();
                    respond_err(conn, done.request_id, code, &msg);
                }
            }
        }
    }

    fn conn_flush(&mut self, i: usize) {
        let Some(conn) = self.conns[i].as_mut() else { return };
        while conn.pending_write() > 0 {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => {
                    self.close_conn(i);
                    return;
                }
                Ok(n) => conn.wpos += n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(i);
                    return;
                }
            }
        }
        if conn.pending_write() == 0 && !conn.wbuf.is_empty() {
            conn.wbuf.clear();
            conn.wpos = 0;
        } else if conn.pending_write() > MAX_WRITE_BACKLOG {
            // The peer is not reading its responses; give up on it.
            self.close_conn(i);
        }
    }

    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        for i in 0..self.conns.len() {
            let Some(conn) = self.conns[i].as_mut() else { continue };
            let expired: Vec<u32> = conn
                .in_flight
                .iter()
                .filter(|(_, &t)| now.duration_since(t) > self.timeout)
                .map(|(&id, _)| id)
                .collect();
            for id in expired {
                conn.in_flight.remove(&id);
                telemetry::SERVE_REQUESTS_FAILED.inc();
                respond_err(conn, id, ErrorCode::Deadline, "request missed its deadline");
            }
        }
    }

    fn sweep_closes(&mut self, draining: bool) {
        for i in 0..self.conns.len() {
            let Some(conn) = self.conns[i].as_ref() else { continue };
            let quiesced = conn.in_flight.is_empty() && conn.pending_write() == 0;
            if quiesced && (conn.close_after_flush || conn.read_closed || draining) {
                self.close_conn(i);
            }
        }
    }

    fn close_conn(&mut self, i: usize) {
        if self.conns[i].take().is_some() {
            self.free.push(i);
        }
    }
}
