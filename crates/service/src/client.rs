//! Clients for the serve frame protocol: a sequential [`Client`] that
//! issues one request at a time, and a [`PipelinedClient`] that decouples
//! sending from receiving so many requests can be in flight per
//! connection, matched back up by request id.

use std::fmt;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{
    decode_error, read_frame, write_frame, CompressRequest, ErrorCode, Frame, FrameError, Op,
};

/// Why a request got no usable answer.
#[derive(Debug)]
pub enum RequestError {
    /// The wire failed: socket error, malformed response frame, or the
    /// server closed without answering.
    Frame(FrameError),
    /// The server answered with a typed error frame.
    Rejected(ErrorCode, String),
    /// The server answered with a frame type the request cannot accept.
    Unexpected(Op),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::Frame(e) => write!(f, "{e}"),
            RequestError::Rejected(code, msg) => {
                write!(f, "server rejected request: {code}: {msg}")
            }
            RequestError::Unexpected(op) => write!(f, "unexpected response frame {op:?}"),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<FrameError> for RequestError {
    fn from(e: FrameError) -> RequestError {
        RequestError::Frame(e)
    }
}

fn connect_stream(addr: impl ToSocketAddrs, timeout_ms: u64) -> std::io::Result<TcpStream> {
    let addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other("unresolvable address"))?;
    let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(timeout_ms.max(1)))?;
    let timeout = Some(Duration::from_millis(timeout_ms.max(1)));
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One connection to a serve instance. Requests are issued synchronously,
/// one at a time, under the configured socket timeout; ids are assigned
/// internally and each response is checked against the id it answers.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_id: u32,
}

impl Client {
    /// Connects and applies `timeout_ms` as the read/write timeout.
    pub fn connect(addr: impl ToSocketAddrs, timeout_ms: u64) -> std::io::Result<Client> {
        Ok(Client { stream: connect_stream(addr, timeout_ms)?, next_id: 1 })
    }

    fn roundtrip(&mut self, op: Op, payload: &[u8]) -> Result<(Op, Vec<u8>), RequestError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        write_frame(&mut self.stream, op, id, payload).map_err(FrameError::Io)?;
        match read_frame(&mut &self.stream)? {
            Some((frame, _)) => {
                // A sequential client has exactly one request outstanding;
                // any other id in the answer is a server bug.
                if frame.request_id != id {
                    return Err(RequestError::Frame(FrameError::UnknownOp(frame.op as u8)));
                }
                Ok((frame.op, frame.payload))
            }
            None => {
                Err(RequestError::Frame(FrameError::Io(std::io::ErrorKind::UnexpectedEof.into())))
            }
        }
    }

    fn expect(&mut self, req: Op, payload: &[u8], want: Op) -> Result<Vec<u8>, RequestError> {
        match self.roundtrip(req, payload)? {
            (op, payload) if op == want => Ok(payload),
            (Op::RespErr, payload) => {
                let (code, msg) = decode_error(&payload)
                    .ok_or(RequestError::Frame(FrameError::UnknownOp(Op::RespErr as u8)))?;
                Err(RequestError::Rejected(code, msg))
            }
            (op, _) => Err(RequestError::Unexpected(op)),
        }
    }

    /// Compresses a module remotely; the `Ok` bytes are the serialized
    /// `.cdns` container, byte-identical to an in-process compression.
    pub fn compress(&mut self, req: &CompressRequest) -> Result<Vec<u8>, RequestError> {
        self.expect(Op::ReqCompress, &req.encode(), Op::RespOk)
    }

    /// Fetches the server's schema-1 telemetry JSON.
    pub fn metrics(&mut self) -> Result<String, RequestError> {
        let payload = self.expect(Op::ReqMetrics, b"", Op::RespMetrics)?;
        String::from_utf8(payload)
            .map_err(|_| RequestError::Frame(FrameError::UnknownOp(Op::RespMetrics as u8)))
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), RequestError> {
        self.expect(Op::ReqPing, b"", Op::RespPong).map(|_| ())
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), RequestError> {
        self.expect(Op::ReqShutdown, b"", Op::RespPong).map(|_| ())
    }
}

/// A pipelining connection: the caller chooses request ids, may send many
/// frames before reading anything, and receives responses in whatever
/// order the server completes them. [`PipelinedClient::try_clone`] splits
/// the connection into an independent sender and receiver half (both halves
/// share the one socket), which is how the repo benchmark's open-loop load
/// generator runs a send thread and a receive thread per connection.
#[derive(Debug)]
pub struct PipelinedClient {
    stream: TcpStream,
}

impl PipelinedClient {
    /// Connects and applies `timeout_ms` as the read/write timeout.
    pub fn connect(addr: impl ToSocketAddrs, timeout_ms: u64) -> std::io::Result<PipelinedClient> {
        Ok(PipelinedClient { stream: connect_stream(addr, timeout_ms)? })
    }

    /// A second handle to the same connection (shared socket).
    pub fn try_clone(&self) -> std::io::Result<PipelinedClient> {
        Ok(PipelinedClient { stream: self.stream.try_clone()? })
    }

    /// Sends one frame without waiting for any response.
    pub fn send(&mut self, op: Op, request_id: u32, payload: &[u8]) -> std::io::Result<()> {
        write_frame(&mut self.stream, op, request_id, payload).map(|_| ())
    }

    /// Sends one compression request without waiting for its response.
    pub fn send_compress(&mut self, request_id: u32, req: &CompressRequest) -> std::io::Result<()> {
        self.send(Op::ReqCompress, request_id, &req.encode())
    }

    /// Receives the next response frame, whichever request it answers.
    /// `Ok(None)` means the server closed the connection cleanly.
    pub fn recv(&mut self) -> Result<Option<Frame>, FrameError> {
        Ok(read_frame(&mut &self.stream)?.map(|(frame, _)| frame))
    }

    /// Direct access to the underlying socket, for tests that need to
    /// write adversarial byte sequences (sub-frame chunks, torn frames).
    pub fn raw_stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}
