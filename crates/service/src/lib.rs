#![warn(missing_docs)]

//! `codense serve` — a long-lived TCP batch-compression service.
//!
//! The paper's compressor is a one-shot post-compilation tool; this crate
//! puts the same pipeline behind a concurrent, fault-tolerant front end so
//! its robustness and latency become measurable. The server
//! ([`server::serve`]) is a `poll(2)`-based reactor ([`sys`]) driving
//! per-connection state machines: it accepts length-prefixed, CRC-checked
//! binary frames ([`protocol`]) carrying a request id, a codec tag
//! ([`codec`]) and a serialized `ObjectModule`, compresses on a bounded
//! worker pool behind a completion queue, and answers with the `.cdns`
//! container bytes — **byte-identical** to an in-process
//! [`Compressor::compress`](codense_core::Compressor) + `container::serialize`
//! of the same module, pinned by the integration tests.
//!
//! Robustness and performance contract:
//!
//! * **Pipelining** — a connection may keep many requests in flight;
//!   responses carry the request id they answer and may arrive out of
//!   order (cache hits and inline ops answer immediately, compressions
//!   answer in completion order).
//! * **Result cache** — compressed containers are cached content-addressed
//!   ([`cache`]): FNV-1a of the module bytes plus every output-affecting
//!   parameter, bounded by a byte budget with LRU eviction. A hit is
//!   byte-identical to a fresh compression.
//! * **Backpressure** — the work queue is bounded (`--queue-depth`); when it
//!   is full the server answers `BUSY` immediately instead of queueing
//!   without bound.
//! * **Deadlines** — a per-request completion deadline (`--timeout-ms`); an
//!   expired request answers `DEADLINE`.
//! * **Malformed input** — any corrupt frame (bad CRC, truncation, bogus
//!   length, unknown op) yields a typed error frame, never a panic or hang,
//!   and the connection survives every error whose frame boundary is known;
//!   the protocol-conformance suite pins the full op × corruption matrix.
//! * **Graceful drain** — shutdown closes the listener, lets in-flight
//!   requests complete, and refuses new work with `SHUTTING_DOWN`.
//!
//! Everything is observable through the `serve.*` telemetry counters and a
//! `METRICS` request op returning the schema-1 JSON report. The
//! [`loadgen`] module holds the closed-loop correctness smoke behind
//! `codense loadgen`, which byte-checks every response, and the arrival
//! schedule and counter parser of the repo benchmark's open-loop load
//! generator; that benchmark measures serve performance.

pub mod cache;
pub mod client;
pub mod codec;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod sys;

pub use cache::{CacheKey, InsertOutcome, ResultCache};
pub use client::{Client, PipelinedClient, RequestError};
pub use codec::{by_kind, by_name, by_tag, Codec, CODECS};
pub use loadgen::{arrival_schedule_us, counter_value, run_loadgen, LoadgenOptions, LoadgenReport};
pub use protocol::{CompressRequest, ErrorCode, Frame, FrameError, Op, ParseOutcome};
pub use server::{serve, ServeOptions, ServerHandle};
