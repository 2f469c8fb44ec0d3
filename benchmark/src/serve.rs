//! The serve round trip: an in-process `codense_service::serve` at the CLI
//! defaults, driven open-loop over one pipelined connection.
//!
//! The generator is the benchmark's own (not `loadgen::run_open_loop`),
//! because it has to keep each request's identity: its scheduled, sent and
//! answered times and whether its module was new to the server.
//!
//! Serve is PPC-only: the wire protocol carries no ISA and
//! `codec::process` compresses as PPC. Modules the server has not seen are
//! renamed copies of a few seeded corpus bases. The name is part of the
//! module bytes, so each copy is a distinct cache key and a full worker
//! compression, while its container is the base's (checked in setup).

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use codense_codegen::Rng;
use codense_core::{EncodingKind, SelectorKind};
use codense_obj::ObjectModule;
use codense_service::protocol::{decode_error, encode_frame, parse_frame};
use codense_service::{arrival_schedule_us, PipelinedClient, ServeOptions, ServerHandle};
use codense_service::{codec, counter_value, Client, CompressRequest, ErrorCode, Op, ParseOutcome};

use crate::stats::percentile_sorted;

/// Client socket timeout: well past the server's 10 s request deadline.
const CLIENT_TIMEOUT_MS: u64 = 20_000;

/// Share of requests that carry a module the server has not seen.
pub const MISS_SHARE: f64 = 0.25;

/// A ladder rung passes only if its p99 latency stays within this bound.
pub const RUNG_P99_MS: f64 = 50.0;

/// The generator is on schedule when the p99 of its send lateness stays
/// within half the latency bound; past it a phase's numbers describe the
/// generator (or a host that took its CPU away), not the server, and the
/// phase is invalid.
pub const LATE_P99_BOUND_MS: f64 = RUNG_P99_MS / 2.0;

/// One seeded corpus module served under many names.
#[derive(Debug, Clone)]
pub struct Base {
    pub module: ObjectModule,
    /// In-process `codec::process` output for this module.
    pub expected: Vec<u8>,
}

/// The request every serve call sends: the CLI's default nibble/greedy
/// compression.
pub fn request_for(module: &ObjectModule) -> CompressRequest {
    CompressRequest {
        encoding: EncodingKind::NibbleAligned,
        selector: SelectorKind::Greedy,
        max_entry_len: 4,
        max_codewords: 0,
        module: codense_obj::serialize(module),
    }
}

/// A renamed copy of `base` (distinct bytes, same code).
pub fn variant(base: &ObjectModule, id: u64) -> ObjectModule {
    let mut m = base.clone();
    m.name = format!("{}#{id}", base.name);
    m
}

/// `codec::process` as the server's workers call it.
pub fn process(req: &CompressRequest) -> Result<Vec<u8>, String> {
    codec::process(req).map_err(|(code, msg)| format!("{code:?}: {msg}"))
}

impl Base {
    /// Computes the expected container, and checks that a renamed copy
    /// compresses to the same bytes (the premise of serving copies).
    pub fn new(module: ObjectModule) -> Result<Base, String> {
        let expected = process(&request_for(&module))?;
        if process(&request_for(&variant(&module, u64::MAX)))? != expected {
            return Err(format!("{}: a renamed copy compresses differently", module.name));
        }
        Ok(Base { module, expected })
    }
}

/// A running server plus the load connection.
pub struct Server {
    pub handle: ServerHandle,
    load: PipelinedClient,
    next_request_id: u32,
    /// Variant names handed out so far; every phase draws fresh ones.
    next_variant: u64,
    /// Recently answered modules, the hit candidates of the next phase.
    answered: std::collections::VecDeque<(usize, u64)>,
}

impl Server {
    /// Starts the server at the CLI's serve defaults and warms it up with
    /// one compression per base.
    pub fn start(bases: &[Base]) -> Result<Server, String> {
        let opts = ServeOptions { jobs: codense_core::parallel::jobs(), ..Default::default() };
        let handle = codense_service::serve(&opts).map_err(|e| format!("serve: {e}"))?;
        let load = PipelinedClient::connect(handle.addr(), CLIENT_TIMEOUT_MS)
            .map_err(|e| format!("connect: {e}"))?;
        let mut server = Server {
            handle,
            load,
            next_request_id: 1,
            next_variant: 0,
            answered: Default::default(),
        };
        let mut control = server.control()?;
        control.ping().map_err(|e| format!("ping: {e}"))?;
        for (i, base) in bases.iter().enumerate() {
            let id = server.fresh_variant();
            server.answered.push_back((i, id));
            let module = variant(&base.module, id);
            let got =
                control.compress(&request_for(&module)).map_err(|e| format!("warm-up: {e}"))?;
            if got != base.expected {
                return Err("warm-up response differs from codec::process".into());
            }
        }
        Ok(server)
    }

    fn fresh_variant(&mut self) -> u64 {
        self.next_variant += 1;
        self.next_variant
    }

    /// A sequential control connection (metrics, ping).
    pub fn control(&self) -> Result<Client, String> {
        Client::connect(self.handle.addr(), CLIENT_TIMEOUT_MS).map_err(|e| format!("connect: {e}"))
    }

    /// The server's counters `names`, read through `Client::metrics`.
    pub fn counters(&self, names: &[&str]) -> Result<Vec<u64>, String> {
        let json = self.control()?.metrics().map_err(|e| format!("metrics: {e}"))?;
        names
            .iter()
            .map(|n| counter_value(&json, n).ok_or_else(|| format!("metrics report lacks {n}")))
            .collect()
    }
}

/// One request of a phase, planned before the phase starts.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub base: usize,
    pub variant: u64,
    /// True when the server has not seen this module before.
    pub first_seen: bool,
}

/// A re-request only counts on a cache hit if the module's first request
/// has been answered, so hits draw from modules first sent at least this
/// long ago (or answered in an earlier phase).
pub const HIT_MIN_AGE_US: u64 = 250_000;

/// Modules answered in earlier phases kept as hit candidates: few enough
/// that all of them stay in the server's result cache.
const HIT_POOL: usize = 512;

/// A phase's arrival schedule (µs offsets) and requests, both from `rng`.
pub fn plan(
    server: &mut Server,
    bases: usize,
    rate_rps: f64,
    n: usize,
    rng: &mut Rng,
) -> (Vec<u64>, Vec<Planned>) {
    let schedule = arrival_schedule_us(rate_rps, n, rng.next_u64());
    let mut fresh: Vec<(u64, usize, u64)> = Vec::new();
    let mut ready = 0;
    let requests = schedule
        .iter()
        .map(|&at| {
            while ready < fresh.len() && fresh[ready].0 + HIT_MIN_AGE_US <= at {
                ready += 1;
            }
            let candidates = server.answered.len() + ready;
            if candidates == 0 || rng.chance(MISS_SHARE) {
                let (base, variant) = (rng.below(bases), server.fresh_variant());
                fresh.push((at, base, variant));
                return Planned { base, variant, first_seen: true };
            }
            let pick = rng.below(candidates);
            let (base, variant) = match server.answered.get(pick) {
                Some(&old) => old,
                None => {
                    let (_, base, variant) = fresh[pick - server.answered.len()];
                    (base, variant)
                }
            };
            Planned { base, variant, first_seen: false }
        })
        .collect();
    (schedule, requests)
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The response matched the expected container byte for byte.
    Ok,
    Busy,
    /// Any other response, a mismatch, or no response.
    Failed,
}

/// One request's record.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub planned: Planned,
    pub scheduled: Instant,
    pub sent: Instant,
    pub answered: Instant,
    pub outcome: Outcome,
}

impl Record {
    pub fn latency_ms(&self) -> f64 {
        self.answered.saturating_duration_since(self.scheduled).as_secs_f64() * 1e3
    }

    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.scheduled).as_secs_f64() * 1e3
    }
}

/// One open-loop phase at a fixed offered rate.
#[derive(Debug, Clone)]
pub struct Phase {
    pub records: Vec<Record>,
    /// `serve.cache.misses` delta over the phase.
    pub server_misses: u64,
    pub busy: usize,
    pub failed: usize,
}

impl Phase {
    pub fn first_seen(&self) -> usize {
        self.records.iter().filter(|r| r.planned.first_seen).count()
    }

    /// Sorted latencies of answered-ok requests, optionally only hits
    /// (`Some(false)`) or misses (`Some(true)`).
    pub fn latencies_ms(&self, first_seen: Option<bool>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .filter(|r| r.outcome == Outcome::Ok)
            .filter(|r| first_seen.is_none_or(|f| r.planned.first_seen == f))
            .map(Record::latency_ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn late_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.records.iter().map(Record::late_ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn p99_ms(&self) -> Option<f64> {
        let v = self.latencies_ms(None);
        (!v.is_empty()).then(|| percentile_sorted(&v, 99.0))
    }

    /// Why the phase's numbers cannot be reported, if they cannot.
    pub fn invalid_reason(&self) -> Option<String> {
        let late = self.late_ms();
        let late_p99 = late.last().map_or(0.0, |_| percentile_sorted(&late, 99.0));
        if late_p99 > LATE_P99_BOUND_MS {
            return Some(format!("generator late: p99 {late_p99:.2} ms"));
        }
        if self.server_misses != self.first_seen() as u64 {
            return Some(format!(
                "server counted {} misses for {} first-seen modules",
                self.server_misses,
                self.first_seen()
            ));
        }
        None
    }

    /// A ladder rung passes when it is valid, every request was answered
    /// correctly without BUSY, and p99 stays within [`RUNG_P99_MS`].
    pub fn passes(&self) -> bool {
        self.invalid_reason().is_none()
            && self.busy == 0
            && self.failed == 0
            && self.p99_ms().is_some_and(|p| p <= RUNG_P99_MS)
    }
}

/// Runs one phase: `plan` sent on `schedule` (µs offsets) from a sender
/// thread, answers collected and checked by a receiver thread.
pub fn run_phase(
    server: &mut Server,
    bases: &[Base],
    (schedule, plan): &(Vec<u64>, Vec<Planned>),
) -> Result<Phase, String> {
    let misses_before = server.counters(&["serve.cache.misses"])?[0];
    let id0 = server.next_request_id;
    server.next_request_id += plan.len() as u32;

    let mut sender = server.load.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut receiver = server.load.try_clone().map_err(|e| format!("clone: {e}"))?;
    let send_errors = AtomicU32::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let (sent, answers) = std::thread::scope(|scope| {
        let send_errors = &send_errors;
        let schedule = &schedule;
        let tx = scope.spawn(move || {
            let mut sent = Vec::with_capacity(plan.len());
            for (k, p) in plan.iter().enumerate() {
                // Build the payload before waiting, so its cost never makes
                // the send late.
                let payload = request_for(&variant(&bases[p.base].module, p.variant)).encode();
                let due = start + Duration::from_micros(schedule[k]);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                sent.push(Instant::now());
                if sender.send(Op::ReqCompress, id0 + k as u32, &payload).is_err() {
                    send_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
            sent
        });
        let rx = scope.spawn(move || {
            let mut answers: Vec<Option<(Instant, Outcome)>> = vec![None; plan.len()];
            for _ in 0..plan.len() {
                let Ok(Some(frame)) = receiver.recv() else { break };
                let now = Instant::now();
                let Some(k) = frame.request_id.checked_sub(id0).map(|k| k as usize) else {
                    continue;
                };
                let Some(slot) = answers.get_mut(k) else { continue };
                let outcome = match frame.op {
                    Op::RespOk if frame.payload == bases[plan[k].base].expected => Outcome::Ok,
                    Op::RespErr
                        if matches!(decode_error(&frame.payload), Some((ErrorCode::Busy, _))) =>
                    {
                        Outcome::Busy
                    }
                    _ => Outcome::Failed,
                };
                *slot = Some((now, outcome));
            }
            answers
        });
        (tx.join().expect("sender thread"), rx.join().expect("receiver thread"))
    });

    let records: Vec<Record> = plan
        .iter()
        .enumerate()
        .map(|(k, &planned)| {
            let scheduled = start + Duration::from_micros(schedule[k]);
            let (answered, outcome) = answers[k].unwrap_or((Instant::now(), Outcome::Failed));
            Record { planned, scheduled, sent: sent[k], answered, outcome }
        })
        .collect();
    for r in &records {
        if r.planned.first_seen && r.outcome == Outcome::Ok {
            server.answered.push_back((r.planned.base, r.planned.variant));
            if server.answered.len() > HIT_POOL {
                server.answered.pop_front();
            }
        }
    }
    let count = |o: Outcome| records.iter().filter(|r| r.outcome == o).count();
    let server_misses = server.counters(&["serve.cache.misses"])?[0] - misses_before;
    let (busy, failed) = (count(Outcome::Busy), count(Outcome::Failed));
    let failed = failed.max(send_errors.into_inner() as usize);
    Ok(Phase { records, server_misses, busy, failed })
}

/// Mean µs per `protocol::parse_frame` over the request frames of `plan`.
pub fn parse_frame_us(bases: &[Base], plan: &[Planned]) -> Result<f64, String> {
    let frames: Vec<Vec<u8>> = plan
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let req = request_for(&variant(&bases[p.base].module, p.variant));
            encode_frame(Op::ReqCompress, k as u32 + 1, &req.encode())
        })
        .collect();
    let t0 = Instant::now();
    for f in &frames {
        if !matches!(parse_frame(f), ParseOutcome::Frame { .. }) {
            return Err("request frame failed to parse".into());
        }
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / frames.len().max(1) as f64)
}
