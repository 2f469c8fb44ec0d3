//! Closed-loop load generation against a serve instance, plus two helpers
//! that serve the repo benchmark's open-loop load generator
//! (`benchmark/src/serve.rs`): [`arrival_schedule_us`] and
//! [`counter_value`].
//!
//! [`run_loadgen`] opens N connections, each issuing its next request as
//! soon as the previous one answers, and compares every response
//! byte-for-byte against the expected container (the caller computes it
//! once, in process). It is a correctness smoke first: a served result that
//! differs from the in-process compression counts as `failed`, not `ok`.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use codense_codegen::Rng;

use crate::client::{Client, RequestError};
use crate::protocol::{CompressRequest, ErrorCode};

/// Load-generation parameters (closed loop).
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server address.
    pub addr: String,
    /// Total requests to issue across all connections.
    pub requests: usize,
    /// Concurrent connections, each on its own thread.
    pub connections: usize,
    /// Client-side socket timeout per request.
    pub timeout_ms: u64,
}

impl Default for LoadgenOptions {
    fn default() -> LoadgenOptions {
        LoadgenOptions {
            addr: "127.0.0.1:0".into(),
            requests: 32,
            connections: 1,
            timeout_ms: 30_000,
        }
    }
}

/// Outcome of one closed-loop run.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Responses byte-identical to the expected container.
    pub ok: u64,
    /// `BUSY` backpressure rejections (not retried, not failures).
    pub busy: u64,
    /// Everything else: typed errors, wire errors, byte mismatches.
    pub failed: u64,
    /// Wall-clock for the whole run, microseconds.
    pub wall_us: u64,
    /// Per-`ok`-request latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
}

impl LoadgenReport {
    /// The `p`-th latency percentile (0 < p <= 100) in microseconds by the
    /// ceil-rank rule over the merged, sorted sample vector; 0 when no
    /// request succeeded.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = ((p / 100.0) * self.latencies_us.len() as f64).ceil() as usize;
        self.latencies_us[rank.clamp(1, self.latencies_us.len()) - 1]
    }

    /// Completed (`ok`) requests per second of wall-clock.
    pub fn throughput_rps(&self) -> f64 {
        if self.wall_us == 0 {
            return 0.0;
        }
        self.ok as f64 / (self.wall_us as f64 / 1e6)
    }
}

/// Drives `opts.requests` copies of `request` over `opts.connections`
/// concurrent connections, checking each response against `expected`.
pub fn run_loadgen(
    opts: &LoadgenOptions,
    request: &CompressRequest,
    expected: &[u8],
) -> std::io::Result<LoadgenReport> {
    let next = AtomicUsize::new(0);
    let ok = AtomicU64::new(0);
    let busy = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let latencies: Mutex<Vec<u64>> = Mutex::new(Vec::with_capacity(opts.requests));
    let connect_error: Mutex<Option<std::io::Error>> = Mutex::new(None);

    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..opts.connections.max(1) {
            scope.spawn(|| {
                let mut client = match Client::connect(opts.addr.as_str(), opts.timeout_ms) {
                    Ok(c) => c,
                    Err(e) => {
                        connect_error.lock().unwrap().get_or_insert(e);
                        return;
                    }
                };
                let mut mine = Vec::new();
                while next.fetch_add(1, Ordering::Relaxed) < opts.requests {
                    let t0 = Instant::now();
                    match client.compress(request) {
                        Ok(bytes) if bytes == expected => {
                            mine.push(t0.elapsed().as_micros() as u64);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(RequestError::Rejected(ErrorCode::Busy, _)) => {
                            busy.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies.lock().unwrap().extend(mine);
            });
        }
    });
    if let Some(e) = connect_error.into_inner().unwrap() {
        return Err(e);
    }

    let mut latencies_us = latencies.into_inner().unwrap();
    latencies_us.sort_unstable();
    Ok(LoadgenReport {
        ok: ok.into_inner(),
        busy: busy.into_inner(),
        failed: failed.into_inner(),
        wall_us: start.elapsed().as_micros() as u64,
        latencies_us,
    })
}

/// The deterministic arrival schedule: cumulative microsecond offsets of
/// `requests` exponential inter-arrival gaps at `rate_rps` (a Poisson
/// process, reproducible from the seed).
pub fn arrival_schedule_us(rate_rps: f64, requests: usize, seed: u64) -> Vec<u64> {
    let rate = rate_rps.max(1e-6);
    let mut rng = Rng::new(seed);
    let mut t = 0.0f64;
    (0..requests)
        .map(|_| {
            // 53 uniform mantissa bits in [0, 1); ln(1-u) is then finite.
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln() / rate;
            (t * 1e6) as u64
        })
        .collect()
}

/// Extracts one counter value from a schema-1 metrics JSON report.
pub fn counter_value(metrics_json: &str, name: &str) -> Option<u64> {
    let at = metrics_json.find(&format!("\"{name}\":"))?;
    let rest = &metrics_json[at..];
    let colon = rest.find(':')?;
    let digits: String = rest[colon + 1..]
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_expected_ranks() {
        let r = LoadgenReport {
            ok: 100,
            latencies_us: (1..=100).collect(),
            wall_us: 1_000_000,
            ..Default::default()
        };
        assert_eq!(r.percentile_us(50.0), 50);
        assert_eq!(r.percentile_us(95.0), 95);
        assert_eq!(r.percentile_us(99.0), 99);
        assert_eq!(r.percentile_us(100.0), 100);
        assert!((r.throughput_rps() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn percentiles_on_known_ten_sample_distribution() {
        // The ceil-rank rule on n=10: p50 → rank 5, p95 and p99 → rank 10.
        let r = LoadgenReport {
            ok: 10,
            latencies_us: vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
            wall_us: 1,
            ..Default::default()
        };
        assert_eq!(r.percentile_us(50.0), 50);
        assert_eq!(r.percentile_us(95.0), 100);
        assert_eq!(r.percentile_us(99.0), 100);
        assert_eq!(r.percentile_us(10.0), 10);
        assert_eq!(r.percentile_us(0.1), 10, "tiny p clamps to the first sample");
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = LoadgenReport::default();
        assert_eq!(r.percentile_us(99.0), 0);
        assert_eq!(r.throughput_rps(), 0.0);
    }

    #[test]
    fn arrival_schedule_is_deterministic_and_rate_shaped() {
        let a = arrival_schedule_us(100.0, 256, 42);
        let b = arrival_schedule_us(100.0, 256, 42);
        assert_eq!(a, b, "same seed, same schedule");
        let c = arrival_schedule_us(100.0, 256, 43);
        assert_ne!(a, c, "different seed, different schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets are cumulative");
        // 256 arrivals at 100 rps take ~2.56s in expectation; allow wide
        // slack (the variance of an exponential sum is substantial).
        let last = *a.last().unwrap();
        assert!((1_000_000..6_000_000).contains(&last), "last offset {last}");
    }

    #[test]
    fn counter_value_parses_metrics_json() {
        let json = "{\n  \"counters\": {\n    \"serve.cache.hits\": 12,\n    \
                    \"serve.cache.misses\": 3\n  }\n}\n";
        assert_eq!(counter_value(json, "serve.cache.hits"), Some(12));
        assert_eq!(counter_value(json, "serve.cache.misses"), Some(3));
        assert_eq!(counter_value(json, "serve.cache.evictions"), None);
    }
}
