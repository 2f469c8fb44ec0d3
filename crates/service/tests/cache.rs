//! Cache property tests: a seeded random-operation battery against a
//! naive reference model (hit results, LRU eviction order, byte-budget
//! bound), server-level hit/fresh byte identity, and the counter
//! commutativity contract (`serve.*` counter deltas are byte-identical at
//! any worker count for sequential traffic).

use std::sync::Mutex;

use codense_core::{telemetry, EncodingKind};
use codense_service::{serve, CacheKey, Client, CompressRequest, ResultCache, ServeOptions};

mod common;
use common::expected_container;

/// Serializes the tests that read the process-global `serve.*` counters —
/// a concurrently running server test would pollute the deltas.
static SERVER_LOCK: Mutex<()> = Mutex::new(());

fn key(n: u32) -> CacheKey {
    CacheKey::new(0, 0, 4, 0, &n.to_be_bytes())
}

/// The obviously-correct reference: a vector ordered MRU-first.
#[derive(Default)]
struct ModelCache {
    entries: Vec<(CacheKey, Vec<u8>)>,
    budget: usize,
}

impl ModelCache {
    fn new(budget: usize) -> ModelCache {
        ModelCache { entries: Vec::new(), budget }
    }

    fn bytes(&self) -> usize {
        self.entries.iter().map(|(_, v)| v.len()).sum()
    }

    fn get(&mut self, k: &CacheKey) -> Option<Vec<u8>> {
        let at = self.entries.iter().position(|(ek, _)| ek == k)?;
        let entry = self.entries.remove(at);
        let value = entry.1.clone();
        self.entries.insert(0, entry);
        Some(value)
    }

    fn insert(&mut self, k: CacheKey, v: Vec<u8>) {
        if let Some(at) = self.entries.iter().position(|(ek, _)| ek == &k) {
            self.entries.remove(at);
        }
        if self.budget == 0 || v.len() > self.budget {
            return;
        }
        while self.bytes() + v.len() > self.budget {
            self.entries.pop();
        }
        self.entries.insert(0, (k, v));
    }

    fn order(&self) -> Vec<CacheKey> {
        self.entries.iter().map(|(k, _)| *k).collect()
    }
}

/// Seeded random insert/lookup battery: the slab-and-list cache must agree
/// with the naive model on every hit, every miss, the full recency order,
/// and the byte total — and never exceed its budget.
#[test]
fn random_op_battery_matches_reference_model() {
    for seed in [1u64, 0xC0DE, 0xDEAD_BEEF, 7, 99] {
        let mut rng = codense_codegen::Rng::new(seed);
        let budget = 64 + rng.below(512);
        let mut cache = ResultCache::new(budget);
        let mut model = ModelCache::new(budget);

        for step in 0..2000 {
            let k = key(rng.below(24) as u32);
            if rng.chance(0.4) {
                let got = cache.get(&k).map(<[u8]>::to_vec);
                let want = model.get(&k);
                assert_eq!(got, want, "seed {seed} step {step}: get({k:?}) diverged");
            } else {
                let v = vec![rng.below(256) as u8; rng.below(96)];
                cache.insert(k, v.clone());
                model.insert(k, v);
            }
            assert_eq!(cache.bytes(), model.bytes(), "seed {seed} step {step}: byte totals");
            assert!(cache.bytes() <= budget, "seed {seed} step {step}: budget exceeded");
            assert_eq!(
                cache.recency_order(),
                model.order(),
                "seed {seed} step {step}: LRU order diverged"
            );
        }
        assert!(!cache.is_empty(), "seed {seed}: battery never left anything cached");
    }
}

fn small_module(tag: u32) -> codense_obj::ObjectModule {
    common::module("cache-test", 12, Some(tag))
}

fn request_for(module: &codense_obj::ObjectModule) -> CompressRequest {
    common::request(module, EncodingKind::NibbleAligned)
}

fn serve_counters() -> Vec<(&'static str, u64)> {
    telemetry::counter_snapshot()
        .into_iter()
        .filter(|(name, _)| name.starts_with("serve."))
        .collect()
}

/// A cache hit must be byte-identical to a fresh compression, and the
/// server's own hit/miss counters must account for every lookup.
#[test]
fn server_cache_hit_is_byte_identical_to_fresh_compression() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let before = serve_counters();
    let mut handle = serve(&ServeOptions { jobs: 1, ..Default::default() }).unwrap();
    let module = small_module(0xA);
    let req = request_for(&module);
    let expected = expected_container(&module, &req);

    let mut client = Client::connect(handle.addr(), 30_000).unwrap();
    let miss = client.compress(&req).unwrap();
    let hit = client.compress(&req).unwrap();
    assert_eq!(miss, expected, "fresh compression differs from in-process result");
    assert_eq!(hit, expected, "cache hit differs from fresh compression");
    drop(client);
    handle.shutdown();

    let delta: Vec<(&str, u64)> = serve_counters()
        .into_iter()
        .zip(&before)
        .map(|((name, now), &(_, was))| (name, now - was))
        .collect();
    let get = |n: &str| delta.iter().find(|(name, _)| *name == n).unwrap().1;
    assert_eq!(get("serve.cache.misses"), 1, "{delta:?}");
    assert_eq!(get("serve.cache.hits"), 1, "{delta:?}");
    assert_eq!(get("serve.requests_ok"), 2, "{delta:?}");
}

/// A byte budget far below the working set forces evictions; results stay
/// byte-exact and the eviction counter moves.
#[test]
fn tiny_budget_evicts_but_stays_byte_exact() {
    let _guard = SERVER_LOCK.lock().unwrap();
    let items: Vec<_> = (0..3)
        .map(|t| {
            let module = small_module(t);
            let req = request_for(&module);
            let expected = expected_container(&module, &req);
            (req, expected)
        })
        .collect();
    // Budget fits exactly one compressed container, so cycling three
    // distinct modules keeps evicting.
    let budget = items.iter().map(|(_, e)| e.len()).max().unwrap() + 8;
    let before = serve_counters();
    let mut handle =
        serve(&ServeOptions { jobs: 1, cache_bytes: budget, ..Default::default() }).unwrap();

    let mut client = Client::connect(handle.addr(), 30_000).unwrap();
    for round in 0..4 {
        for (i, (req, expected)) in items.iter().enumerate() {
            let got = client.compress(req).unwrap();
            assert_eq!(&got, expected, "round {round} item {i}");
        }
    }
    drop(client);
    handle.shutdown();

    let delta: Vec<(&str, u64)> = serve_counters()
        .into_iter()
        .zip(&before)
        .map(|((name, now), &(_, was))| (name, now - was))
        .collect();
    let get = |n: &str| delta.iter().find(|(name, _)| *name == n).unwrap().1;
    assert!(get("serve.cache.evictions") > 0, "a 600-byte budget must evict: {delta:?}");
    assert_eq!(get("serve.requests_failed"), 0, "{delta:?}");
}

/// Counter commutativity: the same sequential traffic against a 1-worker
/// and an 8-worker server produces byte-identical `serve.*` counter
/// deltas — the determinism contract behind the verify.sh metrics gate.
#[test]
fn counter_deltas_are_identical_at_jobs_1_and_8() {
    let _guard = SERVER_LOCK.lock().unwrap();
    // Repeat-heavy sequence over three distinct modules: misses, hits, and
    // an eviction-free cache, all in deterministic arrival order.
    let items: Vec<_> = (0..3)
        .map(|t| {
            let module = small_module(100 + t);
            let req = request_for(&module);
            let expected = expected_container(&module, &req);
            (req, expected)
        })
        .collect();
    let sequence = [0usize, 1, 0, 0, 2, 1, 0, 2, 2, 0, 1, 0];

    let run = |jobs: usize| -> Vec<(&'static str, u64)> {
        let before = serve_counters();
        let mut handle = serve(&ServeOptions { jobs, ..Default::default() }).unwrap();
        let mut client = Client::connect(handle.addr(), 30_000).unwrap();
        client.ping().unwrap();
        for &i in &sequence {
            let (req, expected) = &items[i];
            assert_eq!(&client.compress(req).unwrap(), expected);
        }
        drop(client);
        handle.shutdown();
        serve_counters()
            .into_iter()
            .zip(&before)
            .map(|((name, now), &(_, was))| (name, now - was))
            // High-water marks are `record_max` on process-global state:
            // monotone across runs in one process, so their *deltas* are
            // not comparable here. (The verify.sh gate compares them
            // across separate server processes, where both start at 0.)
            .filter(|(name, _)| !name.contains("high_water"))
            .collect()
    };

    let d1 = run(1);
    let d8 = run(8);
    assert_eq!(d1, d8, "serve.* counter deltas must not depend on worker count");
    let get = |n: &str| d1.iter().find(|(name, _)| *name == n).unwrap().1;
    assert_eq!(get("serve.cache.misses"), 3, "{d1:?}");
    assert_eq!(get("serve.cache.hits"), sequence.len() as u64 - 3, "{d1:?}");
}
