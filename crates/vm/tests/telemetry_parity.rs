//! Telemetry parity: the compressed fetch engine's two loops and the
//! re-parsing specification report the same fetch-path telemetry.
//!
//! The `vm.fetch.*` counters are process-global, so this binary holds a
//! single test: nothing else may move them between a run's before and after
//! snapshots.

use codense_core::telemetry;
use codense_core::{CompressionConfig, Compressor};
use codense_vm::fetch_reference::CompressedFetcher;
use codense_vm::{kernels, run, run_predecoded, FetchStats, Machine, PredecodedFetcher, RunResult};

/// The `vm.fetch.*` counters, in registry order.
fn fetch_counters() -> Vec<(&'static str, u64)> {
    telemetry::counter_snapshot().into_iter().filter(|(n, _)| n.starts_with("vm.fetch.")).collect()
}

/// Runs `body` and returns its result with the `vm.fetch.*` deltas it
/// caused.
fn measured(body: impl FnOnce() -> RunResult) -> (RunResult, Vec<(&'static str, u64)>) {
    let before = fetch_counters();
    let result = body();
    let delta = fetch_counters().iter().zip(&before).map(|(&(n, a), &(_, b))| (n, a - b)).collect();
    (result, delta)
}

/// For every kernel under all four encodings: the spec under [`run`], the
/// production engine under [`run`], and the production engine under
/// [`run_predecoded`] give equal results, equal [`FetchStats`] and equal
/// `vm.fetch.*` deltas — and those deltas are the stats themselves.
#[test]
fn fetch_telemetry_matches_the_spec_on_every_kernel_and_encoding() {
    let mut codewords = 0;
    for kernel in kernels::all() {
        for (label, config) in [
            ("baseline", CompressionConfig::baseline()),
            ("one-byte", CompressionConfig::small_dictionary(32)),
            ("nibble", CompressionConfig::nibble_aligned()),
            ("huffman", CompressionConfig::huffman()),
        ] {
            let tag = format!("{} {label}", kernel.name);
            let compressed = Compressor::new(config).compress(&kernel.module).expect(&tag);
            let machine = || {
                let mut m = Machine::new(1 << 20);
                kernel.apply_init(&mut m);
                m
            };
            let (spec, spec_delta) = measured(|| {
                let mut fetch = CompressedFetcher::new(&compressed);
                run(&mut machine(), &mut fetch, 0, 1_000_000).expect(&tag)
            });
            let (generic, generic_delta) = measured(|| {
                let mut fetch = PredecodedFetcher::new(&compressed);
                run(&mut machine(), &mut fetch, 0, 1_000_000).expect(&tag)
            });
            let (threaded, threaded_delta) = measured(|| {
                let mut fetch = PredecodedFetcher::new(&compressed);
                run_predecoded(&mut machine(), &mut fetch, 0, 1_000_000).expect(&tag)
            });
            assert_eq!(spec.exit_code, kernel.expected, "{tag}");
            assert_eq!(generic, spec, "{tag}: run under the Fetch impl");
            assert_eq!(threaded, spec, "{tag}: run_predecoded");
            assert_eq!(generic_delta, spec_delta, "{tag}: telemetry under the Fetch impl");
            assert_eq!(threaded_delta, spec_delta, "{tag}: telemetry under run_predecoded");
            let s: FetchStats = spec.stats;
            let expected = [
                ("vm.fetch.buffered_insns", s.expanded_insns),
                ("vm.fetch.codewords", s.codewords),
                ("vm.fetch.escapes", s.insns - s.expanded_insns),
                ("vm.fetch.linear_insns", 0),
                ("vm.fetch.nibbles", s.nibbles_fetched),
                ("vm.fetch.realigns", s.realigns),
            ];
            assert_eq!(spec_delta, expected, "{tag}: telemetry is the stats");
            codewords += s.codewords;
        }
    }
    assert!(codewords > 0, "no kernel expanded a codeword");
}
