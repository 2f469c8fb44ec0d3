//! End-to-end checks of profile-guided hybrid compression: the headline
//! size-vs-cycles trade-off, full-trace correctness of hybrid images, and
//! determinism of the artifacts across worker counts.

use codense_core::parallel::par_map_with;
use codense_core::verify::verify;
use codense_core::{CompressionConfig, Compressor, EncodingKind};
use codense_fuzz::oracle::{lockstep, LockstepOk, TraceMask};
use codense_profile::{
    bench, collect, hot_mask, hybrid_sweep, render_bench_json, render_profiles_json,
    score_compressed, score_native, HotnessPolicy, HybridOptions, Subject,
};

/// The padded benchmark suite as profiling subjects.
fn bench_subjects() -> Vec<Subject> {
    bench::benches().iter().map(Subject::from_kernel).collect()
}

fn config_for(encoding: EncodingKind) -> CompressionConfig {
    CompressionConfig { max_entry_len: 4, max_codewords: encoding.capacity(), encoding }
}

/// The PR's headline claim: under the nibble encoding, a mid-range hotness
/// coverage recovers at least half of full compression's modeled cycle
/// overhead while keeping at least 70% of its size reduction, on at least
/// four benchmarks.
#[test]
fn mid_range_coverage_recovers_cycles_and_retains_size() {
    let options = HybridOptions::default();
    let results = hybrid_sweep(&bench_subjects(), &options).unwrap();
    assert!(results.len() >= 4);
    let mut winners = Vec::new();
    for r in &results {
        assert_eq!(r.points.len(), options.coverages.len(), "{}", r.bench);
        let good = r.points.iter().any(|p| {
            p.coverage > 0.0
                && p.coverage < 1.0
                && p.recovered_pct >= 50.0
                && p.retained_pct >= 70.0
        });
        if good {
            winners.push(r.bench.clone());
        }
    }
    assert!(winners.len() >= 4, "only {} benchmarks meet the bar: {winners:?}", winners.len());
}

/// Hybrid images must be full-trace equivalent to their originals under
/// every encoding, not just exit-code equivalent.
#[test]
fn hybrid_images_lockstep_under_all_encodings() {
    let mask =
        TraceMask { skip_gprs: 1 << 0, mem_skip: std::iter::once(0xE0000..1 << 20).collect() };
    for name in ["fib", "bubble_sort", "call_frames", "quicksort"] {
        let kernel = bench::bench(name).unwrap();
        let profile =
            collect(&Subject::from_kernel(&kernel), EncodingKind::NibbleAligned, 10_000_000)
                .unwrap();
        let hot = hot_mask(&profile, HotnessPolicy::TopCoverage(0.5));
        assert!(hot.exempt_insn_count() > 0, "{name}: expected some hot code");
        for encoding in [EncodingKind::Baseline, EncodingKind::OneByte, EncodingKind::NibbleAligned]
        {
            let hybrid = Compressor::new(config_for(encoding))
                .compress_masked(&kernel.module, &hot.exempt)
                .unwrap();
            verify(&kernel.module, &hybrid).unwrap();
            let boot = || Box::new(kernel.machine());
            let got = lockstep(&kernel.module, &hybrid, &[], &boot, &mask, 10_000_000)
                .unwrap_or_else(|d| panic!("{name} {encoding:?}: trace divergence: {d}"));
            assert_eq!(
                got,
                LockstepOk::Completed { steps: profile.steps, exit: kernel.expected },
                "{name} {encoding:?}"
            );
        }
    }
}

/// Exempting hot code must never make the image smaller than full
/// compression, and exempting everything must be byte-neutral in ratio
/// terms (ratio 1.0 means no compression at all of executed+cold code is
/// impossible here since cold code still compresses — it must stay < 1).
#[test]
fn coverage_monotonically_trades_size_for_cycles() {
    let gcd = Subject::from_kernel(&bench::bench("gcd").unwrap());
    let options = HybridOptions::default();
    let profile = collect(&gcd, options.encoding, options.max_steps).unwrap();
    let native = score_native(&gcd, &options.cost, options.max_steps).unwrap();
    let mut last_ratio = 0.0;
    for coverage in [0.0, 0.5, 1.0] {
        let hot = hot_mask(&profile, HotnessPolicy::TopCoverage(coverage));
        let hybrid = Compressor::new(config_for(options.encoding))
            .compress_masked(&gcd.module, &hot.exempt)
            .unwrap();
        let score = score_compressed(&gcd, &hybrid, &options.cost, options.max_steps).unwrap();
        let ratio = hybrid.compression_ratio();
        assert!(ratio >= last_ratio, "ratio shrank as coverage grew: {ratio} < {last_ratio}");
        assert!(ratio < 1.0, "cold tail must still compress at coverage {coverage}");
        assert!(score.cycles >= native.cycles, "model can't beat native");
        last_ratio = ratio;
    }
}

/// Both rendered artifacts must be byte-identical across worker counts.
#[test]
fn artifacts_are_identical_across_jobs() {
    let subjects = bench_subjects();
    let render = |jobs: usize| {
        let profiles = par_map_with(jobs, subjects[..4].iter().collect(), |_, s| {
            collect(s, EncodingKind::NibbleAligned, 10_000_000).unwrap()
        });
        render_profiles_json(&profiles, "nibble")
    };
    assert_eq!(render(1), render(8));

    let options = HybridOptions { coverages: vec![0.0, 0.5, 1.0], ..HybridOptions::default() };
    let sweep = |jobs: usize| {
        codense_core::parallel::set_jobs(jobs);
        let results = hybrid_sweep(&subjects, &options).unwrap();
        codense_core::parallel::set_jobs(0);
        render_bench_json(&results, "nibble", &options.cost)
    };
    assert_eq!(sweep(1), sweep(8));
}
