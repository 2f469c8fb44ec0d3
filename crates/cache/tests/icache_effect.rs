//! The paper's §1 motivation, measured honestly: compression shrinks the
//! code working set *when there is redundancy to harvest*. The hand-written
//! kernels are small and mostly unique code, so per-kernel results vary
//! (escape nibbles can even grow a tiny program); the defensible claims are
//! aggregate ones, plus a strong per-program claim on the real benchmark
//! images whose redundancy the scheme targets.

use codense_cache::{replay, replay_dict_cache, Cache, CacheConfig, FetchRef, TracingFetch};
use codense_core::{CompressionConfig, Compressor};
use codense_vm::{kernels, machine::Machine, run::run, LinearFetcher, PredecodedFetcher};

fn miss_counts(kernel: &codense_vm::kernels::Kernel, config: CacheConfig) -> (u64, u64) {
    let mut machine = Machine::new(1 << 20);
    kernel.apply_init(&mut machine);
    let mut fetch = TracingFetch::new(LinearFetcher::new(kernel.module.code.clone()));
    let r1 = run(&mut machine, &mut fetch, 0, 10_000_000).expect("uncompressed run");
    let mut cache = Cache::new(config);
    fetch.replay(&mut cache);
    let plain = cache.stats().misses;

    let compressed = Compressor::new(CompressionConfig::nibble_aligned())
        .compress(&kernel.module)
        .expect("compress");
    let mut machine = Machine::new(1 << 20);
    kernel.apply_init(&mut machine);
    let mut fetch = TracingFetch::new(PredecodedFetcher::new(&compressed));
    let r2 = run(&mut machine, &mut fetch, 0, 10_000_000).expect("compressed run");
    assert_eq!(r1.exit_code, r2.exit_code);
    let mut cache = Cache::new(config);
    fetch.replay(&mut cache);
    (plain, cache.stats().misses)
}

#[test]
fn aggregate_misses_shrink_at_realistic_sizes() {
    // At 128B+ caches the compressed kernels win in aggregate, and no
    // kernel degrades badly (a line or two of layout wobble at most).
    for size in [128usize, 256, 512] {
        let config = CacheConfig { size_bytes: size, line_bytes: 16, ways: 1 };
        let mut plain_total = 0u64;
        let mut compressed_total = 0u64;
        for kernel in kernels::all() {
            let (plain, compressed) = miss_counts(&kernel, config);
            assert!(
                compressed <= plain + 2,
                "{} @ {size}B: compressed {compressed} vs plain {plain}",
                kernel.name
            );
            plain_total += plain;
            compressed_total += compressed;
        }
        assert!(compressed_total < plain_total, "@ {size}B: {compressed_total} vs {plain_total}");
    }
}

#[test]
fn redundant_kernels_win_even_when_tiny_ones_lose() {
    // memcpy and sieve have repetitive bodies the dictionary harvests;
    // their compressed forms never touch more lines at these sizes.
    for kernel in [kernels::memcpy(), kernels::sieve()] {
        for size in [64usize, 128, 256] {
            let config = CacheConfig { size_bytes: size, line_bytes: 16, ways: 1 };
            let (plain, compressed) = miss_counts(&kernel, config);
            assert!(
                compressed <= plain,
                "{} @ {size}B: compressed {compressed} vs plain {plain}",
                kernel.name
            );
        }
    }
}

#[test]
fn benchmark_images_halve_their_cold_footprint() {
    // For the real benchmark images (where the paper's redundancy premise
    // holds), the cold-line footprint tracks the compression ratio: a
    // straight-line walk of the compressed image touches roughly half the
    // lines of the original.
    let module = codense_codegen::benchmark("compress", codense_obj::IsaId::Ppc).unwrap();
    let compressed =
        Compressor::new(CompressionConfig::nibble_aligned()).compress(&module).unwrap();

    let line = 16u64;
    let plain_lines = (module.text_bytes() as u64).div_ceil(line);
    let comp_lines = (compressed.text_bytes() as u64).div_ceil(line);
    let ratio = comp_lines as f64 / plain_lines as f64;
    assert!(
        (0.40..0.60).contains(&ratio),
        "cold footprint ratio {ratio:.2} should track the compression ratio"
    );
}

#[test]
fn trace_replay_is_deterministic() {
    let kernel = kernels::bubble_sort();
    let run_trace = || {
        let mut machine = Machine::new(1 << 20);
        kernel.apply_init(&mut machine);
        let mut fetch = TracingFetch::new(LinearFetcher::new(kernel.module.code.clone()));
        run(&mut machine, &mut fetch, 0, 10_000_000).unwrap();
        fetch.into_trace()
    };
    let a: Vec<FetchRef> = run_trace();
    let b: Vec<FetchRef> = run_trace();
    assert_eq!(a, b);
    let mut c1 = Cache::new(CacheConfig { size_bytes: 256, line_bytes: 16, ways: 2 });
    let mut c2 = Cache::new(CacheConfig { size_bytes: 256, line_bytes: 16, ways: 2 });
    replay(&a, &mut c1);
    replay(&b, &mut c2);
    assert_eq!(c1.stats(), c2.stats());
}

#[test]
fn dictionary_cache_models_section_3_3() {
    // §3.3: a small on-chip dictionary cache backed by the data segment.
    // Bigger caches can only hit more, and an unbounded cache misses each
    // used entry exactly once (cold loads).
    let kernel = kernels::bubble_sort();
    let compressed =
        Compressor::new(CompressionConfig::nibble_aligned()).compress(&kernel.module).unwrap();
    let mut machine = Machine::new(1 << 20);
    kernel.apply_init(&mut machine);
    let mut fetch = TracingFetch::new(PredecodedFetcher::new(&compressed));
    let result = run(&mut machine, &mut fetch, 0, 1_000_000).unwrap();
    assert_eq!(result.exit_code, kernel.expected);

    let tiny = replay_dict_cache(fetch.trace(), &compressed, 1);
    let small = replay_dict_cache(fetch.trace(), &compressed, 4);
    let huge = replay_dict_cache(fetch.trace(), &compressed, 10_000);
    for stats in [tiny, small, huge] {
        assert_eq!(stats.hits + stats.misses, result.stats.codewords, "one touch per expansion");
    }
    assert!(small.misses <= tiny.misses);
    assert!(huge.misses <= small.misses);
    // Unbounded: one cold miss per distinct entry used.
    assert!(huge.misses <= compressed.dictionary.len() as u64);
    assert!(huge.bytes_loaded <= compressed.dictionary_bytes() as u64);
    assert!(tiny.misses > huge.misses, "a one-entry cache must thrash on bubble_sort");
    // The zero-entry request is clamped to one entry.
    assert_eq!(replay_dict_cache(fetch.trace(), &compressed, 0), tiny);
}
