//! Cross-crate integration: compress real benchmark modules under every
//! encoding, verify the round trip, and check determinism.

use codense::prelude::*;

fn benchmarks() -> Vec<ObjectModule> {
    // The two smallest benchmarks keep debug-mode test time reasonable; the
    // full suite is exercised by the release-mode `repro` harness and
    // benches.
    ["compress", "li"].iter().map(|n| codense::codegen::benchmark(n, IsaId::Ppc).unwrap()).collect()
}

#[test]
fn all_encodings_roundtrip_on_real_benchmarks() {
    for module in benchmarks() {
        module.validate_with(codense::codegen::isa_ref(module.isa)).unwrap();
        for config in [
            CompressionConfig::baseline(),
            CompressionConfig::small_dictionary(32),
            CompressionConfig::nibble_aligned(),
        ] {
            let c = Compressor::new(config.clone()).compress(&module).unwrap();
            verify(&module, &c).unwrap_or_else(|e| panic!("{} {config:?}: {e}", module.name));
            assert!(c.compression_ratio() < 1.0, "{} {config:?}", module.name);
        }
    }
}

#[test]
fn compression_is_deterministic() {
    let module = codense::codegen::benchmark("compress", IsaId::Ppc).unwrap();
    let compress = |m: &ObjectModule| {
        Compressor::new(CompressionConfig::nibble_aligned()).compress(m).unwrap()
    };
    let a = compress(&module);
    let b = compress(&module);
    assert_eq!(a.image, b.image);
    assert_eq!(a.dictionary, b.dictionary);
    assert_eq!(a.picks, b.picks);
}

#[test]
fn expansion_covers_every_instruction_once() {
    let module = codense::codegen::benchmark("li", IsaId::Ppc).unwrap();
    let c = Compressor::new(CompressionConfig::baseline()).compress(&module).unwrap();
    let expanded = c.expand();
    assert_eq!(expanded.len(), module.len());
    for (i, (orig, _)) in expanded.iter().enumerate() {
        assert_eq!(*orig, i);
    }
}

#[test]
fn ratio_bands_match_paper_regime() {
    // Coarse acceptance bands: the baseline lands around 60-70%, the nibble
    // scheme in the paper's 30-50% reduction band, and the 32-entry one-byte
    // scheme in between baseline and none.
    for module in benchmarks() {
        let base = Compressor::new(CompressionConfig::baseline())
            .compress(&module)
            .unwrap()
            .compression_ratio();
        let nib = Compressor::new(CompressionConfig::nibble_aligned())
            .compress(&module)
            .unwrap()
            .compression_ratio();
        let small = Compressor::new(CompressionConfig::small_dictionary(32))
            .compress(&module)
            .unwrap()
            .compression_ratio();
        assert!((0.55..0.75).contains(&base), "{} baseline {base}", module.name);
        assert!((0.40..0.62).contains(&nib), "{} nibble {nib}", module.name);
        assert!(nib < base && base < small && small < 1.0, "{}", module.name);
    }
}

#[test]
fn jump_tables_patched_consistently() {
    let module = codense::codegen::benchmark("compress", IsaId::Ppc).unwrap();
    assert!(!module.jump_tables.is_empty(), "benchmark should contain switches");
    let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&module).unwrap();
    assert_eq!(c.jump_tables.len(), module.jump_tables.len());
    for (orig_table, new_table) in module.jump_tables.iter().zip(&c.jump_tables) {
        assert_eq!(orig_table.targets.len(), new_table.len());
        for (&idx, &addr) in orig_table.targets.iter().zip(new_table) {
            assert_eq!(c.address_of_orig(idx), Some(addr));
        }
    }
}
