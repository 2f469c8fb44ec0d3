//! The production matchfinder against the reference engine at corpus
//! scale. For a seeded corpus program of each ISA, under nibble and
//! huffman, `MatchfinderKind::Interned` and `MatchfinderKind::Reference`
//! must give identical images, pick logs and dictionaries.
//!
//! `matchfinder_equivalence` in `codense-core` covers small PPC modules;
//! these programs have real block structure, library duplication and
//! thousands of picks. The 10K-insn programs run in the default suite. The
//! 100K variant is ignored by default because the reference engine takes
//! most of a second per compression at that size; `scripts/verify.sh` runs
//! it in release:
//! `cargo test --release -p codense-corpus --test matchfinder -- --ignored`.

use codense_core::greedy::MatchfinderKind;
use codense_core::{container, CompressionConfig, Compressor};
use codense_corpus::{build, CorpusIsa, CorpusSpec};

fn engines_agree(insns: usize) {
    // The test only compresses, so a small dynamic target keeps the
    // builder's calibration run short.
    let spec = CorpusSpec { insns, dynamic_target: 40_000, ..CorpusSpec::default() };
    for corpus_isa in [CorpusIsa::Ppc, CorpusIsa::Mips] {
        let isa = corpus_isa.isa_ref();
        let p = build(&spec, corpus_isa).expect("build");
        for config in [CompressionConfig::nibble_aligned(), CompressionConfig::huffman()] {
            let ctx = format!("{} {insns} insns {:?}", isa.name(), config.encoding);
            let compress = |kind| {
                Compressor::new(config.clone())
                    .with_isa(isa)
                    .with_matchfinder(kind)
                    .compress(&p.module)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"))
            };
            let a = compress(MatchfinderKind::Interned);
            let b = compress(MatchfinderKind::Reference);
            assert!(a.picks.len() > 100, "{ctx}: too few picks to exercise selection");
            assert_eq!(a.picks, b.picks, "{ctx}: pick log diverged");
            assert_eq!(a.dictionary, b.dictionary, "{ctx}: dictionary diverged");
            assert_eq!(a.atoms, b.atoms, "{ctx}: atom stream diverged");
            assert_eq!(a.image, b.image, "{ctx}: packed image diverged");
            assert_eq!(container::serialize(&a), container::serialize(&b), "{ctx}: container");
        }
    }
}

#[test]
fn engines_agree_on_10k_corpus_programs() {
    engines_agree(10_000);
}

#[test]
#[ignore = "slow in debug builds; scripts/verify.sh runs it in release"]
fn engines_agree_on_100k_corpus_programs() {
    engines_agree(100_000);
}
