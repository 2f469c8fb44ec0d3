//! Compression at corpus scale, pinned byte for byte. For the seeded
//! 100K-insn corpus program of each ISA, refine × huffman must write the
//! container whose CRC-32 `tests/golden/refine_100k.txt` records; for the
//! 1M-insn program of each ISA, greedy and refine × nibble and huffman must
//! write the containers `tests/golden/containers_1m.txt` records.
//!
//! The suite goldens pin refine on programs of a few thousand instructions;
//! these have real block structure, thousands of picks and a full trial
//! budget, and at 1M the lay-out's and finish's bookkeeping runs at the
//! size the benchmark's `scale-1m` workload measures. Ignored by default
//! because refine runs a dozen selection passes per program, slow in debug
//! builds; `scripts/verify.sh` runs them in release:
//! `cargo test --release -p codense-corpus --test refine -- --ignored`.
//! To re-bless after an intentional change, set `CODENSE_BLESS=1` on that
//! command and review `git diff crates/corpus/tests/golden/`.

use codense_core::{container, CompressionConfig, Compressor, SelectorKind};
use codense_corpus::{build, CorpusIsa, CorpusSpec};
use codense_obj::crc32::crc32;

fn check_golden(file: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file);
    if std::env::var("CODENSE_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}; bless it with CODENSE_BLESS=1", path.display()));
    assert_eq!(actual, expected, "corpus containers drifted from {file}");
}

/// One golden line per ISA and case: the corpus program of `insns`
/// instructions compressed under each (selector, configuration), with the
/// container's size and CRC-32. The tests only compress, so a small
/// dynamic target keeps the builder's calibration run short.
fn container_lines(insns: usize, cases: &[(SelectorKind, CompressionConfig)]) -> String {
    let spec = CorpusSpec { insns, dynamic_target: 40_000, ..CorpusSpec::default() };
    let mut out = String::new();
    for corpus_isa in [CorpusIsa::Ppc, CorpusIsa::Mips] {
        let isa = corpus_isa.isa_ref();
        let p = build(&spec, corpus_isa).expect("build");
        for (selector, config) in cases {
            let c = Compressor::new(config.clone())
                .with_isa(isa)
                .with_selector(*selector)
                .compress(&p.module)
                .unwrap_or_else(|e| panic!("{} {selector:?}: {e}", isa.name()));
            let bytes = container::serialize(&c);
            out.push_str(&format!(
                "{} {} insns {} {}: {} bytes, crc32 {:08x}\n",
                isa.name(),
                p.module.len(),
                config.encoding.name(),
                selector.name(),
                bytes.len(),
                crc32(&bytes)
            ));
        }
    }
    out
}

#[test]
#[ignore = "slow in debug builds; scripts/verify.sh runs it in release"]
fn refine_containers_are_pinned_on_100k_corpus_programs() {
    let out = container_lines(100_000, &[(SelectorKind::Refine, CompressionConfig::huffman())]);
    check_golden("refine_100k.txt", &out);
}

#[test]
#[ignore = "slow in debug builds; scripts/verify.sh runs it in release"]
fn containers_are_pinned_on_1m_corpus_programs() {
    let cases: Vec<_> = SelectorKind::ALL
        .into_iter()
        .flat_map(|s| {
            [CompressionConfig::nibble_aligned(), CompressionConfig::huffman()].map(|c| (s, c))
        })
        .collect();
    check_golden("containers_1m.txt", &container_lines(1_000_000, &cases));
}
