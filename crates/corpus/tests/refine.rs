//! Corpus programs and their compression, pinned byte for byte.
//!
//! Builds: for the seeded 10K- and 100K-insn corpus specs of each ISA
//! (at a small dynamic target), `tests/golden/builds.txt` records what
//! `build` measured (`CorpusStats`' `insns`, `passes`, `dynamic_insns` and
//! `exit_code`) and the CRC-32 of the serialized module;
//! `tests/golden/builds_4m.txt` records the same for the 10K and 1M specs
//! at the 4M-insn dynamic target the benchmark's corpus programs run at.
//! A build runs each program natively to size its main loop, so these pin
//! the native run loop as well as the generator and the lowering.
//!
//! Compression: for the seeded 100K-insn corpus program of each ISA,
//! refine × huffman must write the container whose CRC-32
//! `tests/golden/refine_100k.txt` records; for the 1M-insn program of each
//! ISA, greedy and refine × nibble and huffman must write the containers
//! `tests/golden/containers_1m.txt` records.
//!
//! The suite goldens pin refine on programs of a few thousand instructions;
//! these have real block structure, thousands of picks and a full trial
//! budget, and at 1M the lay-out's and finish's bookkeeping runs at the
//! size the benchmark's `scale-1m` workload measures. All but
//! `builds_are_pinned` are ignored by default because refine runs a dozen
//! selection passes per program and a 4M-insn native run is slow in debug
//! builds; `scripts/verify.sh` runs them in release:
//! `cargo test --release -p codense-corpus --test refine -- --ignored`.
//! To re-bless after an intentional change, set `CODENSE_BLESS=1` on that
//! command (and on `cargo test -p codense-corpus --test refine` for
//! `builds.txt`) and review `git diff crates/corpus/tests/golden/`.

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
    assert_eq!(actual, expected, "corpus output drifted from {file}");
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

/// One golden line per spec and ISA: the corpus program `build` makes for
/// `insns` instructions and `dynamic_target`, with the statistics its
/// native runs measured and the CRC-32 of its serialized module.
fn build_lines(sizes: &[usize], dynamic_target: u64) -> String {
    let mut out = String::new();
    for &insns in sizes {
        let spec = CorpusSpec { insns, dynamic_target, ..CorpusSpec::default() };
        for isa in [CorpusIsa::Ppc, CorpusIsa::Mips] {
            let p = build(&spec, isa).unwrap_or_else(|e| panic!("{} {insns}: {e}", isa.name()));
            let s = p.stats;
            out.push_str(&format!(
                "{} {insns} target {dynamic_target}: {} insns, {} passes, {} dynamic insns, \
                 exit {:#010x}, module crc32 {:08x}\n",
                isa.name(),
                s.insns,
                s.passes,
                s.dynamic_insns,
                s.exit_code,
                crc32(&codense_obj::serialize(&p.module))
            ));
        }
    }
    out
}

#[test]
fn builds_are_pinned() {
    check_golden("builds.txt", &build_lines(&[10_000, 100_000], 150_000));
}

#[test]
#[ignore = "slow in debug builds; scripts/verify.sh runs it in release"]
fn builds_are_pinned_at_the_benchmark_target() {
    check_golden("builds_4m.txt", &build_lines(&[10_000, 1_000_000], 4_000_000));
}
