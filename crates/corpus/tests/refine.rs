//! The refinement selector at corpus scale, pinned byte for byte. For the
//! seeded 100K-insn corpus program of each ISA, refine × huffman must write
//! the container whose CRC-32 `tests/golden/refine_100k.txt` records.
//!
//! The suite goldens pin refine on programs of a few thousand instructions;
//! these have real block structure, thousands of picks and a full trial
//! budget. Ignored by default because refine runs a dozen selection passes
//! per program, slow in debug builds; `scripts/verify.sh` runs it in
//! release:
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
    assert_eq!(actual, expected, "refine containers drifted from {file}");
}

#[test]
#[ignore = "slow in debug builds; scripts/verify.sh runs it in release"]
fn refine_containers_are_pinned_on_100k_corpus_programs() {
    // The test only compresses, so a small dynamic target keeps the
    // builder's calibration run short.
    let spec = CorpusSpec { insns: 100_000, dynamic_target: 40_000, ..CorpusSpec::default() };
    let mut out = String::new();
    for corpus_isa in [CorpusIsa::Ppc, CorpusIsa::Mips] {
        let isa = corpus_isa.isa_ref();
        let p = build(&spec, corpus_isa).expect("build");
        let c = Compressor::new(CompressionConfig::huffman())
            .with_isa(isa)
            .with_selector(SelectorKind::Refine)
            .compress(&p.module)
            .unwrap_or_else(|e| panic!("{}: {e}", isa.name()));
        let bytes = container::serialize(&c);
        out.push_str(&format!(
            "{} {} insns huffman refine: {} bytes, crc32 {:08x}\n",
            isa.name(),
            p.module.len(),
            bytes.len(),
            crc32(&bytes)
        ));
    }
    check_golden("refine_100k.txt", &out);
}
