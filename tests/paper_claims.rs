//! The paper's qualitative claims, asserted as executable checks on the
//! stand-in benchmarks. Each test cites the claim it reproduces.

use codense::core::analysis::encoding_profile;
use codense::core::sweep::{codeword_count_sweep_with_isa, entry_len_sweep_with_isa};
use codense::prelude::*;

const PPC: IsaRef = IsaRef(&codense::ppc::ISA);

fn module(name: &str) -> ObjectModule {
    codense::codegen::benchmark(name, IsaId::Ppc).unwrap()
}

/// §1.1: "less than 20% of the instructions in the benchmarks have bit
/// pattern encodings which are used exactly once in the program."
#[test]
fn under_20_percent_of_insns_are_unique() {
    for name in ["compress", "li", "m88ksim"] {
        let p = encoding_profile(&module(name));
        assert!(
            p.used_once_fraction() < 0.20,
            "{name}: {:.1}% unique",
            100.0 * p.used_once_fraction()
        );
    }
}

/// §4.1/Fig 5: "To achieve good compression, it is more important to
/// increase the number of codewords in the dictionary rather than increase
/// the length of the dictionary entries."
#[test]
fn codeword_count_matters_more_than_entry_length() {
    let m = module("li");
    // Gain from 256 -> 8192 codewords at entry length 4:
    let count_sweep = codeword_count_sweep_with_isa(&m, PPC, 4, &[256, 8192]).unwrap();
    let count_gain = count_sweep[0].1 - count_sweep[1].1;
    // Gain from entry length 4 -> 8 at full codeword space:
    let len_sweep = entry_len_sweep_with_isa(&m, PPC, &[4, 8]).unwrap();
    let len_gain = len_sweep[0].1 - len_sweep[1].1;
    assert!(
        count_gain > 4.0 * len_gain.max(0.0) && count_gain > 0.005,
        "count gain {count_gain:.4} vs len gain {len_gain:.4}"
    );
}

/// §4.1: "In general, dictionary entry sizes above 4 instructions do not
/// improve compression noticeably."
#[test]
fn entry_lengths_above_four_do_not_help_noticeably() {
    let m = module("compress");
    let sweep = entry_len_sweep_with_isa(&m, PPC, &[4, 8]).unwrap();
    let delta = sweep[0].1 - sweep[1].1;
    assert!(delta.abs() < 0.01, "len 4 -> 8 moved ratio by {delta:.4}");
}

/// §4.1.3/Fig 11: "We obtain a code reduction of between 30% and 50%
/// depending on the benchmark."
#[test]
fn nibble_scheme_reaches_30_to_50_percent_reduction() {
    for name in ["compress", "li"] {
        let m = module(name);
        let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
        let reduction = 1.0 - c.compression_ratio();
        assert!((0.30..=0.60).contains(&reduction), "{name}: reduction {:.1}%", 100.0 * reduction);
    }
}

/// Fig 11: "Compress does indeed do better, but our compression ratio is
/// still within 5% for all benchmarks."
#[test]
fn nibble_scheme_within_a_few_points_of_lzw() {
    for name in ["compress", "li"] {
        let m = module(name);
        let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
        let lzw = codense::lzw::compressed_size(&m.text_image()) as f64 / m.text_bytes() as f64;
        let gap = c.compression_ratio() - lzw;
        assert!(gap > 0.0, "{name}: LZW should win ({gap:+.3})");
        assert!(gap < 0.06, "{name}: gap {:.1} points", 100.0 * gap);
    }
}

/// §2.4/Fig 7: Liao's word-sized codewords cannot compress single-instruction
/// patterns, which carry roughly half the dictionary scheme's savings — so
/// the paper's baseline must beat Liao's call-dictionary.
#[test]
fn dictionary_scheme_beats_liao() {
    let m = module("li");
    let base = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
    let hw = codense::liao::compress(&m, codense::liao::LiaoMethod::CallDictionary, 4);
    let sw = codense::liao::compress(&m, codense::liao::LiaoMethod::MiniSubroutine, 4);
    assert!(base.compression_ratio() < hw.compression_ratio());
    assert!(hw.compression_ratio() <= sw.compression_ratio());
}

/// Fig 6: "The number of dictionary entries with only a single instruction
/// ranges between 48% and 80%" (and grows with dictionary size).
#[test]
fn single_instruction_entries_dominate_large_dictionaries() {
    let m = module("m88ksim");
    let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
    let hist = c.dictionary.length_histogram(4);
    let total: usize = hist.iter().sum();
    let singles = hist[1] as f64 / total as f64;
    assert!(singles > 0.48, "singles {:.1}%", 100.0 * singles);
}

/// Fig 9: with the full codeword space, escape bytes are a significant
/// fraction of the compressed program — the waste the nibble scheme removes.
#[test]
fn escape_bytes_are_significant_overhead() {
    let m = module("compress");
    let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
    let f = c.composition().fractions();
    // f[1] = escape-byte share of the compressed program.
    assert!(f[1] > 0.15, "escape share {:.1}%", 100.0 * f[1]);
}

/// §4.1.2/Fig 8: a 512-byte dictionary is already worthwhile.
#[test]
fn small_dictionaries_still_save() {
    let m = module("compress");
    let c = Compressor::new(CompressionConfig::small_dictionary(32)).compress(&m).unwrap();
    assert!(c.dictionary_bytes() <= 512);
    assert!(
        c.compression_ratio() < 0.85,
        "512-byte dictionary should save >= 15%: {:.1}%",
        100.0 * c.compression_ratio()
    );
}

/// §2.1: statistical compression (here CCRP's Huffman) can beat nothing but
/// is handicapped by per-line padding and the LAT; the paper's scheme beats
/// it on total size while remaining randomly accessible.
#[test]
fn dictionary_scheme_beats_ccrp_model() {
    let m = module("li");
    let dict = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
    let ccrp = codense::ccrp::compress(&m, codense::ccrp::CcrpConfig::default());
    assert!(ccrp.compression_ratio() < 1.0);
    assert!(dict.compression_ratio() < ccrp.compression_ratio());
}

/// §2.2: the paper's ratios are "similar to that achieved by Thumb and
/// MIPS16" while keeping the full architecture reachable — measured: the
/// (generous) static-subsetting model lands near 30 % reduction and the
/// program-specific dictionary does strictly better.
#[test]
fn dictionary_beats_static_subsetting() {
    let m = module("compress");
    let thumb = codense::thumb::analyze(&m);
    assert!(
        (0.60..0.85).contains(&thumb.compression_ratio()),
        "thumb model ratio {:.2}",
        thumb.compression_ratio()
    );
    let dict = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
    assert!(dict.compression_ratio() < thumb.compression_ratio());
}

/// §4.1.3: per-program encoding tuning ("other programs may benefit from
/// different encodings") buys only marginal gains here — no candidate split
/// beats the shipped one by more than ~2.5 % of text size.
#[test]
fn shipped_nibble_split_is_near_optimal() {
    use codense::core::sweep::{text_nibbles_under_split, NibbleSplit};
    let m = module("li");
    let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
    let shipped = text_nibbles_under_split(&c, NibbleSplit::SHIPPED).unwrap() as f64;
    for n4 in [2u32, 4, 6, 8, 10] {
        for n8 in [1u32, 3, 5, 7] {
            for n12 in 1..=3u32 {
                let used = n4 + n8 + n12;
                if used >= 15 {
                    continue;
                }
                let split = NibbleSplit { n4, n8, n12, n16: 15 - used };
                let candidate = text_nibbles_under_split(&c, split).unwrap() as f64;
                assert!(
                    candidate > shipped * 0.975,
                    "{split:?} beats shipped by {:.2}%",
                    100.0 * (1.0 - candidate / shipped)
                );
            }
        }
    }
}
