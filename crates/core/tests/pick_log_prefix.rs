//! The pick-log prefix property that the sweep engine relies on
//! (`crates/core/src/sweep.rs`): the greedy choice at step *k* is made from
//! the program state after *k−1* picks and does not depend on the
//! dictionary-size cap, so the state after *k* picks of an uncapped run
//! equals a full run capped at *k* codewords.
//!
//! Checked over seeded random programs: the capped run's pick log and
//! dictionary must be exactly the uncapped run's prefix, and the
//! reconstructed prefix ratio ([`codense_core::sweep::ratio_at_prefix`])
//! must match an actual capped compression.

use codense_codegen::Rng;
use codense_core::dict::Dictionary;
use codense_core::greedy::{run_greedy, CostModel, GreedyParams};
use codense_core::model::ProgramModel;
use codense_core::sweep::ratio_at_prefix;
use codense_core::{CompressionConfig, Compressor, EncodingKind};
use codense_obj::ObjectModule;
use codense_ppc::encode;
use codense_ppc::insn::Insn;
use codense_ppc::reg::Gpr;

const CASES: usize = 128;

const COST: CostModel =
    CostModel { insn_bits: 32, codeword_bits: 16, dict_word_bits: 32, dict_entry_fixed_bits: 0 };

/// A random straight-line module drawn from a small alphabet so that
/// repeats (and therefore picks) are plentiful.
fn random_module(rng: &mut Rng) -> ObjectModule {
    let len = rng.range(8, 150);
    let mut m = ObjectModule::new("prefix", codense_obj::IsaId::Ppc);
    m.code = (0..len)
        .map(|_| {
            let reg = Gpr::new(3 + rng.below(5) as u8).unwrap();
            encode(&Insn::Addi { rt: reg, ra: reg, si: rng.below(4) as i16 })
        })
        .collect();
    m
}

fn greedy_with_cap(
    m: &ObjectModule,
    cap: usize,
) -> (Vec<codense_core::greedy::PickRecord>, Dictionary) {
    let mut model = ProgramModel::build_isa(m, codense_isa::IsaRef(&codense_ppc::ISA));
    let mut dict = Dictionary::new();
    let log = run_greedy(
        &mut model,
        &mut dict,
        GreedyParams { max_entry_len: 4, max_codewords: cap, cost: COST },
    )
    .unwrap();
    (log, dict)
}

/// A run capped at `k` codewords reproduces the first `k` entries of the
/// uncapped run's pick log and dictionary, entry for entry.
#[test]
fn capped_run_is_a_prefix_of_the_full_run() {
    let mut rng = Rng::new(0x9E1C_0001);
    for _ in 0..CASES {
        let m = random_module(&mut rng);
        let (full_log, full_dict) = greedy_with_cap(&m, 10_000);
        if full_log.is_empty() {
            continue;
        }
        let k = rng.below(full_log.len() + 1);
        let (capped_log, capped_dict) = greedy_with_cap(&m, k);
        assert_eq!(capped_log.len(), k, "cap not saturated");
        assert_eq!(&full_log[..k], &capped_log[..], "pick log diverged under cap {k}");
        assert_eq!(capped_dict.len(), k);
        for (a, b) in capped_dict.entries().iter().zip(full_dict.entries()) {
            assert_eq!(a.words, b.words, "dictionary words diverged under cap {k}");
            assert_eq!(a.replaced, b.replaced, "replacement counts diverged under cap {k}");
        }
    }
}

/// The sweep engine's reconstructed ratio at prefix `k` equals an actual
/// baseline compression capped at `k` codewords. Straight-line programs
/// have no branches, so there is no overflow-rewrite slack: equality is
/// exact up to float rounding.
#[test]
fn prefix_ratio_matches_capped_compression() {
    let mut rng = Rng::new(0x9E1C_0002);
    for _ in 0..CASES {
        let m = random_module(&mut rng);
        let full = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        if full.picks.is_empty() {
            continue;
        }
        let k = rng.below(full.picks.len() + 1);
        let capped = Compressor::new(CompressionConfig {
            max_entry_len: 4,
            max_codewords: k,
            encoding: EncodingKind::Baseline,
        })
        .compress(&m)
        .unwrap();
        let reconstructed = ratio_at_prefix(&full, k);
        let actual = capped.compression_ratio();
        assert!(
            (reconstructed - actual).abs() < 1e-9,
            "k={k}: reconstructed {reconstructed} vs actual {actual}"
        );
    }
}
