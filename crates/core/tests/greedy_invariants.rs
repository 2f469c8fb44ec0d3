//! Whole-algorithm invariants of the greedy selector, checked by brute
//! force on small inputs: after a run terminates (below the codeword cap),
//! *no* remaining candidate sequence can have positive savings — i.e. the
//! incremental index + lazy heap computed exactly what a naive full rescan
//! would.
//!
//! Randomized cases are driven by the in-repo deterministic generator
//! ([`codense_codegen::Rng`]) with fixed seeds.

use codense_codegen::Rng;
use codense_core::dict::Dictionary;
use codense_core::greedy::{run_greedy, CostModel, GreedyParams};
use codense_core::model::ProgramModel;
use codense_isa::IsaRef;
use codense_obj::{BasicBlocks, ObjectModule};
use codense_ppc::encode;
use codense_ppc::insn::Insn;
use codense_ppc::reg::Gpr;

const CASES: usize = 256;

const PPC: IsaRef = IsaRef(&codense_ppc::ISA);

const COST: CostModel =
    CostModel { insn_bits: 32, codeword_bits: 16, dict_word_bits: 32, dict_entry_fixed_bits: 0 };

/// Each instruction's state after a run: `Some(word)` while it is still an
/// uncompressed compressible instruction, `None` once a codeword covers it
/// or if it was never compressible.
fn live_words(m: &ObjectModule, model: &ProgramModel, dict: &Dictionary) -> Vec<Option<u32>> {
    let mut live: Vec<Option<u32>> =
        m.code.iter().zip(model.compressible()).map(|(&w, &c)| c.then_some(w)).collect();
    for i in 0..live.len() {
        if let Some(entry) = model.head(i) {
            live[i..i + dict.entry(entry).len()].fill(None);
        }
    }
    live
}

/// All candidate windows of the post-greedy model, with greedy
/// non-overlapping counts, computed naively.
fn best_remaining_savings(
    m: &ObjectModule,
    model: &ProgramModel,
    dict: &Dictionary,
    max_len: usize,
) -> i64 {
    use std::collections::HashMap;
    let live = live_words(m, model, dict);
    let blocks = BasicBlocks::compute_with(m, PPC);
    let mut occ: HashMap<Vec<u32>, Vec<usize>> = HashMap::new();
    for w0 in 0..live.len() {
        let mut seq = Vec::new();
        for (k, &cell) in live.iter().enumerate().skip(w0).take(max_len) {
            // Windows of live cells inside one block.
            let Some(word) = cell else { break };
            if k > w0 && blocks.is_leader(k) {
                break;
            }
            seq.push(word);
            occ.entry(seq.clone()).or_default().push(w0);
        }
    }
    occ.iter()
        .map(|(seq, positions)| {
            let len = seq.len();
            let mut n = 0;
            let mut end = 0;
            for &p in positions {
                if p >= end {
                    n += 1;
                    end = p + len;
                }
            }
            COST.savings_bits(len, n)
        })
        .max()
        .unwrap_or(i64::MIN)
}

/// A random straight-line module of 4..120 instructions drawn from a small
/// alphabet (6 registers × 5 immediates), mirroring the original proptest
/// strategy `vec((0u8..6, 0i16..5), 4..120)`.
fn random_module(rng: &mut Rng) -> ObjectModule {
    let len = rng.range(4, 119);
    let mut m = ObjectModule::new("prop", codense_obj::IsaId::Ppc);
    m.code = (0..len)
        .map(|_| {
            let reg = Gpr::new(3 + rng.below(6) as u8).unwrap();
            encode(&Insn::Addi { rt: reg, ra: reg, si: rng.below(5) as i16 })
        })
        .collect();
    m
}

/// Greedy-to-exhaustion leaves no profitable candidate behind.
#[test]
fn no_positive_savings_remain() {
    let mut rng = Rng::new(0x6EED_0001);
    for _ in 0..CASES {
        let m = random_module(&mut rng);
        let mut model = ProgramModel::build_isa(&m, PPC);
        let mut dict = Dictionary::new();
        run_greedy(
            &mut model,
            &mut dict,
            GreedyParams { max_entry_len: 4, max_codewords: 10_000, cost: COST },
        )
        .unwrap();
        let best = best_remaining_savings(&m, &model, &dict, 4);
        assert!(best <= 0, "remaining candidate with savings {best}");
    }
}

/// Each pick's recorded savings is non-increasing along the run (greedy
/// always takes the current maximum, and replacements only remove
/// opportunities).
#[test]
fn pick_savings_monotone_nonincreasing() {
    let mut rng = Rng::new(0x6EED_0002);
    for _ in 0..CASES {
        let m = random_module(&mut rng);
        let mut model = ProgramModel::build_isa(&m, PPC);
        let mut dict = Dictionary::new();
        let log = run_greedy(
            &mut model,
            &mut dict,
            GreedyParams { max_entry_len: 4, max_codewords: 10_000, cost: COST },
        )
        .unwrap();
        for pair in log.windows(2) {
            assert!(pair[1].savings_bits <= pair[0].savings_bits, "savings increased: {pair:?}");
        }
    }
}

/// Dictionary entries and model state are consistent: every codeword's
/// entry expands to the words the original program held there, and the
/// codewords never overlap.
#[test]
fn model_dictionary_consistency() {
    let mut rng = Rng::new(0x6EED_0003);
    for _ in 0..CASES {
        let m = random_module(&mut rng);
        let mut model = ProgramModel::build_isa(&m, PPC);
        let mut dict = Dictionary::new();
        run_greedy(
            &mut model,
            &mut dict,
            GreedyParams { max_entry_len: 4, max_codewords: 10_000, cost: COST },
        )
        .unwrap();
        let mut i = 0;
        while i < m.code.len() {
            let Some(entry) = model.head(i) else {
                i += 1;
                continue;
            };
            let words = &dict.entry(entry).words;
            assert_eq!(words[..], m.code[i..i + words.len()]);
            assert!((i + 1..i + words.len()).all(|k| model.head(k).is_none()), "overlap at {i}");
            i += words.len();
        }
    }
}

mod nibble_split {
    use codense_core::sweep::{text_nibbles_under_split, NibbleSplit};
    use codense_core::{CompressionConfig, Compressor};
    use codense_obj::ObjectModule;
    use codense_ppc::{encode, Insn};

    fn compressed() -> codense_core::CompressedProgram {
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        for i in 0..200 {
            let r = codense_ppc::Gpr::new(3 + (i % 5) as u8).unwrap();
            m.code.push(encode(&Insn::Addi { rt: r, ra: r, si: (i % 9) as i16 }));
        }
        Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap()
    }

    #[test]
    fn shipped_split_matches_actual_stream() {
        // The analytic model under the shipped split must equal the real
        // packed stream's nibble count (it models the same thing).
        let c = compressed();
        assert_eq!(text_nibbles_under_split(&c, NibbleSplit::SHIPPED).unwrap(), c.total_nibbles);
    }

    #[test]
    fn split_geometry() {
        assert!(NibbleSplit::SHIPPED.is_valid());
        assert_eq!(NibbleSplit::SHIPPED.capacity(), 8760);
        let s = NibbleSplit { n4: 11, n8: 2, n12: 1, n16: 1 };
        assert!(s.is_valid());
        assert_eq!(s.codeword_nibbles(0), Some(1));
        assert_eq!(s.codeword_nibbles(10), Some(1));
        assert_eq!(s.codeword_nibbles(11), Some(2));
        assert_eq!(s.codeword_nibbles(s.capacity()), None);
        assert!(!NibbleSplit { n4: 8, n8: 8, n12: 0, n16: 0 }.is_valid());
    }

    #[test]
    #[should_panic(expected = "exactly 15")]
    fn invalid_split_rejected() {
        let c = compressed();
        let _ = text_nibbles_under_split(&c, NibbleSplit { n4: 1, n8: 1, n12: 1, n16: 1 });
    }
}
