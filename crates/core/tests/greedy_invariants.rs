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
use codense_core::model::{Cell, ProgramModel};
use codense_obj::ObjectModule;
use codense_ppc::encode;
use codense_ppc::insn::Insn;
use codense_ppc::reg::Gpr;

const CASES: usize = 256;

const COST: CostModel =
    CostModel { insn_bits: 32, codeword_bits: 16, dict_word_bits: 32, dict_entry_fixed_bits: 0 };

/// All candidate windows of the post-greedy model, with greedy
/// non-overlapping counts, computed naively.
fn best_remaining_savings(model: &ProgramModel, max_len: usize) -> i64 {
    use std::collections::HashMap;
    let mut occ: HashMap<Vec<u32>, Vec<(usize, usize)>> = HashMap::new();
    for (b, block) in model.blocks.iter().enumerate() {
        // Runs of compressible instruction cells.
        let cells = &block.cells;
        let mut start = None;
        for i in 0..=cells.len() {
            let live = i < cells.len() && cells[i].compressible_word().is_some();
            if live && start.is_none() {
                start = Some(i);
            }
            if !live {
                if let Some(s) = start.take() {
                    for w0 in s..i {
                        for l in 1..=max_len.min(i - w0) {
                            let seq: Vec<u32> = (w0..w0 + l)
                                .map(|k| cells[k].compressible_word().unwrap())
                                .collect();
                            occ.entry(seq).or_default().push((b, w0));
                        }
                    }
                }
            }
        }
    }
    occ.iter()
        .map(|(seq, positions)| {
            let len = seq.len();
            let mut n = 0i64;
            let mut last: Option<(usize, usize)> = None;
            for &(b, p) in positions {
                if let Some((lb, end)) = last {
                    if lb == b && p < end {
                        continue;
                    }
                }
                n += 1;
                last = Some((b, p + len));
            }
            COST.savings_bits(len, n as usize)
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
        let mut model = ProgramModel::build_isa(&m, codense_isa::IsaRef(&codense_ppc::ISA));
        let mut dict = Dictionary::new();
        run_greedy(
            &mut model,
            &mut dict,
            GreedyParams { max_entry_len: 4, max_codewords: 10_000, cost: COST },
        )
        .unwrap();
        let best = best_remaining_savings(&model, 4);
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
        let mut model = ProgramModel::build_isa(&m, codense_isa::IsaRef(&codense_ppc::ISA));
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

/// Dictionary entries and model state are consistent: every codeword cell's
/// entry expands to the words the original program held there.
#[test]
fn model_dictionary_consistency() {
    let mut rng = Rng::new(0x6EED_0003);
    for _ in 0..CASES {
        let m = random_module(&mut rng);
        let mut model = ProgramModel::build_isa(&m, codense_isa::IsaRef(&codense_ppc::ISA));
        let mut dict = Dictionary::new();
        run_greedy(
            &mut model,
            &mut dict,
            GreedyParams { max_entry_len: 4, max_codewords: 10_000, cost: COST },
        )
        .unwrap();
        let mut covered = 0usize;
        for block in &model.blocks {
            for cell in &block.cells {
                match *cell {
                    Cell::Code { entry, orig, len } => {
                        let words = &dict.entry(entry).words;
                        assert_eq!(words.len(), len);
                        for (k, &w) in words.iter().enumerate() {
                            assert_eq!(w, m.code[orig + k]);
                        }
                        covered += len;
                    }
                    Cell::Insn { .. } => covered += 1,
                    Cell::Dead => {}
                }
            }
        }
        assert_eq!(covered, m.code.len());
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
