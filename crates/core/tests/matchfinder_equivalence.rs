//! The interned matchfinder's contract: **byte-identical output** to the
//! original `Box<[u32]>`-keyed occurrence index
//! (`codense_core::greedy::reference`), across every encoding and under
//! random hotness masks.
//!
//! 256 seeded cases (the in-repo deterministic generator, fixed seeds), each
//! compressed by both engines under every encoding: the pick log, the
//! dictionary (words, counts, rank permutation), the packed image, the atom
//! stream, and the addresses must all match exactly. Nibble and Huffman run
//! at an entry cap of 8 as well: there one occurrence of five or more
//! instructions pays, so the sequences it mines must not be among those the
//! index omits.

use codense_codegen::Rng;
use codense_core::greedy::MatchfinderKind;
use codense_core::{CompressionConfig, Compressor};
use codense_obj::ObjectModule;
use codense_ppc::encode;
use codense_ppc::insn::Insn;
use codense_ppc::reg::Gpr;

const CASES: usize = 256;

/// A random module with enough repetition to drive many picks: straight-line
/// blocks drawn from a small alphabet, with occasional branches to fragment
/// the block structure.
fn random_module(rng: &mut Rng) -> ObjectModule {
    let len = rng.range(8, 180);
    let mut m = ObjectModule::new("equiv", codense_obj::IsaId::Ppc);
    m.code = (0..len)
        .map(|_| {
            let reg = Gpr::new(3 + rng.below(5) as u8).unwrap();
            encode(&Insn::Addi { rt: reg, ra: reg, si: rng.below(4) as i16 })
        })
        .collect();
    // A few backward branches with in-range targets split the program into
    // blocks (and stay incompressible themselves).
    for _ in 0..rng.below(4) {
        let at = rng.below(len);
        let target = rng.below(at + 1);
        let offset = ((target as i64 - at as i64) * 4) as i32;
        m.code[at] = encode(&Insn::B { li: offset, aa: false, lk: false });
    }
    m
}

/// A random hotness mask: empty (no exemptions) half the time, otherwise
/// each instruction is hot with probability ~1/4.
fn random_mask(rng: &mut Rng, len: usize) -> Vec<bool> {
    if rng.below(2) == 0 {
        return Vec::new();
    }
    (0..len).map(|_| rng.below(4) == 0).collect()
}

#[test]
fn interned_matches_reference_across_encodings_and_masks() {
    let mut rng = Rng::new(0x1AC4_F00D);
    let configs = [
        CompressionConfig::baseline(),
        CompressionConfig::small_dictionary(32),
        CompressionConfig::nibble_aligned(),
        CompressionConfig { max_entry_len: 8, ..CompressionConfig::nibble_aligned() },
        CompressionConfig { max_entry_len: 8, ..CompressionConfig::huffman() },
    ];
    let mut lone_picks = 0;
    for case in 0..CASES {
        let m = random_module(&mut rng);
        let mask = random_mask(&mut rng, m.code.len());
        for config in &configs {
            let interned = Compressor::new(config.clone())
                .with_matchfinder(MatchfinderKind::Interned)
                .compress_masked(&m, &mask);
            let reference = Compressor::new(config.clone())
                .with_matchfinder(MatchfinderKind::Reference)
                .compress_masked(&m, &mask);
            let (a, b) = match (interned, reference) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(ea), Err(eb)) => {
                    assert_eq!(ea, eb, "case {case}: engines rejected differently");
                    continue;
                }
                (a, b) => panic!("case {case}: one engine failed: {a:?} vs {b:?}"),
            };
            let ctx = format!(
                "case {case}, encoding {:?}, cap {}, mask {}",
                config.encoding,
                config.max_entry_len,
                mask.len()
            );
            lone_picks += a.picks.iter().filter(|p| p.replaced == 1).count();
            assert_eq!(a.picks, b.picks, "{ctx}: pick log diverged");
            assert_eq!(a.dictionary, b.dictionary, "{ctx}: dictionary diverged");
            assert_eq!(a.atoms, b.atoms, "{ctx}: atom stream diverged");
            assert_eq!(a.addresses, b.addresses, "{ctx}: layout diverged");
            assert_eq!(a.image, b.image, "{ctx}: packed image diverged");
            assert_eq!(a.total_nibbles, b.total_nibbles, "{ctx}: stream length diverged");
            assert_eq!(a.overflow_table, b.overflow_table, "{ctx}: overflow table diverged");
        }
    }
    assert!(lone_picks > 0, "no case picked a sequence that pays from one occurrence");
}
