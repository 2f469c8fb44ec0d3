//! Robustness: the stream parser and verifier must never panic on garbage —
//! corrupt flash images should yield clean errors, not UB or aborts.
//!
//! Randomized cases are driven by the in-repo deterministic generator
//! ([`codense_codegen::Rng`]) with fixed seeds.

use codense_codegen::Rng;
use codense_core::encoding::read_item_coded;
use codense_core::nibbles::NibbleReader;
use codense_core::{CompressionConfig, Compressor, EncodingKind};
use codense_obj::ObjectModule;
use codense_ppc::encode;
use codense_ppc::insn::Insn;
use codense_ppc::reg::*;

const CASES: usize = 256;

const PPC: codense_isa::IsaRef = codense_isa::IsaRef(&codense_ppc::ISA);

fn random_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.below(max_len + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// Parsing arbitrary bytes never panics in any encoding; it either yields
/// items or ends with None.
#[test]
fn read_item_total_on_garbage() {
    let mut rng = Rng::new(0xC0DE_0001);
    for _ in 0..CASES {
        let bytes = random_bytes(&mut rng, 255);
        for kind in [EncodingKind::Baseline, EncodingKind::OneByte, EncodingKind::NibbleAligned] {
            let mut r = NibbleReader::new(&bytes);
            let mut guard = 0;
            while read_item_coded(kind, PPC, None, &mut r).is_some() {
                guard += 1;
                assert!(guard <= 2 * bytes.len() + 2, "parser failed to progress");
            }
        }
    }
}

/// Verification of a bit-flipped compressed program either fails cleanly or
/// the flip landed in dead padding — never a panic.
#[test]
fn verify_survives_bit_flips() {
    let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
    for i in 0..100 {
        m.code.push(encode(&Insn::Addi { rt: R3, ra: R3, si: (i % 7) as i16 }));
    }
    let clean = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
    if clean.image.is_empty() {
        return;
    }
    let mut rng = Rng::new(0xC0DE_0002);
    for _ in 0..CASES {
        let mut c = clean.clone();
        let at = rng.below(c.image.len());
        let bit = rng.below(8) as u8;
        c.image[at] ^= 1 << bit;
        let _ = codense_core::verify::verify(&m, &c); // must not panic
    }
}

/// Container deserialization never panics on arbitrary bytes.
#[test]
fn container_deserialize_total() {
    let mut rng = Rng::new(0xC0DE_0003);
    for _ in 0..CASES {
        let bytes = random_bytes(&mut rng, 511);
        let _ = codense_core::container::deserialize(&bytes);
    }
}

#[test]
fn fetcher_faults_cleanly_on_corrupt_image() {
    let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
    for i in 0..50 {
        m.code.push(encode(&Insn::Addi { rt: R4, ra: R4, si: i as i16 }));
    }
    let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
    // Seek to every nibble offset and parse one item: misaligned starts may
    // misparse but must not panic.
    for pos in 0..c.total_nibbles {
        let mut r = NibbleReader::new(&c.image);
        r.seek(pos);
        let _ = read_item_coded(c.encoding, PPC, None, &mut r);
    }
}
