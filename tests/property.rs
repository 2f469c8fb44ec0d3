//! Property-based tests over the core data structures and invariants,
//! driven by the in-repo deterministic generator ([`codense_codegen::Rng`])
//! with fixed seeds — no external property-testing crate, so the workspace
//! builds fully offline.

use codense::core::encoding::{self, read_item_coded, try_write_codeword_coded, Item};
use codense::core::nibbles::{NibbleReader, NibbleWriter};
use codense::prelude::*;
use codense_codegen::Rng;

const CASES: usize = 256;

const PPC: IsaRef = IsaRef(&codense::ppc::ISA);

/// Arbitrary instruction words biased toward the legal subset (pure random
/// u32s are mostly illegal, which still must round-trip).
fn random_word(rng: &mut Rng) -> u32 {
    match rng.below(3) {
        0 => rng.next_u64() as u32,
        // D-form-heavy region: opcodes 14/15/32..47 with random fields.
        1 => {
            let op = rng.range(14, 47) as u32;
            (op << 26) | (rng.next_u64() as u32 & 0x03ff_ffff)
        }
        // Opcode-31 space.
        _ => (31 << 26) | (rng.next_u64() as u32 & 0x03ff_ffff),
    }
}

fn random_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.below(max_len + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// decode/encode is the identity on all 32-bit words.
#[test]
fn ppc_decode_encode_roundtrip() {
    let mut rng = Rng::new(0x11AC_0001);
    for _ in 0..CASES * 8 {
        let w = random_word(&mut rng);
        assert_eq!(encode(&decode(w)), w, "word {w:#010x}");
    }
}

/// The disassembler never panics.
#[test]
fn disassembler_total() {
    let mut rng = Rng::new(0x11AC_0002);
    for _ in 0..CASES * 8 {
        let w = rng.next_u64() as u32;
        let addr = rng.next_u64() as u32 & !3;
        let text = codense::ppc::disasm::disassemble(w, addr);
        assert!(!text.is_empty());
    }
}

/// LZW round-trips arbitrary binary data.
#[test]
fn lzw_roundtrip() {
    let mut rng = Rng::new(0x11AC_0003);
    for _ in 0..CASES {
        let data = random_bytes(&mut rng, 2047);
        let packed = codense::lzw::compress(&data);
        assert_eq!(codense::lzw::decompress(&packed), Some(data));
    }
}

/// Huffman round-trips arbitrary binary data.
#[test]
fn huffman_roundtrip() {
    let mut rng = Rng::new(0x11AC_0004);
    for _ in 0..CASES {
        let mut data = random_bytes(&mut rng, 2047);
        if data.is_empty() {
            data.push(rng.next_u64() as u8); // the original strategy was 1..2048
        }
        let code = codense::huffman::HuffmanCode::from_frequencies(
            &codense::huffman::byte_frequencies(&data),
        );
        let bits = codense::huffman::encode(&code, &data);
        assert_eq!(codense::huffman::decode(&code, &bits, data.len()), Some(data));
    }
}

/// The nibble writer/reader round-trips arbitrary nibble sequences.
#[test]
fn nibble_stream_roundtrip() {
    let mut rng = Rng::new(0x11AC_0005);
    for _ in 0..CASES {
        let nibbles: Vec<u8> = (0..rng.below(256)).map(|_| rng.below(16) as u8).collect();
        let mut w = NibbleWriter::new();
        for &n in &nibbles {
            w.push(n);
        }
        assert_eq!(w.len(), nibbles.len() as u64);
        let bytes = w.into_bytes();
        let mut r = NibbleReader::new(&bytes);
        for &n in &nibbles {
            assert_eq!(r.next(), Some(n));
        }
    }
}

/// Mixed codeword/instruction streams parse back exactly in every encoding,
/// regardless of rank distribution.
#[test]
fn codec_stream_roundtrip() {
    let mut rng = Rng::new(0x11AC_0006);
    for _ in 0..CASES {
        let items: Vec<(bool, u32)> =
            (0..rng.below(64)).map(|_| (rng.chance(0.5), rng.next_u64() as u32)).collect();
        for kind in [EncodingKind::Baseline, EncodingKind::OneByte, EncodingKind::NibbleAligned] {
            let capacity = kind.capacity() as u32;
            let mut w = NibbleWriter::new();
            let expected: Vec<Item> = items
                .iter()
                .map(|&(is_cw, v)| {
                    if is_cw {
                        let rank = v % capacity;
                        try_write_codeword_coded(kind, PPC, None, &mut w, rank).unwrap();
                        Item::Codeword(rank)
                    } else {
                        // Instruction words must not collide with escape
                        // opcodes under the byte-level schemes.
                        let word = (14 << 26) | (v & 0x03ff_ffff);
                        encoding::write_insn_coded(kind, None, &mut w, word);
                        Item::Insn(word)
                    }
                })
                .collect();
            let bytes = w.into_bytes();
            let mut r = NibbleReader::new(&bytes);
            for want in &expected {
                let got = read_item_coded(kind, PPC, None, &mut r);
                assert_eq!(got.as_ref(), Some(want));
            }
        }
    }
}

/// Compressing any straight-line program of subset instructions round-trips,
/// and never grows the text+dictionary beyond the original plus the nibble
/// scheme's worst-case escape overhead.
#[test]
fn compressor_roundtrip_random_programs() {
    use codense::ppc::reg::Gpr;
    let mut rng = Rng::new(0x11AC_0007);
    for _ in 0..CASES {
        let len = rng.range(8, 199);
        let mut code = Vec::with_capacity(len);
        for _ in 0..len {
            let r = Gpr::new(3 + rng.below(6) as u8).unwrap();
            let imm = rng.range(0, 127) as i16 - 64;
            let insn = match rng.below(6) {
                0 => Insn::Addi { rt: r, ra: r, si: imm },
                1 => Insn::Lwz { rt: r, ra: Gpr::new(1).unwrap(), d: imm & !3 },
                2 => Insn::Stw { rs: r, ra: Gpr::new(1).unwrap(), d: imm & !3 },
                3 => Insn::Add { rt: r, ra: r, rb: r, rc: false },
                4 => Insn::Ori { ra: r, rs: r, ui: imm as u16 },
                _ => Insn::Cmpwi { bf: codense::ppc::reg::CR0, ra: r, si: imm },
            };
            code.push(encode(&insn));
        }
        let mut module = ObjectModule::new("prop", codense_obj::IsaId::Ppc);
        module.code = code;
        for config in [CompressionConfig::baseline(), CompressionConfig::nibble_aligned()] {
            let c = Compressor::new(config).compress(&module).unwrap();
            verify(&module, &c).unwrap();
            let total = c.text_bytes() + c.dictionary_bytes();
            // Worst case: nothing compresses; nibble escapes add 1/8.
            assert!(total as f64 <= module.text_bytes() as f64 * 1.13 + 2.0);
        }
    }
}

/// Programs with branches: compression preserves every branch target.
#[test]
fn compressor_preserves_branches() {
    use codense::ppc::asm::Assembler;
    use codense::ppc::reg::{CR0, R3};
    let mut rng = Rng::new(0x11AC_0008);
    for _ in 0..CASES {
        let body_len = rng.range(2, 39);
        let branches = rng.range(1, 5);
        let mut a = Assembler::new();
        // Label every instruction so arbitrary targets are expressible.
        for i in 0..body_len {
            a.label(&format!("L{i}"));
            a.emit(Insn::Addi { rt: R3, ra: R3, si: (i % 7) as i16 });
        }
        a.label(&format!("L{body_len}"));
        for j in 0..branches {
            a.label(&format!("B{j}"));
            let to = rng.below(40) % (body_len + 1);
            a.bne(CR0, &format!("L{to}"));
        }
        a.emit(Insn::Sc);
        let mut module = ObjectModule::new("prop-br", codense_obj::IsaId::Ppc);
        module.code = a.finish().unwrap();
        assert_eq!(module.validate_with(PPC), Ok(()));
        for config in [CompressionConfig::baseline(), CompressionConfig::nibble_aligned()] {
            let c = Compressor::new(config).compress(&module).unwrap();
            assert_eq!(verify(&module, &c), Ok(()));
        }
    }
}
