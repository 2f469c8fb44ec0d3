//! Property tests for the MIPS ISA layer, driven by the in-repo
//! deterministic generator ([`codense_codegen::Rng`]) with fixed seeds — no
//! external property-testing crate, so the workspace builds fully offline.
//! Mirrors `codense-ppc`'s suite.

use codense_codegen::Rng;
use codense_isa::BranchKind;
use codense_mips::branch::{patch_offset_units, read_offset_units, rel_branch_info};
use codense_mips::{decode, encode, MInsn};

const CASES: usize = 512;

/// Total decode/encode identity over the full 32-bit space. Stronger than
/// the PowerPC property: because only canonical encodings decode to a named
/// variant, `encode(decode(w)) == w` holds for *every* word, not just a
/// fixpoint.
#[test]
fn decode_encode_identity() {
    let mut rng = Rng::new(0x3150_0001);
    for _ in 0..CASES * 8 {
        let w = rng.next_u64() as u32;
        assert_eq!(encode(&decode(w)), w, "word {w:#010x}");
    }
    // Boundary words the uniform stream is unlikely to hit.
    for w in [0u32, u32::MAX, 1 << 26, 0x8000_0000, 0x7fff_ffff, 0x0000_000c] {
        assert_eq!(encode(&decode(w)), w, "word {w:#010x}");
    }
}

/// Branch-field patching round-trips and preserves all other bits (I16).
#[test]
fn patch_roundtrip_i16() {
    let mut rng = Rng::new(0x3150_0002);
    for _ in 0..CASES {
        let rs = codense_mips::Reg::new(rng.below(32) as u8).unwrap();
        let rt = codense_mips::Reg::new(rng.below(32) as u8).unwrap();
        let units = rng.range(0, 65535) as i32 - 32768;
        let word = encode(&MInsn::Beq { rs, rt, offset: 0 });
        let patched = patch_offset_units(word, BranchKind::Conditional, units);
        assert_eq!(read_offset_units(patched, BranchKind::Conditional), units);
        assert_eq!(patched >> 16, word >> 16);
    }
}

/// Same for the 26-bit jump field.
#[test]
fn patch_roundtrip_j26() {
    let mut rng = Rng::new(0x3150_0003);
    for _ in 0..CASES {
        let lk = rng.chance(0.5);
        let units = rng.range(0, (1 << 26) - 1) as i32 - (1 << 25);
        let word = encode(&if lk { MInsn::Jal { offset: 0 } } else { MInsn::J { offset: 0 } });
        let patched = patch_offset_units(word, BranchKind::Jump, units);
        assert_eq!(read_offset_units(patched, BranchKind::Jump), units);
        assert_eq!(patched >> 26, word >> 26);
    }
}

/// rel_branch_info agrees with the decoder.
#[test]
fn branch_info_consistent() {
    let mut rng = Rng::new(0x3150_0004);
    for case in 0..CASES * 8 {
        // Half the cases land in the branch opcodes so the Some arms are
        // exercised heavily, not just the None fallthrough.
        let w = if case % 2 == 0 {
            let op = [0x01u32, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07][rng.below(7)];
            (op << 26) | (rng.next_u64() as u32 & 0x03ff_ffff)
        } else {
            rng.next_u64() as u32
        };
        let info = rel_branch_info(w);
        match decode(w) {
            MInsn::J { offset } => {
                let i = info.expect("relative j");
                assert_eq!((i.kind, i.offset, i.lk), (BranchKind::Jump, offset, false));
            }
            MInsn::Jal { offset } => {
                let i = info.expect("relative jal");
                assert_eq!((i.kind, i.offset, i.lk), (BranchKind::Jump, offset, true));
            }
            MInsn::Bltz { offset, .. }
            | MInsn::Bgez { offset, .. }
            | MInsn::Beq { offset, .. }
            | MInsn::Bne { offset, .. }
            | MInsn::Blez { offset, .. }
            | MInsn::Bgtz { offset, .. } => {
                let i = info.expect("relative conditional");
                assert_eq!((i.kind, i.offset, i.lk), (BranchKind::Conditional, offset, false));
            }
            _ => assert!(info.is_none(), "unexpected branch info for {w:#010x}"),
        }
    }
}

/// Escape-byte reservation boundary: a word decodes to `Illegal` *because of
/// its primary opcode* exactly when its top byte is in the escape set.
#[test]
fn escape_reservation_boundary() {
    use codense_isa::IsaRef;
    let isa = IsaRef(&codense_mips::ISA);
    let mut rng = Rng::new(0x3150_0006);
    for _ in 0..CASES * 4 {
        let w = rng.next_u64() as u32;
        let top = (w >> 24) as u8;
        if isa.escape_index(top).is_some() {
            // A reserved primary can never decode to an executable insn.
            assert!(matches!(decode(w), MInsn::Illegal(x) if x == w), "word {w:#010x}");
        }
    }
    // Adjacent non-escape bytes around each escape run stay legal as bytes
    // (their primaries are implemented or at least not reserved).
    for b in [0x47u8, 0x50, 0x57, 0x60, 0x67, 0x70, 0xc7, 0xcc, 0xe7, 0xec] {
        assert_eq!(isa.escape_index(b), None, "byte {b:#04x}");
    }
    assert_eq!(isa.escape_bytes().len(), 32);
}

/// The assembler resolves arbitrary in-range label graphs correctly.
#[test]
fn assembler_resolves_random_branch_graphs() {
    use codense_mips::asm::Assembler;
    use codense_mips::reg::{V0, ZERO};
    let mut rng = Rng::new(0x3150_0005);
    for _ in 0..CASES {
        let targets: Vec<usize> = (0..rng.range(1, 11)).map(|_| rng.below(50)).collect();
        let body = 50usize;
        let mut a = Assembler::new();
        for i in 0..body {
            a.label(&format!("L{i}"));
            a.emit(MInsn::Addiu { rt: V0, rs: V0, imm: i as i16 });
        }
        let branch_base = a.here();
        for &t in &targets {
            if rng.chance(0.5) {
                a.bne(V0, ZERO, &format!("L{t}"));
            } else {
                a.j(&format!("L{t}"));
            }
        }
        let words = a.finish().unwrap();
        for (j, &t) in targets.iter().enumerate() {
            let at = branch_base + j;
            let info = rel_branch_info(words[at]).expect("branch");
            assert_eq!(at as i64 + (info.offset / 4) as i64, t as i64);
        }
    }
}
