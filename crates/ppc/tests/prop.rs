//! Property tests for the ISA layer, driven by the in-repo deterministic
//! generator ([`codense_codegen::Rng`]) with fixed seeds — no external
//! property-testing crate, so the workspace builds fully offline.

use codense_codegen::Rng;
use codense_isa::BranchKind;
use codense_ppc::branch::{patch_offset_units, read_offset_units, rel_branch_info};
use codense_ppc::{decode, encode};

const CASES: usize = 512;

/// Total decode/encode identity over the full 32-bit space.
#[test]
fn decode_encode_identity() {
    let mut rng = Rng::new(0x5050_0001);
    for _ in 0..CASES * 8 {
        let w = rng.next_u64() as u32;
        assert_eq!(encode(&decode(w)), w, "word {w:#010x}");
    }
    // Boundary words the uniform stream is unlikely to hit.
    for w in [0u32, u32::MAX, 1 << 26, 0x8000_0000, 0x7fff_ffff] {
        assert_eq!(encode(&decode(w)), w, "word {w:#010x}");
    }
}

/// Branch-field patching round-trips and preserves all other bits.
#[test]
fn patch_roundtrip_bform() {
    let mut rng = Rng::new(0x5050_0002);
    for _ in 0..CASES {
        let bo = rng.below(32) as u8;
        let bi = rng.below(32) as u8;
        let units = rng.range(0, 16383) as i32 - 8192;
        let word = encode(&codense_ppc::Insn::Bc { bo, bi, bd: 0, aa: false, lk: false });
        let patched = patch_offset_units(word, BranchKind::Conditional, units);
        assert_eq!(read_offset_units(patched, BranchKind::Conditional), units);
        assert_eq!(patched & !0x0000_fffc, word & !0x0000_fffc);
    }
}

/// Same for the I form.
#[test]
fn patch_roundtrip_iform() {
    let mut rng = Rng::new(0x5050_0003);
    for _ in 0..CASES {
        let lk = rng.chance(0.5);
        let units = rng.range(0, (1 << 24) - 1) as i32 - (1 << 23);
        let word = encode(&codense_ppc::Insn::B { li: 0, aa: false, lk });
        let patched = patch_offset_units(word, BranchKind::Jump, units);
        assert_eq!(read_offset_units(patched, BranchKind::Jump), units);
        assert_eq!(patched & 3, word & 3);
    }
}

/// rel_branch_info agrees with the decoder.
#[test]
fn branch_info_consistent() {
    let mut rng = Rng::new(0x5050_0004);
    for case in 0..CASES * 8 {
        // Half the cases land in the branch opcodes so the Some arms are
        // exercised heavily, not just the None fallthrough.
        let w = if case % 2 == 0 {
            let op = if rng.chance(0.5) { 18u32 } else { 16 };
            (op << 26) | (rng.next_u64() as u32 & 0x03ff_ffff)
        } else {
            rng.next_u64() as u32
        };
        let info = rel_branch_info(w);
        match decode(w) {
            codense_ppc::Insn::B { li, aa: false, lk } => {
                let i = info.expect("relative b");
                assert_eq!(i.offset, li);
                assert_eq!(i.lk, lk);
            }
            codense_ppc::Insn::Bc { bd, aa: false, lk, .. } => {
                let i = info.expect("relative bc");
                assert_eq!(i.offset, bd as i32);
                assert_eq!(i.lk, lk);
            }
            _ => assert!(info.is_none(), "unexpected branch info for {w:#010x}"),
        }
    }
}

/// The assembler resolves arbitrary in-range label graphs correctly.
#[test]
fn assembler_resolves_random_branch_graphs() {
    use codense_ppc::asm::Assembler;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::{CR0, R3};
    let mut rng = Rng::new(0x5050_0005);
    for _ in 0..CASES {
        let targets: Vec<usize> = (0..rng.range(1, 11)).map(|_| rng.below(50)).collect();
        let body = 50usize;
        let mut a = Assembler::new();
        for i in 0..body {
            a.label(&format!("L{i}"));
            a.emit(Insn::Addi { rt: R3, ra: R3, si: i as i16 });
        }
        let branch_base = a.here();
        for &t in &targets {
            a.bne(CR0, &format!("L{t}"));
        }
        let words = a.finish().unwrap();
        for (j, &t) in targets.iter().enumerate() {
            let at = branch_base + j;
            let info = rel_branch_info(words[at]).expect("branch");
            assert_eq!(at as i64 + (info.offset / 4) as i64, t as i64);
        }
    }
}
