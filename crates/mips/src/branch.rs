//! PC-relative branch field extraction and patching.
//!
//! Mirrors `codense_ppc::branch`: the compressor never compresses
//! PC-relative branches and rewrites their displacement fields after layout
//! at the compressed granularity (§3.2 of the paper). The MIPS-like subset
//! has two relative forms: the 16-bit conditional/REGIMM field and the
//! 26-bit `j`/`jal` field (PC-relative by this backend's documented
//! deviation, see [`crate::insn`]).

use codense_isa::{fits_signed, BranchKind, RelBranch};

use crate::insn::MInsn;
use crate::opcode::op;

/// Width in bits of the signed displacement field of `kind` (sign bit
/// included): 16 for the conditional branches (`beq`, `bne`, `blez`,
/// `bgtz`, `bltz`, `bgez`), 26 for the relative jumps `j`/`jal`.
pub const fn field_bits(kind: BranchKind) -> u32 {
    match kind {
        BranchKind::Conditional => 16,
        BranchKind::Jump => 26,
    }
}

/// Extracts relative-branch information from an instruction word.
///
/// Returns `None` for register-indirect jumps (`jr`, `jalr`) and
/// non-branches — they carry no displacement field and are compressible.
/// The compressor asks this of every word several times per compression,
/// so a word outside primary opcodes 1–7 (REGIMM, the jumps and the
/// conditional branches) is answered from the opcode alone, without a
/// decode.
///
/// ```
/// use codense_isa::BranchKind;
/// use codense_mips::branch::rel_branch_info;
/// let info = rel_branch_info(0x1000_0002).unwrap(); // beq $0,$0,.+8
/// assert_eq!(info.kind, BranchKind::Conditional);
/// assert_eq!(info.offset, 8);
/// ```
pub fn rel_branch_info(word: u32) -> Option<RelBranch> {
    use MInsn::*;
    if !(op::REGIMM..=op::BGTZ).contains(&(word >> 26)) {
        return None;
    }
    match crate::decode(word) {
        Bltz { offset, .. }
        | Bgez { offset, .. }
        | Beq { offset, .. }
        | Bne { offset, .. }
        | Blez { offset, .. }
        | Bgtz { offset, .. } => {
            Some(RelBranch { kind: BranchKind::Conditional, offset, lk: false })
        }
        J { offset } => Some(RelBranch { kind: BranchKind::Jump, offset, lk: false }),
        Jal { offset } => Some(RelBranch { kind: BranchKind::Jump, offset, lk: true }),
        _ => None,
    }
}

/// Rewrites the displacement field of a relative branch with a new raw field
/// value (already divided down to the target granularity). All other fields
/// (opcode, `rs`, `rt`) are preserved.
///
/// # Panics
///
/// Panics if `word` is not a relative branch of the given `kind`, or if
/// `units` does not fit the field.
pub fn patch_offset_units(word: u32, kind: BranchKind, units: i32) -> u32 {
    assert!(
        fits_signed(units as i64, field_bits(kind)),
        "patched displacement {units} does not fit a {}-bit field",
        field_bits(kind)
    );
    match kind {
        BranchKind::Conditional => {
            assert!(
                matches!(word >> 26, op::REGIMM | op::BEQ | op::BNE | op::BLEZ | op::BGTZ),
                "not an I16-form branch"
            );
            (word & !0xffff) | (units as u32 & 0xffff)
        }
        BranchKind::Jump => {
            assert!(matches!(word >> 26, op::J | op::JAL), "not a J26-form branch");
            (word & !0x03ff_ffff) | (units as u32 & 0x03ff_ffff)
        }
    }
}

/// Reads back the raw displacement field of a patched branch, sign-extended,
/// in field units (the inverse of [`patch_offset_units`]).
pub fn read_offset_units(word: u32, kind: BranchKind) -> i32 {
    match kind {
        BranchKind::Conditional => (word & 0xffff) as u16 as i16 as i32,
        BranchKind::Jump => ((word << 6) as i32) >> 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::reg::*;

    #[test]
    fn info_for_forms() {
        let beq = encode(&MInsn::Beq { rs: T0, rt: T1, offset: -64 });
        let i = rel_branch_info(beq).unwrap();
        assert_eq!((i.kind, i.offset, i.lk), (BranchKind::Conditional, -64, false));

        let bgez = encode(&MInsn::Bgez { rs: S0, offset: 128 });
        let i = rel_branch_info(bgez).unwrap();
        assert_eq!((i.kind, i.offset, i.lk), (BranchKind::Conditional, 128, false));

        let jal = encode(&MInsn::Jal { offset: 4096 });
        let i = rel_branch_info(jal).unwrap();
        assert_eq!((i.kind, i.offset, i.lk), (BranchKind::Jump, 4096, true));

        let jr = encode(&MInsn::Jr { rs: RA });
        assert_eq!(rel_branch_info(jr), None);
        let jalr = encode(&MInsn::Jalr { rd: RA, rs: T9 });
        assert_eq!(rel_branch_info(jalr), None);
        let addiu = encode(&MInsn::Addiu { rt: T0, rs: T0, imm: 1 });
        assert_eq!(rel_branch_info(addiu), None);
    }

    #[test]
    fn patch_and_read_roundtrip() {
        let word = encode(&MInsn::Bne { rs: T0, rt: T1, offset: 0 });
        for units in [-32768, -1, 0, 1, 32767] {
            let p = patch_offset_units(word, BranchKind::Conditional, units);
            assert_eq!(read_offset_units(p, BranchKind::Conditional), units);
            // Opcode and registers preserved:
            assert_eq!(p >> 16, word >> 16);
        }
        let word = encode(&MInsn::Jal { offset: 0 });
        for units in [-(1 << 25), -3, 0, 5, (1 << 25) - 1] {
            let p = patch_offset_units(word, BranchKind::Jump, units);
            assert_eq!(read_offset_units(p, BranchKind::Jump), units);
            assert_eq!(p >> 26, word >> 26);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn patch_overflow_panics() {
        let word = encode(&MInsn::Beq { rs: ZERO, rt: ZERO, offset: 0 });
        patch_offset_units(word, BranchKind::Conditional, 32768);
    }

    #[test]
    #[should_panic(expected = "not a J26-form branch")]
    fn patch_wrong_kind_panics() {
        let word = encode(&MInsn::Beq { rs: ZERO, rt: ZERO, offset: 0 });
        patch_offset_units(word, BranchKind::Jump, 0);
    }
}
