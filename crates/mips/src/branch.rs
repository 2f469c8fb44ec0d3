//! PC-relative branch field extraction and patching.
//!
//! Mirrors `codense_ppc::branch`: the compressor never compresses
//! PC-relative branches and rewrites their displacement fields after layout
//! at the compressed granularity (§3.2 of the paper). The MIPS-like subset
//! has two relative forms: the 16-bit conditional/REGIMM field and the
//! 26-bit `j`/`jal` field (PC-relative by this backend's documented
//! deviation, see [`crate::insn`]).

pub use codense_isa::fits_signed;

use crate::insn::MInsn;
use crate::opcode::op;

/// Which relative-branch form a word is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelBranchKind {
    /// Conditional branches (`beq`, `bne`, `blez`, `bgtz`, `bltz`, `bgez`):
    /// 16-bit displacement field.
    I16,
    /// Relative jumps (`j`, `jal`): 26-bit displacement field.
    J26,
}

impl RelBranchKind {
    /// Width in bits of the signed displacement field (sign bit included).
    pub const fn field_bits(self) -> u32 {
        match self {
            RelBranchKind::I16 => 16,
            RelBranchKind::J26 => 26,
        }
    }
}

/// A decoded PC-relative branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelBranch {
    /// Encoding form (determines the displacement field width).
    pub kind: RelBranchKind,
    /// Byte displacement from the branch's own address (multiple of 4 in an
    /// uncompressed program).
    pub offset: i32,
    /// Whether the branch writes the return address (`jal`).
    pub lk: bool,
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
/// use codense_mips::branch::{rel_branch_info, RelBranchKind};
/// let info = rel_branch_info(0x1000_0002).unwrap(); // beq $0,$0,.+8
/// assert_eq!(info.kind, RelBranchKind::I16);
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
        | Bgtz { offset, .. } => Some(RelBranch { kind: RelBranchKind::I16, offset, lk: false }),
        J { offset } => Some(RelBranch { kind: RelBranchKind::J26, offset, lk: false }),
        Jal { offset } => Some(RelBranch { kind: RelBranchKind::J26, offset, lk: true }),
        _ => None,
    }
}

/// Can a displacement of `offset_nibbles` (4-bit units) be expressed by this
/// branch form when the field is interpreted in `granule_nibbles` units?
pub fn offset_expressible(kind: RelBranchKind, offset_nibbles: i64, granule_nibbles: u32) -> bool {
    debug_assert!(granule_nibbles > 0);
    let g = granule_nibbles as i64;
    offset_nibbles % g == 0 && fits_signed(offset_nibbles / g, kind.field_bits())
}

/// Rewrites the displacement field of a relative branch with a new raw field
/// value (already divided down to the target granularity). All other fields
/// (opcode, `rs`, `rt`) are preserved.
///
/// # Panics
///
/// Panics if `word` is not a relative branch of the given `kind`, or if
/// `units` does not fit the field.
pub fn patch_offset_units(word: u32, kind: RelBranchKind, units: i32) -> u32 {
    assert!(
        fits_signed(units as i64, kind.field_bits()),
        "patched displacement {units} does not fit a {}-bit field",
        kind.field_bits()
    );
    match kind {
        RelBranchKind::I16 => {
            assert!(
                matches!(word >> 26, op::REGIMM | op::BEQ | op::BNE | op::BLEZ | op::BGTZ),
                "not an I16-form branch"
            );
            (word & !0xffff) | (units as u32 & 0xffff)
        }
        RelBranchKind::J26 => {
            assert!(matches!(word >> 26, op::J | op::JAL), "not a J26-form branch");
            (word & !0x03ff_ffff) | (units as u32 & 0x03ff_ffff)
        }
    }
}

/// Reads back the raw displacement field of a patched branch, sign-extended,
/// in field units (the inverse of [`patch_offset_units`]).
pub fn read_offset_units(word: u32, kind: RelBranchKind) -> i32 {
    match kind {
        RelBranchKind::I16 => (word & 0xffff) as u16 as i16 as i32,
        RelBranchKind::J26 => ((word << 6) as i32) >> 6,
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
        assert_eq!((i.kind, i.offset, i.lk), (RelBranchKind::I16, -64, false));

        let bgez = encode(&MInsn::Bgez { rs: S0, offset: 128 });
        let i = rel_branch_info(bgez).unwrap();
        assert_eq!((i.kind, i.offset, i.lk), (RelBranchKind::I16, 128, false));

        let jal = encode(&MInsn::Jal { offset: 4096 });
        let i = rel_branch_info(jal).unwrap();
        assert_eq!((i.kind, i.offset, i.lk), (RelBranchKind::J26, 4096, true));

        let jr = encode(&MInsn::Jr { rs: RA });
        assert_eq!(rel_branch_info(jr), None);
        let jalr = encode(&MInsn::Jalr { rd: RA, rs: T9 });
        assert_eq!(rel_branch_info(jalr), None);
        let addiu = encode(&MInsn::Addiu { rt: T0, rs: T0, imm: 1 });
        assert_eq!(rel_branch_info(addiu), None);
    }

    #[test]
    fn expressibility_at_granularities() {
        // 20 KiB displacement = 40960 nibbles.
        let d = 40960i64;
        // 4-byte granule: 40960/8 = 5120 fits 16 bits.
        assert!(offset_expressible(RelBranchKind::I16, d, 8));
        // Nibble granule: 40960 does not fit 16 bits signed.
        assert!(!offset_expressible(RelBranchKind::I16, d, 1));
        // J26 fits everywhere at these sizes.
        assert!(offset_expressible(RelBranchKind::J26, d, 1));
        // Misaligned displacement is inexpressible.
        assert!(!offset_expressible(RelBranchKind::I16, 7, 2));
    }

    #[test]
    fn patch_and_read_roundtrip() {
        let word = encode(&MInsn::Bne { rs: T0, rt: T1, offset: 0 });
        for units in [-32768, -1, 0, 1, 32767] {
            let p = patch_offset_units(word, RelBranchKind::I16, units);
            assert_eq!(read_offset_units(p, RelBranchKind::I16), units);
            // Opcode and registers preserved:
            assert_eq!(p >> 16, word >> 16);
        }
        let word = encode(&MInsn::Jal { offset: 0 });
        for units in [-(1 << 25), -3, 0, 5, (1 << 25) - 1] {
            let p = patch_offset_units(word, RelBranchKind::J26, units);
            assert_eq!(read_offset_units(p, RelBranchKind::J26), units);
            assert_eq!(p >> 26, word >> 26);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn patch_overflow_panics() {
        let word = encode(&MInsn::Beq { rs: ZERO, rt: ZERO, offset: 0 });
        patch_offset_units(word, RelBranchKind::I16, 32768);
    }

    #[test]
    #[should_panic(expected = "not a J26-form branch")]
    fn patch_wrong_kind_panics() {
        let word = encode(&MInsn::Beq { rs: ZERO, rt: ZERO, offset: 0 });
        patch_offset_units(word, RelBranchKind::J26, 0);
    }
}
