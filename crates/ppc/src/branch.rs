//! PC-relative branch field extraction and patching.
//!
//! The compressor never compresses PC-relative branches; instead it rewrites
//! their displacement fields after layout (§3.2 of the paper). Compressed
//! programs reinterpret the displacement field at the alignment of the
//! smallest codeword — e.g. with 8-bit codewords a 14-bit `bc` field that
//! used to address ±32 KiB of 4-byte-aligned targets addresses ±8 KiB of
//! byte-aligned targets. This module exposes the fields and the reduced-
//! resolution fitting/patching arithmetic.

use codense_isa::{fits_signed, BranchKind, RelBranch};

use crate::insn::Insn;
use crate::opcode::primary;

/// Width in bits of the signed displacement field of `kind` (sign bit
/// included): 14 for B-form `bc`, 24 for I-form `b`/`bl`.
pub const fn field_bits(kind: BranchKind) -> u32 {
    match kind {
        BranchKind::Conditional => 14,
        BranchKind::Jump => 24,
    }
}

/// Extracts relative-branch information from an instruction word.
///
/// Returns `None` for absolute branches (`aa = 1`), indirect branches, and
/// non-branches. The compressor asks this of every word several times per
/// compression, so a word whose primary opcode is neither `bc` nor `b` is
/// answered from the opcode alone, without a decode.
///
/// ```
/// use codense_isa::BranchKind;
/// use codense_ppc::branch::rel_branch_info;
/// let info = rel_branch_info(0x4800_0008).unwrap(); // b .+8
/// assert_eq!(info.kind, BranchKind::Jump);
/// assert_eq!(info.offset, 8);
/// ```
pub fn rel_branch_info(word: u32) -> Option<RelBranch> {
    if !matches!(word >> 26, primary::BC | primary::B) {
        return None;
    }
    match crate::decode(word) {
        Insn::B { li, aa: false, lk } => Some(RelBranch { kind: BranchKind::Jump, offset: li, lk }),
        Insn::Bc { bd, aa: false, lk, .. } => {
            Some(RelBranch { kind: BranchKind::Conditional, offset: bd as i32, lk })
        }
        _ => None,
    }
}

/// Rewrites the displacement field of a relative branch with a new raw field
/// value (already divided down to the target granularity). All other fields
/// (`bo`, `bi`, `aa`, `lk`, opcode) are preserved.
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
        BranchKind::Jump => {
            assert_eq!(word >> 26, primary::B, "not an I-form branch");
            (word & !0x03ff_fffc) | (((units as u32) & 0x00ff_ffff) << 2)
        }
        BranchKind::Conditional => {
            assert_eq!(word >> 26, primary::BC, "not a B-form branch");
            (word & !0x0000_fffc) | (((units as u32) & 0x3fff) << 2)
        }
    }
}

/// Reads back the raw displacement field of a patched branch, sign-extended,
/// in field units (the inverse of [`patch_offset_units`]).
pub fn read_offset_units(word: u32, kind: BranchKind) -> i32 {
    match kind {
        BranchKind::Jump => {
            let v = (word >> 2) & 0x00ff_ffff;
            ((v << 8) as i32) >> 8
        }
        BranchKind::Conditional => {
            let v = (word >> 2) & 0x3fff;
            ((v << 18) as i32) >> 18
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::insn::bo;

    #[test]
    fn info_for_forms() {
        let b = encode(&Insn::B { li: -64, aa: false, lk: true });
        let i = rel_branch_info(b).unwrap();
        assert_eq!((i.kind, i.offset, i.lk), (BranchKind::Jump, -64, true));

        let bc = encode(&Insn::Bc { bo: bo::IF_FALSE, bi: 0, bd: 128, aa: false, lk: false });
        let i = rel_branch_info(bc).unwrap();
        assert_eq!((i.kind, i.offset, i.lk), (BranchKind::Conditional, 128, false));

        let blr = encode(&Insn::Bclr { bo: bo::ALWAYS, bi: 0, lk: false });
        assert_eq!(rel_branch_info(blr), None);
        let abs = encode(&Insn::B { li: 4096, aa: true, lk: false });
        assert_eq!(rel_branch_info(abs), None);
    }

    #[test]
    fn patch_and_read_roundtrip() {
        let word = encode(&Insn::Bc { bo: bo::IF_TRUE, bi: 6, bd: 0, aa: false, lk: false });
        for units in [-8192, -1, 0, 1, 8191] {
            let p = patch_offset_units(word, BranchKind::Conditional, units);
            assert_eq!(read_offset_units(p, BranchKind::Conditional), units);
            // bo/bi preserved:
            assert_eq!(p >> 16, word >> 16);
        }
        let word = encode(&Insn::B { li: 0, aa: false, lk: true });
        for units in [-(1 << 23), -3, 0, 5, (1 << 23) - 1] {
            let p = patch_offset_units(word, BranchKind::Jump, units);
            assert_eq!(read_offset_units(p, BranchKind::Jump), units);
            assert_eq!(p & 3, word & 3);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn patch_overflow_panics() {
        let word = encode(&Insn::Bc { bo: bo::ALWAYS, bi: 0, bd: 0, aa: false, lk: false });
        patch_offset_units(word, BranchKind::Conditional, 8192);
    }
}
