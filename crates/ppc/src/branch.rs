//! PC-relative branch field extraction and patching.
//!
//! The compressor never compresses PC-relative branches; instead it rewrites
//! their displacement fields after layout (§3.2 of the paper). Compressed
//! programs reinterpret the displacement field at the alignment of the
//! smallest codeword — e.g. with 8-bit codewords a 14-bit `bc` field that
//! used to address ±32 KiB of 4-byte-aligned targets addresses ±8 KiB of
//! byte-aligned targets. This module exposes the fields and the reduced-
//! resolution fitting/patching arithmetic.

use crate::insn::Insn;
use crate::opcode::primary;

/// Which relative-branch form a word is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RelBranchKind {
    /// I-form `b`/`bl`: 24-bit displacement field.
    IForm,
    /// B-form `bc` (conditional): 14-bit displacement field.
    BForm,
}

impl RelBranchKind {
    /// Width in bits of the signed displacement field (sign bit included).
    pub const fn field_bits(self) -> u32 {
        match self {
            RelBranchKind::IForm => 24,
            RelBranchKind::BForm => 14,
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
    /// Whether the branch sets the link register (a call).
    pub lk: bool,
}

/// Extracts relative-branch information from an instruction word.
///
/// Returns `None` for absolute branches (`aa = 1`), indirect branches, and
/// non-branches. The compressor asks this of every word several times per
/// compression, so a word whose primary opcode is neither `bc` nor `b` is
/// answered from the opcode alone, without a decode.
///
/// ```
/// use codense_ppc::branch::{rel_branch_info, RelBranchKind};
/// let info = rel_branch_info(0x4800_0008).unwrap(); // b .+8
/// assert_eq!(info.kind, RelBranchKind::IForm);
/// assert_eq!(info.offset, 8);
/// ```
pub fn rel_branch_info(word: u32) -> Option<RelBranch> {
    if !matches!(word >> 26, primary::BC | primary::B) {
        return None;
    }
    match crate::decode(word) {
        Insn::B { li, aa: false, lk } => {
            Some(RelBranch { kind: RelBranchKind::IForm, offset: li, lk })
        }
        Insn::Bc { bd, aa: false, lk, .. } => {
            Some(RelBranch { kind: RelBranchKind::BForm, offset: bd as i32, lk })
        }
        _ => None,
    }
}

/// Returns `true` if `value` fits a signed two's-complement field of
/// `bits` bits.
pub const fn fits_signed(value: i64, bits: u32) -> bool {
    let half = 1i64 << (bits - 1);
    value >= -half && value < half
}

/// Can a displacement of `offset_nibbles` (4-bit units) be expressed by this
/// branch form when the field is interpreted in `granule_nibbles` units?
///
/// The uncompressed ISA uses `granule_nibbles = 8` (4-byte units); the
/// paper's schemes use 4 (2-byte codewords), 2 (1-byte codewords) and
/// 1 (nibble-aligned codewords).
pub fn offset_expressible(kind: RelBranchKind, offset_nibbles: i64, granule_nibbles: u32) -> bool {
    debug_assert!(granule_nibbles > 0);
    let g = granule_nibbles as i64;
    offset_nibbles % g == 0 && fits_signed(offset_nibbles / g, kind.field_bits())
}

/// Rewrites the displacement field of a relative branch with a new raw field
/// value (already divided down to the target granularity). All other fields
/// (`bo`, `bi`, `aa`, `lk`, opcode) are preserved.
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
        RelBranchKind::IForm => {
            assert_eq!(word >> 26, crate::opcode::primary::B, "not an I-form branch");
            (word & !0x03ff_fffc) | (((units as u32) & 0x00ff_ffff) << 2)
        }
        RelBranchKind::BForm => {
            assert_eq!(word >> 26, crate::opcode::primary::BC, "not a B-form branch");
            (word & !0x0000_fffc) | (((units as u32) & 0x3fff) << 2)
        }
    }
}

/// Reads back the raw displacement field of a patched branch, sign-extended,
/// in field units (the inverse of [`patch_offset_units`]).
pub fn read_offset_units(word: u32, kind: RelBranchKind) -> i32 {
    match kind {
        RelBranchKind::IForm => {
            let v = (word >> 2) & 0x00ff_ffff;
            ((v << 8) as i32) >> 8
        }
        RelBranchKind::BForm => {
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
        assert_eq!((i.kind, i.offset, i.lk), (RelBranchKind::IForm, -64, true));

        let bc = encode(&Insn::Bc { bo: bo::IF_FALSE, bi: 0, bd: 128, aa: false, lk: false });
        let i = rel_branch_info(bc).unwrap();
        assert_eq!((i.kind, i.offset, i.lk), (RelBranchKind::BForm, 128, false));

        let blr = encode(&Insn::Bclr { bo: bo::ALWAYS, bi: 0, lk: false });
        assert_eq!(rel_branch_info(blr), None);
        let abs = encode(&Insn::B { li: 4096, aa: true, lk: false });
        assert_eq!(rel_branch_info(abs), None);
    }

    #[test]
    fn fits_signed_bounds() {
        assert!(fits_signed(8191, 14));
        assert!(!fits_signed(8192, 14));
        assert!(fits_signed(-8192, 14));
        assert!(!fits_signed(-8193, 14));
    }

    #[test]
    fn expressibility_at_granularities() {
        // 20 KiB displacement = 40960 nibbles.
        let d = 40960i64;
        // 4-byte granule: 40960/8 = 5120 fits 14 bits.
        assert!(offset_expressible(RelBranchKind::BForm, d, 8));
        // 2-byte granule: 10240 does not fit 14 bits signed.
        assert!(!offset_expressible(RelBranchKind::BForm, d, 4));
        // I-form fits everywhere at these sizes.
        assert!(offset_expressible(RelBranchKind::IForm, d, 1));
        // Misaligned displacement is inexpressible.
        assert!(!offset_expressible(RelBranchKind::BForm, 7, 2));
    }

    #[test]
    fn patch_and_read_roundtrip() {
        let word = encode(&Insn::Bc { bo: bo::IF_TRUE, bi: 6, bd: 0, aa: false, lk: false });
        for units in [-8192, -1, 0, 1, 8191] {
            let p = patch_offset_units(word, RelBranchKind::BForm, units);
            assert_eq!(read_offset_units(p, RelBranchKind::BForm), units);
            // bo/bi preserved:
            assert_eq!(p >> 16, word >> 16);
        }
        let word = encode(&Insn::B { li: 0, aa: false, lk: true });
        for units in [-(1 << 23), -3, 0, 5, (1 << 23) - 1] {
            let p = patch_offset_units(word, RelBranchKind::IForm, units);
            assert_eq!(read_offset_units(p, RelBranchKind::IForm), units);
            assert_eq!(p & 3, word & 3);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn patch_overflow_panics() {
        let word = encode(&Insn::Bc { bo: bo::ALWAYS, bi: 0, bd: 0, aa: false, lk: false });
        patch_offset_units(word, RelBranchKind::BForm, 8192);
    }
}
