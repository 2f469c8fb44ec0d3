//! Primary and extended opcode constants for the implemented subset, and the
//! illegal primary opcodes used for compression escape bytes.

/// Primary (6-bit, bits 0–5) opcodes of the implemented subset.
#[allow(missing_docs)] // each constant is named for its mnemonic
pub mod primary {
    pub const TWI: u32 = 3;
    pub const MULLI: u32 = 7;
    pub const SUBFIC: u32 = 8;
    pub const CMPLWI: u32 = 10;
    pub const CMPWI: u32 = 11;
    pub const ADDIC: u32 = 12;
    pub const ADDIC_RC: u32 = 13;
    pub const ADDI: u32 = 14;
    pub const ADDIS: u32 = 15;
    pub const BC: u32 = 16;
    pub const SC: u32 = 17;
    pub const B: u32 = 18;
    pub const XL: u32 = 19;
    pub const RLWIMI: u32 = 20;
    pub const RLWINM: u32 = 21;
    pub const ORI: u32 = 24;
    pub const ORIS: u32 = 25;
    pub const XORI: u32 = 26;
    pub const XORIS: u32 = 27;
    pub const ANDI_RC: u32 = 28;
    pub const ANDIS_RC: u32 = 29;
    pub const X31: u32 = 31;
    pub const LWZ: u32 = 32;
    pub const LWZU: u32 = 33;
    pub const LBZ: u32 = 34;
    pub const LBZU: u32 = 35;
    pub const STW: u32 = 36;
    pub const STWU: u32 = 37;
    pub const STB: u32 = 38;
    pub const STBU: u32 = 39;
    pub const LHZ: u32 = 40;
    pub const LHZU: u32 = 41;
    pub const LHA: u32 = 42;
    pub const LHAU: u32 = 43;
    pub const STH: u32 = 44;
    pub const STHU: u32 = 45;
    pub const LMW: u32 = 46;
    pub const STMW: u32 = 47;
}

/// Extended (10-bit, bits 21–30) opcodes under primary opcode 31.
#[allow(missing_docs)] // each constant is named for its mnemonic
pub mod xo31 {
    pub const CMPW: u32 = 0;
    pub const SUBF: u32 = 40;
    pub const CMPLW: u32 = 32;
    pub const LWZX: u32 = 23;
    pub const SLW: u32 = 24;
    pub const CNTLZW: u32 = 26;
    pub const AND: u32 = 28;
    pub const ANDC: u32 = 60;
    pub const MULHW: u32 = 75;
    pub const LBZX: u32 = 87;
    pub const NEG: u32 = 104;
    pub const NOR: u32 = 124;
    pub const MTCRF: u32 = 144;
    pub const STWX: u32 = 151;
    pub const STBX: u32 = 215;
    pub const MULLW: u32 = 235;
    pub const ADD: u32 = 266;
    pub const LHZX: u32 = 279;
    pub const XOR: u32 = 316;
    pub const MFSPR: u32 = 339;
    pub const STHX: u32 = 407;
    pub const ORC: u32 = 412;
    pub const OR: u32 = 444;
    pub const DIVWU: u32 = 459;
    pub const MTSPR: u32 = 467;
    pub const NAND: u32 = 476;
    pub const DIVW: u32 = 491;
    pub const SRW: u32 = 536;
    pub const SRAW: u32 = 792;
    pub const SRAWI: u32 = 824;
    pub const EXTSH: u32 = 922;
    pub const EXTSB: u32 = 954;
    pub const MFCR: u32 = 19;
}

/// Extended (10-bit) opcodes under primary opcode 19 (XL form).
#[allow(missing_docs)] // each constant is named for its mnemonic
pub mod xo19 {
    pub const BCLR: u32 = 16;
    pub const CRXOR: u32 = 193;
    pub const BCCTR: u32 = 528;
}

/// The eight illegal 6-bit primary opcodes reserved for compression escapes.
///
/// The paper (§4.1): "PowerPC has 8 illegal 6-bit opcodes. By using all 8
/// illegal opcodes and all possible patterns of the remaining 2 bits in the
/// byte, we can have up to 32 different escape bytes." On 32-bit PowerPC the
/// unallocated / 64-bit-only primary opcodes include 0, 1, 2, 4, 5, 6, 9, 22,
/// 30, 56–62; we reserve the following eight.
pub const ILLEGAL_PRIMARY: [u32; 8] = [0, 1, 4, 5, 6, 9, 22, 30];

/// Returns `true` if `op` is one of the eight reserved illegal primary opcodes.
pub fn is_illegal_primary(op: u32) -> bool {
    ILLEGAL_PRIMARY.contains(&(op & 0x3f))
}

/// Extracts the primary opcode (bits 0–5, i.e. the top 6 bits) of a word.
pub const fn primary_of(word: u32) -> u32 {
    word >> 26
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_opcodes_are_not_escapes() {
        for op in [primary::ADDI, primary::B, primary::LWZ, primary::X31] {
            assert!(!is_illegal_primary(op));
        }
    }

    #[test]
    fn primary_extraction() {
        assert_eq!(primary_of(0x3860_0001), 14); // addi
        assert_eq!(primary_of(0x4e80_0020), 19); // blr
    }
}
