//! Primary opcode and function-field constants for the implemented subset,
//! and the illegal primary opcodes used for compression escape bytes.

/// Primary (6-bit, bits 31–26) opcodes of the implemented subset.
#[allow(missing_docs)] // each constant is named for its mnemonic / format
pub mod op {
    pub const SPECIAL: u32 = 0x00;
    pub const REGIMM: u32 = 0x01;
    pub const J: u32 = 0x02;
    pub const JAL: u32 = 0x03;
    pub const BEQ: u32 = 0x04;
    pub const BNE: u32 = 0x05;
    pub const BLEZ: u32 = 0x06;
    pub const BGTZ: u32 = 0x07;
    pub const ADDIU: u32 = 0x09;
    pub const SLTI: u32 = 0x0a;
    pub const SLTIU: u32 = 0x0b;
    pub const ANDI: u32 = 0x0c;
    pub const ORI: u32 = 0x0d;
    pub const XORI: u32 = 0x0e;
    pub const LUI: u32 = 0x0f;
    pub const LB: u32 = 0x20;
    pub const LH: u32 = 0x21;
    pub const LW: u32 = 0x23;
    pub const LBU: u32 = 0x24;
    pub const LHU: u32 = 0x25;
    pub const SB: u32 = 0x28;
    pub const SH: u32 = 0x29;
    pub const SW: u32 = 0x2b;
}

/// Function (6-bit, bits 5–0) codes under the SPECIAL primary opcode.
#[allow(missing_docs)] // each constant is named for its mnemonic
pub mod funct {
    pub const SLL: u32 = 0x00;
    pub const SRL: u32 = 0x02;
    pub const SRA: u32 = 0x03;
    pub const SLLV: u32 = 0x04;
    pub const SRLV: u32 = 0x06;
    pub const SRAV: u32 = 0x07;
    pub const JR: u32 = 0x08;
    pub const JALR: u32 = 0x09;
    pub const SYSCALL: u32 = 0x0c;
    pub const BREAK: u32 = 0x0d;
    pub const MUL: u32 = 0x18;
    pub const DIV: u32 = 0x1a;
    pub const DIVU: u32 = 0x1b;
    pub const ADDU: u32 = 0x21;
    pub const SUBU: u32 = 0x23;
    pub const AND: u32 = 0x24;
    pub const OR: u32 = 0x25;
    pub const XOR: u32 = 0x26;
    pub const NOR: u32 = 0x27;
    pub const SLT: u32 = 0x2a;
    pub const SLTU: u32 = 0x2b;
}

/// `rt`-field condition codes under the REGIMM primary opcode.
#[allow(missing_docs)] // each constant is named for its mnemonic
pub mod regimm {
    pub const BLTZ: u32 = 0x00;
    pub const BGEZ: u32 = 0x01;
}

/// The eight illegal 6-bit primary opcodes reserved for compression escapes.
///
/// Like PowerPC (§4.1 of the paper), the MIPS-like subset reserves eight
/// primary opcodes no instruction of the executable subset uses; each
/// contributes four escape byte patterns (the two remaining bits of the top
/// byte are free), for 32 escape bytes. On real MIPS-I these slots hold
/// coprocessor and 64-bit-only opcodes, which this subset omits entirely.
pub const ILLEGAL_PRIMARY: [u32; 8] = [0x12, 0x13, 0x16, 0x17, 0x1a, 0x1b, 0x32, 0x3a];

/// Returns `true` if `op` is one of the eight reserved illegal primary
/// opcodes.
pub fn is_illegal_primary(op: u32) -> bool {
    ILLEGAL_PRIMARY.contains(&(op & 0x3f))
}

/// Extracts the primary opcode (bits 31–26) of a word.
pub const fn primary_of(word: u32) -> u32 {
    word >> 26
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legal_opcodes_are_not_escapes() {
        for o in [op::SPECIAL, op::ADDIU, op::LW, op::J, op::BEQ, op::LUI, op::SW] {
            assert!(!is_illegal_primary(o));
        }
    }

    #[test]
    fn primary_extraction() {
        assert_eq!(primary_of(0x2442_0001), op::ADDIU); // addiu $2,$2,1
        assert_eq!(primary_of(0x0000_000c), op::SPECIAL); // syscall
    }
}
