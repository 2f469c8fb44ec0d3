//! Instruction encoding: [`MInsn`] → raw 32-bit words.

use crate::insn::MInsn;
use crate::opcode::{funct, op, regimm};
use crate::reg::Reg;

fn r_form(f: u32, rs: Reg, rt: Reg, rd: Reg, sa: u8) -> u32 {
    (op::SPECIAL << 26)
        | (rs.field() << 21)
        | (rt.field() << 16)
        | (rd.field() << 11)
        | ((sa as u32 & 0x1f) << 6)
        | f
}

fn i_form(o: u32, rs: Reg, rt: Reg, imm: u16) -> u32 {
    (o << 26) | (rs.field() << 21) | (rt.field() << 16) | imm as u32
}

/// Byte branch offset → raw 16-bit word-displacement field.
fn b_field(offset: i32) -> u16 {
    ((offset >> 2) as u32 & 0xffff) as u16
}

/// Encodes an instruction to its canonical word form.
///
/// The inverse of [`crate::decode()`]: `decode(encode(&i)) == i` for every
/// constructible instruction, and `encode(&decode(w)) == w` for every word.
///
/// ```
/// use codense_mips::{encode, MInsn, reg::{T0, T1}};
/// let w = encode(&MInsn::Addu { rd: T0, rs: T0, rt: T1 });
/// assert_eq!(w, 0x0109_4021);
/// ```
pub fn encode(insn: &MInsn) -> u32 {
    use MInsn::*;
    let zero = Reg::new(0).unwrap();
    match *insn {
        Sll { rd, rt, sa } => r_form(funct::SLL, zero, rt, rd, sa),
        Srl { rd, rt, sa } => r_form(funct::SRL, zero, rt, rd, sa),
        Sra { rd, rt, sa } => r_form(funct::SRA, zero, rt, rd, sa),
        Sllv { rd, rt, rs } => r_form(funct::SLLV, rs, rt, rd, 0),
        Srlv { rd, rt, rs } => r_form(funct::SRLV, rs, rt, rd, 0),
        Srav { rd, rt, rs } => r_form(funct::SRAV, rs, rt, rd, 0),

        Jr { rs } => r_form(funct::JR, rs, zero, zero, 0),
        Jalr { rd, rs } => r_form(funct::JALR, rs, zero, rd, 0),
        Syscall => op::SPECIAL << 26 | funct::SYSCALL,
        Break => op::SPECIAL << 26 | funct::BREAK,

        Mul { rd, rs, rt } => r_form(funct::MUL, rs, rt, rd, 0),
        Div { rd, rs, rt } => r_form(funct::DIV, rs, rt, rd, 0),
        Divu { rd, rs, rt } => r_form(funct::DIVU, rs, rt, rd, 0),
        Addu { rd, rs, rt } => r_form(funct::ADDU, rs, rt, rd, 0),
        Subu { rd, rs, rt } => r_form(funct::SUBU, rs, rt, rd, 0),
        And { rd, rs, rt } => r_form(funct::AND, rs, rt, rd, 0),
        Or { rd, rs, rt } => r_form(funct::OR, rs, rt, rd, 0),
        Xor { rd, rs, rt } => r_form(funct::XOR, rs, rt, rd, 0),
        Nor { rd, rs, rt } => r_form(funct::NOR, rs, rt, rd, 0),
        Slt { rd, rs, rt } => r_form(funct::SLT, rs, rt, rd, 0),
        Sltu { rd, rs, rt } => r_form(funct::SLTU, rs, rt, rd, 0),

        Bltz { rs, offset } => {
            (op::REGIMM << 26) | (rs.field() << 21) | (regimm::BLTZ << 16) | b_field(offset) as u32
        }
        Bgez { rs, offset } => {
            (op::REGIMM << 26) | (rs.field() << 21) | (regimm::BGEZ << 16) | b_field(offset) as u32
        }
        Beq { rs, rt, offset } => i_form(op::BEQ, rs, rt, b_field(offset)),
        Bne { rs, rt, offset } => i_form(op::BNE, rs, rt, b_field(offset)),
        Blez { rs, offset } => i_form(op::BLEZ, rs, zero, b_field(offset)),
        Bgtz { rs, offset } => i_form(op::BGTZ, rs, zero, b_field(offset)),
        J { offset } => (op::J << 26) | ((offset >> 2) as u32 & 0x03ff_ffff),
        Jal { offset } => (op::JAL << 26) | ((offset >> 2) as u32 & 0x03ff_ffff),

        Addiu { rt, rs, imm } => i_form(op::ADDIU, rs, rt, imm as u16),
        Slti { rt, rs, imm } => i_form(op::SLTI, rs, rt, imm as u16),
        Sltiu { rt, rs, imm } => i_form(op::SLTIU, rs, rt, imm as u16),
        Andi { rt, rs, imm } => i_form(op::ANDI, rs, rt, imm),
        Ori { rt, rs, imm } => i_form(op::ORI, rs, rt, imm),
        Xori { rt, rs, imm } => i_form(op::XORI, rs, rt, imm),
        Lui { rt, imm } => i_form(op::LUI, zero, rt, imm),

        Lb { rt, base, offset } => i_form(op::LB, base, rt, offset as u16),
        Lh { rt, base, offset } => i_form(op::LH, base, rt, offset as u16),
        Lw { rt, base, offset } => i_form(op::LW, base, rt, offset as u16),
        Lbu { rt, base, offset } => i_form(op::LBU, base, rt, offset as u16),
        Lhu { rt, base, offset } => i_form(op::LHU, base, rt, offset as u16),
        Sb { rt, base, offset } => i_form(op::SB, base, rt, offset as u16),
        Sh { rt, base, offset } => i_form(op::SH, base, rt, offset as u16),
        Sw { rt, base, offset } => i_form(op::SW, base, rt, offset as u16),

        Illegal(word) => word,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;

    #[test]
    fn known_words() {
        // Cross-checked against GNU `as -mips32` output.
        assert_eq!(encode(&MInsn::Sll { rd: ZERO, rt: ZERO, sa: 0 }), 0x0000_0000); // nop
        assert_eq!(encode(&MInsn::Addiu { rt: V0, rs: ZERO, imm: 1 }), 0x2402_0001);
        assert_eq!(encode(&MInsn::Lw { rt: T0, base: SP, offset: 16 }), 0x8fa8_0010);
        assert_eq!(encode(&MInsn::Sw { rt: RA, base: SP, offset: -4 }), 0xafbf_fffc);
        assert_eq!(encode(&MInsn::Jr { rs: RA }), 0x03e0_0008);
        assert_eq!(encode(&MInsn::Syscall), 0x0000_000c);
        assert_eq!(encode(&MInsn::Lui { rt: AT, imm: 0x0060 }), 0x3c01_0060);
    }

    #[test]
    fn branch_field_is_word_displacement() {
        // beq $8,$9,.+8 → field 2.
        assert_eq!(encode(&MInsn::Beq { rs: T0, rt: T1, offset: 8 }) & 0xffff, 2);
        // bne backwards: field is the truncated two's complement.
        assert_eq!(encode(&MInsn::Bne { rs: T0, rt: T1, offset: -4 }) & 0xffff, 0xffff);
        // j .+0x40 → 26-bit field 16.
        assert_eq!(encode(&MInsn::J { offset: 0x40 }) & 0x03ff_ffff, 16);
    }
}
