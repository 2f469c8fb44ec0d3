//! Disassembly to conventional MIPS assembly text (`lw $8,16($29)`,
//! `beq $8,$9,00040018`, `jr $31`, …).
//!
//! A few simplified mnemonics (`nop`, `move`, `li`, `b`) are produced where
//! the operands match the idiom, mirroring how GNU `objdump` renders MIPS
//! and how the PowerPC disassembler treats its own idioms.

use crate::insn::MInsn;
use crate::reg::Reg;

/// Disassembles an instruction word located at byte address `addr`.
///
/// Branch targets are rendered as absolute 8-digit hex addresses computed
/// from `addr`.
///
/// ```
/// use codense_mips::disasm::disassemble;
/// assert_eq!(disassemble(0x8fa8_0010, 0), "lw $8,16($29)");
/// assert_eq!(disassemble(0x03e0_0008, 0), "jr $31");
/// ```
pub fn disassemble(word: u32, addr: u32) -> String {
    disassemble_insn(&crate::decode(word), addr)
}

/// Disassembles a decoded instruction located at byte address `addr`.
pub fn disassemble_insn(insn: &MInsn, addr: u32) -> String {
    use MInsn::*;
    match *insn {
        Sll { rd, rt, sa } if rd.number() == 0 && rt.number() == 0 && sa == 0 => "nop".into(),
        Sll { rd, rt, sa } => format!("sll {rd},{rt},{sa}"),
        Srl { rd, rt, sa } => format!("srl {rd},{rt},{sa}"),
        Sra { rd, rt, sa } => format!("sra {rd},{rt},{sa}"),
        Sllv { rd, rt, rs } => format!("sllv {rd},{rt},{rs}"),
        Srlv { rd, rt, rs } => format!("srlv {rd},{rt},{rs}"),
        Srav { rd, rt, rs } => format!("srav {rd},{rt},{rs}"),

        Jr { rs } => format!("jr {rs}"),
        Jalr { rd, rs } if rd.number() == 31 => format!("jalr {rs}"),
        Jalr { rd, rs } => format!("jalr {rd},{rs}"),
        Syscall => "syscall".into(),
        Break => "break".into(),

        Mul { rd, rs, rt } => rrr("mul", rd, rs, rt),
        Div { rd, rs, rt } => rrr("div", rd, rs, rt),
        Divu { rd, rs, rt } => rrr("divu", rd, rs, rt),
        Addu { rd, rs, rt } if rt.number() == 0 => format!("move {rd},{rs}"),
        Addu { rd, rs, rt } => rrr("addu", rd, rs, rt),
        Subu { rd, rs, rt } => rrr("subu", rd, rs, rt),
        And { rd, rs, rt } => rrr("and", rd, rs, rt),
        Or { rd, rs, rt } => rrr("or", rd, rs, rt),
        Xor { rd, rs, rt } => rrr("xor", rd, rs, rt),
        Nor { rd, rs, rt } => rrr("nor", rd, rs, rt),
        Slt { rd, rs, rt } => rrr("slt", rd, rs, rt),
        Sltu { rd, rs, rt } => rrr("sltu", rd, rs, rt),

        Bltz { rs, offset } => format!("bltz {rs},{}", target(addr, offset)),
        Bgez { rs, offset } => format!("bgez {rs},{}", target(addr, offset)),
        Beq { rs, rt, offset } if rs.number() == 0 && rt.number() == 0 => {
            format!("b {}", target(addr, offset))
        }
        Beq { rs, rt, offset } => format!("beq {rs},{rt},{}", target(addr, offset)),
        Bne { rs, rt, offset } => format!("bne {rs},{rt},{}", target(addr, offset)),
        Blez { rs, offset } => format!("blez {rs},{}", target(addr, offset)),
        Bgtz { rs, offset } => format!("bgtz {rs},{}", target(addr, offset)),
        J { offset } => format!("j {}", target(addr, offset)),
        Jal { offset } => format!("jal {}", target(addr, offset)),

        Addiu { rt, rs, imm } if rs.number() == 0 => format!("li {rt},{imm}"),
        Addiu { rt, rs, imm } => format!("addiu {rt},{rs},{imm}"),
        Slti { rt, rs, imm } => format!("slti {rt},{rs},{imm}"),
        Sltiu { rt, rs, imm } => format!("sltiu {rt},{rs},{imm}"),
        Andi { rt, rs, imm } => format!("andi {rt},{rs},{imm}"),
        Ori { rt, rs, imm } => format!("ori {rt},{rs},{imm}"),
        Xori { rt, rs, imm } => format!("xori {rt},{rs},{imm}"),
        Lui { rt, imm } => format!("lui {rt},{imm}"),

        Lb { rt, base, offset } => mem("lb", rt, base, offset),
        Lh { rt, base, offset } => mem("lh", rt, base, offset),
        Lw { rt, base, offset } => mem("lw", rt, base, offset),
        Lbu { rt, base, offset } => mem("lbu", rt, base, offset),
        Lhu { rt, base, offset } => mem("lhu", rt, base, offset),
        Sb { rt, base, offset } => mem("sb", rt, base, offset),
        Sh { rt, base, offset } => mem("sh", rt, base, offset),
        Sw { rt, base, offset } => mem("sw", rt, base, offset),

        Illegal(w) => format!(".word 0x{w:08x}"),
    }
}

fn target(addr: u32, offset: i32) -> String {
    format!("{:08x}", addr.wrapping_add(offset as u32))
}

fn mem(m: &str, rt: Reg, base: Reg, offset: i16) -> String {
    format!("{m} {rt},{offset}({base})")
}

fn rrr(m: &str, a: Reg, b: Reg, c: Reg) -> String {
    format!("{m} {a},{b},{c}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::reg::*;

    fn dis(i: &MInsn, addr: u32) -> String {
        disassemble(encode(i), addr)
    }

    #[test]
    fn common_forms() {
        assert_eq!(dis(&MInsn::Lw { rt: T0, base: SP, offset: 16 }, 0), "lw $8,16($29)");
        assert_eq!(dis(&MInsn::Sw { rt: RA, base: SP, offset: -4 }, 0), "sw $31,-4($29)");
        assert_eq!(dis(&MInsn::Addu { rd: V0, rs: A0, rt: A1 }, 0), "addu $2,$4,$5");
        assert_eq!(dis(&MInsn::Sll { rd: T0, rt: T1, sa: 2 }, 0), "sll $8,$9,2");
        assert_eq!(dis(&MInsn::Lui { rt: AT, imm: 96 }, 0), "lui $1,96");
        assert_eq!(dis(&MInsn::Syscall, 0), "syscall");
    }

    #[test]
    fn idioms() {
        assert_eq!(disassemble(0, 0), "nop");
        assert_eq!(dis(&MInsn::Addiu { rt: V0, rs: ZERO, imm: 7 }, 0), "li $2,7");
        assert_eq!(dis(&MInsn::Addu { rd: A0, rs: V0, rt: ZERO }, 0), "move $4,$2");
        assert_eq!(dis(&MInsn::Beq { rs: ZERO, rt: ZERO, offset: 8 }, 0x100), "b 00000108");
        assert_eq!(dis(&MInsn::Jalr { rd: RA, rs: T9 }, 0), "jalr $25");
        assert_eq!(dis(&MInsn::Illegal(0x0123_4567), 0), ".word 0x01234567");
    }

    #[test]
    fn branch_targets_absolute() {
        assert_eq!(
            dis(&MInsn::Beq { rs: T0, rt: T1, offset: 0x18 }, 0x0004_0000),
            "beq $8,$9,00040018"
        );
        assert_eq!(dis(&MInsn::Jal { offset: -8 }, 0x100), "jal 000000f8");
        assert_eq!(dis(&MInsn::Bltz { rs: S0, offset: -64 }, 0x1000), "bltz $16,00000fc0");
    }

    #[test]
    fn dump_formats_lines() {
        let words = [encode(&MInsn::Addiu { rt: V0, rs: ZERO, imm: 1 }), encode(&MInsn::Syscall)];
        let text = codense_isa::Isa::dump(&crate::ISA, &words, 0x1000);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("00001000:"));
        assert!(lines[0].ends_with("li $2,1"));
        assert!(lines[1].contains("syscall"));
    }
}
