//! Assembly-text parsing: the inverse of [`crate::disasm`].
//!
//! Accepts the disassembler's output syntax — canonical mnemonics and the
//! simplified forms (`nop`, `move`, `li`, `b`, one-operand `jalr`) — so text
//! can round-trip: `parse(disassemble(w)) == decode(w)`.
//!
//! Branch targets are parsed as *absolute byte addresses* (as the
//! disassembler prints them) and require the instruction's own address to
//! recover the relative displacement, hence [`parse_insn`] takes `addr`.

use codense_isa::text::{self, err, parse_i16, parse_int, parse_target, parse_u16};

use crate::insn::MInsn;
use crate::reg::Reg;

/// Parse errors, with the offending fragment (the one type both backends
/// share).
pub use codense_isa::text::ParseError;

fn parse_reg(s: &str) -> Result<Reg, ParseError> {
    let n: u8 = s
        .strip_prefix('$')
        .and_then(|v| v.parse().ok())
        .ok_or(ParseError { message: format!("bad register `{s}`") })?;
    Reg::new(n).ok_or(ParseError { message: format!("register out of range `{s}`") })
}

fn parse_sa(s: &str) -> Result<u8, ParseError> {
    let v = parse_int(s)?;
    match u8::try_from(v) {
        Ok(v) if v < 32 => Ok(v),
        _ => err(format!("shift amount out of range `{s}`")),
    }
}

/// Parses one instruction of disassembly text located at byte address
/// `addr`.
///
/// # Errors
///
/// Returns a [`ParseError`] for unknown mnemonics, malformed operands, or
/// out-of-range fields.
pub fn parse_insn(line: &str, addr: u32) -> Result<MInsn, ParseError> {
    let (mnemonic, ops) = text::split(line);
    let n = |k: usize| text::arity(mnemonic, &ops, k);

    macro_rules! shift_imm {
        ($variant:ident) => {{
            n(3)?;
            Ok(MInsn::$variant {
                rd: parse_reg(ops[0])?,
                rt: parse_reg(ops[1])?,
                sa: parse_sa(ops[2])?,
            })
        }};
    }
    macro_rules! shift_var {
        ($variant:ident) => {{
            n(3)?;
            Ok(MInsn::$variant {
                rd: parse_reg(ops[0])?,
                rt: parse_reg(ops[1])?,
                rs: parse_reg(ops[2])?,
            })
        }};
    }
    macro_rules! r_arith {
        ($variant:ident) => {{
            n(3)?;
            Ok(MInsn::$variant {
                rd: parse_reg(ops[0])?,
                rs: parse_reg(ops[1])?,
                rt: parse_reg(ops[2])?,
            })
        }};
    }
    macro_rules! i_signed {
        ($variant:ident) => {{
            n(3)?;
            Ok(MInsn::$variant {
                rt: parse_reg(ops[0])?,
                rs: parse_reg(ops[1])?,
                imm: parse_i16(ops[2])?,
            })
        }};
    }
    macro_rules! i_unsigned {
        ($variant:ident) => {{
            n(3)?;
            Ok(MInsn::$variant {
                rt: parse_reg(ops[0])?,
                rs: parse_reg(ops[1])?,
                imm: parse_u16(ops[2])?,
            })
        }};
    }
    macro_rules! mem_op {
        ($variant:ident) => {{
            n(2)?;
            let (offset, base) = text::parse_mem(ops[1], parse_reg)?;
            Ok(MInsn::$variant { rt: parse_reg(ops[0])?, base, offset })
        }};
    }
    macro_rules! b_compare {
        ($variant:ident) => {{
            n(3)?;
            Ok(MInsn::$variant {
                rs: parse_reg(ops[0])?,
                rt: parse_reg(ops[1])?,
                offset: parse_target(ops[2], addr)?,
            })
        }};
    }
    macro_rules! b_zero {
        ($variant:ident) => {{
            n(2)?;
            Ok(MInsn::$variant { rs: parse_reg(ops[0])?, offset: parse_target(ops[1], addr)? })
        }};
    }

    match mnemonic {
        "nop" => {
            n(0)?;
            let zero = Reg::new(0).unwrap();
            Ok(MInsn::Sll { rd: zero, rt: zero, sa: 0 })
        }
        "sll" => shift_imm!(Sll),
        "srl" => shift_imm!(Srl),
        "sra" => shift_imm!(Sra),
        "sllv" => shift_var!(Sllv),
        "srlv" => shift_var!(Srlv),
        "srav" => shift_var!(Srav),

        "jr" => {
            n(1)?;
            Ok(MInsn::Jr { rs: parse_reg(ops[0])? })
        }
        "jalr" => match ops.len() {
            1 => Ok(MInsn::Jalr { rd: crate::reg::RA, rs: parse_reg(ops[0])? }),
            2 => Ok(MInsn::Jalr { rd: parse_reg(ops[0])?, rs: parse_reg(ops[1])? }),
            _ => err("`jalr` expects 1–2 operands"),
        },
        "syscall" => {
            n(0)?;
            Ok(MInsn::Syscall)
        }
        "break" => {
            n(0)?;
            Ok(MInsn::Break)
        }

        "mul" => r_arith!(Mul),
        "div" => r_arith!(Div),
        "divu" => r_arith!(Divu),
        "addu" => r_arith!(Addu),
        "subu" => r_arith!(Subu),
        "and" => r_arith!(And),
        "or" => r_arith!(Or),
        "xor" => r_arith!(Xor),
        "nor" => r_arith!(Nor),
        "slt" => r_arith!(Slt),
        "sltu" => r_arith!(Sltu),
        "move" => {
            n(2)?;
            Ok(MInsn::Addu {
                rd: parse_reg(ops[0])?,
                rs: parse_reg(ops[1])?,
                rt: Reg::new(0).unwrap(),
            })
        }

        "bltz" => b_zero!(Bltz),
        "bgez" => b_zero!(Bgez),
        "beq" => b_compare!(Beq),
        "bne" => b_compare!(Bne),
        "blez" => b_zero!(Blez),
        "bgtz" => b_zero!(Bgtz),
        "b" => {
            n(1)?;
            let zero = Reg::new(0).unwrap();
            Ok(MInsn::Beq { rs: zero, rt: zero, offset: parse_target(ops[0], addr)? })
        }
        "j" => {
            n(1)?;
            Ok(MInsn::J { offset: parse_target(ops[0], addr)? })
        }
        "jal" => {
            n(1)?;
            Ok(MInsn::Jal { offset: parse_target(ops[0], addr)? })
        }

        "li" => {
            n(2)?;
            Ok(MInsn::Addiu {
                rt: parse_reg(ops[0])?,
                rs: Reg::new(0).unwrap(),
                imm: parse_i16(ops[1])?,
            })
        }
        "addiu" => i_signed!(Addiu),
        "slti" => i_signed!(Slti),
        "sltiu" => i_signed!(Sltiu),
        "andi" => i_unsigned!(Andi),
        "ori" => i_unsigned!(Ori),
        "xori" => i_unsigned!(Xori),
        "lui" => {
            n(2)?;
            Ok(MInsn::Lui { rt: parse_reg(ops[0])?, imm: parse_u16(ops[1])? })
        }

        "lb" => mem_op!(Lb),
        "lh" => mem_op!(Lh),
        "lw" => mem_op!(Lw),
        "lbu" => mem_op!(Lbu),
        "lhu" => mem_op!(Lhu),
        "sb" => mem_op!(Sb),
        "sh" => mem_op!(Sh),
        "sw" => mem_op!(Sw),

        ".word" => {
            n(1)?;
            let w = parse_int(ops[0])?;
            Ok(MInsn::Illegal(w as u32))
        }
        other => err(format!("unknown mnemonic `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;
    use crate::encode;
    use crate::reg::*;

    #[test]
    fn parses_common_lines() {
        assert_eq!(
            parse_insn("lw $8,16($29)", 0).unwrap(),
            MInsn::Lw { rt: T0, base: SP, offset: 16 }
        );
        assert_eq!(parse_insn("addu $2,$4,$5", 0).unwrap(), MInsn::Addu { rd: V0, rs: A0, rt: A1 });
        assert_eq!(
            parse_insn("beq $8,$9,00040018", 0x0004_0000).unwrap(),
            MInsn::Beq { rs: T0, rt: T1, offset: 0x18 }
        );
        assert_eq!(parse_insn("jal 000000f8", 0x100).unwrap(), MInsn::Jal { offset: -8 });
        assert_eq!(parse_insn("jr $31", 0).unwrap(), MInsn::Jr { rs: RA });
    }

    #[test]
    fn idioms_parse() {
        assert_eq!(parse_insn("nop", 0).unwrap(), MInsn::Sll { rd: ZERO, rt: ZERO, sa: 0 });
        assert_eq!(parse_insn("li $2,7", 0).unwrap(), MInsn::Addiu { rt: V0, rs: ZERO, imm: 7 });
        assert_eq!(parse_insn("move $4,$2", 0).unwrap(), MInsn::Addu { rd: A0, rs: V0, rt: ZERO });
        assert_eq!(
            parse_insn("b 00000108", 0x100).unwrap(),
            MInsn::Beq { rs: ZERO, rt: ZERO, offset: 8 }
        );
        assert_eq!(parse_insn("jalr $25", 0).unwrap(), MInsn::Jalr { rd: RA, rs: T9 });
        assert_eq!(parse_insn(".word 0x12345678", 0).unwrap(), MInsn::Illegal(0x1234_5678));
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_insn("frobnicate $1,$2", 0).is_err());
        assert!(parse_insn("addiu $8,$9", 0).is_err());
        assert!(parse_insn("lw $8,8[$29]", 0).is_err());
        assert!(parse_insn("addiu $99,$0,1", 0).is_err());
        assert!(parse_insn("addiu $8,$0,99999", 0).is_err());
        assert!(parse_insn("sll $8,$9,32", 0).is_err());
    }

    /// Full-circle: a deterministic spread of legal encodings survives
    /// disassemble → parse → encode.
    #[test]
    fn text_roundtrip_over_generated_code() {
        let mut words: Vec<u32> = Vec::new();
        for i in 0..6000u32 {
            let op = [0u32, 1, 2, 3, 4, 5, 6, 7, 9, 0xa, 0xc, 0xd, 0xf, 0x20, 0x23, 0x28, 0x2b]
                [(i % 17) as usize];
            let w = (op << 26) | (i.wrapping_mul(0x9e37_79b9) & 0x03ff_ffff);
            words.push(w);
        }
        let mut checked = 0;
        for (idx, &w) in words.iter().enumerate() {
            let insn = crate::decode(w);
            if matches!(insn, MInsn::Illegal(_)) {
                continue;
            }
            let addr = (idx as u32) * 4;
            let text = disassemble(w, addr);
            let parsed =
                parse_insn(&text, addr).unwrap_or_else(|e| panic!("`{text}` ({w:#010x}): {e}"));
            assert_eq!(encode(&parsed), w, "`{text}`");
            checked += 1;
        }
        assert!(checked > 2000, "only {checked} words exercised");
    }
}
