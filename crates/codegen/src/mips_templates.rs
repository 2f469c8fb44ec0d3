//! The MIPS template table: GCC O32 instruction selection for the lowering
//! walk ([`crate::lower`]). MIPS has no indexed memory forms, no
//! multiply-immediate and no condition register, so indexed accesses sum
//! their address first and compares materialize a boolean.

use codense_isa::{AsmError, IsaId};
use codense_mips::asm::Assembler;
use codense_mips::insn::MInsn;
use codense_mips::reg::{Reg, A0, A1, A2, A3, RA, S0, S1, S2, S3, S4, S5, SP, V0, ZERO};
use codense_mips::reg::{T0, T1, T2, T3, T4};

use crate::ir::{BinOp, CmpOp, Cond, Expr, UnOp, Width};
use crate::lower::{Templates, Walk, TABLE_HI};

/// MIPS templates over the MIPS assembler.
#[derive(Default)]
pub(crate) struct Mips {
    asm: Assembler,
}

impl Templates for Mips {
    type Reg = Reg;
    const ISA: IsaId = IsaId::Mips;
    const SCRATCH: [Reg; 5] = [T0, T1, T2, T3, T4];
    const REG_POOL: [Reg; 6] = [S0, S1, S2, S3, S4, S5];
    const ARGS: [Reg; 4] = [A0, A1, A2, A3];
    const RET: Reg = V0;
    const SP: Reg = SP;
    /// `$ra` is saved at the top of the callee's frame; the slot is
    /// reserved in leaf frames too, so save-area offsets are uniform.
    const LINK_SLOT: i16 = 4;
    /// `$ra` holds `jal` link values; the switch template loads the
    /// jump-table entry into `$t0` or `$t1`, depending on whether the
    /// scrutinee owns a scratch register.
    const CODE_ADDR_REGS: &'static [u8] = &[8, 9, 31];

    fn here(&self) -> usize {
        self.asm.here()
    }

    fn label(&mut self, name: &str) {
        self.asm.label(name);
    }

    fn label_pos(&self, name: &str) -> Option<usize> {
        self.asm.label_pos(name)
    }

    fn finish(self) -> Result<Vec<u32>, AsmError> {
        self.asm.finish()
    }

    fn jump(&mut self, label: &str) {
        self.asm.j(label);
    }

    fn call(&mut self, label: &str) {
        self.asm.jal(label);
    }

    fn halt(&mut self) {
        self.asm.emit(MInsn::Syscall);
    }

    /// One `sw` per saved register (MIPS has no `stmw`), below the `$ra`
    /// slot.
    fn prologue(&mut self, frame: i16, leaf: bool, saved: usize) {
        self.asm.emit(MInsn::Addiu { rt: SP, rs: SP, imm: -frame });
        if !leaf {
            self.asm.emit(MInsn::Sw { rt: RA, base: SP, offset: frame - 4 });
        }
        for (k, &rt) in Self::REG_POOL[..saved].iter().enumerate() {
            self.asm.emit(MInsn::Sw { rt, base: SP, offset: frame - 8 - 4 * k as i16 });
        }
    }

    fn epilogue(&mut self, frame: i16, leaf: bool, saved: usize) {
        for (k, &rt) in Self::REG_POOL[..saved].iter().enumerate() {
            self.asm.emit(MInsn::Lw { rt, base: SP, offset: frame - 8 - 4 * k as i16 });
        }
        if !leaf {
            self.asm.emit(MInsn::Lw { rt: RA, base: SP, offset: frame - 4 });
        }
        self.asm.emit(MInsn::Addiu { rt: SP, rs: SP, imm: frame });
        self.asm.ret();
    }

    fn mov(&mut self, d: Reg, s: Reg) {
        self.asm.emit(MInsn::Addu { rd: d, rs: s, rt: ZERO });
    }

    fn li(&mut self, d: Reg, c: i16) {
        self.asm.emit(MInsn::Addiu { rt: d, rs: ZERO, imm: c });
    }

    fn lui(&mut self, d: Reg, hi: u16) {
        self.asm.emit(MInsn::Lui { rt: d, imm: hi });
    }

    fn load(&mut self, w: Width, d: Reg, base: Reg, off: i16) {
        self.asm.emit(match w {
            Width::Byte => MInsn::Lbu { rt: d, base, offset: off },
            Width::Half => MInsn::Lhu { rt: d, base, offset: off },
            Width::Word => MInsn::Lw { rt: d, base, offset: off },
        });
    }

    fn store(&mut self, w: Width, v: Reg, base: Reg, off: i16) {
        self.asm.emit(match w {
            Width::Byte => MInsn::Sb { rt: v, base, offset: off },
            Width::Half => MInsn::Sh { rt: v, base, offset: off },
            Width::Word => MInsn::Sw { rt: v, base, offset: off },
        });
    }

    fn zero_extend(&mut self, w: Width, d: Reg, s: Reg) {
        let imm = if w == Width::Byte { 0x00ff } else { 0xffff };
        self.asm.emit(MInsn::Andi { rt: d, rs: s, imm });
    }

    fn load_indexed(&mut self, w: Width, d: Reg, b: Reg, i: Reg) {
        self.asm.emit(MInsn::Addu { rd: d, rs: b, rt: i });
        self.load(w, d, d, 0);
    }

    fn unary(&mut self, op: UnOp, d: Reg, s: Reg) {
        match op {
            UnOp::Neg => self.asm.emit(MInsn::Subu { rd: d, rs: ZERO, rt: s }),
            UnOp::Not => self.asm.emit(MInsn::Nor { rd: d, rs: s, rt: s }),
            // Sign-extend a byte: shift-pair template.
            UnOp::ExtByte => {
                self.asm.emit(MInsn::Sll { rd: d, rt: s, sa: 24 });
                self.asm.emit(MInsn::Sra { rd: d, rt: d, sa: 24 })
            }
            UnOp::MaskByte => self.asm.emit(MInsn::Andi { rt: d, rs: s, imm: 0x00ff }),
        };
    }

    /// `addiu`, `andi`, `ori` and `xori`; a constant multiplier is
    /// materialized first.
    fn has_imm_form(op: BinOp) -> bool {
        matches!(op, BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor)
    }

    fn bin_imm(&mut self, op: BinOp, d: Reg, s: Reg, c: i16) {
        self.asm.emit(match op {
            BinOp::Add => MInsn::Addiu { rt: d, rs: s, imm: c },
            BinOp::Sub => MInsn::Addiu { rt: d, rs: s, imm: c.wrapping_neg() },
            BinOp::And => MInsn::Andi { rt: d, rs: s, imm: c as u16 },
            BinOp::Or => MInsn::Ori { rt: d, rs: s, imm: c as u16 },
            BinOp::Xor => MInsn::Xori { rt: d, rs: s, imm: c as u16 },
            _ => unreachable!("{op:?} has no immediate form"),
        });
    }

    fn shift(&mut self, op: BinOp, d: Reg, s: Reg) {
        self.asm.emit(match op {
            BinOp::Shl(sa) => MInsn::Sll { rd: d, rt: s, sa },
            BinOp::Shr(sa) => MInsn::Srl { rd: d, rt: s, sa },
            BinOp::Sar(sa) => MInsn::Sra { rd: d, rt: s, sa },
            _ => unreachable!("{op:?} is not a shift"),
        });
    }

    fn bin(&mut self, op: BinOp, d: Reg, a: Reg, b: Reg) {
        self.asm.emit(match op {
            BinOp::Add => MInsn::Addu { rd: d, rs: a, rt: b },
            BinOp::Sub => MInsn::Subu { rd: d, rs: a, rt: b },
            BinOp::Mul => MInsn::Mul { rd: d, rs: a, rt: b },
            BinOp::Div => MInsn::Div { rd: d, rs: a, rt: b },
            BinOp::And => MInsn::And { rd: d, rs: a, rt: b },
            BinOp::Or => MInsn::Or { rd: d, rs: a, rt: b },
            BinOp::Xor => MInsn::Xor { rd: d, rs: a, rt: b },
            BinOp::Shl(_) | BinOp::Shr(_) | BinOp::Sar(_) => unreachable!("shifts use `shift`"),
        });
    }

    /// Sums the address into a scratch, reusing the index's or the base's
    /// if one is owned (`addu` reads both sources before writing).
    fn store_indexed(w: &mut Walk<Mips>, width: Width, v: Reg, b: (Reg, u8), i: (Reg, u8)) {
        let (addr, extra) = if i.1 > 0 {
            (i.0, 0)
        } else if b.1 > 0 {
            (b.0, 0)
        } else {
            (w.alloc(), 1)
        };
        w.t.asm.emit(MInsn::Addu { rd: addr, rs: b.0, rt: i.0 });
        w.t.store(width, v, addr, 0);
        w.free(extra);
    }

    /// `sltiu; beq` bounds check through a fresh scratch that then carries
    /// the scaled index; the table address goes into `s`'s scratch (or the
    /// next) and is jumped through with `jr`.
    fn dispatch(w: &mut Walk<Mips>, s: Reg, owned: u8, cases: usize, table_off: i16, l_end: &str) {
        let t = w.alloc();
        w.t.asm.emit(MInsn::Sltiu { rt: t, rs: s, imm: cases as i16 });
        w.t.asm.beq(t, ZERO, l_end);
        w.t.asm.emit(MInsn::Sll { rd: t, rt: s, sa: 2 });
        let a = if owned > 0 { s } else { w.alloc() };
        w.t.lui(a, TABLE_HI);
        w.t.asm.emit(MInsn::Addiu { rt: a, rs: a, imm: table_off });
        w.t.asm.emit(MInsn::Addu { rd: a, rs: a, rt: t });
        w.t.asm.emit(MInsn::Lw { rt: a, base: a, offset: 0 });
        w.t.asm.emit(MInsn::Jr { rs: a });
        w.free(1 + u8::from(owned == 0));
    }

    /// Equality branches directly on the operands (`beq`/`bne`, against
    /// `$0` for a zero constant). Ordered tests materialize `x < y` with the
    /// `slt` family (operands swapped for `>` and `<=`) into a scratch,
    /// then branch on it against `$0`.
    fn cond_branch(w: &mut Walk<Mips>, cond: &Cond, a: (Reg, u8), sense: bool, label: &str) {
        let (a, a_owned) = a;
        // Normalize to Eq / Ne / Lt / Ge, plus an operand swap.
        let (op, swap) = match cond.op {
            CmpOp::Gt => (CmpOp::Lt, true),
            CmpOp::Le => (CmpOp::Ge, true),
            op => (op, false),
        };
        if matches!(op, CmpOp::Eq | CmpOp::Ne) {
            // Nonzero constants are materialized by `eval`'s Const arm.
            let b = if matches!(cond.rhs, Expr::Const(0)) {
                ZERO
            } else {
                let (b, b_owned) = w.eval(&cond.rhs);
                w.free(b_owned);
                b
            };
            if (op == CmpOp::Eq) == sense {
                w.t.asm.beq(a, b, label);
            } else {
                w.t.asm.bne(a, b, label);
            }
            return;
        }
        let t = match cond.rhs {
            Expr::Const(c) if !swap => {
                let t = if a_owned > 0 { a } else { w.alloc() };
                w.t.asm.emit(if cond.unsigned {
                    MInsn::Sltiu { rt: t, rs: a, imm: c }
                } else {
                    MInsn::Slti { rt: t, rs: a, imm: c }
                });
                w.free(u8::from(a_owned == 0));
                t
            }
            _ => {
                let (b, b_owned) = w.eval(&cond.rhs);
                let (x, y) = if swap { (b, a) } else { (a, b) };
                let t = if a_owned > 0 {
                    a
                } else if b_owned > 0 {
                    b
                } else {
                    w.alloc()
                };
                w.t.asm.emit(if cond.unsigned {
                    MInsn::Sltu { rd: t, rs: x, rt: y }
                } else {
                    MInsn::Slt { rd: t, rs: x, rt: y }
                });
                w.free(b_owned + u8::from(a_owned + b_owned == 0));
                t
            }
        };
        // t = (x < y): Lt branches on t != 0, Ge on t == 0.
        if (op == CmpOp::Lt) == sense {
            w.t.asm.bne(t, ZERO, label);
        } else {
            w.t.asm.beq(t, ZERO, label);
        }
    }
}
