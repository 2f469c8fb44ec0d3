//! The PowerPC template table: GCC SVR4 instruction selection for the
//! lowering walk ([`crate::lower`]).

use codense_isa::{AsmError, IsaId};
use codense_ppc::asm::Assembler;
use codense_ppc::insn::{bo, Insn};
use codense_ppc::reg::{CrField, Gpr, CR0, R0, R1, R10, R11, R12, R3, R4, R5, R6, R8, R9};
use codense_ppc::reg::{R26, R27, R28, R29, R30, R31};
use codense_ppc::Spr;

use crate::ir::{BinOp, CmpOp, Cond, Expr, UnOp, Width};
use crate::lower::{Templates, Walk, TABLE_HI};

/// PowerPC templates over the PowerPC assembler.
#[derive(Default)]
pub(crate) struct Ppc {
    asm: Assembler,
}

impl Templates for Ppc {
    type Reg = Gpr;
    const ISA: IsaId = IsaId::Ppc;
    const SCRATCH: [Gpr; 5] = [R9, R11, R12, R10, R8];
    const REG_POOL: [Gpr; 6] = [R31, R30, R29, R28, R27, R26];
    const ARGS: [Gpr; 4] = [R3, R4, R5, R6];
    const RET: Gpr = R3;
    const SP: Gpr = R1;
    /// The link register is saved at `N+4(r1)`, in the caller's frame.
    const LINK_SLOT: i16 = 0;
    /// `r0` carries the link register in prologues and epilogues; the
    /// switch template loads the jump-table entry into `r11`.
    const CODE_ADDR_REGS: &'static [u8] = &[0, 11];

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
        self.asm.b(label);
    }

    fn call(&mut self, label: &str) {
        self.asm.bl(label);
    }

    fn halt(&mut self) {
        self.asm.emit(Insn::Sc);
    }

    fn prologue(&mut self, frame: i16, leaf: bool, saved: usize) {
        self.asm.emit(Insn::Stwu { rs: R1, ra: R1, d: -frame });
        if !leaf {
            self.asm.emit(Insn::Mfspr { rt: R0, spr: Spr::Lr });
            self.asm.emit(Insn::Stw { rs: R0, ra: R1, d: frame + 4 });
        }
        if saved > 0 {
            // `stmw` saves the pool's last `saved` registers through r31.
            let rs = Self::REG_POOL[saved - 1];
            self.asm.emit(Insn::Stmw { rs, ra: R1, d: frame - 4 * saved as i16 });
        }
    }

    fn epilogue(&mut self, frame: i16, leaf: bool, saved: usize) {
        if saved > 0 {
            let rt = Self::REG_POOL[saved - 1];
            self.asm.emit(Insn::Lmw { rt, ra: R1, d: frame - 4 * saved as i16 });
        }
        if !leaf {
            self.asm.emit(Insn::Lwz { rt: R0, ra: R1, d: frame + 4 });
            self.asm.emit(Insn::Mtspr { spr: Spr::Lr, rs: R0 });
        }
        self.asm.emit(Insn::Addi { rt: R1, ra: R1, si: frame });
        self.asm.blr();
    }

    fn mov(&mut self, d: Gpr, s: Gpr) {
        self.asm.emit(Insn::Or { ra: d, rs: s, rb: s, rc: false });
    }

    fn li(&mut self, d: Gpr, c: i16) {
        self.asm.emit(Insn::Addi { rt: d, ra: R0, si: c });
    }

    fn lui(&mut self, d: Gpr, hi: u16) {
        self.asm.emit(Insn::Addis { rt: d, ra: R0, si: hi as i16 });
    }

    fn load(&mut self, w: Width, d: Gpr, base: Gpr, off: i16) {
        self.asm.emit(match w {
            Width::Byte => Insn::Lbz { rt: d, ra: base, d: off },
            Width::Half => Insn::Lhz { rt: d, ra: base, d: off },
            Width::Word => Insn::Lwz { rt: d, ra: base, d: off },
        });
    }

    fn store(&mut self, w: Width, v: Gpr, base: Gpr, off: i16) {
        self.asm.emit(match w {
            Width::Byte => Insn::Stb { rs: v, ra: base, d: off },
            Width::Half => Insn::Sth { rs: v, ra: base, d: off },
            Width::Word => Insn::Stw { rs: v, ra: base, d: off },
        });
    }

    fn zero_extend(&mut self, w: Width, d: Gpr, s: Gpr) {
        let mb = if w == Width::Byte { 24 } else { 16 };
        self.asm.emit(Insn::Rlwinm { ra: d, rs: s, sh: 0, mb, me: 31, rc: false });
    }

    fn load_indexed(&mut self, w: Width, d: Gpr, b: Gpr, i: Gpr) {
        self.asm.emit(match w {
            Width::Byte => Insn::Lbzx { rt: d, ra: b, rb: i },
            Width::Half => Insn::Lhzx { rt: d, ra: b, rb: i },
            Width::Word => Insn::Lwzx { rt: d, ra: b, rb: i },
        });
    }

    fn unary(&mut self, op: UnOp, d: Gpr, s: Gpr) {
        self.asm.emit(match op {
            UnOp::Neg => Insn::Neg { rt: d, ra: s, rc: false },
            UnOp::Not => Insn::Nor { ra: d, rs: s, rb: s, rc: false },
            UnOp::ExtByte => Insn::Extsb { ra: d, rs: s, rc: false },
            UnOp::MaskByte => Insn::Rlwinm { ra: d, rs: s, sh: 0, mb: 24, me: 31, rc: false },
        });
    }

    /// `addi`, `mulli`, `andi.`, `ori` and `xori`.
    fn has_imm_form(op: BinOp) -> bool {
        matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor)
    }

    fn bin_imm(&mut self, op: BinOp, d: Gpr, s: Gpr, c: i16) {
        self.asm.emit(match op {
            BinOp::Add => Insn::Addi { rt: d, ra: s, si: c },
            BinOp::Sub => Insn::Addi { rt: d, ra: s, si: c.wrapping_neg() },
            BinOp::Mul => Insn::Mulli { rt: d, ra: s, si: c },
            BinOp::And => Insn::AndiRc { ra: d, rs: s, ui: c as u16 },
            BinOp::Or => Insn::Ori { ra: d, rs: s, ui: c as u16 },
            BinOp::Xor => Insn::Xori { ra: d, rs: s, ui: c as u16 },
            _ => unreachable!("{op:?} has no immediate form"),
        });
    }

    fn shift(&mut self, op: BinOp, d: Gpr, s: Gpr) {
        self.asm.emit(match op {
            BinOp::Shl(c) => Insn::Rlwinm { ra: d, rs: s, sh: c, mb: 0, me: 31 - c, rc: false },
            BinOp::Shr(c) => Insn::Rlwinm { ra: d, rs: s, sh: 32 - c, mb: c, me: 31, rc: false },
            BinOp::Sar(c) => Insn::Srawi { ra: d, rs: s, sh: c, rc: false },
            _ => unreachable!("{op:?} is not a shift"),
        });
    }

    fn bin(&mut self, op: BinOp, d: Gpr, a: Gpr, b: Gpr) {
        self.asm.emit(match op {
            BinOp::Add => Insn::Add { rt: d, ra: a, rb: b, rc: false },
            BinOp::Sub => Insn::Subf { rt: d, ra: b, rb: a, rc: false },
            BinOp::Mul => Insn::Mullw { rt: d, ra: a, rb: b, rc: false },
            BinOp::Div => Insn::Divw { rt: d, ra: a, rb: b, rc: false },
            BinOp::And => Insn::And { ra: d, rs: a, rb: b, rc: false },
            BinOp::Or => Insn::Or { ra: d, rs: a, rb: b, rc: false },
            BinOp::Xor => Insn::Xor { ra: d, rs: a, rb: b, rc: false },
            BinOp::Shl(_) | BinOp::Shr(_) | BinOp::Sar(_) => unreachable!("shifts use `shift`"),
        });
    }

    /// The indexed store forms (`stbx`, `sthx`, `stwx`) need no scratch.
    fn store_indexed(w: &mut Walk<Ppc>, width: Width, v: Gpr, b: (Gpr, u8), i: (Gpr, u8)) {
        let (b, i) = (b.0, i.0);
        w.t.asm.emit(match width {
            Width::Byte => Insn::Stbx { rs: v, ra: b, rb: i },
            Width::Half => Insn::Sthx { rs: v, ra: b, rb: i },
            Width::Word => Insn::Stwx { rs: v, ra: b, rb: i },
        });
    }

    /// `cmplwi; bgt` bounds check, then the scaled index in `s`'s scratch
    /// (or a fresh one) and the table address in the next, through `ctr`.
    fn dispatch(w: &mut Walk<Ppc>, s: Gpr, owned: u8, cases: usize, table_off: i16, l_end: &str) {
        w.t.asm.emit(Insn::Cmplwi { bf: CR0, ra: s, ui: cases as u16 - 1 });
        w.t.asm.bgt(CR0, l_end);
        let d = if owned > 0 { s } else { w.alloc() };
        w.t.asm.emit(Insn::Rlwinm { ra: d, rs: s, sh: 2, mb: 0, me: 29, rc: false });
        let a = w.alloc();
        w.t.lui(a, TABLE_HI);
        w.t.asm.emit(Insn::Addi { rt: a, ra: a, si: table_off });
        w.t.asm.emit(Insn::Lwzx { rt: a, ra: a, rb: d });
        w.t.asm.emit(Insn::Mtspr { spr: Spr::Ctr, rs: a });
        w.t.asm.emit(Insn::Bcctr { bo: bo::ALWAYS, bi: 0, lk: false });
        w.free(1 + u8::from(owned == 0));
    }

    /// A compare into the condition's CR field (immediate form when the
    /// right operand is a constant), then `bc` on one bit of it.
    fn cond_branch(w: &mut Walk<Ppc>, cond: &Cond, a: (Gpr, u8), sense: bool, label: &str) {
        let (a, _) = a;
        let crf = CrField::new(cond.crf.min(7)).expect("CR field clamped to 0..=7");
        if let Expr::Const(c) = cond.rhs {
            w.t.asm.emit(if cond.unsigned {
                Insn::Cmplwi { bf: crf, ra: a, ui: c as u16 }
            } else {
                Insn::Cmpwi { bf: crf, ra: a, si: c }
            });
        } else {
            let (b, b_owned) = w.eval(&cond.rhs);
            w.t.asm.emit(if cond.unsigned {
                Insn::Cmplw { bf: crf, ra: a, rb: b }
            } else {
                Insn::Cmpw { bf: crf, ra: a, rb: b }
            });
            w.free(b_owned);
        }
        // The CR bit each comparison tests, and whether it is true when set.
        let (bit, when_set) = match cond.op {
            CmpOp::Eq => (crf.eq_bit(), true),
            CmpOp::Ne => (crf.eq_bit(), false),
            CmpOp::Lt => (crf.lt_bit(), true),
            CmpOp::Ge => (crf.lt_bit(), false),
            CmpOp::Gt => (crf.gt_bit(), true),
            CmpOp::Le => (crf.gt_bit(), false),
        };
        let bo_field = if when_set == sense { bo::IF_TRUE } else { bo::IF_FALSE };
        w.t.asm.bc(bo_field, bit, label);
    }
}
