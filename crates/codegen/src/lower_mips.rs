//! SDTS lowering: IR → MIPS object code through fixed instruction
//! templates.
//!
//! The MIPS twin of [`crate::lower`]: every IR construct expands to one
//! fixed instruction pattern parameterized only by register numbers, frame
//! offsets and immediates, so the generated code has the same
//! template-redundancy property (§1.1 of the paper) under a different
//! instruction encoding. Conventions follow GCC's O32 output: `$sp` stack
//! pointer, args in `$4..$7`, return value in `$2`, scratch temporaries
//! drawn from `$t0..$t4`, register locals in `$s0..$s5`, word-by-word
//! `sw`/`lw` save sequences (MIPS has no `stmw`), and `$ra` saved at the
//! top of the frame.
//!
//! The *policy* layer — which locals get registers, what counts as a leaf,
//! the standardized-prologue knob — is shared with the PowerPC lowering, so
//! one IR program produces structurally parallel modules on both ISAs.

use codense_mips::asm::{AsmError, Assembler};
use codense_mips::insn::MInsn;
use codense_mips::reg::{Reg, RA, SP, V0, ZERO};
use codense_obj::{FunctionInfo, JumpTable, ObjectModule};

use crate::ir::{BinOp, CmpOp, Cond, Expr, Function, Program, Stmt, UnOp, Width};
use crate::lower::{function_is_leaf, reg_locals_for, LowerOptions};

/// Scratch registers used by expression evaluation, in allocation order
/// (`$t0..$t4`).
const SCRATCH: [u8; 5] = [8, 9, 10, 11, 12];

/// Callee-saved registers assignable to locals, in allocation order
/// (`$s0..$s5`).
const REG_POOL: [u8; 6] = [16, 17, 18, 19, 20, 21];

/// Synthetic high halves of the `.data` addresses used by global accesses
/// and jump tables — the same synthetic address space as the PowerPC
/// lowering, so the data-side layout contract is ISA-independent.
const GLOBAL_HI: u16 = 0x0040;
const TABLE_HI: u16 = 0x0050;

/// Where a local variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// In a callee-saved register.
    Reg(Reg),
    /// In the stack frame at the given offset from `$sp`.
    Frame(i16),
}

/// Lowers a whole [`Program`] to a MIPS [`ObjectModule`].
///
/// # Errors
///
/// Returns an [`AsmError`] if a branch displacement overflows (which only
/// happens for absurdly large generated functions).
///
/// # Panics
///
/// Panics if the IR violates the lowering contract: expression depth beyond
/// the scratch pool, calls nested inside live expressions, or references to
/// out-of-range locals/functions.
pub fn lower_program_mips(program: &Program) -> Result<ObjectModule, AsmError> {
    lower_program_mips_with(program, LowerOptions::default())
}

/// Like [`lower_program_mips`], with explicit policy knobs.
///
/// # Errors
///
/// Returns an [`AsmError`] if a branch displacement overflows.
pub fn lower_program_mips_with(
    program: &Program,
    options: LowerOptions,
) -> Result<ObjectModule, AsmError> {
    let mut lw = Lowerer {
        asm: Assembler::new(),
        label_counter: 0,
        functions: Vec::with_capacity(program.functions.len()),
        tables: Vec::new(),
        options,
    };
    if options.entry_stub {
        lw.emit_entry_stub();
    }
    for (i, func) in program.functions.iter().enumerate() {
        lw.lower_function(i, func);
    }
    let tables: Vec<JumpTable> = lw
        .tables
        .iter()
        .map(|labels| JumpTable {
            targets: labels
                .iter()
                .map(|l| lw.asm.label_pos(l).expect("case label emitted"))
                .collect(),
        })
        .collect();
    let mut module = ObjectModule::new(program.name.clone(), codense_isa::IsaId::Mips);
    module.functions = lw.functions;
    module.jump_tables = tables;
    module.code = lw.asm.finish()?;
    Ok(module)
}

struct Lowerer {
    asm: Assembler,
    label_counter: usize,
    functions: Vec<FunctionInfo>,
    /// Pending jump tables as vectors of case-label names.
    tables: Vec<Vec<String>>,
    options: LowerOptions,
}

/// Per-function lowering context.
struct FnCtx {
    places: Vec<Place>,
    epilogue: String,
    /// Scratch registers currently holding live values.
    live: u8,
    leaf: bool,
}

impl Lowerer {
    fn fresh(&mut self, stem: &str) -> String {
        self.label_counter += 1;
        format!("{stem}{}", self.label_counter)
    }

    /// The runnable-module entry stub: call the root function, then halt
    /// with its return value (already in `$v0`, the exit register) as the
    /// exit code. Mirrors the PowerPC stub.
    fn emit_entry_stub(&mut self) {
        let start = self.asm.here();
        self.asm.jal("F0");
        self.asm.emit(MInsn::Syscall);
        let end = self.asm.here();
        self.functions.push(FunctionInfo {
            name: "__start".to_string(),
            start,
            end,
            prologue_len: 0,
            epilogues: Vec::new(),
        });
    }

    fn lower_function(&mut self, index: usize, func: &Function) {
        let std_pe = self.options.standardize_prologues;
        // Same policy layer as the PowerPC lowering: standardized prologues
        // save `$ra` and the full pool into one fixed-size frame.
        let leaf = function_is_leaf(func) && !std_pe;
        let nreg = (func.locals as usize).min(REG_POOL.len()).min(reg_locals_for(func));
        let nstack = func.locals as usize - nreg;

        // Frame layout (offsets from `$sp`):
        //   [0..8 reserved][8 + 4i: stack local i][save area][$ra @ frame-4]
        // The `$ra` slot is always reserved so save-area offsets are uniform
        // across leaf and non-leaf functions.
        let save_n = if std_pe { REG_POOL.len() } else { nreg };
        let raw = 8 + 4 * nstack as i16 + 4 * save_n as i16 + 4;
        let frame = if std_pe { 112 } else { (raw + 15) & !15 };
        debug_assert!(raw <= frame, "fixed frame too small for locals");

        let places: Vec<Place> = (0..func.locals as usize)
            .map(|i| {
                if i < nreg {
                    Place::Reg(Reg::new(REG_POOL[i]).unwrap())
                } else {
                    Place::Frame(8 + 4 * (i - nreg) as i16)
                }
            })
            .collect();

        let start = self.asm.here();
        self.asm.label(&format!("F{index}"));

        // --- prologue template ------------------------------------------
        self.asm.emit(MInsn::Addiu { rt: SP, rs: SP, imm: -frame });
        if !leaf {
            self.asm.emit(MInsn::Sw { rt: RA, base: SP, offset: frame - 4 });
        }
        for (k, &r) in REG_POOL.iter().enumerate().take(save_n) {
            let rs = Reg::new(r).unwrap();
            self.asm.emit(MInsn::Sw { rt: rs, base: SP, offset: frame - 8 - 4 * k as i16 });
        }
        // Home incoming parameters.
        for p in 0..func.params.min(4) {
            let arg = Reg::new(4 + p as u8).unwrap();
            match places[p as usize] {
                Place::Reg(r) => {
                    self.asm.emit(MInsn::Addu { rd: r, rs: arg, rt: ZERO });
                }
                Place::Frame(off) => {
                    self.asm.emit(MInsn::Sw { rt: arg, base: SP, offset: off });
                }
            }
        }
        let prologue_len = self.asm.here() - start;

        let mut ctx = FnCtx { places, epilogue: self.fresh("E"), live: 0, leaf };

        for stmt in &func.body {
            self.stmt(&mut ctx, stmt);
        }

        // --- epilogue template ------------------------------------------
        let epi_start = self.asm.here();
        let epilogue = ctx.epilogue.clone();
        self.asm.label(&epilogue);
        for (k, &r) in REG_POOL.iter().enumerate().take(save_n) {
            let rt = Reg::new(r).unwrap();
            self.asm.emit(MInsn::Lw { rt, base: SP, offset: frame - 8 - 4 * k as i16 });
        }
        if !leaf {
            self.asm.emit(MInsn::Lw { rt: RA, base: SP, offset: frame - 4 });
        }
        self.asm.emit(MInsn::Addiu { rt: SP, rs: SP, imm: frame });
        self.asm.ret();
        let end = self.asm.here();

        self.functions.push(FunctionInfo {
            name: func.name.clone(),
            start,
            end,
            prologue_len,
            epilogues: std::iter::once(epi_start..end).collect(),
        });
    }

    // ---- expressions ----------------------------------------------------

    /// Allocates the next scratch register.
    fn alloc(&mut self, ctx: &mut FnCtx) -> Reg {
        assert!((ctx.live as usize) < SCRATCH.len(), "expression too deep for scratch pool");
        let r = Reg::new(SCRATCH[ctx.live as usize]).unwrap();
        ctx.live += 1;
        r
    }

    fn free(&mut self, ctx: &mut FnCtx, n: u8) {
        ctx.live -= n;
    }

    /// Evaluates `e`, returning the register holding the result. Register
    /// locals are returned in place (no copy); all other results occupy a
    /// newly allocated scratch register.
    fn eval(&mut self, ctx: &mut FnCtx, e: &Expr) -> (Reg, u8) {
        match e {
            Expr::Local(l, Width::Word) => {
                if let Place::Reg(r) = ctx.places[l.0 as usize] {
                    return (r, 0);
                }
                let d = self.alloc(ctx);
                let off = frame_off(ctx, *l);
                self.asm.emit(MInsn::Lw { rt: d, base: SP, offset: off });
                (d, 1)
            }
            Expr::Local(l, w) => {
                let d = self.alloc(ctx);
                match ctx.places[l.0 as usize] {
                    Place::Reg(r) => {
                        // Sub-word read of a register local: mask template.
                        let imm = if *w == Width::Byte { 0x00ff } else { 0xffff };
                        self.asm.emit(MInsn::Andi { rt: d, rs: r, imm });
                    }
                    Place::Frame(off) => {
                        match w {
                            Width::Byte => {
                                self.asm.emit(MInsn::Lbu { rt: d, base: SP, offset: off })
                            }
                            Width::Half => {
                                self.asm.emit(MInsn::Lhu { rt: d, base: SP, offset: off })
                            }
                            Width::Word => unreachable!(),
                        };
                    }
                }
                (d, 1)
            }
            Expr::Const(c) => {
                let d = self.alloc(ctx);
                self.asm.emit(MInsn::Addiu { rt: d, rs: ZERO, imm: *c });
                (d, 1)
            }
            Expr::ConstWide(c) => {
                let d = self.alloc(ctx);
                self.asm.emit(MInsn::Lui { rt: d, imm: (*c >> 16) as u16 });
                self.asm.emit(MInsn::Ori { rt: d, rs: d, imm: *c as u16 });
                (d, 1)
            }
            Expr::Global(g, w) => {
                let d = self.alloc(ctx);
                self.asm.emit(MInsn::Lui { rt: d, imm: GLOBAL_HI });
                let off = 4 * g.0 as i16;
                match w {
                    Width::Byte => self.asm.emit(MInsn::Lbu { rt: d, base: d, offset: off }),
                    Width::Half => self.asm.emit(MInsn::Lhu { rt: d, base: d, offset: off }),
                    Width::Word => self.asm.emit(MInsn::Lw { rt: d, base: d, offset: off }),
                };
                (d, 1)
            }
            Expr::Index { base, index, width } => {
                let (b, b_owned) = self.base_reg(ctx, *base);
                let (i0, i_owned0) = self.eval(ctx, index);
                let (i, i_owned) = self.scale_index(ctx, i0, i_owned0, *width);
                // Reuse the earliest owned scratch as the destination so the
                // allocation stack stays LIFO; allocate only if neither
                // operand owns one. MIPS has no indexed loads, so the address
                // is summed explicitly.
                let total = b_owned + i_owned;
                let d = if b_owned > 0 {
                    b
                } else if i_owned > 0 {
                    i
                } else {
                    self.alloc(ctx)
                };
                self.asm.emit(MInsn::Addu { rd: d, rs: b, rt: i });
                match width {
                    Width::Byte => self.asm.emit(MInsn::Lbu { rt: d, base: d, offset: 0 }),
                    Width::Half => self.asm.emit(MInsn::Lhu { rt: d, base: d, offset: 0 }),
                    Width::Word => self.asm.emit(MInsn::Lw { rt: d, base: d, offset: 0 }),
                };
                if total == 2 {
                    self.free(ctx, 1);
                }
                (d, 1)
            }
            Expr::Un(op, inner) => {
                let (s, owned) = self.eval(ctx, inner);
                let d = if owned > 0 { s } else { self.alloc(ctx) };
                match op {
                    UnOp::Neg => self.asm.emit(MInsn::Subu { rd: d, rs: ZERO, rt: s }),
                    UnOp::Not => self.asm.emit(MInsn::Nor { rd: d, rs: s, rt: s }),
                    UnOp::ExtByte => {
                        // Sign-extend a byte: shift-pair template.
                        self.asm.emit(MInsn::Sll { rd: d, rt: s, sa: 24 });
                        self.asm.emit(MInsn::Sra { rd: d, rt: d, sa: 24 })
                    }
                    UnOp::MaskByte => self.asm.emit(MInsn::Andi { rt: d, rs: s, imm: 0x00ff }),
                };
                (d, 1.max(owned))
            }
            Expr::Bin(op, a, b) => self.bin(ctx, *op, a, b),
            Expr::Call(f, args) => {
                assert_eq!(ctx.live, 0, "call nested inside a live expression");
                assert!(!ctx.leaf, "call lowered in a function marked leaf");
                self.emit_call(ctx, f.0, args);
                let d = self.alloc(ctx);
                self.asm.emit(MInsn::Addu { rd: d, rs: V0, rt: ZERO });
                (d, 1)
            }
        }
    }

    fn base_reg(&mut self, ctx: &mut FnCtx, l: crate::ir::Local) -> (Reg, u8) {
        match ctx.places[l.0 as usize] {
            Place::Reg(r) => (r, 0),
            Place::Frame(off) => {
                let d = self.alloc(ctx);
                self.asm.emit(MInsn::Lw { rt: d, base: SP, offset: off });
                (d, 1)
            }
        }
    }

    /// Applies the element-size scaling template to an index value,
    /// returning the register holding the scaled index and how many scratch
    /// registers it now owns.
    fn scale_index(&mut self, ctx: &mut FnCtx, i: Reg, owned: u8, w: Width) -> (Reg, u8) {
        let sh = match w {
            Width::Byte => return (i, owned),
            Width::Half => 1,
            Width::Word => 2,
        };
        let d = if owned > 0 { i } else { self.alloc(ctx) };
        self.asm.emit(MInsn::Sll { rd: d, rt: i, sa: sh });
        (d, 1)
    }

    fn bin(&mut self, ctx: &mut FnCtx, op: BinOp, a: &Expr, b: &Expr) -> (Reg, u8) {
        // Immediate-operand template specializations, as a compiler would
        // select (`addiu`, `andi`, `ori`, `xori`). MIPS has no
        // multiply-immediate, so `Mul` by a constant falls through to the
        // general path, which materializes the constant first.
        if let Expr::Const(c) = b {
            let specialized =
                matches!(op, BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor);
            if specialized {
                let (s, owned) = self.eval(ctx, a);
                let d = if owned > 0 { s } else { self.alloc(ctx) };
                match op {
                    BinOp::Add => self.asm.emit(MInsn::Addiu { rt: d, rs: s, imm: *c }),
                    BinOp::Sub => {
                        self.asm.emit(MInsn::Addiu { rt: d, rs: s, imm: c.wrapping_neg() })
                    }
                    BinOp::And => self.asm.emit(MInsn::Andi { rt: d, rs: s, imm: *c as u16 }),
                    BinOp::Or => self.asm.emit(MInsn::Ori { rt: d, rs: s, imm: *c as u16 }),
                    BinOp::Xor => self.asm.emit(MInsn::Xori { rt: d, rs: s, imm: *c as u16 }),
                    _ => unreachable!(),
                };
                return (d, 1.max(owned));
            }
        }
        match op {
            BinOp::Shl(c) => {
                let (s, owned) = self.eval(ctx, a);
                let d = if owned > 0 { s } else { self.alloc(ctx) };
                self.asm.emit(MInsn::Sll { rd: d, rt: s, sa: c });
                return (d, 1.max(owned));
            }
            BinOp::Shr(c) => {
                let (s, owned) = self.eval(ctx, a);
                let d = if owned > 0 { s } else { self.alloc(ctx) };
                self.asm.emit(MInsn::Srl { rd: d, rt: s, sa: c });
                return (d, 1.max(owned));
            }
            BinOp::Sar(c) => {
                let (s, owned) = self.eval(ctx, a);
                let d = if owned > 0 { s } else { self.alloc(ctx) };
                self.asm.emit(MInsn::Sra { rd: d, rt: s, sa: c });
                return (d, 1.max(owned));
            }
            _ => {}
        }
        let (ra_, a_owned) = self.eval(ctx, a);
        let (rb_, b_owned) = self.eval(ctx, b);
        let d = if a_owned > 0 {
            ra_
        } else if b_owned > 0 {
            rb_
        } else {
            self.alloc(ctx)
        };
        match op {
            BinOp::Add => self.asm.emit(MInsn::Addu { rd: d, rs: ra_, rt: rb_ }),
            BinOp::Sub => self.asm.emit(MInsn::Subu { rd: d, rs: ra_, rt: rb_ }),
            BinOp::Mul => self.asm.emit(MInsn::Mul { rd: d, rs: ra_, rt: rb_ }),
            BinOp::Div => self.asm.emit(MInsn::Div { rd: d, rs: ra_, rt: rb_ }),
            BinOp::And => self.asm.emit(MInsn::And { rd: d, rs: ra_, rt: rb_ }),
            BinOp::Or => self.asm.emit(MInsn::Or { rd: d, rs: ra_, rt: rb_ }),
            BinOp::Xor => self.asm.emit(MInsn::Xor { rd: d, rs: ra_, rt: rb_ }),
            BinOp::Shl(_) | BinOp::Shr(_) | BinOp::Sar(_) => unreachable!(),
        };
        // Free whichever operand scratches are no longer the result.
        let total = a_owned + b_owned;
        if total == 2 {
            self.free(ctx, 1);
            (d, 1)
        } else {
            (d, total.max(1))
        }
    }

    fn emit_call(&mut self, ctx: &mut FnCtx, callee: u32, args: &[Expr]) {
        assert!(args.len() <= 4, "at most 4 register arguments");
        for (i, arg) in args.iter().enumerate() {
            let (s, owned) = self.eval(ctx, arg);
            let dst = Reg::new(4 + i as u8).unwrap();
            self.asm.emit(MInsn::Addu { rd: dst, rs: s, rt: ZERO });
            self.free(ctx, owned);
        }
        self.asm.jal(&format!("F{callee}"));
    }

    // ---- statements -------------------------------------------------------

    fn stmt(&mut self, ctx: &mut FnCtx, s: &Stmt) {
        debug_assert_eq!(ctx.live, 0, "scratches leaked between statements");
        match s {
            Stmt::AssignLocal(l, e) => {
                let (v, owned) = self.eval(ctx, e);
                match ctx.places[l.0 as usize] {
                    Place::Reg(r) => {
                        if r != v {
                            self.asm.emit(MInsn::Addu { rd: r, rs: v, rt: ZERO });
                        }
                    }
                    Place::Frame(off) => {
                        self.asm.emit(MInsn::Sw { rt: v, base: SP, offset: off });
                    }
                }
                self.free(ctx, owned);
            }
            Stmt::AssignGlobal(g, w, e) => {
                let (v, owned) = self.eval(ctx, e);
                let a = self.alloc(ctx);
                self.asm.emit(MInsn::Lui { rt: a, imm: GLOBAL_HI });
                let off = 4 * g.0 as i16;
                match w {
                    Width::Byte => self.asm.emit(MInsn::Sb { rt: v, base: a, offset: off }),
                    Width::Half => self.asm.emit(MInsn::Sh { rt: v, base: a, offset: off }),
                    Width::Word => self.asm.emit(MInsn::Sw { rt: v, base: a, offset: off }),
                };
                self.free(ctx, owned + 1);
            }
            Stmt::StoreIndex { base, index, width, value } => {
                let (v, v_owned) = self.eval(ctx, value);
                let (b, b_owned) = self.base_reg(ctx, *base);
                let (i0, i_owned0) = self.eval(ctx, index);
                let (i, i_owned) = self.scale_index(ctx, i0, i_owned0, *width);
                // No indexed stores either: sum the address into a scratch
                // (reusing an operand's if one is owned — `addu` reads both
                // sources before writing).
                let (addr, extra) = if i_owned > 0 {
                    (i, 0)
                } else if b_owned > 0 {
                    (b, 0)
                } else {
                    (self.alloc(ctx), 1)
                };
                self.asm.emit(MInsn::Addu { rd: addr, rs: b, rt: i });
                match width {
                    Width::Byte => self.asm.emit(MInsn::Sb { rt: v, base: addr, offset: 0 }),
                    Width::Half => self.asm.emit(MInsn::Sh { rt: v, base: addr, offset: 0 }),
                    Width::Word => self.asm.emit(MInsn::Sw { rt: v, base: addr, offset: 0 }),
                };
                self.free(ctx, v_owned + b_owned + i_owned + extra);
            }
            Stmt::If { cond, then_, els } => {
                let l_else = self.fresh("L");
                let l_end = self.fresh("L");
                self.cond_branch(ctx, cond, false, if els.is_empty() { &l_end } else { &l_else });
                for st in then_ {
                    self.stmt(ctx, st);
                }
                if !els.is_empty() {
                    self.asm.j(&l_end);
                    self.asm.label(&l_else);
                    for st in els {
                        self.stmt(ctx, st);
                    }
                }
                self.asm.label(&l_end);
            }
            Stmt::While { cond, body } => {
                let l_head = self.fresh("L");
                let l_end = self.fresh("L");
                self.asm.label(&l_head);
                self.cond_branch(ctx, cond, false, &l_end);
                for st in body {
                    self.stmt(ctx, st);
                }
                self.asm.j(&l_head);
                self.asm.label(&l_end);
            }
            Stmt::For { var, from, to, body } => {
                // Bottom-tested loop with entry guard jump (GCC shape).
                let l_body = self.fresh("L");
                let l_test = self.fresh("L");
                self.stmt(ctx, &Stmt::AssignLocal(*var, Expr::Const(*from)));
                self.asm.j(&l_test);
                self.asm.label(&l_body);
                for st in body {
                    self.stmt(ctx, st);
                }
                // var += 1
                self.stmt(
                    ctx,
                    &Stmt::AssignLocal(
                        *var,
                        Expr::Bin(
                            BinOp::Add,
                            Box::new(Expr::Local(*var, Width::Word)),
                            Box::new(Expr::Const(1)),
                        ),
                    ),
                );
                self.asm.label(&l_test);
                let cond = Cond {
                    op: CmpOp::Lt,
                    unsigned: false,
                    lhs: Expr::Local(*var, Width::Word),
                    rhs: Expr::Const(*to),
                    crf: 0,
                };
                self.cond_branch(ctx, &cond, true, &l_body);
            }
            Stmt::Call(f, args) => {
                self.emit_call(ctx, f.0, args);
            }
            Stmt::Switch { scrutinee, cases } => {
                self.lower_switch(ctx, scrutinee, cases);
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    let (v, owned) = self.eval(ctx, e);
                    if v != V0 {
                        self.asm.emit(MInsn::Addu { rd: V0, rs: v, rt: ZERO });
                    }
                    self.free(ctx, owned);
                }
                let epilogue = ctx.epilogue.clone();
                self.asm.j(&epilogue);
            }
        }
        debug_assert_eq!(ctx.live, 0, "scratches leaked by statement");
    }

    fn lower_switch(&mut self, ctx: &mut FnCtx, scrutinee: &Expr, cases: &[Vec<Stmt>]) {
        let l_end = self.fresh("L");
        let case_labels: Vec<String> = (0..cases.len()).map(|_| self.fresh("C")).collect();

        let (s, owned) = self.eval(ctx, scrutinee);
        // Bounds check: unsigned compare against the case count through a
        // dedicated scratch (MIPS compares materialize a boolean).
        let t = self.alloc(ctx);
        self.asm.emit(MInsn::Sltiu { rt: t, rs: s, imm: cases.len() as i16 });
        self.asm.beq(t, ZERO, &l_end);
        // Scale and dispatch through the jump table; `t` is dead after the
        // bounds branch and carries the scaled index.
        self.asm.emit(MInsn::Sll { rd: t, rt: s, sa: 2 });
        let a = if owned > 0 { s } else { self.alloc(ctx) };
        let table_id = self.tables.len() as i16;
        self.asm.emit(MInsn::Lui { rt: a, imm: TABLE_HI });
        self.asm.emit(MInsn::Addiu { rt: a, rs: a, imm: table_id * 64 });
        self.asm.emit(MInsn::Addu { rd: a, rs: a, rt: t });
        self.asm.emit(MInsn::Lw { rt: a, base: a, offset: 0 });
        self.asm.emit(MInsn::Jr { rs: a });
        self.free(ctx, owned.max(1) + 1);

        self.tables.push(case_labels.clone());
        for (label, body) in case_labels.iter().zip(cases) {
            self.asm.label(label);
            for st in body {
                self.stmt(ctx, st);
            }
            self.asm.j(&l_end);
        }
        self.asm.label(&l_end);
    }

    /// Evaluates a condition and emits a conditional branch to `label`,
    /// taken when the condition equals `sense`.
    ///
    /// MIPS has no condition register: equality tests branch directly on the
    /// operands (`beq`/`bne`), and ordered tests materialize a boolean with
    /// `slt`-family templates, then branch on it against `$0`.
    fn cond_branch(&mut self, ctx: &mut FnCtx, cond: &Cond, sense: bool, label: &str) {
        let (a, a_owned) = self.eval(ctx, &cond.lhs);
        // Normalize to Eq / Lt (plus an operand swap for Gt/Le).
        let (op, swap) = match cond.op {
            CmpOp::Eq => (CmpOp::Eq, false),
            CmpOp::Ne => (CmpOp::Ne, false),
            CmpOp::Lt => (CmpOp::Lt, false),
            CmpOp::Ge => (CmpOp::Ge, false),
            CmpOp::Gt => (CmpOp::Lt, true),
            CmpOp::Le => (CmpOp::Ge, true),
        };
        if matches!(op, CmpOp::Eq | CmpOp::Ne) {
            let branch_eq = (op == CmpOp::Eq) == sense;
            if matches!(cond.rhs, Expr::Const(0)) {
                self.free(ctx, a_owned);
                if branch_eq {
                    self.asm.beq(a, ZERO, label);
                } else {
                    self.asm.bne(a, ZERO, label);
                }
            } else {
                // Nonzero constants are materialized by `eval`'s Const arm.
                let (b, b_owned) = self.eval(ctx, &cond.rhs);
                self.free(ctx, a_owned + b_owned);
                if branch_eq {
                    self.asm.beq(a, b, label);
                } else {
                    self.asm.bne(a, b, label);
                }
            }
            return;
        }
        // Ordered: t = (x < y), branch on t != 0 (Lt) or t == 0 (Ge).
        let branch_ne = (op == CmpOp::Lt) == sense;
        if !swap {
            if let Expr::Const(c) = cond.rhs {
                let t = if a_owned > 0 { a } else { self.alloc(ctx) };
                if cond.unsigned {
                    self.asm.emit(MInsn::Sltiu { rt: t, rs: a, imm: c });
                } else {
                    self.asm.emit(MInsn::Slti { rt: t, rs: a, imm: c });
                }
                self.free(ctx, a_owned.max(1));
                if branch_ne {
                    self.asm.bne(t, ZERO, label);
                } else {
                    self.asm.beq(t, ZERO, label);
                }
                return;
            }
        }
        let (b, b_owned) = self.eval(ctx, &cond.rhs);
        let (x, y) = if swap { (b, a) } else { (a, b) };
        let t = if a_owned > 0 {
            a
        } else if b_owned > 0 {
            b
        } else {
            self.alloc(ctx)
        };
        if cond.unsigned {
            self.asm.emit(MInsn::Sltu { rd: t, rs: x, rt: y });
        } else {
            self.asm.emit(MInsn::Slt { rd: t, rs: x, rt: y });
        }
        self.free(ctx, (a_owned + b_owned).max(1));
        if branch_ne {
            self.asm.bne(t, ZERO, label);
        } else {
            self.asm.beq(t, ZERO, label);
        }
    }
}

fn frame_off(ctx: &FnCtx, l: crate::ir::Local) -> i16 {
    match ctx.places[l.0 as usize] {
        Place::Frame(off) => off,
        Place::Reg(_) => unreachable!("frame_off on register local"),
    }
}
