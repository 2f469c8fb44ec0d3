//! SDTS lowering: IR → PowerPC object code through fixed instruction
//! templates.
//!
//! Every IR construct expands to one fixed instruction pattern parameterized
//! only by register numbers, frame offsets and immediates — the property
//! (§1.1 of the paper) that makes compiled code highly compressible.
//! Conventions follow GCC's SVR4 PowerPC output: `r1` stack pointer, args in
//! `r3..r6`, return value in `r3`, scratch temporaries drawn from
//! `r9/r11/r12/r10/r8`, register locals in `r26..r31`, `stmw`/`lmw`
//! prologue/epilogue save sequences, and LR saved at `N+4(r1)`.

use codense_obj::{FunctionInfo, JumpTable, ObjectModule};
use codense_ppc::asm::{AsmError, Assembler};
use codense_ppc::insn::Insn;
use codense_ppc::reg::{CrField, Gpr, R0, R1, R3};

use crate::ir::{BinOp, CmpOp, Cond, Expr, Function, Program, Stmt, UnOp, Width};

/// Scratch registers used by expression evaluation, in allocation order.
const SCRATCH: [u8; 5] = [9, 11, 12, 10, 8];

/// Nonvolatile registers assignable to locals, in allocation order.
const REG_POOL: [u8; 6] = [31, 30, 29, 28, 27, 26];

/// Synthetic high halves of the `.data` addresses used by global accesses
/// and jump tables (all globals share one `lis` constant — a deliberate,
/// realistic redundancy source).
const GLOBAL_HI: i16 = 0x0040;
const TABLE_HI: i16 = 0x0050;

/// Where a local variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// In a nonvolatile register.
    Reg(Gpr),
    /// In the stack frame at the given offset from `r1`.
    Frame(i16),
}

/// Code-generation policy knobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LowerOptions {
    /// Standardize every prologue/epilogue: always save the link register
    /// and the full nonvolatile pool into a fixed-size frame, regardless of
    /// what the function uses. This is the paper's §5 future-work proposal
    /// ("if the prologue sequence were standardized to always save all
    /// registers, then all instructions of the sequence could be compressed
    /// to a single codeword") — larger uncompressed code, better
    /// compressed code.
    pub standardize_prologues: bool,
    /// Emit a two-instruction entry stub ahead of function 0 (`bl F0; sc`
    /// on PowerPC, `jal F0; syscall` on MIPS) so the lowered module is
    /// directly *runnable*: execution starts at instruction 0, calls into
    /// the program's root function, and halts with its return value as the
    /// exit code when the root returns. Off by default so benchmark
    /// modules used purely as compression fodder stay byte-identical.
    pub entry_stub: bool,
}

/// Lowers a whole [`Program`] to an [`ObjectModule`].
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
pub fn lower_program(program: &Program) -> Result<ObjectModule, AsmError> {
    lower_program_with(program, LowerOptions::default())
}

/// Like [`lower_program`], with explicit policy knobs.
///
/// # Errors
///
/// Returns an [`AsmError`] if a branch displacement overflows.
pub fn lower_program_with(
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
    // Resolve jump-table case labels to instruction indices while the
    // assembler still owns the label map.
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
    let mut module = ObjectModule::new(program.name.clone(), codense_isa::IsaId::Ppc);
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
    /// with its return value (already in `r3`, the exit register) as the
    /// exit code. Recorded as its own zero-prologue [`FunctionInfo`] so the
    /// compressor's region classification sees it as ordinary body code.
    fn emit_entry_stub(&mut self) {
        let start = self.asm.here();
        self.asm.bl("F0");
        self.asm.emit(Insn::Sc);
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
        // Under standardized prologues every function saves LR and the full
        // nonvolatile pool into one fixed-size frame, so the whole
        // prologue/epilogue byte sequence is identical across functions.
        let leaf = function_is_leaf(func) && !std_pe;
        let nreg = (func.locals as usize).min(REG_POOL.len()).min(reg_locals_for(func));
        let nstack = func.locals as usize - nreg;

        // Frame layout: [0: back chain][8..: stack locals][save area][N]
        let save_regs = if std_pe {
            32 - REG_POOL[REG_POOL.len() - 1] as i16
        } else if nreg > 0 {
            32 - REG_POOL[nreg - 1] as i16
        } else {
            0
        };
        let raw = 8 + 4 * nstack as i16 + 4 * save_regs;
        let frame = if std_pe { 112 } else { (raw + 15) & !15 };
        debug_assert!(raw <= frame, "fixed frame too small for locals");

        let places: Vec<Place> = (0..func.locals as usize)
            .map(|i| {
                if i < nreg {
                    Place::Reg(Gpr::new(REG_POOL[i]).unwrap())
                } else {
                    Place::Frame(8 + 4 * (i - nreg) as i16)
                }
            })
            .collect();

        let start = self.asm.here();
        self.asm.label(&format!("F{index}"));

        // --- prologue template ------------------------------------------
        self.asm.emit(Insn::Stwu { rs: R1, ra: R1, d: -frame });
        if !leaf {
            self.asm.emit(Insn::Mfspr { rt: R0, spr: codense_ppc::Spr::Lr });
            self.asm.emit(Insn::Stw { rs: R0, ra: R1, d: frame + 4 });
        }
        if std_pe {
            let rs = Gpr::new(REG_POOL[REG_POOL.len() - 1]).unwrap();
            self.asm.emit(Insn::Stmw { rs, ra: R1, d: frame - 4 * save_regs });
        } else if nreg > 0 {
            let rs = Gpr::new(REG_POOL[nreg - 1]).unwrap();
            self.asm.emit(Insn::Stmw { rs, ra: R1, d: frame - 4 * save_regs });
        }
        // Home incoming parameters.
        for p in 0..func.params.min(4) {
            let arg = Gpr::new(3 + p as u8).unwrap();
            match places[p as usize] {
                Place::Reg(r) => {
                    self.asm.emit(Insn::Or { ra: r, rs: arg, rb: arg, rc: false });
                }
                Place::Frame(off) => {
                    self.asm.emit(Insn::Stw { rs: arg, ra: R1, d: off });
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
        if std_pe {
            let rt = Gpr::new(REG_POOL[REG_POOL.len() - 1]).unwrap();
            self.asm.emit(Insn::Lmw { rt, ra: R1, d: frame - 4 * save_regs });
        } else if nreg > 0 {
            let rt = Gpr::new(REG_POOL[nreg - 1]).unwrap();
            self.asm.emit(Insn::Lmw { rt, ra: R1, d: frame - 4 * save_regs });
        }
        if !leaf {
            self.asm.emit(Insn::Lwz { rt: R0, ra: R1, d: frame + 4 });
            self.asm.emit(Insn::Mtspr { spr: codense_ppc::Spr::Lr, rs: R0 });
        }
        self.asm.emit(Insn::Addi { rt: R1, ra: R1, si: frame });
        self.asm.blr();
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
    fn alloc(&mut self, ctx: &mut FnCtx) -> Gpr {
        assert!((ctx.live as usize) < SCRATCH.len(), "expression too deep for scratch pool");
        let r = Gpr::new(SCRATCH[ctx.live as usize]).unwrap();
        ctx.live += 1;
        r
    }

    fn free(&mut self, ctx: &mut FnCtx, n: u8) {
        ctx.live -= n;
    }

    /// Evaluates `e`, returning the register holding the result. Register
    /// locals are returned in place (no copy); all other results occupy a
    /// newly allocated scratch register.
    fn eval(&mut self, ctx: &mut FnCtx, e: &Expr) -> (Gpr, u8) {
        match e {
            Expr::Local(l, Width::Word) => {
                if let Place::Reg(r) = ctx.places[l.0 as usize] {
                    return (r, 0);
                }
                let d = self.alloc(ctx);
                let off = frame_off(ctx, *l);
                self.asm.emit(Insn::Lwz { rt: d, ra: R1, d: off });
                (d, 1)
            }
            Expr::Local(l, w) => {
                let d = self.alloc(ctx);
                match ctx.places[l.0 as usize] {
                    Place::Reg(r) => {
                        // Sub-word read of a register local: mask template.
                        match w {
                            Width::Byte => self.asm.emit(Insn::Rlwinm {
                                ra: d,
                                rs: r,
                                sh: 0,
                                mb: 24,
                                me: 31,
                                rc: false,
                            }),
                            _ => self.asm.emit(Insn::Rlwinm {
                                ra: d,
                                rs: r,
                                sh: 0,
                                mb: 16,
                                me: 31,
                                rc: false,
                            }),
                        };
                    }
                    Place::Frame(off) => {
                        match w {
                            Width::Byte => self.asm.emit(Insn::Lbz { rt: d, ra: R1, d: off }),
                            Width::Half => self.asm.emit(Insn::Lhz { rt: d, ra: R1, d: off }),
                            Width::Word => unreachable!(),
                        };
                    }
                }
                (d, 1)
            }
            Expr::Const(c) => {
                let d = self.alloc(ctx);
                self.asm.emit(Insn::Addi { rt: d, ra: R0, si: *c });
                (d, 1)
            }
            Expr::ConstWide(c) => {
                let d = self.alloc(ctx);
                let hi = (*c >> 16) as i16;
                let lo = (*c & 0xffff) as u16;
                self.asm.emit(Insn::Addis { rt: d, ra: R0, si: hi });
                self.asm.emit(Insn::Ori { ra: d, rs: d, ui: lo });
                (d, 1)
            }
            Expr::Global(g, w) => {
                let d = self.alloc(ctx);
                self.asm.emit(Insn::Addis { rt: d, ra: R0, si: GLOBAL_HI });
                let off = 4 * g.0 as i16;
                match w {
                    Width::Byte => self.asm.emit(Insn::Lbz { rt: d, ra: d, d: off }),
                    Width::Half => self.asm.emit(Insn::Lhz { rt: d, ra: d, d: off }),
                    Width::Word => self.asm.emit(Insn::Lwz { rt: d, ra: d, d: off }),
                };
                (d, 1)
            }
            Expr::Index { base, index, width } => {
                let (b, b_owned) = self.base_reg(ctx, *base);
                let (i0, i_owned0) = self.eval(ctx, index);
                let (i, i_owned) = self.scale_index(ctx, i0, i_owned0, *width);
                // Reuse the earliest owned scratch as the destination so the
                // allocation stack stays LIFO; allocate only if neither
                // operand owns one.
                let total = b_owned + i_owned;
                let d = if b_owned > 0 {
                    b
                } else if i_owned > 0 {
                    i
                } else {
                    self.alloc(ctx)
                };
                match width {
                    Width::Byte => self.asm.emit(Insn::Lbzx { rt: d, ra: b, rb: i }),
                    Width::Half => self.asm.emit(Insn::Lhzx { rt: d, ra: b, rb: i }),
                    Width::Word => self.asm.emit(Insn::Lwzx { rt: d, ra: b, rb: i }),
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
                    UnOp::Neg => self.asm.emit(Insn::Neg { rt: d, ra: s, rc: false }),
                    UnOp::Not => self.asm.emit(Insn::Nor { ra: d, rs: s, rb: s, rc: false }),
                    UnOp::ExtByte => self.asm.emit(Insn::Extsb { ra: d, rs: s, rc: false }),
                    UnOp::MaskByte => self.asm.emit(Insn::Rlwinm {
                        ra: d,
                        rs: s,
                        sh: 0,
                        mb: 24,
                        me: 31,
                        rc: false,
                    }),
                };
                (d, 1.max(owned))
            }
            Expr::Bin(op, a, b) => self.bin(ctx, *op, a, b),
            Expr::Call(f, args) => {
                assert_eq!(ctx.live, 0, "call nested inside a live expression");
                assert!(!ctx.leaf, "call lowered in a function marked leaf");
                self.emit_call(ctx, f.0, args);
                let d = self.alloc(ctx);
                self.asm.emit(Insn::Or { ra: d, rs: R3, rb: R3, rc: false });
                (d, 1)
            }
        }
    }

    fn base_reg(&mut self, ctx: &mut FnCtx, l: crate::ir::Local) -> (Gpr, u8) {
        match ctx.places[l.0 as usize] {
            Place::Reg(r) => (r, 0),
            Place::Frame(off) => {
                let d = self.alloc(ctx);
                self.asm.emit(Insn::Lwz { rt: d, ra: R1, d: off });
                (d, 1)
            }
        }
    }

    /// Applies the element-size scaling template to an index value,
    /// returning the register holding the scaled index and how many scratch
    /// registers it now owns.
    fn scale_index(&mut self, ctx: &mut FnCtx, i: Gpr, owned: u8, w: Width) -> (Gpr, u8) {
        let sh = match w {
            Width::Byte => return (i, owned),
            Width::Half => 1,
            Width::Word => 2,
        };
        let d = if owned > 0 { i } else { self.alloc(ctx) };
        self.asm.emit(Insn::Rlwinm { ra: d, rs: i, sh, mb: 0, me: 31 - sh, rc: false });
        (d, 1)
    }

    fn bin(&mut self, ctx: &mut FnCtx, op: BinOp, a: &Expr, b: &Expr) -> (Gpr, u8) {
        // Immediate-operand template specializations, as a compiler would
        // select (`addi`, `mulli`, `andi.`, `ori`, `xori`).
        if let Expr::Const(c) = b {
            let specialized = matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor
            );
            if specialized {
                let (s, owned) = self.eval(ctx, a);
                let d = if owned > 0 { s } else { self.alloc(ctx) };
                match op {
                    BinOp::Add => self.asm.emit(Insn::Addi { rt: d, ra: s, si: *c }),
                    BinOp::Sub => self.asm.emit(Insn::Addi { rt: d, ra: s, si: c.wrapping_neg() }),
                    BinOp::Mul => self.asm.emit(Insn::Mulli { rt: d, ra: s, si: *c }),
                    BinOp::And => self.asm.emit(Insn::AndiRc { ra: d, rs: s, ui: *c as u16 }),
                    BinOp::Or => self.asm.emit(Insn::Ori { ra: d, rs: s, ui: *c as u16 }),
                    BinOp::Xor => self.asm.emit(Insn::Xori { ra: d, rs: s, ui: *c as u16 }),
                    _ => unreachable!(),
                };
                return (d, 1.max(owned));
            }
        }
        match op {
            BinOp::Shl(c) => {
                let (s, owned) = self.eval(ctx, a);
                let d = if owned > 0 { s } else { self.alloc(ctx) };
                self.asm.emit(Insn::Rlwinm { ra: d, rs: s, sh: c, mb: 0, me: 31 - c, rc: false });
                return (d, 1.max(owned));
            }
            BinOp::Shr(c) => {
                let (s, owned) = self.eval(ctx, a);
                let d = if owned > 0 { s } else { self.alloc(ctx) };
                self.asm.emit(Insn::Rlwinm { ra: d, rs: s, sh: 32 - c, mb: c, me: 31, rc: false });
                return (d, 1.max(owned));
            }
            BinOp::Sar(c) => {
                let (s, owned) = self.eval(ctx, a);
                let d = if owned > 0 { s } else { self.alloc(ctx) };
                self.asm.emit(Insn::Srawi { ra: d, rs: s, sh: c, rc: false });
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
            BinOp::Add => self.asm.emit(Insn::Add { rt: d, ra: ra_, rb: rb_, rc: false }),
            BinOp::Sub => self.asm.emit(Insn::Subf { rt: d, ra: rb_, rb: ra_, rc: false }),
            BinOp::Mul => self.asm.emit(Insn::Mullw { rt: d, ra: ra_, rb: rb_, rc: false }),
            BinOp::Div => self.asm.emit(Insn::Divw { rt: d, ra: ra_, rb: rb_, rc: false }),
            BinOp::And => self.asm.emit(Insn::And { ra: d, rs: ra_, rb: rb_, rc: false }),
            BinOp::Or => self.asm.emit(Insn::Or { ra: d, rs: ra_, rb: rb_, rc: false }),
            BinOp::Xor => self.asm.emit(Insn::Xor { ra: d, rs: ra_, rb: rb_, rc: false }),
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
            let dst = Gpr::new(3 + i as u8).unwrap();
            self.asm.emit(Insn::Or { ra: dst, rs: s, rb: s, rc: false });
            self.free(ctx, owned);
        }
        self.asm.bl(&format!("F{callee}"));
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
                            self.asm.emit(Insn::Or { ra: r, rs: v, rb: v, rc: false });
                        }
                    }
                    Place::Frame(off) => {
                        self.asm.emit(Insn::Stw { rs: v, ra: R1, d: off });
                    }
                }
                self.free(ctx, owned);
            }
            Stmt::AssignGlobal(g, w, e) => {
                let (v, owned) = self.eval(ctx, e);
                let a = self.alloc(ctx);
                self.asm.emit(Insn::Addis { rt: a, ra: R0, si: GLOBAL_HI });
                let off = 4 * g.0 as i16;
                match w {
                    Width::Byte => self.asm.emit(Insn::Stb { rs: v, ra: a, d: off }),
                    Width::Half => self.asm.emit(Insn::Sth { rs: v, ra: a, d: off }),
                    Width::Word => self.asm.emit(Insn::Stw { rs: v, ra: a, d: off }),
                };
                self.free(ctx, owned + 1);
            }
            Stmt::StoreIndex { base, index, width, value } => {
                let (v, v_owned) = self.eval(ctx, value);
                let (b, b_owned) = self.base_reg(ctx, *base);
                let (i0, i_owned0) = self.eval(ctx, index);
                let (i, i_owned) = self.scale_index(ctx, i0, i_owned0, *width);
                match width {
                    Width::Byte => self.asm.emit(Insn::Stbx { rs: v, ra: b, rb: i }),
                    Width::Half => self.asm.emit(Insn::Sthx { rs: v, ra: b, rb: i }),
                    Width::Word => self.asm.emit(Insn::Stwx { rs: v, ra: b, rb: i }),
                };
                self.free(ctx, v_owned + b_owned + i_owned);
            }
            Stmt::If { cond, then_, els } => {
                let l_else = self.fresh("L");
                let l_end = self.fresh("L");
                self.cond_branch(ctx, cond, false, if els.is_empty() { &l_end } else { &l_else });
                for st in then_ {
                    self.stmt(ctx, st);
                }
                if !els.is_empty() {
                    self.asm.b(&l_end);
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
                self.asm.b(&l_head);
                self.asm.label(&l_end);
            }
            Stmt::For { var, from, to, body } => {
                // Bottom-tested loop with entry guard jump (GCC shape).
                let l_body = self.fresh("L");
                let l_test = self.fresh("L");
                self.stmt(ctx, &Stmt::AssignLocal(*var, Expr::Const(*from)));
                self.asm.b(&l_test);
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
                    if v != R3 {
                        self.asm.emit(Insn::Or { ra: R3, rs: v, rb: v, rc: false });
                    }
                    self.free(ctx, owned);
                }
                let epilogue = ctx.epilogue.clone();
                self.asm.b(&epilogue);
            }
        }
        debug_assert_eq!(ctx.live, 0, "scratches leaked by statement");
    }

    fn lower_switch(&mut self, ctx: &mut FnCtx, scrutinee: &Expr, cases: &[Vec<Stmt>]) {
        let l_end = self.fresh("L");
        let case_labels: Vec<String> = (0..cases.len()).map(|_| self.fresh("C")).collect();

        let (s, owned) = self.eval(ctx, scrutinee);
        // Bounds check: unsigned compare against the case count.
        self.asm.emit(Insn::Cmplwi {
            bf: CrField::new(0).unwrap(),
            ra: s,
            ui: cases.len() as u16 - 1,
        });
        self.asm.bgt(CrField::new(0).unwrap(), &l_end);
        // Scale and dispatch through the jump table.
        let d = if owned > 0 { s } else { self.alloc(ctx) };
        self.asm.emit(Insn::Rlwinm { ra: d, rs: s, sh: 2, mb: 0, me: 29, rc: false });
        let a = self.alloc(ctx);
        let table_id = self.tables.len() as i16;
        self.asm.emit(Insn::Addis { rt: a, ra: R0, si: TABLE_HI });
        self.asm.emit(Insn::Addi { rt: a, ra: a, si: table_id * 64 });
        self.asm.emit(Insn::Lwzx { rt: a, ra: a, rb: d });
        self.asm.emit(Insn::Mtspr { spr: codense_ppc::Spr::Ctr, rs: a });
        self.asm.emit(Insn::Bcctr { bo: codense_ppc::insn::bo::ALWAYS, bi: 0, lk: false });
        self.free(ctx, owned.max(1) + 1);

        self.tables.push(case_labels.clone());
        for (label, body) in case_labels.iter().zip(cases) {
            self.asm.label(label);
            for st in body {
                self.stmt(ctx, st);
            }
            self.asm.b(&l_end);
        }
        self.asm.label(&l_end);
    }

    /// Evaluates a condition and emits a conditional branch to `label`,
    /// taken when the condition equals `sense`.
    fn cond_branch(&mut self, ctx: &mut FnCtx, cond: &Cond, sense: bool, label: &str) {
        let crf = CrField::new(cond.crf.min(7)).unwrap();
        let (a, a_owned) = self.eval(ctx, &cond.lhs);
        let freed = if let Expr::Const(c) = &cond.rhs {
            if cond.unsigned {
                self.asm.emit(Insn::Cmplwi { bf: crf, ra: a, ui: *c as u16 });
            } else {
                self.asm.emit(Insn::Cmpwi { bf: crf, ra: a, si: *c });
            }
            a_owned
        } else {
            let (b, b_owned) = self.eval(ctx, &cond.rhs);
            if cond.unsigned {
                self.asm.emit(Insn::Cmplw { bf: crf, ra: a, rb: b });
            } else {
                self.asm.emit(Insn::Cmpw { bf: crf, ra: a, rb: b });
            }
            a_owned + b_owned
        };
        self.free(ctx, freed);

        use codense_ppc::insn::bo;
        // (bit, sense-for-true)
        let (bit, bo_true) = match cond.op {
            CmpOp::Eq => (crf.eq_bit(), bo::IF_TRUE),
            CmpOp::Ne => (crf.eq_bit(), bo::IF_FALSE),
            CmpOp::Lt => (crf.lt_bit(), bo::IF_TRUE),
            CmpOp::Ge => (crf.lt_bit(), bo::IF_FALSE),
            CmpOp::Gt => (crf.gt_bit(), bo::IF_TRUE),
            CmpOp::Le => (crf.gt_bit(), bo::IF_FALSE),
        };
        let bo_field = if sense {
            bo_true
        } else {
            // Negate: IF_TRUE <-> IF_FALSE.
            match bo_true {
                bo::IF_TRUE => bo::IF_FALSE,
                _ => bo::IF_TRUE,
            }
        };
        self.asm.bc(bo_field, bit, label);
    }
}

fn frame_off(ctx: &FnCtx, l: crate::ir::Local) -> i16 {
    match ctx.places[l.0 as usize] {
        Place::Frame(off) => off,
        Place::Reg(_) => unreachable!("frame_off on register local"),
    }
}

/// How many of the function's locals should live in registers: loop
/// variables and the hottest few slots. The generator biases low slot
/// indices toward hot use, so "first k slots" is the right policy.
///
/// Shared with the MIPS lowering ([`crate::lower_mips`]) so the
/// register-allocation policy is ISA-independent.
pub(crate) fn reg_locals_for(func: &Function) -> usize {
    // Reserve register homes for roughly half the locals, capped by pool.
    (func.locals as usize).div_ceil(2)
}

/// Whether a function makes no calls (shared leaf policy across lowerings).
pub(crate) fn function_is_leaf(func: &Function) -> bool {
    fn expr_calls(e: &Expr) -> bool {
        match e {
            Expr::Call(..) => true,
            Expr::Bin(_, a, b) => expr_calls(a) || expr_calls(b),
            Expr::Un(_, a) => expr_calls(a),
            Expr::Index { index, .. } => expr_calls(index),
            _ => false,
        }
    }
    fn stmt_calls(s: &Stmt) -> bool {
        match s {
            Stmt::Call(..) => true,
            Stmt::AssignLocal(_, e) => expr_calls(e),
            Stmt::AssignGlobal(_, _, e) => expr_calls(e),
            Stmt::StoreIndex { index, value, .. } => expr_calls(index) || expr_calls(value),
            Stmt::If { cond, then_, els } => {
                expr_calls(&cond.lhs)
                    || expr_calls(&cond.rhs)
                    || then_.iter().any(stmt_calls)
                    || els.iter().any(stmt_calls)
            }
            Stmt::While { cond, body } => {
                expr_calls(&cond.lhs) || expr_calls(&cond.rhs) || body.iter().any(stmt_calls)
            }
            Stmt::For { body, .. } => body.iter().any(stmt_calls),
            Stmt::Switch { scrutinee, cases } => {
                expr_calls(scrutinee) || cases.iter().flatten().any(stmt_calls)
            }
            Stmt::Return(Some(e)) => expr_calls(e),
            Stmt::Return(None) => false,
        }
    }
    !func.body.iter().any(stmt_calls)
}
