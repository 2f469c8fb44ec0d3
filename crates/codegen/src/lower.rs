//! SDTS lowering: IR → object code through fixed per-ISA instruction
//! templates.
//!
//! Every IR construct expands to one fixed instruction pattern parameterized
//! only by register numbers, frame offsets and immediates — the property
//! (§1.1 of the paper) that makes compiled code highly compressible.
//!
//! One walk over the IR owns everything that is not instruction selection:
//! frame layout and register-local placement, scratch-register ownership,
//! statement control flow, calls and returns, jump-table collection and the
//! [`FunctionInfo`] records. It is generic over a crate-private template
//! table, one per ISA, so each backend's walk is monomorphized. A table
//! only says which instructions a construct expands to. Conventions follow
//! GCC's output on each target:
//!
//! | | PowerPC (SVR4) | MIPS (O32) |
//! |---|---|---|
//! | stack pointer | `r1` | `$sp` |
//! | arguments, return value | `r3..r6`, `r3` | `$4..$7`, `$2` |
//! | scratch, in allocation order | `r9 r11 r12 r10 r8` | `$t0..$t4` |
//! | register locals, in allocation order | `r31..r26` | `$s0..$s5` |
//! | register saves | one `stmw`/`lmw` | one `sw`/`lw` each |
//! | link register | saved at `N+4(r1)` | `$ra` saved at the frame top |
//!
//! The policy (which locals get registers, what counts as a leaf, the
//! standardized-prologue knob) is the walk's, so one IR program yields
//! structurally parallel modules on both ISAs.

use codense_isa::{AsmError, IsaId};
use codense_obj::{FunctionInfo, JumpTable, ObjectModule};

use crate::ir::{BinOp, CmpOp, Cond, Expr, Function, Program, Stmt, UnOp, Width};
use crate::mips_templates::Mips;
use crate::ppc_templates::Ppc;

/// High halfword of the synthetic `.data` address of global slot 0. Every
/// global access loads this one constant, a deliberate, realistic
/// redundancy source.
const GLOBAL_HI: u16 = 0x0040;

/// High halfword of [`TABLE_BASE`].
pub(crate) const TABLE_HI: u16 = 0x0050;

/// Byte address of jump table 0. Table *t* lives at
/// `TABLE_BASE + TABLE_STRIDE * t`, the address the switch template
/// computes; a runner seeds the tables there.
pub const TABLE_BASE: u32 = (TABLE_HI as u32) << 16;

/// Bytes between consecutive jump tables (16 four-byte entries). The
/// template adds `TABLE_STRIDE * t` as a signed 16-bit immediate, which caps
/// a module at 512 tables.
pub const TABLE_STRIDE: u32 = 64;

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

/// Lowers a whole [`Program`] to an [`ObjectModule`] for `isa`.
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
pub fn lower_program(
    program: &Program,
    isa: IsaId,
    options: LowerOptions,
) -> Result<ObjectModule, AsmError> {
    match isa {
        IsaId::Ppc => Walk::<Ppc>::lower(program, options),
        IsaId::Mips => Walk::<Mips>::lower(program, options),
    }
}

/// GPR numbers that can hold fetch-domain code addresses in code lowered
/// for `isa`: the link-register path and the registers the switch template
/// loads a jump-table entry into. A lockstep comparison of a native and a
/// compressed run must not compare them.
pub fn code_addr_regs(isa: IsaId) -> &'static [u8] {
    match isa {
        IsaId::Ppc => Ppc::CODE_ADDR_REGS,
        IsaId::Mips => Mips::CODE_ADDR_REGS,
    }
}

/// One ISA's instruction templates: what each IR construct expands to.
///
/// The walk picks the registers, offsets and labels; a table selects the
/// instructions. Three templates allocate scratch registers in an
/// ISA-specific order, so they take the walk itself:
/// [`store_indexed`](Templates::store_indexed),
/// [`dispatch`](Templates::dispatch) and
/// [`cond_branch`](Templates::cond_branch). Each frees the scratch
/// registers it evaluates or allocates; the operands the walk hands it stay
/// the walk's to free.
pub(crate) trait Templates: Default {
    /// A general-purpose register.
    type Reg: Copy + Eq;
    /// The tag the lowered module records.
    const ISA: IsaId;
    /// Scratch registers for expression evaluation, in allocation order.
    const SCRATCH: [Self::Reg; 5];
    /// Callee-saved registers assignable to locals, in allocation order.
    const REG_POOL: [Self::Reg; 6];
    /// The argument registers.
    const ARGS: [Self::Reg; 4];
    /// The return-value register (the exit code when the entry stub halts).
    const RET: Self::Reg;
    /// The stack pointer.
    const SP: Self::Reg;
    /// Bytes the callee's frame reserves for the link register (zero when
    /// the ABI saves it in the caller's frame).
    const LINK_SLOT: i16;
    /// See [`code_addr_regs`].
    const CODE_ADDR_REGS: &'static [u8];

    /// Index the next instruction gets.
    fn here(&self) -> usize;
    /// Defines `name` at [`here`](Templates::here).
    fn label(&mut self, name: &str);
    /// Where `name` was defined.
    fn label_pos(&self, name: &str) -> Option<usize>;
    /// Resolves the labels and returns the encoded words.
    fn finish(self) -> Result<Vec<u32>, AsmError>;

    /// Unconditional jump to `label`.
    fn jump(&mut self, label: &str);
    /// Call to `label`, linking the return address.
    fn call(&mut self, label: &str);
    /// The halt instruction.
    fn halt(&mut self);
    /// Allocates a `frame`-byte frame, saves the link register unless
    /// `leaf`, and saves the first `saved` pool registers.
    fn prologue(&mut self, frame: i16, leaf: bool, saved: usize);
    /// Undoes [`prologue`](Templates::prologue) and returns.
    fn epilogue(&mut self, frame: i16, leaf: bool, saved: usize);

    /// `d ← s`.
    fn mov(&mut self, d: Self::Reg, s: Self::Reg);
    /// `d ← c`.
    fn li(&mut self, d: Self::Reg, c: i16);
    /// `d ← hi << 16`.
    fn lui(&mut self, d: Self::Reg, hi: u16);
    /// `d ←` the zero-extended `w` at `base + off`.
    fn load(&mut self, w: Width, d: Self::Reg, base: Self::Reg, off: i16);
    /// Stores the low `w` of `v` at `base + off`.
    fn store(&mut self, w: Width, v: Self::Reg, base: Self::Reg, off: i16);
    /// `d ←` the low byte (`Byte`) or halfword of `s`, zero-extended.
    fn zero_extend(&mut self, w: Width, d: Self::Reg, s: Self::Reg);
    /// `d ←` the zero-extended `w` at `b + i`.
    fn load_indexed(&mut self, w: Width, d: Self::Reg, b: Self::Reg, i: Self::Reg);
    /// `d ← op s`.
    fn unary(&mut self, op: UnOp, d: Self::Reg, s: Self::Reg);
    /// Whether `op` has an immediate form, selected when its right operand
    /// is a constant.
    fn has_imm_form(op: BinOp) -> bool;
    /// `d ← s op c` for an `op` with an [immediate form](Templates::has_imm_form).
    fn bin_imm(&mut self, op: BinOp, d: Self::Reg, s: Self::Reg, c: i16);
    /// `d ← s` shifted by the constant of `op` (`Shl`, `Shr` or `Sar`).
    fn shift(&mut self, op: BinOp, d: Self::Reg, s: Self::Reg);
    /// `d ← a op b` for a non-shift `op`.
    fn bin(&mut self, op: BinOp, d: Self::Reg, a: Self::Reg, b: Self::Reg);

    /// Stores the low `width` of `v` at `b + i`; `b` and `i` come with the
    /// scratch count each owns.
    fn store_indexed(
        w: &mut Walk<Self>,
        width: Width,
        v: Self::Reg,
        b: (Self::Reg, u8),
        i: (Self::Reg, u8),
    );
    /// Branches to `l_end` unless `s` (owning `owned` scratch) is below
    /// `cases`, then jumps through entry `s` of the jump table at
    /// `TABLE_BASE + table_off`.
    fn dispatch(
        w: &mut Walk<Self>,
        s: Self::Reg,
        owned: u8,
        cases: usize,
        table_off: i16,
        l_end: &str,
    );
    /// Compares the evaluated left operand `a` of `cond` with its right
    /// operand and branches to `label` when the condition equals `sense`.
    fn cond_branch(w: &mut Walk<Self>, cond: &Cond, a: (Self::Reg, u8), sense: bool, label: &str);
}

/// Where a local variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place<R> {
    /// In a callee-saved register.
    Reg(R),
    /// In the stack frame at the given offset from the stack pointer.
    Frame(i16),
}

/// The IR walk over one ISA's templates.
pub(crate) struct Walk<T: Templates> {
    /// The templates, which own the assembler.
    pub(crate) t: T,
    label_counter: usize,
    functions: Vec<FunctionInfo>,
    /// Pending jump tables as vectors of case-label names.
    tables: Vec<Vec<String>>,
    options: LowerOptions,
    /// Homes of the current function's locals.
    places: Vec<Place<T::Reg>>,
    /// The current function's epilogue label.
    epilogue: String,
    /// Scratch registers currently holding live values.
    live: u8,
    /// Whether the current function makes no calls.
    leaf: bool,
}

impl<T: Templates> Walk<T> {
    fn lower(program: &Program, options: LowerOptions) -> Result<ObjectModule, AsmError> {
        let mut w = Walk {
            t: T::default(),
            label_counter: 0,
            functions: Vec::with_capacity(program.functions.len()),
            tables: Vec::new(),
            options,
            places: Vec::new(),
            epilogue: String::new(),
            live: 0,
            leaf: false,
        };
        if options.entry_stub {
            w.entry_stub();
        }
        for (i, func) in program.functions.iter().enumerate() {
            w.function(i, func);
        }
        // Resolve jump-table case labels to instruction indices while the
        // assembler still owns the label map.
        let tables: Vec<JumpTable> = w
            .tables
            .iter()
            .map(|labels| JumpTable {
                targets: labels
                    .iter()
                    .map(|l| w.t.label_pos(l).expect("case label emitted"))
                    .collect(),
            })
            .collect();
        let mut module = ObjectModule::new(program.name.clone(), T::ISA);
        module.functions = w.functions;
        module.jump_tables = tables;
        module.code = w.t.finish()?;
        Ok(module)
    }

    fn fresh(&mut self, stem: &str) -> String {
        self.label_counter += 1;
        format!("{stem}{}", self.label_counter)
    }

    /// The runnable-module entry stub: call the root function, then halt
    /// with its return value (already in the exit register) as the exit
    /// code. Recorded as its own zero-prologue [`FunctionInfo`] so the
    /// compressor's region classification sees it as ordinary body code.
    fn entry_stub(&mut self) {
        let start = self.t.here();
        self.t.call("F0");
        self.t.halt();
        let end = self.t.here();
        self.functions.push(FunctionInfo {
            name: "__start".to_string(),
            start,
            end,
            prologue_len: 0,
            epilogues: Vec::new(),
        });
    }

    fn function(&mut self, index: usize, func: &Function) {
        let std_pe = self.options.standardize_prologues;
        // Under standardized prologues every function saves the link
        // register and the full pool into one fixed-size frame, so the whole
        // prologue/epilogue byte sequence is identical across functions.
        let leaf = function_is_leaf(func) && !std_pe;
        let nreg = (func.locals as usize).min(T::REG_POOL.len()).min(reg_locals_for(func));
        let nstack = func.locals as usize - nreg;
        let saved = if std_pe { T::REG_POOL.len() } else { nreg };

        // Frame layout: [0..8 linkage][8 + 4i: stack local i][save area]
        // [link slot], rounded up to 16 bytes.
        let raw = 8 + 4 * nstack as i16 + 4 * saved as i16 + T::LINK_SLOT;
        let frame = if std_pe { 112 } else { (raw + 15) & !15 };
        debug_assert!(raw <= frame, "fixed frame too small for locals");

        self.places.clear();
        self.places.extend((0..func.locals as usize).map(|i| {
            if i < nreg {
                Place::Reg(T::REG_POOL[i])
            } else {
                Place::Frame(8 + 4 * (i - nreg) as i16)
            }
        }));

        let start = self.t.here();
        self.t.label(&format!("F{index}"));
        self.t.prologue(frame, leaf, saved);
        // Home incoming parameters.
        for p in 0..func.params.min(4) as usize {
            match self.places[p] {
                Place::Reg(r) => self.t.mov(r, T::ARGS[p]),
                Place::Frame(off) => self.t.store(Width::Word, T::ARGS[p], T::SP, off),
            }
        }
        let prologue_len = self.t.here() - start;

        self.epilogue = self.fresh("E");
        self.leaf = leaf;
        for stmt in &func.body {
            self.stmt(stmt);
        }

        let epi_start = self.t.here();
        self.t.label(&self.epilogue);
        self.t.epilogue(frame, leaf, saved);
        let end = self.t.here();

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
    pub(crate) fn alloc(&mut self) -> T::Reg {
        assert!((self.live as usize) < T::SCRATCH.len(), "expression too deep for scratch pool");
        let r = T::SCRATCH[self.live as usize];
        self.live += 1;
        r
    }

    pub(crate) fn free(&mut self, n: u8) {
        self.live -= n;
    }

    /// Evaluates `e`, returning the register holding the result and how
    /// many scratch registers it owns. Register locals are returned in
    /// place (no copy); all other results occupy a scratch register.
    pub(crate) fn eval(&mut self, e: &Expr) -> (T::Reg, u8) {
        match e {
            Expr::Local(l, w) => match self.places[l.0 as usize] {
                Place::Reg(r) if *w == Width::Word => (r, 0),
                place => {
                    let d = self.alloc();
                    match place {
                        // Sub-word read of a register local: mask template.
                        Place::Reg(r) => self.t.zero_extend(*w, d, r),
                        Place::Frame(off) => self.t.load(*w, d, T::SP, off),
                    }
                    (d, 1)
                }
            },
            Expr::Const(c) => {
                let d = self.alloc();
                self.t.li(d, *c);
                (d, 1)
            }
            Expr::ConstWide(c) => {
                let d = self.alloc();
                self.t.lui(d, (*c >> 16) as u16);
                self.t.bin_imm(BinOp::Or, d, d, *c as i16);
                (d, 1)
            }
            Expr::Global(g, w) => {
                let d = self.alloc();
                self.t.lui(d, GLOBAL_HI);
                self.t.load(*w, d, d, 4 * g.0 as i16);
                (d, 1)
            }
            Expr::Index { base, index, width } => {
                let (b, b_owned) = self.base_reg(*base);
                let (i0, i_owned0) = self.eval(index);
                let (i, i_owned) = self.scale_index(i0, i_owned0, *width);
                // Reuse the earliest owned scratch as the destination so the
                // allocation stack stays LIFO; allocate only if neither
                // operand owns one.
                let d = if b_owned > 0 {
                    b
                } else if i_owned > 0 {
                    i
                } else {
                    self.alloc()
                };
                self.t.load_indexed(*width, d, b, i);
                if b_owned + i_owned == 2 {
                    self.free(1);
                }
                (d, 1)
            }
            Expr::Un(op, inner) => {
                let (s, owned) = self.eval(inner);
                let d = if owned > 0 { s } else { self.alloc() };
                self.t.unary(*op, d, s);
                (d, 1.max(owned))
            }
            Expr::Bin(op, a, b) => self.bin(*op, a, b),
            Expr::Call(f, args) => {
                assert_eq!(self.live, 0, "call nested inside a live expression");
                assert!(!self.leaf, "call lowered in a function marked leaf");
                self.call(f.0, args);
                let d = self.alloc();
                self.t.mov(d, T::RET);
                (d, 1)
            }
        }
    }

    fn base_reg(&mut self, l: crate::ir::Local) -> (T::Reg, u8) {
        match self.places[l.0 as usize] {
            Place::Reg(r) => (r, 0),
            Place::Frame(off) => {
                let d = self.alloc();
                self.t.load(Width::Word, d, T::SP, off);
                (d, 1)
            }
        }
    }

    /// Applies the element-size scaling template to an index value,
    /// returning the register holding the scaled index and how many scratch
    /// registers it now owns.
    fn scale_index(&mut self, i: T::Reg, owned: u8, w: Width) -> (T::Reg, u8) {
        let sh = match w {
            Width::Byte => return (i, owned),
            Width::Half => 1,
            Width::Word => 2,
        };
        let d = if owned > 0 { i } else { self.alloc() };
        self.t.shift(BinOp::Shl(sh), d, i);
        (d, 1)
    }

    fn bin(&mut self, op: BinOp, a: &Expr, b: &Expr) -> (T::Reg, u8) {
        // Immediate-operand and shift specializations, as a compiler would
        // select them.
        let imm = match b {
            Expr::Const(c) if T::has_imm_form(op) => Some(*c),
            _ => None,
        };
        if imm.is_some() || matches!(op, BinOp::Shl(_) | BinOp::Shr(_) | BinOp::Sar(_)) {
            let (s, owned) = self.eval(a);
            let d = if owned > 0 { s } else { self.alloc() };
            match imm {
                Some(c) => self.t.bin_imm(op, d, s, c),
                None => self.t.shift(op, d, s),
            }
            return (d, 1.max(owned));
        }
        let (ra, a_owned) = self.eval(a);
        let (rb, b_owned) = self.eval(b);
        let d = if a_owned > 0 {
            ra
        } else if b_owned > 0 {
            rb
        } else {
            self.alloc()
        };
        self.t.bin(op, d, ra, rb);
        // Free whichever operand scratches are no longer the result.
        let total = a_owned + b_owned;
        if total == 2 {
            self.free(1);
            (d, 1)
        } else {
            (d, total.max(1))
        }
    }

    fn call(&mut self, callee: u32, args: &[Expr]) {
        assert!(args.len() <= 4, "at most 4 register arguments");
        for (i, arg) in args.iter().enumerate() {
            let (s, owned) = self.eval(arg);
            self.t.mov(T::ARGS[i], s);
            self.free(owned);
        }
        self.t.call(&format!("F{callee}"));
    }

    // ---- statements -------------------------------------------------------

    fn stmt(&mut self, s: &Stmt) {
        debug_assert_eq!(self.live, 0, "scratches leaked between statements");
        match s {
            Stmt::AssignLocal(l, e) => {
                let (v, owned) = self.eval(e);
                match self.places[l.0 as usize] {
                    Place::Reg(r) if r != v => self.t.mov(r, v),
                    Place::Reg(_) => {}
                    Place::Frame(off) => self.t.store(Width::Word, v, T::SP, off),
                }
                self.free(owned);
            }
            Stmt::AssignGlobal(g, w, e) => {
                let (v, owned) = self.eval(e);
                let a = self.alloc();
                self.t.lui(a, GLOBAL_HI);
                self.t.store(*w, v, a, 4 * g.0 as i16);
                self.free(owned + 1);
            }
            Stmt::StoreIndex { base, index, width, value } => {
                let (v, v_owned) = self.eval(value);
                let b = self.base_reg(*base);
                let (i0, i_owned0) = self.eval(index);
                let i = self.scale_index(i0, i_owned0, *width);
                T::store_indexed(self, *width, v, b, i);
                self.free(v_owned + b.1 + i.1);
            }
            Stmt::If { cond, then_, els } => {
                let l_else = self.fresh("L");
                let l_end = self.fresh("L");
                self.cond_branch(cond, false, if els.is_empty() { &l_end } else { &l_else });
                for st in then_ {
                    self.stmt(st);
                }
                if !els.is_empty() {
                    self.t.jump(&l_end);
                    self.t.label(&l_else);
                    for st in els {
                        self.stmt(st);
                    }
                }
                self.t.label(&l_end);
            }
            Stmt::While { cond, body } => {
                let l_head = self.fresh("L");
                let l_end = self.fresh("L");
                self.t.label(&l_head);
                self.cond_branch(cond, false, &l_end);
                for st in body {
                    self.stmt(st);
                }
                self.t.jump(&l_head);
                self.t.label(&l_end);
            }
            Stmt::For { var, from, to, body } => {
                // Bottom-tested loop with entry guard jump (GCC shape).
                let l_body = self.fresh("L");
                let l_test = self.fresh("L");
                self.stmt(&Stmt::AssignLocal(*var, Expr::Const(*from)));
                self.t.jump(&l_test);
                self.t.label(&l_body);
                for st in body {
                    self.stmt(st);
                }
                // var += 1
                let var_word = Expr::Local(*var, Width::Word);
                let inc =
                    Expr::Bin(BinOp::Add, Box::new(var_word.clone()), Box::new(Expr::Const(1)));
                self.stmt(&Stmt::AssignLocal(*var, inc));
                self.t.label(&l_test);
                let cond = Cond {
                    op: CmpOp::Lt,
                    unsigned: false,
                    lhs: var_word,
                    rhs: Expr::Const(*to),
                    crf: 0,
                };
                self.cond_branch(&cond, true, &l_body);
            }
            Stmt::Call(f, args) => self.call(f.0, args),
            Stmt::Switch { scrutinee, cases } => self.switch(scrutinee, cases),
            Stmt::Return(e) => {
                if let Some(e) = e {
                    let (v, owned) = self.eval(e);
                    if v != T::RET {
                        self.t.mov(T::RET, v);
                    }
                    self.free(owned);
                }
                self.t.jump(&self.epilogue);
            }
        }
        debug_assert_eq!(self.live, 0, "scratches leaked by statement");
    }

    fn switch(&mut self, scrutinee: &Expr, cases: &[Vec<Stmt>]) {
        let l_end = self.fresh("L");
        let case_labels: Vec<String> = (0..cases.len()).map(|_| self.fresh("C")).collect();

        let (s, owned) = self.eval(scrutinee);
        let table = self.tables.len();
        T::dispatch(self, s, owned, cases.len(), table as i16 * TABLE_STRIDE as i16, &l_end);
        self.free(owned);

        self.tables.push(case_labels);
        for (k, body) in cases.iter().enumerate() {
            self.t.label(&self.tables[table][k]);
            for st in body {
                self.stmt(st);
            }
            self.t.jump(&l_end);
        }
        self.t.label(&l_end);
    }

    /// Evaluates a condition and branches to `label` when it equals
    /// `sense`.
    fn cond_branch(&mut self, cond: &Cond, sense: bool, label: &str) {
        let a = self.eval(&cond.lhs);
        T::cond_branch(self, cond, a, sense, label);
        self.free(a.1);
    }
}

/// How many of the function's locals should live in registers: loop
/// variables and the hottest few slots. The generator biases low slot
/// indices toward hot use, so "first k slots" is the right policy.
fn reg_locals_for(func: &Function) -> usize {
    // Reserve register homes for roughly half the locals, capped by pool.
    (func.locals as usize).div_ceil(2)
}

/// Whether a function makes no calls.
fn function_is_leaf(func: &Function) -> bool {
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
