//! SPEC-scale synthetic workload corpus.
//!
//! The paper evaluated statically-linked SPEC CINT95 binaries — tens of
//! thousands to millions of instructions — while the repository's benchmark
//! generator (`codense-codegen`) tops out at a few thousand. This crate
//! closes that gap: it builds *runnable* programs of 10K to 1M+ lowered
//! instructions on both ISAs, with the structure that dominates real
//! statically-linked binaries:
//!
//! * **A duplicated library layer.** Every module carries its own copy of
//!   the same `dup` library routines, stamped from identical IR so the
//!   lowered bodies are byte-identical across modules — the cross-module
//!   repetition a dictionary compressor feeds on (the paper's §1.1
//!   observation at link scale).
//! * **Deep multi-module call graphs.** A dispatcher root fans out through
//!   per-group jump-table dispatchers to every module's root, each of which
//!   drives a chain of module-internal helpers into the library layer. All
//!   calls go from lower to higher function indices, so the static call
//!   graph is a DAG and every run terminates.
//! * **Big switch dispatch.** The main loop funnels through 16-way
//!   jump-table switches (bounded by the lowering's 511-table addressing
//!   limit), so the compressed-domain jump-table patching and the VM's
//!   indirect-branch path are exercised at scale.
//! * **Cold error paths.** Most static bulk hangs off `if (error_flag)`
//!   guards on global 0, which is never written: statically present (and
//!   compressed), dynamically never executed — the hot/cold split real
//!   programs exhibit and the hybrid profiler models.
//!
//! Programs are seeded-deterministic: the same [`CorpusSpec`] always builds
//! the same module, byte for byte. Every program starts with the lowering's
//! entry stub (`bl F0; sc`), runs under `codense-vm` from PC 0, halts with a
//! deterministic exit checksum, and holds under the fuzz crates' lockstep
//! oracle with the masks [`CorpusProgram::mask_gprs`] /
//! [`CorpusProgram::mem_mask_ranges`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use codense_codegen::ir::{
    BinOp, CmpOp, Cond, Expr, FuncRef, Function, Global, Local, Program, Stmt, Width,
};
use codense_codegen::lower::{code_addr_regs, lower_program, TABLE_STRIDE};
use codense_codegen::{LowerOptions, Rng};
use codense_core::telemetry;
use codense_isa::{Core, CoreVisitor, IsaId, IsaRef, MachineError, PredecodeCore};
use codense_obj::ObjectModule;
use codense_vm::{run, LinearFetcher, RunResult};

/// Data-memory size every corpus program runs with: 8 MiB covers the global
/// area at `0x0040_0000`, the jump tables at [`TABLE_BASE`], and the stack
/// parked near the top.
pub const MEM_BYTES: usize = 1 << 23;

/// Base byte address of jump table 0; table *t* lives at
/// `TABLE_BASE + 64t`, where the lowering's switch template addresses it
/// (16 entries max).
pub use codense_codegen::lower::TABLE_BASE;

/// Global variable slots (global 0 is the never-written cold-path flag).
const GLOBALS: u16 = 256;

/// Module-internal helper functions chained below each root.
const INTERNALS: usize = 5;

/// Cold-path bulk multiplier: how many statements each never-executed
/// error-handling block carries, so a large share of every program is
/// statically present but dynamically dead.
const COLD_WEIGHT: usize = 3;

/// Jump-table budget: the lowering addresses table *t* at `table_id * 64`
/// through a signed 16-bit immediate, capping ids at 511. Hot dispatch
/// switches stop at 350 and cold switches at 480, leaving headroom.
const HOT_TABLE_CEILING: usize = 350;
const COLD_TABLE_CEILING: usize = 480;

/// Bytes below the top of memory masked from lockstep memory comparison:
/// the stack region, where spilled link-register values (fetch-domain
/// addresses, legitimately different between native and compressed runs)
/// go stale after frames pop.
const STACK_MASK_BYTES: usize = 64 << 10;

/// Which backend a corpus program is lowered for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorpusIsa {
    /// PowerPC (the paper's target).
    Ppc,
    /// The MIPS backend.
    Mips,
}

impl CorpusIsa {
    /// The ISA tag the program's module records.
    pub fn id(self) -> IsaId {
        match self {
            CorpusIsa::Ppc => IsaId::Ppc,
            CorpusIsa::Mips => IsaId::Mips,
        }
    }

    /// The compressor-facing ISA handle.
    pub fn isa_ref(self) -> IsaRef {
        codense_codegen::isa_ref(self.id())
    }

    /// The CLI spelling (`ppc` / `mips`).
    pub fn name(self) -> &'static str {
        self.id().name()
    }
}

/// The corpus knobs. Same spec ⇒ same program, byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusSpec {
    /// Target static size in lowered instructions. The builder calibrates
    /// module count toward this; [`CorpusStats::insns`] records the actual
    /// size (within ~10–15% of the target).
    pub insns: usize,
    /// Identical library-routine copies stamped into every module — the
    /// duplication knob. More copies ⇒ more cross-module repetition ⇒
    /// better dictionary compression.
    pub dup: usize,
    /// PRNG seed for everything the spec doesn't pin.
    pub seed: u64,
    /// Approximate dynamic instruction count of a full run. The builder
    /// measures one dispatch pass and sets the main loop's pass count so a
    /// run executes about this many instructions before halting.
    pub dynamic_target: u64,
}

impl Default for CorpusSpec {
    fn default() -> CorpusSpec {
        CorpusSpec { insns: 100_000, dup: 8, seed: 0xC0DE_5EED, dynamic_target: 4_000_000 }
    }
}

/// What the builder actually produced (the spec gives targets; these are
/// measurements of the deterministic result).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStats {
    /// Modules in the program.
    pub modules: usize,
    /// Total functions (dispatchers + roots + internals + library copies).
    pub functions: usize,
    /// Lowered instruction count (`module.code.len()`).
    pub insns: usize,
    /// Jump tables emitted.
    pub jump_tables: usize,
    /// Main-loop dispatch passes (the dynamic-size calibration result).
    pub passes: u32,
    /// Instructions a full native run executes before halting.
    pub dynamic_insns: u64,
    /// The deterministic exit checksum a run halts with.
    pub exit_code: u32,
}

/// A built corpus program: the lowered module plus everything needed to run
/// it (table placement, memory size, lockstep masks).
#[derive(Debug, Clone)]
pub struct CorpusProgram {
    /// The spec this program was built from.
    pub spec: CorpusSpec,
    /// The backend it is lowered for.
    pub isa: CorpusIsa,
    /// The lowered, validated module (starts with the entry stub at
    /// instruction 0; running it from PC 0 halts with
    /// [`CorpusStats::exit_code`]).
    pub module: ObjectModule,
    /// Byte address of each jump table (`TABLE_BASE + 64t`, matching the
    /// addresses the lowered code computes).
    pub table_addrs: Vec<u32>,
    /// Measurements of the built program.
    pub stats: CorpusStats,
}

/// Why a build failed. Lowering inside the documented envelope (function
/// bodies within conditional-branch reach, ≤ 480 jump tables) cannot fail;
/// these surface misuse and envelope bugs as typed errors rather than
/// panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The lowering or module validation rejected the program.
    Lower(String),
    /// The calibration run hit its step ceiling without halting.
    NoHalt,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Lower(e) => write!(f, "corpus lowering failed: {e}"),
            BuildError::NoHalt => write!(f, "corpus calibration run did not halt"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds the corpus program for `spec` on `isa`.
///
/// Deterministic: the same `(spec, isa)` always yields the same module.
/// The builder sizes in two passes (module count toward `spec.insns`, then
/// main-loop passes toward `spec.dynamic_target` by measuring one dispatch
/// pass in the VM), so it lowers and runs the program internally.
///
/// # Errors
///
/// [`BuildError`] if lowering rejects the program or a calibration run
/// fails to halt — neither occurs inside the documented spec envelope.
pub fn build(spec: &CorpusSpec, isa: CorpusIsa) -> Result<CorpusProgram, BuildError> {
    let _phase = telemetry::phase("corpus");
    let per_module = estimate_module_insns(spec);
    let overhead = 120;
    let mut modules = clamp_modules(spec.insns.saturating_sub(overhead) / per_module.max(1));

    let mut module = lower_ir(spec, modules, 1, isa)?;
    let actual = module.code.len();
    // One proportional correction toward the static target.
    if actual.abs_diff(spec.insns) * 10 > spec.insns {
        let scaled = clamp_modules(modules * spec.insns / actual.max(1));
        if scaled != modules {
            modules = scaled;
            module = lower_ir(spec, modules, 1, isa)?;
        }
    }

    // Measure one dispatch pass, then size the main loop for the dynamic
    // target. The single-pass run also proves termination.
    let one_pass = run_module(&module, isa, 200_000_000).map_err(|e| match e {
        MachineError::StepLimit => BuildError::NoHalt,
        other => BuildError::Lower(other.to_string()),
    })?;
    let passes = (spec.dynamic_target / one_pass.steps.max(1)).clamp(1, 20_000) as u32;
    let final_run = if passes > 1 {
        module = lower_ir(spec, modules, passes, isa)?;
        run_module(&module, isa, spec.dynamic_target * 4 + 50_000_000).map_err(|e| match e {
            MachineError::StepLimit => BuildError::NoHalt,
            other => BuildError::Lower(other.to_string()),
        })?
    } else {
        one_pass
    };

    module.validate_with(isa.isa_ref()).map_err(|e| BuildError::Lower(e.to_string()))?;
    let table_addrs: Vec<u32> = (0..module.jump_tables.len()).map(table_addr).collect();
    let stats = CorpusStats {
        modules,
        functions: module.functions.len(),
        insns: module.code.len(),
        jump_tables: module.jump_tables.len(),
        passes,
        dynamic_insns: final_run.steps,
        exit_code: final_run.exit_code,
    };
    Ok(CorpusProgram { spec: spec.clone(), isa, module, table_addrs, stats })
}

impl CorpusProgram {
    /// Runs the program natively (linear fetch) to completion.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] the run raises (a healthy corpus program halts
    /// cleanly; see [`CorpusStats::dynamic_insns`] for the step budget it
    /// needs).
    pub fn run_native(&self, max_steps: u64) -> Result<RunResult, MachineError> {
        run_module(&self.module, self.isa, max_steps)
    }

    /// GPR numbers that legitimately hold fetch-domain addresses under this
    /// ISA's lowering templates, for lockstep masking: the link-register
    /// path and the jump-table dispatch scratch
    /// ([`code_addr_regs`]).
    pub fn mask_gprs(&self) -> &'static [u8] {
        code_addr_regs(self.isa.id())
    }

    /// Byte ranges excluded from lockstep memory comparison: the jump-table
    /// region (seeded domain-specifically by construction) and the stack
    /// region (stale spilled link-register values).
    pub fn mem_mask_ranges(&self) -> Vec<std::ops::Range<usize>> {
        let tables = TABLE_BASE as usize..table_addr(self.table_addrs.len()) as usize;
        vec![tables, MEM_BYTES - STACK_MASK_BYTES..MEM_BYTES]
    }
}

/// Byte address of jump table `t`.
fn table_addr(t: usize) -> u32 {
    TABLE_BASE + TABLE_STRIDE * t as u32
}

fn clamp_modules(n: usize) -> usize {
    n.clamp(1, 4000)
}

/// Rough lowered-size estimate of one module; the proportional correction
/// pass absorbs the error.
fn estimate_module_insns(spec: &CorpusSpec) -> usize {
    let per_fn = 34 + 30 * COLD_WEIGHT;
    (1 + INTERNALS + spec.dup) * per_fn
}

fn lower_ir(
    spec: &CorpusSpec,
    modules: usize,
    passes: u32,
    isa: CorpusIsa,
) -> Result<ObjectModule, BuildError> {
    let program = {
        let _phase = telemetry::phase("ir");
        build_ir(spec, modules, passes)
    };
    let _phase = telemetry::phase("lower");
    let options = LowerOptions { entry_stub: true, ..LowerOptions::default() };
    lower_program(&program, isa.id(), options).map_err(|e| BuildError::Lower(e.to_string()))
}

/// Seeds `core`'s copy of `module`'s jump tables for *native*
/// (word-granular) execution: entry *e* of table *t* holds the
/// fetch-domain address `8 × target`, at [`TABLE_BASE`]` + 64t + 4e`.
///
/// # Errors
///
/// [`MachineError::MemoryFault`] if a table lies past the core's memory
/// (a corpus core has [`MEM_BYTES`], which holds every table).
pub fn seed_native_tables<C: Core + ?Sized>(
    core: &mut C,
    module: &ObjectModule,
) -> Result<(), MachineError> {
    for (t, table) in module.jump_tables.iter().enumerate() {
        for (e, &target) in table.targets.iter().enumerate() {
            core.write32(table_addr(t) + 4 * e as u32, 8 * target as u32)?;
        }
    }
    Ok(())
}

/// Runs `module` natively (linear fetch) from PC 0, on a fresh `isa`
/// machine with its jump tables seeded.
fn run_module(
    module: &ObjectModule,
    isa: CorpusIsa,
    max_steps: u64,
) -> Result<RunResult, MachineError> {
    codense_codegen::with_core(isa.id(), MEM_BYTES, NativeRun { module, max_steps })
}

/// [`run_module`]'s run, on the concrete machine [`with_core`] boots.
///
/// [`with_core`]: codense_codegen::with_core
struct NativeRun<'a> {
    module: &'a ObjectModule,
    max_steps: u64,
}

impl CoreVisitor for NativeRun<'_> {
    type Output = Result<RunResult, MachineError>;

    fn visit<C: PredecodeCore + 'static>(self, mut core: C) -> Self::Output {
        seed_native_tables(&mut core, self.module)?;
        let mut fetch = LinearFetcher::new(self.module.code.clone());
        run(&mut core, &mut fetch, 0, self.max_steps)
    }
}

// ---- IR construction ------------------------------------------------------

/// Function-index layout: `0` main, `1..=groups` group dispatchers, then
/// modules of `1 + INTERNALS + dup` functions each (root, internal chain,
/// library copies). Every call goes to a strictly higher index, so the call
/// graph is a DAG and termination is structural.
struct Layout {
    groups: usize,
    modules: usize,
    fns_per_module: usize,
}

impl Layout {
    fn new(modules: usize, dup: usize) -> Layout {
        Layout { groups: modules.div_ceil(16), modules, fns_per_module: 1 + INTERNALS + dup }
    }

    fn module_base(&self, m: usize) -> u32 {
        (1 + self.groups + m * self.fns_per_module) as u32
    }

    fn root(&self, m: usize) -> u32 {
        self.module_base(m)
    }

    fn internal(&self, m: usize, k: usize) -> u32 {
        self.module_base(m) + 1 + k as u32
    }

    fn lib(&self, m: usize, t: usize) -> u32 {
        self.module_base(m) + 1 + INTERNALS as u32 + t as u32
    }
}

struct Gen {
    rng: Rng,
    /// Jump tables emitted so far, counted in lowering encounter order
    /// (function index order, statement order) to respect the id budget.
    tables: usize,
}

fn build_ir(spec: &CorpusSpec, modules: usize, passes: u32) -> Program {
    let layout = Layout::new(modules, spec.dup);
    let mut g = Gen { rng: Rng::new(spec.seed), tables: 0 };
    let lib_templates: Vec<Function> = (0..spec.dup).map(|t| lib_template(spec.seed, t)).collect();

    let mut functions = Vec::with_capacity(1 + layout.groups + modules * layout.fns_per_module);
    functions.push(main_fn(&layout, passes));
    for grp in 0..layout.groups {
        g.tables += 1; // the dispatcher's switch
        functions.push(group_fn(&layout, grp));
    }
    for m in 0..modules {
        functions.push(g.root_fn(&layout, m));
        for k in 0..INTERNALS {
            functions.push(g.internal_fn(&layout, m, k));
        }
        for t in &lib_templates {
            functions.push(t.clone());
        }
    }
    Program { name: format!("corpus-{}k", spec.insns / 1000), functions, globals: GLOBALS }
}

/// `main`: seed the checksum, run `passes` dispatch passes, each sweeping
/// the 16 dispatch slots through every group dispatcher, and return the
/// accumulated checksum as the exit code.
fn main_fn(layout: &Layout, passes: u32) -> Function {
    let acc = Local(0);
    let tmp = Local(1);
    let i = Local(2);
    let r = Local(3);
    let mut inner = Vec::with_capacity(2 * layout.groups);
    for grp in 0..layout.groups {
        inner.push(Stmt::AssignLocal(
            tmp,
            Expr::Call(
                FuncRef(1 + grp as u32),
                vec![Expr::Local(i, Width::Word), Expr::Local(acc, Width::Word)],
            ),
        ));
        let op = if grp % 2 == 0 { BinOp::Xor } else { BinOp::Add };
        inner.push(Stmt::AssignLocal(
            acc,
            Expr::Bin(
                op,
                Box::new(Expr::Local(acc, Width::Word)),
                Box::new(Expr::Local(tmp, Width::Word)),
            ),
        ));
    }
    let body = vec![
        Stmt::AssignLocal(acc, Expr::ConstWide(0x243F_6A88)),
        Stmt::For {
            var: r,
            from: 0,
            to: passes.min(20_000) as i16,
            body: vec![Stmt::For { var: i, from: 0, to: 16, body: inner }],
        },
        Stmt::Return(Some(Expr::Local(acc, Width::Word))),
    ];
    Function { name: "main".to_string(), params: 0, locals: 4, body }
}

/// Group dispatcher `grp`: a 16-way jump-table switch on the dispatch slot,
/// each case calling one module root of the group (wrapping into earlier
/// modules when the last group is partial).
fn group_fn(layout: &Layout, grp: usize) -> Function {
    let i = Local(0);
    let acc = Local(1);
    let sum = Local(2);
    let tmp = Local(3);
    let cases: Vec<Vec<Stmt>> = (0..16)
        .map(|c| {
            let m = (grp * 16 + c) % layout.modules;
            let op = if c % 2 == 0 { BinOp::Add } else { BinOp::Xor };
            vec![
                Stmt::AssignLocal(
                    tmp,
                    Expr::Call(
                        FuncRef(layout.root(m)),
                        vec![Expr::Local(i, Width::Word), Expr::Local(sum, Width::Word)],
                    ),
                ),
                Stmt::AssignLocal(
                    sum,
                    Expr::Bin(
                        op,
                        Box::new(Expr::Local(sum, Width::Word)),
                        Box::new(Expr::Local(tmp, Width::Word)),
                    ),
                ),
            ]
        })
        .collect();
    let body = vec![
        Stmt::AssignLocal(sum, Expr::Local(acc, Width::Word)),
        Stmt::Switch {
            scrutinee: Expr::Bin(
                BinOp::And,
                Box::new(Expr::Local(i, Width::Word)),
                Box::new(Expr::Const(15)),
            ),
            cases,
        },
        Stmt::Return(Some(Expr::Local(sum, Width::Word))),
    ];
    Function { name: format!("grp{grp}"), params: 2, locals: 4, body }
}

/// Identical in every module: the library layer. Template `t` is generated
/// from its own seed stream, so the body depends only on `(seed, t)` — the
/// per-module copies lower to byte-identical code.
fn lib_template(seed: u64, t: usize) -> Function {
    let mut rng = Rng::new(seed ^ 0x11B_0000 ^ (t as u64).wrapping_mul(0x9E37_79B9));
    let a = Local(0);
    let b = Local(1);
    let acc = Local(2);
    let lv = Local(3);
    let g1 = Global(1 + rng.below(200) as u16);
    let g2 = Global(1 + rng.below(200) as u16);
    let k1 = rng.below(0x7fff) as i16;
    let loop_body = vec![
        Stmt::AssignLocal(
            acc,
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Local(acc, Width::Word)),
                Box::new(Expr::Bin(
                    BinOp::Shr(3),
                    Box::new(Expr::Local(acc, Width::Word)),
                    Box::new(Expr::Const(0)),
                )),
            ),
        ),
        Stmt::AssignLocal(
            acc,
            Expr::Bin(
                BinOp::Xor,
                Box::new(Expr::Local(acc, Width::Word)),
                Box::new(Expr::Local(a, Width::Word)),
            ),
        ),
    ];
    let body = vec![
        Stmt::AssignLocal(
            acc,
            Expr::Bin(
                BinOp::Xor,
                Box::new(Expr::Local(a, Width::Word)),
                Box::new(Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Local(b, Width::Word)),
                    Box::new(Expr::Const(k1)),
                )),
            ),
        ),
        Stmt::For { var: lv, from: 0, to: (3 + t % 5) as i16, body: loop_body },
        Stmt::If {
            cond: Cond {
                op: CmpOp::Lt,
                unsigned: true,
                lhs: Expr::Local(acc, Width::Word),
                rhs: Expr::Local(b, Width::Word),
                crf: 0,
            },
            then_: vec![Stmt::AssignLocal(
                acc,
                Expr::Bin(
                    BinOp::Mul,
                    Box::new(Expr::Local(acc, Width::Word)),
                    Box::new(Expr::Const(3)),
                ),
            )],
            els: vec![Stmt::AssignLocal(
                acc,
                Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Local(acc, Width::Word)),
                    Box::new(Expr::Const(7)),
                ),
            )],
        },
        Stmt::AssignGlobal(
            g2,
            Width::Word,
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Global(g2, Width::Word)),
                Box::new(Expr::Local(acc, Width::Word)),
            ),
        ),
        Stmt::Return(Some(Expr::Bin(
            BinOp::Add,
            Box::new(Expr::Local(acc, Width::Word)),
            Box::new(Expr::Global(g1, Width::Word)),
        ))),
    ];
    Function { name: format!("lib{t}"), params: 2, locals: 4, body }
}

impl Gen {
    /// Module root: hot arithmetic, an optional hot dispatch switch into
    /// the library layer, the internal-chain call, and a cold block.
    fn root_fn(&mut self, layout: &Layout, m: usize) -> Function {
        let i = Local(0);
        let acc = Local(1);
        let h = Local(2);
        let tmp = Local(4);
        let k = self.rng.below(0x4000) as i16;
        let mut body = vec![Stmt::AssignLocal(
            h,
            Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Local(i, Width::Word)),
                Box::new(Expr::Bin(
                    BinOp::Xor,
                    Box::new(Expr::Local(acc, Width::Word)),
                    Box::new(Expr::Const(k)),
                )),
            ),
        )];
        if self.tables < HOT_TABLE_CEILING {
            self.tables += 1;
            let cases: Vec<Vec<Stmt>> = (0..8)
                .map(|c| {
                    let t = (c + m) % layout.fns_per_module.saturating_sub(1 + INTERNALS).max(1);
                    vec![
                        Stmt::AssignLocal(
                            tmp,
                            Expr::Call(
                                FuncRef(layout.lib(m, t)),
                                vec![Expr::Local(i, Width::Word), Expr::Local(h, Width::Word)],
                            ),
                        ),
                        Stmt::AssignLocal(
                            h,
                            Expr::Bin(
                                BinOp::Add,
                                Box::new(Expr::Local(h, Width::Word)),
                                Box::new(Expr::Local(tmp, Width::Word)),
                            ),
                        ),
                    ]
                })
                .collect();
            body.push(Stmt::Switch {
                scrutinee: Expr::Bin(
                    BinOp::And,
                    Box::new(Expr::Local(i, Width::Word)),
                    Box::new(Expr::Const(7)),
                ),
                cases,
            });
        }
        body.push(Stmt::AssignLocal(
            tmp,
            Expr::Call(
                FuncRef(layout.internal(m, 0)),
                vec![Expr::Local(i, Width::Word), Expr::Local(h, Width::Word)],
            ),
        ));
        body.push(Stmt::AssignLocal(
            h,
            Expr::Bin(
                BinOp::Xor,
                Box::new(Expr::Local(h, Width::Word)),
                Box::new(Expr::Local(tmp, Width::Word)),
            ),
        ));
        body.push(self.cold_block(layout, m));
        body.push(Stmt::Return(Some(Expr::Local(h, Width::Word))));
        Function { name: format!("m{m}_root"), params: 2, locals: 6, body }
    }

    /// Module-internal helper `k`: hot loop + arithmetic, a link to the
    /// next helper in the chain, library calls, and a cold block.
    fn internal_fn(&mut self, layout: &Layout, m: usize, k: usize) -> Function {
        let x = Local(0);
        let y = Local(1);
        let acc = Local(2);
        let lv = Local(3);
        let tmp = Local(4);
        let c1 = self.rng.below(0x4000) as i16;
        let mut body = vec![
            Stmt::AssignLocal(
                acc,
                Expr::Bin(
                    BinOp::Xor,
                    Box::new(Expr::Local(x, Width::Word)),
                    Box::new(Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Local(y, Width::Word)),
                        Box::new(Expr::Const(c1)),
                    )),
                ),
            ),
            Stmt::For {
                var: lv,
                from: 0,
                to: 2 + self.rng.below(4) as i16,
                body: vec![Stmt::AssignLocal(
                    acc,
                    Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Local(acc, Width::Word)),
                        Box::new(Expr::Bin(
                            BinOp::Shr(5),
                            Box::new(Expr::Local(acc, Width::Word)),
                            Box::new(Expr::Const(0)),
                        )),
                    ),
                )],
            },
        ];
        if k + 1 < INTERNALS {
            body.push(Stmt::AssignLocal(
                tmp,
                Expr::Call(
                    FuncRef(layout.internal(m, k + 1)),
                    vec![Expr::Local(acc, Width::Word), Expr::Local(y, Width::Word)],
                ),
            ));
            body.push(Stmt::AssignLocal(
                acc,
                Expr::Bin(
                    BinOp::Add,
                    Box::new(Expr::Local(acc, Width::Word)),
                    Box::new(Expr::Local(tmp, Width::Word)),
                ),
            ));
        }
        for _ in 0..1 + self.rng.below(2) {
            let t = self.rng.below(layout.fns_per_module - 1 - INTERNALS);
            body.push(Stmt::AssignLocal(
                tmp,
                Expr::Call(
                    FuncRef(layout.lib(m, t)),
                    vec![Expr::Local(acc, Width::Word), Expr::Local(x, Width::Word)],
                ),
            ));
            body.push(Stmt::AssignLocal(
                acc,
                Expr::Bin(
                    BinOp::Xor,
                    Box::new(Expr::Local(acc, Width::Word)),
                    Box::new(Expr::Local(tmp, Width::Word)),
                ),
            ));
        }
        body.push(self.cold_block(layout, m));
        body.push(Stmt::Return(Some(Expr::Local(acc, Width::Word))));
        Function { name: format!("m{m}_f{k}"), params: 2, locals: 6, body }
    }

    /// The cold error path: statically rich, dynamically dead. Guarded on
    /// global 0, which no corpus program ever writes — zero-initialized
    /// memory keeps the guard false forever, so everything inside is
    /// compressed and fetched through coverage sweeps but never executed.
    fn cold_block(&mut self, layout: &Layout, m: usize) -> Stmt {
        let n = (3 + self.rng.below(4)) * COLD_WEIGHT;
        let mut stmts = Vec::with_capacity(n);
        for _ in 0..n {
            stmts.push(self.cold_stmt(layout, m, 0));
        }
        Stmt::If {
            cond: Cond {
                op: CmpOp::Ne,
                unsigned: false,
                lhs: Expr::Global(Global(0), Width::Word),
                rhs: Expr::Const(0),
                crf: 0,
            },
            then_: stmts,
            els: Vec::new(),
        }
    }

    fn cold_stmt(&mut self, layout: &Layout, m: usize, depth: usize) -> Stmt {
        let can_switch = depth == 0 && self.tables < COLD_TABLE_CEILING;
        let weights: &[u32] = if can_switch {
            &[4, 2, 2, 1, 2] // assign-global, store, if, switch, call
        } else {
            &[4, 2, 2, 0, 2]
        };
        match self.rng.weighted(weights) {
            0 => {
                let g = Global(1 + self.rng.below((GLOBALS - 1) as usize) as u16);
                let w = *self.rng.pick(&[Width::Byte, Width::Half, Width::Word]);
                Stmt::AssignGlobal(g, w, self.cold_expr(2))
            }
            1 => Stmt::StoreIndex {
                base: Local(5),
                index: Expr::Const(self.rng.below(64) as i16),
                width: *self.rng.pick(&[Width::Byte, Width::Word]),
                value: self.cold_expr(2),
            },
            2 => {
                let inner = (1..=2 + self.rng.below(2))
                    .map(|_| self.cold_stmt(layout, m, depth + 1))
                    .collect();
                Stmt::If {
                    cond: Cond {
                        op: *self.rng.pick(&[CmpOp::Lt, CmpOp::Gt, CmpOp::Eq, CmpOp::Ne]),
                        unsigned: self.rng.below(2) == 0,
                        lhs: self.cold_expr(1),
                        rhs: Expr::Const(self.rng.below(100) as i16),
                        crf: (self.rng.below(2)) as u8,
                    },
                    then_: inner,
                    els: Vec::new(),
                }
            }
            3 => {
                self.tables += 1;
                let ncases = 4 + self.rng.below(5);
                let cases =
                    (0..ncases).map(|_| vec![self.cold_stmt(layout, m, depth + 1)]).collect();
                Stmt::Switch {
                    scrutinee: Expr::Bin(
                        BinOp::And,
                        Box::new(self.cold_expr(1)),
                        Box::new(Expr::Const(ncases as i16 - 1)),
                    ),
                    cases,
                }
            }
            _ => {
                let t = self.rng.below(layout.fns_per_module - 1 - INTERNALS);
                Stmt::Call(
                    FuncRef(layout.lib(m, t)),
                    vec![self.cold_expr(1), Expr::Const(self.rng.below(50) as i16)],
                )
            }
        }
    }

    fn cold_expr(&mut self, depth: usize) -> Expr {
        if depth == 0 {
            return match self.rng.below(4) {
                0 => Expr::Const(self.rng.below(0x7fff) as i16),
                1 => Expr::ConstWide(self.rng.next_u64() as i32),
                2 => Expr::Local(Local(2 + self.rng.below(3) as u16), Width::Word),
                _ => Expr::Global(
                    Global(1 + self.rng.below((GLOBALS - 1) as usize) as u16),
                    Width::Word,
                ),
            };
        }
        match self.rng.below(3) {
            0 => Expr::Bin(
                *self.rng.pick(&[BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::Or, BinOp::And]),
                Box::new(self.cold_expr(depth - 1)),
                Box::new(self.cold_expr(0)),
            ),
            1 => Expr::Bin(
                BinOp::Shr(1 + self.rng.below(7) as u8),
                Box::new(self.cold_expr(depth - 1)),
                Box::new(Expr::Const(0)),
            ),
            _ => self.cold_expr(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> CorpusSpec {
        CorpusSpec { insns: 10_000, dynamic_target: 150_000, ..CorpusSpec::default() }
    }

    #[test]
    fn build_is_deterministic() {
        let a = build(&small_spec(), CorpusIsa::Ppc).unwrap();
        let b = build(&small_spec(), CorpusIsa::Ppc).unwrap();
        assert_eq!(a.module.code, b.module.code);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn static_size_lands_near_target() {
        for isa in [CorpusIsa::Ppc, CorpusIsa::Mips] {
            let p = build(&small_spec(), isa).unwrap();
            let insns = p.stats.insns;
            assert!(
                (7_000..=13_000).contains(&insns),
                "{}: {insns} insns for a 10k target",
                isa.name()
            );
        }
    }

    #[test]
    fn runs_and_halts_with_recorded_checksum() {
        for isa in [CorpusIsa::Ppc, CorpusIsa::Mips] {
            let p = build(&small_spec(), isa).unwrap();
            let r = p.run_native(p.stats.dynamic_insns + 10).unwrap();
            assert_eq!(r.steps, p.stats.dynamic_insns, "{}", isa.name());
            assert_eq!(r.exit_code, p.stats.exit_code, "{}", isa.name());
        }
    }

    #[test]
    fn dynamic_size_tracks_target() {
        let p = build(&small_spec(), CorpusIsa::Ppc).unwrap();
        // Pass-count calibration: within a factor of two of the request
        // (one pass is the quantum).
        assert!(p.stats.dynamic_insns >= 75_000, "{}", p.stats.dynamic_insns);
        assert!(p.stats.dynamic_insns <= 400_000, "{}", p.stats.dynamic_insns);
    }

    #[test]
    fn duplication_knob_changes_code_not_behaviour() {
        let base = build(&small_spec(), CorpusIsa::Ppc).unwrap();
        let solo = build(&CorpusSpec { dup: 1, ..small_spec() }, CorpusIsa::Ppc).unwrap();
        assert_ne!(base.module.code, solo.module.code);
        assert!(base.stats.functions > solo.stats.functions);
    }

    #[test]
    fn seeds_differ() {
        let a = build(&small_spec(), CorpusIsa::Ppc).unwrap();
        let b = build(&CorpusSpec { seed: 7, ..small_spec() }, CorpusIsa::Ppc).unwrap();
        assert_ne!(a.module.code, b.module.code);
    }

    #[test]
    fn table_budget_is_respected() {
        let p = build(&small_spec(), CorpusIsa::Ppc).unwrap();
        assert!(p.stats.jump_tables <= 511, "{}", p.stats.jump_tables);
        for t in &p.module.jump_tables {
            assert!(t.targets.len() <= 16);
        }
    }
}
