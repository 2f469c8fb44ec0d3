//! The random program builder: profiles → IR → object modules.
//!
//! Generation is fully deterministic (seeded [`Rng`]), so every run of the
//! reproduction sees bit-identical "benchmarks".

use codense_isa::IsaId;
use codense_obj::ObjectModule;

use crate::ir::{
    BinOp, CmpOp, Cond, Expr, FuncRef, Function, Global, Local, Program, Stmt, UnOp, Width,
};
use crate::lower::{lower_program, LowerOptions};
use crate::profile::{lib_profile, spec_profiles, BenchProfile};
use crate::rng::Rng;

/// Frequently used small constants, weighted the way compiler output skews
/// (0/1/powers of two dominate).
const COMMON_CONSTS: [i16; 14] = [0, 1, 2, 3, 4, 5, 8, 10, 16, 32, 64, 100, 255, -1];

struct Gen<'p> {
    rng: Rng,
    profile: &'p BenchProfile,
    /// Range of function indices this code may call.
    callees: std::ops::Range<u32>,
    /// Locals available in the current function.
    locals: u16,
    /// Whether the current function is a "giant" (very long loop bodies).
    giant: bool,
}

impl Gen<'_> {
    fn const_small(&mut self) -> i16 {
        if self.rng.chance(0.75) {
            *self.rng.pick(&COMMON_CONSTS)
        } else {
            self.rng.range(0, 511) as i16 - 128
        }
    }

    fn width(&mut self) -> Width {
        if self.rng.chance(self.profile.byte_ops) {
            if self.rng.chance(0.75) {
                Width::Byte
            } else {
                Width::Half
            }
        } else {
            Width::Word
        }
    }

    /// Picks a local, biased toward low indices (which the lowering maps to
    /// registers).
    fn local(&mut self) -> Local {
        let n = self.locals as usize;
        let a = self.rng.below(n);
        let b = self.rng.below(n);
        Local(a.min(b) as u16)
    }

    fn global(&mut self) -> Global {
        Global(self.rng.below(self.profile.globals as usize) as u16)
    }

    /// A leaf expression (depth 1), call-free.
    fn leaf(&mut self) -> Expr {
        match self.rng.weighted(&[5, 4, 2, 1]) {
            0 => Expr::Local(self.local(), Width::Word),
            1 => Expr::Const(self.const_small()),
            2 => Expr::Global(self.global(), self.width()),
            _ => {
                if self.rng.chance(0.05) {
                    Expr::ConstWide(self.rng.next_u64() as i32 & 0x00ff_ffff)
                } else {
                    Expr::Local(self.local(), self.width())
                }
            }
        }
    }

    /// An expression of at most the given depth, call-free.
    fn expr(&mut self, depth: usize) -> Expr {
        if depth <= 1 {
            return self.leaf();
        }
        match self.rng.weighted(&[5, 4, 2, 2]) {
            0 => self.leaf(),
            1 => {
                let sh_l = self.rng.range(1, 4) as u8;
                let sh_r = self.rng.range(1, 8) as u8;
                let op = *self.rng.pick(&[
                    BinOp::Add,
                    BinOp::Add,
                    BinOp::Sub,
                    BinOp::And,
                    BinOp::Or,
                    BinOp::Xor,
                    BinOp::Mul,
                    BinOp::Shl(sh_l),
                    BinOp::Shr(sh_r),
                    BinOp::Sar(sh_r),
                ]);
                // Right operand is frequently a small constant, like real code.
                let rhs = if self.rng.chance(0.55) {
                    Expr::Const(self.const_small())
                } else {
                    self.expr(depth - 1)
                };
                Expr::Bin(op, Box::new(self.expr(depth - 1)), Box::new(rhs))
            }
            2 => {
                let op = *self.rng.pick(&[UnOp::Neg, UnOp::Not, UnOp::ExtByte, UnOp::MaskByte]);
                Expr::Un(op, Box::new(self.expr(depth - 1)))
            }
            _ => Expr::Index {
                base: self.local(),
                index: Box::new(self.expr((depth - 1).min(2))),
                width: self.width(),
            },
        }
    }

    fn cond(&mut self) -> Cond {
        let unsigned = self.rng.chance(0.4);
        let op =
            *self.rng.pick(&[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]);
        let rhs = if self.rng.chance(0.7) {
            Expr::Const(if unsigned { self.const_small().abs() } else { self.const_small() })
        } else {
            self.leaf()
        };
        Cond {
            op,
            unsigned,
            lhs: self.expr(2),
            rhs,
            crf: u8::from(self.rng.chance(self.profile.cr1_bias)),
        }
    }

    fn call_args(&mut self) -> Vec<Expr> {
        let n = self.rng.range(0, 3);
        (0..n).map(|_| self.leaf()).collect()
    }

    fn callee(&mut self) -> FuncRef {
        FuncRef(self.callees.start + self.rng.below(self.callees.len()) as u32)
    }

    /// One statement; `nest` limits remaining control-flow nesting.
    fn stmt(&mut self, nest: usize) -> Stmt {
        let mut weights = self.profile.stmt_weights;
        if nest == 0 {
            // No further control flow: only assigns, calls, stores.
            weights[1] = 0;
            weights[2] = 0;
            weights[3] = 0;
            weights[5] = 0;
        }
        match self.rng.weighted(&weights) {
            0 => {
                // Assign: local or global target.
                if self.rng.chance(0.3) {
                    Stmt::AssignGlobal(
                        self.global(),
                        self.width(),
                        self.expr(self.profile.expr_depth),
                    )
                } else if self.rng.chance(0.18) {
                    // Call result assignment (the only place calls appear in
                    // expressions, per the lowering contract).
                    Stmt::AssignLocal(self.local(), Expr::Call(self.callee(), self.call_args()))
                } else {
                    Stmt::AssignLocal(self.local(), self.expr(self.profile.expr_depth))
                }
            }
            1 => {
                let then_ = self.body(nest - 1, 1, 3);
                let els = if self.rng.chance(self.profile.else_prob) {
                    self.body(nest - 1, 1, 3)
                } else {
                    Vec::new()
                };
                Stmt::If { cond: self.cond(), then_, els }
            }
            2 => {
                // Giant functions contain gcc-style very long loop bodies,
                // whose head conditional branch spans thousands of
                // instructions (the Table 1 "too narrow" tail).
                let body = if self.giant && nest == 2 {
                    self.body(1, 90, 200)
                } else {
                    self.body(nest - 1, 1, 4)
                };
                Stmt::While { cond: self.cond(), body }
            }
            3 => Stmt::For {
                var: self.local(),
                from: self.rng.range(0, 3) as i16,
                to: self.rng.range(4, 48) as i16,
                body: self.body(nest - 1, 1, 4),
            },
            4 => Stmt::Call(self.callee(), self.call_args()),
            5 => {
                let ncases =
                    self.rng.range(self.profile.switch_cases.0, self.profile.switch_cases.1);
                let cases = (0..ncases).map(|_| self.body(0, 1, 3)).collect();
                Stmt::Switch { scrutinee: self.expr(2), cases }
            }
            _ => Stmt::StoreIndex {
                base: self.local(),
                index: self.expr(2),
                width: self.width(),
                value: self.expr(self.profile.expr_depth.min(3)),
            },
        }
    }

    fn body(&mut self, nest: usize, lo: usize, hi: usize) -> Vec<Stmt> {
        let n = self.rng.range(lo, hi);
        (0..n).map(|_| self.stmt(nest)).collect()
    }

    fn function(&mut self, name: String, giant: bool) -> Function {
        self.giant = giant;
        let locals =
            self.rng.range(self.profile.locals.0 as usize, self.profile.locals.1 as usize) as u16;
        self.locals = locals.max(1);
        let params = self.rng.range(0, 3.min(self.locals as usize)) as u16;
        let n = if giant {
            self.rng.range(4, 8)
        } else {
            self.rng.range(self.profile.stmts.0, self.profile.stmts.1)
        };
        let mut body: Vec<Stmt> = (0..n).map(|_| self.stmt(2)).collect();
        // Most functions return a value; some return early inside the body.
        if self.rng.chance(0.25) && body.len() > 2 {
            let pos = self.rng.range(1, body.len() - 1);
            let ret = if self.rng.chance(0.7) {
                Stmt::Return(Some(Expr::Const(self.const_small())))
            } else {
                Stmt::Return(None)
            };
            // Early returns are conditional, as in real code.
            body.insert(pos, Stmt::If { cond: self.cond(), then_: vec![ret], els: vec![] });
        }
        if self.rng.chance(0.8) {
            body.push(Stmt::Return(Some(self.expr(2))));
        }
        Function { name, params, locals: self.locals, body }
    }
}

/// Generates the IR functions for one profile. `callees` is the index range
/// the generated code may call (the caller decides how user and library
/// functions are interleaved in the final program).
fn generate_functions(
    profile: &BenchProfile,
    name_prefix: &str,
    callees: std::ops::Range<u32>,
) -> Vec<Function> {
    let mut g = Gen { rng: Rng::new(profile.seed), profile, callees, locals: 1, giant: false };
    (0..profile.functions)
        .map(|i| g.function(format!("{name_prefix}{i}"), i < profile.giant_funcs))
        .collect()
}

/// Builds the complete IR program for one benchmark: user functions followed
/// by the shared statically-linked library.
pub fn build_program(profile: &BenchProfile) -> Program {
    let lib = lib_profile();
    let user_n = profile.functions as u32;
    let lib_n = lib.functions as u32;
    // User code calls anything; the library only calls itself (it must be
    // identical across benchmarks, so it cannot reference user functions).
    let mut functions = generate_functions(profile, "u_", 0..user_n + lib_n);
    functions.extend(generate_functions(&lib, "lib_", user_n..user_n + lib_n));
    Program { name: profile.name.to_owned(), functions, globals: profile.globals.max(lib.globals) }
}

/// Generates the object module for one benchmark profile on `isa`. Every
/// ISA lowers the same IR program (one generator stream); `options` sets
/// the lowering policy (e.g. standardized prologues, the paper's §5
/// proposal).
///
/// # Panics
///
/// Panics if lowering fails, which would indicate a generator bug (all
/// generated functions are small enough for every branch to resolve).
pub fn generate_module(profile: &BenchProfile, isa: IsaId, options: LowerOptions) -> ObjectModule {
    let program = build_program(profile);
    let module = lower_program(&program, isa, options).expect("generated program lowers");
    debug_assert_eq!(module.validate_with(crate::isa_ref(isa)), Ok(()));
    module
}

/// Generates the full eight-benchmark suite on `isa` in the paper's order,
/// with the default lowering.
pub fn generate_suite(isa: IsaId) -> Vec<ObjectModule> {
    spec_profiles().iter().map(|p| generate_module(p, isa, LowerOptions::default())).collect()
}

/// Generates a single benchmark on `isa` by its paper name (`"gcc"`,
/// `"ijpeg"`, …), with the default lowering.
pub fn benchmark(name: &str, isa: IsaId) -> Option<ObjectModule> {
    let profile = spec_profiles().into_iter().find(|p| p.name == name)?;
    Some(generate_module(&profile, isa, LowerOptions::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = &spec_profiles()[0];
        for isa in IsaId::ALL {
            let a = generate_module(p, isa, LowerOptions::default());
            let b = generate_module(p, isa, LowerOptions::default());
            assert_eq!(a.code, b.code);
            assert_eq!(a.functions, b.functions);
            assert_eq!(a.jump_tables, b.jump_tables);
        }
    }

    #[test]
    fn modules_validate() {
        // Smallest benchmark only; the full suite is exercised by
        // integration tests.
        for isa in IsaId::ALL {
            let m = benchmark("compress", isa).unwrap();
            assert_eq!(m.isa, isa);
            assert_eq!(m.validate_with(crate::isa_ref(isa)), Ok(()));
            assert!(m.len() > 2000, "compress stand-in too small: {}", m.len());
        }
    }

    #[test]
    fn library_tail_is_shared() {
        let a = benchmark("compress", IsaId::Ppc).unwrap();
        let b = benchmark("li", IsaId::Ppc).unwrap();
        // The final library function bodies are identical instruction
        // sequences modulo relocation; compare the *last* function's length.
        let fa = a.functions.last().unwrap();
        let fb = b.functions.last().unwrap();
        assert_eq!(fa.name, fb.name);
        assert_eq!(fa.len(), fb.len());
    }

    #[test]
    fn unknown_benchmark_is_none() {
        assert!(benchmark("espresso", IsaId::Ppc).is_none());
    }

    #[test]
    fn both_isas_lower_the_same_ir() {
        // The two backends consume the same IR program (one generator
        // stream), so they agree on structure: function count, names, and
        // jump-table shapes — only the instruction encoding differs.
        let ppc = benchmark("compress", IsaId::Ppc).unwrap();
        let mips = benchmark("compress", IsaId::Mips).unwrap();
        assert_eq!(ppc.functions.len(), mips.functions.len());
        for (a, b) in ppc.functions.iter().zip(&mips.functions) {
            assert_eq!(a.name, b.name);
        }
        assert_eq!(ppc.jump_tables.len(), mips.jump_tables.len());
        for (a, b) in ppc.jump_tables.iter().zip(&mips.jump_tables) {
            assert_eq!(a.targets.len(), b.targets.len());
        }
        // And the encodings really are different ISAs.
        assert_ne!(ppc.code, mips.code);
    }

    #[test]
    fn standardized_prologues_grow_code() {
        let profiles = spec_profiles();
        let p = profiles.iter().find(|p| p.name == "compress").unwrap();
        for isa in IsaId::ALL {
            let plain = generate_module(p, isa, LowerOptions::default());
            let std_pe = LowerOptions { standardize_prologues: true, ..Default::default() };
            let std_pe = generate_module(p, isa, std_pe);
            assert!(std_pe.len() > plain.len());
            assert_eq!(std_pe.validate_with(crate::isa_ref(isa)), Ok(()));
        }
    }
}
