//! Lowering correctness: template shapes, metadata, and — the strongest
//! check — actually executing lowered IR on each ISA's machine and
//! comparing against host-evaluated semantics.

use codense_codegen::ir::*;
use codense_codegen::lower::{lower_program, LowerOptions, TABLE_BASE, TABLE_STRIDE};
use codense_codegen::{build_program, generate_module, isa_ref, spec_profiles, with_core};
use codense_isa::{Core, CoreVisitor, IsaId, PredecodeCore};
use codense_mips::{reg as mreg, MInsn};
use codense_ppc::Insn;
use codense_vm::{run::run, LinearFetcher};

/// The synthetic `.data` base the lowering uses for globals (see lower.rs).
const GLOBAL_BASE: u32 = 0x0040_0000;

fn program(functions: Vec<Function>, globals: u16) -> Program {
    Program { name: "t".into(), functions, globals }
}

/// Lowers `program` for `isa` behind the entry stub and runs it to the
/// halt on the ISA's concrete machine: function 0 gets `args` in the
/// argument registers and its return value is the exit code. Jump tables
/// are seeded for native execution. Returns the halted machine.
fn execute(program: &Program, isa: IsaId, args: &[u32]) -> Box<dyn Core> {
    let options = LowerOptions { entry_stub: true, ..LowerOptions::default() };
    let module = lower_program(program, isa, options).unwrap();
    let arg0 = if isa == IsaId::Ppc { 3 } else { 4 };
    // 6 MiB holds the globals and the jump tables.
    with_core(isa, 0x60_0000, Execute { module, arg0, args })
}

/// [`execute`]'s run, on the concrete machine `with_core` boots.
struct Execute<'a> {
    module: codense_obj::ObjectModule,
    arg0: usize,
    args: &'a [u32],
}

impl CoreVisitor for Execute<'_> {
    type Output = Box<dyn Core>;

    fn visit<C: PredecodeCore + 'static>(self, mut core: C) -> Box<dyn Core> {
        for (i, &v) in self.args.iter().enumerate() {
            core.set_gpr(self.arg0 + i, v);
        }
        for (t, table) in self.module.jump_tables.iter().enumerate() {
            for (e, &target) in table.targets.iter().enumerate() {
                let addr = TABLE_BASE + TABLE_STRIDE * t as u32 + 4 * e as u32;
                core.write32(addr, 8 * target as u32).unwrap();
            }
        }
        let mut fetch = LinearFetcher::new(self.module.code);
        run(&mut core, &mut fetch, 0, 1_000_000).expect("lowered program runs to completion");
        Box::new(core)
    }
}

fn load32(core: &dyn Core, addr: u32) -> u32 {
    let a = addr as usize;
    u32::from_be_bytes(core.mem_bytes()[a..a + 4].try_into().unwrap())
}

fn local(l: u16) -> Expr {
    Expr::Local(Local(l), Width::Word)
}

fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
    Expr::Bin(op, Box::new(a), Box::new(b))
}

#[test]
fn arithmetic_lowers_to_correct_semantics() {
    // g0 = (7 + 5) * 3 - 4  == 32
    let seven_plus_five = bin(BinOp::Add, Expr::Const(7), Expr::Const(5));
    let func = Function {
        name: "f".into(),
        params: 0,
        locals: 2,
        body: vec![
            Stmt::AssignLocal(Local(0), bin(BinOp::Mul, seven_plus_five, Expr::Const(3))),
            Stmt::AssignGlobal(Global(0), Width::Word, bin(BinOp::Sub, local(0), Expr::Const(4))),
            Stmt::Return(None),
        ],
    };
    let program = program(vec![func], 4);
    for isa in IsaId::ALL {
        assert_eq!(load32(&*execute(&program, isa, &[]), GLOBAL_BASE), 32, "{isa:?}");
    }
}

#[test]
fn params_return_and_calls_work() {
    // f0(a, b) = f1(a) + b, f1(x) = x * x  => f0(6, 9) = 45
    let f0 = Function {
        name: "f0".into(),
        params: 2,
        locals: 3,
        body: vec![
            Stmt::AssignLocal(Local(2), Expr::Call(FuncRef(1), vec![local(0)])),
            Stmt::Return(Some(bin(BinOp::Add, local(2), local(1)))),
        ],
    };
    let f1 = Function {
        name: "f1".into(),
        params: 1,
        locals: 1,
        body: vec![Stmt::Return(Some(bin(BinOp::Mul, local(0), local(0))))],
    };
    let program = program(vec![f0, f1], 1);
    for isa in IsaId::ALL {
        assert_eq!(execute(&program, isa, &[6, 9]).exit_code(), 45, "{isa:?}");
    }
}

#[test]
fn control_flow_lowers_correctly() {
    // g0 = sum of i for i in 0..10 via For; g1 = 1 if g0 > 40 else 2.
    let func = Function {
        name: "f".into(),
        params: 0,
        locals: 2,
        body: vec![
            Stmt::AssignLocal(Local(1), Expr::Const(0)),
            Stmt::For {
                var: Local(0),
                from: 0,
                to: 10,
                body: vec![Stmt::AssignLocal(Local(1), bin(BinOp::Add, local(1), local(0)))],
            },
            Stmt::AssignGlobal(Global(0), Width::Word, local(1)),
            Stmt::If {
                cond: Cond {
                    op: CmpOp::Gt,
                    unsigned: false,
                    lhs: local(1),
                    rhs: Expr::Const(40),
                    crf: 0,
                },
                then_: vec![Stmt::AssignGlobal(Global(1), Width::Word, Expr::Const(1))],
                els: vec![Stmt::AssignGlobal(Global(1), Width::Word, Expr::Const(2))],
            },
            Stmt::Return(None),
        ],
    };
    let program = program(vec![func], 4);
    for isa in IsaId::ALL {
        let core = execute(&program, isa, &[]);
        assert_eq!(load32(&*core, GLOBAL_BASE), 45, "{isa:?}");
        assert_eq!(load32(&*core, GLOBAL_BASE + 4), 1, "{isa:?}");
    }
}

#[test]
fn while_and_unary_ops() {
    // x = 1; while (x < 100) x = x * 2;  g0 = -x  => x = 128, g0 = -128.
    let func = Function {
        name: "f".into(),
        params: 0,
        locals: 1,
        body: vec![
            Stmt::AssignLocal(Local(0), Expr::Const(1)),
            Stmt::While {
                cond: Cond {
                    op: CmpOp::Lt,
                    unsigned: false,
                    lhs: local(0),
                    rhs: Expr::Const(100),
                    crf: 1,
                },
                body: vec![Stmt::AssignLocal(
                    Local(0),
                    bin(BinOp::Shl(1), local(0), Expr::Const(0)),
                )],
            },
            Stmt::AssignGlobal(Global(0), Width::Word, Expr::Un(UnOp::Neg, Box::new(local(0)))),
            Stmt::Return(None),
        ],
    };
    let program = program(vec![func], 1);
    for isa in IsaId::ALL {
        assert_eq!(load32(&*execute(&program, isa, &[]), GLOBAL_BASE), (-128i32) as u32, "{isa:?}");
    }
}

#[test]
fn switches_dispatch_through_their_jump_tables() {
    // x = 100; switch (a) { 10, 11, 12 }; switch (a - 1) { x += 5, x += 7 };
    // return x. The first scrutinee is a register local, the second owns
    // a scratch register; an out-of-range value skips the switch.
    let set = |v| vec![Stmt::AssignLocal(Local(1), Expr::Const(v))];
    let add = |v| vec![Stmt::AssignLocal(Local(1), bin(BinOp::Add, local(1), Expr::Const(v)))];
    let func = Function {
        name: "f".into(),
        params: 1,
        locals: 2,
        body: vec![
            Stmt::AssignLocal(Local(1), Expr::Const(100)),
            Stmt::Switch { scrutinee: local(0), cases: vec![set(10), set(11), set(12)] },
            Stmt::Switch {
                scrutinee: bin(BinOp::Sub, local(0), Expr::Const(1)),
                cases: vec![add(5), add(7)],
            },
            Stmt::Return(Some(local(1))),
        ],
    };
    let program = program(vec![func], 1);
    for isa in IsaId::ALL {
        for (arg, want) in [(0, 10), (1, 16), (2, 19), (3, 100), (u32::MAX, 100)] {
            assert_eq!(execute(&program, isa, &[arg]).exit_code(), want, "{isa:?} a = {arg}");
        }
    }
}

#[test]
fn indexed_stores_and_loads_round_trip() {
    // p = &g[64]; q = &g[128] (a frame local); i = 1;
    // p[3] = 77 (word); q[i] = -2 (half); p[i] = 5 (byte);
    // return p[3] + q[i] + p[i] (zero-extended loads) == 77 + 0xfffe + 5.
    let index = |base: u16, index: Expr, width| Expr::Index {
        base: Local(base),
        index: Box::new(index),
        width,
    };
    let store = |base: u16, index: Expr, width, value: i16| Stmt::StoreIndex {
        base: Local(base),
        index,
        width,
        value: Expr::Const(value),
    };
    let func = Function {
        name: "f".into(),
        params: 0,
        locals: 3,
        body: vec![
            Stmt::AssignLocal(Local(0), Expr::ConstWide((GLOBAL_BASE + 0x100) as i32)),
            Stmt::AssignLocal(Local(2), Expr::ConstWide((GLOBAL_BASE + 0x200) as i32)),
            Stmt::AssignLocal(Local(1), Expr::Const(1)),
            store(0, Expr::Const(3), Width::Word, 77),
            store(2, local(1), Width::Half, -2),
            store(0, local(1), Width::Byte, 5),
            Stmt::Return(Some(bin(
                BinOp::Add,
                bin(
                    BinOp::Add,
                    index(0, Expr::Const(3), Width::Word),
                    index(2, local(1), Width::Half),
                ),
                index(0, local(1), Width::Byte),
            ))),
        ],
    };
    let program = program(vec![func], 256);
    for isa in IsaId::ALL {
        assert_eq!(execute(&program, isa, &[]).exit_code(), 77 + 0xfffe + 5, "{isa:?}");
    }
}

#[test]
fn prologue_template_shape() {
    let program = build_program(&spec_profiles()[0]);
    for isa in IsaId::ALL {
        let module = lower_program(&program, isa, LowerOptions::default()).unwrap();
        // Every function starts by allocating its frame and ends with the
        // return through the link register.
        for func in &module.functions {
            let (first, last) = (module.code[func.start], module.code[func.end - 1]);
            let shaped = match isa {
                IsaId::Ppc => {
                    matches!(codense_ppc::decode(first), Insn::Stwu { .. })
                        && matches!(codense_ppc::decode(last), Insn::Bclr { .. })
                }
                IsaId::Mips => {
                    matches!(codense_mips::decode(first), MInsn::Addiu { rt: mreg::SP, .. })
                        && codense_mips::decode(last) == MInsn::Jr { rs: mreg::RA }
                }
            };
            assert!(shaped, "{isa:?} {}: {first:08x} .. {last:08x}", func.name);
        }
    }
}

#[test]
fn standardized_prologues_are_identical() {
    let program = build_program(&spec_profiles()[0]);
    let options = LowerOptions { standardize_prologues: true, ..LowerOptions::default() };
    // The core prologue (PowerPC stwu/mflr/stw/stmw; MIPS addiu and seven
    // sw) is bit-identical in every function — the property that makes it
    // one dictionary entry.
    for (isa, len) in [(IsaId::Ppc, 4), (IsaId::Mips, 8)] {
        let module = lower_program(&program, isa, options).unwrap();
        let reference = &module.code[module.functions[0].start..][..len];
        for func in &module.functions {
            assert_eq!(&module.code[func.start..][..len], reference, "{isa:?} {}", func.name);
        }
    }
}

#[test]
fn switches_produce_consistent_jump_tables() {
    let profile = &spec_profiles()[1]; // gcc: switch-heavy
    for isa in IsaId::ALL {
        let module = generate_module(profile, isa, LowerOptions::default());
        assert!(!module.jump_tables.is_empty());
        let bbs = codense_obj::BasicBlocks::compute_with(&module, isa_ref(isa));
        for table in &module.jump_tables {
            assert!(table.targets.len() >= 2);
            for &t in &table.targets {
                assert!(bbs.is_leader(t), "{isa:?}: jump table target {t} must start a block");
            }
        }
    }
}

#[test]
fn lowering_is_deterministic() {
    let profile = &spec_profiles()[3];
    for isa in IsaId::ALL {
        let a = generate_module(profile, isa, LowerOptions::default());
        let b = generate_module(profile, isa, LowerOptions::default());
        assert_eq!(a.code, b.code, "{isa:?}");
    }
}
