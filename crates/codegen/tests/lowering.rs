//! Lowering correctness: template shapes, metadata, and — the strongest
//! check — actually executing lowered IR on the VM and comparing against
//! host-evaluated semantics.

use codense_codegen::ir::*;
use codense_codegen::lower::{lower_program_with, LowerOptions};
use codense_codegen::{build_program, spec_profiles};
use codense_ppc::{decode, Insn};
use codense_vm::{machine::Machine, run::run, LinearFetcher};

/// The synthetic `.data` base the lowering uses for globals (see lower.rs).
const GLOBAL_BASE: u32 = 0x0040_0000;

fn lower_one(func: Function, globals: u16) -> codense_obj::ObjectModule {
    let program = Program { name: "t".into(), functions: vec![func], globals };
    lower_program_with(&program, LowerOptions::default()).unwrap()
}

/// Runs function 0 of a module to completion: enters at its first
/// instruction with LR pointing at an appended `sc`, returns the machine.
fn execute(module: &codense_obj::ObjectModule, args: &[u32]) -> Machine {
    let mut code = module.code.clone();
    let halt_index = code.len();
    code.push(codense_ppc::encode(&Insn::Sc));
    let mut machine = Machine::new(0x50_0000); // covers the global area
    machine.lr = (8 * halt_index) as u32;
    for (i, &v) in args.iter().enumerate() {
        machine.gpr[3 + i] = v;
    }
    let mut fetch = LinearFetcher::new(code);
    run(&mut machine, &mut fetch, 8 * module.functions[0].start as u64, 1_000_000)
        .expect("lowered function runs to completion");
    machine
}

#[test]
fn arithmetic_lowers_to_correct_semantics() {
    // g0 = (7 + 5) * 3 - 4  == 32
    let func = Function {
        name: "f".into(),
        params: 0,
        locals: 2,
        body: vec![
            Stmt::AssignLocal(
                Local(0),
                Expr::Bin(
                    BinOp::Mul,
                    Box::new(Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Const(7)),
                        Box::new(Expr::Const(5)),
                    )),
                    Box::new(Expr::Const(3)),
                ),
            ),
            Stmt::AssignGlobal(
                Global(0),
                Width::Word,
                Expr::Bin(
                    BinOp::Sub,
                    Box::new(Expr::Local(Local(0), Width::Word)),
                    Box::new(Expr::Const(4)),
                ),
            ),
            Stmt::Return(None),
        ],
    };
    let module = lower_one(func, 4);
    let machine = execute(&module, &[]);
    assert_eq!(machine.load32(GLOBAL_BASE).unwrap(), 32);
}

#[test]
fn params_return_and_calls_work() {
    // f0(a, b) = f1(a) + b, f1(x) = x * x  => f0(6, 9) = 45
    let f0 = Function {
        name: "f0".into(),
        params: 2,
        locals: 3,
        body: vec![
            Stmt::AssignLocal(
                Local(2),
                Expr::Call(FuncRef(1), vec![Expr::Local(Local(0), Width::Word)]),
            ),
            Stmt::Return(Some(Expr::Bin(
                BinOp::Add,
                Box::new(Expr::Local(Local(2), Width::Word)),
                Box::new(Expr::Local(Local(1), Width::Word)),
            ))),
        ],
    };
    let f1 = Function {
        name: "f1".into(),
        params: 1,
        locals: 1,
        body: vec![Stmt::Return(Some(Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Local(Local(0), Width::Word)),
            Box::new(Expr::Local(Local(0), Width::Word)),
        )))],
    };
    let program = Program { name: "t".into(), functions: vec![f0, f1], globals: 1 };
    let module = lower_program_with(&program, LowerOptions::default()).unwrap();
    let machine = execute(&module, &[6, 9]);
    assert_eq!(machine.gpr[3], 45);
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
                body: vec![Stmt::AssignLocal(
                    Local(1),
                    Expr::Bin(
                        BinOp::Add,
                        Box::new(Expr::Local(Local(1), Width::Word)),
                        Box::new(Expr::Local(Local(0), Width::Word)),
                    ),
                )],
            },
            Stmt::AssignGlobal(Global(0), Width::Word, Expr::Local(Local(1), Width::Word)),
            Stmt::If {
                cond: Cond {
                    op: CmpOp::Gt,
                    unsigned: false,
                    lhs: Expr::Local(Local(1), Width::Word),
                    rhs: Expr::Const(40),
                    crf: 0,
                },
                then_: vec![Stmt::AssignGlobal(Global(1), Width::Word, Expr::Const(1))],
                els: vec![Stmt::AssignGlobal(Global(1), Width::Word, Expr::Const(2))],
            },
            Stmt::Return(None),
        ],
    };
    let module = lower_one(func, 4);
    let machine = execute(&module, &[]);
    assert_eq!(machine.load32(GLOBAL_BASE).unwrap(), 45);
    assert_eq!(machine.load32(GLOBAL_BASE + 4).unwrap(), 1);
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
                    lhs: Expr::Local(Local(0), Width::Word),
                    rhs: Expr::Const(100),
                    crf: 1,
                },
                body: vec![Stmt::AssignLocal(
                    Local(0),
                    Expr::Bin(
                        BinOp::Shl(1),
                        Box::new(Expr::Local(Local(0), Width::Word)),
                        Box::new(Expr::Const(0)),
                    ),
                )],
            },
            Stmt::AssignGlobal(
                Global(0),
                Width::Word,
                Expr::Un(UnOp::Neg, Box::new(Expr::Local(Local(0), Width::Word))),
            ),
            Stmt::Return(None),
        ],
    };
    let module = lower_one(func, 1);
    let machine = execute(&module, &[]);
    assert_eq!(machine.load32(GLOBAL_BASE).unwrap(), (-128i32) as u32);
}

#[test]
fn prologue_template_shape() {
    let profile = &spec_profiles()[0];
    let program = build_program(profile);
    let module = lower_program_with(&program, LowerOptions::default()).unwrap();
    // Every function starts with the frame-allocation store-with-update.
    for func in &module.functions {
        let first = decode(module.code[func.start]);
        assert!(matches!(first, Insn::Stwu { .. }), "{}: prologue starts {first:?}", func.name);
        // Epilogue ends with blr.
        let last = decode(module.code[func.end - 1]);
        assert!(matches!(last, Insn::Bclr { .. }), "{}: ends {last:?}", func.name);
    }
}

#[test]
fn standardized_prologues_are_identical() {
    let profile = &spec_profiles()[0];
    let program = build_program(profile);
    let module = lower_program_with(
        &program,
        LowerOptions { standardize_prologues: true, ..LowerOptions::default() },
    )
    .unwrap();
    // The 4-instruction core prologue (stwu/mflr/stw/stmw) is bit-identical
    // in every function — the property that makes it one dictionary entry.
    let reference: Vec<u32> = module.code[module.functions[0].start..][..4].to_vec();
    for func in &module.functions {
        assert_eq!(&module.code[func.start..func.start + 4], &reference[..], "{}", func.name);
    }
}

#[test]
fn switches_produce_consistent_jump_tables() {
    let profile = &spec_profiles()[1]; // gcc: switch-heavy
    let module = codense_codegen::generate_module(profile);
    assert!(!module.jump_tables.is_empty());
    let bbs = codense_obj::BasicBlocks::compute_with(&module, codense_codegen::isa_ref(module.isa));
    for table in &module.jump_tables {
        assert!(table.targets.len() >= 2);
        for &t in &table.targets {
            assert!(bbs.is_leader(t), "jump table target {t} must start a block");
        }
    }
}

#[test]
fn lowering_is_deterministic() {
    let profile = &spec_profiles()[3];
    let a = codense_codegen::generate_module(profile);
    let b = codense_codegen::generate_module(profile);
    assert_eq!(a.code, b.code);
}
