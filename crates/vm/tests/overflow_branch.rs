//! Executes a program whose conditional branch overflows its reduced-
//! resolution offset field, forcing the compressor's overflow-jump-table
//! rewrite (§3.2.2) — then runs it with the table installed in data memory,
//! proving the rewritten dispatch sequence works end to end.

use codense_core::compressor::{Atom, OVERFLOW_TABLE_HI};
use codense_core::{verify::verify, CompressedProgram, CompressionConfig, Compressor};
use codense_obj::ObjectModule;
use codense_ppc::asm::Assembler;
use codense_ppc::insn::Insn;
use codense_ppc::reg::*;
use codense_vm::run::{run, RunResult};
use codense_vm::{machine::Machine, LinearFetcher, PredecodedFetcher};

/// A program where `beq` must skip ~1200 unique instructions: under the
/// nibble scheme that is > 8192 nibbles, beyond the 14-bit field at 4-bit
/// granularity.
fn overflowing_module() -> ObjectModule {
    let mut a = Assembler::new();
    a.emit(Insn::Cmpwi { bf: CR0, ra: R4, si: 0 });
    a.beq(CR0, "far"); // taken when r4 == 0
                       // Filler: unique instructions (incompressible) so the span stays wide.
    for i in 0..1200i32 {
        let rt = Gpr::new(3 + (i % 4) as u8).unwrap();
        a.emit(Insn::Addi { rt, ra: rt, si: (i % 3000) as i16 + 1 });
    }
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 111 }); // fallthrough result
    a.emit(Insn::Sc);
    a.label("far");
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 222 }); // taken result
    a.emit(Insn::Sc);
    let mut m = ObjectModule::new("overflow", codense_obj::IsaId::Ppc);
    m.code = a.finish().unwrap();
    m.validate_with(codense_isa::IsaRef(&codense_ppc::ISA)).unwrap();
    m
}

#[test]
fn overflow_rewrite_happens_and_verifies() {
    let m = overflowing_module();
    let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
    let rewritten = c.atoms.iter().filter(|a| matches!(a, Atom::ViaTable { .. })).count();
    assert!(rewritten >= 1, "expected at least one overflow rewrite");
    assert_eq!(c.overflow_table.len(), rewritten);
    verify(&m, &c).unwrap();
}

/// Nine groups of 1,000 `bne`s, each to a label past the group's 1,200
/// unique instructions, then one taken `beq` in the last group. Under the
/// nibble scheme every one of them dispatches through the overflow table:
/// 9,001 slots, past the 8,192 that a table load's signed 16-bit
/// displacement reaches on its own.
fn many_slots_module() -> ObjectModule {
    let mut a = Assembler::new();
    a.emit(Insn::Cmpwi { bf: CR0, ra: R4, si: 0 }); // r4 == 0: no `bne` is taken
    let mut filler = 0i16;
    for group in 0..9 {
        let label = format!("group{group}");
        for _ in 0..1000 {
            a.bne(CR0, &label);
        }
        if group == 8 {
            a.beq(CR0, "far"); // the last slot
        }
        for _ in 0..1200 {
            let rt = Gpr::new(5 + (filler % 4) as u8).unwrap();
            filler += 1;
            a.emit(Insn::Addi { rt, ra: rt, si: filler });
        }
        a.label(&label);
    }
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 111 }); // fallthrough result
    a.emit(Insn::Sc);
    a.label("far");
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 222 }); // taken result
    a.emit(Insn::Sc);
    let mut m = ObjectModule::new("many-slots", codense_obj::IsaId::Ppc);
    m.code = a.finish().unwrap();
    m.validate_with(codense_isa::IsaRef(&codense_ppc::ISA)).unwrap();
    m
}

/// Runs `m` natively and `c` with its overflow table installed at its
/// architected `.data` address, both with `r4` set; returns both results.
fn run_both(m: &ObjectModule, c: &CompressedProgram, r4: u32) -> (RunResult, RunResult) {
    let mut ref_machine = Machine::new(0x70_0000);
    ref_machine.gpr[4] = r4;
    let mut ref_fetch = LinearFetcher::new(m.code.clone());
    let reference = run(&mut ref_machine, &mut ref_fetch, 0, 100_000).unwrap();

    let mut machine = Machine::new(0x70_0000);
    machine.gpr[4] = r4;
    let table_base = (OVERFLOW_TABLE_HI as u32) << 16;
    for (slot, &addr) in c.overflow_table.iter().enumerate() {
        machine.store32(table_base + 4 * slot as u32, addr as u32).unwrap();
    }
    let mut fetch = PredecodedFetcher::new(c);
    let result = run(&mut machine, &mut fetch, 0, 100_000).unwrap();
    (reference, result)
}

#[test]
fn overflow_dispatch_executes_correctly() {
    let m = overflowing_module();
    let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
    assert!(!c.overflow_table.is_empty());

    for r4 in [0, 1] {
        let (reference, result) = run_both(&m, &c, r4);
        assert_eq!(result.exit_code, reference.exit_code, "r4 = {r4}");
        assert_eq!(reference.exit_code, if r4 == 0 { 222 } else { 111 });
    }
}

#[test]
fn slots_past_the_load_displacement_dispatch_correctly() {
    let m = many_slots_module();
    let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
    assert_eq!(c.overflow_table.len(), 9001);
    verify(&m, &c).unwrap();
    let (reference, result) = run_both(&m, &c, 0);
    assert_eq!((reference.exit_code, reference.steps), (222, 18_604));
    assert_eq!(result.exit_code, 222, "slot 9000 loaded the wrong target");
}

#[test]
fn ctr_decrementing_overflow_is_rejected() {
    // A bdnz spanning too far cannot be rewritten (the dispatch clobbers
    // CTR); the compressor must refuse rather than miscompile.
    let mut a = Assembler::new();
    a.label("top");
    for i in 0..1200i32 {
        let rt = Gpr::new(3 + (i % 4) as u8).unwrap();
        a.emit(Insn::Addi { rt, ra: rt, si: (i % 3000) as i16 + 2 });
    }
    a.bdnz("top");
    a.emit(Insn::Sc);
    let mut m = ObjectModule::new("bdnz-overflow", codense_obj::IsaId::Ppc);
    m.code = a.finish().unwrap();
    let err = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap_err();
    assert!(matches!(err, codense_core::CompressError::UnsupportedOverflowBranch { .. }));
}
