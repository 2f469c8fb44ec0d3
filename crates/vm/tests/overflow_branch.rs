//! Executes a program whose conditional branch overflows its reduced-
//! resolution offset field, forcing the compressor's overflow-jump-table
//! rewrite (§3.2.2) — then runs it with the table installed in data memory,
//! proving the rewritten dispatch sequence works end to end.

use codense_core::compressor::{Atom, OVERFLOW_TABLE_HI};
use codense_core::{verify::verify, CompressionConfig, Compressor};
use codense_obj::ObjectModule;
use codense_ppc::asm::Assembler;
use codense_ppc::insn::Insn;
use codense_ppc::reg::*;
use codense_vm::{machine::Machine, run::run, LinearFetcher, PredecodedFetcher};

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

#[test]
fn overflow_dispatch_executes_correctly() {
    let m = overflowing_module();
    let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
    assert!(!c.overflow_table.is_empty());

    for (r4, _expected_tag) in [(0u32, "taken"), (1u32, "fallthrough")] {
        // Reference run (uncompressed).
        let mut ref_machine = Machine::new(0x70_0000);
        ref_machine.gpr[4] = r4;
        let mut ref_fetch = LinearFetcher::new(m.code.clone());
        let reference = run(&mut ref_machine, &mut ref_fetch, 0, 100_000).unwrap();

        // Compressed run: install the overflow table at its architected
        // .data address before starting.
        let mut machine = Machine::new(0x70_0000);
        machine.gpr[4] = r4;
        let table_base = (OVERFLOW_TABLE_HI as u32) << 16;
        for (slot, &addr) in c.overflow_table.iter().enumerate() {
            machine.store32(table_base + 4 * slot as u32, addr as u32).unwrap();
        }
        let mut fetch = PredecodedFetcher::new(&c);
        let result = run(&mut machine, &mut fetch, 0, 100_000).unwrap();

        assert_eq!(result.exit_code, reference.exit_code, "r4 = {r4}");
        assert_eq!(reference.exit_code, if r4 == 0 { 222 } else { 111 });
    }
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
