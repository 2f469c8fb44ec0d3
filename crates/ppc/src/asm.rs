//! A small label-resolving assembler for building runnable programs.
//!
//! Instructions are appended through [`Assembler::emit`] or the branch
//! helpers; [`Assembler::finish`] resolves label fixups into PC-relative
//! displacements and returns the final instruction words.
//!
//! ```
//! use codense_ppc::asm::Assembler;
//! use codense_ppc::insn::Insn;
//! use codense_ppc::reg::{R3, R0, CR0};
//!
//! # fn main() -> Result<(), codense_ppc::asm::AsmError> {
//! let mut a = Assembler::new();
//! a.emit(Insn::Addi { rt: R3, ra: R0, si: 10 });
//! a.label("loop");
//! a.emit(Insn::AddicRc { rt: R3, ra: R3, si: -1 });
//! a.bne(CR0, "loop");
//! a.emit(Insn::Sc);
//! let words = a.finish()?;
//! assert_eq!(words.len(), 4);
//! # Ok(())
//! # }
//! ```

use codense_isa::asm::Code;

use crate::encode::encode;
use crate::insn::{bo, Insn};
use crate::reg::CrField;

/// Errors produced by [`Assembler::finish`] (the one type both backends share).
pub use codense_isa::AsmError;

/// An incremental program builder with symbolic branch labels.
///
/// See the [module docs](self) for an example.
#[derive(Debug, Default)]
pub struct Assembler {
    code: Code,
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// The index (instruction count so far) the next instruction will get.
    pub fn here(&self) -> usize {
        self.code.len()
    }

    /// Defines `name` at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined (a programming error in the
    /// caller, not an input condition).
    pub fn label(&mut self, name: &str) -> &mut Assembler {
        self.code.label(name);
        self
    }

    /// Returns the position of a defined label, if any.
    pub fn label_pos(&self, name: &str) -> Option<usize> {
        self.code.label_pos(name)
    }

    /// Appends an instruction.
    pub fn emit(&mut self, insn: Insn) -> &mut Assembler {
        self.code.push(encode(&insn));
        self
    }

    /// Unconditional branch to `label`.
    pub fn b(&mut self, label: &str) -> &mut Assembler {
        self.branch_fixup(label, Insn::B { li: 0, aa: false, lk: false })
    }

    /// Branch-and-link (call) to `label`.
    pub fn bl(&mut self, label: &str) -> &mut Assembler {
        self.branch_fixup(label, Insn::B { li: 0, aa: false, lk: true })
    }

    /// Generic conditional branch to `label`.
    pub fn bc(&mut self, bo_field: u8, bi: u8, label: &str) -> &mut Assembler {
        self.branch_fixup(label, Insn::Bc { bo: bo_field, bi, bd: 0, aa: false, lk: false })
    }

    /// Branch if EQ bit of `cr` is set.
    pub fn beq(&mut self, cr: CrField, label: &str) -> &mut Assembler {
        self.bc(bo::IF_TRUE, cr.eq_bit(), label)
    }

    /// Branch if EQ bit of `cr` is clear.
    pub fn bne(&mut self, cr: CrField, label: &str) -> &mut Assembler {
        self.bc(bo::IF_FALSE, cr.eq_bit(), label)
    }

    /// Branch if LT bit of `cr` is set.
    pub fn blt(&mut self, cr: CrField, label: &str) -> &mut Assembler {
        self.bc(bo::IF_TRUE, cr.lt_bit(), label)
    }

    /// Branch if LT bit of `cr` is clear (≥).
    pub fn bge(&mut self, cr: CrField, label: &str) -> &mut Assembler {
        self.bc(bo::IF_FALSE, cr.lt_bit(), label)
    }

    /// Branch if GT bit of `cr` is set.
    pub fn bgt(&mut self, cr: CrField, label: &str) -> &mut Assembler {
        self.bc(bo::IF_TRUE, cr.gt_bit(), label)
    }

    /// Branch if GT bit of `cr` is clear (≤).
    pub fn ble(&mut self, cr: CrField, label: &str) -> &mut Assembler {
        self.bc(bo::IF_FALSE, cr.gt_bit(), label)
    }

    /// Decrement CTR and branch if nonzero.
    pub fn bdnz(&mut self, label: &str) -> &mut Assembler {
        self.bc(bo::DNZ, 0, label)
    }

    /// Return through the link register (`blr`).
    pub fn blr(&mut self) -> &mut Assembler {
        self.emit(Insn::Bclr { bo: bo::ALWAYS, bi: 0, lk: false })
    }

    /// Appends `template`, a relative branch with displacement 0, aimed at
    /// `label` by [`finish`](Assembler::finish).
    fn branch_fixup(&mut self, label: &str, template: Insn) -> &mut Assembler {
        self.code.branch(encode(&template), label);
        self
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Returns `true` if no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Resolves all fixups and returns the encoded instruction words.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UndefinedLabel`] if a branch references an unknown
    /// label, or [`AsmError::OffsetOutOfRange`] if a resolved displacement
    /// does not fit its field (±32 KiB for conditional, ±32 MiB for
    /// unconditional branches).
    pub fn finish(self) -> Result<Vec<u32>, AsmError> {
        self.code.finish(&crate::ISA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::rel_branch_info;
    use crate::reg::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Assembler::new();
        a.b("end");
        a.label("loop");
        a.emit(Insn::Addi { rt: R3, ra: R3, si: 1 });
        a.bne(CR0, "loop");
        a.label("end");
        a.emit(Insn::Sc);
        let words = a.finish().unwrap();
        assert_eq!(rel_branch_info(words[0]).unwrap().offset, 12);
        assert_eq!(rel_branch_info(words[2]).unwrap().offset, -4);
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Assembler::new();
        a.b("nowhere");
        assert_eq!(a.finish(), Err(AsmError::UndefinedLabel("nowhere".into())));
    }

    #[test]
    fn conditional_out_of_range_errors() {
        let mut a = Assembler::new();
        a.bne(CR0, "far");
        for _ in 0..9000 {
            a.emit(Insn::Ori { ra: R0, rs: R0, ui: 0 });
        }
        a.label("far");
        a.emit(Insn::Sc);
        match a.finish() {
            Err(AsmError::OffsetOutOfRange { offset, .. }) => assert_eq!(offset, 9001 * 4),
            other => panic!("expected out-of-range, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_label_panics() {
        let mut a = Assembler::new();
        a.label("x").label("x");
    }

    #[test]
    fn call_sets_lk() {
        let mut a = Assembler::new();
        a.bl("f");
        a.label("f");
        a.blr();
        let words = a.finish().unwrap();
        assert!(rel_branch_info(words[0]).unwrap().lk);
    }
}
