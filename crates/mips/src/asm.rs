//! A small label-resolving assembler for building runnable programs.
//!
//! Instructions are appended through [`Assembler::emit`] or the branch
//! helpers; [`Assembler::finish`] resolves label fixups into PC-relative
//! displacements and returns the final instruction words.
//!
//! ```
//! use codense_mips::asm::Assembler;
//! use codense_mips::insn::MInsn;
//! use codense_mips::reg::{V0, ZERO};
//!
//! # fn main() -> Result<(), codense_mips::asm::AsmError> {
//! let mut a = Assembler::new();
//! a.emit(MInsn::Addiu { rt: V0, rs: ZERO, imm: 10 });
//! a.label("loop");
//! a.emit(MInsn::Addiu { rt: V0, rs: V0, imm: -1 });
//! a.bgtz(V0, "loop");
//! a.emit(MInsn::Syscall);
//! let words = a.finish()?;
//! assert_eq!(words.len(), 4);
//! # Ok(())
//! # }
//! ```

use codense_isa::asm::Code;

use crate::encode::encode;
use crate::insn::MInsn;
use crate::reg::Reg;

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
    pub fn emit(&mut self, insn: MInsn) -> &mut Assembler {
        self.code.push(encode(&insn));
        self
    }

    /// Unconditional jump to `label` (`j`, via the `beq $0,$0` idiom is *not*
    /// used; this emits the 26-bit-field form).
    pub fn j(&mut self, label: &str) -> &mut Assembler {
        self.branch_fixup(label, MInsn::J { offset: 0 })
    }

    /// Jump-and-link (call) to `label`.
    pub fn jal(&mut self, label: &str) -> &mut Assembler {
        self.branch_fixup(label, MInsn::Jal { offset: 0 })
    }

    /// Unconditional short branch to `label` (`beq $0,$0`, 16-bit field).
    pub fn b(&mut self, label: &str) -> &mut Assembler {
        let zero = Reg::new(0).unwrap();
        self.branch_fixup(label, MInsn::Beq { rs: zero, rt: zero, offset: 0 })
    }

    /// Branch to `label` if `rs == rt`.
    pub fn beq(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Assembler {
        self.branch_fixup(label, MInsn::Beq { rs, rt, offset: 0 })
    }

    /// Branch to `label` if `rs != rt`.
    pub fn bne(&mut self, rs: Reg, rt: Reg, label: &str) -> &mut Assembler {
        self.branch_fixup(label, MInsn::Bne { rs, rt, offset: 0 })
    }

    /// Branch to `label` if `rs <= 0` (signed).
    pub fn blez(&mut self, rs: Reg, label: &str) -> &mut Assembler {
        self.branch_fixup(label, MInsn::Blez { rs, offset: 0 })
    }

    /// Branch to `label` if `rs > 0` (signed).
    pub fn bgtz(&mut self, rs: Reg, label: &str) -> &mut Assembler {
        self.branch_fixup(label, MInsn::Bgtz { rs, offset: 0 })
    }

    /// Branch to `label` if `rs < 0` (signed).
    pub fn bltz(&mut self, rs: Reg, label: &str) -> &mut Assembler {
        self.branch_fixup(label, MInsn::Bltz { rs, offset: 0 })
    }

    /// Branch to `label` if `rs >= 0` (signed).
    pub fn bgez(&mut self, rs: Reg, label: &str) -> &mut Assembler {
        self.branch_fixup(label, MInsn::Bgez { rs, offset: 0 })
    }

    /// Return through `$ra` (`jr $31`).
    pub fn ret(&mut self) -> &mut Assembler {
        self.emit(MInsn::Jr { rs: crate::reg::RA })
    }

    /// Appends `template`, a relative branch with displacement 0, aimed at
    /// `label` by [`finish`](Assembler::finish).
    fn branch_fixup(&mut self, label: &str, template: MInsn) -> &mut Assembler {
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
    /// does not fit its field (±128 KiB for conditional branches, ±128 MiB
    /// for `j`/`jal`).
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
        a.j("end");
        a.label("loop");
        a.emit(MInsn::Addiu { rt: V0, rs: V0, imm: 1 });
        a.bne(V0, A0, "loop");
        a.label("end");
        a.emit(MInsn::Syscall);
        let words = a.finish().unwrap();
        assert_eq!(rel_branch_info(words[0]).unwrap().offset, 12);
        assert_eq!(rel_branch_info(words[2]).unwrap().offset, -4);
    }

    #[test]
    fn undefined_label_errors() {
        let mut a = Assembler::new();
        a.j("nowhere");
        assert_eq!(a.finish(), Err(AsmError::UndefinedLabel("nowhere".into())));
    }

    #[test]
    fn conditional_out_of_range_errors() {
        let mut a = Assembler::new();
        a.bne(V0, ZERO, "far");
        for _ in 0..40000 {
            a.emit(MInsn::Ori { rt: T0, rs: T0, imm: 0 });
        }
        a.label("far");
        a.emit(MInsn::Syscall);
        match a.finish() {
            Err(AsmError::OffsetOutOfRange { offset, .. }) => assert_eq!(offset, 40001 * 4),
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
    fn call_sets_link() {
        let mut a = Assembler::new();
        a.jal("f");
        a.label("f");
        a.ret();
        let words = a.finish().unwrap();
        assert!(rel_branch_info(words[0]).unwrap().lk);
        assert_eq!(words[1], crate::encode(&MInsn::Jr { rs: RA }));
    }

    #[test]
    fn short_branch_idiom() {
        let mut a = Assembler::new();
        a.b("end");
        a.label("end");
        a.emit(MInsn::Syscall);
        let words = a.finish().unwrap();
        let info = rel_branch_info(words[0]).unwrap();
        assert_eq!(info.kind, codense_isa::BranchKind::Conditional);
        assert_eq!(info.offset, 4);
    }
}
