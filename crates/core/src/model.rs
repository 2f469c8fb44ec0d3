//! The program model greedy selection runs on: flat per-instruction arrays
//! over the module's words. Each instruction carries a compressible flag
//! (PC-relative branches, hot code and a baseline's own constraints are
//! excluded) and a block-leader flag (dictionary entries never cross a basic
//! block, §3.1.1). A selection run stores its result in the model as the
//! head array: the dictionary entry whose codeword starts at each
//! instruction.

use codense_isa::IsaRef;
use codense_obj::{BasicBlocks, ObjectModule};

use crate::greedy::NO_ENTRY;

/// The whole program as per-instruction arrays, indexed by original
/// instruction index.
#[derive(Debug, Clone)]
pub struct ProgramModel<'a> {
    /// The module's instruction words.
    pub(crate) words: &'a [u32],
    /// Whether each instruction may join a dictionary entry.
    pub(crate) compressible: Vec<bool>,
    /// Whether each instruction starts a basic block.
    pub(crate) leaders: Vec<bool>,
    /// The last selection run's head array: the entry whose codeword starts
    /// at each instruction, or [`NO_ENTRY`]. Empty before any run.
    pub(crate) heads: Vec<u32>,
}

impl<'a> ProgramModel<'a> {
    /// Builds the model from a module under `isa`: block leaders from its
    /// basic blocks, and PC-relative branches marked incompressible.
    pub fn build_isa(module: &'a ObjectModule, isa: IsaRef) -> ProgramModel<'a> {
        let bbs = BasicBlocks::compute_with(module, isa);
        ProgramModel {
            words: &module.code,
            compressible: module.code.iter().map(|&w| isa.rel_branch_info(w).is_none()).collect(),
            leaders: (0..module.len()).map(|i| bbs.is_leader(i)).collect(),
            heads: Vec::new(),
        }
    }

    /// Marks instruction `i` incompressible wherever `mask[i]` is set: hot
    /// (exempt) code, or instructions a baseline cannot place in an entry
    /// (Liao's mini-subroutines cannot contain link-register users). Mask
    /// before selecting.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len()` differs from the program's length.
    pub fn exclude(&mut self, mask: &[bool]) {
        assert_eq!(mask.len(), self.compressible.len(), "mask length must match the program");
        for (compressible, &excluded) in self.compressible.iter_mut().zip(mask) {
            *compressible &= !excluded;
        }
    }

    /// Whether each instruction may join a dictionary entry.
    pub fn compressible(&self) -> &[bool] {
        &self.compressible
    }

    /// The dictionary entry whose codeword starts at instruction `i`, as
    /// the last selection run over this model replaced it.
    pub fn head(&self, i: usize) -> Option<u32> {
        self.heads.get(i).copied().filter(|&entry| entry != NO_ENTRY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_ppc::asm::Assembler;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    #[test]
    fn build_marks_branches_and_leaders_and_masks() {
        let mut a = Assembler::new();
        a.emit(Insn::Addi { rt: R3, ra: R0, si: 1 });
        a.label("l");
        a.emit(Insn::Addi { rt: R3, ra: R3, si: 1 });
        a.bne(CR0, "l");
        a.emit(Insn::Sc);
        let mut m = ObjectModule::new("t", codense_isa::IsaId::Ppc);
        m.code = a.finish().unwrap();
        let mut pm = ProgramModel::build_isa(&m, IsaRef(&codense_ppc::ISA));
        assert_eq!(pm.compressible(), [true, true, false, true]);
        assert_eq!(pm.leaders, [true, true, false, true]);
        assert_eq!(pm.head(0), None);
        pm.exclude(&[false, false, false, true]);
        assert_eq!(pm.compressible(), [true, true, false, false]);
    }
}
