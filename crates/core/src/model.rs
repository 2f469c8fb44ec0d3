//! The mutable program model the greedy selector rewrites: basic blocks of
//! cells, where each cell is an instruction, a codeword, or a tombstone left
//! behind by a replacement.

use codense_isa::IsaRef;
use codense_obj::{BasicBlocks, ObjectModule};

/// One slot of the rewrite model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// An (as yet) uncompressed instruction.
    Insn {
        /// The instruction word.
        word: u32,
        /// Original instruction index in the module.
        orig: usize,
        /// Whether the compressor may place this instruction in a dictionary
        /// entry (`false` for PC-relative branches, §3.1.1).
        compressible: bool,
    },
    /// A codeword covering `len` original instructions starting at `orig`.
    Code {
        /// Dictionary entry index.
        entry: u32,
        /// Original index of the first covered instruction.
        orig: usize,
        /// Number of instructions covered.
        len: usize,
    },
    /// An instruction slot consumed by a preceding [`Cell::Code`].
    Dead,
}

impl Cell {
    /// Returns the instruction word if this is a compressible instruction.
    pub fn compressible_word(&self) -> Option<u32> {
        match *self {
            Cell::Insn { word, compressible: true, .. } => Some(word),
            _ => None,
        }
    }
}

/// A basic block: a run of cells, positionally stable under replacement
/// (replacements tombstone cells rather than splice them out).
#[derive(Debug, Clone, Default)]
pub struct Block {
    /// The cells, one per original instruction of the block.
    pub cells: Vec<Cell>,
    /// Original index of the block's first instruction.
    pub start: usize,
}

/// The whole program as rewritable blocks.
#[derive(Debug, Clone)]
pub struct ProgramModel {
    /// Basic blocks in program order.
    pub blocks: Vec<Block>,
    /// Total instructions (original program length).
    pub insns: usize,
}

impl ProgramModel {
    /// Builds the model from a module under `isa`: computes basic blocks
    /// and marks PC-relative branches incompressible.
    pub fn build_isa(module: &ObjectModule, isa: IsaRef) -> ProgramModel {
        // `build_isa_with` already excludes PC-relative branches; the extra
        // predicate is identity so each word is decoded exactly once.
        ProgramModel::build_isa_with(module, isa, |_| true)
    }

    /// Like [`build_isa`](ProgramModel::build_isa), with a custom
    /// compressibility predicate (baselines impose extra constraints — e.g.
    /// Liao's software mini-subroutines cannot contain link-register users).
    pub fn build_isa_with(
        module: &ObjectModule,
        isa: IsaRef,
        compressible: impl Fn(u32) -> bool,
    ) -> ProgramModel {
        let bbs = BasicBlocks::compute_with(module, isa);
        let blocks = bbs
            .blocks()
            .iter()
            .map(|&(s, e)| Block {
                start: s,
                cells: (s..e)
                    .map(|i| {
                        let word = module.code[i];
                        Cell::Insn {
                            word,
                            orig: i,
                            compressible: isa.rel_branch_info(word).is_none() && compressible(word),
                        }
                    })
                    .collect(),
            })
            .collect();
        ProgramModel { blocks, insns: module.len() }
    }

    /// Iterates the final atom stream: codewords and uncompressed
    /// instructions in program order (tombstones skipped).
    pub fn atoms(&self) -> impl Iterator<Item = Cell> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| b.cells.iter())
            .filter(|c| !matches!(c, Cell::Dead))
            .copied()
    }

    /// Counts uncompressed instructions remaining.
    pub fn uncompressed_insns(&self) -> usize {
        self.blocks.iter().flat_map(|b| &b.cells).filter(|c| matches!(c, Cell::Insn { .. })).count()
    }

    /// Counts codeword cells.
    pub fn codewords(&self) -> usize {
        self.blocks.iter().flat_map(|b| &b.cells).filter(|c| matches!(c, Cell::Code { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_ppc::asm::Assembler;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    fn module() -> ObjectModule {
        let mut a = Assembler::new();
        a.emit(Insn::Addi { rt: R3, ra: R0, si: 1 });
        a.label("l");
        a.emit(Insn::Addi { rt: R3, ra: R3, si: 1 });
        a.bne(CR0, "l");
        a.emit(Insn::Sc);
        let mut m = ObjectModule::new("t", codense_isa::IsaId::Ppc);
        m.code = a.finish().unwrap();
        m
    }

    fn build(module: &ObjectModule) -> ProgramModel {
        ProgramModel::build_isa(module, IsaRef(&codense_ppc::ISA))
    }

    #[test]
    fn build_marks_branches_incompressible() {
        let pm = build(&module());
        let flat: Vec<Cell> = pm.atoms().collect();
        assert_eq!(flat.len(), 4);
        assert!(matches!(flat[2], Cell::Insn { compressible: false, .. }));
        assert!(matches!(flat[0], Cell::Insn { compressible: true, .. }));
        assert_eq!(pm.insns, 4);
    }

    #[test]
    fn atoms_skip_tombstones() {
        let mut pm = build(&module());
        // Manually fuse block 1's first cell into a codeword of length 1 and
        // kill nothing; then fuse two cells.
        pm.blocks[1].cells[0] = Cell::Code { entry: 0, orig: 1, len: 1 };
        let flat: Vec<Cell> = pm.atoms().collect();
        assert_eq!(flat.len(), 4);
        assert!(matches!(flat[1], Cell::Code { entry: 0, len: 1, .. }));
        assert_eq!(pm.uncompressed_insns(), 3);
        assert_eq!(pm.codewords(), 1);
    }
}
