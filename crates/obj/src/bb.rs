//! Basic-block partitioning of a text section.
//!
//! Dictionary entries "are limited to sequences of instructions within a
//! basic block" and branches "may branch to codewords, but they may not
//! branch within encoded sequences" (§3.1.1). Computing block leaders from
//! branch targets guarantees both properties: any sequence inside a block
//! contains no branch target except possibly its own first instruction.

use crate::module::ObjectModule;
use codense_isa::IsaRef;

/// The basic-block partition of a module's text section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlocks {
    /// `leader[i]` is `true` if instruction `i` starts a basic block.
    leaders: Vec<bool>,
    /// Block boundaries as `(start, end)` instruction index pairs.
    blocks: Vec<(usize, usize)>,
}

impl BasicBlocks {
    /// Computes the partition for a module under `isa`.
    ///
    /// Leaders are: instruction 0, every function entry, every PC-relative
    /// branch target, every jump-table target, and every instruction
    /// following a control transfer (including indirect branches and
    /// system calls).
    ///
    /// # Panics
    ///
    /// Panics if a branch or jump-table target lies outside the text
    /// section — run [`ObjectModule::validate_with`] first for untrusted
    /// input.
    pub fn compute_with(module: &ObjectModule, isa: IsaRef) -> BasicBlocks {
        let n = module.code.len();
        let mut leaders = vec![false; n];
        if n > 0 {
            leaders[0] = true;
        }
        for func in &module.functions {
            if func.start < n {
                leaders[func.start] = true;
            }
        }
        for table in &module.jump_tables {
            for &t in &table.targets {
                leaders[t] = true;
            }
        }
        for (i, &w) in module.code.iter().enumerate() {
            if let Some(info) = isa.rel_branch_info(w) {
                let target = (i as i64 + (info.offset / 4) as i64) as usize;
                leaders[target] = true;
            }
            if isa.ends_block(w) && i + 1 < n {
                leaders[i + 1] = true;
            }
        }
        let mut blocks = Vec::new();
        let mut start = 0;
        for (i, &lead) in leaders.iter().enumerate().skip(1) {
            if lead {
                blocks.push((start, i));
                start = i;
            }
        }
        if n > 0 {
            blocks.push((start, n));
        }
        BasicBlocks { leaders, blocks }
    }

    /// Returns `true` if instruction `i` starts a basic block.
    pub fn is_leader(&self, i: usize) -> bool {
        self.leaders[i]
    }

    /// The blocks as `(start, end)` instruction index pairs, in program
    /// order, covering the whole text exactly once.
    pub fn blocks(&self) -> &[(usize, usize)] {
        &self.blocks
    }

    /// Number of basic blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` when the text section was empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Mean block length in instructions.
    pub fn mean_block_len(&self) -> f64 {
        if self.blocks.is_empty() {
            return 0.0;
        }
        let total: usize = self.blocks.iter().map(|(s, e)| e - s).sum();
        total as f64 / self.blocks.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::JumpTable;
    use codense_isa::IsaId;
    use codense_ppc::asm::Assembler;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    const PPC: IsaRef = IsaRef(&codense_ppc::ISA);

    fn sample_module() -> ObjectModule {
        let mut a = Assembler::new();
        a.emit(Insn::Addi { rt: R3, ra: R0, si: 0 }); // 0 leader (entry)
        a.label("loop"); // 1 leader (target)
        a.emit(Insn::Addi { rt: R3, ra: R3, si: 1 });
        a.emit(Insn::Cmpwi { bf: CR0, ra: R3, si: 10 });
        a.bne(CR0, "loop"); // 3, ends block
        a.emit(Insn::Sc); // 4 leader (after branch)
        let mut m = ObjectModule::new("t", IsaId::Ppc);
        m.code = a.finish().unwrap();
        m
    }

    #[test]
    fn leaders_and_blocks() {
        let m = sample_module();
        let bb = BasicBlocks::compute_with(&m, PPC);
        assert!(bb.is_leader(0));
        assert!(bb.is_leader(1));
        assert!(!bb.is_leader(2));
        assert!(!bb.is_leader(3));
        assert!(bb.is_leader(4));
        assert_eq!(bb.blocks(), &[(0, 1), (1, 4), (4, 5)]);
    }

    #[test]
    fn blocks_cover_text_exactly() {
        let m = sample_module();
        let bb = BasicBlocks::compute_with(&m, PPC);
        let mut next = 0;
        for &(s, e) in bb.blocks() {
            assert_eq!(s, next);
            assert!(e > s);
            next = e;
        }
        assert_eq!(next, m.code.len());
    }

    #[test]
    fn jump_table_targets_are_leaders() {
        let mut m = sample_module();
        m.jump_tables.push(JumpTable { targets: vec![2] });
        let bb = BasicBlocks::compute_with(&m, PPC);
        assert!(bb.is_leader(2));
    }

    #[test]
    fn empty_module() {
        let m = ObjectModule::new("e", IsaId::Ppc);
        let bb = BasicBlocks::compute_with(&m, PPC);
        assert!(bb.is_empty());
        assert_eq!(bb.mean_block_len(), 0.0);
    }
}
