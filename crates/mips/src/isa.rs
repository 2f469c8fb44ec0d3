//! The [`codense_isa::Isa`] implementation for the MIPS-like backend.
//!
//! Everything here delegates to the crate's own modules ([`crate::branch`],
//! [`crate::disasm`], [`crate::machine`]) or is the backend's one escape
//! table. [`BranchKind::Conditional`] is the conditional/REGIMM form
//! (16-bit field), [`BranchKind::Jump`] is `j`/`jal` (26-bit field).

use codense_isa::{
    overflow_load_address, overflow_slot_halves, BranchKind, Core, Isa, IsaId, RelBranch,
};

use crate::branch;
use crate::insn::MInsn;
use crate::machine::Machine;
use crate::opcode::op;
use crate::reg::{AT, RA};

/// The 32 escape bytes, in escape-index order: each illegal primary opcode
/// `op` of [`crate::opcode::ILLEGAL_PRIMARY`] contributes the four byte
/// values `op << 2 | 0 ..= op << 2 | 3` (the next two opcode bits spill into
/// the top byte). This is the backend's only escape table.
pub static ESCAPE_BYTES: [u8; 32] = [
    0x48, 0x49, 0x4a, 0x4b, // primary 0x12
    0x4c, 0x4d, 0x4e, 0x4f, // primary 0x13
    0x58, 0x59, 0x5a, 0x5b, // primary 0x16
    0x5c, 0x5d, 0x5e, 0x5f, // primary 0x17
    0x68, 0x69, 0x6a, 0x6b, // primary 0x1a
    0x6c, 0x6d, 0x6e, 0x6f, // primary 0x1b
    0xc8, 0xc9, 0xca, 0xcb, // primary 0x32
    0xe8, 0xe9, 0xea, 0xeb, // primary 0x3a
];

/// The MIPS-like backend, exposed as [`ISA`].
#[derive(Debug)]
pub struct MipsIsa;

/// The one [`MipsIsa`] instance; reference it as `IsaRef(&codense_mips::ISA)`.
pub static ISA: MipsIsa = MipsIsa;

impl Isa for MipsIsa {
    fn id(&self) -> IsaId {
        IsaId::Mips
    }

    fn rel_branch_info(&self, word: u32) -> Option<RelBranch> {
        branch::rel_branch_info(word)
    }

    fn branch_field_bits(&self, kind: BranchKind) -> u32 {
        branch::field_bits(kind)
    }

    fn patch_offset_units(&self, word: u32, kind: BranchKind, units: i32) -> u32 {
        branch::patch_offset_units(word, kind, units)
    }

    fn read_offset_units(&self, word: u32, kind: BranchKind) -> i32 {
        branch::read_offset_units(word, kind)
    }

    fn escape_bytes(&self) -> &'static [u8] {
        &ESCAPE_BYTES
    }

    fn ends_block(&self, word: u32) -> bool {
        // Every control transfer and `syscall` sits under primary opcodes
        // 0–7 (SPECIAL, REGIMM, the jumps and the conditional branches); any
        // other word is answered without a decode.
        if word >> 26 > op::BGTZ {
            return false;
        }
        let insn = crate::decode(word);
        insn.is_branch() || matches!(insn, MInsn::Syscall)
    }

    fn overflow_expansion(
        &self,
        word: u32,
        slot: u32,
        granule_nibbles: u32,
        insn_nibbles: u32,
    ) -> Option<Vec<u32>> {
        use MInsn::*;
        let info = branch::rel_branch_info(word)?;
        let mut out = Vec::with_capacity(4);
        let dispatch_len = 3u32;
        // Every conditional form has a direct inversion, so (unlike PowerPC's
        // CTR-decrementing bc forms) expansion never fails for this backend.
        let inverted = match crate::decode(word) {
            Beq { rs, rt, .. } => Some(Bne { rs, rt, offset: 0 }),
            Bne { rs, rt, .. } => Some(Beq { rs, rt, offset: 0 }),
            Blez { rs, .. } => Some(Bgtz { rs, offset: 0 }),
            Bgtz { rs, .. } => Some(Blez { rs, offset: 0 }),
            Bltz { rs, .. } => Some(Bgez { rs, offset: 0 }),
            Bgez { rs, .. } => Some(Bltz { rs, offset: 0 }),
            _ => None, // j/jal are unconditional: no skip needed
        };
        if let Some(skip) = inverted {
            let skip_nibbles = (1 + dispatch_len) * insn_nibbles;
            let units = (skip_nibbles / granule_nibbles) as i32;
            let skip = crate::encode(&skip);
            out.push(branch::patch_offset_units(skip, BranchKind::Conditional, units));
        }
        let (high, low) = overflow_slot_halves(slot);
        out.push(crate::encode(&Lui { rt: AT, imm: high }));
        out.push(crate::encode(&Lw { rt: AT, base: AT, offset: low }));
        if info.lk {
            out.push(crate::encode(&Jalr { rd: RA, rs: AT }));
        } else {
            out.push(crate::encode(&Jr { rs: AT }));
        }
        Some(out)
    }

    fn overflow_table_address(&self, expansion: &[u32]) -> Option<u32> {
        // The dispatch is `lui $at,hi; lw $at,lo($at); jr/jalr $at`, after
        // the skip of a conditional branch.
        let [.., high, load, _] = *expansion else { return None };
        match (crate::decode(high), crate::decode(load)) {
            (MInsn::Lui { rt: AT, imm }, MInsn::Lw { rt: AT, base: AT, offset }) => {
                Some(overflow_load_address(imm, offset))
            }
            _ => None,
        }
    }

    fn disassemble(&self, word: u32, addr: u32) -> String {
        crate::disasm::disassemble(word, addr)
    }

    fn new_core(&self, mem_bytes: usize) -> Box<dyn Core> {
        Box::new(Machine::new(mem_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;
    use codense_isa::{IsaRef, OVERFLOW_TABLE_HI};

    #[test]
    fn escape_table_is_the_illegal_opcodes() {
        let isa = IsaRef(&ISA);
        for (i, &b) in ESCAPE_BYTES.iter().enumerate() {
            assert_eq!(isa.escape_index(b), Some(i as u32));
        }
        assert_eq!(isa.escape_index(0x24), None); // `addiu` opcode byte
                                                  // Escape-set membership of a word's top byte is exactly primary-
                                                  // opcode illegality.
        for top in 0u32..=255 {
            let word = top << 24;
            assert_eq!(
                isa.escape_index(top as u8).is_some(),
                crate::opcode::is_illegal_primary(word >> 26),
            );
        }
    }

    #[test]
    fn trait_delegates_to_branch_module() {
        let isa = IsaRef(&ISA);
        let jal = crate::encode(&MInsn::Jal { offset: -64 });
        let info = isa.rel_branch_info(jal).unwrap();
        assert_eq!((info.kind, info.offset, info.lk), (BranchKind::Jump, -64, true));
        assert_eq!(isa.branch_field_bits(BranchKind::Conditional), 16);
        assert_eq!(isa.branch_field_bits(BranchKind::Jump), 26);

        let beq = crate::encode(&MInsn::Beq { rs: T0, rt: T1, offset: 0 });
        for units in [-32768, -1, 0, 1, 32767] {
            let p = isa.patch_offset_units(beq, BranchKind::Conditional, units);
            assert_eq!(p, branch::patch_offset_units(beq, BranchKind::Conditional, units));
            assert_eq!(isa.read_offset_units(p, BranchKind::Conditional), units);
        }

        // A 20 KiB displacement is 40960 nibbles: 5120 4-byte units fit the
        // 16-bit field, 40960 nibbles do not, the 26-bit field holds it at
        // any granule, and a misaligned displacement fits nowhere.
        assert!(isa.offset_expressible(BranchKind::Conditional, 40960, 8));
        assert!(!isa.offset_expressible(BranchKind::Conditional, 40960, 1));
        assert!(isa.offset_expressible(BranchKind::Jump, 40960, 1));
        assert!(!isa.offset_expressible(BranchKind::Conditional, 7, 2));
    }

    #[test]
    fn ends_block_matches_decode() {
        let isa = IsaRef(&ISA);
        assert!(isa.ends_block(crate::encode(&MInsn::J { offset: 8 })));
        assert!(isa.ends_block(crate::encode(&MInsn::Jr { rs: RA })));
        assert!(isa.ends_block(crate::encode(&MInsn::Beq { rs: T0, rt: T1, offset: 8 })));
        assert!(isa.ends_block(crate::encode(&MInsn::Syscall)));
        assert!(!isa.ends_block(crate::encode(&MInsn::Addiu { rt: T0, rs: T0, imm: 1 })));
        assert!(!isa.ends_block(crate::encode(&MInsn::Break)));
    }

    /// The opcode gates of `rel_branch_info` and `ends_block` against their
    /// decode-based definitions, kept here as the spec: every primary opcode,
    /// each with 65,536 seeded random low-26-bit patterns, all-zeros and
    /// all-ones.
    #[test]
    fn opcode_gates_match_decode() {
        fn spec_rel_branch_info(word: u32) -> Option<RelBranch> {
            use MInsn::*;
            let (kind, lk) = (BranchKind::Conditional, false);
            match crate::decode(word) {
                Bltz { offset, .. }
                | Bgez { offset, .. }
                | Beq { offset, .. }
                | Bne { offset, .. }
                | Blez { offset, .. }
                | Bgtz { offset, .. } => Some(RelBranch { kind, offset, lk }),
                J { offset } => Some(RelBranch { kind: BranchKind::Jump, offset, lk }),
                Jal { offset } => Some(RelBranch { kind: BranchKind::Jump, offset, lk: true }),
                _ => None,
            }
        }
        fn spec_ends_block(word: u32) -> bool {
            let insn = crate::decode(word);
            insn.is_branch() || matches!(insn, MInsn::Syscall)
        }
        let isa = IsaRef(&ISA);
        let mut rng = codense_codegen::Rng::new(0x0BC0_DE26);
        for op in 0u32..64 {
            let random = (0..65_536).map(|_| rng.next_u64() as u32 & 0x03ff_ffff);
            for low in [0, 0x03ff_ffff].into_iter().chain(random) {
                let word = op << 26 | low;
                assert_eq!(
                    branch::rel_branch_info(word),
                    spec_rel_branch_info(word),
                    "{word:#010x}"
                );
                assert_eq!(isa.ends_block(word), spec_ends_block(word), "{word:#010x}");
            }
        }
    }

    #[test]
    fn overflow_expansion_shapes() {
        let isa = IsaRef(&ISA);
        // Unconditional jump: 3-word trampoline, no skip.
        let j = crate::encode(&MInsn::J { offset: 0 });
        let seq = isa.overflow_expansion(j, 3, 4, 8).unwrap();
        assert_eq!(seq.len(), 3);
        assert_eq!(crate::decode(seq[0]), MInsn::Lui { rt: AT, imm: OVERFLOW_TABLE_HI as u16 });
        assert_eq!(crate::decode(seq[1]), MInsn::Lw { rt: AT, base: AT, offset: 12 });
        assert_eq!(crate::decode(seq[2]), MInsn::Jr { rs: AT });

        // Linking jump dispatches through jalr so the call still links.
        let jal = crate::encode(&MInsn::Jal { offset: 0 });
        let seq = isa.overflow_expansion(jal, 0, 4, 8).unwrap();
        assert_eq!(crate::decode(seq[2]), MInsn::Jalr { rd: RA, rs: AT });

        // Conditional branch: inverted-condition skip prepended.
        let beq = crate::encode(&MInsn::Beq { rs: T0, rt: T1, offset: 0 });
        let seq = isa.overflow_expansion(beq, 0, 4, 8).unwrap();
        assert_eq!(seq.len(), 4);
        match crate::decode(seq[0]) {
            MInsn::Bne { rs, rt, .. } => {
                assert_eq!(rs, T0);
                assert_eq!(rt, T1);
            }
            other => panic!("expected skip bne, got {other:?}"),
        }
        // Skip distance: (1 + 3) insns × 8 nibbles ÷ 4-nibble granule.
        assert_eq!(isa.read_offset_units(seq[0], BranchKind::Conditional), 8);

        // Every conditional form inverts.
        for w in [
            crate::encode(&MInsn::Bne { rs: T0, rt: T1, offset: 0 }),
            crate::encode(&MInsn::Blez { rs: T0, offset: 0 }),
            crate::encode(&MInsn::Bgtz { rs: T0, offset: 0 }),
            crate::encode(&MInsn::Bltz { rs: T0, offset: 0 }),
            crate::encode(&MInsn::Bgez { rs: T0, offset: 0 }),
        ] {
            assert!(isa.overflow_expansion(w, 0, 1, 9).is_some());
        }

        // Non-branches have no expansion.
        assert_eq!(isa.overflow_expansion(crate::encode(&MInsn::Syscall), 0, 4, 8), None);
    }

    #[test]
    fn trampolines_load_their_own_slot() {
        // `lw`'s signed 16-bit offset reaches slot 8191; from slot 8192 on,
        // `lui` carries the rest of the offset.
        let isa = IsaRef(&ISA);
        let j = crate::encode(&MInsn::J { offset: 0 });
        let beq = crate::encode(&MInsn::Beq { rs: T0, rt: T1, offset: 0 });
        for word in [j, beq] {
            for slot in [0, 8191, 8192, 70_000] {
                let seq = isa.overflow_expansion(word, slot, 1, 9).unwrap();
                let want = ((OVERFLOW_TABLE_HI as u32) << 16) + 4 * slot;
                assert_eq!(isa.overflow_table_address(&seq), Some(want), "slot {slot}");
            }
        }
        // Anything but a dispatch sequence loads nothing.
        let seq = isa.overflow_expansion(j, 0, 1, 9).unwrap();
        assert_eq!(isa.overflow_table_address(&seq[1..]), None);
        assert_eq!(isa.overflow_table_address(&[j; 3]), None);
    }

    #[test]
    fn new_core_runs_mips_semantics() {
        let isa = IsaRef(&ISA);
        let mut core = isa.new_core(4096);
        let li = crate::encode(&MInsn::Addiu { rt: V0, rs: ZERO, imm: 42 });
        core.step_word(li, 0, 8, 8).unwrap();
        assert_eq!(core.gpr(2), 42);
        assert_eq!(core.exit_code(), 42);
        let sys = crate::encode(&MInsn::Syscall);
        assert_eq!(core.step_word(sys, 8, 16, 8).unwrap(), codense_isa::Outcome::Halt);
        assert_eq!(core.flags(), 0);
    }
}
