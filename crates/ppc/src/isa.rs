//! The [`codense_isa::Isa`] implementation for the PowerPC backend.
//!
//! Everything here delegates to the crate's own modules ([`crate::branch`],
//! [`crate::disasm`], [`crate::machine`]) or is the backend's one escape
//! table. [`BranchKind::Conditional`] is B-form `bc` (14-bit field),
//! [`BranchKind::Jump`] is I-form `b`/`bl` (24-bit field).

use codense_isa::{
    overflow_load_address, overflow_slot_halves, BranchKind, Core, Isa, IsaId, RelBranch,
};

use crate::branch;
use crate::insn::{bo, Insn};
use crate::machine::Machine;
use crate::opcode::primary;
use crate::reg::{R0, R12};
use crate::Spr;

/// The 32 escape bytes, in escape-index order: each illegal primary opcode
/// `op` of [`crate::opcode::ILLEGAL_PRIMARY`] contributes the four byte
/// values `op << 2 | 0 ..= op << 2 | 3` (the next two opcode bits spill into
/// the top byte). This is the backend's only escape table.
pub static ESCAPE_BYTES: [u8; 32] = [
    0x00, 0x01, 0x02, 0x03, // primary 0
    0x04, 0x05, 0x06, 0x07, // primary 1
    0x10, 0x11, 0x12, 0x13, // primary 4
    0x14, 0x15, 0x16, 0x17, // primary 5
    0x18, 0x19, 0x1a, 0x1b, // primary 6
    0x24, 0x25, 0x26, 0x27, // primary 9
    0x58, 0x59, 0x5a, 0x5b, // primary 22
    0x78, 0x79, 0x7a, 0x7b, // primary 30
];

/// The PowerPC backend, exposed as [`ISA`].
#[derive(Debug)]
pub struct PpcIsa;

/// The one [`PpcIsa`] instance; reference it as `IsaRef(&codense_ppc::ISA)`.
pub static ISA: PpcIsa = PpcIsa;

impl Isa for PpcIsa {
    fn id(&self) -> IsaId {
        IsaId::Ppc
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
        // Every branch and `sc` sits under primary opcodes 16–19 (`bc`,
        // `sc`, `b` and the XL group); any other word is answered without a
        // decode.
        if !(primary::BC..=primary::XL).contains(&(word >> 26)) {
            return false;
        }
        let insn = crate::decode(word);
        insn.is_branch() || matches!(insn, Insn::Sc)
    }

    fn overflow_expansion(
        &self,
        word: u32,
        slot: u32,
        granule_nibbles: u32,
        insn_nibbles: u32,
    ) -> Option<Vec<u32>> {
        let info = branch::rel_branch_info(word)?;
        let mut out = Vec::with_capacity(5);
        let dispatch_len = 4u32;
        if let Insn::Bc { bo: b, bi, .. } = crate::decode(word) {
            if b & 0b00100 == 0 {
                // CTR-decrementing forms cannot be inverted into a simple
                // skip (the decrement must happen exactly once either way).
                return None;
            }
            if b != bo::ALWAYS {
                let inverted = b ^ 0b01000;
                let skip_nibbles = (1 + dispatch_len) * insn_nibbles;
                let units = (skip_nibbles / granule_nibbles) as i32;
                let skip =
                    crate::encode(&Insn::Bc { bo: inverted, bi, bd: 0, aa: false, lk: false });
                out.push(branch::patch_offset_units(skip, BranchKind::Conditional, units));
            }
        }
        let (high, low) = overflow_slot_halves(slot);
        out.push(crate::encode(&Insn::Addis { rt: R12, ra: R0, si: high as i16 }));
        out.push(crate::encode(&Insn::Lwz { rt: R12, ra: R12, d: low }));
        out.push(crate::encode(&Insn::Mtspr { spr: Spr::Ctr, rs: R12 }));
        out.push(crate::encode(&Insn::Bcctr { bo: bo::ALWAYS, bi: 0, lk: info.lk }));
        Some(out)
    }

    fn overflow_table_address(&self, expansion: &[u32]) -> Option<u32> {
        // The dispatch is `addis r12,0,hi; lwz r12,lo(r12); mtctr r12;
        // bcctr`, after the skip of a conditional branch.
        let [.., high, load, _, _] = *expansion else { return None };
        match (crate::decode(high), crate::decode(load)) {
            (Insn::Addis { rt: R12, ra: R0, si }, Insn::Lwz { rt: R12, ra: R12, d }) => {
                Some(overflow_load_address(si as u16, d))
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
    use codense_isa::{IsaRef, OVERFLOW_TABLE_HI};

    #[test]
    fn escape_table_is_the_illegal_opcodes() {
        let isa = IsaRef(&ISA);
        for (i, &b) in ESCAPE_BYTES.iter().enumerate() {
            assert_eq!(isa.escape_index(b), Some(i as u32));
        }
        assert_eq!(isa.escape_index(0x48), None); // `b` opcode byte
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
        let b = crate::encode(&Insn::B { li: -64, aa: false, lk: true });
        let info = isa.rel_branch_info(b).unwrap();
        assert_eq!((info.kind, info.offset, info.lk), (BranchKind::Jump, -64, true));
        assert_eq!(isa.branch_field_bits(BranchKind::Jump), 24);
        assert_eq!(isa.branch_field_bits(BranchKind::Conditional), 14);

        let bc = crate::encode(&Insn::Bc { bo: bo::IF_TRUE, bi: 6, bd: 0, aa: false, lk: false });
        for units in [-8192, -1, 0, 1, 8191] {
            let p = isa.patch_offset_units(bc, BranchKind::Conditional, units);
            assert_eq!(p, branch::patch_offset_units(bc, BranchKind::Conditional, units));
            assert_eq!(isa.read_offset_units(p, BranchKind::Conditional), units);
        }

        // A 20 KiB displacement is 40960 nibbles: 5120 4-byte units fit the
        // 14-bit field, 10240 2-byte units do not, the 24-bit field holds
        // it at any granule, and a misaligned displacement fits nowhere.
        assert!(isa.offset_expressible(BranchKind::Conditional, 40960, 8));
        assert!(!isa.offset_expressible(BranchKind::Conditional, 40960, 4));
        assert!(isa.offset_expressible(BranchKind::Jump, 40960, 1));
        assert!(!isa.offset_expressible(BranchKind::Conditional, 7, 2));
    }

    #[test]
    fn ends_block_matches_decode() {
        let isa = IsaRef(&ISA);
        assert!(isa.ends_block(crate::encode(&Insn::B { li: 8, aa: false, lk: false })));
        assert!(isa.ends_block(crate::encode(&Insn::Bclr { bo: bo::ALWAYS, bi: 0, lk: false })));
        assert!(isa.ends_block(crate::encode(&Insn::Sc)));
        assert!(!isa.ends_block(crate::encode(&Insn::Addi { rt: crate::reg::R3, ra: R0, si: 1 })));
    }

    /// The opcode gates of `rel_branch_info` and `ends_block` against their
    /// decode-based definitions, kept here as the spec: every primary opcode,
    /// each with 65,536 seeded random low-26-bit patterns, all-zeros and
    /// all-ones.
    #[test]
    fn opcode_gates_match_decode() {
        fn spec_rel_branch_info(word: u32) -> Option<RelBranch> {
            match crate::decode(word) {
                Insn::B { li, aa: false, lk } => {
                    Some(RelBranch { kind: BranchKind::Jump, offset: li, lk })
                }
                Insn::Bc { bd, aa: false, lk, .. } => {
                    Some(RelBranch { kind: BranchKind::Conditional, offset: bd as i32, lk })
                }
                _ => None,
            }
        }
        fn spec_ends_block(word: u32) -> bool {
            let insn = crate::decode(word);
            insn.is_branch() || matches!(insn, Insn::Sc)
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
        // Unconditional branch: 4-word trampoline, no skip.
        let b = crate::encode(&Insn::B { li: 0, aa: false, lk: false });
        let seq = isa.overflow_expansion(b, 3, 4, 8).unwrap();
        assert_eq!(seq.len(), 4);
        assert_eq!(crate::decode(seq[0]), Insn::Addis { rt: R12, ra: R0, si: OVERFLOW_TABLE_HI });
        assert_eq!(crate::decode(seq[1]), Insn::Lwz { rt: R12, ra: R12, d: 12 });
        assert_eq!(crate::decode(seq[3]), Insn::Bcctr { bo: bo::ALWAYS, bi: 0, lk: false });

        // Conditional branch: inverted-condition skip prepended.
        let bc = crate::encode(&Insn::Bc { bo: bo::IF_TRUE, bi: 2, bd: 0, aa: false, lk: false });
        let seq = isa.overflow_expansion(bc, 0, 4, 8).unwrap();
        assert_eq!(seq.len(), 5);
        match crate::decode(seq[0]) {
            Insn::Bc { bo: b, bi, .. } => {
                assert_eq!(b, bo::IF_FALSE);
                assert_eq!(bi, 2);
            }
            other => panic!("expected skip bc, got {other:?}"),
        }
        // Skip distance: (1 + 4) insns × 8 nibbles ÷ 4-nibble granule.
        assert_eq!(isa.read_offset_units(seq[0], BranchKind::Conditional), 10);

        // CTR-decrementing conditionals cannot be expanded.
        let bdnz = crate::encode(&Insn::Bc { bo: bo::DNZ, bi: 0, bd: 0, aa: false, lk: false });
        assert_eq!(isa.overflow_expansion(bdnz, 0, 4, 8), None);
    }

    #[test]
    fn trampolines_load_their_own_slot() {
        // `lwz`'s signed 16-bit displacement reaches slot 8191; from slot
        // 8192 on, `addis` carries the rest of the offset.
        let isa = IsaRef(&ISA);
        let b = crate::encode(&Insn::B { li: 0, aa: false, lk: false });
        let bc = crate::encode(&Insn::Bc { bo: bo::IF_TRUE, bi: 2, bd: 0, aa: false, lk: false });
        for word in [b, bc] {
            for slot in [0, 8191, 8192, 70_000] {
                let seq = isa.overflow_expansion(word, slot, 1, 9).unwrap();
                let want = ((OVERFLOW_TABLE_HI as u32) << 16) + 4 * slot;
                assert_eq!(isa.overflow_table_address(&seq), Some(want), "slot {slot}");
            }
        }
        // Anything but a dispatch sequence loads nothing.
        let seq = isa.overflow_expansion(b, 0, 1, 9).unwrap();
        assert_eq!(isa.overflow_table_address(&seq[1..]), None);
        assert_eq!(isa.overflow_table_address(&[b; 4]), None);
    }

    #[test]
    fn new_core_runs_ppc_semantics() {
        let isa = IsaRef(&ISA);
        let mut core = isa.new_core(4096);
        let li = crate::encode(&Insn::Addi { rt: crate::reg::R3, ra: R0, si: 42 });
        core.step_word(li, 0, 8, 8).unwrap();
        assert_eq!(core.gpr(3), 42);
        assert_eq!(core.exit_code(), 42);
        let sc = crate::encode(&Insn::Sc);
        assert_eq!(core.step_word(sc, 8, 16, 8).unwrap(), codense_isa::Outcome::Halt);
    }
}
