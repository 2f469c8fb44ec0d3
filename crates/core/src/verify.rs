//! Round-trip verification: proves a compressed program is semantically
//! equivalent to its original.
//!
//! The program must be compressed for the ISA the module records; then
//! four properties are checked:
//!
//! 1. **Coverage** — the expanded atom stream covers original instructions
//!    `0..n` exactly once, in order. The same pass records which atom starts
//!    at each original instruction, so every target check below is one
//!    table lookup.
//! 2. **Word fidelity** — every non-branch instruction expands to its
//!    original word; every patched branch resolves (through the
//!    compressed-domain address arithmetic) to the atom holding its original
//!    target; every overflow-rewritten branch's table slot holds the
//!    target's compressed address.
//! 3. **Image fidelity** — re-parsing the packed byte image reproduces the
//!    logical atom stream, item by item, and every trampoline loads its own
//!    overflow-table slot (the address decoded from its words by the ISA,
//!    not taken from the code that built it).
//! 4. **Data patching** — every jump-table entry was rewritten to the
//!    compressed address of its original target.
//!
//! A program whose tables are shorter than its atoms and the module need
//! (addresses, dictionary entries, overflow slots, jump tables, the Huffman
//! code) fails with the [`VerifyError`] of the check that misses them, never
//! a panic.

use codense_isa::overflow_slot_address;
use codense_obj::ObjectModule;

use crate::compressor::{via_table_expansion_coded, Atom, CompressedProgram};
use crate::config::EncodingKind;
use crate::encoding::{read_item_coded, Item};
use crate::error::VerifyError;
use crate::nibbles::NibbleReader;

/// Verifies `compressed` against the `module` it was produced from.
///
/// # Errors
///
/// Returns the first [`VerifyError`] found; `Ok(())` means the compressed
/// program provably expands to the original (modulo the intended branch
/// re-encoding). [`VerifyError::IsaMismatch`] if the program was
/// compressed for another ISA than the module's: branches and escapes
/// checked under the compressor's ISA would prove nothing.
pub fn verify(module: &ObjectModule, compressed: &CompressedProgram) -> Result<(), VerifyError> {
    crate::telemetry::VERIFY_RUNS.inc();
    let _phase = crate::telemetry::phase("verify");
    if compressed.isa.id() != module.isa {
        return Err(VerifyError::IsaMismatch { module: module.isa, program: compressed.isa.id() });
    }
    let atoms = AtomTable::new(module, compressed)?;
    verify_words(module, compressed, &atoms)?;
    verify_image(compressed)?;
    verify_jump_tables(module, compressed, &atoms)?;
    Ok(())
}

/// The original-index → atom table of a program whose atoms cover the
/// module: branch, overflow-slot and jump-table checks look their targets
/// up in it.
struct AtomTable {
    /// The atom starting at each original instruction, or [`NO_ATOM`].
    atom_at: Vec<u32>,
}

/// An [`AtomTable`] slot for an instruction inside a codeword.
const NO_ATOM: u32 = u32::MAX;

impl AtomTable {
    /// Checks coverage (the atoms cover original instructions `0..n`
    /// exactly once, in order) while filling the table, in one pass.
    fn new(module: &ObjectModule, c: &CompressedProgram) -> Result<AtomTable, VerifyError> {
        let n = module.len();
        let mut atom_at = vec![NO_ATOM; n];
        let mut next = 0usize;
        for (i, atom) in c.atoms.iter().enumerate() {
            if atom.orig() != next {
                return Err(VerifyError::CoverageGap { expected: next, got: atom.orig() });
            }
            next += atom.covered();
            if next > n {
                return Err(VerifyError::CoverageGap { expected: next, got: n });
            }
            // Only an atom covering nothing can start at `n`.
            if let Some(slot) = atom_at.get_mut(atom.orig()) {
                *slot = i as u32;
            }
        }
        if next != n {
            return Err(VerifyError::CoverageGap { expected: next, got: n });
        }
        Ok(AtomTable { atom_at })
    }

    /// The compressed address of original instruction `orig`, if an atom
    /// starts there and has an address.
    fn address_of(&self, c: &CompressedProgram, orig: usize) -> Option<u32> {
        match self.atom_at.get(orig) {
            Some(&atom) if atom != NO_ATOM => c.addresses.get(atom as usize).copied(),
            _ => None,
        }
    }
}

/// Word fidelity, over atoms that cover the module (see [`AtomTable::new`]).
fn verify_words(
    module: &ObjectModule,
    c: &CompressedProgram,
    atoms: &AtomTable,
) -> Result<(), VerifyError> {
    for (i, atom) in c.atoms.iter().enumerate() {
        match *atom {
            Atom::Codeword { entry, orig, len } => {
                let orig = orig as usize;
                let words = c.dictionary.entries().get(entry as usize).map(|e| &e.words);
                let Some(words) = words.filter(|words| words.len() == len as usize) else {
                    return Err(VerifyError::WordMismatch {
                        orig,
                        want: module.code[orig],
                        got: 0,
                    });
                };
                for (k, &w) in words.iter().enumerate() {
                    if module.code[orig + k] != w {
                        return Err(VerifyError::WordMismatch {
                            orig: orig + k,
                            want: module.code[orig + k],
                            got: w,
                        });
                    }
                }
            }
            Atom::Insn { word, orig } => {
                let orig = orig as usize;
                let original = module.code[orig];
                match c.isa.rel_branch_info(original) {
                    None => {
                        if word != original {
                            return Err(VerifyError::WordMismatch {
                                orig,
                                want: original,
                                got: word,
                            });
                        }
                    }
                    Some(info) => {
                        // Patched branch: non-offset bits must match, and the
                        // re-encoded offset must land on the target atom.
                        let want_target = (orig as i64 + (info.offset / 4) as i64) as usize;
                        let units = c.isa.read_offset_units(word, info.kind) as i64;
                        let target_addr = c
                            .addresses
                            .get(i)
                            .map(|&site| site as i64 + units * c.encoding.granule_nibbles() as i64);
                        let found = atoms.address_of(c, want_target).map(i64::from);
                        if found.is_none() || found != target_addr {
                            return Err(VerifyError::BranchTargetMismatch { orig, want_target });
                        }
                    }
                }
            }
            Atom::ViaTable { word, orig, slot } => {
                let orig = orig as usize;
                let original = module.code[orig];
                let info = c.isa.rel_branch_info(original);
                let Some(info) = info.filter(|_| word == original) else {
                    return Err(VerifyError::WordMismatch { orig, want: original, got: word });
                };
                let want_target = (orig as i64 + (info.offset / 4) as i64) as usize;
                let found = atoms.address_of(c, want_target);
                if found.is_none() || found != c.overflow_table.get(slot as usize).copied() {
                    return Err(VerifyError::BranchTargetMismatch { orig, want_target });
                }
            }
        }
    }
    Ok(())
}

fn verify_image(c: &CompressedProgram) -> Result<(), VerifyError> {
    let huff = c.huffman.as_ref();
    if c.encoding == EncodingKind::Huffman && huff.is_none() {
        // No item of the image can be read without its code.
        return Err(VerifyError::ImageMismatch { atom: 0 });
    }
    let mut r = NibbleReader::new(&c.image);
    for (i, atom) in c.atoms.iter().enumerate() {
        if c.addresses.get(i).map(|&a| a as u64) != Some(r.pos()) {
            return Err(VerifyError::ImageMismatch { atom: i });
        }
        match *atom {
            Atom::Insn { word, .. } => {
                if read_item_coded(c.encoding, c.isa, huff, &mut r) != Some(Item::Insn(word)) {
                    return Err(VerifyError::ImageMismatch { atom: i });
                }
            }
            Atom::Codeword { entry, .. } => {
                let want = Item::Codeword(c.dictionary.rank_of(entry));
                if read_item_coded(c.encoding, c.isa, huff, &mut r) != Some(want) {
                    return Err(VerifyError::ImageMismatch { atom: i });
                }
            }
            Atom::ViaTable { word, orig, slot } => {
                let trampoline = via_table_expansion_coded(c.isa, c.encoding, huff, word, slot);
                // Decode the address the trampoline loads: a backend that
                // built the wrong load would dispatch through another
                // branch's slot, and the words would still match.
                if c.isa.overflow_table_address(&trampoline) != Some(overflow_slot_address(slot)) {
                    return Err(VerifyError::TrampolineSlotMismatch { orig: orig as usize, slot });
                }
                for w in trampoline {
                    if read_item_coded(c.encoding, c.isa, huff, &mut r) != Some(Item::Insn(w)) {
                        return Err(VerifyError::ImageMismatch { atom: i });
                    }
                }
            }
        }
    }
    Ok(())
}

fn verify_jump_tables(
    module: &ObjectModule,
    c: &CompressedProgram,
    atoms: &AtomTable,
) -> Result<(), VerifyError> {
    for (t, table) in module.jump_tables.iter().enumerate() {
        for (e, &idx) in table.targets.iter().enumerate() {
            let patched = c.jump_tables.get(t).and_then(|table| table.get(e)).copied();
            if patched.is_none() || atoms.address_of(c, idx) != patched {
                return Err(VerifyError::JumpTableMismatch { table: t, entry: e });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompressionConfig, Compressor};
    use codense_isa::{BranchKind, Isa, IsaId, IsaRef, RelBranch};
    use codense_obj::JumpTable;
    use codense_ppc::asm::Assembler;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    fn looped_module() -> ObjectModule {
        let mut a = Assembler::new();
        for _ in 0..12 {
            a.emit(Insn::Addi { rt: R3, ra: R3, si: 1 });
            a.emit(Insn::Addi { rt: R4, ra: R4, si: 2 });
            a.emit(Insn::Addi { rt: R5, ra: R5, si: 3 });
        }
        a.label("head");
        a.emit(Insn::Addi { rt: R6, ra: R6, si: -1 });
        a.emit(Insn::Cmpwi { bf: CR0, ra: R6, si: 0 });
        a.bne(CR0, "head");
        a.emit(Insn::Sc);
        let mut m = ObjectModule::new("loop", IsaId::Ppc);
        m.code = a.finish().unwrap();
        m.jump_tables.push(JumpTable { targets: vec![0, 36] });
        m
    }

    #[test]
    fn all_schemes_verify() {
        let m = looped_module();
        for config in [
            CompressionConfig::baseline(),
            CompressionConfig::small_dictionary(16),
            CompressionConfig::nibble_aligned(),
            CompressionConfig::huffman(),
        ] {
            let c = Compressor::new(config.clone()).compress(&m).unwrap();
            verify(&m, &c).unwrap_or_else(|e| panic!("{config:?}: {e}"));
        }
    }

    #[test]
    fn corrupted_dictionary_fails_verification() {
        let m = looped_module();
        let mut c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        assert!(!c.dictionary.is_empty());
        // Corrupt an entry word.
        let mut dict = crate::dict::Dictionary::new();
        for e in c.dictionary.entries() {
            let mut words = e.words.clone();
            words[0] ^= 4; // flip a bit
            dict.push(words, e.replaced);
        }
        c.dictionary = dict;
        assert!(verify(&m, &c).is_err());
    }

    #[test]
    fn corrupted_image_fails_verification() {
        let m = looped_module();
        let mut c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
        let mid = c.image.len() / 2;
        c.image[mid] ^= 0xff;
        assert!(matches!(verify(&m, &c), Err(VerifyError::ImageMismatch { .. })));
    }

    #[test]
    fn foreign_isa_fails_verification() {
        let m = looped_module();
        let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
        let mut mips = m.clone();
        mips.isa = IsaId::Mips;
        assert_eq!(
            verify(&mips, &c),
            Err(VerifyError::IsaMismatch { module: IsaId::Mips, program: IsaId::Ppc })
        );
    }

    #[test]
    fn branch_targets_outside_the_text_are_typed_mismatches() {
        let m = looped_module();
        let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
        let site = m.code.len() - 2; // the `bne` back to `head`
        assert!(codense_ppc::branch::rel_branch_info(m.code[site]).is_some());
        for bd in [0x1000, -0x1000] {
            let mut bad = m.clone();
            bad.code[site] = codense_ppc::encode(&Insn::Bc {
                bo: codense_ppc::insn::bo::IF_FALSE,
                bi: 2,
                bd,
                aa: false,
                lk: false,
            });
            let want_target = (site as i64 + bd as i64 / 4) as usize;
            assert_eq!(
                verify(&bad, &c),
                Err(VerifyError::BranchTargetMismatch { orig: site, want_target })
            );
        }
    }

    #[test]
    fn atoms_running_past_the_text_are_coverage_gaps() {
        let m = looped_module();
        let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        let mut short = m.clone();
        short.code.truncate(m.code.len() - 1);
        short.jump_tables.clear();
        assert!(matches!(verify(&short, &c), Err(VerifyError::CoverageGap { .. })));
    }

    #[test]
    fn corrupted_jump_table_fails_verification() {
        let m = looped_module();
        let mut c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        c.jump_tables[0][1] += 2;
        assert!(matches!(verify(&m, &c), Err(VerifyError::JumpTableMismatch { .. })));
    }

    #[test]
    fn short_jump_tables_fail_verification() {
        let m = looped_module();
        let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        let mut short = c.clone();
        short.jump_tables[0].pop();
        assert_eq!(verify(&m, &short), Err(VerifyError::JumpTableMismatch { table: 0, entry: 1 }));
        let mut none = c;
        none.jump_tables.clear();
        assert_eq!(verify(&m, &none), Err(VerifyError::JumpTableMismatch { table: 0, entry: 0 }));
    }

    #[test]
    fn huffman_program_without_its_code_fails_verification() {
        let m = far_branch_module();
        let mut c = Compressor::new(CompressionConfig::huffman()).compress(&m).unwrap();
        assert_eq!(c.overflow_table.len(), 1);
        c.huffman = None;
        assert_eq!(verify(&m, &c), Err(VerifyError::ImageMismatch { atom: 0 }));
    }

    #[test]
    fn short_address_list_fails_verification() {
        let m = looped_module();
        let mut c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
        // The last atom is the `sc` after the loop: no branch reads its
        // address, so the image check is the one that misses it.
        c.addresses.pop();
        let last = c.atoms.len() - 1;
        assert_eq!(verify(&m, &c), Err(VerifyError::ImageMismatch { atom: last }));
    }

    #[test]
    fn short_dictionary_fails_verification() {
        let m = looped_module();
        let mut c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        let dropped = c.dictionary.len() as u32 - 1;
        let mut dict = crate::dict::Dictionary::new();
        for e in &c.dictionary.entries()[..dropped as usize] {
            dict.push(e.words.clone(), e.replaced);
        }
        c.dictionary = dict;
        let orig = c
            .atoms
            .iter()
            .find(|a| matches!(a, Atom::Codeword { entry, .. } if *entry == dropped))
            .expect("every entry is used")
            .orig();
        let want = m.code[orig];
        assert_eq!(verify(&m, &c), Err(VerifyError::WordMismatch { orig, want, got: 0 }));
    }

    /// A `bne` over 1,200 distinct instructions, as the first atom: under
    /// the nibble-granular encodings its patched offset overflows the
    /// 14-bit field, so it is rewritten through overflow slot 0.
    fn far_branch_module() -> ObjectModule {
        let mut a = Assembler::new();
        a.bne(CR0, "far");
        for si in 0..1200 {
            a.emit(Insn::Addi { rt: R4, ra: R4, si });
        }
        a.label("far");
        a.emit(Insn::Sc);
        let mut m = ObjectModule::new("far", IsaId::Ppc);
        m.code = a.finish().unwrap();
        m
    }

    #[test]
    fn short_overflow_table_fails_verification() {
        let m = far_branch_module();
        let mut c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
        assert_eq!(c.overflow_table.len(), 1);
        verify(&m, &c).unwrap();
        c.overflow_table.pop();
        let want_target = m.code.len() - 1;
        assert_eq!(verify(&m, &c), Err(VerifyError::BranchTargetMismatch { orig: 0, want_target }));
    }

    /// PowerPC, except that every trampoline loads the slot after its own:
    /// the packed image still matches the atoms it was built from, so only
    /// the decoded load address tells the fault.
    struct NextSlotPpc;

    static NEXT_SLOT_PPC: NextSlotPpc = NextSlotPpc;

    impl Isa for NextSlotPpc {
        fn id(&self) -> IsaId {
            IsaId::Ppc
        }
        fn rel_branch_info(&self, word: u32) -> Option<RelBranch> {
            codense_ppc::ISA.rel_branch_info(word)
        }
        fn branch_field_bits(&self, kind: BranchKind) -> u32 {
            codense_ppc::ISA.branch_field_bits(kind)
        }
        fn patch_offset_units(&self, word: u32, kind: BranchKind, units: i32) -> u32 {
            codense_ppc::ISA.patch_offset_units(word, kind, units)
        }
        fn read_offset_units(&self, word: u32, kind: BranchKind) -> i32 {
            codense_ppc::ISA.read_offset_units(word, kind)
        }
        fn escape_bytes(&self) -> &'static [u8] {
            codense_ppc::ISA.escape_bytes()
        }
        fn ends_block(&self, word: u32) -> bool {
            codense_ppc::ISA.ends_block(word)
        }
        fn overflow_expansion(
            &self,
            word: u32,
            slot: u32,
            granule: u32,
            insn: u32,
        ) -> Option<Vec<u32>> {
            codense_ppc::ISA.overflow_expansion(word, slot + 1, granule, insn)
        }
        fn overflow_table_address(&self, expansion: &[u32]) -> Option<u32> {
            codense_ppc::ISA.overflow_table_address(expansion)
        }
        fn disassemble(&self, word: u32, addr: u32) -> String {
            codense_ppc::ISA.disassemble(word, addr)
        }
        fn new_core(&self, mem_bytes: usize) -> Box<dyn codense_isa::Core> {
            codense_ppc::ISA.new_core(mem_bytes)
        }
    }

    #[test]
    fn a_trampoline_loading_another_slot_fails_verification() {
        let m = far_branch_module();
        let c = Compressor::new(CompressionConfig::nibble_aligned())
            .with_isa(IsaRef(&NEXT_SLOT_PPC))
            .compress(&m)
            .unwrap();
        assert_eq!(c.overflow_table.len(), 1);
        assert_eq!(verify(&m, &c), Err(VerifyError::TrampolineSlotMismatch { orig: 0, slot: 0 }));
    }
}
