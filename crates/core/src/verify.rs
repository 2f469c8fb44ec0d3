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
//!    logical atom stream, item by item.
//! 4. **Data patching** — every jump-table entry was rewritten to the
//!    compressed address of its original target.

use codense_obj::ObjectModule;

use crate::compressor::{via_table_expansion_coded, Atom, CompressedProgram};
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
    /// starts there.
    fn address_of(&self, c: &CompressedProgram, orig: usize) -> Option<u64> {
        match self.atom_at.get(orig) {
            Some(&atom) if atom != NO_ATOM => Some(c.addresses[atom as usize]),
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
                let words = &c.dictionary.entry(entry).words;
                if words.len() != len {
                    return Err(VerifyError::WordMismatch {
                        orig,
                        want: module.code[orig],
                        got: 0,
                    });
                }
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
                        let target_addr =
                            c.addresses[i] as i64 + units * c.encoding.granule_nibbles() as i64;
                        let ok = atoms.address_of(c, want_target) == Some(target_addr as u64);
                        if !ok {
                            return Err(VerifyError::BranchTargetMismatch { orig, want_target });
                        }
                    }
                }
            }
            Atom::ViaTable { word, orig, slot } => {
                let original = module.code[orig];
                if word != original {
                    return Err(VerifyError::WordMismatch { orig, want: original, got: word });
                }
                let info = c.isa.rel_branch_info(original).expect("ViaTable is a branch");
                let want_target = (orig as i64 + (info.offset / 4) as i64) as usize;
                if atoms.address_of(c, want_target) != Some(c.overflow_table[slot]) {
                    return Err(VerifyError::BranchTargetMismatch { orig, want_target });
                }
            }
        }
    }
    Ok(())
}

fn verify_image(c: &CompressedProgram) -> Result<(), VerifyError> {
    let huff = c.huffman.as_ref();
    let mut r = NibbleReader::new(&c.image);
    for (i, atom) in c.atoms.iter().enumerate() {
        if r.pos() != c.addresses[i] {
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
            Atom::ViaTable { word, slot, .. } => {
                for w in via_table_expansion_coded(c.isa, c.encoding, huff, word, slot) {
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
            if atoms.address_of(c, idx) != Some(c.jump_tables[t][e]) {
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
    use codense_isa::IsaId;
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
}
