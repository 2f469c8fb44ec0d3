//! Round-trip verification: proves a compressed program is semantically
//! equivalent to its original.
//!
//! The program must be compressed for the ISA the module records; then
//! four properties are checked:
//!
//! 1. **Coverage** — the expanded atom stream covers original instructions
//!    `0..n` exactly once, in order.
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
    verify_coverage_and_words(module, compressed)?;
    verify_image(compressed)?;
    verify_jump_tables(module, compressed)?;
    Ok(())
}

fn verify_coverage_and_words(
    module: &ObjectModule,
    c: &CompressedProgram,
) -> Result<(), VerifyError> {
    let mut next = 0usize;
    for (i, atom) in c.atoms.iter().enumerate() {
        if atom.orig() != next {
            return Err(VerifyError::CoverageGap { expected: next, got: atom.orig() });
        }
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
                        let ok = c.address_of_orig(want_target) == Some(target_addr as u64);
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
                if c.address_of_orig(want_target) != Some(c.overflow_table[slot]) {
                    return Err(VerifyError::BranchTargetMismatch { orig, want_target });
                }
            }
        }
        next += atom.covered();
    }
    if next != module.len() {
        return Err(VerifyError::CoverageGap { expected: next, got: module.len() });
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

fn verify_jump_tables(module: &ObjectModule, c: &CompressedProgram) -> Result<(), VerifyError> {
    for (t, table) in module.jump_tables.iter().enumerate() {
        for (e, &idx) in table.targets.iter().enumerate() {
            if c.address_of_orig(idx) != Some(c.jump_tables[t][e]) {
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
    fn corrupted_jump_table_fails_verification() {
        let m = looped_module();
        let mut c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        c.jump_tables[0][1] += 2;
        assert!(matches!(verify(&m, &c), Err(VerifyError::JumpTableMismatch { .. })));
    }
}
