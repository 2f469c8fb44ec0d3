//! Edge cases of the hybrid exemption mask in `Compressor::compress_masked`:
//! all-hot, all-cold, and hot-in-one-function/cold-in-another partitions.

use codense_core::compressor::Atom;
use codense_core::verify::verify;
use codense_core::{CompressionConfig, Compressor};
use codense_obj::{FunctionInfo, ObjectModule};
use codense_ppc::asm::Assembler;
use codense_ppc::insn::Insn;
use codense_ppc::reg::*;

fn configs() -> Vec<CompressionConfig> {
    vec![
        CompressionConfig::baseline(),
        CompressionConfig::small_dictionary(32),
        CompressionConfig::nibble_aligned(),
    ]
}

/// A highly repetitive sequence the greedy compressor loves.
fn body(a: &mut Assembler) {
    for _ in 0..8 {
        a.emit(Insn::Addi { rt: R3, ra: R3, si: 1 });
        a.emit(Insn::Add { rt: R4, ra: R4, rb: R3, rc: false });
        a.emit(Insn::Or { ra: R5, rs: R4, rb: R3, rc: false });
        a.emit(Insn::Rlwinm { ra: R6, rs: R5, sh: 2, mb: 0, me: 31, rc: false });
    }
}

fn repetitive_module() -> ObjectModule {
    let mut a = Assembler::new();
    body(&mut a);
    a.emit(Insn::Sc);
    let mut m = ObjectModule::new("hybrid-policy", codense_obj::IsaId::Ppc);
    m.code = a.finish().unwrap();
    m.validate_with(codense_isa::IsaRef(&codense_ppc::ISA)).unwrap();
    m
}

#[test]
fn all_hot_mask_disables_the_dictionary() {
    let m = repetitive_module();
    for config in configs() {
        let c = Compressor::new(config).compress_masked(&m, &vec![true; m.len()]).unwrap();
        verify(&m, &c).unwrap();
        assert!(c.dictionary.is_empty(), "{:?}: no entry may form from exempt code", c.encoding);
        assert!(
            c.atoms.iter().all(|a| matches!(a, Atom::Insn { .. } | Atom::ViaTable { .. })),
            "{:?}: every atom must stay an escaped instruction",
            c.encoding
        );
        // An all-hot image never beats the original: byte-for-byte identical
        // size under the opcode-space encodings, strictly larger under
        // nibble (every instruction pays the ESCAPE prefix).
        if c.encoding == codense_core::EncodingKind::NibbleAligned {
            assert!(c.compression_ratio() > 1.0, "{:?}", c.encoding);
        } else {
            assert!((c.compression_ratio() - 1.0).abs() < 1e-9, "{:?}", c.encoding);
        }
    }
}

/// An all-cold (empty-hot) mask must be indistinguishable from the unmasked
/// path, down to the packed image bytes — `compress` is defined as
/// `compress_masked` with nothing exempt.
#[test]
fn all_cold_mask_is_byte_identical_to_plain_compression() {
    let m = codense_codegen::benchmark("compress", codense_obj::IsaId::Ppc).unwrap();
    for config in configs() {
        let plain = Compressor::new(config.clone()).compress(&m).unwrap();
        for mask in [vec![], vec![false; m.len()]] {
            let masked = Compressor::new(config.clone()).compress_masked(&m, &mask).unwrap();
            assert_eq!(plain.image, masked.image, "{:?}: packed image", config.encoding);
            assert_eq!(plain.atoms, masked.atoms, "{:?}: atom stream", config.encoding);
            assert_eq!(plain.dictionary, masked.dictionary, "{:?}: dictionary", config.encoding);
            assert_eq!(plain.total_nibbles, masked.total_nibbles, "{:?}", config.encoding);
        }
    }
}

/// Two functions with identical bodies; the first is hot (exempt), the
/// second cold. Occurrences must be counted only in the cold copy: the
/// dictionary still forms (from the cold function alone), no codeword ever
/// covers a hot instruction, and the cold copy still compresses.
#[test]
fn hot_function_exempt_cold_twin_still_compresses() {
    let mut a = Assembler::new();
    body(&mut a); // hot copy: insns 0..33
    a.blr();
    body(&mut a); // cold copy: insns 34..67
    a.emit(Insn::Sc);
    let mut m = ObjectModule::new("twin", codense_obj::IsaId::Ppc);
    m.code = a.finish().unwrap();
    let half = 33; // body + blr
    m.functions = vec![
        FunctionInfo {
            name: "hot".into(),
            start: 0,
            end: half,
            prologue_len: 0,
            epilogues: vec![],
        },
        FunctionInfo {
            name: "cold".into(),
            start: half,
            end: m.code.len(),
            prologue_len: 0,
            epilogues: vec![],
        },
    ];
    m.validate_with(codense_isa::IsaRef(&codense_ppc::ISA)).unwrap();

    let mut exempt = vec![false; m.len()];
    exempt[..half].iter_mut().for_each(|e| *e = true);

    for config in configs() {
        let c = Compressor::new(config).compress_masked(&m, &exempt).unwrap();
        verify(&m, &c).unwrap();
        assert!(
            !c.dictionary.is_empty(),
            "{:?}: the cold twin alone must still feed the dictionary",
            c.encoding
        );
        let mut hot_covered = 0usize;
        let mut cold_covered = 0usize;
        for atom in &c.atoms {
            if let Atom::Codeword { .. } = *atom {
                let (orig, len) = (atom.orig(), atom.covered());
                assert!(
                    orig >= half && orig + len <= m.len(),
                    "{:?}: codeword at {orig} (+{len}) covers hot code",
                    c.encoding
                );
                cold_covered += len;
            } else if atom.orig() < half {
                hot_covered += 1;
            }
        }
        assert_eq!(hot_covered, half, "{:?}: hot copy fully escaped", c.encoding);
        assert!(cold_covered > 0, "{:?}: cold copy never compressed", c.encoding);
    }
}

/// Mask length must match the module or be empty — anything else is a bug
/// in the caller and must not be silently accepted.
#[test]
#[should_panic(expected = "exemption mask length")]
fn wrong_length_mask_panics() {
    let m = repetitive_module();
    let _ = Compressor::new(CompressionConfig::baseline()).compress_masked(&m, &[true; 3]);
}
