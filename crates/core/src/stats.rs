//! Compressed-program statistics: the composition breakdown of Fig 9 and the
//! per-entry-length savings of Fig 7.

use crate::compressor::{Atom, CompressedProgram};
use crate::config::EncodingKind;
use crate::encoding;

/// Byte-level composition of a compressed program (the paper's Fig 9).
///
/// Values are fractional bytes for the nibble-aligned scheme (an escape is
/// half a byte there). `uncompressed_insns + codeword_escape +
/// codeword_index + dictionary ≈ text_bytes + dictionary_bytes`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Composition {
    /// Bytes of instructions left uncompressed (including overflow-branch
    /// dispatch sequences).
    pub uncompressed_insns: f64,
    /// Bytes of codeword escape prefixes (escape bytes in the baseline
    /// scheme; the per-instruction escape nibbles in the nibble scheme are
    /// charged here too).
    pub codeword_escape: f64,
    /// Bytes of codeword payload (index bytes / codeword nibbles).
    pub codeword_index: f64,
    /// Dictionary storage bytes.
    pub dictionary: f64,
}

impl Composition {
    /// Total accounted bytes.
    pub fn total(&self) -> f64 {
        self.uncompressed_insns + self.codeword_escape + self.codeword_index + self.dictionary
    }

    /// Each component as a fraction of the total.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total();
        [
            self.uncompressed_insns / t,
            self.codeword_escape / t,
            self.codeword_index / t,
            self.dictionary / t,
        ]
    }
}

impl CompressedProgram {
    /// Computes the Fig 9 composition breakdown.
    pub fn composition(&self) -> Composition {
        let mut uncompressed = 0.0;
        let mut escape = 0.0;
        let mut index = 0.0;
        // Escape nibbles charged per uncompressed instruction: one for the
        // nibble scheme, the escape codeword's true length under Huffman.
        let escape_nibbles = match self.encoding {
            EncodingKind::NibbleAligned => 1.0,
            EncodingKind::Huffman => self.huffman.as_ref().map_or(0.0, |h| h.escape_len() as f64),
            _ => 0.0,
        };
        for atom in &self.atoms {
            match *atom {
                Atom::Insn { .. } => {
                    uncompressed += 4.0;
                    escape += escape_nibbles / 2.0;
                }
                Atom::ViaTable { word, slot, .. } => {
                    let n = crate::compressor::via_table_expansion_coded(
                        self.isa,
                        self.encoding,
                        self.huffman.as_ref(),
                        word,
                        slot,
                    )
                    .len() as f64;
                    uncompressed += 4.0 * n;
                    escape += escape_nibbles / 2.0 * n;
                }
                Atom::Codeword { entry, .. } => match self.encoding {
                    EncodingKind::Baseline => {
                        escape += 1.0;
                        index += 1.0;
                    }
                    EncodingKind::OneByte => {
                        escape += 1.0;
                    }
                    EncodingKind::NibbleAligned | EncodingKind::Huffman => {
                        let rank = self.dictionary.rank_of(entry);
                        index += encoding::try_codeword_nibbles_coded(
                            self.encoding,
                            self.huffman.as_ref(),
                            rank,
                        )
                        .expect("compressed atom has a codeword")
                            as f64
                            / 2.0;
                    }
                },
            }
        }
        Composition {
            uncompressed_insns: uncompressed,
            codeword_escape: escape,
            codeword_index: index,
            dictionary: self.dictionary_bytes() as f64,
        }
    }

    /// Bytes removed from the program by entries of each length (the paper's
    /// Fig 7): `out[l]` = net bytes saved by all dictionary entries of `l`
    /// instructions, using the entry's actual codeword size.
    pub fn savings_by_length(&self, max_len: usize) -> Vec<f64> {
        let mut out = vec![0.0; max_len + 1];
        for (id, e) in self.dictionary.entries().iter().enumerate() {
            let rank = self.dictionary.rank_of(id as u32);
            let cw_bytes =
                encoding::try_codeword_nibbles_coded(self.encoding, self.huffman.as_ref(), rank)
                    .expect("dictionary entry has a codeword") as f64
                    / 2.0;
            let saved =
                e.replaced as f64 * (4.0 * e.len() as f64 - cw_bytes) - 4.0 * e.len() as f64;
            out[e.len().min(max_len)] += saved;
        }
        out
    }

    /// Number of codeword atoms in the stream.
    pub fn codeword_atoms(&self) -> usize {
        self.atoms.iter().filter(|a| matches!(a, Atom::Codeword { .. })).count()
    }
}

#[cfg(test)]
mod tests {
    use crate::{CompressionConfig, Compressor};
    use codense_obj::ObjectModule;
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    fn module() -> ObjectModule {
        let mut words = Vec::new();
        for i in 0..48 {
            words.push(encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }));
            words.push(encode(&Insn::Addi { rt: R4, ra: R4, si: (i % 3) as i16 }));
        }
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        m.code = words;
        m
    }

    #[test]
    fn composition_accounts_for_everything() {
        let m = module();
        for config in [CompressionConfig::baseline(), CompressionConfig::nibble_aligned()] {
            let c = Compressor::new(config).compress(&m).unwrap();
            let comp = c.composition();
            let expected = c.text_bytes() as f64 + c.dictionary_bytes() as f64;
            // Allow half a byte of final-nibble padding slack.
            assert!((comp.total() - expected).abs() <= 0.5, "{} vs {}", comp.total(), expected);
            let fracs = comp.fractions();
            assert!((fracs.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn baseline_escape_equals_index_bytes() {
        let c = Compressor::new(CompressionConfig::baseline()).compress(&module()).unwrap();
        let comp = c.composition();
        assert_eq!(comp.codeword_escape, comp.codeword_index);
        assert_eq!(comp.codeword_escape as usize, c.codeword_atoms());
    }

    #[test]
    fn savings_by_length_sums_to_total_savings() {
        let m = module();
        let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        let by_len: f64 = c.savings_by_length(4).iter().sum();
        let actual = m.text_bytes() as f64
            - (c.text_bytes() as f64 + c.dictionary_bytes() as f64 - c.dictionary_bytes() as f64)
            - c.dictionary_bytes() as f64;
        // by_len counts dictionary storage inside each entry's net saving,
        // so it equals original - (text + dictionary), up to padding.
        assert!((by_len - actual).abs() <= 1.0, "{by_len} vs {actual}");
    }
}
