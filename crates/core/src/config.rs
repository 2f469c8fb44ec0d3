//! Compression configuration: codeword encodings and selection limits.

/// Which codeword encoding scheme the compressed program uses.
///
/// The three schemes the paper evaluates, plus a frequency-driven extension:
///
/// * [`Baseline`](EncodingKind::Baseline) (§4.1): 2-byte codewords — an
///   escape byte built from one of the 8 illegal PowerPC primary opcodes
///   (32 escape bytes total) followed by an index byte, for up to
///   32 × 256 = 8192 codewords. Uncompressed instructions remain valid
///   PowerPC, so uncompressed programs still run.
/// * [`OneByte`](EncodingKind::OneByte) (§4.1.2): 1-byte codewords drawn
///   directly from the 32 escape bytes, for tiny (≤ 512-byte) dictionaries.
/// * [`NibbleAligned`](EncodingKind::NibbleAligned) (§4.1.3, Fig 10):
///   variable-length codewords of 4/8/12/16 bits, aligned to 4-bit
///   boundaries; one nibble escapes a 36-bit uncompressed instruction.
/// * [`Huffman`](EncodingKind::Huffman) (§2.1's statistical-beats-dictionary
///   observation): nibble-aligned canonical Huffman codewords whose lengths
///   come from the program's *actual* dictionary-entry usage frequencies
///   ([`crate::huffcode::HuffCode`]); the escape is itself a Huffman symbol.
///
/// This is the one tag ↔ name table for encodings: the `.cdns` header and
/// a serve `REQ_COMPRESS` frame carry the [`tag`](EncodingKind::tag), the
/// CLI's `--encoding` and the ratio artifacts the
/// [`name`](EncodingKind::name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingKind {
    /// 2-byte escape + index codewords (the paper's baseline), tag 0.
    Baseline = 0,
    /// 1-byte escape-byte codewords (small-dictionary scheme, Fig 8), tag 1.
    OneByte = 1,
    /// Nibble-aligned 4/8/12/16-bit codewords (Fig 10/11), tag 2.
    NibbleAligned = 2,
    /// Frequency-driven nibble-aligned canonical Huffman codewords, tag 3.
    Huffman = 3,
}

impl EncodingKind {
    /// Every encoding, in tag order.
    pub const ALL: [EncodingKind; 4] = [
        EncodingKind::Baseline,
        EncodingKind::OneByte,
        EncodingKind::NibbleAligned,
        EncodingKind::Huffman,
    ];

    /// The tag files and frames record.
    pub const fn tag(self) -> u8 {
        self as u8
    }

    /// The encoding a tag names, or `None` for an unknown tag.
    pub fn from_tag(tag: u8) -> Option<EncodingKind> {
        EncodingKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Short lowercase name (`"baseline"`, `"onebyte"`, `"nibble"`,
    /// `"huffman"`).
    pub const fn name(self) -> &'static str {
        match self {
            EncodingKind::Baseline => "baseline",
            EncodingKind::OneByte => "onebyte",
            EncodingKind::NibbleAligned => "nibble",
            EncodingKind::Huffman => "huffman",
        }
    }

    /// The encoding a [`name`](EncodingKind::name) names.
    pub fn from_name(name: &str) -> Option<EncodingKind> {
        EncodingKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Maximum number of dictionary entries the codeword space can index.
    pub fn capacity(self) -> usize {
        match self {
            EncodingKind::Baseline => 32 * 256,
            EncodingKind::OneByte => 32,
            EncodingKind::NibbleAligned => crate::encoding::nibble::CAPACITY,
            // Matches the baseline's dictionary budget; the code adapts its
            // lengths to however many entries selection actually keeps.
            EncodingKind::Huffman => 8192,
        }
    }

    /// Bits an uncompressed instruction occupies in the compressed stream
    /// (36 for the nibble-granular schemes: 4-bit escape estimate + 32-bit
    /// word; the Huffman escape's true length is known only after the code
    /// is built).
    pub fn uncompressed_insn_bits(self) -> u32 {
        match self {
            EncodingKind::NibbleAligned | EncodingKind::Huffman => 36,
            _ => 32,
        }
    }

    /// Estimated codeword size in bits, used by the greedy selector's
    /// savings function. Exact for the fixed-length schemes. For the
    /// variable-length schemes the true size (4–16 bits nibble-aligned,
    /// 4–32 Huffman) is only known after frequency ranking, so selection
    /// conservatively assumes a worst practical case (16): optimistic
    /// estimates would admit entries that break even at best — e.g. a
    /// four-instruction sequence occurring *once* costs 144 escaped bits
    /// uncompressed and 128 dictionary + 16 codeword bits compressed —
    /// bloating the dictionary with dead weight.
    pub fn codeword_bits_estimate(self) -> u32 {
        match self {
            EncodingKind::Baseline => 16,
            EncodingKind::OneByte => 8,
            EncodingKind::NibbleAligned | EncodingKind::Huffman => 16,
        }
    }

    /// Branch-offset granularity in nibbles: "the size of the smallest
    /// codeword" (§3.2.2) — 2 bytes, 1 byte, or one nibble.
    pub fn granule_nibbles(self) -> u32 {
        match self {
            EncodingKind::Baseline => 4,
            EncodingKind::OneByte => 2,
            EncodingKind::NibbleAligned | EncodingKind::Huffman => 1,
        }
    }
}

/// Parameters of one compression run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionConfig {
    /// Maximum instructions per dictionary entry (the paper sweeps 1–8;
    /// baseline uses 4 = 16 bytes).
    pub max_entry_len: usize,
    /// Maximum dictionary entries (further capped by the encoding's
    /// codeword capacity).
    pub max_codewords: usize,
    /// Codeword encoding scheme.
    pub encoding: EncodingKind,
}

impl CompressionConfig {
    /// The paper's baseline configuration: 2-byte codewords, entries of up
    /// to 4 instructions, full 8192-codeword space.
    pub fn baseline() -> CompressionConfig {
        CompressionConfig {
            max_entry_len: 4,
            max_codewords: 8192,
            encoding: EncodingKind::Baseline,
        }
    }

    /// The small-dictionary scheme of Fig 8 with the given entry count
    /// (8, 16 or 32 → 128/256/512-byte dictionaries).
    pub fn small_dictionary(entries: usize) -> CompressionConfig {
        CompressionConfig {
            max_entry_len: 4,
            max_codewords: entries,
            encoding: EncodingKind::OneByte,
        }
    }

    /// The most aggressive scheme (Fig 11): nibble-aligned variable-length
    /// codewords, full codeword space.
    pub fn nibble_aligned() -> CompressionConfig {
        CompressionConfig {
            max_entry_len: 4,
            max_codewords: crate::encoding::nibble::CAPACITY,
            encoding: EncodingKind::NibbleAligned,
        }
    }

    /// The frequency-driven Huffman-codeword scheme: nibble-aligned
    /// canonical codewords sized by actual dictionary-entry usage.
    pub fn huffman() -> CompressionConfig {
        CompressionConfig {
            max_entry_len: 4,
            max_codewords: EncodingKind::Huffman.capacity(),
            encoding: EncodingKind::Huffman,
        }
    }

    /// The effective dictionary-size limit (config cap ∧ encoding capacity).
    pub fn effective_max_codewords(&self) -> usize {
        self.max_codewords.min(self.encoding.capacity())
    }
}

impl Default for CompressionConfig {
    fn default() -> CompressionConfig {
        CompressionConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = CompressionConfig::baseline();
        assert_eq!(c.max_entry_len, 4);
        assert_eq!(c.effective_max_codewords(), 8192);
        assert_eq!(c.encoding.codeword_bits_estimate(), 16);
        assert_eq!(c.encoding.granule_nibbles(), 4);
    }

    #[test]
    fn one_byte_capacity_is_escape_count() {
        assert_eq!(EncodingKind::OneByte.capacity(), 32);
        assert_eq!(CompressionConfig::small_dictionary(64).effective_max_codewords(), 32);
    }

    #[test]
    fn nibble_escape_cost() {
        assert_eq!(EncodingKind::NibbleAligned.uncompressed_insn_bits(), 36);
        assert_eq!(EncodingKind::NibbleAligned.granule_nibbles(), 1);
    }

    #[test]
    fn huffman_is_nibble_granular() {
        let c = CompressionConfig::huffman();
        assert_eq!(c.effective_max_codewords(), 8192);
        assert_eq!(c.encoding.granule_nibbles(), 1);
        assert_eq!(c.encoding.uncompressed_insn_bits(), 36);
        assert_eq!(c.encoding.codeword_bits_estimate(), 16);
    }

    #[test]
    fn encodings_round_trip_through_tags_and_names() {
        for kind in EncodingKind::ALL {
            assert_eq!(EncodingKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(EncodingKind::from_name(kind.name()), Some(kind));
        }
        // `.cdns` headers and serve frames record these values.
        let tags = EncodingKind::ALL.map(|k| (k.tag(), k.name()));
        assert_eq!(tags, [(0, "baseline"), (1, "onebyte"), (2, "nibble"), (3, "huffman")]);
        assert_eq!(EncodingKind::from_tag(4), None);
        assert_eq!(EncodingKind::from_name("arith"), None);
    }
}
