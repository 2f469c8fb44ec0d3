//! A binary container format for compressed programs — what a firmware
//! build system would actually flash: the packed text image, the expansion
//! dictionary (in codeword-rank order, ready for the decoder's on-chip
//! table), patched jump tables, and the overflow table, all integrity-
//! checked.
//!
//! Layout (all multi-byte fields big-endian, like the PowerPC target):
//!
//! ```text
//! "CDNS"            magic
//! u16               format version (1)
//! u8                encoding tag (0 = baseline, 1 = one-byte, 2 = nibble,
//!                             3 = huffman; see `EncodingKind::tag`)
//! u8                ISA tag (0 = PowerPC, 1 = MIPS; see `codense_isa::IsaId`)
//! u32               original text bytes
//! u64               stream length in nibbles
//! u32               dictionary entry count          (rank order)
//!   per entry: u8 length (≤ MAX_ENTRY_LEN), u32 × length words
//! [encoding 3 only]
//! u32               huffman symbol count, then one nibble-length byte per
//!                   symbol (rank order, escape last) — the decoder rebuilds
//!                   the canonical code from lengths alone
//! u32               image byte length, then the image
//! u32               jump table count
//!   per table: u32 entry count, u32 × count nibble addresses
//! u32               overflow table entry count, u32 × count nibble addresses
//! u32               CRC-32 (IEEE) of everything above
//! ```

use codense_isa::IsaId;
use codense_obj::crc32::crc32;

use crate::compressor::CompressedProgram;
use crate::config::EncodingKind;

/// Magic bytes at offset 0.
pub const MAGIC: [u8; 4] = *b"CDNS";
/// Current format version.
pub const VERSION: u16 = 1;
/// Byte offset of the `u8` ISA tag: after the magic, version and encoding.
pub const ISA_TAG_AT: usize = 7;
/// The longest dictionary entry, in instructions, the format can record
/// (its length field is a `u8`). Mining caps windows here, so every
/// compressed program serializes.
pub const MAX_ENTRY_LEN: usize = u8::MAX as usize;

/// A deserialized, execution-ready compressed program: exactly the state the
/// paper's hardware needs (Fig 3) — no compression-time bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramImage {
    /// The instruction set the dictionary and escaped words are encoded in.
    pub isa: IsaId,
    /// Codeword encoding scheme.
    pub encoding: EncodingKind,
    /// Dictionary entries in codeword-rank order.
    pub dictionary_by_rank: Vec<Vec<u32>>,
    /// Huffman codeword nibble lengths, rank order with the escape symbol
    /// last (empty unless `encoding` is [`EncodingKind::Huffman`]). The
    /// canonical code — and the decoder's table — is fully determined by
    /// these lengths ([`crate::huffcode::HuffCode::from_nibble_lengths`]).
    pub huffman_lengths: Vec<u8>,
    /// The packed nibble stream.
    pub image: Vec<u8>,
    /// Stream length in nibbles.
    pub total_nibbles: u64,
    /// Patched jump tables (nibble addresses).
    pub jump_tables: Vec<Vec<u32>>,
    /// Overflow jump table (nibble addresses).
    pub overflow_table: Vec<u32>,
    /// Original text size (for ratio reporting).
    pub original_text_bytes: u32,
}

impl ProgramImage {
    /// Total flash footprint: image + dictionary + overflow table (+ jump
    /// tables, which existed in the uncompressed program too).
    pub fn footprint_bytes(&self) -> usize {
        self.image.len()
            + self.dictionary_by_rank.iter().map(|e| 4 * e.len()).sum::<usize>()
            + 4 * self.overflow_table.len()
            + self.huffman_lengths.len().div_ceil(2)
    }
}

/// Container errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Unknown encoding discriminant.
    BadEncoding(u8),
    /// Unknown ISA tag.
    BadIsa(u8),
    /// The container is shorter than its fields claim.
    Truncated,
    /// The CRC does not match the payload.
    ChecksumMismatch,
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::BadMagic => write!(f, "not a codense container (bad magic)"),
            ContainerError::BadVersion(v) => write!(f, "unsupported container version {v}"),
            ContainerError::BadEncoding(e) => write!(f, "unknown encoding discriminant {e}"),
            ContainerError::BadIsa(t) => write!(f, "unknown ISA tag {t} in container"),
            ContainerError::Truncated => write!(f, "container truncated"),
            ContainerError::ChecksumMismatch => write!(f, "container checksum mismatch"),
        }
    }
}

impl std::error::Error for ContainerError {}

/// Serializes a compressed program into the container format.
pub fn serialize(program: &CompressedProgram) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_be_bytes());
    out.push(program.encoding.tag());
    out.push(program.isa.id().tag());
    out.extend_from_slice(&(program.original_text_bytes as u32).to_be_bytes());
    out.extend_from_slice(&program.total_nibbles.to_be_bytes());

    out.extend_from_slice(&(program.dictionary.len() as u32).to_be_bytes());
    for rank in 0..program.dictionary.len() as u32 {
        let entry = program.dictionary.entry(program.dictionary.entry_of_rank(rank));
        out.push(u8::try_from(entry.words.len()).expect("mining caps entries at MAX_ENTRY_LEN"));
        for &w in &entry.words {
            out.extend_from_slice(&w.to_be_bytes());
        }
    }

    if program.encoding == EncodingKind::Huffman {
        let lengths = program.huffman.as_ref().map(|h| h.nibble_lengths()).unwrap_or_default();
        out.extend_from_slice(&(lengths.len() as u32).to_be_bytes());
        out.extend_from_slice(lengths);
    }

    out.extend_from_slice(&(program.image.len() as u32).to_be_bytes());
    out.extend_from_slice(&program.image);

    out.extend_from_slice(&(program.jump_tables.len() as u32).to_be_bytes());
    for table in &program.jump_tables {
        out.extend_from_slice(&(table.len() as u32).to_be_bytes());
        for &addr in table {
            out.extend_from_slice(&addr.to_be_bytes());
        }
    }

    out.extend_from_slice(&(program.overflow_table.len() as u32).to_be_bytes());
    for &addr in &program.overflow_table {
        out.extend_from_slice(&addr.to_be_bytes());
    }

    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ContainerError> {
        let end = self.pos.checked_add(n).ok_or(ContainerError::Truncated)?;
        if end > self.data.len() {
            return Err(ContainerError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ContainerError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ContainerError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, ContainerError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, ContainerError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

/// Deserializes and integrity-checks a container.
///
/// # Errors
///
/// Any structural or checksum failure yields a [`ContainerError`]; no
/// partially constructed image is ever returned.
pub fn deserialize(data: &[u8]) -> Result<ProgramImage, ContainerError> {
    if data.len() < 4 + 2 + 2 + 4 {
        return Err(ContainerError::Truncated);
    }
    // Verify the trailing CRC first.
    let (payload, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(payload) != stored {
        return Err(ContainerError::ChecksumMismatch);
    }

    let mut r = Reader { data: payload, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(ContainerError::BadVersion(version));
    }
    let enc_tag = r.u8()?;
    let encoding = EncodingKind::from_tag(enc_tag).ok_or(ContainerError::BadEncoding(enc_tag))?;
    let isa_tag = r.u8()?;
    let isa = IsaId::from_tag(isa_tag).ok_or(ContainerError::BadIsa(isa_tag))?;
    let original_text_bytes = r.u32()?;
    let total_nibbles = r.u64()?;

    let dict_count = r.u32()? as usize;
    let mut dictionary_by_rank = Vec::with_capacity(dict_count.min(1 << 16));
    for _ in 0..dict_count {
        let len = r.u8()? as usize;
        let mut words = Vec::with_capacity(len);
        for _ in 0..len {
            words.push(r.u32()?);
        }
        dictionary_by_rank.push(words);
    }

    let huffman_lengths = if encoding == EncodingKind::Huffman {
        let n = r.u32()? as usize;
        r.take(n)?.to_vec()
    } else {
        Vec::new()
    };

    let image_len = r.u32()? as usize;
    let image = r.take(image_len)?.to_vec();

    let table_count = r.u32()? as usize;
    let mut jump_tables = Vec::with_capacity(table_count.min(1 << 16));
    for _ in 0..table_count {
        let n = r.u32()? as usize;
        let mut t = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            t.push(r.u32()?);
        }
        jump_tables.push(t);
    }

    let overflow_count = r.u32()? as usize;
    let mut overflow_table = Vec::with_capacity(overflow_count.min(1 << 16));
    for _ in 0..overflow_count {
        overflow_table.push(r.u32()?);
    }

    Ok(ProgramImage {
        isa,
        encoding,
        dictionary_by_rank,
        huffman_lengths,
        image,
        total_nibbles,
        jump_tables,
        overflow_table,
        original_text_bytes,
    })
}

impl CompressedProgram {
    /// Converts to the execution-ready image form (what
    /// [`serialize`]/[`deserialize`] round-trip).
    pub fn to_image(&self) -> ProgramImage {
        let dictionary_by_rank = (0..self.dictionary.len() as u32)
            .map(|rank| self.dictionary.entry(self.dictionary.entry_of_rank(rank)).words.clone())
            .collect();
        ProgramImage {
            isa: self.isa.id(),
            encoding: self.encoding,
            dictionary_by_rank,
            huffman_lengths: self
                .huffman
                .as_ref()
                .map(|h| h.nibble_lengths().to_vec())
                .unwrap_or_default(),
            image: self.image.clone(),
            total_nibbles: self.total_nibbles,
            jump_tables: self.jump_tables.clone(),
            overflow_table: self.overflow_table.clone(),
            original_text_bytes: self.original_text_bytes as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompressionConfig, Compressor};
    use codense_obj::{JumpTable, ObjectModule};
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    fn program() -> CompressedProgram {
        let mut m = ObjectModule::new("t", IsaId::Ppc);
        for i in 0..60 {
            m.code.push(encode(&Insn::Addi { rt: R3, ra: R3, si: (i % 4) as i16 }));
        }
        m.jump_tables.push(JumpTable { targets: vec![0, 8, 16] });
        Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap()
    }

    #[test]
    fn serialize_deserialize_roundtrip() {
        let c = program();
        let bytes = serialize(&c);
        let image = deserialize(&bytes).unwrap();
        assert_eq!(image, c.to_image());
        assert_eq!(image.encoding, EncodingKind::NibbleAligned);
        assert_eq!(image.jump_tables.len(), 1);
    }

    #[test]
    fn all_encodings_roundtrip() {
        let mut m = ObjectModule::new("t", IsaId::Ppc);
        m.code = vec![encode(&Insn::Addi { rt: R4, ra: R4, si: 2 }); 40];
        for config in [
            CompressionConfig::baseline(),
            CompressionConfig::small_dictionary(8),
            CompressionConfig::nibble_aligned(),
            CompressionConfig::huffman(),
        ] {
            let c = Compressor::new(config).compress(&m).unwrap();
            assert_eq!(deserialize(&serialize(&c)).unwrap(), c.to_image());
        }
    }

    #[test]
    fn huffman_lengths_travel_in_the_container() {
        let mut m = ObjectModule::new("t", IsaId::Ppc);
        for i in 0..60 {
            m.code.push(encode(&Insn::Addi { rt: R3, ra: R3, si: (i % 4) as i16 }));
        }
        let c = Compressor::new(CompressionConfig::huffman()).compress(&m).unwrap();
        let lengths = c.huffman.as_ref().unwrap().nibble_lengths().to_vec();
        assert!(!lengths.is_empty());
        let image = deserialize(&serialize(&c)).unwrap();
        assert_eq!(image.encoding, EncodingKind::Huffman);
        assert_eq!(image.huffman_lengths, lengths);
        // The decoder can rebuild the canonical code from lengths alone.
        let rebuilt =
            crate::huffcode::HuffCode::from_nibble_lengths(image.huffman_lengths).unwrap();
        assert_eq!(&rebuilt, c.huffman.as_ref().unwrap());
    }

    #[test]
    fn corruption_detected() {
        let bytes = serialize(&program());
        for at in [0usize, 4, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x40;
            let err = deserialize(&bad).unwrap_err();
            assert!(
                matches!(err, ContainerError::ChecksumMismatch | ContainerError::BadMagic),
                "flip at {at}: {err:?}"
            );
        }
    }

    /// PowerPC keeps the zero the tag field held before it was a tag, MIPS
    /// writes 1, and an unknown tag under a valid CRC is a typed error.
    #[test]
    fn isa_tag_travels_and_is_checked() {
        let c = program();
        let mut bytes = serialize(&c);
        assert_eq!(bytes[ISA_TAG_AT], 0);
        assert_eq!(deserialize(&bytes).unwrap().isa, IsaId::Ppc);
        let mut mips = ObjectModule::new("t", IsaId::Mips);
        mips.code = vec![0x2442_0001; 40]; // addiu $2,$2,1
        let c = Compressor::new(CompressionConfig::nibble_aligned())
            .with_isa(codense_codegen::isa_ref(IsaId::Mips))
            .compress(&mips)
            .unwrap();
        let image = deserialize(&serialize(&c)).unwrap();
        assert_eq!((image.isa, serialize(&c)[ISA_TAG_AT]), (IsaId::Mips, 1));
        for tag in 2..=u8::MAX {
            bytes[ISA_TAG_AT] = tag;
            let n = bytes.len() - 4;
            let crc = crc32(&bytes[..n]);
            bytes[n..].copy_from_slice(&crc.to_be_bytes());
            assert_eq!(deserialize(&bytes), Err(ContainerError::BadIsa(tag)));
        }
    }

    /// The encoding tag precedes the ISA tag; an unknown one under a valid
    /// CRC is a typed error.
    #[test]
    fn unknown_encoding_is_a_typed_error() {
        let c = program();
        let mut bytes = serialize(&c);
        assert_eq!(bytes[ISA_TAG_AT - 1], c.encoding.tag());
        bytes[ISA_TAG_AT - 1] = 4;
        let n = bytes.len() - 4;
        let crc = crc32(&bytes[..n]);
        bytes[n..].copy_from_slice(&crc.to_be_bytes());
        assert_eq!(deserialize(&bytes), Err(ContainerError::BadEncoding(4)));
    }

    #[test]
    fn truncation_detected() {
        let bytes = serialize(&program());
        for len in [0usize, 3, 8, bytes.len() - 5] {
            assert!(deserialize(&bytes[..len]).is_err(), "len {len}");
        }
    }

    #[test]
    fn footprint_accounts_components() {
        let c = program();
        let image = c.to_image();
        assert_eq!(
            image.footprint_bytes(),
            c.text_bytes().max(image.image.len()) // image includes padding byte
                + c.dictionary_bytes()
                + c.overflow_table_bytes()
        );
    }
}
