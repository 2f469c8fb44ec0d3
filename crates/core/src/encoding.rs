//! Codeword encodings: how codeword *ranks* are serialized into the
//! compressed instruction stream, and how the stream is parsed back.
//!
//! All three schemes share one contract: the stream is a sequence of items,
//! each either an uncompressed 32-bit instruction or a codeword rank, and the
//! first nibble(s) of an item unambiguously classify it.

use crate::config::EncodingKind;
use crate::huffcode::HuffCode;
use crate::nibbles::{NibbleReader, NibbleWriter};
use codense_isa::IsaRef;

/// One parsed stream item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// An uncompressed instruction word.
    Insn(u32),
    /// A codeword with the given rank.
    Codeword(u32),
}

/// The nibble-aligned variable-length layout (the paper's Fig 10).
///
/// First-nibble classes:
///
/// | first nibble | item                              | count |
/// |--------------|-----------------------------------|-------|
/// | `0..=7`      | 4-bit codeword, ranks 0–7         | 8     |
/// | `8..=10`     | 8-bit codeword, ranks 8–55        | 48    |
/// | `11..=12`    | 12-bit codeword, ranks 56–567     | 512   |
/// | `13..=14`    | 16-bit codeword, ranks 568–8759   | 8192  |
/// | `15`         | escape: 32-bit instruction follows | —    |
///
/// The paper gives the format shape (4/8/12/16-bit codewords plus an escape
/// for 36-bit uncompressed instructions) without the exact class split; this
/// allocation matches its description of "8 … 4-bit codewords … and a few
/// thousand 12-bit and 16-bit codewords".
pub mod nibble {
    /// The escape nibble introducing an uncompressed instruction.
    pub const ESCAPE: u8 = 0xF;
    /// Ranks encodable in 4 bits.
    pub const N4: u32 = 8;
    /// Ranks encodable in 8 bits.
    pub const N8: u32 = 3 * 16;
    /// Ranks encodable in 12 bits.
    pub const N12: u32 = 2 * 256;
    /// Ranks encodable in 16 bits.
    pub const N16: u32 = 2 * 4096;
    /// Total codeword capacity (8760).
    pub const CAPACITY: usize = (N4 + N8 + N12 + N16) as usize;

    /// Codeword length in nibbles for a rank, or `None` if the rank does
    /// not fit the codeword space.
    pub const fn try_codeword_nibbles(rank: u32) -> Option<u32> {
        if rank < N4 {
            Some(1)
        } else if rank < N4 + N8 {
            Some(2)
        } else if rank < N4 + N8 + N12 {
            Some(3)
        } else if rank < CAPACITY as u32 {
            Some(4)
        } else {
            None
        }
    }

    /// Codeword length in nibbles for a rank.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= CAPACITY`; use [`try_codeword_nibbles`] when the
    /// rank is not known to be in range.
    pub const fn codeword_nibbles(rank: u32) -> u32 {
        match try_codeword_nibbles(rank) {
            Some(n) => n,
            None => panic!("rank out of nibble codeword space"),
        }
    }
}

/// How many nibbles an uncompressed instruction occupies in the stream,
/// given the program's Huffman code table when the encoding needs one.
///
/// # Panics
///
/// Panics when `kind` is [`EncodingKind::Huffman`] and `huff` is `None`.
pub fn insn_nibbles_coded(kind: EncodingKind, huff: Option<&HuffCode>) -> u32 {
    match kind {
        EncodingKind::NibbleAligned => 9,
        EncodingKind::Huffman => {
            huff.expect("huffman encoding requires its code table").escape_len() + 8
        }
        _ => 8,
    }
}

/// How many nibbles the codeword of the given rank occupies under the given
/// Huffman table (required only by [`EncodingKind::Huffman`]), or `None` if
/// the rank does not fit the codeword space.
pub fn try_codeword_nibbles_coded(
    kind: EncodingKind,
    huff: Option<&HuffCode>,
    rank: u32,
) -> Option<u32> {
    if rank as usize >= kind.capacity() {
        return None;
    }
    match kind {
        EncodingKind::Baseline => Some(4),
        EncodingKind::OneByte => Some(2),
        EncodingKind::NibbleAligned => nibble::try_codeword_nibbles(rank),
        EncodingKind::Huffman => huff?.codeword_len(rank),
    }
}

/// Serializes an uncompressed instruction into the stream, given the
/// program's Huffman code table when the encoding needs one.
///
/// # Panics
///
/// Panics when `kind` is [`EncodingKind::Huffman`] and `huff` is `None`.
pub fn write_insn_coded(
    kind: EncodingKind,
    huff: Option<&HuffCode>,
    w: &mut NibbleWriter,
    word: u32,
) {
    match kind {
        EncodingKind::NibbleAligned => w.push(nibble::ESCAPE),
        EncodingKind::Huffman => {
            let h = huff.expect("huffman encoding requires its code table");
            h.write_symbol(w, h.escape_symbol());
        }
        _ => {}
    }
    w.push_u32(word);
}

/// Serializes a codeword rank into the stream under `isa`'s escape-byte
/// reservation and the program's Huffman code table (required only by
/// [`EncodingKind::Huffman`]; ignored elsewhere), or returns
/// [`CompressError::CodewordSpaceExhausted`](crate::CompressError::CodewordSpaceExhausted)
/// if the rank does not fit the encoding's (or table's) codeword space.
/// Nothing is written on error.
pub fn try_write_codeword_coded(
    kind: EncodingKind,
    isa: IsaRef,
    huff: Option<&HuffCode>,
    w: &mut NibbleWriter,
    rank: u32,
) -> Result<(), crate::CompressError> {
    if rank as usize >= kind.capacity() {
        return Err(crate::CompressError::CodewordSpaceExhausted {
            rank,
            capacity: kind.capacity(),
        });
    }
    if kind == EncodingKind::Huffman {
        let capacity = huff.map_or(0, |h| h.num_ranks() as usize);
        let Some(h) = huff.filter(|h| rank < h.num_ranks()) else {
            return Err(crate::CompressError::CodewordSpaceExhausted { rank, capacity });
        };
        h.write_symbol(w, rank);
        return Ok(());
    }
    match kind {
        EncodingKind::Baseline => {
            let escapes = isa.escape_bytes();
            w.push_byte(escapes[(rank >> 8) as usize]);
            w.push_byte((rank & 0xff) as u8);
        }
        EncodingKind::OneByte => {
            w.push_byte(isa.escape_bytes()[rank as usize]);
        }
        EncodingKind::NibbleAligned => {
            use nibble::*;
            if rank < N4 {
                w.push(rank as u8);
            } else if rank < N4 + N8 {
                let r = rank - N4;
                w.push(8 + (r / 16) as u8);
                w.push((r % 16) as u8);
            } else if rank < N4 + N8 + N12 {
                let r = rank - N4 - N8;
                w.push(11 + (r / 256) as u8);
                w.push(((r / 16) % 16) as u8);
                w.push((r % 16) as u8);
            } else {
                let r = rank - N4 - N8 - N12;
                w.push(13 + (r / 4096) as u8);
                w.push(((r / 256) % 16) as u8);
                w.push(((r / 16) % 16) as u8);
                w.push((r % 16) as u8);
            }
        }
        EncodingKind::Huffman => unreachable!("handled above"),
    }
    Ok(())
}

/// Parses the next stream item under `isa`'s escape-byte reservation and
/// the program's Huffman code table (required only by
/// [`EncodingKind::Huffman`]; ignored elsewhere). The byte-level schemes
/// classify items by whether the leading byte is one of the ISA's escape
/// bytes; the nibble scheme has an explicit escape nibble and never
/// consults the ISA.
///
/// Returns `None` at (or past) end of stream, on a malformed/truncated
/// item, or when a Huffman stream is parsed without its table.
pub fn read_item_coded(
    kind: EncodingKind,
    isa: IsaRef,
    huff: Option<&HuffCode>,
    r: &mut NibbleReader<'_>,
) -> Option<Item> {
    if kind == EncodingKind::Huffman {
        let h = huff?;
        let symbol = h.read_symbol(r)?;
        return if symbol == h.escape_symbol() {
            Some(Item::Insn(r.next_u32()?))
        } else {
            Some(Item::Codeword(symbol))
        };
    }
    match kind {
        EncodingKind::Baseline => {
            let b0 = r.next_byte()?;
            if let Some(esc_index) = isa.escape_index(b0) {
                let idx = r.next_byte()?;
                Some(Item::Codeword(esc_index * 256 + idx as u32))
            } else {
                let b1 = r.next_byte()?;
                let b2 = r.next_byte()?;
                let b3 = r.next_byte()?;
                Some(Item::Insn(u32::from_be_bytes([b0, b1, b2, b3])))
            }
        }
        EncodingKind::OneByte => {
            let b0 = r.next_byte()?;
            if let Some(esc_index) = isa.escape_index(b0) {
                Some(Item::Codeword(esc_index))
            } else {
                let b1 = r.next_byte()?;
                let b2 = r.next_byte()?;
                let b3 = r.next_byte()?;
                Some(Item::Insn(u32::from_be_bytes([b0, b1, b2, b3])))
            }
        }
        EncodingKind::NibbleAligned => {
            use nibble::*;
            let n0 = r.next()?;
            match n0 {
                ESCAPE => Some(Item::Insn(r.next_u32()?)),
                0..=7 => Some(Item::Codeword(n0 as u32)),
                8..=10 => {
                    let n1 = r.next()? as u32;
                    Some(Item::Codeword(N4 + (n0 as u32 - 8) * 16 + n1))
                }
                11..=12 => {
                    let n1 = r.next()? as u32;
                    let n2 = r.next()? as u32;
                    Some(Item::Codeword(N4 + N8 + (n0 as u32 - 11) * 256 + n1 * 16 + n2))
                }
                _ => {
                    let n1 = r.next()? as u32;
                    let n2 = r.next()? as u32;
                    let n3 = r.next()? as u32;
                    Some(Item::Codeword(
                        N4 + N8 + N12 + (n0 as u32 - 13) * 4096 + n1 * 256 + n2 * 16 + n3,
                    ))
                }
            }
        }
        EncodingKind::Huffman => unreachable!("handled above"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PPC: IsaRef = IsaRef(&codense_ppc::ISA);

    fn write_codeword(kind: EncodingKind, w: &mut NibbleWriter, rank: u32) {
        try_write_codeword_coded(kind, PPC, None, w, rank).unwrap();
    }

    fn read_item(kind: EncodingKind, r: &mut NibbleReader<'_>) -> Option<Item> {
        read_item_coded(kind, PPC, None, r)
    }

    fn roundtrip_rank(kind: EncodingKind, rank: u32) {
        let mut w = NibbleWriter::new();
        write_codeword(kind, &mut w, rank);
        assert_eq!(w.len(), try_codeword_nibbles_coded(kind, None, rank).unwrap() as u64);
        let bytes = w.into_bytes();
        let mut r = NibbleReader::new(&bytes);
        assert_eq!(read_item(kind, &mut r), Some(Item::Codeword(rank)), "{kind:?} rank {rank}");
    }

    #[test]
    fn baseline_codewords_roundtrip() {
        for rank in [0, 1, 255, 256, 4095, 8191] {
            roundtrip_rank(EncodingKind::Baseline, rank);
        }
    }

    #[test]
    fn one_byte_codewords_roundtrip() {
        for rank in 0..32 {
            roundtrip_rank(EncodingKind::OneByte, rank);
        }
    }

    #[test]
    fn nibble_codewords_roundtrip_entire_space_boundaries() {
        use nibble::*;
        for rank in [
            0,
            N4 - 1,
            N4,
            N4 + N8 - 1,
            N4 + N8,
            N4 + N8 + N12 - 1,
            N4 + N8 + N12,
            CAPACITY as u32 - 1,
        ] {
            roundtrip_rank(EncodingKind::NibbleAligned, rank);
        }
    }

    #[test]
    fn nibble_codewords_roundtrip_exhaustive() {
        for rank in 0..nibble::CAPACITY as u32 {
            let mut w = NibbleWriter::new();
            write_codeword(EncodingKind::NibbleAligned, &mut w, rank);
            let bytes = w.into_bytes();
            let mut r = NibbleReader::new(&bytes);
            assert_eq!(read_item(EncodingKind::NibbleAligned, &mut r), Some(Item::Codeword(rank)));
        }
    }

    #[test]
    fn insns_roundtrip_in_all_schemes() {
        for kind in [EncodingKind::Baseline, EncodingKind::OneByte, EncodingKind::NibbleAligned] {
            let mut w = NibbleWriter::new();
            write_insn_coded(kind, None, &mut w, 0x3860_0001);
            assert_eq!(w.len(), insn_nibbles_coded(kind, None) as u64);
            let bytes = w.into_bytes();
            let mut r = NibbleReader::new(&bytes);
            assert_eq!(read_item(kind, &mut r), Some(Item::Insn(0x3860_0001)));
        }
    }

    #[test]
    fn nibble_codeword_lengths_match_classes() {
        use nibble::{CAPACITY, N12, N4, N8};
        let n = |rank| try_codeword_nibbles_coded(EncodingKind::NibbleAligned, None, rank).unwrap();
        assert_eq!(n(0), 1);
        assert_eq!(n(7), 1);
        assert_eq!(n(8), 2);
        assert_eq!(n(N4 + N8), 3);
        assert_eq!(n(N4 + N8 + N12), 4);
        assert_eq!(CAPACITY, 8760);
    }

    #[test]
    fn mixed_stream_parses() {
        let kind = EncodingKind::NibbleAligned;
        let mut w = NibbleWriter::new();
        write_codeword(kind, &mut w, 3);
        write_insn_coded(kind, None, &mut w, 0x4e80_0020);
        write_codeword(kind, &mut w, 600);
        let bytes = w.into_bytes();
        let mut r = NibbleReader::new(&bytes);
        assert_eq!(read_item(kind, &mut r), Some(Item::Codeword(3)));
        assert_eq!(read_item(kind, &mut r), Some(Item::Insn(0x4e80_0020)));
        assert_eq!(read_item(kind, &mut r), Some(Item::Codeword(600)));
    }

    #[test]
    fn truncated_stream_is_none() {
        let bytes = [0xF0]; // escape nibble + 1 nibble, not a full insn
        let mut r = NibbleReader::new(&bytes);
        assert_eq!(read_item(EncodingKind::NibbleAligned, &mut r), None);
    }

    #[test]
    fn huffman_items_roundtrip_with_table() {
        let kind = EncodingKind::Huffman;
        let isa = PPC;
        let freqs: Vec<u64> = (0..100u64).map(|r| 1000 / (r + 1)).collect();
        let huff = HuffCode::from_frequencies(&freqs, 25);
        let h = Some(&huff);
        let mut w = NibbleWriter::new();
        try_write_codeword_coded(kind, isa, h, &mut w, 0).unwrap();
        write_insn_coded(kind, h, &mut w, 0x4e80_0020);
        try_write_codeword_coded(kind, isa, h, &mut w, 99).unwrap();
        let bytes = w.into_bytes();
        let mut r = NibbleReader::new(&bytes);
        assert_eq!(read_item_coded(kind, isa, h, &mut r), Some(Item::Codeword(0)));
        assert_eq!(read_item_coded(kind, isa, h, &mut r), Some(Item::Insn(0x4e80_0020)));
        assert_eq!(read_item_coded(kind, isa, h, &mut r), Some(Item::Codeword(99)));
    }

    #[test]
    fn huffman_without_table_is_out_of_space_and_unreadable() {
        let kind = EncodingKind::Huffman;
        let isa = PPC;
        let mut w = NibbleWriter::new();
        let err = try_write_codeword_coded(kind, isa, None, &mut w, 0).unwrap_err();
        assert!(matches!(err, crate::CompressError::CodewordSpaceExhausted { .. }));
        assert_eq!(w.len(), 0);
        let mut r = NibbleReader::new(&[0x12, 0x34]);
        assert_eq!(read_item_coded(kind, isa, None, &mut r), None);
        assert_eq!(try_codeword_nibbles_coded(kind, None, 0), None);
    }

    #[test]
    fn huffman_rank_past_table_is_typed_error() {
        let kind = EncodingKind::Huffman;
        let isa = PPC;
        let huff = HuffCode::from_frequencies(&[10, 5, 1], 2);
        let mut w = NibbleWriter::new();
        let err = try_write_codeword_coded(kind, isa, Some(&huff), &mut w, 3).unwrap_err();
        assert_eq!(err, crate::CompressError::CodewordSpaceExhausted { rank: 3, capacity: 3 });
        assert_eq!(w.len(), 0);
        assert_eq!(try_codeword_nibbles_coded(kind, Some(&huff), 3), None);
        assert!(try_codeword_nibbles_coded(kind, Some(&huff), 2).is_some());
    }
}
