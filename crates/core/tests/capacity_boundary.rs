//! Regression tests for the codeword-space capacity boundary.
//!
//! `nibble::codeword_nibbles` used to panic on `rank >= CAPACITY`, and the
//! panic was reachable from safe library code via a dictionary larger than
//! the encoding's codeword space. These tests pin the typed-error behaviour
//! at the exact boundary for all three encodings, and that the compressor
//! clamps oversized `max_codewords` instead of ever reaching the boundary.

use codense_core::encoding::{self, nibble, read_item_coded, try_write_codeword_coded, Item};
use codense_core::nibbles::{NibbleReader, NibbleWriter};
use codense_core::verify::verify;
use codense_core::{CompressError, CompressionConfig, Compressor, EncodingKind};

const PPC: codense_isa::IsaRef = codense_isa::IsaRef(&codense_ppc::ISA);

const ALL: [EncodingKind; 3] =
    [EncodingKind::Baseline, EncodingKind::OneByte, EncodingKind::NibbleAligned];

#[test]
fn nibble_try_codeword_nibbles_boundary() {
    assert_eq!(nibble::try_codeword_nibbles(nibble::CAPACITY as u32 - 1), Some(4));
    assert_eq!(nibble::try_codeword_nibbles(nibble::CAPACITY as u32), None);
    assert_eq!(nibble::try_codeword_nibbles(u32::MAX), None);
}

#[test]
fn try_write_codeword_at_exact_capacity_boundary() {
    for kind in ALL {
        let capacity = kind.capacity();

        // Last valid rank: writes, and parses back to the same rank.
        let mut w = NibbleWriter::new();
        let last = capacity as u32 - 1;
        try_write_codeword_coded(kind, PPC, None, &mut w, last).unwrap();
        assert_eq!(w.len(), encoding::try_codeword_nibbles_coded(kind, None, last).unwrap() as u64);
        let bytes = w.into_bytes();
        let mut r = NibbleReader::new(&bytes);
        assert_eq!(
            read_item_coded(kind, PPC, None, &mut r),
            Some(Item::Codeword(last)),
            "{kind:?}"
        );

        // First invalid rank: typed error, nothing written.
        let mut w = NibbleWriter::new();
        let err = try_write_codeword_coded(kind, PPC, None, &mut w, capacity as u32).unwrap_err();
        assert_eq!(err, CompressError::CodewordSpaceExhausted { rank: capacity as u32, capacity });
        assert_eq!(w.len(), 0, "{kind:?} must not write on error");
        assert_eq!(encoding::try_codeword_nibbles_coded(kind, None, capacity as u32), None);
    }
}

/// A module with far more profitable distinct sequences than the one-byte
/// encoding's 32-codeword space: every pair is `addi`-family (no escape
/// collisions) and repeats three times, so an unclamped greedy run would
/// assign well over 32 codewords.
fn wide_module() -> codense_obj::ObjectModule {
    let mut m = codense_obj::ObjectModule::new("capacity-boundary", codense_obj::IsaId::Ppc);
    let mut code = Vec::new();
    for i in 0..64u32 {
        for _ in 0..3 {
            code.push(0x3860_0000 | i); // li r3, i
            code.push(0x3880_0100 | i); // li r4, 256+i
        }
    }
    m.code = code;
    m
}

#[test]
fn compressor_clamps_oversized_max_codewords() {
    let m = wide_module();
    for kind in ALL {
        let config =
            CompressionConfig { max_entry_len: 4, max_codewords: usize::MAX, encoding: kind };
        assert_eq!(config.effective_max_codewords(), kind.capacity());
        let c = Compressor::new(config)
            .compress(&m)
            .unwrap_or_else(|e| panic!("{kind:?}: clamped compression must succeed, got {e}"));
        assert!(
            c.dictionary.len() <= kind.capacity(),
            "{kind:?}: dictionary {} exceeds capacity {}",
            c.dictionary.len(),
            kind.capacity()
        );
        verify(&m, &c).unwrap();
    }
}

#[test]
fn one_byte_dictionary_saturates_at_capacity() {
    // The input offers > 32 profitable entries; the clamped one-byte run
    // must stop at exactly its 32-codeword space.
    let m = wide_module();
    let config = CompressionConfig {
        max_entry_len: 2,
        max_codewords: usize::MAX,
        encoding: EncodingKind::OneByte,
    };
    let c = Compressor::new(config).compress(&m).unwrap();
    assert_eq!(c.dictionary.len(), EncodingKind::OneByte.capacity());
    verify(&m, &c).unwrap();
}
