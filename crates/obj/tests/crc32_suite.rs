//! IEEE CRC-32 check-value suite: pins the slicing-by-8 implementation
//! against known vectors and against the bitwise reference on structured
//! and pseudorandom buffers, including a 1 MiB stream exercising every
//! alignment of the 8-byte main loop.

use codense_obj::crc32::{crc32, crc32_bitwise};

/// Known IEEE 802.3 CRC-32 vectors (reflected, init/xorout `0xFFFFFFFF`).
#[test]
fn known_vectors() {
    // (input, crc32)
    let vectors: &[(&[u8], u32)] = &[
        (b"", 0x0000_0000),
        (b"a", 0xe8b7_be43),
        (b"abc", 0x3524_41c2),
        (b"123456789", 0xcbf4_3926), // the standard "check" value
        (b"The quick brown fox jumps over the lazy dog", 0x414f_a339),
    ];
    for &(input, want) in vectors {
        assert_eq!(crc32(input), want, "slice8 on {input:?}");
        assert_eq!(crc32_bitwise(input), want, "bitwise on {input:?}");
    }
}

#[test]
fn all_zero_buffers() {
    // CRC-32 of n zero bytes has closed-form known values at a few sizes.
    let zeros = [0u8; 64];
    assert_eq!(crc32(&zeros[..4]), 0x2144_df1c);
    assert_eq!(crc32(&zeros[..32]), 0x190a_55ad);
    for len in 0..zeros.len() {
        assert_eq!(crc32(&zeros[..len]), crc32_bitwise(&zeros[..len]), "zeros len {len}");
    }
}

#[test]
fn all_ones_buffers() {
    let ones = [0xffu8; 64];
    assert_eq!(crc32(&ones[..4]), 0xffff_ffff);
    assert_eq!(crc32(&ones[..32]), 0xff6c_ab0b);
    for len in 0..ones.len() {
        assert_eq!(crc32(&ones[..len]), crc32_bitwise(&ones[..len]), "ones len {len}");
    }
}

/// Deterministic pseudorandom bytes (xorshift64*, fixed seed).
fn pseudorandom(len: usize) -> Vec<u8> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let word = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.truncate(len);
    out
}

#[test]
fn one_mebibyte_pseudorandom_agrees_bit_for_bit() {
    let data = pseudorandom(1 << 20);
    let want = crc32_bitwise(&data);
    assert_eq!(crc32(&data), want, "slice8 diverges from bitwise reference");
    // Unaligned starts and tails hit the remainder loops.
    for (lo, hi) in [(1, 1 << 20), (0, (1 << 20) - 3), (7, (1 << 20) - 7)] {
        let want = crc32_bitwise(&data[lo..hi]);
        assert_eq!(crc32(&data[lo..hi]), want, "slice8 on [{lo}..{hi}]");
    }
}
