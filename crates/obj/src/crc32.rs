//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320` reflected) — the checksum of
//! the `.cdm` module format, the `.cdns` container, and every serve frame.
//!
//! Two implementations, bit-for-bit identical:
//!
//! * [`crc32`] — slicing-by-8: eight 256-entry lookup tables (generated at
//!   compile time by a `const fn`) process 8 input bytes per iteration with
//!   no data-dependent branching. ~10× the bitwise loop on any CPU, no
//!   feature detection needed;
//! * [`crc32_bitwise`] — the original 8-shifts-per-byte loop, kept as the
//!   executable reference the check-value suite compares [`crc32`] against.
//!
//! x86-64's SSE4.2 `crc32` instruction is deliberately **not** used: it
//! hard-wires the Castagnoli polynomial (`0x1EDC6F41`, CRC-32C), not the
//! IEEE polynomial, so it would change every stored checksum and break the
//! format. (A PCLMULQDQ folding kernel could accelerate the IEEE polynomial
//! on x86, but slicing-by-8 already removes the checksum from the serve
//! profile.)

/// The IEEE 802.3 polynomial, reflected.
const POLY: u32 = 0xedb8_8320;

/// Bitwise reference implementation: 8 shifts per byte. Slow; exists so the
/// table path has an independently-simple ground truth.
pub fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
        }
    }
    !crc
}

/// The slicing-by-8 tables: `TABLES[k][b]` advances a CRC whose next input
/// byte is `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u32;
        let mut k = 0;
        while k < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (POLY & mask);
            k += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data`, slicing-by-8: 8 bytes per iteration, 8 independent
/// table loads whose XOR reduction the CPU can overlap.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        crc = TABLES[7][(lo & 0xff) as usize]
            ^ TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_value() {
        // The standard CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32_bitwise(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn all_lengths_agree_with_reference() {
        // Every alignment of the 8-byte main loop, including the empty
        // buffer and pure-remainder lengths.
        let data: Vec<u8> = (0u32..64).map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8).collect();
        for len in 0..data.len() {
            let want = crc32_bitwise(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "slice8 at len {len}");
        }
    }
}
