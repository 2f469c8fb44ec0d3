#![warn(missing_docs)]

//! Canonical byte-oriented Huffman coding.
//!
//! Substrate for the CCRP baseline (Wolfe & Chanin's compressed-cache-line
//! processor, §2.3 of the reproduced paper), and the reference point for the
//! paper's statistical-vs-dictionary compression discussion (§2.1).
//!
//! The implementation builds a canonical code from byte frequencies, encodes
//! to an MSB-first bit stream, and decodes with a per-length table. Codes
//! are canonical, so only the per-symbol lengths need to be stored alongside
//! compressed data (256 bytes of model).
//!
//! # Example
//!
//! ```
//! use codense_huffman::{HuffmanCode, encode, decode};
//!
//! let data = b"abracadabra abracadabra";
//! let code = HuffmanCode::from_frequencies(&codense_huffman::byte_frequencies(data));
//! let bits = encode(&code, data);
//! assert_eq!(decode(&code, &bits, data.len()).unwrap(), data);
//! ```

use std::collections::BinaryHeap;

/// Maximum codeword length in bits. Codes are stored in `u32` and the
/// decoder's accumulator is 32 bits, so [`HuffmanCode::from_frequencies`]
/// length-limits the code to this bound (pathological — e.g. Fibonacci —
/// frequency distributions otherwise produce code lengths up to
/// `symbols - 1`, which would overflow the code storage).
pub const MAX_CODE_LEN: u8 = 32;

/// Counts byte frequencies over a buffer.
pub fn byte_frequencies(data: &[u8]) -> [u64; 256] {
    let mut f = [0u64; 256];
    for &b in data {
        f[b as usize] += 1;
    }
    f
}

/// Builds length-limited Huffman code lengths for an **arbitrary** symbol
/// alphabet (not just bytes): `freqs[s]` is the weight of symbol `s`, and the
/// result gives each symbol's code length in bits (0 = symbol absent), with
/// no length exceeding `max_len`.
///
/// The construction is a deterministic min-heap merge with insertion-order
/// tie-breaks, followed by the zlib-style Kraft repair when any raw tree
/// depth exceeds the limit; [`HuffmanCode::from_frequencies`] is this
/// construction over the byte alphabet at [`MAX_CODE_LEN`]. `max_len` is
/// clamped to `1..=`[`MAX_CODE_LEN`].
///
/// The returned lengths always satisfy the Kraft inequality, so feeding them
/// to a canonical code constructor yields a valid prefix code. A `max_len`
/// too small to give every present symbol a code (fewer than
/// `2^max_len` codewords available) is raised to `ceil(log2(symbols))` —
/// every symbol always gets a code.
pub fn code_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    let mut lengths = vec![0u8; freqs.len()];
    let coded: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
    // Bits needed so a full tree can hold every coded symbol.
    let needed = (usize::BITS - coded.len().saturating_sub(1).leading_zeros()) as usize;
    let max = (max_len.clamp(1, MAX_CODE_LEN) as usize).max(needed).min(MAX_CODE_LEN as usize);
    match coded.len() {
        0 => {}
        1 => lengths[coded[0]] = 1,
        _ => {
            // Min-heap merge over (weight, insertion id) with parent links
            // instead of boxed trees, so depth extraction is iterative and
            // alphabet size is unbounded.
            #[derive(PartialEq, Eq)]
            struct Item {
                weight: u64,
                id: u32,
                node: usize,
            }
            impl Ord for Item {
                fn cmp(&self, o: &Self) -> std::cmp::Ordering {
                    // Reversed for a min-heap.
                    o.weight.cmp(&self.weight).then(o.id.cmp(&self.id))
                }
            }
            impl PartialOrd for Item {
                fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
                    Some(self.cmp(o))
                }
            }
            let mut parent: Vec<usize> = vec![usize::MAX; coded.len()];
            let mut heap: BinaryHeap<Item> = coded
                .iter()
                .enumerate()
                .map(|(node, &s)| Item { weight: freqs[s], id: node as u32, node })
                .collect();
            let mut next_id = coded.len() as u32;
            while heap.len() > 1 {
                let a = heap.pop().expect("len > 1");
                let b = heap.pop().expect("len > 1");
                let node = parent.len();
                parent.push(usize::MAX);
                parent[a.node] = node;
                parent[b.node] = node;
                heap.push(Item { weight: a.weight + b.weight, id: next_id, node });
                next_id += 1;
            }
            // Parents always have larger indices than their children, so a
            // single reverse sweep resolves every depth.
            let mut depth = vec![0u32; parent.len()];
            for i in (0..parent.len()).rev() {
                if parent[i] != usize::MAX {
                    depth[i] = depth[parent[i]] + 1;
                }
            }
            // Histogram with everything deeper than the limit clamped into
            // the deepest bucket. Clamping overfills the code space: a full
            // tree has sum(2^(max - len)) == 2^max, and shortening a code
            // only inflates its term. Repair by repeatedly retiring one
            // deepest-bucket code and splitting a shallower code into two
            // one bit longer; each step shrinks the sum by exactly one until
            // the lengths again describe a full prefix tree. When no depth
            // exceeds the limit the histogram is already full and the raw
            // depths come back unchanged.
            let mut num = vec![0u64; max + 1];
            for node in 0..coded.len() {
                num[(depth[node].max(1) as usize).min(max)] += 1;
            }
            let mut total: u128 = (1..=max).map(|i| (num[i] as u128) << (max - i)).sum();
            while total > 1u128 << max {
                num[max] -= 1;
                for i in (1..max).rev() {
                    if num[i] > 0 {
                        num[i] -= 1;
                        num[i + 1] += 2;
                        break;
                    }
                }
                total -= 1;
            }
            // Assign repaired lengths shortest-first to symbols ordered by
            // raw depth (ties by symbol value), preserving the relative
            // code-length order of the unlimited tree.
            let mut order: Vec<usize> = (0..coded.len()).collect();
            order.sort_by_key(|&node| (depth[node], coded[node]));
            let mut it = order.into_iter();
            for (l, &n) in num.iter().enumerate().skip(1) {
                for _ in 0..n {
                    let node = it.next().expect("histogram covers every coded symbol");
                    lengths[coded[node]] = l as u8;
                }
            }
        }
    }
    lengths
}

/// A canonical Huffman code over the byte alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanCode {
    /// Code length in bits per symbol (0 = symbol absent).
    lengths: [u8; 256],
    /// Canonical codeword per symbol (low `lengths[s]` bits, MSB-first).
    codes: [u32; 256],
}

impl HuffmanCode {
    /// Builds a code from symbol frequencies. Symbols with zero frequency
    /// get no code. If only one distinct symbol occurs it receives a 1-bit
    /// code.
    pub fn from_frequencies(freq: &[u64; 256]) -> HuffmanCode {
        let mut lengths = [0u8; 256];
        lengths.copy_from_slice(&code_lengths(freq, MAX_CODE_LEN));
        HuffmanCode::from_lengths(lengths)
    }

    /// Builds the canonical code table from per-symbol lengths.
    ///
    /// Lengths above [`MAX_CODE_LEN`] are clamped to it — codewords are
    /// stored in `u32`, so longer lengths cannot be represented. A correct
    /// prefix code results only when the (clamped) lengths satisfy the
    /// Kraft inequality, as every length set produced by
    /// [`HuffmanCode::from_frequencies`] does; arbitrary lengths never
    /// cause a panic or overflow, merely a code that may not be decodable.
    pub fn from_lengths(mut lengths: [u8; 256]) -> HuffmanCode {
        for l in lengths.iter_mut() {
            *l = (*l).min(MAX_CODE_LEN);
        }
        let mut symbols: Vec<u8> = (0u16..256).map(|s| s as u8).collect();
        symbols.retain(|&s| lengths[s as usize] > 0);
        symbols.sort_by_key(|&s| (lengths[s as usize], s));
        let mut codes = [0u32; 256];
        // u64 accumulator: the canonical construction shifts by up to
        // MAX_CODE_LEN, which a u32 could not absorb at the top length.
        let mut code = 0u64;
        let mut prev_len = 0u8;
        for &s in &symbols {
            let l = lengths[s as usize];
            code <<= l - prev_len;
            codes[s as usize] = code as u32;
            code += 1;
            prev_len = l;
        }
        HuffmanCode { lengths, codes }
    }

    /// Code length for a symbol (0 if absent).
    pub fn length(&self, symbol: u8) -> u8 {
        self.lengths[symbol as usize]
    }

    /// Canonical codeword bits for a symbol.
    pub fn code(&self, symbol: u8) -> u32 {
        self.codes[symbol as usize]
    }

    /// The per-symbol lengths (the transmissible model).
    pub fn lengths(&self) -> &[u8; 256] {
        &self.lengths
    }

    /// Exact compressed size in bits for the given data under this code.
    ///
    /// # Panics
    ///
    /// Panics if the data contains a symbol with no code.
    pub fn encoded_bits(&self, data: &[u8]) -> u64 {
        data.iter()
            .map(|&b| {
                let l = self.lengths[b as usize];
                assert!(l > 0, "symbol {b:#04x} has no code");
                l as u64
            })
            .sum()
    }
}

/// Encodes data to an MSB-first bit stream.
///
/// # Panics
///
/// Panics if the data contains a symbol the code does not cover.
pub fn encode(code: &HuffmanCode, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut acc = 0u64;
    let mut nbits = 0u32;
    for &b in data {
        let l = code.length(b);
        assert!(l > 0, "symbol {b:#04x} has no code");
        acc = (acc << l) | code.code(b) as u64;
        nbits += l as u32;
        while nbits >= 8 {
            nbits -= 8;
            out.push((acc >> nbits) as u8);
        }
    }
    if nbits > 0 {
        out.push(((acc << (8 - nbits)) & 0xff) as u8);
    }
    out
}

/// Typed failure modes from [`decode_checked`]: what exactly a hostile or
/// damaged bit stream did wrong. All variants are cheap values — decoding
/// never panics and never allocates proportionally to attacker-claimed
/// lengths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The claimed symbol count cannot fit in the supplied bits: every
    /// codeword is at least one bit, so `count` symbols need at least
    /// `count` bits. Rejected *before* any output allocation, so a forged
    /// count cannot drive an OOM-sized `Vec::with_capacity`.
    CountExceedsBitSupply {
        /// Symbols the caller asked for.
        count: usize,
        /// Bits actually present in the stream.
        bits_available: usize,
    },
    /// The stream ended mid-codeword (or before `count` symbols appeared).
    Truncated {
        /// Symbols successfully decoded before the supply ran out.
        decoded: usize,
    },
    /// 32 bits accumulated without matching any codeword — the stream
    /// contains a pattern the (possibly non-full) code does not cover.
    InvalidCode {
        /// Bit offset where the unmatched codeword started.
        at_bit: usize,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::CountExceedsBitSupply { count, bits_available } => {
                write!(f, "claimed {count} symbols but only {bits_available} bits supplied")
            }
            DecodeError::Truncated { decoded } => {
                write!(f, "bit stream truncated after {decoded} symbols")
            }
            DecodeError::InvalidCode { at_bit } => {
                write!(f, "no codeword matches the bits starting at bit {at_bit}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decodes `count` symbols from an MSB-first bit stream.
///
/// Returns `None` if the stream is truncated or contains an invalid code.
/// Thin wrapper over [`decode_checked`] for callers that don't need the
/// failure detail.
pub fn decode(code: &HuffmanCode, bits: &[u8], count: usize) -> Option<Vec<u8>> {
    decode_checked(code, bits, count).ok()
}

/// Decodes `count` symbols from an MSB-first bit stream, reporting *why*
/// decoding failed as a typed [`DecodeError`].
///
/// Hostile-input hardened: a claimed `count` larger than the bit supply is
/// rejected up front (no allocation), truncation and uncovered codewords are
/// typed errors, and nothing panics.
///
/// # Errors
///
/// [`DecodeError::CountExceedsBitSupply`] when `count` symbols cannot fit in
/// `bits`, [`DecodeError::Truncated`] when the stream ends early, and
/// [`DecodeError::InvalidCode`] when no codeword matches.
pub fn decode_checked(
    code: &HuffmanCode,
    bits: &[u8],
    count: usize,
) -> Result<Vec<u8>, DecodeError> {
    // Every codeword is ≥ 1 bit, so `count` symbols need ≥ `count` bits.
    // Checking first bounds the output allocation by the actual bit supply
    // rather than an attacker-controlled header field.
    let bits_available = bits.len().saturating_mul(8);
    if count > bits_available {
        return Err(DecodeError::CountExceedsBitSupply { count, bits_available });
    }
    // (length, canonical code) → symbol, grouped by length.
    let mut by_len: Vec<Vec<(u32, u8)>> = vec![Vec::new(); 33];
    for s in 0u16..256 {
        let l = code.length(s as u8);
        if l > 0 {
            by_len[l as usize].push((code.code(s as u8), s as u8));
        }
    }
    let mut out = Vec::with_capacity(count);
    let mut acc = 0u32;
    let mut len = 0u8;
    let mut pos = 0usize;
    while out.len() < count {
        let Some(&byte) = bits.get(pos / 8) else {
            return Err(DecodeError::Truncated { decoded: out.len() });
        };
        let bit = (byte >> (7 - pos % 8)) & 1;
        pos += 1;
        acc = (acc << 1) | bit as u32;
        len += 1;
        if len > 32 {
            return Err(DecodeError::InvalidCode { at_bit: pos - len as usize });
        }
        if let Some(&(_, sym)) = by_len[len as usize].iter().find(|&&(c, _)| c == acc) {
            out.push(sym);
            acc = 0;
            len = 0;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let code = HuffmanCode::from_frequencies(&byte_frequencies(data));
        let bits = encode(&code, data);
        assert_eq!(decode(&code, &bits, data.len()).unwrap(), data);
        assert_eq!(code.encoded_bits(data).div_ceil(8), bits.len() as u64);
    }

    #[test]
    fn roundtrips() {
        roundtrip(b"hello world");
        roundtrip(b"aaaaaaaaaaaaaaaab");
        roundtrip(&[0u8; 100]);
        let mixed: Vec<u8> = (0..=255u8).cycle().take(2000).collect();
        roundtrip(&mixed);
    }

    #[test]
    fn empty_input() {
        let code = HuffmanCode::from_frequencies(&[0; 256]);
        assert_eq!(encode(&code, &[]), Vec::<u8>::new());
        assert_eq!(decode(&code, &[], 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let data = vec![7u8; 64];
        let code = HuffmanCode::from_frequencies(&byte_frequencies(&data));
        assert_eq!(code.length(7), 1);
        let bits = encode(&code, &data);
        assert_eq!(bits.len(), 8); // 64 bits
        assert_eq!(decode(&code, &bits, 64).unwrap(), data);
    }

    #[test]
    fn skewed_frequencies_give_shorter_codes() {
        let mut data = vec![b'a'; 1000];
        data.extend_from_slice(b"bcdefgh");
        let code = HuffmanCode::from_frequencies(&byte_frequencies(&data));
        assert!(code.length(b'a') < code.length(b'b'));
    }

    #[test]
    fn compression_beats_raw_on_skewed_data() {
        let mut data = vec![0u8; 4000];
        for (i, b) in data.iter_mut().enumerate() {
            *b = if i % 10 == 0 { (i % 50) as u8 } else { 0 };
        }
        let code = HuffmanCode::from_frequencies(&byte_frequencies(&data));
        let bits = encode(&code, &data);
        assert!(bits.len() < data.len() / 2);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let code = HuffmanCode::from_frequencies(&byte_frequencies(data));
        let symbols: Vec<u8> =
            (0u16..256).map(|s| s as u8).filter(|&s| code.length(s) > 0).collect();
        for &a in &symbols {
            for &b in &symbols {
                if a == b {
                    continue;
                }
                let (la, lb) = (code.length(a), code.length(b));
                if la <= lb {
                    let prefix = code.code(b) >> (lb - la);
                    assert!(prefix != code.code(a), "{a:?} is a prefix of {b:?}");
                }
            }
        }
    }

    fn assert_prefix_free(code: &HuffmanCode) {
        let symbols: Vec<u8> =
            (0u16..256).map(|s| s as u8).filter(|&s| code.length(s) > 0).collect();
        for &a in &symbols {
            for &b in &symbols {
                if a == b {
                    continue;
                }
                let (la, lb) = (code.length(a), code.length(b));
                if la <= lb {
                    let prefix = code.code(b) >> (lb - la);
                    assert!(prefix != code.code(a), "{a:?} is a prefix of {b:?}");
                }
            }
        }
    }

    #[test]
    fn fibonacci_weights_are_length_limited() {
        // Fibonacci weights maximize Huffman tree depth: with n symbols the
        // rarest gets an (n-1)-bit code, so 64 symbols would demand 63-bit
        // codes — far past the u32 code storage. Regression for the
        // shift-overflow this used to trigger in `from_lengths`.
        let mut freq = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freq.iter_mut().take(64) {
            *f = a;
            let next = a + b;
            a = b;
            b = next;
        }
        let code = HuffmanCode::from_frequencies(&freq);
        let mut kraft = 0u64;
        for s in 0u16..256 {
            let l = code.length(s as u8);
            assert!(l <= MAX_CODE_LEN, "symbol {s} got {l}-bit code");
            if s < 64 {
                assert!(l > 0, "coded symbol {s} lost its code");
                kraft += 1u64 << (MAX_CODE_LEN - l);
            } else {
                assert_eq!(l, 0);
            }
        }
        // The limited lengths must still describe a *full* prefix tree.
        assert_eq!(kraft, 1u64 << MAX_CODE_LEN);
        assert_prefix_free(&code);

        // Round-trip data touching every coded symbol, and check the
        // encoded_bits accounting matches the materialized stream.
        let mut data = Vec::new();
        for s in 0..64u8 {
            for _ in 0..=(s % 5) {
                data.push(s);
            }
        }
        let bits = encode(&code, &data);
        assert_eq!(decode(&code, &bits, data.len()).unwrap(), data);
        assert_eq!(code.encoded_bits(&data).div_ceil(8), bits.len() as u64);
    }

    #[test]
    fn moderate_depths_are_untouched_by_length_limiting() {
        // A 20-symbol Fibonacci set peaks at 19-bit codes — deep, but within
        // the limit. The repair path must not fire: lengths equal raw tree
        // depths (rarest two symbols share the maximum length).
        let mut freq = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freq.iter_mut().take(20) {
            *f = a;
            let next = a + b;
            a = b;
            b = next;
        }
        let code = HuffmanCode::from_frequencies(&freq);
        assert_eq!(code.length(0), 19);
        assert_eq!(code.length(1), 19);
        assert_eq!(code.length(19), 1);
        assert_prefix_free(&code);
    }

    #[test]
    fn from_lengths_clamps_hostile_lengths() {
        // `from_lengths` is public; arbitrary length tables must never
        // panic or shift-overflow, merely clamp.
        let mut lengths = [0u8; 256];
        lengths[0] = 255;
        lengths[1] = 40;
        lengths[2] = 2;
        let code = HuffmanCode::from_lengths(lengths);
        assert_eq!(code.length(0), MAX_CODE_LEN);
        assert_eq!(code.length(1), MAX_CODE_LEN);
        assert_eq!(code.length(2), 2);
    }

    #[test]
    fn truncated_stream_returns_none() {
        let data = b"abcabcabc";
        let code = HuffmanCode::from_frequencies(&byte_frequencies(data));
        let bits = encode(&code, data);
        assert_eq!(decode(&code, &bits[..bits.len() - 1], data.len()), None);
    }

    #[test]
    fn fibonacci_weights_pin_the_limited_lengths() {
        // Forty Fibonacci weights give raw depths up to 39, which the
        // repair limits to 32 bits.
        let mut freq = [0u64; 256];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freq.iter_mut().take(40) {
            *f = a;
            (a, b) = (b, a + b);
        }
        let code = HuffmanCode::from_frequencies(&freq);
        let want = [
            32, 32, 32, 32, 32, 32, 32, 32, 32, 32, 31, 30, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19,
            18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1,
        ];
        assert_eq!(code.lengths()[..40], want);
        assert!(code.lengths()[40..].iter().all(|&l| l == 0));
        let data: Vec<u8> = (0..40).collect();
        assert_eq!(decode(&code, &encode(&code, &data), data.len()).unwrap(), data);
    }

    #[test]
    fn code_lengths_large_alphabet_satisfies_kraft() {
        // A few thousand symbols with a Zipf-ish skew — the dictionary-rank
        // use case. Lengths must respect the cap and the Kraft inequality.
        let freqs: Vec<u64> = (0..4000u64).map(|s| 4000 - s).collect();
        for cap in [12u8, 16, 32] {
            let lengths = code_lengths(&freqs, cap);
            let mut kraft = 0u128;
            for (s, &l) in lengths.iter().enumerate() {
                assert!(l >= 1 && l <= cap, "symbol {s} got length {l} under cap {cap}");
                kraft += 1u128 << (cap - l);
            }
            assert!(kraft <= 1u128 << cap, "Kraft violated under cap {cap}");
        }
    }

    #[test]
    fn code_lengths_infeasible_cap_is_raised() {
        // 100 equal-weight symbols cannot fit in 2^4 codewords; the cap is
        // raised to ceil(log2(100)) = 7 and every symbol still gets a code.
        let freqs = vec![1u64; 100];
        let lengths = code_lengths(&freqs, 4);
        let mut kraft = 0u128;
        for &l in &lengths {
            assert!((1..=7).contains(&l), "length {l} outside raised cap");
            kraft += 1u128 << (7 - l);
        }
        assert!(kraft <= 1u128 << 7);
    }

    #[test]
    fn code_lengths_pathological_weights_are_limited() {
        // Fibonacci weights force raw depths past any practical cap.
        let mut freqs = vec![0u64; 80];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let next = a + b;
            a = b;
            b = next;
        }
        let lengths = code_lengths(&freqs, 16);
        let mut kraft = 0u128;
        for &l in &lengths {
            assert!((1..=16).contains(&l));
            kraft += 1u128 << (16 - l);
        }
        // The repair terminates exactly at a full tree.
        assert_eq!(kraft, 1u128 << 16);
    }

    #[test]
    fn code_lengths_degenerate_alphabets() {
        assert_eq!(code_lengths(&[], 8), Vec::<u8>::new());
        assert_eq!(code_lengths(&[0, 0, 0], 8), vec![0, 0, 0]);
        assert_eq!(code_lengths(&[0, 7, 0], 8), vec![0, 1, 0]);
        // Two symbols: one bit each regardless of skew.
        assert_eq!(code_lengths(&[1, 1_000_000], 8), vec![1, 1]);
    }

    #[test]
    fn decode_checked_rejects_forged_count_without_allocating() {
        // A 4-byte stream claiming a billion symbols must fail fast with a
        // typed error, not reserve a billion-entry vector.
        let data = b"aaab";
        let code = HuffmanCode::from_frequencies(&byte_frequencies(data));
        let bits = encode(&code, data);
        assert_eq!(
            decode_checked(&code, &bits, 1_000_000_000),
            Err(DecodeError::CountExceedsBitSupply {
                count: 1_000_000_000,
                bits_available: bits.len() * 8,
            })
        );
    }

    #[test]
    fn decode_checked_types_truncation() {
        let data = b"abcdefgh abcdefgh abcdefgh";
        let code = HuffmanCode::from_frequencies(&byte_frequencies(data));
        let bits = encode(&code, data);
        let cut = &bits[..bits.len() / 2];
        match decode_checked(&code, cut, (cut.len() * 8).min(data.len())) {
            Err(DecodeError::Truncated { decoded }) => assert!(decoded < data.len()),
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn decode_checked_types_invalid_codes() {
        // A sparse, non-full code: all-ones bit patterns match nothing.
        let mut lengths = [0u8; 256];
        lengths[0] = 2; // code 00
        lengths[1] = 2; // code 01
        let code = HuffmanCode::from_lengths(lengths);
        let hostile = [0xffu8; 8];
        match decode_checked(&code, &hostile, 4) {
            Err(DecodeError::InvalidCode { at_bit }) => assert_eq!(at_bit, 0),
            other => panic!("expected InvalidCode, got {other:?}"),
        }
    }
}
