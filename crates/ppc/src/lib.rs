#![warn(missing_docs)]

//! A 32-bit PowerPC instruction-set subset: encoding, decoding, disassembly,
//! and a label-resolving assembler.
//!
//! This crate is the instruction-level substrate for the `codense` code
//! compression system, which reproduces Lefurgy, Bird, Chen & Mudge,
//! *Improving Code Density Using Compression Techniques* (1997). The paper
//! applies dictionary compression to PowerPC programs, so everything above
//! this crate manipulates 32-bit PowerPC instruction words:
//!
//! * [`Insn`] is the structured form of an instruction. [`decode()`] and
//!   [`encode()`] round-trip between `Insn` and raw `u32` words.
//! * [`branch::rel_branch_info`] classifies branch instructions and exposes
//!   their offset fields so the compressor can patch them after relocation.
//! * [`opcode::ILLEGAL_PRIMARY`] lists the eight illegal 6-bit primary
//!   opcodes the paper uses to build 32 escape bytes for codewords.
//! * [`asm::Assembler`] builds runnable programs with symbolic labels.
//! * [`disasm::disassemble`] renders paper-style assembly text.
//!
//! # Example
//!
//! ```
//! use codense_ppc::{decode, encode, Insn, reg::{R9, R28}};
//!
//! let insn = Insn::Lbz { rt: R9, ra: R28, d: 0 };
//! let word = encode(&insn);
//! assert_eq!(decode(word), insn);
//! assert_eq!(codense_ppc::disasm::disassemble(word, 0), "lbz r9,0(r28)");
//! ```

pub mod asm;
pub mod branch;
pub mod decode;
pub mod disasm;
pub mod encode;
pub mod insn;
pub mod isa;
pub mod machine;
pub mod opcode;
pub mod parse;
pub mod reg;

pub use decode::decode;
pub use encode::encode;
pub use insn::Insn;
pub use isa::ISA;
pub use machine::Machine;
pub use reg::{CrField, Gpr, Spr};

/// Size of one (uncompressed) PowerPC instruction in bytes.
pub const INSN_BYTES: u32 = 4;

/// Serializes a slice of instruction words to big-endian bytes, the memory
/// image layout of a PowerPC `.text` section.
///
/// ```
/// let bytes = codense_ppc::words_to_bytes(&[0x3860_0001]);
/// assert_eq!(bytes, [0x38, 0x60, 0x00, 0x01]);
/// ```
pub fn words_to_bytes(words: &[u32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 4);
    for w in words {
        out.extend_from_slice(&w.to_be_bytes());
    }
    out
}

/// Reassembles big-endian bytes into instruction words.
///
/// # Panics
///
/// Panics if `bytes.len()` is not a multiple of 4.
pub fn bytes_to_words(bytes: &[u8]) -> Vec<u32> {
    assert!(bytes.len().is_multiple_of(4), "text image must be word aligned");
    bytes.chunks_exact(4).map(|c| u32::from_be_bytes([c[0], c[1], c[2], c[3]])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_byte_roundtrip() {
        let words = vec![0x3860_0001, 0x4e80_0020, 0xdead_beef];
        assert_eq!(bytes_to_words(&words_to_bytes(&words)), words);
    }
}
