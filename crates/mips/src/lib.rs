#![warn(missing_docs)]

//! A 32-bit MIPS-like instruction-set subset: encoding, decoding,
//! disassembly, and a label-resolving assembler.
//!
//! This crate is the second instruction-level substrate for the `codense`
//! code compression system (the first is `codense-ppc`). It exists to prove
//! that the compression pipeline — dictionary construction, codeword
//! assignment, branch patching, overflow trampolines — is ISA-neutral: the
//! whole crate plugs into the rest of the system through the
//! [`codense_isa::Isa`] trait as [`ISA`].
//!
//! The subset follows classic MIPS I R/I/J encodings with three documented
//! deviations (no delay slots; branch displacements relative to the branch
//! itself; PC-relative `j`/`jal`) — see [`insn`] for the rationale.
//!
//! * [`MInsn`] is the structured form of an instruction. [`decode()`] and
//!   [`encode()`] round-trip between `MInsn` and raw `u32` words; only
//!   canonical encodings decode, so `encode(decode(w)) == w` for *all* words.
//! * [`branch::rel_branch_info`] classifies PC-relative branches and exposes
//!   their offset fields so the compressor can patch them after relocation.
//! * [`opcode::ILLEGAL_PRIMARY`] lists the eight illegal 6-bit primary
//!   opcodes used to build the 32 escape bytes for codewords.
//! * [`asm::Assembler`] builds runnable programs with symbolic labels.
//! * [`disasm::disassemble`] renders conventional MIPS assembly text.
//!
//! # Example
//!
//! ```
//! use codense_mips::{decode, encode, MInsn, reg::{T0, SP}};
//!
//! let insn = MInsn::Lw { rt: T0, base: SP, offset: 16 };
//! let word = encode(&insn);
//! assert_eq!(word, 0x8fa8_0010);
//! assert_eq!(decode(word), insn);
//! assert_eq!(codense_mips::disasm::disassemble(word, 0), "lw $8,16($29)");
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
pub use insn::MInsn;
pub use isa::ISA;
pub use machine::Machine;
pub use reg::Reg;
