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
