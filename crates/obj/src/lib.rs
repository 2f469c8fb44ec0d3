#![warn(missing_docs)]

//! Object-module model: the post-compilation program representation that the
//! compressor, analyzers, baselines, and VM all consume.
//!
//! An [`ObjectModule`] is a statically linked program image: a `.text`
//! section of 32-bit instruction words, tagged with the ISA they are
//! encoded in, plus the metadata a post-compilation compressor needs —
//! function boundaries (with prologue/epilogue extents, for the paper's
//! Table 3), and jump tables. Following §3.2.1 of the paper,
//! jump tables live in `.data` (not interleaved in `.text`) and hold
//! instruction addresses that the compressor patches after relocation.
//!
//! [`BasicBlocks`] derives the basic-block partition of the text: dictionary
//! entries may never span a block boundary, and branch targets always land on
//! block leaders.

pub mod bb;
pub mod crc32;
pub mod module;
pub mod serialize;

pub use bb::BasicBlocks;
pub use codense_isa::IsaId;
pub use module::{FunctionInfo, JumpTable, ModuleError, ObjectModule};
pub use serialize::{deserialize, serialize, SerializeError};
