#![warn(missing_docs)]

//! Dictionary code compression for embedded PowerPC programs — a full
//! reproduction of Lefurgy, Bird, Chen & Mudge, *Improving Code Density
//! Using Compression Techniques* (CSE-TR-342-97 / MICRO-30, 1997).
//!
//! A post-compilation [`Compressor`] finds instruction sequences repeated
//! throughout a program and replaces each occurrence with a short codeword
//! indexing an expansion [`dict::Dictionary`]. Four codeword encodings are
//! implemented ([`EncodingKind`]): the 2-byte escape-byte baseline, a 1-byte
//! scheme for ≤512-byte dictionaries, the nibble-aligned variable-length
//! scheme that achieves the paper's headline 30–50 % size reduction, and a
//! frequency-driven Huffman scheme ([`huffcode`]) that assigns codeword
//! lengths from each program's actual dictionary-entry usage. Dictionary
//! *selection* is pluggable too ([`selector`]): the greedy fast path, or an
//! iterative-refinement hill climb re-scored with the exact layout cost.
//!
//! # Pipeline
//!
//! 1. [`model::ProgramModel`] flags each instruction as a basic-block
//!    leader or not, and as compressible or not: PC-relative branches
//!    (§3.1.1) and hot (exempt) code are not.
//! 2. [`greedy`] selects dictionary entries by maximum immediate savings,
//!    with an incremental occurrence index and a lazy max-heap.
//! 3. [`dict::Dictionary::assign_ranks_by_use`] gives the most-used entries
//!    the shortest codewords (§4.1.3).
//! 4. The layout pass assigns nibble-granular addresses, re-encodes every
//!    branch offset at the smallest codeword's alignment (§3.2.2), rewrites
//!    offset-overflowing branches through an overflow jump table, patches
//!    jump tables, and packs the image ([`encoding`], [`nibbles`]).
//! 5. [`verify::verify`] proves the result expands back to the original.
//!
//! # Example
//!
//! ```
//! use codense_core::{Compressor, CompressionConfig, verify::verify};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut module = codense_obj::ObjectModule::new("demo", codense_obj::IsaId::Ppc);
//! module.code = vec![0x3863_0001; 100];
//! let compressed = Compressor::new(CompressionConfig::nibble_aligned()).compress(&module)?;
//! verify(&module, &compressed)?;
//! assert!(compressed.compression_ratio() < 0.2);
//! # Ok(())
//! # }
//! ```
//!
//! The [`analysis`] module computes the paper's motivating measurements
//! (encoding redundancy, branch-offset usage, prologue/epilogue weight), and
//! [`sweep`] regenerates its parameter studies.

pub mod analysis;
pub mod compressor;
pub mod config;
pub mod container;
pub mod dict;
pub mod encoding;
pub mod error;
pub mod greedy;
pub mod huffcode;
pub mod model;
pub mod nibbles;
pub mod parallel;
pub mod selector;
pub mod stats;
pub mod sweep;
pub mod telemetry;
pub mod verify;

pub use compressor::{Atom, CompressedProgram, Compressor};
pub use config::{CompressionConfig, EncodingKind};
pub use container::{ContainerError, ProgramImage};
pub use dict::Dictionary;
pub use error::{CompressError, VerifyError};
pub use greedy::{CandidateIndex, MatchfinderKind, PickRecord};
pub use huffcode::HuffCode;
pub use selector::SelectorKind;
pub use stats::Composition;
