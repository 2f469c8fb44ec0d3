#![warn(missing_docs)]

//! `codense` — dictionary code compression for embedded PowerPC programs.
//!
//! A production-quality reproduction of Lefurgy, Bird, Chen & Mudge,
//! *Improving Code Density Using Compression Techniques* (CSE-TR-342-97 /
//! MICRO-30, 1997): a post-compilation compressor that replaces repeated
//! instruction sequences with dictionary codewords, the modified
//! instruction-fetch path that executes the result, the paper's baselines
//! (CCRP, Liao's call-dictionary, Unix-compress LZW), and a synthetic
//! SPEC CINT95 stand-in benchmark suite.
//!
//! This facade re-exports the workspace crates under one roof:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`isa`] | `codense-isa` | the `Isa` trait: ISA-neutral compression contract |
//! | [`ppc`] | `codense-ppc` | PowerPC subset: encode/decode/disassemble/assemble |
//! | [`mips`] | `codense-mips` | MIPS-like subset: second backend behind the `Isa` trait |
//! | [`obj`] | `codense-obj` | object-module model, basic blocks |
//! | [`codegen`] | `codense-codegen` | synthetic SDTS compiler + benchmarks |
//! | [`core`] | `codense-core` | the compression pipeline (the contribution) |
//! | [`huffman`] | `codense-huffman` | canonical Huffman substrate |
//! | [`lzw`] | `codense-lzw` | Unix-compress-equivalent LZW |
//! | [`ccrp`] | `codense-ccrp` | compressed-cache-line baseline |
//! | [`liao`] | `codense-liao` | call-dictionary / mini-subroutine baseline |
//! | [`thumb`] | `codense-thumb` | Thumb/MIPS16-style subsetting baseline |
//! | [`vm`] | `codense-vm` | interpreter + compressed fetch path |
//! | [`cache`] | `codense-cache` | I-cache simulator + reference-trace replay |
//! | [`profile`] | `codense-profile` | execution profiler, hybrid policy, cycle model |
//!
//! # Quickstart
//!
//! ```
//! use codense::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A benchmark program (deterministic synthetic stand-in for SPEC
//! // CINT95 `compress` compiled with GCC -O2 for PowerPC).
//! let module = codense::codegen::benchmark("compress", IsaId::Ppc).expect("known benchmark");
//!
//! // Compress with the paper's most aggressive scheme.
//! let compressed = Compressor::new(CompressionConfig::nibble_aligned()).compress(&module)?;
//! verify(&module, &compressed)?;
//! assert!(compressed.compression_ratio() < 0.6); // 40+% smaller
//! # Ok(())
//! # }
//! ```

pub use codense_cache as cache;
pub use codense_ccrp as ccrp;
pub use codense_codegen as codegen;
pub use codense_core as core;
pub use codense_huffman as huffman;
pub use codense_isa as isa;
pub use codense_liao as liao;
pub use codense_lzw as lzw;
pub use codense_mips as mips;
pub use codense_obj as obj;
pub use codense_ppc as ppc;
pub use codense_profile as profile;
pub use codense_thumb as thumb;
pub use codense_vm as vm;

/// The most commonly used items in one import.
pub mod prelude {
    pub use codense_core::verify::verify;
    pub use codense_core::{
        CompressedProgram, CompressionConfig, Compressor, EncodingKind, SelectorKind,
    };
    pub use codense_isa::{IsaId, IsaRef};
    pub use codense_obj::ObjectModule;
    pub use codense_ppc::{decode, encode, Insn};
    pub use codense_vm::{LinearFetcher, Machine, PredecodedFetcher};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let mut module = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        module.code = vec![encode(&Insn::Sc); 4];
        let c = Compressor::new(CompressionConfig::baseline()).compress(&module).unwrap();
        verify(&module, &c).unwrap();
    }
}
