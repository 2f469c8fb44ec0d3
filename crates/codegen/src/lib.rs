#![warn(missing_docs)]

//! A deterministic, SDTS-style synthetic compiler producing PowerPC and
//! MIPS object modules — the reproduction's stand-in for SPEC CINT95
//! compiled with GCC -O2.
//!
//! The paper's compression method exploits a structural property of compiled
//! code: compilers emit instructions from a fixed set of templates
//! (syntax-directed translation), so "object modules are generated with many
//! common sub-sequences of instructions" (§1.1). This crate reproduces that
//! property from first principles:
//!
//! * [`ir`] — a miniature statement/expression IR,
//! * [`generate`] — a seeded random program builder with per-benchmark
//!   [`profile::BenchProfile`]s that mirror the scale ordering and character
//!   of the eight SPEC CINT95 programs,
//! * [`lower`] — template-based lowering with GCC-like conventions
//!   (standard prologue/epilogue shapes, argument registers,
//!   scratch-register discipline, jump-table switches): one IR walk owns
//!   frames, register allocation and control flow, over a PowerPC (SVR4,
//!   `stmw`/`lmw` saves) or a MIPS (O32) instruction-template table, so one
//!   program yields structurally parallel modules on both ISAs.
//!
//! Everything is deterministic: the same profile always yields the same
//! bit-exact module, so the experiment tables are stable across runs and
//! machines.
//!
//! # Example
//!
//! ```
//! use codense_isa::IsaId;
//!
//! for isa in IsaId::ALL {
//!     let module = codense_codegen::benchmark("compress", isa).unwrap();
//!     assert_eq!(module.validate_with(codense_codegen::isa_ref(isa)), Ok(()));
//!     assert!(module.len() > 1000);
//! }
//! ```

pub mod generate;
pub mod ir;
pub mod lower;
mod mips_templates;
mod ppc_templates;
pub mod profile;
pub mod rng;

use codense_isa::{CoreVisitor, IsaId, IsaRef};

pub use generate::{benchmark, build_program, generate_module, generate_suite};
pub use lower::{lower_program, LowerOptions};
pub use profile::{lib_profile, spec_profiles, BenchProfile};
pub use rng::Rng;

/// The backend behind an ISA tag: the one registry from the [`IsaId`] a
/// module or container records to the [`IsaRef`] that reads it. It lives
/// here because this is the lowest crate that links both backends.
pub fn isa_ref(id: IsaId) -> IsaRef {
    match id {
        IsaId::Ppc => IsaRef(&codense_ppc::ISA),
        IsaId::Mips => IsaRef(&codense_mips::ISA),
    }
}

/// Boots a fresh machine of the backend behind `id`, with `mem_bytes` of
/// data memory, and hands it to `visitor`: the concrete
/// `codense_ppc::Machine` or `codense_mips::Machine`, so a run the visitor
/// starts takes the loop monomorphized for it and decodes each word once.
/// [`IsaRef`]'s `new_core` boxes the same machine as a `dyn Core`, whose
/// every step decodes its word again; keep that for cores stepped by hand.
pub fn with_core<V: CoreVisitor>(id: IsaId, mem_bytes: usize, visitor: V) -> V::Output {
    match id {
        IsaId::Ppc => visitor.visit(codense_ppc::Machine::new(mem_bytes)),
        IsaId::Mips => visitor.visit(codense_mips::Machine::new(mem_bytes)),
    }
}
