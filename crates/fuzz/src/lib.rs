//! Differential-execution fuzzing and fault injection for the compressed-
//! program pipeline.
//!
//! The paper's central claim is behavioral: a compressed program, fetched
//! through the modified front end of Fig 3, is *indistinguishable* from the
//! original at the architecture level. The unit tests check that claim on a
//! dozen hand-written kernels; this crate checks it on unbounded random
//! programs, and checks the converse too — when the compressed artifact
//! *is* corrupted, every decoder path must fail with a typed error, never a
//! panic, hang, or out-of-bounds read.
//!
//! Every piece is ISA-generic; one campaign runs on any backend with a
//! fuzz [`target`], and every ISA gets the same depth: shrinking, the
//! planted-corruption self-test, fault injection and hybrid images.
//!
//! The pieces:
//!
//! - [`spec`]/[`gen`] — a seeded generator of structured, terminating
//!   programs: multi-block control flow, forward and backward branches,
//!   calls, stack frames, and jump-table dispatches through `.data`.
//! - [`target`] — the per-ISA leaves of that tree (PowerPC and MIPS):
//!   register roles, straight-line op and condition draws, and the
//!   instruction templates for loops, ifs, dispatches, calls and exits.
//! - [`oracle`] — the lockstep differential oracle over any
//!   [`codense_isa::Core`]: native fetch vs. compressed fetch under each
//!   codeword encoding, comparing the full architectural trace step by step.
//! - [`faults`] — corruption batteries over the `.cdns`/`.cdm` binary
//!   formats and raw nibble soup, asserting the no-panic decoder policy.
//! - [`shrink`](mod@shrink) — spec-level test-case minimization: every
//!   candidate is a well-formed terminating program by construction.
//! - [`runner`] — the campaign driver behind `codense fuzz`: per-case seed
//!   derivation (the same stream for every ISA), parallel execution,
//!   shrinking, deterministic reporting.
//!
//! Reproducing a failure is always `seed → program`: the report prints the
//! derived case seed, and `runner` rebuilds the identical case from it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod faults;
pub mod gen;
pub mod oracle;
pub mod runner;
pub mod shrink;
pub mod spec;
pub mod target;

pub use faults::{container_battery, corrupt, module_battery, nibble_soup_battery, FaultReport};
pub use gen::{generate_spec, GenConfig};
pub use oracle::{lockstep, lockstep_with, Divergence, DivergenceKind, LockstepOk, TraceMask};
pub use runner::{run, FuzzOptions, FuzzReport};
pub use shrink::shrink;
pub use spec::{build, BuildError, BuiltProgram, FuncSpec, Node, ProgramSpec};
pub use target::Target;
