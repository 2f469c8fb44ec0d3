//! Benchmark-suite loading shared by all experiments.

use codense_codegen::LowerOptions;
use codense_obj::{IsaId, ObjectModule};

/// The eight CINT95 stand-in modules, generated once, in the paper's order.
///
/// Each module is generated from its own seeded profile, so generation is
/// independent per benchmark and runs on the worker pool; the output order
/// (and content — every profile carries its own RNG seed) is identical to
/// the sequential `generate_suite(IsaId::Ppc)`.
pub fn load() -> Vec<ObjectModule> {
    codense_core::parallel::par_map(codense_codegen::spec_profiles(), |_, profile| {
        codense_codegen::generate_module(&profile, IsaId::Ppc, LowerOptions::default())
    })
}
