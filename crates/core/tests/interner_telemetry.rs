//! Proof (via the telemetry plane) that the production matchfinder never
//! builds lookup keys: `greedy.removal_allocs` counts every boxed lookup key
//! the reference index builds, and the sort-mined index, which drops dead
//! windows lazily instead of removing them by content, must leave it
//! untouched.
//!
//! This lives in its own integration-test binary so no other test's
//! reference-engine run can pollute the process-global counter.

use codense_core::greedy::MatchfinderKind;
use codense_core::{telemetry, CompressionConfig, Compressor};
use codense_obj::ObjectModule;
use codense_ppc::encode;
use codense_ppc::insn::Insn;
use codense_ppc::reg::{R3, R4};

fn module() -> ObjectModule {
    let mut words = Vec::new();
    for i in 0..60 {
        for _ in 0..(60 - i) / 10 + 1 {
            words.push(encode(&Insn::Addi { rt: R3, ra: R3, si: (i % 7) as i16 }));
            words.push(encode(&Insn::Addi { rt: R4, ra: R4, si: (i % 5) as i16 }));
        }
    }
    let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
    m.code = words;
    m
}

#[test]
fn interned_matchfinder_makes_zero_removal_allocations() {
    let m = module();

    // The production engine: many picks, zero removal-path allocations.
    let before = telemetry::GREEDY_REMOVAL_ALLOCS.get();
    let c = Compressor::new(CompressionConfig::baseline())
        .with_matchfinder(MatchfinderKind::Interned)
        .compress(&m)
        .unwrap();
    assert!(!c.picks.is_empty(), "test input must drive replacements");
    assert_eq!(
        telemetry::GREEDY_REMOVAL_ALLOCS.get(),
        before,
        "production matchfinder touched the removal-allocation path"
    );
    // Its mining counters fire (distinct candidates and their summed
    // lengths), and it never walks the reference window-remove path.
    assert!(telemetry::GREEDY_INTERNED_SEQS.get() > 0);
    assert!(telemetry::GREEDY_INTERNED_WORDS.get() >= telemetry::GREEDY_INTERNED_SEQS.get());

    // The reference engine on the same input pays an allocation per removal
    // lookup — the counter is live, so the zero above is meaningful.
    let before = telemetry::GREEDY_REMOVAL_ALLOCS.get();
    Compressor::new(CompressionConfig::baseline())
        .with_matchfinder(MatchfinderKind::Reference)
        .compress(&m)
        .unwrap();
    assert!(
        telemetry::GREEDY_REMOVAL_ALLOCS.get() > before,
        "reference engine should count removal-path allocations"
    );
}
