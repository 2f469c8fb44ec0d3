//! Telemetry parity: the fetch engines publish exactly the counts they
//! keep, once, on every way a run can end, and the compressed engine
//! publishes what the re-parsing specification counts fetch by fetch.
//!
//! The `vm.fetch.*` counters are process-global, so this binary holds a
//! single test: nothing else may move them between a run's before and after
//! snapshots.

use codense_core::telemetry;
use codense_core::{CompressionConfig, Compressor};
use codense_obj::{IsaId, ObjectModule};
use codense_ppc::insn::bo;
use codense_ppc::reg::*;
use codense_ppc::{encode, Insn, Spr};
use codense_vm::fetch_reference::CompressedFetcher;
use codense_vm::{
    kernels, run, Core, Fetch, FetchStats, LinearFetcher, Machine, MachineError, PredecodedFetcher,
};

type Counts = Vec<(&'static str, u64)>;

/// The `vm.fetch.*` counters, in registry order.
fn fetch_counters() -> Counts {
    telemetry::counter_snapshot().into_iter().filter(|(n, _)| n.starts_with("vm.fetch.")).collect()
}

/// Runs `body` and returns its result with the `vm.fetch.*` deltas it
/// caused.
fn measured<T>(body: impl FnOnce() -> T) -> (T, Counts) {
    let before = fetch_counters();
    let result = body();
    let delta = fetch_counters().iter().zip(&before).map(|(&(n, a), &(_, b))| (n, a - b)).collect();
    (result, delta)
}

/// The deltas a native engine with stats `s` publishes.
fn linear_counts(s: FetchStats) -> Counts {
    vec![
        ("vm.fetch.buffered_insns", 0),
        ("vm.fetch.codewords", 0),
        ("vm.fetch.escapes", 0),
        ("vm.fetch.linear_insns", s.insns),
        ("vm.fetch.nibbles", s.nibbles_fetched),
        ("vm.fetch.realigns", 0),
    ]
}

/// The deltas a compressed engine with stats `s` publishes.
fn compressed_counts(s: FetchStats) -> Counts {
    vec![
        ("vm.fetch.buffered_insns", s.expanded_insns),
        ("vm.fetch.codewords", s.codewords),
        ("vm.fetch.escapes", s.insns - s.expanded_insns),
        ("vm.fetch.linear_insns", 0),
        ("vm.fetch.nibbles", s.nibbles_fetched),
        ("vm.fetch.realigns", s.realigns),
    ]
}

/// Every architected field of a machine: registers, LR, CTR, CR, CA and
/// data memory.
fn state(m: &Machine) -> ([u32; 32], u32, u32, u32, bool, &[u8]) {
    (m.gpr, m.lr, m.ctr, m.cr, m.ca, &m.mem)
}

/// Runs `machine` over `fetch` into the error `want`, and checks that the
/// run, not the engine's drop, published exactly the engine's stats
/// (`counts` maps them to deltas).
fn ends_publishing(
    tag: &str,
    mut machine: Machine,
    mut fetch: impl Fetch,
    want: MachineError,
    counts: fn(FetchStats) -> Counts,
) {
    let (result, delta) = measured(|| run(&mut machine, &mut fetch, 0, 1000));
    assert_eq!(result, Err(want), "{tag}");
    assert_eq!(delta, counts(fetch.stats()), "{tag}: published by the run");
    let ((), dropped) = measured(|| drop(fetch));
    assert_eq!(dropped, counts(FetchStats::default()), "{tag}: published again on drop");
}

/// Straight-line code with repeats for the dictionary, then a jump through
/// CTR to an address past every engine's program.
fn faulting_module() -> ObjectModule {
    let mut m = ObjectModule::new("fault", IsaId::Ppc);
    m.code.push(encode(&Insn::Addis { rt: R3, ra: R0, si: 0x10 }));
    for _ in 0..8 {
        m.code.push(encode(&Insn::Addi { rt: R4, ra: R4, si: 1 }));
        m.code.push(encode(&Insn::Addi { rt: R5, ra: R5, si: 2 }));
    }
    m.code.push(encode(&Insn::Mtspr { spr: Spr::Ctr, rs: R3 }));
    m.code.push(encode(&Insn::Bcctr { bo: bo::ALWAYS, bi: 0, lk: false }));
    m
}

/// Every kernel, natively on a typed machine (predecoded steps) and on the
/// same machine as a `dyn Core` (each step decodes its word), and
/// compressed under all four encodings: equal results and final machines,
/// and `vm.fetch.*` deltas that are the stats themselves — equal to the
/// spec's per-fetch telemetry. Then the
/// other exits: a step limit and a fetch fault publish exactly what they
/// counted under both engines, and a hand-driven engine publishes when it
/// is dropped.
#[test]
fn fetch_telemetry_matches_the_spec_on_every_kernel_and_encoding() {
    let mut codewords = 0;
    for kernel in kernels::all() {
        let linear = || LinearFetcher::new(kernel.module.code.clone());
        let mut typed_machine = kernel.machine();
        let (typed, typed_delta) =
            measured(|| run(&mut typed_machine, &mut linear(), 0, 1_000_000).expect(kernel.name));
        let mut dyn_machine = kernel.machine();
        let (dynamic, dyn_delta) = measured(|| {
            let core: &mut dyn Core = &mut dyn_machine;
            run(core, &mut linear(), 0, 1_000_000).expect(kernel.name)
        });
        assert_eq!(typed.exit_code, kernel.expected, "{}", kernel.name);
        assert_eq!(dynamic, typed, "{}: dyn Core", kernel.name);
        assert_eq!(state(&dyn_machine), state(&typed_machine), "{}: dyn Core", kernel.name);
        assert_eq!(typed_delta, linear_counts(typed.stats), "{}: native telemetry", kernel.name);
        assert_eq!(dyn_delta, typed_delta, "{}: dyn Core's telemetry", kernel.name);

        for (label, config) in [
            ("baseline", CompressionConfig::baseline()),
            ("one-byte", CompressionConfig::small_dictionary(32)),
            ("nibble", CompressionConfig::nibble_aligned()),
            ("huffman", CompressionConfig::huffman()),
        ] {
            let tag = format!("{} {label}", kernel.name);
            let compressed = Compressor::new(config).compress(&kernel.module).expect(&tag);
            let (spec, spec_delta) = measured(|| {
                let mut fetch = CompressedFetcher::new(&compressed);
                let mut machine = kernel.machine();
                let core: &mut dyn Core = &mut machine;
                run(core, &mut fetch, 0, 1_000_000).expect(&tag)
            });
            let (got, delta) = measured(|| {
                let mut fetch = PredecodedFetcher::new(&compressed);
                run(&mut kernel.machine(), &mut fetch, 0, 1_000_000).expect(&tag)
            });
            assert_eq!(spec.exit_code, kernel.expected, "{tag}");
            assert_eq!(got, spec, "{tag}: run result");
            assert_eq!(delta, spec_delta, "{tag}: telemetry");
            assert_eq!(spec_delta, compressed_counts(spec.stats), "{tag}: telemetry is the stats");
            codewords += spec.stats.codewords;
        }
    }
    assert!(codewords > 0, "no kernel expanded a codeword");

    // A step limit, and a fetch fault after codewords have expanded.
    use MachineError::{FetchFault, StepLimit};
    let nibble = |m| Compressor::new(CompressionConfig::nibble_aligned()).compress(m).unwrap();
    let sieve = kernels::sieve();
    let (native, compressed) =
        (LinearFetcher::new(sieve.module.code.clone()), nibble(&sieve.module));
    ends_publishing("native limit", sieve.machine(), native, StepLimit, linear_counts);
    let fetch = PredecodedFetcher::new(&compressed);
    ends_publishing("compressed limit", sieve.machine(), fetch, StepLimit, compressed_counts);
    let module = faulting_module();
    let (native, compressed) = (LinearFetcher::new(module.code.clone()), nibble(&module));
    assert!(!compressed.dictionary.is_empty(), "the repeats should compress");
    let fault = FetchFault { pc: 0x10_0000 };
    ends_publishing("native fault", Machine::new(4096), native, fault.clone(), linear_counts);
    let fetch = PredecodedFetcher::new(&compressed);
    ends_publishing("compressed fault", Machine::new(4096), fetch, fault, compressed_counts);

    // Driven by hand, as the lockstep oracle does: nothing is published
    // until the engine is dropped, and then exactly its stats.
    let mut fetch = PredecodedFetcher::new(&compressed);
    let (stats, driven) = measured(|| {
        let mut pc = 0;
        for _ in 0..module.len() - 2 {
            pc = fetch.fetch(pc).unwrap().next_pc;
        }
        fetch.stats()
    });
    assert!(stats.codewords > 0);
    assert_eq!(driven, compressed_counts(FetchStats::default()), "published while driven");
    let ((), dropped) = measured(|| drop(fetch));
    assert_eq!(dropped, compressed_counts(stats), "published on drop");
}
