//! Decode-cache equivalence suite.
//!
//! The production path — [`run`] over the [`PredecodedFetcher`] on a typed
//! machine, which steps each word's predecoded form
//! ([`codense_isa::PredecodeCore::step_insn`]) — must be observably
//! identical to the specification: [`run`] over the re-parsing engine
//! ([`CompressedFetcher`]) on the same machine as a `dyn Core`, which
//! decodes every word as it steps it ([`Core::step_word`]). Same exit, same
//! step count, byte-exact [`FetchStats`], and an identical final machine —
//! registers *and* memory, with no masking, because both engines execute
//! in the same (compressed) fetch domain. The suite pins this on
//! randomized fuzz programs under all four encodings on both ISAs, then
//! checks the cache edges: a second run over a warm cache, a rerun after a
//! run stopped inside an expansion, and fault caching.

use codense_codegen::Rng;
use codense_core::{verify::verify, CompressedProgram, CompressionConfig, Compressor};
use codense_fuzz::gen::{generate_spec, GenConfig};
use codense_fuzz::spec::{build, MEM_BYTES};
use codense_fuzz::target::{Mips, Ppc};
use codense_isa::IsaRef;
use codense_obj::{IsaId, ObjectModule};
use codense_ppc::{encode, reg::*, Insn};
use codense_vm::fetch::{Fetch, FetchStats, PredecodedFetcher};
use codense_vm::fetch_reference::CompressedFetcher;
use codense_vm::machine::MachineError;
use codense_vm::{run, run_traced, Core, Machine, RunResult};

const MAX_STEPS: u64 = 2_000_000;

fn configs() -> [(&'static str, CompressionConfig); 4] {
    [
        ("baseline", CompressionConfig::baseline()),
        ("one-byte", CompressionConfig::small_dictionary(32)),
        ("nibble", CompressionConfig::nibble_aligned()),
        ("huffman", CompressionConfig::huffman()),
    ]
}

/// Seeds the jump-table region with the *image's* (compressed-domain)
/// entries. Both engines run the same image, so both machines get the same
/// values — unlike the native/compressed oracle, nothing differs by design.
fn seed_tables(mem: &mut [u8], table_addrs: &[u32], compressed: &CompressedProgram) {
    for (t, table) in compressed.jump_tables.iter().enumerate() {
        for (e, &target) in table.iter().enumerate() {
            let a = (table_addrs[t] + 4 * e as u32) as usize;
            mem[a..a + 4].copy_from_slice(&target.to_be_bytes());
        }
    }
}

fn entry_of(compressed: &CompressedProgram) -> u64 {
    compressed.address_of_orig(0).map_or(0, u64::from)
}

/// A fresh machine holding the image's jump tables.
fn ppc_machine(compressed: &CompressedProgram, table_addrs: &[u32]) -> Machine {
    let mut m = Machine::new(MEM_BYTES);
    seed_tables(&mut m.mem, table_addrs, compressed);
    m
}

/// The specification's run of the image on a fresh machine: the
/// re-parsing engine, and the machine as a `dyn Core`, so every step
/// decodes its word ([`Core::step_word`]).
fn spec_run(
    compressed: &CompressedProgram,
    table_addrs: &[u32],
) -> (Result<RunResult, MachineError>, Machine) {
    let mut m = ppc_machine(compressed, table_addrs);
    let core: &mut dyn Core = &mut m;
    let r = run(core, &mut CompressedFetcher::new(compressed), entry_of(compressed), MAX_STEPS);
    (r, m)
}

/// The production run of the image on a fresh machine over a
/// caller-managed engine (so tests can reuse its cache across runs),
/// stepping the typed machine's predecoded form.
fn ppc_run(
    compressed: &CompressedProgram,
    table_addrs: &[u32],
    fetch: &mut PredecodedFetcher,
) -> (Result<RunResult, MachineError>, Machine) {
    let mut m = ppc_machine(compressed, table_addrs);
    let r = run(&mut m, fetch, entry_of(compressed), MAX_STEPS);
    (r, m)
}

/// Full-state equality between the two engines' runs: result (including
/// the error case — both must fault identically or halt identically) and
/// every architected machine field, unmasked.
fn assert_ppc_equal(
    tag: &str,
    reference: &(Result<RunResult, MachineError>, Machine),
    got: &(Result<RunResult, MachineError>, Machine),
) {
    assert_eq!(got.0, reference.0, "{tag}: run result");
    assert_ppc_machines_equal(tag, &reference.1, &got.1);
}

fn assert_ppc_machines_equal(tag: &str, rm: &Machine, gm: &Machine) {
    assert_eq!(gm.gpr, rm.gpr, "{tag}: gpr");
    assert_eq!(gm.lr, rm.lr, "{tag}: lr");
    assert_eq!(gm.ctr, rm.ctr, "{tag}: ctr");
    assert_eq!(gm.cr, rm.cr, "{tag}: cr");
    assert_eq!(gm.ca, rm.ca, "{tag}: ca");
    assert_eq!(gm.mem, rm.mem, "{tag}: memory");
}

fn added(a: FetchStats, b: FetchStats) -> FetchStats {
    FetchStats {
        insns: a.insns + b.insns,
        nibbles_fetched: a.nibbles_fetched + b.nibbles_fetched,
        codewords: a.codewords + b.codewords,
        expanded_insns: a.expanded_insns + b.expanded_insns,
        realigns: a.realigns + b.realigns,
    }
}

/// Fuzz programs, all four encodings, PPC: the predecoded engine is
/// trace-equivalent to the re-parsing engine, final machines byte-equal.
#[test]
fn fuzz_ppc_predecoded_matches_reparse() {
    let mut tested = 0;
    for case in 0..6u64 {
        let mut rng = Rng::new(0x5EED_0000 + case);
        let spec = generate_spec(&Ppc, &mut rng, &GenConfig::default());
        let program = build(&Ppc, &spec).expect("build");
        for (label, config) in configs() {
            let tag = format!("case {case} {label}");
            let compressed = Compressor::new(config).compress(&program.module).expect(&tag);
            verify(&program.module, &compressed).expect(&tag);
            if !compressed.overflow_table.is_empty() {
                // Overflow trampolines load targets from data memory the
                // oracle-style harness does not materialize; skip, as the
                // differential oracle does.
                continue;
            }
            let reference = spec_run(&compressed, &program.table_addrs);
            let mut fetch = PredecodedFetcher::new(&compressed);
            let got = ppc_run(&compressed, &program.table_addrs, &mut fetch);
            assert_ppc_equal(&tag, &reference, &got);
            tested += 1;
        }
    }
    assert!(tested >= 12, "only {tested} (case, encoding) pairs ran");
}

/// Fuzz programs, all four encodings, MIPS: same contract on the second
/// backend (distinct decoded-insn type through [`run`]'s
/// monomorphization; the spec again steps a `dyn Core`).
#[test]
fn fuzz_mips_predecoded_matches_reparse() {
    let mips = IsaRef(&codense_mips::ISA);
    let mut tested = 0;
    for case in 0..6u64 {
        let mut rng = Rng::new(0x3B1A_0000 + case);
        let spec = generate_spec(&Mips, &mut rng, &GenConfig::default());
        let program = build(&Mips, &spec).expect("build");
        for (label, config) in configs() {
            let tag = format!("case {case} {label}");
            let compressed =
                Compressor::new(config).with_isa(mips).compress(&program.module).expect(&tag);
            verify(&program.module, &compressed).expect(&tag);
            if !compressed.overflow_table.is_empty() {
                continue;
            }
            let entry = entry_of(&compressed);

            let mut rm = codense_mips::Machine::new(MEM_BYTES);
            seed_tables(&mut rm.mem, &program.table_addrs, &compressed);
            let mut ref_fetch = CompressedFetcher::new(&compressed);
            let spec_core: &mut dyn Core = &mut rm;
            let reference = run(spec_core, &mut ref_fetch, entry, MAX_STEPS);

            let mut gm = codense_mips::Machine::new(MEM_BYTES);
            seed_tables(&mut gm.mem, &program.table_addrs, &compressed);
            let mut fetch = PredecodedFetcher::new(&compressed);
            let got = run(&mut gm, &mut fetch, entry, MAX_STEPS);

            assert_eq!(got, reference, "{tag}: run result");
            assert_eq!(gm.gpr, rm.gpr, "{tag}: gpr");
            assert_eq!(gm.mem, rm.mem, "{tag}: memory");
            tested += 1;
        }
    }
    assert!(tested >= 12, "only {tested} (case, encoding) pairs ran");
}

/// A second run on a warm engine replays the entries the first run cached:
/// its decoded mirror starts empty and catches up from the pool, since no
/// fill happens.
#[test]
fn warm_cache_serves_a_second_run() {
    let mut rng = Rng::new(0xCAFE_0004);
    let spec = generate_spec(&Ppc, &mut rng, &GenConfig::default());
    let program = build(&Ppc, &spec).expect("build");
    let compressed =
        Compressor::new(CompressionConfig::nibble_aligned()).compress(&program.module).unwrap();
    assert!(compressed.overflow_table.is_empty(), "pick another seed");
    let reference = spec_run(&compressed, &program.table_addrs);
    assert!(reference.0.is_ok(), "reference halts");

    let mut fetch = PredecodedFetcher::new(&compressed);

    // A cold run, byte-exact with the spec.
    let cold = ppc_run(&compressed, &program.table_addrs, &mut fetch);
    assert_ppc_equal("cold run", &reference, &cold);
    let warm = fetch.cached_items();
    assert!(warm > 0);

    // A run on the same, warm fetcher: every entry is a cache hit
    // predating the run, so the decoded mirror must catch up from the
    // pool rather than from fills. Its stats are cumulative: two runs'
    // worth.
    let got = ppc_run(&compressed, &program.table_addrs, &mut fetch);
    let twice = reference.0.clone().map(|r| RunResult { stats: added(r.stats, r.stats), ..r });
    assert_ppc_equal("warm run", &(twice, reference.1), &got);
    assert_eq!(fetch.cached_items(), warm, "no refill on a warm cache");
}

/// A run that stops inside an expansion leaves nothing for the next run
/// on the same engine: rerun from the entry on a fresh machine, after a
/// step limit one word into the entry codeword's expansion, both engines
/// execute exactly what a fresh engine does, and count the rerun as a
/// fresh engine counts it.
#[test]
fn a_rerun_after_a_stop_inside_an_expansion_starts_afresh() {
    let mut m = ObjectModule::new("t", IsaId::Ppc);
    for _ in 0..6 {
        m.code.push(encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }));
        m.code.push(encode(&Insn::Addi { rt: R4, ra: R4, si: 2 }));
    }
    m.code.push(encode(&Insn::Sc));
    let compressed = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
    let cold = run(&mut Machine::new(4096), &mut PredecodedFetcher::new(&compressed), 0, 100);
    let cold = cold.expect("halts");
    assert_eq!(cold.exit_code, 6);

    let mut spec = CompressedFetcher::new(&compressed);
    let mut predecoded = PredecodedFetcher::new(&compressed);
    for (tag, fetch) in [("spec", &mut spec as &mut dyn Fetch), ("predecoded", &mut predecoded)] {
        let mut next_pc = u64::MAX;
        let stopped = run_traced(&mut Machine::new(4096), fetch, 0, 1, |_, f| next_pc = f.next_pc);
        assert_eq!(stopped, Err(MachineError::StepLimit), "{tag}");
        assert_eq!(next_pc, 0, "{tag}: the entry codeword is still draining");
        let before = fetch.stats();

        let got = run(&mut Machine::new(4096), fetch, 0, 100).expect(tag);
        assert_eq!((got.exit_code, got.steps), (cold.exit_code, cold.steps), "{tag}");
        assert_eq!(got.stats, added(before, cold.stats), "{tag}: the rerun's counters");
    }
}

/// Unparseable offsets fault without being cached: the same bad branch
/// target faults on every attempt (no stale entry can mask it), exactly as
/// the re-parsing engine behaves.
#[test]
fn faults_are_not_cached() {
    let mut rng = Rng::new(0xCAFE_0005);
    let spec = generate_spec(&Ppc, &mut rng, &GenConfig::default());
    let program = build(&Ppc, &spec).expect("build");
    let compressed =
        Compressor::new(CompressionConfig::nibble_aligned()).compress(&program.module).unwrap();
    let mut fetch = PredecodedFetcher::new(&compressed);
    let bad = compressed.image.len() as u64 * 2 + 5; // past the stream
    for attempt in 0..2 {
        match fetch.fetch(bad) {
            Err(MachineError::FetchFault { pc }) => assert_eq!(pc, bad, "attempt {attempt}"),
            other => panic!("attempt {attempt}: expected FetchFault, got {other:?}"),
        }
    }
    assert_eq!(fetch.cached_items(), 0, "faults must not fill the cache");
}
