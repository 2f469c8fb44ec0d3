//! Decode-cache equivalence suite.
//!
//! [`run_predecoded`] over the [`PredecodedFetcher`] must be observably
//! identical to the re-parsing specification ([`CompressedFetcher`]) under
//! [`run`]: same exit, same step count, byte-exact [`FetchStats`], and an
//! identical final machine — registers *and* memory, with no masking,
//! because both engines execute in the same (compressed) fetch domain. The
//! suite pins this on randomized fuzz programs under all four encodings on
//! both ISAs, then checks the cache edges: warm-cache reuse across the
//! `Fetch`-trait and threaded-dispatch entry points, and fault caching.

use codense_codegen::Rng;
use codense_core::{verify::verify, CompressedProgram, CompressionConfig, Compressor};
use codense_fuzz::gen::{generate_spec, GenConfig};
use codense_fuzz::spec::{build, MEM_BYTES};
use codense_fuzz::target::{Mips, Ppc};
use codense_isa::IsaRef;
use codense_vm::fetch::{Fetch, FetchStats, PredecodedFetcher};
use codense_vm::fetch_reference::CompressedFetcher;
use codense_vm::machine::MachineError;
use codense_vm::{run, run_predecoded, Machine, RunResult};

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
            mem[a..a + 4].copy_from_slice(&(target as u32).to_be_bytes());
        }
    }
}

fn entry_of(compressed: &CompressedProgram) -> u64 {
    compressed.address_of_orig(0).unwrap_or(0)
}

/// Reference: the re-parsing engine under the generic per-step loop.
fn ppc_reference(
    compressed: &CompressedProgram,
    table_addrs: &[u32],
) -> (Result<RunResult, MachineError>, Machine) {
    let mut m = Machine::new(MEM_BYTES);
    seed_tables(&mut m.mem, table_addrs, compressed);
    let mut fetch = CompressedFetcher::new(compressed);
    let r = run(&mut m, &mut fetch, entry_of(compressed), MAX_STEPS);
    (r, m)
}

/// One predecoded run on a caller-managed fetcher (so tests can reuse its
/// cache across runs).
fn ppc_predecoded(
    compressed: &CompressedProgram,
    table_addrs: &[u32],
    fetch: &mut PredecodedFetcher,
) -> (Result<RunResult, MachineError>, Machine) {
    let mut m = Machine::new(MEM_BYTES);
    seed_tables(&mut m.mem, table_addrs, compressed);
    let r = run_predecoded(&mut m, fetch, entry_of(compressed), MAX_STEPS);
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

/// Like [`assert_ppc_equal`] for a run on a *reused* fetcher, whose
/// `RunResult.stats` snapshot is cumulative across runs: the outcome and
/// machine must match, stats are the caller's to check via
/// [`PredecodedFetcher::stats`].
fn assert_ppc_rerun_equal(
    tag: &str,
    reference: &(Result<RunResult, MachineError>, Machine),
    got: &(Result<RunResult, MachineError>, Machine),
) {
    match (&reference.0, &got.0) {
        (Ok(r), Ok(g)) => {
            assert_eq!(g.exit_code, r.exit_code, "{tag}: exit");
            assert_eq!(g.steps, r.steps, "{tag}: steps");
        }
        (r, g) => assert_eq!(g, r, "{tag}: run result"),
    }
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

fn scaled(stats: FetchStats, n: u64) -> FetchStats {
    FetchStats {
        insns: stats.insns * n,
        nibbles_fetched: stats.nibbles_fetched * n,
        codewords: stats.codewords * n,
        expanded_insns: stats.expanded_insns * n,
        realigns: stats.realigns * n,
    }
}

/// Fuzz programs, all four encodings, PPC: the threaded-dispatch loop is
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
            let reference = ppc_reference(&compressed, &program.table_addrs);
            let mut fetch = PredecodedFetcher::new(&compressed);
            let got = ppc_predecoded(&compressed, &program.table_addrs, &mut fetch);
            assert_ppc_equal(&tag, &reference, &got);
            tested += 1;
        }
    }
    assert!(tested >= 12, "only {tested} (case, encoding) pairs ran");
}

/// Fuzz programs, all four encodings, MIPS: same contract on the second
/// backend (distinct decoded-insn type through [`run_predecoded`]'s
/// monomorphization).
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
            let reference = run(&mut rm, &mut ref_fetch, entry, MAX_STEPS);

            let mut gm = codense_mips::Machine::new(MEM_BYTES);
            seed_tables(&mut gm.mem, &program.table_addrs, &compressed);
            let mut fetch = PredecodedFetcher::new(&compressed);
            let got = run_predecoded(&mut gm, &mut fetch, entry, MAX_STEPS);

            assert_eq!(got, reference, "{tag}: run result");
            assert_eq!(gm.gpr, rm.gpr, "{tag}: gpr");
            assert_eq!(gm.mem, rm.mem, "{tag}: memory");
            tested += 1;
        }
    }
    assert!(tested >= 12, "only {tested} (case, encoding) pairs ran");
}

/// The engine's two entry points interoperate on one warm cache: a full run
/// through the `Fetch` impl (itself byte-exact with the re-parsing engine),
/// then a threaded-dispatch run over the entries the first run cached —
/// exercising the decoded-mirror catch-up path for pre-existing entries.
#[test]
fn fetch_impl_then_predecoded_share_one_cache() {
    let mut rng = Rng::new(0xCAFE_0004);
    let spec = generate_spec(&Ppc, &mut rng, &GenConfig::default());
    let program = build(&Ppc, &spec).expect("build");
    let compressed =
        Compressor::new(CompressionConfig::nibble_aligned()).compress(&program.module).unwrap();
    assert!(compressed.overflow_table.is_empty(), "pick another seed");
    let reference = ppc_reference(&compressed, &program.table_addrs);
    let ref_stats = reference.0.as_ref().expect("reference halts").stats;

    let mut fetch = PredecodedFetcher::new(&compressed);

    // Generic loop over the Fetch impl, byte-exact with the spec.
    let mut m1 = Machine::new(MEM_BYTES);
    seed_tables(&mut m1.mem, &program.table_addrs, &compressed);
    let r1 = run(&mut m1, &mut fetch, entry_of(&compressed), MAX_STEPS);
    assert_ppc_equal("fetch-impl run", &reference, &(r1, m1));
    let warm = fetch.cached_items();
    assert!(warm > 0);

    // Threaded-dispatch run on the same, warm fetcher: every entry is a
    // cache hit predating the run, so the decoded mirror must catch up
    // from the pool rather than from fills.
    let got = ppc_predecoded(&compressed, &program.table_addrs, &mut fetch);
    assert_ppc_rerun_equal("warm predecoded run", &reference, &got);
    assert_eq!(fetch.cached_items(), warm, "no refill on a warm cache");
    assert_eq!(fetch.stats(), scaled(ref_stats, 2), "two runs' worth of counters");
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
