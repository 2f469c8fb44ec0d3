//! The fuzz campaign driver: seeded case generation, parallel execution,
//! shrinking of failures, and a deterministic report.
//!
//! Every case derives its own RNG stream from the campaign seed, so the
//! report is byte-identical for a given `(cases, seed)` pair regardless of
//! the worker count: `codense_core::parallel::par_map` preserves order, the
//! report carries no timing, and each case is self-contained.

use codense_codegen::Rng;
use codense_core::parallel::par_map;
use codense_core::{
    telemetry, verify, CompressError, CompressedProgram, CompressionConfig, Compressor,
};
use codense_isa::IsaRef;
use codense_obj::{BasicBlocks, ObjectModule};
use codense_vm::fetch::PredecodedFetcher;

use crate::faults::{
    container_battery, entropy_decoder_battery, module_battery, nibble_soup_battery, FaultReport,
};
use crate::gen::{generate_spec, GenConfig};
use crate::oracle::{lockstep_with, Divergence, LockstepOk, TraceMask};
use crate::shrink::shrink;
use crate::spec::{build, BuiltProgram, ProgramSpec, JT_BASE, MEM_BYTES};
use crate::target::{self, Target};

/// Golden-ratio increment used to derive per-case seeds (SplitMix64's own
/// stream constant, so cases are decorrelated).
const CASE_SALT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Extra salt separating the fault-injection stream from generation.
const FAULT_SALT: u64 = 0xD1B5_4A32_D192_ED03;
/// Extra salt for the hybrid hotness-mask stream (`--hybrid` campaigns).
const HYBRID_SALT: u64 = 0x94D0_49BB_1331_11EB;

/// Campaign options.
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// Number of differential cases to run.
    pub cases: usize,
    /// Campaign seed; every printed failure carries the derived case seed.
    /// Every ISA walks the same case-seed stream.
    pub seed: u64,
    /// Per-run instruction budget for the lockstep oracle.
    pub max_steps: u64,
    /// Randomized corruption attempts per fault battery per case.
    pub fault_tries: usize,
    /// Additionally fuzz hybrid images: per case, derive a random
    /// block-aligned hotness mask from the case seed and run the lockstep
    /// oracle on the partially compressed program under every encoding.
    pub hybrid: bool,
    /// The backend programs are generated for and compressed with.
    pub isa: IsaRef,
}

impl Default for FuzzOptions {
    fn default() -> FuzzOptions {
        FuzzOptions {
            cases: 100,
            seed: 1,
            max_steps: 200_000,
            fault_tries: 4,
            hybrid: false,
            isa: IsaRef(&codense_ppc::ISA),
        }
    }
}

/// The four encodings every case is checked under.
fn encodings() -> [(&'static str, CompressionConfig); 4] {
    [
        ("baseline", CompressionConfig::baseline()),
        ("one-byte", CompressionConfig::small_dictionary(32)),
        ("nibble", CompressionConfig::nibble_aligned()),
        ("huffman", CompressionConfig::huffman()),
    ]
}

/// Compresses `module` for `isa` — whole, or as a hybrid image leaving the
/// `exempt` instructions uncompressed.
fn compress(
    isa: IsaRef,
    module: &ObjectModule,
    config: &CompressionConfig,
    exempt: Option<&[bool]>,
) -> Result<CompressedProgram, CompressError> {
    let compressor = Compressor::new(config.clone()).with_isa(isa);
    match exempt {
        Some(exempt) => compressor.compress_masked(module, exempt),
        None => compressor.compress(module),
    }
}

/// Runs the lockstep oracle on a generated program: fresh cores of the
/// target's ISA on both sides, `fetcher` on the compressed side, and a mask
/// skipping the target's code-address registers and the jump-table region
/// of data memory (whose entries are domain-specific by construction).
fn check(
    target: &dyn Target,
    built: &BuiltProgram,
    compressed: &CompressedProgram,
    fetcher: PredecodedFetcher,
    max_steps: u64,
) -> Result<LockstepOk, Divergence> {
    telemetry::FUZZ_LOCKSTEP_RUNS.inc();
    let isa = target.isa();
    let entries: usize = built.module.jump_tables.iter().map(|t| t.targets.len()).sum();
    let mask = TraceMask {
        mem_skip: std::iter::once(JT_BASE as usize..JT_BASE as usize + 4 * entries).collect(),
        ..TraceMask::skipping_gprs(target.code_addr_regs())
    };
    let boot = || isa.new_core(MEM_BYTES);
    lockstep_with(fetcher, &built.module, compressed, &built.table_addrs, &boot, &mask, max_steps)
}

/// Derives the per-case block-aligned hotness mask for hybrid fuzzing.
/// Recomputed from whatever module is at hand, so shrunk candidates get a
/// mask over their *own* basic blocks from the same random stream.
fn hybrid_mask(module: &ObjectModule, isa: IsaRef, case_seed: u64) -> Vec<bool> {
    let mut rng = Rng::new(case_seed ^ HYBRID_SALT);
    // Per-case hot fraction between 10% and 60% of blocks.
    let pct = rng.range(10, 60);
    let mut exempt = vec![false; module.len()];
    for &(start, end) in BasicBlocks::compute_with(module, isa).blocks() {
        if rng.below(100) < pct {
            exempt[start..end].iter_mut().for_each(|e| *e = true);
        }
    }
    exempt
}

/// Outcome of one case, aggregated into the report.
#[derive(Debug, Clone, Default)]
struct CaseOutcome {
    /// Completed lockstep runs per pass (whole images, then hybrid images
    /// under `--hybrid`) and encoding.
    completed: [[u64; 4]; 2],
    /// Skipped (overflow rewriting) runs per pass and encoding.
    skipped: [[u64; 4]; 2],
    /// Both-sides-faulted runs (the program was faulty, traces agreed).
    agreed_faults: u64,
    faults: FaultReport,
    /// Failure lines (empty when the case passed).
    failures: Vec<String>,
}

/// Runs the full differential pipeline for one case seed.
fn run_case(opts: &FuzzOptions, case: usize) -> CaseOutcome {
    telemetry::FUZZ_CASES.inc();
    let target = target::for_isa(opts.isa);
    let case_seed = opts.seed ^ (case as u64 + 1).wrapping_mul(CASE_SALT);
    let mut out = CaseOutcome::default();
    let mut rng = Rng::new(case_seed);
    let spec = generate_spec(target, &mut rng, &GenConfig::default());

    let built = match build(target, &spec) {
        Ok(b) => b,
        Err(e) => {
            out.failures.push(format!("case {case} seed {case_seed:#018x}: build failed: {e}"));
            return out;
        }
    };

    let mut passes = vec![(None, "")];
    if opts.hybrid {
        passes.push((Some(hybrid_mask(&built.module, opts.isa, case_seed)), "/hybrid"));
    }
    for (pass, (exempt, suffix)) in passes.into_iter().enumerate() {
        for (ei, (label, config)) in encodings().into_iter().enumerate() {
            let tag = format!("case {case} seed {case_seed:#018x}: [{label}{suffix}]");
            let compressed = match compress(opts.isa, &built.module, &config, exempt.as_deref()) {
                Ok(c) => c,
                Err(e) => {
                    out.failures.push(format!("{tag} compress error: {e}"));
                    continue;
                }
            };
            if let Err(e) = verify::verify(&built.module, &compressed) {
                out.failures.push(format!("{tag} verify error: {e}"));
                continue;
            }
            let fetcher = PredecodedFetcher::new(&compressed);
            match check(target, &built, &compressed, fetcher, opts.max_steps) {
                Ok(LockstepOk::Completed { .. }) => out.completed[pass][ei] += 1,
                Ok(LockstepOk::Faulted { .. }) => out.agreed_faults += 1,
                Ok(LockstepOk::SkippedOverflow) => out.skipped[pass][ei] += 1,
                Err(divergence) => {
                    telemetry::FUZZ_DIVERGENCES.inc();
                    let hybrid_seed = exempt.is_some().then_some(case_seed);
                    let small = shrink(&spec, &|cand| {
                        diverges(target, cand, &config, hybrid_seed, opts.max_steps)
                    });
                    out.failures.push(format!(
                        "{tag} {divergence}; reproducer shrunk weight {} -> {}",
                        spec.weight(),
                        small.weight()
                    ));
                }
            }
        }
    }

    // Fault-injection stream: independent of the generation stream so
    // adding mutators never perturbs generated programs.
    let mut frng = Rng::new(case_seed ^ FAULT_SALT);
    for config in [CompressionConfig::nibble_aligned(), CompressionConfig::huffman()] {
        if let Ok(compressed) = compress(opts.isa, &built.module, &config, None) {
            out.faults.absorb(container_battery(&compressed, &mut frng, opts.fault_tries));
        }
    }
    out.faults.absorb(module_battery(&built.module, &mut frng, opts.fault_tries));
    out.faults.absorb(nibble_soup_battery(opts.isa, &mut frng, opts.fault_tries));
    out.faults.absorb(entropy_decoder_battery(&mut frng, opts.fault_tries));
    telemetry::FUZZ_FAULT_CHECKS.add(out.faults.checks);
    out
}

/// Whether `spec` (still) diverges under `config` — the shrinking
/// predicate. With `hybrid_seed`, the candidate is checked as a hybrid
/// image whose mask is re-derived from the candidate's own blocks.
fn diverges(
    target: &dyn Target,
    spec: &ProgramSpec,
    config: &CompressionConfig,
    hybrid_seed: Option<u64>,
    max_steps: u64,
) -> bool {
    telemetry::FUZZ_SHRINK_CANDIDATES.inc();
    let isa = target.isa();
    let Ok(built) = build(target, spec) else { return false };
    let exempt = hybrid_seed.map(|seed| hybrid_mask(&built.module, isa, seed));
    let Ok(compressed) = compress(isa, &built.module, config, exempt.as_deref()) else {
        return false;
    };
    check(target, &built, &compressed, PredecodedFetcher::new(&compressed), max_steps).is_err()
}

/// Result of a fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Rendered report lines (deterministic for a given options value).
    pub lines: Vec<String>,
    /// Total failures (divergences, panics, self-test misses).
    pub failures: usize,
}

impl FuzzReport {
    /// Whether the campaign found nothing.
    pub fn ok(&self) -> bool {
        self.failures == 0
    }

    /// The report as one printable string.
    pub fn render(&self) -> String {
        self.lines.join("\n")
    }
}

/// The fault-injection self-test: corrupt a dictionary entry of a known
/// program, prove the oracle catches it, and shrink the program to a
/// minimal reproducer. Returns report lines and the failure count (0 when
/// the corruption was caught and the reproducer still reproduces).
fn self_test(target: &dyn Target, max_steps: u64) -> (Vec<String>, usize) {
    let mut rng = Rng::new(0xC0DE_D0C5);
    let cfg = GenConfig { max_funcs: 2, ..GenConfig::default() };
    // Generated specs draw from a vocabulary, so a dictionary always forms;
    // search a few seeds for one whose hottest entries sit on the hot path.
    let mut found: Option<(ProgramSpec, u32, String)> = None;
    for _ in 0..20 {
        let spec = generate_spec(target, &mut rng, &cfg);
        if let Some((rank, kind)) = detectable_rank(target, &spec, max_steps) {
            found = Some((spec, rank, kind));
            break;
        }
    }
    let Some((spec, rank, kind)) = found else {
        return (vec!["self-test: FAILED - no seeded corruption was ever detected".into()], 1);
    };

    let small = shrink(&spec, &|cand| detectable_rank(target, cand, max_steps).is_some());
    let still = detectable_rank(target, &small, max_steps).is_some();
    let line = format!(
        "self-test: corrupt dictionary rank {rank} caught ({kind}); \
         reproducer shrunk weight {} -> {}",
        spec.weight(),
        small.weight()
    );
    let mut lines = vec![line];
    let mut failures = 0;
    if !still {
        lines.push("self-test: FAILED - shrunk reproducer lost the failure".into());
        failures += 1;
    }
    let (h_line, h_fail) = hybrid_smoke(target, max_steps);
    lines.push(h_line);
    failures += h_fail;
    (lines, failures)
}

/// Hybrid smoke test: a fixed-seed program under a fixed-seed hotness mask
/// must survive full-trace lockstep under the nibble encoding.
fn hybrid_smoke(target: &dyn Target, max_steps: u64) -> (String, usize) {
    // Chosen so the derived mask exempts a real fraction of the program on
    // every target (84 of 208 instructions on PPC, 119 of 272 on MIPS) — an
    // empty mask would smoke-test nothing.
    const SMOKE_SEED: u64 = 0x4B1D_C005;
    // The smoke program is fixed-seed, so it must be allowed to halt even
    // when the campaign runs with a tiny `--max-steps`.
    let max_steps = max_steps.max(1 << 20);
    let isa = target.isa();
    let mut rng = Rng::new(SMOKE_SEED);
    let cfg = GenConfig { max_funcs: 2, ..GenConfig::default() };
    let built = match build(target, &generate_spec(target, &mut rng, &cfg)) {
        Ok(b) => b,
        Err(e) => return (format!("self-test: FAILED - hybrid smoke build: {e}"), 1),
    };
    let exempt = hybrid_mask(&built.module, isa, SMOKE_SEED);
    let nibble = CompressionConfig::nibble_aligned();
    let hybrid = match compress(isa, &built.module, &nibble, Some(&exempt)) {
        Ok(c) => c,
        Err(e) => return (format!("self-test: FAILED - hybrid smoke compress: {e}"), 1),
    };
    if let Err(e) = verify::verify(&built.module, &hybrid) {
        return (format!("self-test: FAILED - hybrid smoke verify: {e}"), 1);
    }
    match check(target, &built, &hybrid, PredecodedFetcher::new(&hybrid), max_steps) {
        Ok(_) => (
            format!(
                "self-test: hybrid smoke ok ({} of {} insns exempt)",
                exempt.iter().filter(|&&e| e).count(),
                exempt.len()
            ),
            0,
        ),
        Err(d) => (format!("self-test: FAILED - hybrid smoke diverged: {d}"), 1),
    }
}

/// Finds the lowest dictionary rank whose single-bit corruption makes the
/// lockstep oracle diverge for this spec (nibble encoding), with the
/// divergence kind. `None` if the spec builds no detectable dictionary use.
fn detectable_rank(
    target: &dyn Target,
    spec: &ProgramSpec,
    max_steps: u64,
) -> Option<(u32, String)> {
    let isa = target.isa();
    let built = build(target, spec).ok()?;
    let compressed =
        compress(isa, &built.module, &CompressionConfig::nibble_aligned(), None).ok()?;
    for rank in 0..compressed.dictionary.len() as u32 {
        let mut image = compressed.to_image();
        image.dictionary_by_rank[rank as usize][0] ^= 1 << 21;
        let fetcher = PredecodedFetcher::from_image_with(&image, isa);
        if let Err(d) = check(target, &built, &compressed, fetcher, max_steps) {
            return Some((rank, d.kind.to_string()));
        }
    }
    None
}

/// Runs a fuzz campaign for `opts.isa`. Worker count comes from
/// [`codense_core::parallel::jobs`]; the report is independent of it.
///
/// # Panics
///
/// Panics if `opts.isa` has no fuzz [`Target`].
pub fn run(opts: &FuzzOptions) -> FuzzReport {
    let target = target::for_isa(opts.isa);
    // PPC, the default, keeps the historical header without an isa field.
    let isa = match opts.isa.name() {
        "ppc" => String::new(),
        name => format!(" isa={name}"),
    };
    let mut lines = vec![format!(
        "codense fuzz:{isa} cases={} seed={:#x} max-steps={} fault-tries={} hybrid={}",
        opts.cases, opts.seed, opts.max_steps, opts.fault_tries, opts.hybrid
    )];
    let (st_lines, mut failures) = {
        let _phase = telemetry::phase("fuzz-self-test");
        self_test(target, opts.max_steps)
    };
    lines.extend(st_lines);

    let cases_phase = telemetry::phase("fuzz-cases");
    let outcomes = par_map((0..opts.cases).collect(), |_, case| run_case(opts, case));
    drop(cases_phase);

    let mut completed = [[0u64; 4]; 2];
    let mut skipped = [[0u64; 4]; 2];
    let mut agreed_faults = 0u64;
    let mut faults = FaultReport::default();
    let mut failure_lines = Vec::new();
    for out in outcomes {
        for p in 0..2 {
            for e in 0..4 {
                completed[p][e] += out.completed[p][e];
                skipped[p][e] += out.skipped[p][e];
            }
        }
        agreed_faults += out.agreed_faults;
        faults.absorb(out.faults);
        failure_lines.extend(out.failures);
    }
    failures += failure_lines.len() + faults.panics as usize;

    let labels = encodings().map(|(l, _)| l);
    let passes = if opts.hybrid { &["encoding", "hybrid"][..] } else { &["encoding"] };
    for (p, pass) in passes.iter().enumerate() {
        for e in 0..4 {
            lines.push(format!(
                "{pass} {}: completed={} skipped-overflow={}",
                labels[e], completed[p][e], skipped[p][e]
            ));
        }
    }
    lines.push(format!("agreed-faults={agreed_faults}"));
    lines.push(format!(
        "fault-injection: checks={} typed-errors={} accepted={} executed={} panics={}",
        faults.checks, faults.typed_errors, faults.accepted, faults.executed, faults.panics
    ));
    lines.extend(failure_lines);
    lines.push(if failures == 0 {
        format!("result: OK ({} cases, 0 divergences, 0 panics)", opts.cases)
    } else {
        format!("result: FAIL ({failures} failures over {} cases)", opts.cases)
    });
    FuzzReport { lines, failures }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{Mips, Ppc};

    #[test]
    fn tiny_campaign_is_clean_and_deterministic() {
        let opts = FuzzOptions { cases: 6, seed: 99, fault_tries: 2, ..FuzzOptions::default() };
        let a = run(&opts);
        assert!(a.ok(), "campaign found failures:\n{}", a.render());
        let b = run(&opts);
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn tiny_hybrid_campaign_is_clean_and_deterministic() {
        for isa in [IsaRef(&codense_ppc::ISA), IsaRef(&codense_mips::ISA)] {
            let opts = FuzzOptions {
                cases: 4,
                seed: 7,
                fault_tries: 1,
                hybrid: true,
                isa,
                ..FuzzOptions::default()
            };
            let a = run(&opts);
            assert!(a.ok(), "hybrid campaign found failures:\n{}", a.render());
            assert!(a.render().contains("hybrid nibble: completed="), "{}", a.render());
            let b = run(&opts);
            assert_eq!(a.render(), b.render());
        }
    }

    #[test]
    fn self_test_detects_seeded_corruption_on_every_target() {
        for target in [&Ppc as &dyn Target, &Mips] {
            let (lines, failures) = self_test(target, 200_000);
            assert_eq!(failures, 0, "{lines:?}");
            assert!(lines[0].contains("caught"), "{lines:?}");
            assert!(!lines[1].contains("(0 of"), "hybrid smoke exempts nothing: {lines:?}");
        }
    }
}
