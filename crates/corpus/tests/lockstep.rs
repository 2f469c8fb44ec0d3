//! Corpus programs hold under the differential oracle: every encoding,
//! both ISAs, full-trace equivalence between native and compressed runs.

use codense_core::{CompressionConfig, Compressor};
use codense_corpus::{build, seed_native_tables, CorpusIsa, CorpusProgram, CorpusSpec, MEM_BYTES};
use codense_fuzz::{lockstep, LockstepOk, TraceMask};
use codense_isa::{Core, CoreVisitor, IsaRef, PredecodeCore};
use codense_vm::{run, LinearFetcher, RunResult};

fn spec() -> CorpusSpec {
    CorpusSpec { insns: 4_000, dynamic_target: 40_000, ..CorpusSpec::default() }
}

fn encodings() -> [(&'static str, CompressionConfig); 4] {
    [
        ("baseline", CompressionConfig::baseline()),
        ("one-byte", CompressionConfig::small_dictionary(32)),
        ("nibble", CompressionConfig::nibble_aligned()),
        ("huffman", CompressionConfig::huffman()),
    ]
}

#[test]
fn corpus_lockstep_all_isas_all_encodings() {
    for corpus_isa in [CorpusIsa::Ppc, CorpusIsa::Mips] {
        let isa = corpus_isa.isa_ref();
        let p = build(&spec(), corpus_isa).expect("build");
        let mask =
            TraceMask { mem_skip: p.mem_mask_ranges(), ..TraceMask::skipping_gprs(p.mask_gprs()) };
        for (label, config) in encodings() {
            let tag = format!("{} {label}", isa.name());
            let compressed = Compressor::new(config).with_isa(isa).compress(&p.module).expect(&tag);
            let boot = || isa.new_core(MEM_BYTES);
            let ok = lockstep(
                &p.module,
                &compressed,
                &p.table_addrs,
                &boot,
                &mask,
                p.stats.dynamic_insns + 10,
            )
            .unwrap_or_else(|d| panic!("{tag}: {d:?}"));
            match ok {
                LockstepOk::Completed { steps, exit } => {
                    assert_eq!(steps, p.stats.dynamic_insns, "{tag}");
                    assert_eq!(exit, p.stats.exit_code, "{tag}");
                }
                other => panic!("{tag}: expected Completed, got {other:?}"),
            }
        }
    }
}

/// The predecoded engine stepping a typed machine's predecoded form is
/// observably identical to the re-parsing engine stepping the same machine
/// as a `dyn Core`, which decodes every word as it steps it, on corpus
/// programs: same halt, same step count, same cumulative fetch counters,
/// identical final machine with no masking (both engines run in the
/// compressed fetch domain, so even link values agree). The native linear
/// run is one more engine ([`native_matches_step_word`]).
#[test]
fn corpus_predecoded_matches_reparse_ppc() {
    use codense_vm::fetch_reference::CompressedFetcher;
    use codense_vm::PredecodedFetcher;

    let p = build(&spec(), CorpusIsa::Ppc).expect("build");
    native_matches_step_word(&p);
    for (label, config) in encodings() {
        let compressed = Compressor::new(config).compress(&p.module).expect(label);

        let mut rm = codense_ppc::machine::Machine::new(MEM_BYTES);
        seed_compressed_tables(&mut rm.mem, &p, &compressed);
        let mut ref_fetch = CompressedFetcher::new(&compressed);
        let spec_core: &mut dyn Core = &mut rm;
        let reference = run(spec_core, &mut ref_fetch, 0, p.stats.dynamic_insns + 10).expect(label);
        assert_eq!(reference.exit_code, p.stats.exit_code, "{label}");

        let mut gm = codense_ppc::machine::Machine::new(MEM_BYTES);
        seed_compressed_tables(&mut gm.mem, &p, &compressed);
        let mut fetch = PredecodedFetcher::new(&compressed);
        let got = run(&mut gm, &mut fetch, 0, p.stats.dynamic_insns + 10).expect(label);

        assert_eq!(got, reference, "{label}: run result");
        assert_eq!(gm.gpr, rm.gpr, "{label}: gpr");
        assert_eq!((gm.lr, gm.ctr, gm.cr, gm.ca), (rm.lr, rm.ctr, rm.cr, rm.ca), "{label}");
        assert_eq!(gm.mem, rm.mem, "{label}: memory");
    }
}

/// MIPS counterpart of [`corpus_predecoded_matches_reparse_ppc`].
#[test]
fn corpus_predecoded_matches_reparse_mips() {
    use codense_vm::fetch_reference::CompressedFetcher;
    use codense_vm::PredecodedFetcher;

    let p = build(&spec(), CorpusIsa::Mips).expect("build");
    native_matches_step_word(&p);
    for (label, config) in encodings() {
        let compressed = Compressor::new(config)
            .with_isa(IsaRef(&codense_mips::ISA))
            .compress(&p.module)
            .expect(label);

        let mut rm = codense_mips::Machine::new(MEM_BYTES);
        seed_compressed_tables(&mut rm.mem, &p, &compressed);
        let mut ref_fetch = CompressedFetcher::new(&compressed);
        let spec_core: &mut dyn Core = &mut rm;
        let reference = run(spec_core, &mut ref_fetch, 0, p.stats.dynamic_insns + 10).expect(label);
        assert_eq!(reference.exit_code, p.stats.exit_code, "{label}");

        let mut gm = codense_mips::Machine::new(MEM_BYTES);
        seed_compressed_tables(&mut gm.mem, &p, &compressed);
        let mut fetch = PredecodedFetcher::new(&compressed);
        let got = run(&mut gm, &mut fetch, 0, p.stats.dynamic_insns + 10).expect(label);

        assert_eq!(got, reference, "{label}: run result");
        assert_eq!(gm.gpr, rm.gpr, "{label}: gpr");
        assert_eq!(gm.mem, rm.mem, "{label}: memory");
    }
}

/// Seeds a machine's jump-table region with the *image's* patched
/// (compressed-domain) entries — both engines under test run the same
/// image, so both machines get identical values.
fn seed_compressed_tables(
    mem: &mut [u8],
    p: &CorpusProgram,
    compressed: &codense_core::CompressedProgram,
) {
    for (t, table) in compressed.jump_tables.iter().enumerate() {
        for (e, &target) in table.iter().enumerate() {
            let a = (p.table_addrs[t] + 4 * e as u32) as usize;
            mem[a..a + 4].copy_from_slice(&target.to_be_bytes());
        }
    }
}

/// The native linear run on the concrete machine `with_core` boots, which
/// steps each word's predecoded form, against the same run on the machine
/// as a `dyn Core`, which decodes every word as it steps it: the same
/// `RunResult` (the one `run_native`, the builder's path, returns too), and
/// the same GPRs, flags and memory.
fn native_matches_step_word(p: &CorpusProgram) {
    let max_steps = p.stats.dynamic_insns + 10;
    let name = p.isa.name();
    let (got, typed) =
        codense_codegen::with_core(p.isa.id(), MEM_BYTES, NativeRun { p, max_steps });

    let mut reference_core = p.isa.isa_ref().new_core(MEM_BYTES);
    seed_native_tables(&mut *reference_core, &p.module).expect(name);
    let mut fetch = LinearFetcher::new(p.module.code.clone());
    let reference = run(&mut *reference_core, &mut fetch, 0, max_steps).expect(name);

    let stats = (p.stats.exit_code, p.stats.dynamic_insns);
    assert_eq!((reference.exit_code, reference.steps), stats, "{name}: reference run");
    assert_eq!(got, reference, "{name}: native run result");
    assert_eq!(p.run_native(max_steps).expect(name), reference, "{name}: run_native");
    let gprs = |core: &dyn Core| (0..32).map(|r| core.gpr(r)).collect::<Vec<_>>();
    assert_eq!(gprs(&*typed), gprs(&*reference_core), "{name}: native gpr");
    assert_eq!(typed.flags(), reference_core.flags(), "{name}: native flags");
    assert!(typed.mem_bytes() == reference_core.mem_bytes(), "{name}: native memory");
}

/// The native run of [`native_matches_step_word`]; it returns the halted
/// machine with the run's result.
struct NativeRun<'a> {
    p: &'a CorpusProgram,
    max_steps: u64,
}

impl CoreVisitor for NativeRun<'_> {
    type Output = (RunResult, Box<dyn Core>);

    fn visit<C: PredecodeCore + 'static>(self, mut core: C) -> Self::Output {
        seed_native_tables(&mut core, &self.p.module).expect("seed");
        let mut fetch = LinearFetcher::new(self.p.module.code.clone());
        let result = run(&mut core, &mut fetch, 0, self.max_steps).expect("native run");
        (result, Box::new(core))
    }
}
