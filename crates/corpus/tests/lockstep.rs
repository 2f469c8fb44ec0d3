//! Corpus programs hold under the differential oracle: every encoding,
//! both ISAs, full-trace equivalence between native and compressed runs.

use codense_core::{CompressionConfig, Compressor};
use codense_corpus::{build, CorpusIsa, CorpusSpec, MEM_BYTES};
use codense_fuzz::{lockstep, LockstepOk, TraceMask};
use codense_isa::IsaRef;

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
/// compressed fetch domain, so even link values agree).
#[test]
fn corpus_predecoded_matches_reparse_ppc() {
    use codense_vm::fetch_reference::CompressedFetcher;
    use codense_vm::{run, Core, PredecodedFetcher};

    let p = build(&spec(), CorpusIsa::Ppc).expect("build");
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
    use codense_vm::{run, Core, PredecodedFetcher};

    let p = build(&spec(), CorpusIsa::Mips).expect("build");
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
    p: &codense_corpus::CorpusProgram,
    compressed: &codense_core::CompressedProgram,
) {
    for (t, table) in compressed.jump_tables.iter().enumerate() {
        for (e, &target) in table.iter().enumerate() {
            let a = (p.table_addrs[t] + 4 * e as u32) as usize;
            mem[a..a + 4].copy_from_slice(&target.to_be_bytes());
        }
    }
}
