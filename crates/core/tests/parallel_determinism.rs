//! Parallel execution must be invisible in the output: `--jobs 1` (the
//! exact sequential reference) and `--jobs 8` have to produce byte-identical
//! compressed programs and identical sweep results.
//!
//! The worker count is a process-wide setting, so every test here holds
//! `JOBS_LOCK` while it changes it and restores the default before
//! releasing — tests in this binary run on separate threads.

use std::sync::Mutex;

use codense_core::parallel::set_jobs;
use codense_core::sweep::{
    codeword_count_sweep_with_isa, entry_len_sweep_with_isa, small_dictionary_sweep_with_isa,
};
use codense_core::{CompressedProgram, CompressionConfig, Compressor};
use codense_obj::ObjectModule;

static JOBS_LOCK: Mutex<()> = Mutex::new(());

const PPC: codense_isa::IsaRef = codense_isa::IsaRef(&codense_ppc::ISA);

fn module() -> ObjectModule {
    codense_codegen::benchmark("compress", codense_obj::IsaId::Ppc).expect("compress benchmark")
}

/// Runs `f` under the given worker count, restoring the default after.
fn with_jobs<R>(jobs: usize, f: impl FnOnce() -> R) -> R {
    set_jobs(jobs);
    let r = f();
    set_jobs(0);
    r
}

fn assert_identical(a: &CompressedProgram, b: &CompressedProgram) {
    assert_eq!(a.picks, b.picks, "pick logs differ");
    assert_eq!(a.dictionary, b.dictionary, "dictionaries differ");
    assert_eq!(a.atoms, b.atoms, "atom streams differ");
    assert_eq!(a.image, b.image, "packed images differ");
    assert_eq!(a.total_nibbles, b.total_nibbles, "stream lengths differ");
    // Full structural sweep over every remaining field.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn compression_is_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let m = module();
    for config in [
        CompressionConfig::baseline(),
        CompressionConfig::nibble_aligned(),
        CompressionConfig::small_dictionary(32),
        CompressionConfig::huffman(),
    ] {
        let serial = with_jobs(1, || Compressor::new(config.clone()).compress(&m).unwrap());
        let parallel = with_jobs(8, || Compressor::new(config).compress(&m).unwrap());
        assert_identical(&serial, &parallel);
    }
}

/// The refinement selector's hill climb must be as worker-count-blind as
/// the greedy path: identical containers at `--jobs 1` and `--jobs 8` for
/// every encoding it can drive.
#[test]
fn refinement_is_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let m = module();
    for config in [
        CompressionConfig::baseline(),
        CompressionConfig::nibble_aligned(),
        CompressionConfig::huffman(),
    ] {
        let refine = |jobs| {
            with_jobs(jobs, || {
                Compressor::new(config.clone())
                    .with_selector(codense_core::SelectorKind::Refine)
                    .compress(&m)
                    .unwrap()
            })
        };
        assert_identical(&refine(1), &refine(8));
    }
}

#[test]
fn entry_len_sweep_is_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let m = module();
    let lens = [1usize, 2, 4, 8];
    let serial = with_jobs(1, || entry_len_sweep_with_isa(&m, PPC, &lens).unwrap());
    let parallel = with_jobs(8, || entry_len_sweep_with_isa(&m, PPC, &lens).unwrap());
    assert_eq!(serial, parallel);
}

#[test]
fn small_dictionary_sweep_is_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let m = module();
    let counts = [8usize, 16, 32];
    let serial = with_jobs(1, || small_dictionary_sweep_with_isa(&m, PPC, &counts).unwrap());
    let parallel = with_jobs(8, || small_dictionary_sweep_with_isa(&m, PPC, &counts).unwrap());
    assert_eq!(serial, parallel);
}

#[test]
fn codeword_count_sweep_is_identical_across_job_counts() {
    let _guard = JOBS_LOCK.lock().unwrap();
    let m = module();
    let points = [16usize, 64, 256, 1024, 8192];
    let serial = with_jobs(1, || codeword_count_sweep_with_isa(&m, PPC, 4, &points).unwrap());
    let parallel = with_jobs(8, || codeword_count_sweep_with_isa(&m, PPC, 4, &points).unwrap());
    assert_eq!(serial, parallel);
}
