//! Golden snapshots of whole fuzz campaign reports, one per ISA.
//!
//! A campaign report is deterministic for a given option set, so any change
//! to the generator, the lockstep oracle, the shrinker or the fault
//! batteries shows up here as a diff; a CRC of the generated programs
//! catches generator changes the report's counts would not show. To re-bless after an intentional
//! change:
//!
//! ```text
//! CODENSE_BLESS=1 cargo test -p codense-fuzz --test campaign_golden
//! git diff crates/fuzz/tests/golden/   # review every changed line
//! ```

use codense_codegen::Rng;
use codense_fuzz::{build, generate_spec, run, FuzzOptions, GenConfig};
use codense_isa::IsaRef;
use codense_obj::crc32::crc32;

fn check_golden(file: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(file);
    if std::env::var("CODENSE_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nmissing or unreadable golden; run `CODENSE_BLESS=1 cargo test -p \
             codense-fuzz --test campaign_golden` to (re)generate it, then review the diff",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "campaign report for {file} changed; if intentional, re-bless with `CODENSE_BLESS=1 \
         cargo test -p codense-fuzz --test campaign_golden` and review the diff"
    );
}

/// The report `codense fuzz --isa <isa> --cases 40 --seed 1 --hybrid`
/// prints, then a CRC of the programs the generator builds for seeds
/// 0..40: the report only counts outcomes, so it can stay put while the
/// generated programs change.
fn campaign_record(isa: IsaRef) -> String {
    let opts = FuzzOptions { cases: 40, seed: 1, hybrid: true, isa, ..FuzzOptions::default() };
    let target = codense_fuzz::target::for_isa(isa);
    let mut bytes = Vec::new();
    for seed in 0..40 {
        let spec = generate_spec(target, &mut Rng::new(seed), &GenConfig::default());
        bytes.extend(codense_obj::serialize(&build(target, &spec).expect("spec builds").module));
    }
    format!(
        "{}\nprograms: seeds 0..40, {} module bytes, crc32 {:#010x}\n",
        run(&opts).render(),
        bytes.len(),
        crc32(&bytes)
    )
}

#[test]
fn ppc_campaign_report_is_pinned() {
    check_golden("ppc.txt", &campaign_record(IsaRef(&codense_ppc::ISA)));
}

#[test]
fn mips_campaign_report_is_pinned() {
    check_golden("mips.txt", &campaign_record(IsaRef(&codense_mips::ISA)));
}
