//! Golden-snapshot regression suite for the compression pipeline.
//!
//! Each test compresses the full deterministic synthetic benchmark suite
//! under one encoding and renders a snapshot record per benchmark:
//! compression ratio, Fig-9 composition fractions, dictionary size, and the
//! first entries of the dictionary in greedy pick order. The rendered JSON
//! is compared byte-for-byte against the checked-in golden under
//! `tests/golden/`.
//!
//! Any intentional change to the greedy selector, layout, or encodings will
//! show up here as a diff. To re-bless the goldens after such a change:
//!
//! ```text
//! CODENSE_BLESS=1 cargo test --test golden
//! git diff tests/golden/   # review every changed number before committing
//! ```
//!
//! A missing golden file fails with the same instruction, so the flow for a
//! new encoding is identical.

use codense::prelude::*;

/// Number of leading dictionary entries (in pick order) pinned per bench.
const PINNED_ENTRIES: usize = 8;

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares `actual` against the checked-in golden, or rewrites the golden
/// when `CODENSE_BLESS=1` is set.
fn check_golden(file: &str, actual: &str) {
    let path = golden_path(file);
    if std::env::var("CODENSE_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nmissing or unreadable golden; run `CODENSE_BLESS=1 cargo test --test \
             golden` to (re)generate it, then review the diff",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "golden mismatch for {file}; if the change is intentional, re-bless with \
         `CODENSE_BLESS=1 cargo test --test golden` and review `git diff tests/golden/`"
    );
}

/// Renders the snapshot record for one suite under one config. Floats are
/// formatted at fixed precision so the byte comparison is well-defined.
fn render_snapshot(encoding_name: &str, config: &CompressionConfig) -> String {
    render_snapshot_with(encoding_name, config, false)
}

/// [`render_snapshot`] for the MIPS suite: same record format, but the
/// compressor is pointed at the MIPS backend and the benchmarks come from
/// the MIPS lowering of the synthetic suite.
fn render_snapshot_mips(encoding_name: &str, config: &CompressionConfig) -> String {
    render_suite(encoding_name, config, false, codense::codegen::generate_suite(IsaId::Mips), |c| {
        c.with_isa(IsaRef(&codense::mips::ISA))
    })
}

/// [`render_snapshot`], optionally routed through `compress_masked` with an
/// all-cold (nothing exempt) hotness mask — which must be indistinguishable
/// from the plain path.
fn render_snapshot_with(encoding_name: &str, config: &CompressionConfig, all_cold: bool) -> String {
    // The PPC path deliberately leaves the compressor at its default ISA so
    // these goldens also pin the default-construction behavior.
    render_suite(
        encoding_name,
        config,
        all_cold,
        codense::codegen::generate_suite(IsaId::Ppc),
        |c| c,
    )
}

fn render_suite(
    encoding_name: &str,
    config: &CompressionConfig,
    all_cold: bool,
    suite: Vec<ObjectModule>,
    bind_isa: impl Fn(Compressor) -> Compressor,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"encoding\": \"{encoding_name}\",\n"));
    out.push_str("  \"benches\": {\n");
    for (i, module) in suite.iter().enumerate() {
        let compressor = bind_isa(Compressor::new(config.clone()));
        let c = if all_cold {
            compressor.compress_masked(module, &vec![false; module.len()])
        } else {
            compressor.compress(module)
        }
        .unwrap_or_else(|e| panic!("{}: {e}", module.name));
        verify(module, &c).unwrap_or_else(|e| panic!("{}: {e}", module.name));
        let frac = c.composition().fractions();
        let entries: Vec<String> = c
            .dictionary
            .entries()
            .iter()
            .take(PINNED_ENTRIES)
            .map(|e| {
                let words: Vec<String> = e.words.iter().map(|w| format!("{w:08x}")).collect();
                format!("\"{}\"", words.join(" "))
            })
            .collect();
        out.push_str(&format!("    \"{}\": {{\n", module.name));
        out.push_str(&format!("      \"ratio\": \"{:.6}\",\n", c.compression_ratio()));
        out.push_str(&format!("      \"text_bytes\": {},\n", c.text_bytes()));
        out.push_str(&format!("      \"dictionary_entries\": {},\n", c.dictionary.len()));
        out.push_str(&format!("      \"dictionary_bytes\": {},\n", c.dictionary_bytes()));
        out.push_str(&format!("      \"overflow_slots\": {},\n", c.overflow_table.len()));
        out.push_str(&format!(
            "      \"composition\": [\"{:.6}\", \"{:.6}\", \"{:.6}\", \"{:.6}\"],\n",
            frac[0], frac[1], frac[2], frac[3]
        ));
        out.push_str(&format!("      \"first_picks\": [{}]\n", entries.join(", ")));
        out.push_str(&format!("    }}{}\n", if i + 1 < suite.len() { "," } else { "" }));
    }
    out.push_str("  }\n}\n");
    out
}

#[test]
fn golden_baseline() {
    check_golden("baseline.json", &render_snapshot("baseline", &CompressionConfig::baseline()));
}

#[test]
fn golden_onebyte() {
    check_golden(
        "onebyte.json",
        &render_snapshot("onebyte", &CompressionConfig::small_dictionary(256)),
    );
}

#[test]
fn golden_nibble() {
    check_golden("nibble.json", &render_snapshot("nibble", &CompressionConfig::nibble_aligned()));
}

#[test]
fn golden_huffman() {
    check_golden("huffman.json", &render_snapshot("huffman", &CompressionConfig::huffman()));
}

/// The refinement selector's output, pinned over the nibble encoding: any
/// change to the hill climb (trial order, acceptance rule, cost model)
/// shows up here as a reviewable diff.
#[test]
fn golden_refine() {
    let config = CompressionConfig::nibble_aligned();
    let snapshot =
        render_suite("nibble", &config, false, codense::codegen::generate_suite(IsaId::Ppc), |c| {
            c.with_selector(SelectorKind::Refine)
        });
    check_golden("refine.json", &snapshot);
}

#[test]
fn golden_mips_baseline() {
    check_golden(
        "mips_baseline.json",
        &render_snapshot_mips("baseline", &CompressionConfig::baseline()),
    );
}

#[test]
fn golden_mips_onebyte() {
    check_golden(
        "mips_onebyte.json",
        &render_snapshot_mips("onebyte", &CompressionConfig::small_dictionary(256)),
    );
}

#[test]
fn golden_mips_nibble() {
    check_golden(
        "mips_nibble.json",
        &render_snapshot_mips("nibble", &CompressionConfig::nibble_aligned()),
    );
}

/// `Compressor::new` keeps one default, PowerPC (the only backend
/// `codense-core` links); binding PowerPC explicitly must be byte-identical
/// to it. Modules record their ISA, so the default can no longer compress a
/// module of another ISA: that is a typed error, not a PowerPC reading.
#[test]
fn ppc_isa_binding_matches_default() {
    let config = CompressionConfig::nibble_aligned();
    let explicit =
        render_suite("nibble", &config, false, codense::codegen::generate_suite(IsaId::Ppc), |c| {
            c.with_isa(IsaRef(&codense::ppc::ISA))
        });
    assert_eq!(explicit, render_snapshot("nibble", &config), "explicit PPC ISA drifted");
}

/// The hybrid all-cold edge case: `compress_masked` with nothing exempt is
/// pinned to its own golden AND must stay byte-identical to the plain
/// `compress` golden — the masked path may not perturb unmasked output.
#[test]
fn golden_hybrid_all_cold() {
    let snapshot = render_snapshot_with("nibble", &CompressionConfig::nibble_aligned(), true);
    check_golden("hybrid_all_cold.json", &snapshot);
    let plain = std::fs::read_to_string(golden_path("nibble.json")).unwrap();
    assert_eq!(snapshot, plain, "all-cold masked compression drifted from plain compression");
}

/// The on-disk bytes of both file formats: for every suite benchmark on
/// both ISAs, the CRC-32 of its `.cdm` module and of its `.cdns` container
/// under each encoding. The JSON goldens pin ratios and dictionaries; this
/// one pins the files themselves, so a format change (a header field, an
/// entry layout) shows up here even when no ratio moves.
#[test]
fn golden_formats() {
    let crc = codense::obj::crc32::crc32;
    let configs = [
        ("baseline", CompressionConfig::baseline()),
        ("onebyte", CompressionConfig::small_dictionary(256)),
        ("nibble", CompressionConfig::nibble_aligned()),
        ("huffman", CompressionConfig::huffman()),
    ];
    let suites = [
        ("ppc", IsaRef(&codense::ppc::ISA), codense::codegen::generate_suite(IsaId::Ppc)),
        ("mips", IsaRef(&codense::mips::ISA), codense::codegen::generate_suite(IsaId::Mips)),
    ];
    let mut out = String::new();
    for (isa_name, isa, suite) in &suites {
        for module in suite {
            out.push_str(&format!(
                "{isa_name} {:<10} cdm {:08x}",
                module.name,
                crc(&codense::obj::serialize(module))
            ));
            for (name, config) in &configs {
                let c = Compressor::new(config.clone())
                    .with_isa(*isa)
                    .compress(module)
                    .unwrap_or_else(|e| panic!("{isa_name} {} {name}: {e}", module.name));
                let bytes = codense::core::container::serialize(&c);
                out.push_str(&format!(" {name} {:08x}", crc(&bytes)));
            }
            out.push('\n');
        }
    }
    check_golden("formats.txt", &out);
}

/// The lowering's output, byte for byte: the `.cdm` CRC-32 and instruction
/// count of every suite benchmark on both ISAs under standardized
/// prologues (`formats.txt` pins the default lowering), and of corpus
/// programs on both ISAs with their `CorpusStats`, table addresses and
/// lockstep register masks (the entry stub, jump tables and pass
/// calibration).
#[test]
fn golden_lowering() {
    use codense::codegen::LowerOptions;
    use codense_corpus::{CorpusIsa, CorpusSpec};
    let crc = |m: &ObjectModule| codense::obj::crc32::crc32(&codense::obj::serialize(m));
    let std_pe = LowerOptions { standardize_prologues: true, ..LowerOptions::default() };
    let mut out = String::new();
    for p in codense::codegen::spec_profiles() {
        for isa in IsaId::ALL {
            let m = codense::codegen::generate_module(&p, isa, std_pe);
            let isa = isa.name();
            out.push_str(&format!(
                "{isa} {:<10} std_pe cdm {:08x} insns {}\n",
                m.name,
                crc(&m),
                m.len()
            ));
        }
    }
    for isa in [CorpusIsa::Ppc, CorpusIsa::Mips] {
        for seed in [1, 2] {
            let spec = CorpusSpec {
                insns: 10_000,
                dynamic_target: 200_000,
                seed,
                ..CorpusSpec::default()
            };
            let p = codense_corpus::build(&spec, isa).unwrap_or_else(|e| panic!("{seed}: {e}"));
            out.push_str(&format!(
                "{} corpus seed {seed} cdm {:08x} insns {} tables {:x?} mask {:?} {:?}\n",
                isa.name(),
                crc(&p.module),
                p.module.len(),
                (p.table_addrs.first(), p.table_addrs.last()),
                p.mask_gprs(),
                p.stats
            ));
        }
    }
    check_golden("lowering.txt", &out);
}

/// Refine's containers, byte for byte: for every suite benchmark on both
/// ISAs, the CRC-32 of its `.cdns` under refine × nibble and refine ×
/// huffman. `refine.json` pins ratios and dictionaries for refine × nibble
/// on PowerPC only; this pins every image the refinement selector writes
/// for the suite. Each container is computed once, the modules in parallel.
#[test]
fn golden_refine_formats() {
    let crc = codense::obj::crc32::crc32;
    let configs = [
        ("nibble", CompressionConfig::nibble_aligned()),
        ("huffman", CompressionConfig::huffman()),
    ];
    let suites = [
        ("ppc", IsaRef(&codense::ppc::ISA), codense::codegen::generate_suite(IsaId::Ppc)),
        ("mips", IsaRef(&codense::mips::ISA), codense::codegen::generate_suite(IsaId::Mips)),
    ];
    let jobs: Vec<_> = suites
        .iter()
        .flat_map(|(isa_name, isa, suite)| suite.iter().map(move |m| (*isa_name, *isa, m)))
        .collect();
    let lines = codense::core::parallel::par_map(jobs, |_, (isa_name, isa, module)| {
        let mut line = format!("{isa_name} {:<10}", module.name);
        for (name, config) in &configs {
            let c = Compressor::new(config.clone())
                .with_isa(isa)
                .with_selector(SelectorKind::Refine)
                .compress(module)
                .unwrap_or_else(|e| panic!("{isa_name} {} {name}: {e}", module.name));
            let bytes = codense::core::container::serialize(&c);
            line.push_str(&format!(" {name} {:08x}", crc(&bytes)));
        }
        line + "\n"
    });
    check_golden("refine_formats.txt", &lines.concat());
}

/// The program model's consumers other than [`Compressor`]: Liao's two
/// methods (text and dictionary bytes at entry cap 4, the figures' cap) on
/// the PowerPC suite, and every `core::sweep` entry point at full `f64`
/// precision on a subset of both suites. The compressor goldens above pin
/// none of these; Liao's own tests check only inequalities.
#[test]
fn golden_model_consumers() {
    use codense::core::sweep;
    use codense::liao::{self, LiaoMethod};
    let mut out = String::new();
    for m in codense::codegen::generate_suite(IsaId::Ppc) {
        for (name, method) in
            [("minisub", LiaoMethod::MiniSubroutine), ("calldict", LiaoMethod::CallDictionary)]
        {
            let c = liao::compress(&m, method, 4);
            out.push_str(&format!(
                "liao ppc {:<10} {name:<8} text {} dict {}\n",
                m.name, c.text_bytes, c.dictionary_bytes
            ));
        }
    }
    const BENCHES: [&str; 3] = ["compress", "li", "ijpeg"];
    let sizes = [16usize, 64, 256, 1024, 8192];
    let suites = [
        ("ppc", IsaRef(&codense::ppc::ISA), codense::codegen::generate_suite(IsaId::Ppc)),
        ("mips", IsaRef(&codense::mips::ISA), codense::codegen::generate_suite(IsaId::Mips)),
    ];
    for (isa_name, isa, suite) in &suites {
        for m in suite.iter().filter(|m| BENCHES.contains(&m.name.as_str())) {
            let tag = format!("{isa_name} {:<10}", m.name);
            let points = |sweep: &str, points: Vec<(usize, f64)>| {
                points.iter().map(|(k, r)| format!("{tag} {sweep} {k} {r:?}\n")).collect::<String>()
            };
            let ratios = sweep::entry_len_sweep_with_isa(m, *isa, &[1, 2, 4, 8]).unwrap();
            out.push_str(&points("entry_len", ratios));
            let ratios = sweep::codeword_count_sweep_with_isa(m, *isa, 4, &sizes).unwrap();
            out.push_str(&points("codeword_count", ratios));
            let ratios = sweep::small_dictionary_sweep_with_isa(m, *isa, &[8, 16, 32]).unwrap();
            out.push_str(&points("small_dictionary", ratios));
            for (k, hist) in sweep::dict_composition_sweep_with_isa(m, *isa, 8, &sizes).unwrap() {
                out.push_str(&format!("{tag} dict_composition {k} {hist:?}\n"));
            }
            for (k, by_len) in sweep::savings_by_length_sweep_with_isa(m, *isa, 8, &sizes).unwrap()
            {
                out.push_str(&format!("{tag} savings_by_length {k} {by_len:?}\n"));
            }
        }
    }
    check_golden("model_consumers.txt", &out);
}
