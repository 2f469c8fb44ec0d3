//! The paper's tables and figures, plus the extensions, as `codense
//! exhibit` prints them: one function per exhibit, in [`EXHIBITS`], each
//! printing the measured reproduction of that exhibit. Suite exhibits
//! compress each module under the ISA it records; the kernel exhibits
//! (`bandwidth`, `cache`, `dictcache`, `hybrid`) run `codense_vm::kernels`,
//! which are PowerPC programs.

use codense_codegen::isa_ref;
use codense_core::analysis::{
    branch_offset_usage, encoding_profile, prologue_epilogue, top_encoding_coverage,
};
use codense_core::sweep::{
    codeword_count_sweep_with_isa, dict_composition_sweep_with_isa, entry_len_sweep_with_isa,
    savings_by_length_sweep_with_isa, small_dictionary_sweep_with_isa,
};
use codense_core::{
    telemetry, verify::verify, CompressedProgram, CompressionConfig, Compressor, SelectorKind,
};
use codense_obj::ObjectModule;

use crate::report::{pct, Table};

/// An exhibit: its name on the command line and the function printing it.
pub type Exhibit = (&'static str, fn(&mut Ctx));

/// Every exhibit, in paper order.
pub const EXHIBITS: &[Exhibit] = &[
    ("fig1", fig1),
    ("table1", table1),
    ("fig2", fig2),
    ("fig4", fig4),
    ("fig5", fig5),
    ("table2", table2),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("table3", table3),
    ("methods", methods),
    ("bandwidth", bandwidth),
    ("thumb", thumb),
    ("cache", cache),
    ("prologue", prologue),
    ("partition", partition),
    ("dictcache", dictcache),
    ("splits", splits),
    ("mix", mix),
    ("hybrid", hybrid),
];

/// The exhibits `names` asks for, in the order named; `all` stands for
/// every exhibit in paper order. No name, or an unknown one, is an error
/// that lists the valid names.
pub fn select(names: &[&str]) -> Result<Vec<Exhibit>, String> {
    let valid = || EXHIBITS.iter().map(|e| e.0).collect::<Vec<_>>().join("|");
    if names.is_empty() {
        return Err(format!("missing exhibit name (all|{})", valid()));
    }
    let mut chosen = Vec::new();
    for &name in names {
        match EXHIBITS.iter().find(|e| e.0 == name) {
            Some(&e) => chosen.push(e),
            None if name == "all" => chosen.extend_from_slice(EXHIBITS),
            None => return Err(format!("unknown exhibit `{name}` (all|{})", valid())),
        }
    }
    Ok(chosen)
}

/// Prints `exhibits` in turn, each timed as a telemetry phase of its name.
pub fn run(ctx: &mut Ctx, exhibits: &[Exhibit]) {
    for &(name, exhibit) in exhibits {
        let _phase = telemetry::phase(name);
        exhibit(ctx);
    }
}

/// Shared state: the modules the suite exhibits read, the selector the
/// dictionary-size sweeps (Figs 4, 5 and 8) compress under, and a lazily
/// computed full baseline run per module (reused by Figs 2 and 9, Table 2
/// and `partition`).
pub struct Ctx {
    /// The eight stand-in benchmarks, or `sweep`'s one module.
    pub suite: Vec<ObjectModule>,
    selector: SelectorKind,
    baseline_full: Option<Vec<CompressedProgram>>,
}

/// The parameter a dictionary-size figure sweeps.
#[derive(Clone, Copy)]
enum Axis {
    /// Fig 4: the longest entry, baseline encoding.
    EntryLen,
    /// Fig 5: the number of codewords, baseline encoding, entries ≤ 4.
    Codewords,
    /// Fig 8: the number of 1-byte codewords.
    SmallDict,
}

impl Axis {
    /// The compression at sweep point `p`.
    fn config(self, p: usize) -> CompressionConfig {
        let baseline = CompressionConfig::baseline();
        match self {
            Axis::EntryLen => CompressionConfig { max_entry_len: p, ..baseline },
            Axis::Codewords => CompressionConfig { max_codewords: p, ..baseline },
            Axis::SmallDict => CompressionConfig::small_dictionary(p),
        }
    }
}

impl Ctx {
    /// A context over `suite` whose sweeps select with `selector`.
    pub fn new(suite: Vec<ObjectModule>, selector: SelectorKind) -> Ctx {
        Ctx { suite, selector, baseline_full: None }
    }

    /// Full baseline compression (8192 codewords, entries ≤ 4) of every
    /// module, verified, computed once.
    pub fn baseline_full(&mut self) -> &[CompressedProgram] {
        if self.baseline_full.is_none() {
            let runs = codense_core::parallel::par_map(self.suite.iter().collect(), |_, m| {
                let compressor =
                    Compressor::new(CompressionConfig::baseline()).with_isa(isa_ref(m.isa));
                let c = compressor.compress(m).expect("baseline compression");
                verify(m, &c).expect("baseline verification");
                c
            });
            self.baseline_full = Some(runs);
        }
        self.baseline_full.as_deref().unwrap()
    }

    /// `(name, ratios)` per module, with the compression ratio at each of
    /// `points` along `axis`. Greedy reads the `core::sweep` shortcuts (one
    /// pick log, or one candidate index shared by the points); refinement
    /// invalidates them, so refine compresses each point.
    fn sweep(&self, axis: Axis, points: &[usize]) -> Vec<(String, Vec<f64>)> {
        let selector = self.selector;
        codense_core::parallel::par_map(self.suite.iter().collect(), |_, m| {
            let isa = isa_ref(m.isa);
            let ratios = match selector {
                SelectorKind::Greedy => match axis {
                    Axis::EntryLen => entry_len_sweep_with_isa(m, isa, points),
                    Axis::Codewords => codeword_count_sweep_with_isa(m, isa, 4, points),
                    Axis::SmallDict => small_dictionary_sweep_with_isa(m, isa, points),
                }
                .expect("sweep")
                .into_iter()
                .map(|(_, r)| r)
                .collect(),
                SelectorKind::Refine => codense_core::parallel::par_map(points.to_vec(), |_, p| {
                    let compressor =
                        Compressor::new(axis.config(p)).with_isa(isa).with_selector(selector);
                    compressor.compress(m).expect("sweep point").compression_ratio()
                }),
            };
            (m.name.clone(), ratios)
        })
    }
}

/// Figure 1: distinct instruction encodings as a percentage of each program.
pub fn fig1(ctx: &mut Ctx) {
    println!("Figure 1: Distinct instruction encodings as % of entire program");
    println!("(paper: on average < 20% of instructions have encodings used only once)\n");
    let mut t = Table::new(["bench", "insns", "distinct", "used-once %", "used-multi %"]);
    let mut once_sum = 0.0;
    for m in &ctx.suite {
        let p = encoding_profile(m);
        once_sum += p.used_once_fraction();
        t.row([
            m.name.clone(),
            p.total_insns.to_string(),
            p.distinct.to_string(),
            pct(p.used_once_fraction()),
            pct(p.used_multiple_fraction()),
        ]);
    }
    println!("{}", t.render());
    println!("average used-once fraction: {}", pct(once_sum / ctx.suite.len() as f64));
    let go = ctx.suite.iter().find(|m| m.name == "go").expect("go present");
    println!(
        "go: top 1% of encodings cover {} of the program; top 10% cover {} (paper: 30% / 66%)\n",
        pct(top_encoding_coverage(go, 0.01)),
        pct(top_encoding_coverage(go, 0.10)),
    );
}

/// Table 1: usage of bits in branch offset fields.
pub fn table1(ctx: &mut Ctx) {
    println!("Table 1: Usage of bits in branch offset field");
    println!("(branches whose field is too narrow at finer target resolutions)\n");
    let mut t = Table::new([
        "bench",
        "PC-rel branches",
        "2-byte #",
        "2-byte %",
        "1-byte #",
        "1-byte %",
        "4-bit #",
        "4-bit %",
    ]);
    for m in &ctx.suite {
        let u = branch_offset_usage(m, isa_ref(m.isa));
        let p = u.percentages();
        t.row([
            m.name.clone(),
            u.total.to_string(),
            u.too_narrow_2byte.to_string(),
            format!("{:.2}%", p[0]),
            u.too_narrow_1byte.to_string(),
            format!("{:.2}%", p[1]),
            u.too_narrow_4bit.to_string(),
            format!("{:.2}%", p[2]),
        ]);
    }
    println!("{}", t.render());
}

/// Figure 2: a worked compression example (original vs compressed stream
/// plus the dictionary), rendered from the `compress` benchmark.
pub fn fig2(ctx: &mut Ctx) {
    println!("Figure 2: Example of compression (from the `compress` stand-in)\n");
    let idx = ctx.suite.iter().position(|m| m.name == "compress").expect("compress present");
    let c = ctx.baseline_full()[idx].clone();
    let module = &ctx.suite[idx];
    let isa = isa_ref(module.isa);

    // Find a window of atoms around the first multi-instruction codeword.
    let pos = c
        .atoms
        .iter()
        .position(|a| matches!(a, codense_core::Atom::Codeword { len, .. } if *len >= 3))
        .expect("some multi-instruction codeword exists");
    let window = &c.atoms[pos.saturating_sub(2)..(pos + 4).min(c.atoms.len())];

    println!("{:34}  Compressed code", "Uncompressed code");
    let mut used_entries = Vec::new();
    for atom in window {
        let orig = atom.orig();
        match *atom {
            codense_core::Atom::Insn { .. } => {
                let text = isa.disassemble(module.code[orig], orig as u32 * 4);
                println!("{text:34}  {text}");
            }
            codense_core::Atom::Codeword { entry, len, .. } => {
                if !used_entries.contains(&entry) {
                    used_entries.push(entry);
                }
                let tag = format!(
                    "CODEWORD #{}",
                    used_entries.iter().position(|&e| e == entry).unwrap() + 1
                );
                for k in 0..len as usize {
                    let text = isa.disassemble(module.code[orig + k], (orig + k) as u32 * 4);
                    if k == 0 {
                        println!("{text:34}  {tag}");
                    } else {
                        println!("{text:34}");
                    }
                }
            }
            codense_core::Atom::ViaTable { .. } => {
                let text = isa.disassemble(module.code[orig], orig as u32 * 4);
                println!("{text:34}  <branch via table>");
            }
        }
    }
    println!("\nDictionary");
    for (i, &entry) in used_entries.iter().enumerate() {
        for (k, &w) in c.dictionary.entry(entry).words.iter().enumerate() {
            let text = isa.disassemble(w, 0);
            if k == 0 {
                println!("#{} {text}", i + 1);
            } else {
                println!("   {text}");
            }
        }
    }
    println!();
}

/// Figure 4: compression ratio vs maximum dictionary entry length.
pub fn fig4(ctx: &mut Ctx) {
    println!("Figure 4: Effect of dictionary entry size on compression ratio");
    println!("(baseline 2-byte codewords, 8192-codeword space; paper: little gain past 4,");
    println!(" slight degradation at 8 from greedy overlap destruction)\n");
    let lens = [1usize, 2, 3, 4, 6, 8];
    let mut t = Table::new(
        std::iter::once("bench".to_string()).chain(lens.iter().map(|l| format!("len≤{l}"))),
    );
    for (name, ratios) in ctx.sweep(Axis::EntryLen, &lens) {
        t.row(std::iter::once(name).chain(ratios.into_iter().map(pct)));
    }
    println!("{}", t.render());
}

/// Figure 5: compression ratio vs number of codewords.
pub fn fig5(ctx: &mut Ctx) {
    println!("Figure 5: Effect of number of codewords on compression ratio");
    println!("(baseline, entries ≤ 4; monotone improvement, flattening at the top)\n");
    let points = [16usize, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192];
    let mut t = Table::new(
        std::iter::once("bench".to_string()).chain(points.iter().map(|p| p.to_string())),
    );
    for (name, ratios) in ctx.sweep(Axis::Codewords, &points) {
        t.row(std::iter::once(name).chain(ratios.into_iter().map(pct)));
    }
    println!("{}", t.render());
}

/// Table 2: maximum number of codewords used per benchmark.
pub fn table2(ctx: &mut Ctx) {
    println!("Table 2: Maximum number of codewords used (baseline, entries ≤ 4)");
    println!("(paper: compress 647 … gcc 7927; ordering should match program size/diversity)\n");
    let names: Vec<String> = ctx.suite.iter().map(|m| m.name.clone()).collect();
    let mut t = Table::new(["bench", "max codewords used"]);
    for (name, c) in names.iter().zip(ctx.baseline_full()) {
        t.row([name.clone(), c.dictionary.len().to_string()]);
    }
    println!("{}", t.render());
}

/// Figure 6: composition of the dictionary by entry length (ijpeg).
pub fn fig6(ctx: &mut Ctx) {
    println!("Figure 6: Composition of dictionary for ijpeg (entries ≤ 8 instructions)");
    println!("(paper: 1-instruction entries are 48–80% of the dictionary, more as it grows)\n");
    let m = ctx.suite.iter().find(|m| m.name == "ijpeg").expect("ijpeg present");
    let sizes = [16usize, 64, 256, 1024, 8192];
    let comp = dict_composition_sweep_with_isa(m, isa_ref(m.isa), 8, &sizes).expect("sweep");
    let mut t =
        Table::new(["dict size", "entries", "len1 %", "len2 %", "len3 %", "len4 %", "len5-8 %"]);
    for (size, hist) in comp {
        let total: usize = hist.iter().sum();
        if total == 0 {
            continue;
        }
        let p = |n: usize| format!("{:.1}%", 100.0 * n as f64 / total as f64);
        t.row([
            size.to_string(),
            total.to_string(),
            p(hist[1]),
            p(hist[2]),
            p(hist[3]),
            p(hist[4]),
            p(hist[5..].iter().sum()),
        ]);
    }
    println!("{}", t.render());
}

/// Figure 7: program bytes removed, by dictionary entry length (ijpeg).
pub fn fig7(ctx: &mut Ctx) {
    println!("Figure 7: Bytes saved in compression of ijpeg by entry length");
    println!("(paper: 1-instruction entries contribute ~half the savings)\n");
    let m = ctx.suite.iter().find(|m| m.name == "ijpeg").expect("ijpeg present");
    let sizes = [16usize, 64, 256, 1024, 8192];
    let sav = savings_by_length_sweep_with_isa(m, isa_ref(m.isa), 8, &sizes).expect("sweep");
    let mut t =
        Table::new(["dict size", "total %", "len1 %", "len2 %", "len3 %", "len4 %", "len5-8 %"]);
    for (size, by_len) in sav {
        let total: f64 = by_len.iter().sum();
        let p = |x: f64| format!("{:.1}%", 100.0 * x);
        t.row([
            size.to_string(),
            p(total),
            p(by_len[1]),
            p(by_len[2]),
            p(by_len[3]),
            p(by_len[4]),
            p(by_len[5..].iter().sum()),
        ]);
    }
    println!("{}", t.render());
}

/// Figure 8: compression with small dictionaries (1-byte codewords).
pub fn fig8(ctx: &mut Ctx) {
    println!("Figure 8: Compression ratio for 1-byte codewords, entries ≤ 4");
    println!("(paper: a 512-byte dictionary already gives ~15% code reduction)\n");
    let counts = [8usize, 16, 32];
    let mut t = Table::new(["bench", "8 (128B dict)", "16 (256B dict)", "32 (512B dict)"]);
    for (name, ratios) in ctx.sweep(Axis::SmallDict, &counts) {
        t.row(std::iter::once(name).chain(ratios.into_iter().map(pct)));
    }
    println!("{}", t.render());
}

/// Figure 9: composition of the compressed program (baseline, 8192 cw).
pub fn fig9(ctx: &mut Ctx) {
    println!("Figure 9: Composition of compressed program (8192 2-byte codewords)");
    println!("(paper: codeword bytes dominate; escape bytes alone are ~20% of the result)\n");
    let names: Vec<String> = ctx.suite.iter().map(|m| m.name.clone()).collect();
    let mut t = Table::new([
        "bench",
        "uncompressed insns",
        "codeword index bytes",
        "codeword escape bytes",
        "dictionary",
    ]);
    for (name, c) in names.iter().zip(ctx.baseline_full()) {
        let comp = c.composition();
        let f = comp.fractions();
        t.row([name.clone(), pct(f[0]), pct(f[2]), pct(f[1]), pct(f[3])]);
    }
    println!("{}", t.render());
}

/// Figure 10: the nibble-aligned encoding format.
pub fn fig10(_ctx: &mut Ctx) {
    use codense_core::encoding::nibble::*;
    println!("Figure 10: Nibble-aligned encoding");
    println!("(first nibble classifies the item; escape nibble 0xF prefixes a 36-bit");
    println!(" uncompressed instruction)\n");
    let mut t = Table::new(["first nibble", "item", "codewords"]);
    t.row(["0-7", "4-bit codeword", &N4.to_string()]);
    t.row(["8-10", "8-bit codeword", &N8.to_string()]);
    t.row(["11-12", "12-bit codeword", &N12.to_string()]);
    t.row(["13-14", "16-bit codeword", &N16.to_string()]);
    t.row(["15", "escape + 32-bit instruction", "-"]);
    println!("{}", t.render());
    println!("total codeword space: {CAPACITY}\n");
}

/// Figure 11: nibble-aligned compression vs Unix Compress (LZW).
pub fn fig11(ctx: &mut Ctx) {
    println!("Figure 11: Nibble-aligned compression vs Unix Compress");
    println!("(paper: 30–50% reduction; Compress better but within ~5% on all benchmarks)\n");
    let mut t = Table::new(["bench", "nibble ratio", "lzw ratio", "gap (pts)"]);
    let rows = codense_core::parallel::par_map(ctx.suite.iter().collect(), |_, m| {
        let compressor =
            Compressor::new(CompressionConfig::nibble_aligned()).with_isa(isa_ref(m.isa));
        let c = compressor.compress(m).expect("nibble compression");
        verify(m, &c).expect("nibble verification");
        let nib = c.compression_ratio();
        let lzw = codense_lzw::compressed_size(&m.text_image()) as f64 / m.text_bytes() as f64;
        (m.name.clone(), nib, lzw)
    });
    for (name, nib, lzw) in rows {
        t.row([name, pct(nib), pct(lzw), format!("{:+.1}", 100.0 * (nib - lzw))]);
    }
    println!("{}", t.render());
}

/// Table 3: prologue and epilogue code in the benchmarks.
pub fn table3(ctx: &mut Ctx) {
    println!("Table 3: Prologue and epilogue code in benchmarks");
    println!("(paper: prologue+epilogue together ≈ 12% of the program)\n");
    let mut t = Table::new(["bench", "prologue %", "epilogue %", "combined %"]);
    for m in &ctx.suite {
        let pe = prologue_epilogue(m);
        t.row([
            m.name.clone(),
            format!("{:.1}%", pe.prologue_pct()),
            format!("{:.1}%", pe.epilogue_pct()),
            format!("{:.1}%", pe.prologue_pct() + pe.epilogue_pct()),
        ]);
    }
    println!("{}", t.render());
}

/// Extension: related-work comparison across all implemented methods.
pub fn methods(ctx: &mut Ctx) {
    println!("Extension: all methods side by side (compressed/original, lower is better)\n");
    let mut t =
        Table::new(["bench", "baseline", "nibble", "1B/32", "ccrp", "liao-hw", "liao-sw", "lzw"]);
    let rows = codense_core::parallel::par_map(ctx.suite.iter().collect(), |_, m| {
        let ratio = |config| {
            let compressor = Compressor::new(config).with_isa(isa_ref(m.isa));
            pct(compressor.compress(m).expect("compression").compression_ratio())
        };
        let ccrp = codense_ccrp::compress(m, codense_ccrp::CcrpConfig::default());
        let hw = codense_liao::compress(m, codense_liao::LiaoMethod::CallDictionary, 4);
        let sw = codense_liao::compress(m, codense_liao::LiaoMethod::MiniSubroutine, 4);
        let lzw = codense_lzw::compressed_size(&m.text_image()) as f64 / m.text_bytes() as f64;
        [
            m.name.clone(),
            ratio(CompressionConfig::baseline()),
            ratio(CompressionConfig::nibble_aligned()),
            ratio(CompressionConfig::small_dictionary(32)),
            pct(ccrp.compression_ratio()),
            pct(hw.compression_ratio()),
            pct(sw.compression_ratio()),
            pct(lzw),
        ]
    });
    for row in rows {
        t.row(row);
    }
    println!("{}", t.render());
}

/// Extension: fetch-bandwidth effect measured on the runnable kernels.
pub fn bandwidth(_ctx: &mut Ctx) {
    use codense_vm::{kernels, run::run, LinearFetcher, PredecodedFetcher};
    println!("Extension: program-memory bits fetched per executed instruction");
    println!("(compressed fetch amortizes codeword bits over expanded instructions)\n");
    let mut t = Table::new(["kernel", "uncompressed b/insn", "nibble b/insn", "exit ok"]);
    for k in kernels::all() {
        let mut lf = LinearFetcher::new(k.module.code.clone());
        let r1 = run(&mut k.machine(), &mut lf, 0, 10_000_000).expect("uncompressed run");

        let c = Compressor::new(CompressionConfig::nibble_aligned())
            .compress(&k.module)
            .expect("compress kernel");
        let mut cf = PredecodedFetcher::new(&c);
        let r2 = run(&mut k.machine(), &mut cf, 0, 10_000_000).expect("compressed run");

        t.row([
            k.name.to_string(),
            format!("{:.2}", r1.stats.bits_per_insn()),
            format!("{:.2}", r2.stats.bits_per_insn()),
            (r1.exit_code == r2.exit_code && r1.exit_code == k.expected).to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// Extension (§2.2): Thumb/MIPS16-style static subsetting vs the paper's
/// program-specific dictionary.
pub fn thumb(ctx: &mut Ctx) {
    println!("Extension: Thumb/MIPS16-style 16-bit re-encoding model vs dictionary");
    println!("(paper: Thumb ~30% / MIPS16 ~40% smaller; the dictionary method matches");
    println!(" that while keeping every register and instruction reachable)\n");
    let mut t = Table::new(["bench", "16-bit coverage", "thumb-model ratio", "nibble dict ratio"]);
    let rows = codense_core::parallel::par_map(ctx.suite.iter().collect(), |_, m| {
        let report = codense_thumb::analyze(m).expect("the suite is PowerPC");
        let dict = Compressor::new(CompressionConfig::nibble_aligned())
            .with_isa(isa_ref(m.isa))
            .compress(m)
            .expect("nibble compression");
        [
            m.name.clone(),
            pct(report.coverage()),
            pct(report.compression_ratio()),
            pct(dict.compression_ratio()),
        ]
    });
    for row in rows {
        t.row(row);
    }
    println!("{}", t.render());
}

/// Runs `kernel` over `fetch`, returning the program-memory references the
/// run made.
fn kernel_trace(
    kernel: &codense_vm::kernels::Kernel,
    fetch: &mut impl codense_vm::Fetch,
) -> Vec<codense_cache::FetchRef> {
    let mut trace = Vec::new();
    codense_vm::run_traced(&mut kernel.machine(), fetch, 0, 10_000_000, |pc, f| {
        trace.push(codense_cache::FetchRef { nibble_addr: pc, nibbles: f.nibbles });
    })
    .expect("kernel run");
    trace
}

/// Extension (§1/§5, \[Chen97b\]): I-cache misses, compressed vs uncompressed.
pub fn cache(_ctx: &mut Ctx) {
    use codense_cache::{replay, Cache, CacheConfig};
    use codense_vm::{kernels, LinearFetcher, PredecodedFetcher};
    println!("Extension: I-cache misses executing kernels (16B lines, direct-mapped)");
    println!("(compression shrinks the code working set; [Chen97b]'s premise)\n");
    let sizes = [64usize, 128, 256, 512];
    let mut t = Table::new(
        std::iter::once("kernel".to_string())
            .chain(sizes.iter().map(|s| format!("{s}B plain/nibble"))),
    );
    for kernel in kernels::all() {
        let compressed = Compressor::new(CompressionConfig::nibble_aligned())
            .compress(&kernel.module)
            .expect("compress kernel");
        let plain = kernel_trace(&kernel, &mut LinearFetcher::new(kernel.module.code.clone()));
        let comp = kernel_trace(&kernel, &mut PredecodedFetcher::new(&compressed));

        let mut row = vec![kernel.name.to_string()];
        for &size in &sizes {
            let config = CacheConfig { size_bytes: size, line_bytes: 16, ways: 1 };
            let (mut c1, mut c2) = (Cache::new(config), Cache::new(config));
            replay(&plain, &mut c1);
            replay(&comp, &mut c2);
            row.push(format!("{}/{}", c1.stats().misses, c2.stats().misses));
        }
        t.row(row);
    }
    println!("{}", t.render());
}

/// Extension (§5): standardized prologues/epilogues — bigger uncompressed
/// code that compresses better.
pub fn prologue(ctx: &mut Ctx) {
    use codense_codegen::{spec_profiles, LowerOptions};
    println!("Extension: standardized prologues (paper §5 future work)");
    println!("(save all registers always: uncompressed code grows, compressed shrinks)\n");
    let mut t = Table::new([
        "bench",
        "plain bytes",
        "std bytes",
        "plain nibble ratio",
        "std nibble ratio",
        "std compressed vs plain compressed",
    ]);
    let std_pe = LowerOptions { standardize_prologues: true, ..LowerOptions::default() };
    for plain in ctx.suite.iter().take(4) {
        let profile = spec_profiles().into_iter().find(|p| p.name == plain.name).expect("suite");
        let std = codense_codegen::generate_module(&profile, plain.isa, std_pe);
        let comp =
            Compressor::new(CompressionConfig::nibble_aligned()).with_isa(isa_ref(plain.isa));
        let c_plain = comp.compress(plain).expect("plain");
        let c_std = comp.compress(&std).expect("std");
        let plain_total = c_plain.text_bytes() + c_plain.dictionary_bytes();
        let std_total = c_std.text_bytes() + c_std.dictionary_bytes();
        t.row([
            plain.name.clone(),
            plain.text_bytes().to_string(),
            std.text_bytes().to_string(),
            pct(c_plain.compression_ratio()),
            pct(c_std.compression_ratio()),
            format!("{:+.1}%", 100.0 * (std_total as f64 / plain_total as f64 - 1.0)),
        ]);
    }
    println!("{}", t.render());
}

/// Extension (§5): partitioning a fixed on-chip memory budget between the
/// dictionary and the program.
pub fn partition(ctx: &mut Ctx) {
    println!("Extension: on-chip memory partitioning (paper §5: \"trade-offs in");
    println!(" partitioning the on-chip memory for the dictionary and program\")\n");
    let names: Vec<String> = ctx.suite.iter().map(|m| m.name.clone()).collect();
    let mut t =
        Table::new(["bench", "best dict entries", "dict bytes", "text bytes", "total / original"]);
    for (name, c) in names.iter().zip(ctx.baseline_full()) {
        // From the pick log: total memory (text+dictionary) after k picks;
        // find the k minimizing it.
        let mut best = (0usize, f64::INFINITY);
        for k in 0..=c.picks.len() {
            let ratio = codense_core::sweep::ratio_at_prefix(c, k);
            if ratio < best.1 {
                best = (k, ratio);
            }
        }
        let dict_bytes: usize = c.picks.iter().take(best.0).map(|p| 4 * p.len).sum();
        let orig = c.original_text_bytes;
        t.row([
            name.clone(),
            best.0.to_string(),
            dict_bytes.to_string(),
            format!("{:.0}", best.1 * orig as f64 - dict_bytes as f64),
            pct(best.1),
        ]);
    }
    println!("{}", t.render());
}

/// Extension (§3.3): on-demand dictionary cache instead of a fully on-chip
/// dictionary, replayed over each kernel's fetch trace.
pub fn dictcache(_ctx: &mut Ctx) {
    use codense_cache::replay_dict_cache;
    use codense_vm::{kernels, PredecodedFetcher};
    println!("Extension: dictionary kept in data memory, cached on chip (paper §3.3)");
    println!("(hit rate and load traffic per dictionary-cache size, nibble scheme)\n");
    let sizes = [2usize, 4, 8, 16];
    let mut t = Table::new(
        std::iter::once("kernel".to_string())
            .chain(sizes.iter().map(|s| format!("{s}-entry hit%/loadB"))),
    );
    for kernel in kernels::all() {
        let compressed = Compressor::new(CompressionConfig::nibble_aligned())
            .compress(&kernel.module)
            .expect("compress kernel");
        let trace = kernel_trace(&kernel, &mut PredecodedFetcher::new(&compressed));
        let mut row = vec![kernel.name.to_string()];
        for &size in &sizes {
            let stats = replay_dict_cache(&trace, &compressed, size);
            let total = stats.hits + stats.misses;
            let hit = if total == 0 { 100.0 } else { 100.0 * stats.hits as f64 / total as f64 };
            row.push(format!("{hit:.0}%/{}", stats.bytes_loaded));
        }
        t.row(row);
    }
    println!("{}", t.render());
}

/// Extension (§4.1.3): alternative nibble codeword-space splits, evaluated
/// analytically on each benchmark's dictionary usage.
pub fn splits(ctx: &mut Ctx) {
    use codense_core::sweep::{text_nibbles_under_split, NibbleSplit};
    println!("Extension: nibble codeword-space splits (paper §4.1.3: \"other programs");
    println!(" may benefit from different encodings\") — text nibbles vs the shipped split\n");
    let candidates = [
        ("shipped 8/3/2/2", NibbleSplit::SHIPPED),
        ("short-heavy 11/2/1/1", NibbleSplit { n4: 11, n8: 2, n12: 1, n16: 1 }),
        ("mid-heavy 4/7/2/2", NibbleSplit { n4: 4, n8: 7, n12: 2, n16: 2 }),
        ("long-heavy 2/2/3/8", NibbleSplit { n4: 2, n8: 2, n12: 3, n16: 8 }),
        ("balanced 6/4/3/2", NibbleSplit { n4: 6, n8: 4, n12: 3, n16: 2 }),
    ];
    let mut t = Table::new(
        std::iter::once("bench".to_string()).chain(candidates.iter().map(|(n, _)| n.to_string())),
    );
    for m in &ctx.suite {
        let compressor =
            Compressor::new(CompressionConfig::nibble_aligned()).with_isa(isa_ref(m.isa));
        let c = compressor.compress(m).expect("compress");
        let base = text_nibbles_under_split(&c, NibbleSplit::SHIPPED).expect("rank space") as f64;
        t.row(std::iter::once(m.name.clone()).chain(candidates.iter().map(|&(_, s)| {
            let n = text_nibbles_under_split(&c, s).expect("rank space") as f64;
            format!("{:+.2}%", 100.0 * (n - base) / base)
        })));
    }
    println!("{}", t.render());
    println!("(positive = bigger than the shipped split)\n");
}

/// Extension: static instruction-class mix (realism check of the stand-ins).
pub fn mix(ctx: &mut Ctx) {
    use codense_core::analysis::instruction_mix;
    println!("Extension: static instruction mix of the stand-in benchmarks");
    println!("(compiled RISC integer code: ~20-35% memory, ~15-20% branches)\n");
    let mut t = Table::new(["bench", "loads", "stores", "branches", "compares", "alu"]);
    for m in &ctx.suite {
        let f = instruction_mix(m).expect("the suite is PowerPC").fractions();
        t.row([m.name.clone(), pct(f[0]), pct(f[1]), pct(f[2]), pct(f[3]), pct(f[4])]);
    }
    println!("{}", t.render());
}

/// Extension (§5): profile-guided hybrid compression — size vs modeled
/// cycles at a few hotness-coverage points per runnable kernel.
pub fn hybrid(_ctx: &mut Ctx) {
    use codense_profile::{bench, hybrid_sweep, HybridOptions, Subject};
    println!("Extension: profile-guided hybrid compression (paper §5 future work)");
    println!("(exempting the hottest blocks recovers expansion cycles while keeping");
    println!(" most of the size reduction; cost model in DESIGN.md §11)\n");
    let options =
        HybridOptions { coverages: vec![0.0, 0.25, 0.50, 0.75, 1.0], ..HybridOptions::default() };
    let subjects: Vec<Subject> = bench::benches().iter().map(Subject::from_kernel).collect();
    let results = hybrid_sweep(&subjects, &options).expect("hybrid sweep");
    let mut t = Table::new([
        "kernel",
        "full ratio",
        "full cyc",
        "cov",
        "hybrid ratio",
        "hybrid cyc",
        "recovered",
        "retained",
    ]);
    for r in &results {
        // Pick the mid-range point that recovers the most cycles.
        let best = r
            .points
            .iter()
            .filter(|p| p.coverage > 0.0 && p.coverage < 1.0)
            .max_by(|a, b| a.recovered_pct.partial_cmp(&b.recovered_pct).unwrap())
            .expect("mid-range point");
        t.row([
            r.bench.clone(),
            format!("{:.3}", r.full_ratio),
            r.full_cycles.to_string(),
            format!("{:.2}", best.coverage),
            format!("{:.3}", best.ratio),
            best.cycles.to_string(),
            format!("{:.1}%", best.recovered_pct),
            format!("{:.1}%", best.retained_pct),
        ]);
    }
    println!("{}", t.render());
}
