//! `codense` — command-line front end for the code-compression system.
//!
//! One subcommand per pipeline stage or experiment: module generation and
//! inspection (`gen`, `info`, `disasm`, `analyze`, `asm`), compression
//! (`compress`), execution (`run-kernel`), the paper's tables (`repro`,
//! `sweep`), SPEC-scale programs (`corpus`), profile-guided hybrid images
//! (`profile`, `hybrid`, `hybrid-sweep`), differential fuzzing (`fuzz`), and
//! the compression service (`serve`, `loadgen`). [`USAGE`] is
//! the user-facing reference; [`COMMANDS`] holds each subcommand's flag
//! list, which its arguments are checked against before it does any work.
//!
//! Global flags: `--jobs N` (worker-pool width) and `--metrics OUT.json`
//! (telemetry report + per-phase summary on stderr after the command).

use std::process::ExitCode;

use codense_codegen::{isa_ref, LowerOptions};
use codense_core::{
    container, verify::verify, CompressionConfig, Compressor, EncodingKind, SelectorKind,
};
use codense_isa::IsaId;
use codense_obj::ObjectModule;

mod corpus;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = take_jobs(&mut args) {
        eprintln!("codense: {e}");
        return ExitCode::from(2);
    }
    let metrics_path = match take_metrics(&mut args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("codense: {e}");
            return ExitCode::from(2);
        }
    };
    let command = args.first().cloned().unwrap_or_else(|| "help".to_owned());
    if !matches!(command.as_str(), "serve" | "loadgen") {
        restore_default_sigpipe();
    }
    let result = match args.first().map(String::as_str) {
        Some("help") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(name) => match COMMANDS.iter().find(|c| c.name == name) {
            Some(c) => Args::parse(c, &args[1..]).and_then(|a| (c.run)(&a)),
            None => Err(format!("unknown command `{name}`\n{USAGE}")),
        },
    };
    // Metrics are written even when the command fails: the counters of a
    // failing run are exactly what a bug report needs.
    if let Some(path) = metrics_path {
        let json = codense_core::telemetry::metrics_json(&command);
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("codense: {path}: {e}");
            return ExitCode::from(2);
        }
        eprint!("{}", codense_core::telemetry::render_summary());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("codense: {e}");
            ExitCode::from(2)
        }
    }
}

/// Restores the default SIGPIPE disposition, which the Rust runtime sets to
/// "ignore" before `main`, so a reader that closes the pipe early (`codense
/// disasm … | head`) ends the process quietly, as with any Unix filter,
/// instead of making `println!` panic. The network commands keep SIGPIPE
/// ignored: their sockets and wake pipe must see a vanished peer as an error.
fn restore_default_sigpipe() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SIGPIPE is 13 and SIG_DFL is 0 on Linux, macOS and the BSDs.
        // SAFETY: installs the default disposition, before any thread exists.
        unsafe { signal(13, 0) };
    }
}

const USAGE: &str = "\
usage:
  codense [--jobs N] [--metrics OUT.json] <command> ...

  codense gen <benchmark|all> [-o DIR]
  codense info <FILE.cdm|FILE.cdns>
  codense disasm <FILE.cdm|FILE.cdns> [START [COUNT]]
  codense compress <FILE.cdm> [-o OUT.cdns]
                   [--encoding baseline|onebyte|nibble|huffman]
                   [--selector greedy|refine]
                   [--max-entry N] [--max-codewords N]
  codense analyze <FILE.cdm>
  codense asm <FILE.s> [-o OUT.cdm] [--isa ppc|mips]
  codense run-kernel <NAME|list>
                     [--encoding baseline|onebyte|nibble|huffman|none]
  codense repro [--bench NAME] [--isa ppc|mips|both] [--out BENCH_isa.json]
                [--selector greedy|refine] [--ratio-out BENCH_ratio.json]
                [--corpus N]
  codense corpus [--insns N] [--dup N] [--seed S] [--isa ppc|mips]
                 [-o FILE.cdm]
  codense sweep [--bench NAME] [--isa ppc|mips] [--selector greedy|refine]
                [--corpus N]
  codense profile [--bench NAME] [--encoding baseline|onebyte|nibble|huffman]
                  [--max-steps N] [--out PROFILE.json] [--corpus N]
  codense hybrid --bench NAME [--coverage FRAC | --threshold N]
                 [--encoding baseline|onebyte|nibble|huffman] [--max-steps N]
  codense hybrid-sweep [--encoding baseline|onebyte|nibble|huffman]
                       [--out BENCH_hybrid.json] [--corpus N]
  codense fuzz [--cases N] [--seed S] [--max-steps N] [--fault-tries N]
               [--hybrid] [--isa ppc|mips]
  codense serve --addr HOST:PORT [--queue-depth N] [--timeout-ms N]
                [--cache-bytes N]
  codense loadgen --addr HOST:PORT [--requests N] [--connections N]
                  [--bench NAME] [--encoding baseline|onebyte|nibble|huffman]
                  [--selector greedy|refine] [--corpus N]
                  [--max-entry N] [--metrics-out METRICS.json]
                  [--timeout-ms N] [--shutdown]

--jobs N sets the worker-thread count for parallel phases (sweep points,
suite generation, fuzz campaigns); the default is the
machine's available parallelism, and --jobs 1 is the exact sequential
reference. Output is bit-identical at any job count.

Each command accepts only the flags listed for it above; an unknown flag,
a repeated flag, a flag without its value, or an extra positional
argument fails with exit status 2 before the command does any work.

--metrics OUT.json writes a schema-stable telemetry report (sorted-key
JSON: every registered counter plus per-phase timings) after the command
runs, and prints a per-phase summary table on stderr. The `counters`
section is deterministic: byte-identical at any --jobs value; the
`timings` section carries wall-clock data and is excluded from that
contract.

repro regenerates the deterministic synthetic benchmark suite, compresses
every benchmark under all four encodings, verifies each result, and
prints the compression-ratio table (the paper's headline numbers).
--isa selects the backend (the same IR suite lowered through PowerPC or
MIPS templates; `both` prints one table per ISA). --selector picks the
dictionary selector for the printed table (greedy is the paper's
algorithm; refine hill-climbs the greedy pick log under the real layout
cost model). --out writes the schema-1 BENCH_isa.json cross-ISA density
artifact, which always carries both backends under the greedy selector.
--ratio-out writes the schema-1 BENCH_ratio.json density trajectory:
per-bench ratios for every ISA x selector x encoding cell, with means
(see EXPERIMENTS.md for both bless workflows).

corpus builds one seeded-deterministic SPEC-scale program (see DESIGN.md
section 15): deep multi-module call graphs over a library layer duplicated
--dup times per module, 16-way jump-table dispatch loops, and cold
error-handling bulk — 10K to 1M+ lowered instructions on either ISA,
runnable under the VM and the lockstep oracle. --insns accepts k/m
suffixes (default 100k). -o writes the module as a .cdm file.

--corpus N on repro/sweep/profile/hybrid-sweep/loadgen swaps that
command's benchmark for the N-instruction corpus program (sharing --dup /
--seed with the corpus command). repro prints the corpus row under the
suite table without touching the blessed artifacts; profile and
hybrid-sweep run it as a PPC profiling subject. Performance at corpus
scale is measured by the repository benchmark (benchmark/README.md).

sweep runs the parameter sweeps behind Figures 4-8 (max entry length,
codeword count, small dictionaries) on one benchmark (default `compress`)
under the --isa backend. --selector refine recompresses every sweep
point with the refinement selector (no pick-log shortcuts).

serve runs the batch-compression TCP service (DESIGN.md section 10): a
poll(2) reactor with pipelined per-connection state machines, a bounded
work queue with --jobs workers, BUSY backpressure when the queue is full,
per-request deadlines, a content-addressed LRU result cache
(--cache-bytes budget, default 64 MiB, 0 disables), and typed error
frames for malformed input. The bound address is printed on stdout;
serve blocks until a SHUTDOWN frame arrives, then drains in-flight work
and exits.

loadgen is the serve correctness smoke. It compresses --bench in process
once, then drives --requests identical compression requests over
--connections concurrent connections against --addr, byte-comparing every
response (a mismatch counts as failed). It prints one summary line (ok,
busy and failed counts, req/s, p50 and p99 latency) and exits nonzero
when any request failed. --metrics-out writes the server's telemetry
report after the run; --shutdown then sends a SHUTDOWN frame. Serve
performance is measured by the repository benchmark (benchmark/README.md).

profile runs the built-in kernel suite (each kernel extended with a large
never-executed cold section) natively under the VM's tracing hook and
writes per-instruction / per-basic-block execution counts plus the
fetch-path event totals of a reference compressed run as a schema-1
sorted-key JSON artifact — byte-identical at any --jobs value.

hybrid profiles one benchmark, exempts its hot blocks from compression
(--coverage F keeps the hottest blocks covering fraction F of dynamic
execution; --threshold N exempts blocks executing at least N
instructions), verifies and lockstep-executes the hybrid image, and
prints the native/full/hybrid cycle and size comparison under the fetch
cost model.

hybrid-sweep walks the coverage knob over the whole suite and writes the
size-vs-cycles Pareto frontier (BENCH_hybrid.json, schema 1; see
EXPERIMENTS.md for the bless workflow).

fuzz generates seeded random programs, runs each natively and through the
compressed fetch path under all four encodings in lockstep, and fault-
injects the binary container formats; failures print a reproducer case
seed and a shrunk minimal program weight. Exit status 1 on any divergence
or panic. --hybrid additionally derives a random block-aligned hotness
mask per case and fuzzes hybrid (partially compressed) images the same
way. --isa mips runs the same campaign on the MIPS backend: the same
case-seed stream drives the shared generator through MIPS templates, and
shrinking, the planted-corruption self-test, fault injection and --hybrid
all apply unchanged.

asm syntax: one instruction per line (the disasm output syntax), `label:`
definitions, `label` usable as any branch target, `#` comments. --isa
selects the instruction set the source is parsed and encoded as.
";

type CliResult = Result<(), String>;

/// Extracts a global `--jobs N` / `--jobs=N` and applies it to the worker
/// pool before command dispatch.
fn take_jobs(args: &mut Vec<String>) -> Result<(), String> {
    let mut i = 0;
    while i < args.len() {
        let value: Option<String> = if args[i] == "--jobs" {
            if i + 1 >= args.len() {
                return Err("--jobs requires a value".into());
            }
            let v = args[i + 1].clone();
            args.drain(i..i + 2);
            Some(v)
        } else if let Some(v) = args[i].strip_prefix("--jobs=") {
            let v = v.to_string();
            args.remove(i);
            Some(v)
        } else {
            i += 1;
            None
        };
        if let Some(v) = value {
            match v.parse::<usize>() {
                Ok(n) if n >= 1 => codense_core::parallel::set_jobs(n),
                _ => return Err(format!("invalid --jobs value `{v}` (expected an integer >= 1)")),
            }
        }
    }
    Ok(())
}

/// Extracts a global `--metrics PATH` / `--metrics=PATH`; the telemetry
/// report is written there after command dispatch.
fn take_metrics(args: &mut Vec<String>) -> Result<Option<String>, String> {
    let mut path = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--metrics" {
            if i + 1 >= args.len() {
                return Err("--metrics requires a file path".into());
            }
            path = Some(args[i + 1].clone());
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix("--metrics=") {
            path = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(path)
}

/// One subcommand: its handler, how many positional arguments it takes,
/// and its flags, space-separated: those that take a value, then the bare
/// switches.
struct Command {
    name: &'static str,
    run: fn(&Args) -> CliResult,
    positionals: usize,
    valued: &'static str,
    switches: &'static str,
}

const fn cmd(
    name: &'static str,
    run: fn(&Args) -> CliResult,
    positionals: usize,
    valued: &'static str,
    switches: &'static str,
) -> Command {
    Command { name, run, positionals, valued, switches }
}

/// Every subcommand with its complete flag list. `--corpus N` brings the
/// corpus knobs `--dup` and `--seed` with it.
const COMMANDS: &[Command] = &[
    cmd("gen", cmd_gen, 1, "-o", ""),
    cmd("info", cmd_info, 1, "", ""),
    cmd("disasm", cmd_disasm, 3, "", ""),
    cmd("compress", cmd_compress, 1, "-o --encoding --selector --max-entry --max-codewords", ""),
    cmd("analyze", cmd_analyze, 1, "", ""),
    cmd("asm", cmd_asm, 1, "-o --isa", ""),
    cmd("run-kernel", cmd_run_kernel, 1, "--encoding", ""),
    cmd(
        "repro",
        cmd_repro,
        0,
        "--bench --isa --out --ratio-out --selector --corpus --dup --seed",
        "",
    ),
    cmd("corpus", corpus::cmd_corpus, 0, "--insns --dup --seed --isa -o", ""),
    cmd("sweep", cmd_sweep, 0, "--bench --isa --selector --corpus --dup --seed", ""),
    cmd(
        "profile",
        cmd_profile,
        0,
        "--bench --encoding --max-steps --out --corpus --dup --seed",
        "",
    ),
    cmd("hybrid", cmd_hybrid, 0, "--bench --coverage --threshold --encoding --max-steps", ""),
    cmd("hybrid-sweep", cmd_hybrid_sweep, 0, "--encoding --out --corpus --dup --seed", ""),
    cmd("fuzz", cmd_fuzz, 0, "--cases --seed --max-steps --fault-tries --isa", "--hybrid"),
    cmd("serve", cmd_serve, 0, "--addr --queue-depth --timeout-ms --cache-bytes", ""),
    cmd(
        "loadgen",
        cmd_loadgen,
        0,
        "--addr --requests --connections --timeout-ms --bench --encoding --selector --max-entry \
         --corpus --dup --seed --metrics-out",
        "--shutdown",
    ),
];

/// Whether `flag` is one of the space-separated `flags`.
fn listed(flags: &str, flag: &str) -> bool {
    flags.split_whitespace().any(|f| f == flag)
}

/// A subcommand's arguments, checked against its [`Command`] entry before
/// the command runs.
struct Args<'a> {
    command: &'static Command,
    positionals: Vec<&'a str>,
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Args<'a> {
    fn parse(command: &'static Command, raw: &'a [String]) -> Result<Args<'a>, String> {
        let name = command.name;
        let valued = |a: &str| listed(command.valued, a);
        let switch = |a: &str| listed(command.switches, a);
        let mut args =
            Args { command, positionals: Vec::new(), values: Vec::new(), switches: Vec::new() };
        let mut raw = raw.iter().map(String::as_str);
        while let Some(a) = raw.next() {
            if args.values.iter().any(|&(f, _)| f == a) || args.switches.contains(&a) {
                return Err(format!("{name}: {a} given twice"));
            } else if valued(a) {
                match raw.next() {
                    Some(v) if !valued(v) && !switch(v) => args.values.push((a, v)),
                    _ => return Err(format!("{name}: {a} requires a value")),
                }
            } else if switch(a) {
                args.switches.push(a);
            } else if a.starts_with('-') {
                return Err(format!("{name}: unknown flag `{a}`"));
            } else if args.positionals.len() < command.positionals {
                args.positionals.push(a);
            } else {
                return Err(format!("{name}: unexpected argument `{a}`"));
            }
        }
        Ok(args)
    }

    /// The value of a flag, if given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        debug_assert!(listed(self.command.valued, flag), "{flag} is not in the flag list");
        self.values.iter().find(|&&(f, _)| f == flag).map(|&(_, v)| v)
    }

    /// Whether a switch was given.
    fn has(&self, switch: &str) -> bool {
        debug_assert!(listed(self.command.switches, switch), "{switch} is not in the flag list");
        self.switches.contains(&switch)
    }

    /// The `i`th positional argument, if given.
    fn positional(&self, i: usize) -> Option<&'a str> {
        self.positionals.get(i).copied()
    }
}

/// Resolves a `--isa` flag (default `ppc`). Only commands that create a
/// module or pick a suite take one; the others follow the file's tag.
fn parse_isa(args: &Args) -> Result<IsaId, String> {
    let name = args.value("--isa").unwrap_or("ppc");
    IsaId::from_name(name).ok_or_else(|| format!("unknown ISA `{name}` (ppc|mips)"))
}

fn parse_encoding(name: &str) -> Result<EncodingKind, String> {
    EncodingKind::from_name(name)
        .ok_or_else(|| format!("unknown encoding `{name}` ({})", encodings()))
}

/// Every encoding name, as the `--encoding` flag spells it.
fn encodings() -> String {
    EncodingKind::ALL.map(|k| k.name()).join("|")
}

/// Resolves a `--selector` flag to a dictionary selection strategy
/// (default `greedy`).
fn parse_selector(args: &Args) -> Result<SelectorKind, String> {
    let name = args.value("--selector").unwrap_or(SelectorKind::default().name());
    SelectorKind::from_name(name).ok_or_else(|| {
        format!("unknown selector `{name}` ({})", SelectorKind::ALL.map(|k| k.name()).join("|"))
    })
}

/// Resolves a `--max-entry` flag, the longest dictionary entry in
/// instructions (default 4). A request with a cap of 0 is malformed on the
/// wire, so no command accepts one.
fn parse_max_entry<T>(args: &Args) -> Result<T, String>
where
    T: std::str::FromStr<Err = std::num::ParseIntError> + From<u8> + PartialOrd,
{
    let Some(v) = args.value("--max-entry") else { return Ok(T::from(4)) };
    match v.parse() {
        Ok(n) if n >= T::from(1) => Ok(n),
        Ok(_) => Err(format!("bad --max-entry `{v}` (expected an integer >= 1)")),
        Err(e) => Err(format!("bad --max-entry `{v}`: {e}")),
    }
}

/// Reads a `.cdm` module and validates it under the ISA it records, so no
/// consumer sees a branch or jump-table target outside the text.
fn load_module(path: &str) -> Result<ObjectModule, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    module_from_bytes(path, &bytes)
}

fn module_from_bytes(path: &str, bytes: &[u8]) -> Result<ObjectModule, String> {
    let m = codense_obj::deserialize(bytes).map_err(|e| format!("{path}: {e}"))?;
    m.validate_with(isa_ref(m.isa)).map_err(|e| format!("{path}: {e}"))?;
    Ok(m)
}

fn cmd_gen(args: &Args) -> CliResult {
    let which = args.positional(0).ok_or("gen: missing benchmark name (or `all`)")?;
    let dir = args.value("-o").unwrap_or(".");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let modules: Vec<ObjectModule> = if which == "all" {
        // Each benchmark is generated from its own seeded profile, so the
        // suite parallelizes with output identical to `generate_suite`.
        codense_core::parallel::par_map(codense_codegen::spec_profiles(), |_, p| {
            codense_codegen::generate_module(&p, IsaId::Ppc, LowerOptions::default())
        })
    } else {
        vec![codense_codegen::benchmark(which, IsaId::Ppc)
            .ok_or_else(|| format!("unknown benchmark `{which}`"))?]
    };
    for m in modules {
        let path = format!("{dir}/{}.cdm", m.name);
        std::fs::write(&path, codense_obj::serialize(&m)).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: {} instructions, {} bytes of text", m.len(), m.text_bytes());
    }
    Ok(())
}

fn cmd_info(args: &Args) -> CliResult {
    let path = args.positional(0).ok_or("info: missing file")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(&codense_obj::serialize::MAGIC) {
        let m = module_from_bytes(path, &bytes)?;
        println!("module `{}`", m.name);
        println!("  isa          : {}", m.isa);
        println!("  instructions : {}", m.len());
        println!("  text bytes   : {}", m.text_bytes());
        println!("  functions    : {}", m.functions.len());
        println!("  jump tables  : {} ({} bytes)", m.jump_tables.len(), m.jump_table_bytes());
        let bbs = codense_obj::BasicBlocks::compute_with(&m, isa_ref(m.isa));
        println!("  basic blocks : {} (mean {:.1} insns)", bbs.len(), bbs.mean_block_len());
    } else if bytes.starts_with(&container::MAGIC) {
        let image = container::deserialize(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!("compressed program ({})", image.encoding.name());
        println!("  isa           : {}", image.isa);
        println!("  original text : {} bytes", image.original_text_bytes);
        println!("  stream        : {} nibbles ({} bytes)", image.total_nibbles, image.image.len());
        println!("  dictionary    : {} entries", image.dictionary_by_rank.len());
        println!("  jump tables   : {}", image.jump_tables.len());
        println!("  overflow slots: {}", image.overflow_table.len());
        println!(
            "  footprint     : {} bytes ({:.1}% of original)",
            image.footprint_bytes(),
            100.0 * image.footprint_bytes() as f64 / image.original_text_bytes.max(1) as f64
        );
    } else {
        return Err(format!("{path}: unrecognized file format"));
    }
    Ok(())
}

fn cmd_disasm(args: &Args) -> CliResult {
    let path = args.positional(0).ok_or("disasm: missing file")?;
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let start: usize =
        args.positional(1).map(|s| s.parse().map_err(|_| "bad START")).transpose()?.unwrap_or(0);
    let count: usize =
        args.positional(2).map(|s| s.parse().map_err(|_| "bad COUNT")).transpose()?.unwrap_or(64);
    if bytes.starts_with(&container::MAGIC) {
        let image = container::deserialize(&bytes).map_err(|e| format!("{path}: {e}"))?;
        return disasm_stream(&image, start, count);
    }
    let m = module_from_bytes(path, &bytes)?;
    if start >= m.len() {
        return Err(format!("START {start} beyond program ({} insns)", m.len()));
    }
    let end = start.saturating_add(count).min(m.len());
    print!("{}", isa_ref(m.isa).dump(&m.code[start..end], 4 * start as u32));
    Ok(())
}

/// Renders a compressed stream: nibble addresses, codewords with their
/// expansions, and escaped instructions — an objdump for `.cdns` images.
fn disasm_stream(image: &container::ProgramImage, skip_items: usize, count: usize) -> CliResult {
    use codense_core::encoding::{read_item_coded, Item};
    use codense_core::huffcode::HuffCode;
    use codense_core::nibbles::NibbleReader;
    let huff = if image.encoding == EncodingKind::Huffman {
        Some(
            HuffCode::from_nibble_lengths(image.huffman_lengths.clone())
                .ok_or("corrupt huffman code-length table in container")?,
        )
    } else {
        None
    };
    let isa = isa_ref(image.isa);
    let mut r = NibbleReader::new(&image.image);
    let mut index = 0usize;
    let mut shown = 0usize;
    while r.pos() < image.total_nibbles && shown < count {
        let at = r.pos();
        let Some(item) = read_item_coded(image.encoding, isa, huff.as_ref(), &mut r) else {
            break;
        };
        if index >= skip_items {
            match item {
                Item::Insn(word) => println!("{at:7}:  {}", isa.disassemble(word, 0)),
                Item::Codeword(rank) => {
                    let words = image
                        .dictionary_by_rank
                        .get(rank as usize)
                        .ok_or_else(|| format!("stream references unknown rank {rank}"))?;
                    let expansion: Vec<String> =
                        words.iter().map(|&w| isa.disassemble(w, 0)).collect();
                    println!("{at:7}:  CODEWORD #{rank}  => {}", expansion.join("; "));
                }
            }
            shown += 1;
        }
        index += 1;
    }
    Ok(())
}

fn cmd_compress(args: &Args) -> CliResult {
    let path = args.positional(0).ok_or("compress: missing input .cdm")?;
    let encoding = parse_encoding(args.value("--encoding").unwrap_or("nibble"))?;
    let mut config = CompressionConfig {
        max_entry_len: parse_max_entry(args)?,
        max_codewords: encoding.capacity(),
        encoding,
    };
    if let Some(v) = args.value("--max-codewords") {
        config.max_codewords = v.parse().map_err(|_| "bad --max-codewords")?;
    }
    let out_path = args
        .value("-o")
        .map(str::to_owned)
        .unwrap_or_else(|| format!("{}.cdns", path.trim_end_matches(".cdm")));
    let selector = parse_selector(args)?;

    let m = load_module(path)?;
    let compressed = Compressor::new(config)
        .with_isa(isa_ref(m.isa))
        .with_selector(selector)
        .compress(&m)
        .map_err(|e| e.to_string())?;
    verify(&m, &compressed).map_err(|e| format!("verification failed: {e}"))?;
    std::fs::write(&out_path, container::serialize(&compressed))
        .map_err(|e| format!("{out_path}: {e}"))?;
    // Every part of the compressed size, so the parts add up to the
    // footprint `info` reports; `ratio` stays last.
    let mut parts = format!(
        "{} text bytes + {} dictionary bytes ({} entries)",
        compressed.text_bytes(),
        compressed.dictionary_bytes(),
        compressed.dictionary.len()
    );
    for (bytes, what) in [
        (compressed.huffman_table_bytes(), "Huffman-table"),
        (compressed.overflow_table_bytes(), "overflow-table"),
    ] {
        if bytes > 0 {
            parts.push_str(&format!(" + {bytes} {what} bytes"));
        }
    }
    println!(
        "{out_path}: {} -> {parts}, ratio {:.1}%",
        m.text_bytes(),
        100.0 * compressed.compression_ratio(),
    );
    if !compressed.overflow_table.is_empty() {
        println!(
            "  {} branch(es) rewritten through the overflow table",
            compressed.overflow_table.len()
        );
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> CliResult {
    let path = args.positional(0).ok_or("analyze: missing file")?;
    let m = load_module(path)?;
    let p = codense_core::analysis::encoding_profile(&m);
    println!("`{}`: {} instructions, {} distinct encodings", m.name, p.total_insns, p.distinct);
    println!(
        "  encodings used once  : {} insns ({:.1}%)",
        p.used_once_insns,
        100.0 * p.used_once_fraction()
    );
    let u = codense_core::analysis::branch_offset_usage(&m, isa_ref(m.isa));
    println!("  PC-relative branches : {}", u.total);
    let pct = u.percentages();
    println!(
        "  too narrow @2B/1B/4b : {}/{}/{} ({:.2}%/{:.2}%/{:.2}%)",
        u.too_narrow_2byte, u.too_narrow_1byte, u.too_narrow_4bit, pct[0], pct[1], pct[2]
    );
    let pe = codense_core::analysis::prologue_epilogue(&m);
    println!(
        "  prologue/epilogue    : {:.1}% / {:.1}% of program",
        pe.prologue_pct(),
        pe.epilogue_pct()
    );
    let lzw = codense_lzw::compressed_size(&m.text_image());
    println!(
        "  LZW bound            : {} bytes ({:.1}%)",
        lzw,
        100.0 * lzw as f64 / m.text_bytes() as f64
    );
    Ok(())
}

/// Two-pass textual assembler over the selected backend's `parse` module:
/// pass 1 assigns label addresses, pass 2 substitutes them into branch
/// targets. `--isa` picks the backend (default `ppc`).
fn cmd_asm(args: &Args) -> CliResult {
    let path = args.positional(0).ok_or("asm: missing input .s file")?;
    let isa = parse_isa(args)?;
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;

    // Pass 1: strip comments/labels, record label -> instruction index.
    let mut labels = std::collections::HashMap::new();
    let mut lines: Vec<(usize, String)> = Vec::new(); // (source line no, text)
    for (no, raw) in source.lines().enumerate() {
        let mut line = raw;
        if let Some(hash) = line.find('#') {
            line = &line[..hash];
        }
        let mut rest = line.trim();
        while let Some(colon) = rest.find(':') {
            let (label, tail) = rest.split_at(colon);
            let label = label.trim();
            if label.is_empty() || label.contains(char::is_whitespace) {
                break;
            }
            if labels.insert(label.to_string(), lines.len()).is_some() {
                return Err(format!("{path}:{}: duplicate label `{label}`", no + 1));
            }
            rest = tail[1..].trim();
        }
        if !rest.is_empty() {
            lines.push((no + 1, rest.to_string()));
        }
    }

    // Pass 2: substitute label operands with absolute hex addresses, parse.
    // Both backends print and parse branch targets as absolute *byte*
    // addresses of fixed-width instructions.
    let insn_bytes = codense_isa::INSN_BYTES;
    let parse_encode = |text: &str, addr: u32| -> Result<u32, String> {
        match isa {
            IsaId::Ppc => codense_ppc::parse::parse_insn(text, addr)
                .map(|i| codense_ppc::encode(&i))
                .map_err(|e| e.to_string()),
            IsaId::Mips => codense_mips::parse::parse_insn(text, addr)
                .map(|i| codense_mips::encode(&i))
                .map_err(|e| e.to_string()),
        }
    };
    let mut code = Vec::with_capacity(lines.len());
    for (idx, (no, text)) in lines.iter().enumerate() {
        let substituted: String = {
            let (mnemonic, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
            let ops: Vec<String> = rest
                .split(',')
                .map(|op| {
                    let op = op.trim();
                    match labels.get(op) {
                        Some(&target) => format!("{:08x}", insn_bytes * target as u32),
                        None => op.to_string(),
                    }
                })
                .collect();
            if rest.trim().is_empty() {
                mnemonic.to_string()
            } else {
                format!("{mnemonic} {}", ops.join(","))
            }
        };
        let word = parse_encode(&substituted, insn_bytes * idx as u32)
            .map_err(|e| format!("{path}:{no}: {e}"))?;
        code.push(word);
    }

    let stem = path.trim_end_matches(".s");
    let out_path = args.value("-o").map(str::to_owned).unwrap_or_else(|| format!("{stem}.cdm"));
    let mut module = ObjectModule::new(
        std::path::Path::new(stem)
            .file_name()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| "module".to_owned()),
        isa,
    );
    module.code = code;
    module.validate_with(isa_ref(isa)).map_err(|e| format!("{path}: invalid program: {e}"))?;
    std::fs::write(&out_path, codense_obj::serialize(&module))
        .map_err(|e| format!("{out_path}: {e}"))?;
    println!("{out_path}: {} instructions", module.len());
    Ok(())
}

/// One `repro` table row: benchmark name, instruction count, text bytes,
/// ratio per encoding in [`EncodingKind::ALL`] order, the table's column
/// order (the JSON artifacts sort keys alphabetically on their own).
type ReproRow = (String, usize, usize, [f64; 4]);

/// Generates the suite for one backend and compresses every benchmark
/// under all four encodings with the given selector, verifying each result.
fn repro_rows(
    isa: IsaId,
    bench_filter: Option<&str>,
    selector: SelectorKind,
) -> Result<Vec<ReproRow>, String> {
    use codense_core::telemetry;
    let profiles: Vec<_> = codense_codegen::spec_profiles()
        .into_iter()
        .filter(|p| bench_filter.is_none_or(|b| p.name == b))
        .collect();
    if profiles.is_empty() {
        return Err(format!("repro: unknown benchmark `{}`", bench_filter.unwrap_or("")));
    }
    let modules: Vec<ObjectModule> = {
        let _phase = telemetry::phase("suite-gen");
        codense_core::parallel::par_map(profiles, move |_, p| {
            codense_codegen::generate_module(&p, isa, LowerOptions::default())
        })
    };

    let _compress_phase = telemetry::phase("compress-suite");
    codense_core::parallel::par_map(modules, move |_, m| repro_row(m.name.clone(), &m, selector))
        .into_iter()
        .collect::<Result<_, _>>()
}

/// Compresses `m` under all four encodings with `selector` and the ISA it
/// records, verifying each result: the `repro` row called `name`.
fn repro_row(name: String, m: &ObjectModule, selector: SelectorKind) -> Result<ReproRow, String> {
    let mut ratios = [0.0f64; 4];
    for (ratio, encoding) in ratios.iter_mut().zip(EncodingKind::ALL) {
        let config =
            CompressionConfig { max_entry_len: 4, max_codewords: encoding.capacity(), encoding };
        let c = Compressor::new(config)
            .with_isa(isa_ref(m.isa))
            .with_selector(selector)
            .compress(m)
            .map_err(|e| format!("{name}: {e}"))?;
        verify(m, &c).map_err(|e| format!("{name} ({}): {e}", encoding.name()))?;
        *ratio = c.compression_ratio();
    }
    Ok((name, m.len(), m.text_bytes(), ratios))
}

fn print_repro_row((name, insns, bytes, r): &ReproRow) {
    println!(
        "{name:<10} {insns:>7} {bytes:>8} {:>8.1}% {:>7.1}% {:>6.1}% {:>7.1}%",
        100.0 * r[0],
        100.0 * r[1],
        100.0 * r[2],
        100.0 * r[3]
    );
}

fn print_repro_table(rows: &[ReproRow]) {
    println!(
        "{:<10} {:>7} {:>8} {:>9} {:>8} {:>7} {:>8}",
        "bench", "insns", "bytes", "baseline", "onebyte", "nibble", "huffman"
    );
    let mut mean = [0.0f64; 4];
    for row in rows {
        print_repro_row(row);
        for (m, r) in mean.iter_mut().zip(row.3) {
            *m += r;
        }
    }
    let n = rows.len() as f64;
    println!(
        "{:<10} {:>7} {:>8} {:>8.1}% {:>7.1}% {:>6.1}% {:>7.1}%",
        "average",
        "",
        "",
        100.0 * mean[0] / n,
        100.0 * mean[1] / n,
        100.0 * mean[2] / n,
        100.0 * mean[3] / n
    );
}

/// `"key": value` pairs as one JSON object, keys sorted as every artifact
/// sorts them.
fn json_object(mut fields: Vec<(&str, String)>) -> String {
    fields.sort_by_key(|&(key, _)| key);
    let fields: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{ {} }}", fields.join(", "))
}

/// A row's ratios keyed by encoding name.
fn ratio_fields(ratios: &[f64; 4]) -> Vec<(&'static str, String)> {
    EncodingKind::ALL.iter().zip(ratios).map(|(k, r)| (k.name(), format!("{r:.4}"))).collect()
}

/// Appends one artifact cell indented by `pad`: a `"benches"` object with
/// one line per benchmark, by name (with its sizes when `sizes`), then the
/// per-encoding `"mean"`.
fn push_cell(json: &mut String, pad: &str, rows: &[ReproRow], sizes: bool) {
    let mut rows: Vec<_> = rows.to_vec();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    json.push_str(&format!("{pad}\"benches\": {{\n"));
    let mut mean = [0.0f64; 4];
    for (bi, (name, insns, bytes, r)) in rows.iter().enumerate() {
        let mut fields = ratio_fields(r);
        if sizes {
            fields.extend([("insns", insns.to_string()), ("text_bytes", bytes.to_string())]);
        }
        let comma = if bi + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!("{pad}  \"{name}\": {}{comma}\n", json_object(fields)));
        for (m, x) in mean.iter_mut().zip(r) {
            *m += x;
        }
    }
    let n = rows.len() as f64;
    let mean = json_object(ratio_fields(&mean.map(|m| m / n)));
    json.push_str(&format!("{pad}}},\n{pad}\"mean\": {mean}\n"));
}

/// Renders the schema-1 `BENCH_isa.json` cross-ISA density artifact:
/// sorted-key JSON with per-benchmark ratios and per-ISA means for both
/// backends under all four encodings (greedy selector).
fn render_isa_artifact(per_isa: &[(&str, &[ReproRow])]) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"isas\": {\n");
    let mut isas: Vec<_> = per_isa.to_vec();
    isas.sort_by_key(|(name, _)| *name);
    for (ii, (isa, rows)) in isas.iter().enumerate() {
        let isa_comma = if ii + 1 < isas.len() { "," } else { "" };
        json.push_str(&format!("    \"{isa}\": {{\n"));
        push_cell(&mut json, "      ", rows, true);
        json.push_str(&format!("    }}{isa_comma}\n"));
    }
    json.push_str("  },\n  \"schema\": 1\n}\n");
    json
}

/// One ISA's column of the ratio artifact: repro rows per selector.
type SelectorCells<'a> = [(SelectorKind, &'a [ReproRow]); 2];

/// Renders the schema-1 `BENCH_ratio.json` selector-trajectory artifact:
/// per-benchmark compression ratios for both ISAs under every
/// selector × encoding cell, with per-cell means. The checked-in copy is
/// the ratio-regression baseline in `scripts/verify.sh` and documents that
/// the refinement selector beats greedy (ISSUE 9's acceptance bar:
/// refine+huffman mean < greedy+nibble mean on at least one ISA).
fn render_ratio_artifact(per_isa: &[(&str, SelectorCells)]) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"isas\": {\n");
    let mut isas: Vec<_> = per_isa.to_vec();
    isas.sort_by_key(|(name, _)| *name);
    for (ii, (isa, selectors)) in isas.iter().enumerate() {
        let isa_comma = if ii + 1 < isas.len() { "," } else { "" };
        json.push_str(&format!("    \"{isa}\": {{\n"));
        let mut selectors = *selectors;
        selectors.sort_by_key(|(s, _)| s.name());
        for (si, (selector, rows)) in selectors.iter().enumerate() {
            let sel_comma = if si + 1 < selectors.len() { "," } else { "" };
            json.push_str(&format!("      \"{}\": {{\n", selector.name()));
            push_cell(&mut json, "        ", rows, false);
            json.push_str(&format!("      }}{sel_comma}\n"));
        }
        json.push_str(&format!("    }}{isa_comma}\n"));
    }
    json.push_str("  },\n  \"schema\": 1\n}\n");
    json
}

/// The paper's headline experiment: regenerate the deterministic synthetic
/// suite, compress every benchmark under all four encodings, verify each
/// result, and print the ratio table.
fn cmd_repro(args: &Args) -> CliResult {
    let bench_filter = args.value("--bench");
    let show: Vec<IsaId> = match args.value("--isa").unwrap_or("ppc") {
        "both" => IsaId::ALL.to_vec(),
        name => vec![IsaId::from_name(name)
            .ok_or_else(|| format!("unknown ISA `{name}` (ppc|mips|both)"))?],
    };
    let out_path = args.value("--out");
    let ratio_path = args.value("--ratio-out");
    let selector = parse_selector(args)?;

    // (isa, selector) → rows, computed lazily so the table, the isa
    // artifact (always greedy), and the ratio artifact (both selectors)
    // share work.
    let mut computed: Vec<((IsaId, SelectorKind), Vec<ReproRow>)> = Vec::new();
    fn rows_for<'a>(
        computed: &'a mut Vec<((IsaId, SelectorKind), Vec<ReproRow>)>,
        isa: IsaId,
        selector: SelectorKind,
        bench_filter: Option<&str>,
    ) -> Result<&'a [ReproRow], String> {
        if let Some(i) = computed.iter().position(|(k, _)| *k == (isa, selector)) {
            return Ok(&computed[i].1);
        }
        let rows = repro_rows(isa, bench_filter, selector)?;
        computed.push(((isa, selector), rows));
        Ok(&computed.last().expect("just pushed").1)
    }

    let corpus_insns = corpus::corpus_arg(args)?;
    for &isa in &show {
        let rows = rows_for(&mut computed, isa, selector, bench_filter)?;
        // The single-ISA default output is the historical table, unchanged.
        if show.len() > 1 || isa != IsaId::Ppc {
            println!("isa: {isa}");
        }
        if selector != SelectorKind::Greedy {
            println!("selector: refine");
        }
        print_repro_table(rows);
        // The corpus scale point rides along in the printed table only; the
        // blessed artifacts carry the fixed suite.
        if let Some(n) = corpus_insns {
            let p = corpus::corpus_program(args, n, isa)?;
            print_repro_row(&repro_row(corpus::corpus_name(p.spec.insns), &p.module, selector)?);
        }
    }

    // The isa artifact is the cross-ISA comparison: it always carries both
    // backends under the greedy selector, computing whatever the table
    // display didn't need.
    if let Some(path) = out_path {
        for isa in IsaId::ALL {
            rows_for(&mut computed, isa, SelectorKind::Greedy, bench_filter)?;
        }
        let per_isa: Vec<(&str, &[ReproRow])> = computed
            .iter()
            .filter(|((_, s), _)| *s == SelectorKind::Greedy)
            .map(|((i, _), r)| (i.name(), r.as_slice()))
            .collect();
        let json = render_isa_artifact(&per_isa);
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: {} isa(s)", per_isa.len());
    }

    // The ratio artifact carries the full isa × selector × encoding grid.
    if let Some(path) = ratio_path {
        for isa in IsaId::ALL {
            for s in SelectorKind::ALL {
                rows_for(&mut computed, isa, s, bench_filter)?;
            }
        }
        let cell = |isa: IsaId, s: SelectorKind| -> &[ReproRow] {
            computed
                .iter()
                .find(|((i, cs), _)| *i == isa && *cs == s)
                .map(|(_, r)| r.as_slice())
                .expect("computed above")
        };
        let per_isa: Vec<(&str, SelectorCells)> = IsaId::ALL
            .into_iter()
            .map(|isa| (isa.name(), SelectorKind::ALL.map(|s| (s, cell(isa, s)))))
            .collect();
        let json = render_ratio_artifact(&per_isa);
        std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: {} isa(s) x 2 selectors", per_isa.len());
    }
    Ok(())
}

/// Parameter sweeps behind Figures 4-8 on one benchmark.
fn cmd_sweep(args: &Args) -> CliResult {
    use codense_core::{sweep, telemetry};
    let bench = args.value("--bench").unwrap_or("compress");
    let isa = parse_isa(args)?;
    let selector = parse_selector(args)?;
    let module = match corpus::corpus_arg(args)? {
        Some(n) => corpus::corpus_program(args, n, isa)?.module,
        None => codense_codegen::benchmark(bench, isa)
            .ok_or_else(|| format!("unknown benchmark `{bench}`"))?,
    };
    let isa = isa_ref(module.isa);
    println!("sweeps on `{}` ({} insns, {} bytes)", module.name, module.len(), module.text_bytes());
    if selector != SelectorKind::Greedy {
        println!("selector: refine");
    }
    // Refinement invalidates the greedy pick-log prefix shortcut the core
    // sweeps lean on, so the refine path recompresses every point honestly.
    let ratio_at = |config: CompressionConfig| -> Result<f64, String> {
        let c = Compressor::new(config)
            .with_isa(isa)
            .with_selector(selector)
            .compress(&module)
            .map_err(|e| e.to_string())?;
        Ok(c.compression_ratio())
    };

    {
        let _phase = telemetry::phase("sweep-entry-len");
        let lens = [1usize, 2, 3, 4, 6, 8];
        let points: Vec<(usize, f64)> = match selector {
            SelectorKind::Greedy => {
                sweep::entry_len_sweep_with_isa(&module, isa, &lens).map_err(|e| e.to_string())?
            }
            SelectorKind::Refine => lens
                .iter()
                .map(|&l| {
                    let kind = EncodingKind::Baseline;
                    let config = CompressionConfig {
                        max_entry_len: l,
                        max_codewords: kind.capacity(),
                        encoding: kind,
                    };
                    Ok((l, ratio_at(config)?))
                })
                .collect::<Result<_, String>>()?,
        };
        println!("max entry length (Fig 4):");
        for (l, ratio) in points {
            println!("  {l:>2} insns: {:.1}%", 100.0 * ratio);
        }
    }
    {
        let _phase = telemetry::phase("sweep-codewords");
        let counts = [16usize, 64, 256, 1024, 4096, 8192];
        let points: Vec<(usize, f64)> = match selector {
            SelectorKind::Greedy => sweep::codeword_count_sweep_with_isa(&module, isa, 4, &counts)
                .map_err(|e| e.to_string())?,
            SelectorKind::Refine => counts
                .iter()
                .map(|&k| {
                    let config = CompressionConfig {
                        max_entry_len: 4,
                        max_codewords: k,
                        encoding: EncodingKind::Baseline,
                    };
                    Ok((k, ratio_at(config)?))
                })
                .collect::<Result<_, String>>()?,
        };
        println!("codeword count (Fig 5):");
        for (k, ratio) in points {
            println!("  {k:>5} codewords: {:.1}%", 100.0 * ratio);
        }
    }
    {
        let _phase = telemetry::phase("sweep-small-dict");
        let counts = [16usize, 32, 64, 128, 256];
        let points: Vec<(usize, f64)> = match selector {
            SelectorKind::Greedy => sweep::small_dictionary_sweep_with_isa(&module, isa, &counts)
                .map_err(|e| e.to_string())?,
            SelectorKind::Refine => counts
                .iter()
                .map(|&n| Ok((n, ratio_at(CompressionConfig::small_dictionary(n))?)))
                .collect::<Result<_, String>>()?,
        };
        println!("small dictionaries, 1-byte codewords (Fig 8):");
        for (n, ratio) in points {
            println!("  {n:>4} entries: {:.1}%", 100.0 * ratio);
        }
    }
    Ok(())
}

/// Profiles the kernel benchmark suite and renders the schema-1 artifact.
fn cmd_profile(args: &Args) -> CliResult {
    use codense_profile::{bench, collect, render_profiles_json, Subject};
    let encoding_name = args.value("--encoding").unwrap_or("nibble");
    let encoding = parse_encoding(encoding_name)?;
    let max_steps: u64 = match args.value("--max-steps") {
        Some(v) => v.parse().map_err(|_| "bad --max-steps")?,
        None => 10_000_000,
    };
    let subjects: Vec<Subject> = match (corpus::corpus_arg(args)?, args.value("--bench")) {
        (Some(_), Some(_)) => return Err("profile: --corpus and --bench conflict".into()),
        (Some(n), None) => {
            vec![corpus::corpus_subject(&corpus::corpus_program(args, n, IsaId::Ppc)?)?]
        }
        (None, Some(name)) => {
            vec![Subject::from_kernel(
                &bench::bench(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?,
            )]
        }
        (None, None) => bench::benches().iter().map(Subject::from_kernel).collect(),
    };
    let profiles = codense_core::parallel::par_map(subjects, |_, s| {
        collect(&s, encoding, max_steps).map_err(|e| format!("{}: {e}", s.name))
    })
    .into_iter()
    .collect::<Result<Vec<_>, _>>()?;
    let json = render_profiles_json(&profiles, encoding_name);
    match args.value("--out") {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            for p in &profiles {
                println!(
                    "{:<12} {:>6} insns, {:>7} steps, {:>3} blocks executed of {}",
                    p.bench,
                    p.insns,
                    p.steps,
                    p.blocks.iter().filter(|b| b.weight > 0).count(),
                    p.blocks.len()
                );
            }
            println!("{path}: {} profile(s), encoding {encoding_name}", profiles.len());
        }
        None => print!("{json}"),
    }
    Ok(())
}

/// One profile-guided hybrid compression with full-trace validation.
fn cmd_hybrid(args: &Args) -> CliResult {
    use codense_fuzz::oracle::{lockstep, LockstepOk, TraceMask};
    use codense_profile::{
        bench, collect, hot_mask, score_compressed, score_native, CostParams, HotnessPolicy,
        Subject,
    };
    let name = args.value("--bench").ok_or("hybrid: missing --bench NAME")?;
    let kernel = bench::bench(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let subject = Subject::from_kernel(&kernel);
    let encoding = parse_encoding(args.value("--encoding").unwrap_or("nibble"))?;
    let max_steps: u64 = match args.value("--max-steps") {
        Some(v) => v.parse().map_err(|_| "bad --max-steps")?,
        None => 10_000_000,
    };
    let policy = match (args.value("--coverage"), args.value("--threshold")) {
        (Some(_), Some(_)) => return Err("hybrid: --coverage and --threshold conflict".into()),
        (Some(v), None) => {
            let f: f64 = v.parse().map_err(|_| "bad --coverage")?;
            if !(0.0..=1.0).contains(&f) {
                return Err(format!("bad --coverage `{v}` (expected 0.0..=1.0)"));
            }
            HotnessPolicy::TopCoverage(f)
        }
        (None, Some(v)) => HotnessPolicy::Threshold(v.parse().map_err(|_| "bad --threshold")?),
        (None, None) => HotnessPolicy::TopCoverage(0.5),
    };
    let cost = CostParams::default();

    let profile = collect(&subject, encoding, max_steps).map_err(|e| e.to_string())?;
    let mask = hot_mask(&profile, policy);
    let config =
        CompressionConfig { max_entry_len: 4, max_codewords: encoding.capacity(), encoding };
    let full =
        Compressor::new(config.clone()).compress(&kernel.module).map_err(|e| e.to_string())?;
    let hybrid = Compressor::new(config)
        .compress_masked(&kernel.module, &mask.exempt)
        .map_err(|e| e.to_string())?;
    verify(&kernel.module, &hybrid).map_err(|e| format!("verification failed: {e}"))?;

    // Full-trace equivalence, not just matching exit codes.
    let trace_mask =
        TraceMask { skip_gprs: 1 << 0, mem_skip: std::iter::once(0xE0000..1 << 20).collect() };
    let boot = || Box::new(kernel.machine());
    let got = lockstep(&kernel.module, &hybrid, &[], &boot, &trace_mask, max_steps)
        .map_err(|d| format!("hybrid image diverged from native: {d}"))?;
    if got != (LockstepOk::Completed { steps: profile.steps, exit: kernel.expected }) {
        return Err(format!("hybrid lockstep ended unexpectedly: {got:?}"));
    }

    let native = score_native(&subject, &cost, max_steps).map_err(|e| e.to_string())?;
    let full_score =
        score_compressed(&subject, &full, &cost, max_steps).map_err(|e| e.to_string())?;
    let hybrid_score =
        score_compressed(&subject, &hybrid, &cost, max_steps).map_err(|e| e.to_string())?;

    println!(
        "{name}: {} insns, {} steps, lockstep ok ({})",
        profile.insns,
        profile.steps,
        encoding.name()
    );
    println!(
        "  hot: {} of {} blocks, {} of {} insns exempt",
        mask.hot_block_count(),
        profile.blocks.len(),
        mask.exempt_insn_count(),
        profile.insns
    );
    println!("  {:<8} {:>8} {:>9}", "image", "cycles", "ratio");
    println!("  {:<8} {:>8} {:>8.1}%", "native", native.cycles, 100.0);
    println!("  {:<8} {:>8} {:>8.1}%", "full", full_score.cycles, 100.0 * full.compression_ratio());
    println!(
        "  {:<8} {:>8} {:>8.1}%",
        "hybrid",
        hybrid_score.cycles,
        100.0 * hybrid.compression_ratio()
    );
    Ok(())
}

/// The whole-suite coverage sweep behind `BENCH_hybrid.json`.
fn cmd_hybrid_sweep(args: &Args) -> CliResult {
    use codense_profile::{bench, hybrid_sweep, render_bench_json, HybridOptions, Subject};
    let encoding_name = args.value("--encoding").unwrap_or("nibble");
    let options =
        HybridOptions { encoding: parse_encoding(encoding_name)?, ..HybridOptions::default() };
    let out_path = args.value("--out").unwrap_or("BENCH_hybrid.json");
    let mut subjects: Vec<Subject> = bench::benches().iter().map(Subject::from_kernel).collect();
    // An optional corpus scale point joins the sweep; the blessed
    // BENCH_hybrid.json is generated without it.
    if let Some(n) = corpus::corpus_arg(args)? {
        subjects.push(corpus::corpus_subject(&corpus::corpus_program(args, n, IsaId::Ppc)?)?);
    }
    let results = hybrid_sweep(&subjects, &options).map_err(|e| e.to_string())?;
    let json = render_bench_json(&results, encoding_name, &options.cost);
    std::fs::write(out_path, &json).map_err(|e| format!("{out_path}: {e}"))?;
    println!("{:<12} {:>7} {:>8} {:>8}  best mid-range point", "bench", "native", "full", "ratio");
    for r in &results {
        let best =
            r.points.iter().filter(|p| p.coverage > 0.0 && p.coverage < 1.0).max_by(|a, b| {
                (a.recovered_pct.min(100.0) + a.retained_pct.min(100.0))
                    .total_cmp(&(b.recovered_pct.min(100.0) + b.retained_pct.min(100.0)))
            });
        match best {
            Some(p) => println!(
                "{:<12} {:>7} {:>8} {:>7.1}%  cov {:.2}: {} cycles, {:.1}% recovered, {:.1}% size kept",
                r.bench,
                r.native_cycles,
                r.full_cycles,
                100.0 * r.full_ratio,
                p.coverage,
                p.cycles,
                p.recovered_pct,
                p.retained_pct
            ),
            None => println!("{:<12} {:>7} {:>8} {:>7.1}%", r.bench, r.native_cycles, r.full_cycles, 100.0 * r.full_ratio),
        }
    }
    println!("{out_path}: {} benches, encoding {encoding_name}", results.len());
    Ok(())
}

fn cmd_fuzz(args: &Args) -> CliResult {
    let mut opts = codense_fuzz::FuzzOptions::default();
    if let Some(v) = args.value("--cases") {
        opts.cases = v.parse().map_err(|_| "bad --cases")?;
    }
    if let Some(v) = args.value("--seed") {
        opts.seed = parse_seed(v)?;
    }
    if let Some(v) = args.value("--max-steps") {
        opts.max_steps = v.parse().map_err(|_| "bad --max-steps")?;
    }
    if let Some(v) = args.value("--fault-tries") {
        opts.fault_tries = v.parse().map_err(|_| "bad --fault-tries")?;
    }
    opts.hybrid = args.has("--hybrid");
    opts.isa = isa_ref(parse_isa(args)?);
    let report = codense_fuzz::run(&opts);
    println!("{}", report.render());
    if report.ok() {
        Ok(())
    } else {
        // The report already printed the failures; exit nonzero quietly.
        Err(format!("{} failure(s) found", report.failures))
    }
}

/// Parses a campaign seed in decimal or `0x` hex.
fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("bad --seed `{v}` (decimal or 0x hex)"))
}

fn cmd_run_kernel(args: &Args) -> CliResult {
    use codense_vm::{kernels, run::run, LinearFetcher, PredecodedFetcher};
    let name = args.positional(0).ok_or("run-kernel: missing kernel name (try `list`)")?;
    let all = kernels::all();
    if name == "list" {
        for k in &all {
            println!("{}", k.name);
        }
        return Ok(());
    }
    let kernel = all
        .iter()
        .find(|k| k.name == name)
        .ok_or_else(|| format!("unknown kernel `{name}` (try `list`)"))?;
    let encoding = args.value("--encoding").unwrap_or("nibble");

    let mut machine = kernel.machine();
    let result = if encoding == "none" {
        let mut fetch = LinearFetcher::new(kernel.module.code.clone());
        run(&mut machine, &mut fetch, 0, 100_000_000).map_err(|e| e.to_string())?
    } else {
        let kind = EncodingKind::from_name(encoding)
            .ok_or_else(|| format!("unknown encoding `{encoding}` ({}|none)", encodings()))?;
        let config =
            CompressionConfig { max_entry_len: 4, max_codewords: kind.capacity(), encoding: kind };
        let compressed =
            Compressor::new(config).compress(&kernel.module).map_err(|e| e.to_string())?;
        let mut fetch = PredecodedFetcher::new(&compressed);
        run(&mut machine, &mut fetch, 0, 100_000_000).map_err(|e| e.to_string())?
    };
    println!(
        "{name}: exit {} (expected {}), {} steps, {:.2} bits/insn fetched",
        result.exit_code,
        kernel.expected,
        result.steps,
        result.stats.bits_per_insn()
    );
    if result.exit_code != kernel.expected {
        return Err("kernel produced an unexpected result".into());
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> CliResult {
    let mut opts = codense_service::ServeOptions {
        addr: args.value("--addr").unwrap_or("127.0.0.1:0").to_owned(),
        jobs: codense_core::parallel::jobs(),
        ..Default::default()
    };
    if let Some(v) = args.value("--queue-depth") {
        opts.queue_depth = match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --queue-depth `{v}` (expected an integer >= 1)")),
        };
    }
    if let Some(v) = args.value("--timeout-ms") {
        opts.timeout_ms = match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --timeout-ms `{v}` (expected an integer >= 1)")),
        };
    }
    if let Some(v) = args.value("--cache-bytes") {
        opts.cache_bytes =
            v.parse().map_err(|_| format!("bad --cache-bytes `{v}` (expected an integer >= 0)"))?;
    }
    let handle = codense_service::serve(&opts).map_err(|e| format!("serve: {e}"))?;
    // Scripts parse this line to learn the ephemeral port; flush so it is
    // visible before the (blocking) join.
    println!("serving on {}", handle.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.join();
    println!("drained, exiting");
    Ok(())
}

fn cmd_loadgen(args: &Args) -> CliResult {
    let addr = args.value("--addr").ok_or("loadgen: missing --addr HOST:PORT")?;
    let corpus_insns = corpus::corpus_arg(args)?;
    let encoding = parse_encoding(args.value("--encoding").unwrap_or("nibble"))?;
    let selector = parse_selector(args)?;
    let max_entry_len: u16 = parse_max_entry(args)?;
    let mut opts = codense_service::LoadgenOptions { addr: addr.to_owned(), ..Default::default() };
    if let Some(v) = args.value("--requests") {
        opts.requests = v.parse().map_err(|_| "bad --requests")?;
    }
    if let Some(v) = args.value("--connections") {
        opts.connections = match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --connections `{v}` (expected an integer >= 1)")),
        };
    }
    if let Some(v) = args.value("--timeout-ms") {
        opts.timeout_ms = v.parse().map_err(|_| "bad --timeout-ms")?;
    }

    // --corpus swaps the toy benchmark for a SPEC-scale module, exercising
    // the server's frame streaming at multi-MiB request sizes (the
    // MAX_FRAME / TOO_LARGE boundary itself is pinned by protocol tests).
    let module = match corpus_insns {
        Some(n) => corpus::corpus_program(args, n, IsaId::Ppc)?.module,
        None => {
            let bench = args.value("--bench").unwrap_or("compress");
            codense_codegen::benchmark(bench, IsaId::Ppc)
                .ok_or_else(|| format!("unknown benchmark `{bench}`"))?
        }
    };
    let request = codense_service::CompressRequest {
        encoding,
        selector,
        max_entry_len,
        max_codewords: 0, // the encoding's full codeword space
        module: codense_obj::serialize(&module),
    };
    if corpus_insns.is_some() {
        println!(
            "corpus request: {} insns, {:.2} MiB serialized module",
            module.len(),
            request.module.len() as f64 / (1 << 20) as f64
        );
    }
    // The expected response, computed in process: every served result must
    // be byte-identical to it.
    let compressed = Compressor::new(request.config())
        .with_selector(request.selector)
        .compress(&module)
        .map_err(|e| format!("loadgen: in-process compression failed: {e}"))?;
    let expected = container::serialize(&compressed);

    let report = codense_service::run_loadgen(&opts, &request, &expected)
        .map_err(|e| format!("loadgen: {addr}: {e}"))?;

    // Snapshot the server's telemetry right after the run (and before any
    // --shutdown), for the determinism gate in scripts/verify.sh.
    if let Some(path) = args.value("--metrics-out") {
        let json = codense_service::Client::connect(addr, opts.timeout_ms)
            .map_err(|e| format!("loadgen: metrics: {e}"))?
            .metrics()
            .map_err(|e| format!("loadgen: metrics: {e}"))?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "{} ok, {} busy, {} failed; {:.1} req/s, p50 {} us, p99 {} us",
        report.ok,
        report.busy,
        report.failed,
        report.throughput_rps(),
        report.percentile_us(50.0),
        report.percentile_us(99.0),
    );

    if args.has("--shutdown") {
        codense_service::Client::connect(addr, opts.timeout_ms)
            .and_then(|mut c| c.shutdown().map_err(|e| std::io::Error::other(e.to_string())))
            .map_err(|e| format!("loadgen: shutdown: {e}"))?;
    }
    if report.failed > 0 {
        return Err(format!("{} request(s) failed", report.failed));
    }
    Ok(())
}
