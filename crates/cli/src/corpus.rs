//! The `codense corpus` subcommand plus the shared `--corpus N` plumbing
//! that lets `repro`, `sweep`, `profile`, `hybrid-sweep`, and `loadgen`
//! swap their toy benchmark for a SPEC-scale program from `codense-corpus`.

use std::time::Instant;

use codense_corpus::{build, CorpusIsa, CorpusProgram, CorpusSpec};
use codense_isa::IsaId;

use crate::{parse_seed, Args, CliResult};

/// Parses a human-scale instruction count: plain decimal, or with a
/// `k`/`m` suffix (`10k`, `250k`, `1m`).
pub fn parse_size(v: &str) -> Result<usize, String> {
    let (digits, mult) = match v.to_ascii_lowercase() {
        ref s if s.ends_with('k') => (s[..s.len() - 1].to_string(), 1_000),
        ref s if s.ends_with('m') => (s[..s.len() - 1].to_string(), 1_000_000),
        s => (s, 1),
    };
    match digits.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n * mult),
        _ => Err(format!("bad size `{v}` (expected an integer >= 1, k/m suffixes ok)")),
    }
}

/// Renders a size the way `parse_size` reads it (`10000` → `10k`).
pub fn format_size(n: usize) -> String {
    if n >= 1_000_000 && n.is_multiple_of(1_000_000) {
        format!("{}m", n / 1_000_000)
    } else if n >= 1_000 && n.is_multiple_of(1_000) {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}

/// The display/bench-key name of a corpus scale point.
pub fn corpus_name(insns: usize) -> String {
    format!("corpus-{}", format_size(insns))
}

/// Parses an optional `--corpus N` scale-point flag.
pub fn corpus_arg(args: &Args) -> Result<Option<usize>, String> {
    match args.value("--corpus") {
        Some(v) => parse_size(v).map(Some).map_err(|e| format!("--corpus: {e}")),
        None => Ok(None),
    }
}

/// A [`CorpusSpec`] for `insns` instructions with the shared knob flags
/// (`--dup`, `--seed`) applied.
fn spec_from_args(args: &Args, insns: usize) -> Result<CorpusSpec, String> {
    let mut spec = CorpusSpec { insns, ..CorpusSpec::default() };
    if let Some(v) = args.value("--dup") {
        spec.dup = match v.parse() {
            Ok(n) if n >= 1 => n,
            _ => return Err(format!("bad --dup `{v}` (expected an integer >= 1)")),
        };
    }
    if let Some(v) = args.value("--seed") {
        spec.seed = parse_seed(v)?;
    }
    Ok(spec)
}

fn corpus_isa(isa: IsaId) -> CorpusIsa {
    match isa {
        IsaId::Ppc => CorpusIsa::Ppc,
        IsaId::Mips => CorpusIsa::Mips,
    }
}

/// Builds the corpus program for `--corpus insns` on the given backend.
pub fn corpus_program(args: &Args, insns: usize, isa: IsaId) -> Result<CorpusProgram, String> {
    let spec = spec_from_args(args, insns)?;
    build(&spec, corpus_isa(isa)).map_err(|e| format!("{}: {e}", corpus_name(insns)))
}

/// Wraps a (PPC) corpus program as a profiling [`codense_profile::Subject`]:
/// no static init memory, jump tables seeded per fetch domain by the
/// subject, the corpus's 8 MiB data memory.
pub fn corpus_subject(p: &CorpusProgram) -> Result<codense_profile::Subject, String> {
    if p.isa != CorpusIsa::Ppc {
        return Err("corpus profiling subjects are PPC-only (the profiler's machine is)".into());
    }
    Ok(codense_profile::Subject {
        name: corpus_name(p.spec.insns),
        module: p.module.clone(),
        init_mem: Vec::new(),
        table_addrs: p.table_addrs.clone(),
        expected: p.stats.exit_code,
        mem_bytes: codense_corpus::MEM_BYTES,
    })
}

/// `codense corpus`: build one SPEC-scale program, print its measurements,
/// optionally write the module.
pub fn cmd_corpus(args: &Args) -> CliResult {
    let insns = match args.value("--insns") {
        Some(v) => parse_size(v)?,
        None => CorpusSpec::default().insns,
    };
    let isa = crate::parse_isa(args)?;
    let spec = spec_from_args(args, insns)?;
    let t0 = Instant::now();
    let p = build(&spec, corpus_isa(isa)).map_err(|e| format!("{}: {e}", corpus_name(insns)))?;
    let s = &p.stats;
    println!(
        "{} ({isa}, seed {:#x}): built in {:.1}s",
        corpus_name(insns),
        spec.seed,
        t0.elapsed().as_secs_f64()
    );
    println!("  modules      : {} ({} functions, dup {})", s.modules, s.functions, spec.dup);
    println!(
        "  instructions : {} static ({} bytes), {} dynamic",
        s.insns,
        p.module.text_bytes(),
        s.dynamic_insns
    );
    println!("  jump tables  : {} ({} dispatch passes)", s.jump_tables, s.passes);
    println!("  exit checksum: {:#010x}", s.exit_code);
    if let Some(path) = args.value("-o") {
        std::fs::write(path, codense_obj::serialize(&p.module))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: {} instructions", p.module.len());
    }
    Ok(())
}
