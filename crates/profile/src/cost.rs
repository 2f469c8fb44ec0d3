//! The cycle-level fetch performance model.
//!
//! The paper's §5 names the costs of compressed execution — dictionary
//! accesses to expand codewords, escape decoding, branching into a
//! nibble-aligned stream — without quantifying them. This module assigns
//! each fetch-path event a configurable cycle cost and adds I-cache miss
//! penalties from replaying the run's program-memory reference trace
//! through the `codense-cache` simulator:
//!
//! ```text
//! cycles = insns·native + escapes·escape + expanded·expand
//!        + realigns·realign + misses·miss_penalty
//! ```
//!
//! Every event count comes from a deterministic VM run, so scores are
//! byte-stable across thread counts.

use codense_cache::{replay, Cache, CacheConfig, FetchRef};
use codense_core::CompressedProgram;
use codense_vm::{run_traced, Fetch, LinearFetcher, Machine, PredecodedFetcher, RunResult};

use crate::collect::ProfileError;
use crate::subject::Subject;

/// Per-event cycle costs and the modeled I-cache geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Base cycles per delivered instruction (native and compressed alike).
    pub native_cycles: u64,
    /// Extra cycles to detect and strip an escape prefix.
    pub escape_cycles: u64,
    /// Extra cycles per instruction delivered from a dictionary expansion
    /// (the on-chip dictionary access the paper worries about).
    pub expand_cycles: u64,
    /// Extra cycles when a control transfer lands mid-word and the fetch
    /// unit must realign its nibble PC.
    pub realign_cycles: u64,
    /// Cycles per I-cache miss.
    pub miss_penalty: u64,
    /// Modeled I-cache geometry.
    pub cache: CacheConfig,
}

impl Default for CostParams {
    /// A small embedded front end: single-cycle fetch, free escape
    /// stripping (prefix detection folds into decode — the stated goal of
    /// the paper's escape-byte design), a 3-cycle dictionary expansion,
    /// 2-cycle realign, and a 1 KiB 2-way I-cache with a 20-cycle miss
    /// penalty.
    fn default() -> CostParams {
        CostParams {
            native_cycles: 1,
            escape_cycles: 0,
            expand_cycles: 3,
            realign_cycles: 2,
            miss_penalty: 20,
            cache: CacheConfig { size_bytes: 1024, line_bytes: 16, ways: 2 },
        }
    }
}

/// A scored run: the modeled cycle count plus every event that fed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Score {
    /// Total modeled cycles.
    pub cycles: u64,
    /// Instructions delivered to the core.
    pub insns: u64,
    /// Escape decodes (0 for native runs).
    pub escapes: u64,
    /// Instructions delivered from dictionary expansions.
    pub expanded_insns: u64,
    /// Nibble-PC realignments.
    pub realigns: u64,
    /// I-cache line accesses.
    pub cache_accesses: u64,
    /// I-cache misses.
    pub cache_misses: u64,
    /// Dynamic instruction count of the run.
    pub steps: u64,
    /// Exit code.
    pub exit: u32,
}

/// Fetch-path event counts of one run, before costing.
struct RunEvents {
    insns: u64,
    escapes: u64,
    expanded: u64,
    realigns: u64,
}

fn combine(params: &CostParams, ev: RunEvents, cache: &Cache, steps: u64, exit: u32) -> Score {
    let stats = cache.stats();
    Score {
        cycles: ev.insns * params.native_cycles
            + ev.escapes * params.escape_cycles
            + ev.expanded * params.expand_cycles
            + ev.realigns * params.realign_cycles
            + stats.misses * params.miss_penalty,
        insns: ev.insns,
        escapes: ev.escapes,
        expanded_insns: ev.expanded,
        realigns: ev.realigns,
        cache_accesses: stats.accesses,
        cache_misses: stats.misses,
        steps,
        exit,
    }
}

/// Runs `machine` over `fetch` from PC 0, checks the exit against
/// `subject`'s, and replays the program-memory references the run made
/// through an I-cache of the modeled geometry.
fn replayed_run(
    subject: &Subject,
    mut machine: Machine,
    fetch: &mut impl Fetch,
    params: &CostParams,
    max_steps: u64,
) -> Result<(RunResult, Cache), ProfileError> {
    let mut trace = Vec::new();
    let result = run_traced(&mut machine, fetch, 0, max_steps, |pc, f| {
        trace.push(FetchRef { nibble_addr: pc, nibbles: f.nibbles });
    })?;
    if result.exit_code != subject.expected {
        return Err(ProfileError::WrongExit { got: result.exit_code, want: subject.expected });
    }
    let mut cache = Cache::new(params.cache);
    replay(&trace, &mut cache);
    Ok((result, cache))
}

/// Scores the uncompressed run of a [`Subject`] under the cost model.
///
/// # Errors
///
/// [`ProfileError`] if the run faults, exceeds `max_steps`, or exits with
/// the wrong code.
pub fn score_native(
    subject: &Subject,
    params: &CostParams,
    max_steps: u64,
) -> Result<Score, ProfileError> {
    let mut fetch = LinearFetcher::new(subject.module.code.clone());
    let (result, cache) =
        replayed_run(subject, subject.machine_native(), &mut fetch, params, max_steps)?;
    let ev = RunEvents { insns: result.stats.insns, escapes: 0, expanded: 0, realigns: 0 };
    Ok(combine(params, ev, &cache, result.steps, result.exit_code))
}

/// Scores the run of a (possibly hybrid) compressed image under the cost
/// model. `subject` supplies the initial machine state and expected exit;
/// the machine is seeded with the *image's* jump-table values, so corpus
/// dispatch loops branch to valid compressed-domain addresses.
///
/// # Errors
///
/// [`ProfileError`] if the run faults, exceeds `max_steps`, or exits with
/// the wrong code.
pub fn score_compressed(
    subject: &Subject,
    program: &CompressedProgram,
    params: &CostParams,
    max_steps: u64,
) -> Result<Score, ProfileError> {
    let mut fetch = PredecodedFetcher::new(program);
    let machine = subject.machine_compressed(program);
    let (result, cache) = replayed_run(subject, machine, &mut fetch, params, max_steps)?;
    let stats = result.stats;
    let ev = RunEvents {
        insns: stats.insns,
        escapes: stats.insns - stats.expanded_insns,
        expanded: stats.expanded_insns,
        realigns: stats.realigns,
    };
    Ok(combine(params, ev, &cache, result.steps, result.exit_code))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;
    use codense_core::{CompressionConfig, Compressor};

    #[test]
    fn native_score_is_pure_fetch_plus_misses() {
        let sum_array = Subject::from_kernel(&bench::bench("sum_array").unwrap());
        let params = CostParams::default();
        let s = score_native(&sum_array, &params, 1_000_000).unwrap();
        assert_eq!(s.escapes, 0);
        assert_eq!(s.expanded_insns, 0);
        assert_eq!(s.realigns, 0);
        assert_eq!(s.insns, s.steps);
        assert_eq!(s.cycles, s.insns * params.native_cycles + s.cache_misses * params.miss_penalty);
    }

    #[test]
    fn compressed_run_costs_more_cycles_per_insn() {
        let fib = Subject::from_kernel(&bench::bench("fib").unwrap());
        let params = CostParams::default();
        let native = score_native(&fib, &params, 1_000_000).unwrap();
        let compressed =
            Compressor::new(CompressionConfig::nibble_aligned()).compress(&fib.module).unwrap();
        let s = score_compressed(&fib, &compressed, &params, 1_000_000).unwrap();
        assert_eq!(s.steps, native.steps);
        assert_eq!(s.escapes + s.expanded_insns, s.insns);
        assert!(s.cycles > native.cycles, "{} <= {}", s.cycles, native.cycles);
    }
}
