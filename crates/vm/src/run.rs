//! The execution loops gluing a [`Core`] to a fetch engine: the generic
//! per-step loop over any [`Fetch`] ([`run_traced`]; [`run`] is the same
//! loop with no observer) and the threaded-dispatch loop over the
//! [`PredecodedFetcher`] ([`run_predecoded`]) that makes SPEC-scale corpus
//! programs runnable. Both loops give byte-exact results, [`FetchStats`]
//! and telemetry on the same compressed program.

use crate::fetch::{Fetch, FetchStats, PredecodedFetcher, RunCounters};
use crate::machine::{Core, MachineError, Outcome};
use codense_isa::PredecodeCore;

/// Result of a completed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// The core's exit value at the halt (`r3` on PowerPC, `$v0` on MIPS).
    pub exit_code: u32,
    /// Instructions executed (including the halting one).
    pub steps: u64,
    /// Final fetch counters.
    pub stats: FetchStats,
}

/// Runs until the core halts or the step budget is exhausted.
///
/// # Errors
///
/// Propagates any [`MachineError`]; [`MachineError::StepLimit`] if the
/// program does not halt within `max_steps`.
pub fn run(
    core: &mut dyn Core,
    fetch: &mut dyn Fetch,
    entry: u64,
    max_steps: u64,
) -> Result<RunResult, MachineError> {
    run_traced(core, fetch, entry, max_steps, |_, _| {})
}

/// Like [`run`], invoking `observer` before each executed instruction with
/// `(pc, word)` — the debugging/tracing hook (`codense-cache`'s
/// `TracingFetch` is the memory-reference counterpart).
///
/// # Errors
///
/// Same as [`run`].
pub fn run_traced(
    core: &mut dyn Core,
    fetch: &mut dyn Fetch,
    entry: u64,
    max_steps: u64,
    mut observer: impl FnMut(u64, u32),
) -> Result<RunResult, MachineError> {
    let mut pc = entry;
    for step in 0..max_steps {
        let fetched = fetch.fetch(pc)?;
        observer(pc, fetched.word);
        match core.step_word(fetched.word, pc, fetched.next_pc, fetch.granule())? {
            Outcome::Next => pc = fetched.next_pc,
            Outcome::Branch(target) => pc = target,
            Outcome::Halt => {
                return Ok(RunResult {
                    exit_code: core.exit_code(),
                    steps: step + 1,
                    stats: fetch.stats(),
                })
            }
        }
    }
    Err(MachineError::StepLimit)
}

/// The predecoded threaded-dispatch loop: [`run`] semantics at a fraction
/// of the per-step cost.
///
/// Two costs are hoisted out of the step cycle relative to [`run`] over
/// the same fetcher's [`Fetch`] impl (which already replays parsed items
/// from the shared decoded-item cache):
///
/// * **decode** — each cached word is decoded once into the backend's
///   decoded form ([`PredecodeCore::predecode`]) and the loop dispatches
///   [`PredecodeCore::step_insn`] directly, monomorphized per backend (no
///   virtual calls, no per-step re-decode);
/// * **bookkeeping** — [`FetchStats`]/telemetry updates accumulate in
///   locals and flush when the loop exits (halt, fault, or step limit).
///   Final counter values are byte-exact with the per-fetch path; only the
///   update granularity differs.
///
/// # Errors
///
/// Exactly as [`run`]: any [`MachineError`] the program raises, or
/// [`MachineError::StepLimit`] if it does not halt within `max_steps`.
/// Stats and telemetry are flushed before the error propagates.
pub fn run_predecoded<C: PredecodeCore>(
    core: &mut C,
    fetch: &mut PredecodedFetcher,
    entry: u64,
    max_steps: u64,
) -> Result<RunResult, MachineError> {
    use crate::fetch::TAG_INSN;

    let granule = fetch.granule();
    // The entry table and word pool live in locals for the duration of the
    // loop (loop-invariant pointers on the hot path); fills go through
    // `fill_detached`. They are reattached before counters are absorbed.
    let (mut entries, mut side, mut pool) = fetch.take_storage();
    // Decoded mirror of the word pool (same indices). The fetcher is
    // exclusively borrowed for the whole loop, so the pool only changes
    // through our own fills — the mirror needs syncing only when a fill
    // happens or when a cache hit points past it (entries filled before
    // this run started).
    let mut decoded: Vec<C::Insn> = Vec::new();
    let mut c = RunCounters::default();
    let mut pc = entry;
    let mut expect_pc = u64::MAX;
    // Expansion-drain state: pool range, position, owning PC, successor.
    let (mut dstart, mut dlen, mut dpos) = (0usize, 0usize, 0usize);
    let (mut dpc, mut dafter) = (u64::MAX, 0u64);

    let outcome = 'run: {
        for step in 0..max_steps {
            if pc != expect_pc && !pc.is_multiple_of(8) {
                c.realigns += 1;
            }
            let insn: &C::Insn;
            let next_pc;
            if pc == dpc && dpos < dlen {
                // Sequential flow inside an expanded codeword: replay the
                // decoded pool directly.
                insn = &decoded[dstart + dpos];
                dpos += 1;
                next_pc = if dpos < dlen { dpc } else { dafter };
                c.expanded += 1;
            } else {
                let e = match entries.get(pc as usize) {
                    Some(&e) if e != 0 => e,
                    _ => {
                        // Miss (or out-of-range pc): parse and fill, then
                        // sync the mirror.
                        let e = match fetch.fill_detached(pc, &mut entries, &mut side, &mut pool) {
                            Ok(e) => e,
                            Err(err) => {
                                c.insns = step;
                                break 'run Err(err);
                            }
                        };
                        while decoded.len() < pool.len() {
                            decoded.push(C::predecode(pool[decoded.len()]));
                        }
                        e
                    }
                };
                let (tag, consumed, len, start) = crate::fetch::unpack_entry(e, &side);
                if start + len > decoded.len() {
                    // A hit on an entry cached before this run started:
                    // the pool already holds its words, the mirror just
                    // hasn't caught up.
                    while decoded.len() < pool.len() {
                        decoded.push(C::predecode(pool[decoded.len()]));
                    }
                }
                c.nibbles += consumed;
                if tag == TAG_INSN {
                    dpc = u64::MAX;
                    next_pc = pc + consumed;
                } else {
                    c.codewords += 1;
                    c.expanded += 1;
                    (dstart, dlen, dpos) = (start, len, 1);
                    (dpc, dafter) = (pc, pc + consumed);
                    next_pc = if dlen > 1 { pc } else { dafter };
                }
                insn = &decoded[start];
            }
            expect_pc = next_pc;
            match core.step_insn(insn, pc, next_pc, granule) {
                Ok(Outcome::Next) => pc = next_pc,
                Ok(Outcome::Branch(target)) => pc = target,
                Ok(Outcome::Halt) => {
                    c.insns = step + 1;
                    break 'run Ok(step + 1);
                }
                Err(err) => {
                    c.insns = step + 1;
                    break 'run Err(err);
                }
            }
        }
        c.insns = max_steps;
        Err(MachineError::StepLimit)
    };
    fetch.restore_storage(entries, side, pool);
    fetch.absorb(&c, expect_pc, (dstart, dlen, dpos, dpc, dafter));
    let steps = outcome?;
    Ok(RunResult { exit_code: core.exit_code(), steps, stats: fetch.stats() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::LinearFetcher;
    use crate::machine::Machine;
    use codense_ppc::asm::Assembler;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    #[test]
    fn tiny_program_halts() {
        let mut a = Assembler::new();
        a.emit(Insn::Addi { rt: R3, ra: R0, si: 42 });
        a.emit(Insn::Sc);
        let code = a.finish().unwrap();
        let mut machine = Machine::new(4096);
        let mut fetch = LinearFetcher::new(code);
        let result = run(&mut machine, &mut fetch, 0, 100).unwrap();
        assert_eq!(result.exit_code, 42);
        assert_eq!(result.steps, 2);
    }

    #[test]
    fn traced_run_sees_every_step() {
        let mut a = Assembler::new();
        a.emit(Insn::Addi { rt: R3, ra: R0, si: 1 });
        a.emit(Insn::Addi { rt: R3, ra: R3, si: 2 });
        a.emit(Insn::Sc);
        let code = a.finish().unwrap();
        let mut machine = Machine::new(4096);
        let mut fetch = LinearFetcher::new(code);
        let mut trace = Vec::new();
        let result = super::run_traced(&mut machine, &mut fetch, 0, 100, |pc, word| {
            trace.push((pc, word));
        })
        .unwrap();
        assert_eq!(result.steps, 3);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].0, 0);
        assert_eq!(codense_ppc::decode(trace[2].1), Insn::Sc);
    }

    #[test]
    fn infinite_loop_hits_step_limit() {
        let mut a = Assembler::new();
        a.label("x");
        a.b("x");
        let code = a.finish().unwrap();
        let mut machine = Machine::new(4096);
        let mut fetch = LinearFetcher::new(code);
        assert_eq!(run(&mut machine, &mut fetch, 0, 50), Err(MachineError::StepLimit));
    }
}
