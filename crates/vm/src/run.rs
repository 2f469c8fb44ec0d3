//! The one execution loop gluing a core to a fetch engine: [`run_traced`],
//! and [`run`], which is that loop with no observer. It is generic over the
//! core and the engine, so native, compressed and traced runs all take the
//! same path, monomorphized per machine and engine (a boxed `dyn Core`,
//! the tests' `step_word` reference, takes it too).

use crate::fetch::{Fetch, FetchStats, Fetched, PredecodedFetcher};
use crate::machine::{MachineError, Outcome};
use codense_core::telemetry;
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
pub fn run<C: PredecodeCore + ?Sized, F: Fetch + ?Sized>(
    core: &mut C,
    fetch: &mut F,
    entry: u64,
    max_steps: u64,
) -> Result<RunResult, MachineError> {
    run_traced(core, fetch, entry, max_steps, |_, _| {})
}

/// Like [`run`], invoking `observer` before each executed instruction with
/// its PC and delivery — the tracing hook (`codense-cache` replays the
/// program-memory references it records). The run is timed as the `vm`
/// telemetry phase.
///
/// The loop keeps a decoded mirror of the engine's pool, indexed by
/// [`Fetched::slot`]: a slot past the mirror's end tops it up from
/// [`Fetch::pool`], so each pooled word is decoded once per run
/// ([`PredecodeCore::decoded`]; a `dyn Core` steps the delivered word and
/// keeps no mirror), and each step dispatches
/// [`PredecodeCore::step_insn`]. A run starts a new instruction stream
/// ([`Fetch::restart`]), whatever an earlier run on the same engine left
/// draining. The engine publishes its counters ([`Fetch::publish`]) when
/// the loop exits, on a halt, a fault or the step limit alike.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_traced<C: PredecodeCore + ?Sized, F: Fetch + ?Sized>(
    core: &mut C,
    fetch: &mut F,
    entry: u64,
    max_steps: u64,
    mut observer: impl FnMut(u64, &Fetched),
) -> Result<RunResult, MachineError> {
    let _phase = telemetry::phase("vm");
    let granule = fetch.granule();
    let mut mirror: Vec<C::Insn> = Vec::new();
    let mut pc = entry;
    fetch.restart();
    let outcome = 'run: {
        for step in 0..max_steps {
            let fetched = match fetch.fetch(pc) {
                Ok(f) => f,
                Err(err) => break 'run Err(err),
            };
            let insn = C::decoded(&mut mirror, fetch.pool(), fetched.slot, &fetched.word);
            observer(pc, &fetched);
            match core.step_insn(insn, pc, fetched.next_pc, granule) {
                Ok(Outcome::Next) => pc = fetched.next_pc,
                Ok(Outcome::Branch(target)) => pc = target,
                Ok(Outcome::Halt) => break 'run Ok(step + 1),
                Err(err) => break 'run Err(err),
            }
        }
        Err(MachineError::StepLimit)
    };
    fetch.publish();
    let steps = outcome?;
    Ok(RunResult { exit_code: core.exit_code(), steps, stats: fetch.stats() })
}

/// An alias of [`run`] over the compressed engine, for `benchmark/`, which
/// calls it by this name; the next change there moves it to [`run`].
///
/// # Errors
///
/// Same as [`run`].
pub fn run_predecoded<C: PredecodeCore>(
    core: &mut C,
    fetch: &mut PredecodedFetcher,
    entry: u64,
    max_steps: u64,
) -> Result<RunResult, MachineError> {
    run(core, fetch, entry, max_steps)
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
        let result = super::run_traced(&mut machine, &mut fetch, 0, 100, |pc, f| {
            trace.push((pc, *f));
        })
        .unwrap();
        assert_eq!(result.steps, 3);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].0, 0);
        assert_eq!(codense_ppc::decode(trace[2].1.word), Insn::Sc);
        assert!(trace.iter().all(|(_, f)| f.nibbles == 8), "a native word reads 8 nibbles");

        // Compressed, the deliveries' nibbles add up to the bandwidth
        // counted, and only an expansion's later words read none.
        let mut m = codense_obj::ObjectModule::new("t", codense_obj::IsaId::Ppc);
        for _ in 0..4 {
            m.code.push(codense_ppc::encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }));
            m.code.push(codense_ppc::encode(&Insn::Addi { rt: R4, ra: R4, si: 2 }));
        }
        m.code.push(codense_ppc::encode(&Insn::Sc));
        let config = codense_core::CompressionConfig::nibble_aligned();
        let c = codense_core::Compressor::new(config).compress(&m).unwrap();
        let mut fetch = PredecodedFetcher::new(&c);
        let mut trace = Vec::new();
        let result =
            run_traced(&mut Machine::new(4096), &mut fetch, 0, 100, |_, f| trace.push(*f)).unwrap();
        let s = result.stats;
        assert!(s.codewords > 0);
        assert_eq!(trace.len() as u64, result.steps);
        assert_eq!(trace.iter().map(|f| f.nibbles).sum::<u64>(), s.nibbles_fetched);
        let drained = trace.iter().filter(|f| f.nibbles == 0).count() as u64;
        assert_eq!(drained, s.expanded_insns - s.codewords);
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
