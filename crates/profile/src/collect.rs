//! The execution profiler: instrumented VM runs producing [`Profile`]s.

use codense_core::{telemetry, CompressError, CompressionConfig, Compressor, EncodingKind};
use codense_obj::BasicBlocks;
use codense_vm::{run, run_traced, LinearFetcher, MachineError, PredecodedFetcher};

use crate::artifact::{BlockStat, FetchEvents, Profile};
use crate::subject::Subject;

/// Data-memory size for profiling runs (matches the kernel test harness).
pub const MEM_BYTES: usize = 1 << 20;

/// Why profiling a benchmark failed.
#[derive(Debug)]
pub enum ProfileError {
    /// The VM faulted or ran out of steps.
    Machine(MachineError),
    /// The reference compression failed.
    Compress(CompressError),
    /// A hybrid image failed round-trip verification.
    Verify(codense_core::VerifyError),
    /// A run halted with an exit code other than the kernel's expectation —
    /// the profile would describe a broken execution.
    WrongExit {
        /// Observed exit code.
        got: u32,
        /// Expected exit code.
        want: u32,
    },
}

impl std::fmt::Display for ProfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProfileError::Machine(e) => write!(f, "vm error: {e}"),
            ProfileError::Compress(e) => write!(f, "compression error: {e}"),
            ProfileError::Verify(e) => write!(f, "verification error: {e}"),
            ProfileError::WrongExit { got, want } => {
                write!(f, "exit code {got}, expected {want}")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<MachineError> for ProfileError {
    fn from(e: MachineError) -> ProfileError {
        ProfileError::Machine(e)
    }
}

impl From<CompressError> for ProfileError {
    fn from(e: CompressError) -> ProfileError {
        ProfileError::Compress(e)
    }
}

impl From<codense_core::VerifyError> for ProfileError {
    fn from(e: codense_core::VerifyError) -> ProfileError {
        ProfileError::Verify(e)
    }
}

/// Profiles one [`Subject`] (a kernel, or a jump-table-bearing corpus
/// program whose table seeds differ per fetch domain): a traced native run
/// for per-instruction and per-block execution counts, plus a reference
/// fully-compressed run under `encoding` for the fetch-path event totals
/// (escape decodes, codeword expansions, nibble traffic, realignments).
///
/// # Errors
///
/// [`ProfileError`] if either run faults, exceeds `max_steps`, or exits
/// with the wrong code, or if the reference compression fails.
pub fn collect(
    subject: &Subject,
    encoding: EncodingKind,
    max_steps: u64,
) -> Result<Profile, ProfileError> {
    telemetry::PROFILE_RUNS.inc();
    let _phase = telemetry::phase("profile");

    // Native reference run with per-instruction counting.
    let mut counts = vec![0u64; subject.module.len()];
    let mut machine = subject.machine_native();
    let mut fetch = LinearFetcher::new(subject.module.code.clone());
    let native = run_traced(&mut machine, &mut fetch, 0, max_steps, |pc, _| {
        counts[(pc / 8) as usize] += 1;
    })?;
    if native.exit_code != subject.expected {
        return Err(ProfileError::WrongExit { got: native.exit_code, want: subject.expected });
    }

    // Reference compressed run: where the fetch-path events come from.
    let config =
        CompressionConfig { max_entry_len: 4, max_codewords: encoding.capacity(), encoding };
    let compressed = Compressor::new(config).compress(&subject.module)?;
    let mut cmachine = subject.machine_compressed(&compressed);
    let mut cfetch = PredecodedFetcher::new(&compressed);
    let creference = run(&mut cmachine, &mut cfetch, 0, max_steps)?;
    if creference.exit_code != subject.expected {
        return Err(ProfileError::WrongExit { got: creference.exit_code, want: subject.expected });
    }
    let cstats = creference.stats;
    let fetch_events = FetchEvents {
        linear_insns: native.stats.insns,
        // Every uncompressed instruction in the packed stream carries an
        // escape prefix, under all three encodings.
        escapes: cstats.insns - cstats.expanded_insns,
        codewords: cstats.codewords,
        expanded_insns: cstats.expanded_insns,
        nibbles: cstats.nibbles_fetched,
        realigns: cstats.realigns,
    };

    let isa = codense_codegen::isa_ref(subject.module.isa);
    let blocks: Vec<BlockStat> = BasicBlocks::compute_with(&subject.module, isa)
        .blocks()
        .iter()
        .map(|&(start, end)| BlockStat {
            start,
            end,
            entries: counts[start],
            weight: counts[start..end].iter().sum(),
        })
        .collect();
    telemetry::PROFILE_BLOCKS.add(blocks.len() as u64);
    telemetry::PROFILE_INSNS_COUNTED.add(native.steps);

    Ok(Profile {
        bench: subject.name.clone(),
        insns: subject.module.len(),
        steps: native.steps,
        exit: native.exit_code,
        counts,
        blocks,
        fetch: fetch_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    #[test]
    fn fib_profile_is_consistent() {
        let kernel = bench::bench("fib").unwrap();
        let p = collect(&Subject::from_kernel(&kernel), EncodingKind::NibbleAligned, 1_000_000)
            .unwrap();
        assert_eq!(p.exit, kernel.expected);
        assert_eq!(p.total_weight(), p.steps);
        assert_eq!(p.counts.iter().sum::<u64>(), p.steps);
        assert_eq!(p.fetch.linear_insns, p.steps);
        // The compressed run executes the same dynamic path.
        assert_eq!(p.fetch.escapes + p.fetch.expanded_insns, p.steps);
        // The cold tail never executes.
        let plain = codense_vm::kernels::all().into_iter().find(|k| k.name == "fib").unwrap();
        assert!(p.counts[plain.module.len()..].iter().all(|&c| c == 0));
        // Blocks tile the program.
        assert_eq!(p.blocks.first().unwrap().start, 0);
        assert_eq!(p.blocks.last().unwrap().end, p.insns);
    }

    #[test]
    fn profiles_are_deterministic() {
        let gcd = Subject::from_kernel(&bench::bench("gcd").unwrap());
        let a = collect(&gcd, EncodingKind::Baseline, 1_000_000).unwrap();
        let b = collect(&gcd, EncodingKind::Baseline, 1_000_000).unwrap();
        assert_eq!(a, b);
    }
}
