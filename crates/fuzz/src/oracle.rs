//! The differential-execution oracle.
//!
//! Runs one program twice in lockstep — once through the native
//! [`LinearFetcher`], once through the compressed [`PredecodedFetcher`] —
//! and compares the *full architectural trace*, not just the final state:
//! every step checks the compressed PC against the atom map, the fetched
//! instruction word (normalized for branch-offset patching), every unmasked
//! GPR, the core's flags, and the control-flow outcome kind. Memory is
//! compared at halt. The oracle only speaks [`Core`] and
//! [`codense_isa::Isa`], so it is the same for every backend; the only
//! per-ISA input is the [`TraceMask`] naming the registers that
//! legitimately hold fetch-domain addresses (link values, loaded jump-table
//! entries). Those differ between the two machines by design; their
//! effects are still checked because calls, returns, and table dispatches
//! land on atoms the PC check validates.

use codense_core::CompressedProgram;
use codense_isa::IsaRef;
use codense_obj::ObjectModule;
use codense_vm::fetch::{Fetch, LinearFetcher, PredecodedFetcher};
use codense_vm::machine::{Core, MachineError, Outcome};

/// What a lockstep comparison ignores.
#[derive(Debug, Clone, Default)]
pub struct TraceMask {
    /// Bitmask of GPR numbers excluded from per-step comparison (bit *r*
    /// set ⇒ `gpr[r]` ignored). Use for registers that legitimately hold
    /// fetch-domain addresses (e.g. `r11` in PPC jump-table dispatch
    /// sequences, `$ra` after a MIPS `jal`, `r0` in kernels that spill LR
    /// through it).
    pub skip_gprs: u32,
    /// Byte ranges excluded from the final memory comparison (e.g. stack
    /// slots holding spilled return addresses, or the jump-table region,
    /// whose entries are domain-specific by construction).
    pub mem_skip: Vec<std::ops::Range<usize>>,
}

impl TraceMask {
    /// Mask excluding a set of GPR numbers.
    pub fn skipping_gprs(regs: &[u8]) -> TraceMask {
        TraceMask { skip_gprs: regs.iter().fold(0u32, |m, &r| m | 1 << r), mem_skip: Vec::new() }
    }
}

/// How a divergence manifested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The compressed PC was not the atom address the native PC maps to.
    PcMismatch,
    /// The two fetchers delivered different instructions.
    InsnMismatch,
    /// A compared GPR differed after the step.
    RegMismatch,
    /// The cores' packed flags ([`Core::flags`]: CR/CA on PowerPC)
    /// differed after the step.
    FlagsMismatch,
    /// One run fell through where the other branched or halted.
    OutcomeMismatch,
    /// One run faulted and the other did not, or the fault kinds differed.
    ErrorMismatch,
    /// Both halted but with different exit codes.
    ExitMismatch,
    /// Final data memory differed outside the masked ranges.
    MemMismatch,
    /// The step budget ran out before either run halted or faulted.
    StepLimit,
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            DivergenceKind::PcMismatch => "pc-mismatch",
            DivergenceKind::InsnMismatch => "insn-mismatch",
            DivergenceKind::RegMismatch => "reg-mismatch",
            DivergenceKind::FlagsMismatch => "flags-mismatch",
            DivergenceKind::OutcomeMismatch => "outcome-mismatch",
            DivergenceKind::ErrorMismatch => "error-mismatch",
            DivergenceKind::ExitMismatch => "exit-mismatch",
            DivergenceKind::MemMismatch => "mem-mismatch",
            DivergenceKind::StepLimit => "step-limit",
        };
        f.write_str(s)
    }
}

/// A trace divergence between the native and compressed runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based step index at which the traces diverged.
    pub step: u64,
    /// What diverged.
    pub kind: DivergenceKind,
    /// Human-readable specifics (register number, addresses, …).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "step {}: {}: {}", self.step, self.kind, self.detail)
    }
}

/// A lockstep run that did *not* diverge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockstepOk {
    /// Both runs halted with the same exit code and memory.
    Completed {
        /// Instructions executed.
        steps: u64,
        /// Exit code ([`Core::exit_code`] at the halt).
        exit: u32,
    },
    /// Both runs faulted at the same step with the same fault kind (the
    /// traces agree — the program itself is faulty, not the pipeline).
    Faulted {
        /// Instructions executed before the fault.
        steps: u64,
        /// The shared fault kind.
        kind: &'static str,
    },
    /// The program needed overflow-branch rewriting (`ViaTable` atoms),
    /// whose dispatch stubs legitimately execute extra instructions and
    /// clobber scratch registers; lockstep comparison does not apply.
    SkippedOverflow,
}

/// Stable name for a machine error, for cross-domain comparison (payloads
/// like addresses are domain-specific).
pub fn error_kind(e: &MachineError) -> &'static str {
    match e {
        MachineError::MemoryFault { .. } => "memory-fault",
        MachineError::FetchFault { .. } => "fetch-fault",
        MachineError::Trap => "trap",
        MachineError::IllegalInstruction { .. } => "illegal-instruction",
        MachineError::StepLimit => "step-limit",
    }
}

/// `word` with any relative-branch displacement zeroed. The compressor
/// rewrites displacements into compressed-domain units, so only the other
/// fields are comparable across domains.
fn without_displacement(isa: IsaRef, word: u32) -> u32 {
    match isa.rel_branch_info(word) {
        Some(branch) => isa.patch_offset_units(word, branch.kind, 0),
        None => word,
    }
}

fn outcome_kind(o: &Outcome) -> &'static str {
    match o {
        Outcome::Next => "next",
        Outcome::Branch(_) => "branch",
        Outcome::Halt => "halt",
    }
}

/// Materializes jump tables into data memory: instruction-index targets
/// become word addresses (`8 × index`) for the native core and the
/// compressor-patched nibble addresses for the compressed core.
fn seed_tables<C: Core + ?Sized>(
    native: &mut C,
    comp: &mut C,
    module: &ObjectModule,
    compressed: &CompressedProgram,
    table_addrs: &[u32],
) -> Result<(), String> {
    if module.jump_tables.len() != table_addrs.len()
        || compressed.jump_tables.len() != table_addrs.len()
    {
        return Err(format!(
            "table count mismatch: module {}, compressed {}, addrs {}",
            module.jump_tables.len(),
            compressed.jump_tables.len(),
            table_addrs.len()
        ));
    }
    for (t, table) in module.jump_tables.iter().enumerate() {
        for (e, &target) in table.targets.iter().enumerate() {
            let addr = table_addrs[t] + 4 * e as u32;
            native.write32(addr, 8 * target as u32).map_err(|err| format!("table seed: {err}"))?;
            comp.write32(addr, compressed.jump_tables[t][e])
                .map_err(|err| format!("table seed: {err}"))?;
        }
    }
    Ok(())
}

/// Runs the differential oracle with the program's own compressed fetcher.
/// See [`lockstep_with`] for the full contract.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the two traces.
pub fn lockstep<C: Core + ?Sized>(
    module: &ObjectModule,
    compressed: &CompressedProgram,
    table_addrs: &[u32],
    boot: &dyn Fn() -> Box<C>,
    mask: &TraceMask,
    max_steps: u64,
) -> Result<LockstepOk, Divergence> {
    let fetcher = PredecodedFetcher::new(compressed);
    lockstep_with(fetcher, module, compressed, table_addrs, boot, mask, max_steps)
}

/// Runs the differential oracle with a caller-supplied compressed fetcher
/// (fault injection passes a deliberately corrupted one).
///
/// `boot` creates each side's core — for `compressed.isa`, with any
/// initial memory the program expects — and is called once per side. Both
/// cores then get the module's jump tables materialized in data memory
/// (domain-appropriate entries on each side). Execution proceeds one
/// instruction at a time on both cores until halt, fault, divergence, or
/// `max_steps`.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the two traces. Exhausting
/// `max_steps` is reported as a [`DivergenceKind::StepLimit`] divergence:
/// generated programs terminate by construction, so a budget overrun means
/// one trace stopped making progress.
pub fn lockstep_with<C: Core + ?Sized>(
    comp_fetch: PredecodedFetcher,
    module: &ObjectModule,
    compressed: &CompressedProgram,
    table_addrs: &[u32],
    boot: &dyn Fn() -> Box<C>,
    mask: &TraceMask,
    max_steps: u64,
) -> Result<LockstepOk, Divergence> {
    if !compressed.overflow_table.is_empty() {
        return Ok(LockstepOk::SkippedOverflow);
    }
    let isa = compressed.isa;
    let mut comp_fetch = comp_fetch;
    let mut native_fetch = LinearFetcher::new(module.code.clone());
    let granule = comp_fetch.granule();

    // Atom map: expected compressed PC for each original instruction index.
    // Instructions inside a codeword share the codeword's address (the PC
    // parks there while the expansion buffer drains).
    let mut expected_pc = vec![u32::MAX; module.code.len()];
    for (i, atom) in compressed.atoms.iter().enumerate() {
        for k in 0..atom.covered() {
            if let Some(slot) = expected_pc.get_mut(atom.orig() + k) {
                *slot = compressed.addresses[i];
            }
        }
    }

    let mut native = boot();
    let mut comp = boot();
    if let Err(detail) = seed_tables(&mut *native, &mut *comp, module, compressed, table_addrs) {
        return Err(Divergence { step: 0, kind: DivergenceKind::PcMismatch, detail });
    }

    let mut npc = 0u64;
    let mut cpc = compressed.address_of_orig(0).map_or(0, u64::from);

    for step in 0..max_steps {
        let diverge = |kind, detail| Err(Divergence { step, kind, detail });

        // PC correspondence (only checkable when the native PC is a valid
        // instruction address; otherwise both fetches fault below).
        if npc.is_multiple_of(8) {
            if let Some(&want) = expected_pc.get((npc / 8) as usize) {
                if want != u32::MAX && cpc != want as u64 {
                    return diverge(
                        DivergenceKind::PcMismatch,
                        format!(
                            "native pc {npc:#x} maps to atom {want:#x}, compressed pc {cpc:#x}"
                        ),
                    );
                }
            }
        }

        let (nf, cf) = match (native_fetch.fetch(npc), comp_fetch.fetch(cpc)) {
            (Err(ne), Err(ce)) => {
                let (nk, ck) = (error_kind(&ne), error_kind(&ce));
                if nk == ck {
                    return Ok(LockstepOk::Faulted { steps: step, kind: nk });
                }
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("native fetch {nk}, compressed fetch {ck}"),
                );
            }
            (Err(ne), Ok(_)) => {
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("native fetch faulted ({}) but compressed delivered", error_kind(&ne)),
                );
            }
            (Ok(_), Err(ce)) => {
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("compressed fetch faulted ({}) but native delivered", error_kind(&ce)),
                );
            }
            (Ok(nf), Ok(cf)) => (nf, cf),
        };

        let disasm = |word| isa.disassemble(word, (npc / 2) as u32);
        if nf.word != cf.word
            && without_displacement(isa, nf.word) != without_displacement(isa, cf.word)
        {
            return diverge(
                DivergenceKind::InsnMismatch,
                format!(
                    "native `{}` vs compressed `{}` at native pc {npc:#x}",
                    disasm(nf.word),
                    disasm(cf.word)
                ),
            );
        }

        let no = native.step_word(nf.word, npc, nf.next_pc, 8);
        let co = comp.step_word(cf.word, cpc, cf.next_pc, granule);

        let (no, co) = match (no, co) {
            (Err(ne), Err(ce)) => {
                let (nk, ck) = (error_kind(&ne), error_kind(&ce));
                if nk == ck {
                    return Ok(LockstepOk::Faulted { steps: step + 1, kind: nk });
                }
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("native fault {nk}, compressed fault {ck}"),
                );
            }
            (Err(ne), Ok(_)) => {
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("only native faulted: {}", error_kind(&ne)),
                );
            }
            (Ok(_), Err(ce)) => {
                return diverge(
                    DivergenceKind::ErrorMismatch,
                    format!("only compressed faulted: {}", error_kind(&ce)),
                );
            }
            (Ok(no), Ok(co)) => (no, co),
        };

        // Architectural state after the step.
        for r in 0..32 {
            let (n, c) = (native.gpr(r), comp.gpr(r));
            if mask.skip_gprs & (1 << r) == 0 && n != c {
                return diverge(
                    DivergenceKind::RegMismatch,
                    format!(
                        "r{r}: native {n:#010x}, compressed {c:#010x} after `{}`",
                        disasm(nf.word)
                    ),
                );
            }
        }
        if native.flags() != comp.flags() {
            return diverge(
                DivergenceKind::FlagsMismatch,
                format!("flags: native {:#x}, compressed {:#x}", native.flags(), comp.flags()),
            );
        }

        match (no, co) {
            (Outcome::Next, Outcome::Next) => {
                npc = nf.next_pc;
                cpc = cf.next_pc;
            }
            (Outcome::Branch(nt), Outcome::Branch(ct)) => {
                npc = nt;
                cpc = ct;
            }
            (Outcome::Halt, Outcome::Halt) => {
                let (ne, ce) = (native.exit_code(), comp.exit_code());
                if ne != ce {
                    return diverge(
                        DivergenceKind::ExitMismatch,
                        format!("exit: native {ne}, compressed {ce}"),
                    );
                }
                let skipped = |addr: usize| mask.mem_skip.iter().any(|r| r.contains(&addr));
                let first_difference = native
                    .mem_bytes()
                    .iter()
                    .zip(comp.mem_bytes())
                    .enumerate()
                    .find(|&(addr, (a, b))| a != b && !skipped(addr));
                if let Some((addr, (a, b))) = first_difference {
                    return diverge(
                        DivergenceKind::MemMismatch,
                        format!("mem[{addr:#x}]: native {a:#04x}, compressed {b:#04x}"),
                    );
                }
                return Ok(LockstepOk::Completed { steps: step + 1, exit: ne });
            }
            (a, b) => {
                return diverge(
                    DivergenceKind::OutcomeMismatch,
                    format!("native {}, compressed {}", outcome_kind(&a), outcome_kind(&b)),
                );
            }
        }
    }
    Err(Divergence {
        step: max_steps,
        kind: DivergenceKind::StepLimit,
        detail: format!("no halt within {max_steps} steps"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_core::{CompressionConfig, Compressor};
    use codense_isa::IsaRef;
    use codense_mips::MInsn;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::{R0, R3, R4};

    /// A counting loop unrolled 12 times, ending in `sc` with 12 in `r3`.
    fn ppc_counting_module() -> ObjectModule {
        let mut m = ObjectModule::new("count", codense_obj::IsaId::Ppc);
        m.code.push(codense_ppc::encode(&Insn::Addi { rt: R3, ra: R0, si: 0 }));
        for _ in 0..12 {
            m.code.push(codense_ppc::encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }));
            m.code.push(codense_ppc::encode(&Insn::Addi { rt: R4, ra: R3, si: 5 }));
        }
        m.code.push(codense_ppc::encode(&Insn::Sc));
        m
    }

    /// The same program for MIPS, counting in `$v0`.
    fn mips_counting_module() -> ObjectModule {
        use codense_mips::reg::{A0, V0, ZERO};
        let mut m = ObjectModule::new("count", codense_obj::IsaId::Mips);
        m.code.push(codense_mips::encode(&MInsn::Addiu { rt: V0, rs: ZERO, imm: 0 }));
        for _ in 0..12 {
            m.code.push(codense_mips::encode(&MInsn::Addiu { rt: V0, rs: V0, imm: 1 }));
            m.code.push(codense_mips::encode(&MInsn::Addiu { rt: A0, rs: V0, imm: 5 }));
        }
        m.code.push(codense_mips::encode(&MInsn::Syscall));
        m
    }

    fn both() -> [(IsaRef, ObjectModule); 2] {
        [
            (IsaRef(&codense_ppc::ISA), ppc_counting_module()),
            (IsaRef(&codense_mips::ISA), mips_counting_module()),
        ]
    }

    #[test]
    fn identical_programs_complete() {
        for (isa, m) in both() {
            for config in [
                CompressionConfig::baseline(),
                CompressionConfig::small_dictionary(16),
                CompressionConfig::nibble_aligned(),
                CompressionConfig::huffman(),
            ] {
                let c = Compressor::new(config).with_isa(isa).compress(&m).unwrap();
                let boot = || isa.new_core(1 << 16);
                let got = lockstep(&m, &c, &[], &boot, &TraceMask::default(), 10_000)
                    .expect("no divergence");
                assert_eq!(got, LockstepOk::Completed { steps: m.code.len() as u64, exit: 12 });
            }
        }
    }

    #[test]
    fn corrupted_dictionary_entry_diverges() {
        for (isa, m) in both() {
            let c = Compressor::new(CompressionConfig::nibble_aligned())
                .with_isa(isa)
                .compress(&m)
                .unwrap();
            let mut image = c.to_image();
            assert!(!image.dictionary_by_rank.is_empty());
            // Flip a register bit in the hottest dictionary entry's first word.
            image.dictionary_by_rank[0][0] ^= 1 << 16;
            let bad = PredecodedFetcher::from_image_with(&image, isa);
            let boot = || isa.new_core(1 << 16);
            let err = lockstep_with(bad, &m, &c, &[], &boot, &TraceMask::default(), 10_000)
                .expect_err("corruption must be caught");
            assert_eq!(err.kind, DivergenceKind::InsnMismatch, "{}: {err}", isa.name());
        }
    }

    #[test]
    fn branch_displacements_are_not_compared() {
        let isa = IsaRef(&codense_ppc::ISA);
        let b = |li| codense_ppc::encode(&Insn::B { li, aa: false, lk: false });
        assert_eq!(without_displacement(isa, b(8)), without_displacement(isa, b(-64)));
        let mips = IsaRef(&codense_mips::ISA);
        let j = |offset| codense_mips::encode(&MInsn::J { offset });
        assert_eq!(without_displacement(mips, j(4)), without_displacement(mips, j(400)));
        let add = codense_mips::encode(&MInsn::Addu {
            rd: codense_mips::reg::V0,
            rs: codense_mips::reg::A0,
            rt: codense_mips::reg::A1,
        });
        assert_eq!(without_displacement(mips, add), add);
    }

    #[test]
    fn trace_mask_skips_registers() {
        let mask = TraceMask::skipping_gprs(&[0, 11]);
        assert_eq!(mask.skip_gprs, (1 << 0) | (1 << 11));
    }
}
