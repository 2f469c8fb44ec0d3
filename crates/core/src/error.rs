//! Error types for compression and verification.

use std::fmt;

use codense_isa::IsaId;
use codense_obj::ModuleError;

/// Errors from [`Compressor::compress`](crate::Compressor::compress).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompressError {
    /// The program contains an instruction word whose primary opcode is one
    /// of the reserved illegal (escape) opcodes; under the baseline and
    /// one-byte schemes such a word is indistinguishable from a codeword.
    EscapeCollision {
        /// Instruction index.
        at: usize,
        /// The offending word.
        word: u32,
    },
    /// A branch overflowed its reduced-resolution offset field and cannot be
    /// rewritten through the overflow jump table (CTR-decrementing `bc`
    /// forms would have their loop counter clobbered by the rewrite).
    UnsupportedOverflowBranch {
        /// Instruction index of the branch.
        at: usize,
    },
    /// Branch-overflow rewriting failed to converge (cannot happen for sane
    /// inputs; guarded to bound the fixpoint loop).
    LayoutDiverged,
    /// A codeword rank does not fit in the encoding's codeword space.
    /// Unreachable through [`Compressor`](crate::Compressor), which clamps
    /// the dictionary to the encoding capacity, but reported (instead of a
    /// panic) when a hand-built dictionary exceeds it.
    CodewordSpaceExhausted {
        /// The offending rank.
        rank: u32,
        /// The encoding's codeword capacity.
        capacity: usize,
    },
    /// The program exceeds the matchfinder's 32-bit position space (more
    /// than `u32::MAX` blocks, or a block so large that cell indices could
    /// wrap). Previously a silent `as u32` truncation; surfaced as a typed
    /// error so SPEC-scale inputs fail loudly.
    ProgramTooLarge {
        /// Number of blocks in the program.
        blocks: usize,
        /// Cells in the largest block.
        largest_block: usize,
    },
    /// The compressed stream is longer than the `u32::MAX` nibbles a
    /// finished program's 32-bit addresses, its image and its container
    /// can address.
    StreamTooLong {
        /// The stream's length in nibbles.
        total_nibbles: u64,
    },
    /// The compressor targets an ISA other than the one the module records.
    IsaMismatch {
        /// The ISA the module records.
        module: IsaId,
        /// The ISA the compressor targets.
        compressor: IsaId,
    },
    /// A PC-relative branch or a jump-table entry targets an instruction
    /// outside the text section
    /// ([`ModuleError::BranchOutOfRange`] or
    /// [`ModuleError::JumpTableOutOfRange`]): a module
    /// [`ObjectModule::validate_with`](codense_obj::ObjectModule::validate_with)
    /// rejects, which the compressor refuses before building anything on it.
    InvalidModule(ModuleError),
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::EscapeCollision { at, word } => {
                write!(f, "instruction {at} ({word:#010x}) uses a reserved escape opcode")
            }
            CompressError::UnsupportedOverflowBranch { at } => {
                write!(f, "branch at instruction {at} overflows and uses the count register")
            }
            CompressError::LayoutDiverged => write!(f, "branch overflow layout did not converge"),
            CompressError::CodewordSpaceExhausted { rank, capacity } => {
                write!(f, "codeword rank {rank} exceeds the encoding capacity {capacity}")
            }
            CompressError::ProgramTooLarge { blocks, largest_block } => {
                write!(
                    f,
                    "program exceeds the matchfinder's 32-bit position space \
                     ({blocks} blocks, largest block {largest_block} cells)"
                )
            }
            CompressError::StreamTooLong { total_nibbles } => {
                write!(f, "compressed stream of {total_nibbles} nibbles exceeds 32-bit addresses")
            }
            CompressError::IsaMismatch { module, compressor } => {
                write!(f, "module is built for {module}, but the compressor targets {compressor}")
            }
            CompressError::InvalidModule(e) => write!(f, "invalid module: {e}"),
        }
    }
}

impl std::error::Error for CompressError {}

/// Errors from [`verify`](crate::verify::verify): any divergence between the
/// compressed program and the original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Expanded instruction stream does not cover original instruction
    /// `expected` next (got `got`).
    CoverageGap {
        /// The original index expected next.
        expected: usize,
        /// The index actually produced.
        got: usize,
    },
    /// A non-branch instruction expanded to the wrong word.
    WordMismatch {
        /// Original instruction index.
        orig: usize,
        /// Word in the original program.
        want: u32,
        /// Word produced by expansion.
        got: u32,
    },
    /// A patched branch resolves to the wrong target.
    BranchTargetMismatch {
        /// Original instruction index of the branch.
        orig: usize,
        /// Original target instruction index.
        want_target: usize,
    },
    /// The trampoline of an overflow-rewritten branch does not load its own
    /// overflow-table slot, so a taken branch would dispatch through
    /// another branch's target.
    TrampolineSlotMismatch {
        /// Original instruction index of the branch.
        orig: usize,
        /// The slot its atom names.
        slot: u32,
    },
    /// The packed byte image disagrees with the logical atom stream.
    ImageMismatch {
        /// Atom index where parsing diverged.
        atom: usize,
    },
    /// A jump-table entry was not patched to its target's new address.
    JumpTableMismatch {
        /// Table index.
        table: usize,
        /// Entry index.
        entry: usize,
    },
    /// The program was compressed for an ISA other than the one the module
    /// records, so its branches and escape bytes mean something else.
    IsaMismatch {
        /// The ISA the module records.
        module: IsaId,
        /// The ISA the program was compressed for.
        program: IsaId,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::CoverageGap { expected, got } => {
                write!(f, "expansion skipped instructions: expected {expected}, got {got}")
            }
            VerifyError::WordMismatch { orig, want, got } => {
                write!(f, "instruction {orig}: want {want:#010x}, got {got:#010x}")
            }
            VerifyError::BranchTargetMismatch { orig, want_target } => {
                write!(f, "branch {orig} no longer reaches instruction {want_target}")
            }
            VerifyError::TrampolineSlotMismatch { orig, slot } => {
                write!(f, "the trampoline of branch {orig} does not load overflow slot {slot}")
            }
            VerifyError::ImageMismatch { atom } => {
                write!(f, "packed image diverges from atom {atom}")
            }
            VerifyError::JumpTableMismatch { table, entry } => {
                write!(f, "jump table {table} entry {entry} not patched correctly")
            }
            VerifyError::IsaMismatch { module, program } => {
                write!(
                    f,
                    "module is built for {module}, but the program is compressed for {program}"
                )
            }
        }
    }
}

impl std::error::Error for VerifyError {}
