//! The ISA abstraction the rest of `codense` is written against.
//!
//! The paper's dictionary-compression scheme (Lefurgy et al., 1997) is
//! ISA-agnostic: it needs a fixed-width 32-bit RISC with identifiable
//! PC-relative branches (never compressed, patched after layout), a set of
//! reserved escape byte patterns no legal instruction starts with, and a way
//! to synthesize an indirect-jump trampoline for branches whose displacement
//! field overflows at the compressed granularity. This crate captures exactly
//! that contract as the object-safe [`Isa`] trait, plus the [`Core`]
//! execution trait the VM's fetch/step loop drives, so `codense-core` and
//! `codense-vm` work with any backend (`codense-ppc`, `codense-mips`, …).
//! What the backends would otherwise each repeat lives here once: label
//! resolution for their assemblers ([`asm`]) and the operand parsers of
//! their assembly-text readers ([`text`]).
//!
//! Every backend targets a fixed 4-byte instruction word ([`INSN_BYTES`]);
//! branch *offsets* are exchanged in bytes, fetch-domain *addresses* in
//! nibbles (see `codense-vm`). DESIGN.md §13 spells out the full contract.

#![warn(missing_docs)]

use std::fmt;

pub mod asm;
pub mod text;

pub use asm::AsmError;

/// Instruction width in bytes. Every [`Isa`] backend is a fixed-32-bit RISC;
/// the compressor's layout arithmetic relies on this being uniform.
pub const INSN_BYTES: u32 = 4;

/// High halfword of the overflow jump table's base address: trampolines load
/// their target from `(OVERFLOW_TABLE_HI << 16) + 4 * slot`.
pub const OVERFLOW_TABLE_HI: i16 = 0x0060;

/// The two halves a trampoline builds the address of overflow-table slot
/// `slot` from: the high halfword its `addis`/`lui` sets, and the signed
/// displacement of its load. With the displacement sign-extended,
/// `(high << 16) + low` is `(OVERFLOW_TABLE_HI << 16) + 4 * slot`; the high
/// half carries what a negative displacement borrows, so every slot below
/// 8192 loads through `OVERFLOW_TABLE_HI` itself.
pub fn overflow_slot_halves(slot: u32) -> (u16, i16) {
    let address = ((OVERFLOW_TABLE_HI as u32) << 16).wrapping_add(slot.wrapping_mul(4));
    let low = address as i16;
    ((address.wrapping_sub(low as u32) >> 16) as u16, low)
}

/// Execution faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A load or store touched memory outside the configured size.
    MemoryFault {
        /// The faulting byte address.
        addr: u32,
    },
    /// Instruction fetch failed (bad PC or truncated stream).
    FetchFault {
        /// The faulting fetch-domain (nibble) address.
        pc: u64,
    },
    /// A trap condition fired (the kernels use it for assertions).
    Trap,
    /// An instruction outside the executable subset was fetched.
    IllegalInstruction {
        /// The raw word.
        word: u32,
    },
    /// The step budget ran out before the halt instruction.
    StepLimit,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::MemoryFault { addr } => write!(f, "memory fault at {addr:#010x}"),
            MachineError::FetchFault { pc } => write!(f, "fetch fault at nibble {pc:#x}"),
            MachineError::Trap => write!(f, "trap instruction fired"),
            MachineError::IllegalInstruction { word } => {
                write!(f, "illegal instruction {word:#010x}")
            }
            MachineError::StepLimit => write!(f, "step limit exhausted"),
        }
    }
}

impl std::error::Error for MachineError {}

/// What an executed instruction asks the fetch engine to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fall through to the next instruction.
    Next,
    /// Transfer control to the given fetch-domain (nibble) address.
    Branch(u64),
    /// The program executed its halt instruction; the exit code is in the
    /// ISA's return register ([`Core::exit_code`]).
    Halt,
}

/// The two PC-relative branch forms of a backend. Each form's field width
/// is per-ISA ([`Isa::branch_field_bits`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// The conditional form: PowerPC B-form `bc` (14-bit field), MIPS
    /// `beq`…`bgez` (16-bit field).
    Conditional,
    /// The jump form: PowerPC I-form `b`/`bl` (24-bit field), MIPS
    /// `j`/`jal` (26-bit field).
    Jump,
}

/// A decoded PC-relative branch, ISA-neutral.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelBranch {
    /// The branch form, which keys [`Isa::branch_field_bits`] and
    /// [`Isa::patch_offset_units`].
    pub kind: BranchKind,
    /// Byte displacement from the branch's own address (multiple of
    /// [`INSN_BYTES`] in an uncompressed program).
    pub offset: i32,
    /// Whether the branch records a return address (a call).
    pub lk: bool,
}

/// Returns `true` if `value` fits a signed two's-complement field of
/// `bits` bits.
pub const fn fits_signed(value: i64, bits: u32) -> bool {
    let half = 1i64 << (bits - 1);
    value >= -half && value < half
}

/// Architectural state driven by the VM's fetch/step loop.
///
/// Cores are PC-less: the program counter lives in the fetch engine, because
/// a compressed-program processor's PC is nibble-granular. All code addresses
/// a core sees (return registers, branch targets) are fetch-domain nibble
/// addresses.
pub trait Core {
    /// Executes one instruction word.
    ///
    /// `cur_pc`/`next_pc` are the instruction's own and successor addresses
    /// in the fetch domain; `granule` is the fetch domain's branch-offset
    /// unit in nibbles (8 uncompressed, 4/2/1 compressed). Branch offset
    /// fields are interpreted as raw units scaled by `granule`, exactly as
    /// the paper's modified control unit does (§3.2.2).
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] on faults; the core state reflects the
    /// partial execution (registers already written stay written).
    fn step_word(
        &mut self,
        word: u32,
        cur_pc: u64,
        next_pc: u64,
        granule: u32,
    ) -> Result<Outcome, MachineError>;

    /// Reads general-purpose register `r`.
    fn gpr(&self, r: usize) -> u32;

    /// Writes general-purpose register `r`.
    fn set_gpr(&mut self, r: usize, v: u32);

    /// Writes a 32-bit word to data memory (big-endian).
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::MemoryFault`] past the end of memory.
    fn write32(&mut self, addr: u32, v: u32) -> Result<(), MachineError>;

    /// The full data memory, for state comparison.
    fn mem_bytes(&self) -> &[u8];

    /// The exit code after [`Outcome::Halt`]: the ISA's return-value
    /// register (`r3` on PowerPC, `$v0` on MIPS).
    fn exit_code(&self) -> u32;

    /// Condition/carry state packed into one word for lockstep comparison.
    /// Backends without architected flags return 0.
    fn flags(&self) -> u64;
}

/// A [`Core`] whose decode stage can be hoisted out of the execution loop.
///
/// [`Core::step_word`] re-decodes its instruction word on every step; the
/// VM's run loop (`codense_vm::run`) decodes each word its fetch engine
/// pools once, keeps the backend's decoded form, and replays it — so the
/// per-step cost is dispatch + execute only. Not object safe (the decoded
/// type is backend-specific); the loop is monomorphized per backend, and a
/// `dyn Core` takes it through the impl below, whose decoded form is the
/// raw word.
pub trait PredecodeCore: Core {
    /// The backend's decoded-instruction representation.
    type Insn;

    /// Decodes a raw word. Pure and state-independent: decoding never
    /// faults (illegal words decode to a form whose execution faults), so
    /// caching decoded instructions cannot change program behaviour.
    fn predecode(word: u32) -> Self::Insn;

    /// Executes one already-decoded instruction. Must be observably
    /// identical to [`Core::step_word`] on the word `insn` was decoded
    /// from — same state changes, same [`Outcome`], same errors.
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] on faults, exactly as
    /// [`Core::step_word`] would.
    fn step_insn(
        &mut self,
        insn: &Self::Insn,
        cur_pc: u64,
        next_pc: u64,
        granule: u32,
    ) -> Result<Outcome, MachineError>;

    /// The decoded form of `word`, the word at index `slot` of a fetch
    /// engine's `pool`, read from `mirror`, the run's decoded copy of that
    /// pool. A slot past the mirror's end first tops the mirror up from
    /// the pool, so each pooled word is decoded once per run.
    #[inline(always)]
    fn decoded<'a>(
        mirror: &'a mut Vec<Self::Insn>,
        pool: &[u32],
        slot: usize,
        _word: &'a u32,
    ) -> &'a Self::Insn {
        if slot >= mirror.len() {
            let from = mirror.len();
            mirror.extend(pool[from..].iter().map(|&w| Self::predecode(w)));
        }
        &mirror[slot]
    }
}

/// A boxed core runs the same loop: its decoded form is the word itself,
/// which needs no mirror, and each step decodes it through
/// [`Core::step_word`].
impl PredecodeCore for dyn Core + '_ {
    type Insn = u32;

    fn predecode(word: u32) -> u32 {
        word
    }

    fn step_insn(
        &mut self,
        insn: &u32,
        cur_pc: u64,
        next_pc: u64,
        granule: u32,
    ) -> Result<Outcome, MachineError> {
        self.step_word(*insn, cur_pc, next_pc, granule)
    }

    /// The delivered word itself: no mirror, so a run copies no code.
    #[inline(always)]
    fn decoded<'a>(_: &'a mut Vec<u32>, _: &[u32], _: usize, word: &'a u32) -> &'a u32 {
        word
    }
}

/// The instruction sets a module or compressed image can be built for.
///
/// Both file formats record the ISA as this tag in a header field
/// (DESIGN.md §13), so the bytes carry the meaning of their escape bytes
/// and branch fields. This is the one tag ↔ name table; a registry that
/// links the backends maps a tag to its [`IsaRef`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IsaId {
    /// PowerPC, tag 0 (what files written before the tag existed hold).
    Ppc = 0,
    /// MIPS, tag 1.
    Mips = 1,
}

impl IsaId {
    /// Every known ISA, in tag order.
    pub const ALL: [IsaId; 2] = [IsaId::Ppc, IsaId::Mips];

    /// The on-disk tag.
    pub const fn tag(self) -> u8 {
        self as u8
    }

    /// The ISA a tag names, or `None` for an unknown tag.
    pub fn from_tag(tag: u8) -> Option<IsaId> {
        IsaId::ALL.into_iter().find(|id| id.tag() == tag)
    }

    /// Short lowercase name (`"ppc"`, `"mips"`), used in reports and CLI
    /// `--isa` selection.
    pub const fn name(self) -> &'static str {
        match self {
            IsaId::Ppc => "ppc",
            IsaId::Mips => "mips",
        }
    }

    /// The ISA a [`name`](IsaId::name) names.
    pub fn from_name(name: &str) -> Option<IsaId> {
        IsaId::ALL.into_iter().find(|id| id.name() == name)
    }
}

impl fmt::Display for IsaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The backend contract: everything the compressor, verifier, basic-block
/// builder, and VM need to know about an instruction set.
///
/// Implementations must be stateless (methods take `&self` and are pure);
/// a backend exposes one `static` instance referenced through [`IsaRef`].
pub trait Isa: Sync {
    /// The backend's tag.
    fn id(&self) -> IsaId;

    /// Short lowercase name (`"ppc"`, `"mips"`).
    fn name(&self) -> &'static str {
        self.id().name()
    }

    /// Extracts PC-relative branch information from a word, or `None` if the
    /// word is not a PC-relative branch (absolute and indirect branches and
    /// non-branches are all `None` — they need no displacement patching and
    /// are therefore compressible).
    fn rel_branch_info(&self, word: u32) -> Option<RelBranch>;

    /// Width in bits of the signed displacement field of branch form `kind`
    /// (sign bit included).
    fn branch_field_bits(&self, kind: BranchKind) -> u32;

    /// Rewrites the displacement field of a relative branch with a new raw
    /// field value (already divided down to the target granularity). All
    /// other fields are preserved.
    ///
    /// # Panics
    ///
    /// Panics if `word` is not a branch of form `kind` or `units` does not
    /// fit the field.
    fn patch_offset_units(&self, word: u32, kind: BranchKind, units: i32) -> u32;

    /// Reads back the raw displacement field of a patched branch,
    /// sign-extended, in field units (the inverse of
    /// [`patch_offset_units`](Isa::patch_offset_units)).
    fn read_offset_units(&self, word: u32, kind: BranchKind) -> i32;

    /// The escape bytes reserved for codewords: byte values no legal
    /// instruction's most-significant byte can take (§4.1 of the paper).
    /// Must contain at least 32 distinct values; index order is the fixed
    /// escape numbering the encoder and decoder share.
    fn escape_bytes(&self) -> &'static [u8];

    /// Position of `byte` in [`escape_bytes`](Isa::escape_bytes), or `None`
    /// if it is not an escape byte. The default is a linear scan.
    fn escape_index(&self, byte: u8) -> Option<u32> {
        self.escape_bytes().iter().position(|&b| b == byte).map(|i| i as u32)
    }

    /// Returns `true` if `word` ends a basic block (any control transfer or
    /// the halt instruction).
    fn ends_block(&self, word: u32) -> bool;

    /// Synthesizes the overflow-trampoline expansion for a relative branch
    /// whose displacement no longer fits at the compressed granularity
    /// (§3.2.2): an optional inverted-condition skip over the trampoline,
    /// then an indirect jump through slot `slot` of the overflow table at
    /// `(OVERFLOW_TABLE_HI << 16) + 4 * slot`, built from the halves
    /// [`overflow_slot_halves`] gives, so the trampoline's length does not
    /// depend on the slot.
    ///
    /// `granule_nibbles`/`insn_nibbles` describe the encoding the expansion
    /// will be laid out in (the skip branch's displacement is patched in
    /// granule units). Returns `None` if the branch's condition cannot be
    /// inverted (e.g. PowerPC CTR-decrementing forms), which the compressor
    /// reports as an unsupported overflow branch.
    fn overflow_expansion(
        &self,
        word: u32,
        slot: u32,
        granule_nibbles: u32,
        insn_nibbles: u32,
    ) -> Option<Vec<u32>>;

    /// Disassembles a word located at byte address `addr` to the backend's
    /// assembly syntax.
    fn disassemble(&self, word: u32, addr: u32) -> String;

    /// Disassembles a contiguous code region starting at byte address
    /// `base`, one line per instruction: `ADDR:  WORD  MNEMONIC ...`.
    fn dump(&self, words: &[u32], base: u32) -> String {
        let mut out = String::new();
        for (i, &w) in words.iter().enumerate() {
            let addr = base + INSN_BYTES * i as u32;
            out.push_str(&format!("{addr:08x}:  {w:08x}  {}\n", self.disassemble(w, addr)));
        }
        out
    }

    /// Creates a fresh execution core with `mem_bytes` of data memory.
    fn new_core(&self, mem_bytes: usize) -> Box<dyn Core>;

    /// Can a displacement of `offset_nibbles` (4-bit units) be expressed by
    /// branch form `kind` when the field is interpreted in `granule_nibbles`
    /// units? The uncompressed ISA uses `granule_nibbles = 8` (4-byte
    /// units); the paper's schemes use 4, 2 and 1.
    fn offset_expressible(
        &self,
        kind: BranchKind,
        offset_nibbles: i64,
        granule_nibbles: u32,
    ) -> bool {
        debug_assert!(granule_nibbles > 0);
        let g = granule_nibbles as i64;
        offset_nibbles % g == 0 && fits_signed(offset_nibbles / g, self.branch_field_bits(kind))
    }
}

/// A copyable handle to a backend's `static` [`Isa`] instance.
///
/// Compared by [`Isa::id`], so two handles to the same backend are equal.
#[derive(Clone, Copy)]
pub struct IsaRef(pub &'static dyn Isa);

impl std::ops::Deref for IsaRef {
    type Target = dyn Isa;

    fn deref(&self) -> &Self::Target {
        self.0
    }
}

impl fmt::Debug for IsaRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IsaRef({})", self.0.name())
    }
}

impl PartialEq for IsaRef {
    fn eq(&self, other: &IsaRef) -> bool {
        self.0.id() == other.0.id()
    }
}

impl Eq for IsaRef {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_signed_bounds() {
        assert!(fits_signed(8191, 14));
        assert!(!fits_signed(8192, 14));
        assert!(fits_signed(-8192, 14));
        assert!(!fits_signed(-8193, 14));
        assert!(fits_signed(0, 1));
        assert!(fits_signed(-1, 1));
        assert!(!fits_signed(1, 1));
    }

    #[test]
    fn isa_tags_and_names_round_trip() {
        for id in IsaId::ALL {
            assert_eq!(IsaId::from_tag(id.tag()), Some(id));
            assert_eq!(IsaId::from_name(id.name()), Some(id));
            assert_eq!(id.to_string(), id.name());
        }
        assert_eq!(IsaId::Ppc.tag(), 0, "files without a tag hold 0 and read as PowerPC");
        assert_eq!(IsaId::Mips.tag(), 1);
        assert_eq!(IsaId::from_tag(2), None);
        assert_eq!(IsaId::from_name("arm"), None);
    }

    #[test]
    fn machine_error_messages_are_stable() {
        assert_eq!(
            MachineError::MemoryFault { addr: 0x100 }.to_string(),
            "memory fault at 0x00000100"
        );
        assert_eq!(MachineError::FetchFault { pc: 0x20 }.to_string(), "fetch fault at nibble 0x20");
        assert_eq!(MachineError::Trap.to_string(), "trap instruction fired");
        assert_eq!(
            MachineError::IllegalInstruction { word: 0x0400_0000 }.to_string(),
            "illegal instruction 0x04000000"
        );
        assert_eq!(MachineError::StepLimit.to_string(), "step limit exhausted");
    }
}
