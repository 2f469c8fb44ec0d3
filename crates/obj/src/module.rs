//! The [`ObjectModule`] program image and its validation.

use std::fmt;
use std::ops::Range;

use codense_isa::{IsaId, IsaRef};

/// Metadata for one function in the text section.
///
/// Instruction positions are *indices* into [`ObjectModule::code`] (byte
/// address = 4 × index in the uncompressed program).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionInfo {
    /// Symbol name.
    pub name: String,
    /// Index of the first instruction.
    pub start: usize,
    /// Index one past the last instruction.
    pub end: usize,
    /// Number of prologue instructions at `start` (0 for leaf functions
    /// that allocate no frame).
    pub prologue_len: usize,
    /// Instruction ranges of the epilogue(s); a function with several return
    /// paths has several.
    pub epilogues: Vec<Range<usize>>,
}

impl FunctionInfo {
    /// Total instructions in the function body.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Returns `true` for a degenerate empty range.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// Total epilogue instruction count.
    pub fn epilogue_insns(&self) -> usize {
        self.epilogues.iter().map(|r| r.len()).sum()
    }
}

/// A jump table held in `.data`: a vector of code addresses used by an
/// indirect `bctr` dispatch (switch statements).
///
/// The paper assumes GCC's in-text jump tables "could be relocated to the
/// .data section and patched with the post-compression branch target
/// addresses" (§3.2.1); this type is that relocated representation. Each
/// entry is an instruction index; its in-memory size is 4 bytes per entry in
/// both the original and compressed program (addresses are re-encoded, not
/// resized).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JumpTable {
    /// Target instruction indices, one per case.
    pub targets: Vec<usize>,
}

impl JumpTable {
    /// Size of the table in bytes (4 per entry).
    pub fn size_bytes(&self) -> usize {
        self.targets.len() * 4
    }
}

/// Validation failures for an [`ObjectModule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModuleError {
    /// A PC-relative branch at `at` targets an instruction index outside the
    /// text section.
    BranchOutOfRange {
        /// Index of the offending branch.
        at: usize,
        /// The (possibly negative or overflowing) target index.
        target: i64,
    },
    /// A relative branch target is not word-aligned.
    MisalignedBranch {
        /// Index of the offending branch.
        at: usize,
    },
    /// A jump-table entry points outside the text section.
    JumpTableOutOfRange {
        /// Index of the table.
        table: usize,
        /// Index of the entry within the table.
        entry: usize,
    },
    /// A function range is empty, inverted, or extends past the text section.
    BadFunctionRange {
        /// Name of the offending function.
        name: String,
    },
    /// The module was checked under an ISA other than the one it records.
    IsaMismatch {
        /// The ISA the module records.
        module: IsaId,
        /// The ISA it was checked under.
        given: IsaId,
    },
}

impl fmt::Display for ModuleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleError::BranchOutOfRange { at, target } => {
                write!(f, "branch at instruction {at} targets out-of-range index {target}")
            }
            ModuleError::MisalignedBranch { at } => {
                write!(f, "branch at instruction {at} has a misaligned target")
            }
            ModuleError::JumpTableOutOfRange { table, entry } => {
                write!(f, "jump table {table} entry {entry} is out of range")
            }
            ModuleError::BadFunctionRange { name } => {
                write!(f, "function `{name}` has an invalid instruction range")
            }
            ModuleError::IsaMismatch { module, given } => {
                write!(f, "module is built for {module}, not {given}")
            }
        }
    }
}

impl std::error::Error for ModuleError {}

/// A statically linked program: `.text` plus compressor-relevant metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectModule {
    /// Program name (benchmark name in the reproduction).
    pub name: String,
    /// The instruction set the text is encoded in.
    pub isa: IsaId,
    /// The text section as instruction words; instruction `i` lives at byte
    /// address `4 * i`.
    pub code: Vec<u32>,
    /// Function layout metadata, sorted by `start`.
    pub functions: Vec<FunctionInfo>,
    /// Jump tables referenced by indirect branches (held in `.data`).
    pub jump_tables: Vec<JumpTable>,
}

impl ObjectModule {
    /// Creates an empty module with the given name, for `isa`.
    pub fn new(name: impl Into<String>, isa: IsaId) -> ObjectModule {
        ObjectModule {
            name: name.into(),
            isa,
            code: vec![],
            functions: vec![],
            jump_tables: vec![],
        }
    }

    /// Number of instructions in `.text`.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Returns `true` if the text section is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Size of `.text` in bytes.
    pub fn text_bytes(&self) -> usize {
        self.code.len() * 4
    }

    /// The text section serialized as big-endian bytes (for byte-granular
    /// compressors such as LZW and CCRP).
    pub fn text_image(&self) -> Vec<u8> {
        self.code.iter().flat_map(|w| w.to_be_bytes()).collect()
    }

    /// Checks internal consistency under `isa`, which must be the ISA the
    /// module records: every relative branch and jump-table entry targets a
    /// valid, aligned instruction, and function ranges are sane.
    ///
    /// # Errors
    ///
    /// Returns the first [`ModuleError`] encountered;
    /// [`ModuleError::IsaMismatch`] if `isa` is not the module's.
    pub fn validate_with(&self, isa: IsaRef) -> Result<(), ModuleError> {
        if isa.id() != self.isa {
            return Err(ModuleError::IsaMismatch { module: self.isa, given: isa.id() });
        }
        for (i, &w) in self.code.iter().enumerate() {
            if let Some(info) = isa.rel_branch_info(w) {
                if info.offset % 4 != 0 {
                    return Err(ModuleError::MisalignedBranch { at: i });
                }
                let target = i as i64 + (info.offset / 4) as i64;
                if target < 0 || target as usize >= self.code.len() {
                    return Err(ModuleError::BranchOutOfRange { at: i, target });
                }
            }
        }
        for (t, table) in self.jump_tables.iter().enumerate() {
            for (e, &idx) in table.targets.iter().enumerate() {
                if idx >= self.code.len() {
                    return Err(ModuleError::JumpTableOutOfRange { table: t, entry: e });
                }
            }
        }
        for func in &self.functions {
            let bad = func.start >= func.end
                || func.end > self.code.len()
                || func.start + func.prologue_len > func.end
                || func.epilogues.iter().any(|r| r.start < func.start || r.end > func.end);
            if bad {
                return Err(ModuleError::BadFunctionRange { name: func.name.clone() });
            }
        }
        Ok(())
    }

    /// All jump-table bytes (the `.data` footprint the compressor must carry
    /// through and patch).
    pub fn jump_table_bytes(&self) -> usize {
        self.jump_tables.iter().map(JumpTable::size_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_ppc::encode;
    use codense_ppc::insn::{bo, Insn};
    use codense_ppc::reg::*;

    const PPC: IsaRef = IsaRef(&codense_ppc::ISA);

    fn nop() -> u32 {
        encode(&Insn::Ori { ra: R0, rs: R0, ui: 0 })
    }

    fn module_with_branch(offset: i16) -> ObjectModule {
        let mut m = ObjectModule::new("t", IsaId::Ppc);
        m.code = vec![
            nop(),
            encode(&Insn::Bc { bo: bo::IF_TRUE, bi: 2, bd: offset, aa: false, lk: false }),
            nop(),
            nop(),
        ];
        m
    }

    #[test]
    fn in_range_branch_validates() {
        assert!(module_with_branch(8).validate_with(PPC).is_ok());
    }

    #[test]
    fn foreign_isa_is_a_typed_error() {
        let m = module_with_branch(8);
        assert_eq!(
            m.validate_with(IsaRef(&codense_mips::ISA)),
            Err(ModuleError::IsaMismatch { module: IsaId::Ppc, given: IsaId::Mips })
        );
        assert_eq!(
            ModuleError::IsaMismatch { module: IsaId::Ppc, given: IsaId::Mips }.to_string(),
            "module is built for ppc, not mips"
        );
    }

    #[test]
    fn out_of_range_branch_detected() {
        let m = module_with_branch(128);
        assert_eq!(m.validate_with(PPC), Err(ModuleError::BranchOutOfRange { at: 1, target: 33 }));
        let m = module_with_branch(-8);
        assert_eq!(m.validate_with(PPC), Err(ModuleError::BranchOutOfRange { at: 1, target: -1 }));
    }

    #[test]
    fn jump_table_bounds_checked() {
        let mut m = ObjectModule::new("t", IsaId::Ppc);
        m.code = vec![nop(); 4];
        m.jump_tables.push(JumpTable { targets: vec![0, 3] });
        assert!(m.validate_with(PPC).is_ok());
        m.jump_tables.push(JumpTable { targets: vec![4] });
        assert_eq!(
            m.validate_with(PPC),
            Err(ModuleError::JumpTableOutOfRange { table: 1, entry: 0 })
        );
    }

    #[test]
    fn function_ranges_checked() {
        let mut m = ObjectModule::new("t", IsaId::Ppc);
        m.code = vec![nop(); 8];
        m.functions.push(FunctionInfo {
            name: "f".into(),
            start: 0,
            end: 8,
            prologue_len: 2,
            epilogues: std::iter::once(6..8).collect(),
        });
        assert!(m.validate_with(PPC).is_ok());
        m.functions[0].end = 9;
        assert!(matches!(m.validate_with(PPC), Err(ModuleError::BadFunctionRange { .. })));
    }

    #[test]
    fn sizes() {
        let mut m = ObjectModule::new("t", IsaId::Ppc);
        m.code = vec![nop(); 10];
        m.jump_tables.push(JumpTable { targets: vec![0, 1, 2] });
        assert_eq!(m.text_bytes(), 40);
        assert_eq!(m.jump_table_bytes(), 12);
        assert_eq!(m.text_image().len(), 40);
    }
}
