//! Label resolution for every backend's assembler.
//!
//! A backend's `Assembler` keeps its typed instruction API and stores the
//! encoded words in a [`Code`]. A branch to a label is the backend's branch
//! template with displacement 0, recorded as a fixup `(word index, label)`;
//! [`Code::finish`] aims each one through [`patch_branch`], which the fuzz
//! generator's numbered-label assembler calls too.

use std::collections::HashMap;
use std::fmt;

use crate::{fits_signed, Isa, INSN_BYTES};

/// Errors a backend assembler's `finish` returns while resolving labels.
/// Both backends' assemblers (`codense_ppc::asm`, `codense_mips::asm`)
/// re-export this one type, so lowering has one error for every ISA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A branch referenced a label that was never defined.
    UndefinedLabel(String),
    /// A resolved branch displacement does not fit its field.
    OffsetOutOfRange {
        /// The referenced label.
        label: String,
        /// Index of the branch instruction.
        at: usize,
        /// The displacement in bytes that failed to fit.
        offset: i64,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::OffsetOutOfRange { label, at, offset } => write!(
                f,
                "branch at instruction {at} to `{label}`: displacement {offset} out of range"
            ),
        }
    }
}

impl std::error::Error for AsmError {}

/// Why [`patch_branch`] could not aim a branch at its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatchError {
    /// The word is not a PC-relative branch.
    NotABranch,
    /// The displacement, in instructions, does not fit the branch's field.
    OutOfRange(i64),
}

/// Aims `word`, a relative branch at word index `at` of an uncompressed
/// program, at word index `target`: its displacement field gets
/// `target - at` instructions. Every other field is kept.
///
/// # Errors
///
/// [`PatchError::NotABranch`] if `word` is not a relative branch of `isa`,
/// [`PatchError::OutOfRange`] if the displacement does not fit its field.
pub fn patch_branch(isa: &dyn Isa, word: u32, at: usize, target: usize) -> Result<u32, PatchError> {
    let branch = isa.rel_branch_info(word).ok_or(PatchError::NotABranch)?;
    let units = target as i64 - at as i64;
    if !fits_signed(units, isa.branch_field_bits(branch.kind)) {
        return Err(PatchError::OutOfRange(units));
    }
    Ok(isa.patch_offset_units(word, branch.kind, units as i32))
}

/// Encoded instruction words with symbolic branch labels: the ISA-neutral
/// half of a backend's `Assembler`.
#[derive(Debug, Default)]
pub struct Code {
    words: Vec<u32>,
    labels: HashMap<String, usize>,
    /// `(word index, label)` of each branch template.
    fixups: Vec<(usize, String)>,
}

impl Code {
    /// Number of words so far: the index the next word gets.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if no words have been pushed.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Defines `name` at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined (a programming error in the
    /// caller, not an input condition).
    pub fn label(&mut self, name: &str) {
        let prev = self.labels.insert(name.to_owned(), self.words.len());
        assert!(prev.is_none(), "label `{name}` defined twice");
    }

    /// Returns the position of a defined label, if any.
    pub fn label_pos(&self, name: &str) -> Option<usize> {
        self.labels.get(name).copied()
    }

    /// Appends one encoded word.
    pub fn push(&mut self, word: u32) {
        self.words.push(word);
    }

    /// Appends `template`, a relative branch with displacement 0, which
    /// [`finish`](Code::finish) aims at `label`.
    pub fn branch(&mut self, template: u32, label: &str) {
        self.fixups.push((self.words.len(), label.to_owned()));
        self.words.push(template);
    }

    /// Resolves every fixup and returns the words.
    ///
    /// # Errors
    ///
    /// [`AsmError::UndefinedLabel`] if a branch references an unknown label,
    /// or [`AsmError::OffsetOutOfRange`] (with the displacement in bytes) if
    /// it does not fit the branch's field.
    ///
    /// # Panics
    ///
    /// Panics if a template is not a relative branch of `isa` (a programming
    /// error in the backend's assembler, not an input condition).
    pub fn finish(mut self, isa: &dyn Isa) -> Result<Vec<u32>, AsmError> {
        for (at, label) in self.fixups {
            let Some(&target) = self.labels.get(&label) else {
                return Err(AsmError::UndefinedLabel(label));
            };
            self.words[at] = match patch_branch(isa, self.words[at], at, target) {
                Ok(word) => word,
                Err(PatchError::OutOfRange(units)) => {
                    let offset = units * i64::from(INSN_BYTES);
                    return Err(AsmError::OffsetOutOfRange { label, at, offset });
                }
                Err(PatchError::NotABranch) => panic!("template at {at} is not a relative branch"),
            };
        }
        Ok(self.words)
    }
}
