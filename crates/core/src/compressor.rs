//! The compression pipeline: analyze → greedy select → rank → lay out →
//! patch branches → pack.

use codense_isa::IsaRef;
use codense_obj::ObjectModule;

use crate::config::{CompressionConfig, EncodingKind};
use crate::dict::Dictionary;
use crate::encoding::{self, try_write_codeword_coded, write_insn_coded};
use crate::error::CompressError;
use crate::greedy::{
    run_greedy, run_greedy_banned, run_greedy_with, BanSet, CandidateIndex, CostModel,
    GreedyParams, MatchfinderKind, PickRecord,
};
use crate::huffcode::HuffCode;
use crate::model::{Cell, ProgramModel};
use crate::nibbles::NibbleWriter;
use crate::selector::SelectorKind;

/// Synthetic high half of the overflow jump table's address (a `.data`
/// object created by the compressor for branches whose patched offsets no
/// longer fit; §3.2.2). Re-exported from `codense-isa` so backends can emit
/// matching dispatch sequences.
pub use codense_isa::OVERFLOW_TABLE_HI;

/// One element of the compressed program's logical stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Atom {
    /// An uncompressed instruction (branches carry their *patched* word).
    Insn {
        /// The (possibly patched) instruction word.
        word: u32,
        /// Original instruction index.
        orig: usize,
    },
    /// A codeword standing for a dictionary entry.
    Codeword {
        /// Dictionary entry index.
        entry: u32,
        /// Original index of the first covered instruction.
        orig: usize,
        /// Instructions covered.
        len: usize,
    },
    /// A branch rewritten to dispatch through the overflow jump table
    /// because its patched offset no longer fits its field.
    ViaTable {
        /// The original branch word.
        word: u32,
        /// Original instruction index.
        orig: usize,
        /// Slot in the overflow table holding the target address.
        slot: usize,
    },
}

impl Atom {
    /// Original index of the first instruction this atom covers.
    pub fn orig(&self) -> usize {
        match *self {
            Atom::Insn { orig, .. } | Atom::Codeword { orig, .. } | Atom::ViaTable { orig, .. } => {
                orig
            }
        }
    }

    /// Original instructions covered.
    pub fn covered(&self) -> usize {
        match *self {
            Atom::Codeword { len, .. } => len,
            _ => 1,
        }
    }
}

/// A compressed program: logical atom stream, dictionary, packed image,
/// patched data tables, and the selection log.
#[derive(Debug, Clone)]
pub struct CompressedProgram {
    /// Program name (copied from the module).
    pub name: String,
    /// Encoding scheme used.
    pub encoding: EncodingKind,
    /// The instruction-set architecture the program was compressed for.
    pub isa: IsaRef,
    /// The instruction dictionary.
    pub dictionary: Dictionary,
    /// Logical stream in program order.
    pub atoms: Vec<Atom>,
    /// Nibble address of each atom.
    pub addresses: Vec<u64>,
    /// The packed byte image of the compressed text section.
    pub image: Vec<u8>,
    /// Total stream length in nibbles.
    pub total_nibbles: u64,
    /// Jump tables patched to compressed (nibble) addresses.
    pub jump_tables: Vec<Vec<u64>>,
    /// Overflow jump table: target nibble address per rewritten branch.
    pub overflow_table: Vec<u64>,
    /// The greedy pick log (enables exact dictionary-size sweeps).
    pub picks: Vec<PickRecord>,
    /// Original text size in bytes.
    pub original_text_bytes: usize,
    /// The canonical Huffman codeword table ([`EncodingKind::Huffman`] only;
    /// `None` for the fixed-layout encodings).
    pub huffman: Option<HuffCode>,
}

impl CompressedProgram {
    /// Compressed text size in bytes (nibbles rounded up).
    pub fn text_bytes(&self) -> usize {
        self.total_nibbles.div_ceil(2) as usize
    }

    /// Dictionary size in bytes.
    pub fn dictionary_bytes(&self) -> usize {
        self.dictionary.size_bytes()
    }

    /// Bytes added to `.data` by overflow-branch rewriting.
    pub fn overflow_table_bytes(&self) -> usize {
        self.overflow_table.len() * 4
    }

    /// Bytes the Huffman decode table adds to the program (one nibble
    /// length per symbol, packed two per byte — the canonical code is fully
    /// determined by lengths); zero for the fixed-layout encodings.
    pub fn huffman_table_bytes(&self) -> usize {
        self.huffman.as_ref().map_or(0, |h| h.nibble_lengths().len().div_ceil(2))
    }

    /// The paper's compression ratio (Eq. 1): compressed size / original
    /// size, where compressed size includes the dictionary (plus any
    /// overflow-table bytes, and the Huffman decode table when that
    /// encoding is in use). Jump tables keep their original size and
    /// cancel out of the ratio.
    pub fn compression_ratio(&self) -> f64 {
        (self.text_bytes()
            + self.dictionary_bytes()
            + self.overflow_table_bytes()
            + self.huffman_table_bytes()) as f64
            / self.original_text_bytes as f64
    }

    /// Nibble address of the original instruction index, if it starts an
    /// atom (branch targets always do).
    pub fn address_of_orig(&self, orig: usize) -> Option<u64> {
        match self.atoms.binary_search_by_key(&orig, Atom::orig) {
            Ok(i) => Some(self.addresses[i]),
            Err(_) => None,
        }
    }

    /// Expands the logical stream back to (original index, word) pairs.
    /// Patched branch atoms yield their *patched* words.
    pub fn expand(&self) -> Vec<(usize, u32)> {
        let mut out = Vec::new();
        for atom in &self.atoms {
            match *atom {
                Atom::Insn { word, orig } => out.push((orig, word)),
                Atom::Codeword { entry, orig, len } => {
                    let words = &self.dictionary.entry(entry).words;
                    debug_assert_eq!(words.len(), len);
                    for (k, &w) in words.iter().enumerate() {
                        out.push((orig + k, w));
                    }
                }
                Atom::ViaTable { word, orig, .. } => out.push((orig, word)),
            }
        }
        out
    }
}

/// The compressor: a configured compression pipeline.
///
/// ```
/// use codense_core::{Compressor, CompressionConfig};
/// use codense_obj::ObjectModule;
/// use codense_ppc::{encode, Insn, reg::{R3, R0}};
///
/// # fn main() -> Result<(), codense_core::CompressError> {
/// let mut module = ObjectModule::new("demo");
/// module.code = vec![encode(&Insn::Addi { rt: R3, ra: R0, si: 7 }); 64];
/// let compressed = Compressor::new(CompressionConfig::baseline()).compress(&module)?;
/// assert!(compressed.compression_ratio() < 0.2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Compressor {
    config: CompressionConfig,
    matchfinder: MatchfinderKind,
    selector: SelectorKind,
    isa: IsaRef,
}

impl Default for Compressor {
    fn default() -> Compressor {
        Compressor::new(CompressionConfig::default())
    }
}

impl Compressor {
    /// Creates a compressor with the given configuration, targeting PowerPC.
    pub fn new(config: CompressionConfig) -> Compressor {
        Compressor {
            config,
            matchfinder: MatchfinderKind::default(),
            selector: SelectorKind::default(),
            isa: IsaRef(&codense_ppc::ISA),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CompressionConfig {
        &self.config
    }

    /// The target instruction-set architecture.
    pub fn isa(&self) -> IsaRef {
        self.isa
    }

    /// Selects which matchfinder backs the greedy pass. Output is
    /// byte-identical for every kind; [`MatchfinderKind::Reference`] exists
    /// for equivalence testing.
    pub fn with_matchfinder(mut self, kind: MatchfinderKind) -> Compressor {
        self.matchfinder = kind;
        self
    }

    /// Selects how dictionary entries are chosen: the greedy fast path
    /// (default) or the iterative-refinement hill climb, which re-scores
    /// candidate swaps with the exact layout cost (see [`crate::selector`]).
    pub fn with_selector(mut self, kind: SelectorKind) -> Compressor {
        self.selector = kind;
        self
    }

    /// The selector in use.
    pub fn selector(&self) -> SelectorKind {
        self.selector
    }

    /// Retargets the compressor at a different instruction-set architecture.
    pub fn with_isa(mut self, isa: IsaRef) -> Compressor {
        self.isa = isa;
        self
    }

    /// Compresses a module.
    ///
    /// # Errors
    ///
    /// See [`CompressError`].
    pub fn compress(&self, module: &ObjectModule) -> Result<CompressedProgram, CompressError> {
        self.compress_masked(module, &[])
    }

    /// Compresses a module against a prebuilt [`CandidateIndex`] (mined from
    /// a model of the same module at a window cap ≥ this configuration's
    /// `max_entry_len`). The sweep engine uses this to mine the program once
    /// and reuse the index at every sweep point; output is byte-identical to
    /// [`compress`](Self::compress).
    ///
    /// # Errors
    ///
    /// See [`CompressError`].
    ///
    /// # Panics
    ///
    /// Panics if the index's window cap is smaller than
    /// `config.max_entry_len`.
    pub fn compress_with_index(
        &self,
        module: &ObjectModule,
        index: &CandidateIndex,
    ) -> Result<CompressedProgram, CompressError> {
        match self.selector {
            SelectorKind::Greedy => self.compress_inner(module, &[], Some(index), &BanSet::new()),
            SelectorKind::Refine => crate::selector::refine(self, module, &[], Some(index)),
        }
    }

    /// Profile-guided hybrid compression: like [`compress`](Self::compress),
    /// but instruction `i` is exempted from dictionary replacement when
    /// `exempt[i]` is true. Exempt (hot) instructions stay in the stream as
    /// uncompressed atoms, and the greedy selector never counts occurrences
    /// inside them, so hot-only sequences cannot pollute the dictionary
    /// (§5's "leave frequently executed code uncompressed"). Callers derive
    /// block-aligned masks from an execution profile (`codense-profile`);
    /// an empty slice exempts nothing and is byte-identical to
    /// [`compress`](Self::compress).
    ///
    /// # Errors
    ///
    /// See [`CompressError`].
    ///
    /// # Panics
    ///
    /// Panics if `exempt` is non-empty and `exempt.len() != module.len()`.
    pub fn compress_masked(
        &self,
        module: &ObjectModule,
        exempt: &[bool],
    ) -> Result<CompressedProgram, CompressError> {
        match self.selector {
            SelectorKind::Greedy => self.compress_inner(module, exempt, None, &BanSet::new()),
            SelectorKind::Refine => crate::selector::refine(self, module, exempt, None),
        }
    }

    /// Builds the basic-block model with hot (exempt) cells already marked
    /// incompressible — the model state every selection pass runs against.
    pub(crate) fn build_masked_model(
        &self,
        module: &ObjectModule,
        exempt: &[bool],
    ) -> ProgramModel {
        let mut model = ProgramModel::build_isa(module, self.isa);
        if !exempt.is_empty() {
            for block in &mut model.blocks {
                for cell in &mut block.cells {
                    if let Cell::Insn { orig, compressible, .. } = cell {
                        if exempt[*orig] {
                            *compressible = false;
                        }
                    }
                }
            }
        }
        model
    }

    pub(crate) fn compress_inner(
        &self,
        module: &ObjectModule,
        exempt: &[bool],
        shared_index: Option<&CandidateIndex>,
        bans: &BanSet,
    ) -> Result<CompressedProgram, CompressError> {
        self.compress_inner_priced(module, exempt, shared_index, bans, None)
    }

    /// [`compress_inner`] with an overridden codeword-price estimate for
    /// greedy selection (in bits; `None` uses the encoding's default). The
    /// refinement selector probes cheaper prices for the variable-length
    /// encodings — selection admits more candidates, and the exact layout
    /// cost decides whether that was an improvement.
    pub(crate) fn compress_inner_priced(
        &self,
        module: &ObjectModule,
        exempt: &[bool],
        shared_index: Option<&CandidateIndex>,
        bans: &BanSet,
        codeword_bits: Option<u32>,
    ) -> Result<CompressedProgram, CompressError> {
        assert!(
            exempt.is_empty() || exempt.len() == module.len(),
            "exemption mask length {} does not match module length {}",
            exempt.len(),
            module.len()
        );
        let kind = self.config.encoding;
        crate::telemetry::COMPRESS_RUNS.inc();
        if !exempt.is_empty() {
            crate::telemetry::HYBRID_COMPRESSIONS.inc();
            crate::telemetry::HYBRID_EXEMPT_INSNS
                .add(exempt.iter().filter(|&&hot| hot).count() as u64);
        }
        let _phase = crate::telemetry::phase("compress");

        // Escape opcodes must not occur as real instructions under the
        // byte-level schemes (§4.1: escape bytes are *illegal* opcodes).
        // The nibble-granular schemes have explicit escape codewords and
        // accept any instruction word.
        if matches!(kind, EncodingKind::Baseline | EncodingKind::OneByte) {
            for (i, &w) in module.code.iter().enumerate() {
                if self.isa.escape_index((w >> 24) as u8).is_some() {
                    return Err(CompressError::EscapeCollision { at: i, word: w });
                }
            }
        }

        // 1. Greedy dictionary selection over the basic-block model. Hot
        //    (exempt) cells are marked incompressible before selection, so
        //    the occurrence index only ever sees eligible code.
        let greedy_phase = crate::telemetry::phase("greedy");
        let mut model = self.build_masked_model(module, exempt);
        let mut dictionary = Dictionary::new();
        let params = GreedyParams {
            max_entry_len: self.config.max_entry_len,
            max_codewords: self.config.effective_max_codewords(),
            cost: CostModel {
                insn_bits: kind.uncompressed_insn_bits(),
                codeword_bits: codeword_bits.unwrap_or_else(|| kind.codeword_bits_estimate()),
                dict_word_bits: 32,
                dict_entry_fixed_bits: 0,
            },
        };
        let picks = if !bans.is_empty() {
            // Banned selection is the refinement selector's probe; it always
            // runs against an index (the reference matchfinder has no ban
            // support, and refinement reuses one index across all trials).
            match shared_index {
                Some(index) => run_greedy_banned(index, &mut model, &mut dictionary, params, bans),
                None => {
                    let index = CandidateIndex::build(&model, params.max_entry_len)?;
                    run_greedy_banned(&index, &mut model, &mut dictionary, params, bans)
                }
            }
        } else {
            match (shared_index, self.matchfinder) {
                (Some(index), _) => run_greedy_with(index, &mut model, &mut dictionary, params),
                (None, MatchfinderKind::Interned) => {
                    run_greedy(&mut model, &mut dictionary, params)?
                }
                (None, MatchfinderKind::Reference) => {
                    crate::greedy::reference::run_greedy(&mut model, &mut dictionary, params)
                }
            }
        };
        drop(greedy_phase);

        // 2. Rank assignment: shortest codewords to the most-used entries.
        dictionary.assign_ranks_by_use();

        // 3. Initial atom stream.
        let mut atoms: Vec<Atom> = model
            .atoms()
            .map(|cell| match cell {
                Cell::Insn { word, orig, .. } => Atom::Insn { word, orig },
                Cell::Code { entry, orig, len } => Atom::Codeword { entry, orig, len },
                Cell::Dead => unreachable!("atoms() skips tombstones"),
            })
            .collect();

        // 3b. Huffman only: freeze the codeword table from actual usage —
        // per-rank replacement counts plus the initial escape (uncompressed
        // instruction) count. The code stays fixed through the layout
        // fixpoint even though ViaTable rewrites add escaped instructions;
        // frequencies are weights, not an exact stream census.
        let huffman = (kind == EncodingKind::Huffman).then(|| {
            crate::telemetry::HUFFMAN_CODES_BUILT.inc();
            let rank_freqs: Vec<u64> = (0..dictionary.len() as u32)
                .map(|rank| dictionary.entry(dictionary.entry_of_rank(rank)).replaced as u64)
                .collect();
            let escape_freq =
                atoms.iter().filter(|a| matches!(a, Atom::Insn { .. })).count() as u64;
            HuffCode::from_frequencies(&rank_freqs, escape_freq)
        });
        let huff = huffman.as_ref();

        // 4. Layout fixpoint: compute addresses; rewrite branches whose
        //    patched offsets overflow into overflow-table dispatches (which
        //    changes sizes, hence the loop). Rewrites only grow atoms, so
        //    the set of rewritten branches grows monotonically and the loop
        //    terminates.
        let layout_phase = crate::telemetry::phase("layout");
        let mut overflow_slots = 0usize;
        let mut addresses;
        let mut rounds = 0;
        loop {
            crate::telemetry::COMPRESS_LAYOUT_ROUNDS.inc();
            addresses = self.layout(&atoms, &dictionary, huff);
            let addr_of = |orig: usize, atoms: &[Atom]| -> u64 {
                match atoms.binary_search_by_key(&orig, Atom::orig) {
                    Ok(i) => addresses[i],
                    Err(_) => unreachable!("branch target {orig} is not an atom start"),
                }
            };
            let mut changed = false;
            for i in 0..atoms.len() {
                let Atom::Insn { word, orig } = atoms[i] else { continue };
                let Some(info) = self.isa.rel_branch_info(word) else { continue };
                let target = (orig as i64 + (info.offset / 4) as i64) as usize;
                let delta = addr_of(target, &atoms) as i64 - addresses[i] as i64;
                if !self.isa.offset_expressible(info.kind, delta, kind.granule_nibbles()) {
                    // Rewrite through the overflow table. Branches the ISA
                    // cannot expand into a dispatch sequence (e.g. PowerPC's
                    // CTR-decrementing forms, whose dispatch would clobber
                    // CTR) are unsupported.
                    let insn_nibbles = encoding::insn_nibbles_coded(kind, huff);
                    if self
                        .isa
                        .overflow_expansion(word, 0, kind.granule_nibbles(), insn_nibbles)
                        .is_none()
                    {
                        return Err(CompressError::UnsupportedOverflowBranch { at: orig });
                    }
                    atoms[i] = Atom::ViaTable { word, orig, slot: overflow_slots };
                    crate::telemetry::COMPRESS_OVERFLOW_REWRITES.inc();
                    overflow_slots += 1;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            rounds += 1;
            if rounds > 64 {
                return Err(CompressError::LayoutDiverged);
            }
        }

        // 5. Patch branch offsets and collect overflow-table targets.
        // Targets are atom starts and atoms stay sorted by original index
        // (patching rewrites words, never `orig`), so the same binary
        // search the fixpoint loop uses stands in for a hash map of every
        // atom address.
        let addr_of = |orig: usize, atoms: &[Atom], addresses: &[u64]| -> u64 {
            match atoms.binary_search_by_key(&orig, Atom::orig) {
                Ok(i) => addresses[i],
                Err(_) => unreachable!("branch target {orig} is not an atom start"),
            }
        };
        let mut overflow_table = vec![0u64; overflow_slots];
        for i in 0..atoms.len() {
            match atoms[i] {
                Atom::Insn { word, orig } => {
                    let Some(info) = self.isa.rel_branch_info(word) else { continue };
                    let target = (orig as i64 + (info.offset / 4) as i64) as usize;
                    let delta = addr_of(target, &atoms, &addresses) as i64 - addresses[i] as i64;
                    let units = delta / kind.granule_nibbles() as i64;
                    let patched = self.isa.patch_offset_units(word, info.kind, units as i32);
                    atoms[i] = Atom::Insn { word: patched, orig };
                }
                Atom::ViaTable { word, orig, slot } => {
                    let info = self.isa.rel_branch_info(word).expect("ViaTable holds a branch");
                    let target = (orig as i64 + (info.offset / 4) as i64) as usize;
                    overflow_table[slot] = addr_of(target, &atoms, &addresses);
                }
                Atom::Codeword { .. } => {}
            }
        }

        drop(layout_phase);

        // 6. Pack the image.
        let pack_phase = crate::telemetry::phase("pack");
        let mut w = NibbleWriter::new();
        for (i, atom) in atoms.iter().enumerate() {
            debug_assert_eq!(w.len(), addresses[i], "layout/pack disagreement at atom {i}");
            match *atom {
                Atom::Insn { word, .. } => write_insn_coded(kind, huff, &mut w, word),
                Atom::Codeword { entry, .. } => try_write_codeword_coded(
                    kind,
                    self.isa,
                    huff,
                    &mut w,
                    dictionary.rank_of(entry),
                )?,
                Atom::ViaTable { word, slot, .. } => {
                    for insn_word in via_table_expansion_coded(self.isa, kind, huff, word, slot) {
                        write_insn_coded(kind, huff, &mut w, insn_word);
                    }
                }
            }
        }
        let total_nibbles = w.len();
        drop(pack_phase);

        // 7. Patch jump tables to compressed addresses.
        let jump_tables = module
            .jump_tables
            .iter()
            .map(|t| t.targets.iter().map(|&idx| addr_of(idx, &atoms, &addresses)).collect())
            .collect();

        Ok(CompressedProgram {
            name: module.name.clone(),
            encoding: kind,
            isa: self.isa,
            dictionary,
            atoms,
            addresses,
            image: w.into_bytes(),
            total_nibbles,
            jump_tables,
            overflow_table,
            picks,
            original_text_bytes: module.text_bytes(),
            huffman,
        })
    }

    /// Computes each atom's nibble address under the current sizes.
    fn layout(&self, atoms: &[Atom], dict: &Dictionary, huff: Option<&HuffCode>) -> Vec<u64> {
        let kind = self.config.encoding;
        let mut addr = 0u64;
        let mut out = Vec::with_capacity(atoms.len());
        for atom in atoms {
            out.push(addr);
            addr += atom_nibbles_coded(self.isa, kind, huff, atom, dict);
        }
        out
    }
}

/// Size of one atom in nibbles (PowerPC; see [`atom_nibbles_with`]).
pub fn atom_nibbles(kind: EncodingKind, atom: &Atom, dict: &Dictionary) -> u64 {
    atom_nibbles_with(IsaRef(&codense_ppc::ISA), kind, atom, dict)
}

/// Size of one atom in nibbles under `isa` (fixed-layout encodings; for
/// [`EncodingKind::Huffman`] use [`atom_nibbles_coded`]).
pub fn atom_nibbles_with(isa: IsaRef, kind: EncodingKind, atom: &Atom, dict: &Dictionary) -> u64 {
    atom_nibbles_coded(isa, kind, None, atom, dict)
}

/// Size of one atom in nibbles under `isa`, with the program's Huffman
/// codeword table when the encoding needs one.
///
/// # Panics
///
/// Panics if `kind` is [`EncodingKind::Huffman`] and `huff` is `None`, or
/// the atom's rank has no codeword in the table.
pub fn atom_nibbles_coded(
    isa: IsaRef,
    kind: EncodingKind,
    huff: Option<&HuffCode>,
    atom: &Atom,
    dict: &Dictionary,
) -> u64 {
    match *atom {
        Atom::Insn { .. } => encoding::insn_nibbles_coded(kind, huff) as u64,
        Atom::Codeword { entry, .. } => {
            let rank = dict.rank_of(entry);
            encoding::try_codeword_nibbles_coded(kind, huff, rank)
                .unwrap_or_else(|| panic!("rank {rank} has no codeword under {kind:?}"))
                as u64
        }
        Atom::ViaTable { word, slot, .. } => {
            via_table_expansion_coded(isa, kind, huff, word, slot).len() as u64
                * encoding::insn_nibbles_coded(kind, huff) as u64
        }
    }
}

/// The instruction sequence a [`Atom::ViaTable`] packs under PowerPC (see
/// [`via_table_expansion_with`]).
pub fn via_table_expansion(kind: EncodingKind, word: u32, slot: usize) -> Vec<u32> {
    via_table_expansion_with(IsaRef(&codense_ppc::ISA), kind, word, slot)
}

/// The instruction sequence a [`Atom::ViaTable`] packs under `isa`
/// (fixed-layout encodings; for [`EncodingKind::Huffman`] use
/// [`via_table_expansion_coded`]).
///
/// # Panics
///
/// Panics if the ISA cannot expand `word` (the compressor rejects such
/// branches with [`CompressError::UnsupportedOverflowBranch`] earlier).
pub fn via_table_expansion_with(
    isa: IsaRef,
    kind: EncodingKind,
    word: u32,
    slot: usize,
) -> Vec<u32> {
    via_table_expansion_coded(isa, kind, None, word, slot)
}

/// The instruction sequence a [`Atom::ViaTable`] packs under `isa`: an
/// optional inverted conditional skip, then a dispatch sequence loading the
/// true target from the overflow jump table (the paper's "modified to load
/// their targets through jump tables", §3.2.2). The escaped-instruction
/// width the skip displacement is computed at depends on the Huffman escape
/// length, hence the table parameter.
///
/// # Panics
///
/// Panics if the ISA cannot expand `word` (the compressor rejects such
/// branches with [`CompressError::UnsupportedOverflowBranch`] earlier), or
/// if `kind` is [`EncodingKind::Huffman`] and `huff` is `None`.
pub fn via_table_expansion_coded(
    isa: IsaRef,
    kind: EncodingKind,
    huff: Option<&HuffCode>,
    word: u32,
    slot: usize,
) -> Vec<u32> {
    isa.overflow_expansion(
        word,
        slot as u32,
        kind.granule_nibbles(),
        encoding::insn_nibbles_coded(kind, huff),
    )
    .expect("ViaTable holds a supported relative branch")
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_ppc::branch::RelBranchKind;
    use codense_ppc::encode;
    use codense_ppc::insn::{bo, Insn};
    use codense_ppc::reg::*;

    fn addi(rt: u8, si: i16) -> u32 {
        encode(&Insn::Addi { rt: codense_ppc::Gpr::new(rt).unwrap(), ra: R3, si })
    }

    fn simple_module(words: Vec<u32>) -> ObjectModule {
        let mut m = ObjectModule::new("t");
        m.code = words;
        m
    }

    #[test]
    fn repeated_block_compresses() {
        let mut words = Vec::new();
        for _ in 0..32 {
            words.extend_from_slice(&[addi(3, 1), addi(4, 2), addi(5, 3), addi(6, 4)]);
        }
        let m = simple_module(words);
        let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        assert!(c.compression_ratio() < 0.25, "ratio = {}", c.compression_ratio());
        assert!(!c.dictionary.is_empty());
        // Expanded stream equals the original.
        let expanded = c.expand();
        assert_eq!(expanded.len(), m.len());
        for (orig, w) in expanded {
            assert_eq!(w, m.code[orig]);
        }
    }

    #[test]
    fn unique_program_stays_uncompressed() {
        let words: Vec<u32> = (0..64).map(|i| addi(3, i)).collect();
        let m = simple_module(words);
        let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        assert_eq!(c.dictionary.len(), 0);
        assert_eq!(c.text_bytes(), m.text_bytes());
        assert!((c.compression_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn escape_collision_detected() {
        let m = simple_module(vec![0x0000_0000; 8]); // opcode 0 is an escape
        let err = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap_err();
        assert!(matches!(err, CompressError::EscapeCollision { at: 0, .. }));
        // The nibble scheme has explicit escapes and accepts such words.
        let ok = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m);
        assert!(ok.is_ok());
    }

    #[test]
    fn branches_patched_to_new_addresses() {
        use codense_ppc::asm::Assembler;
        let mut a = Assembler::new();
        // A compressible prefix that shrinks, then a backwards branch whose
        // offset must be re-encoded at 2-byte granularity.
        for _ in 0..8 {
            a.emit(Insn::Addi { rt: R3, ra: R3, si: 5 });
            a.emit(Insn::Addi { rt: R4, ra: R4, si: 5 });
        }
        a.label("target");
        a.emit(Insn::Addi { rt: R5, ra: R5, si: 1 });
        a.emit(Insn::Cmpwi { bf: CR0, ra: R5, si: 3 });
        a.bne(CR0, "target");
        a.emit(Insn::Sc);
        let mut m = ObjectModule::new("t");
        m.code = a.finish().unwrap();

        let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        crate::verify::verify(&m, &c).unwrap();
    }

    #[test]
    fn via_table_expansion_shapes() {
        // Unconditional branch: 4-instruction dispatch, no skip.
        let b = encode(&Insn::B { li: 4096, aa: false, lk: false });
        let seq = via_table_expansion(EncodingKind::Baseline, b, 3);
        assert_eq!(seq.len(), 4);
        assert!(matches!(codense_ppc::decode(seq[3]), Insn::Bcctr { lk: false, .. }));
        // Call keeps LK.
        let bl = encode(&Insn::B { li: 4096, aa: false, lk: true });
        let seq = via_table_expansion(EncodingKind::Baseline, bl, 0);
        assert!(matches!(codense_ppc::decode(seq[3]), Insn::Bcctr { lk: true, .. }));
        // Conditional branch gains an inverted skip.
        let bc = encode(&Insn::Bc { bo: bo::IF_TRUE, bi: 2, bd: 64, aa: false, lk: false });
        let seq = via_table_expansion(EncodingKind::Baseline, bc, 0);
        assert_eq!(seq.len(), 5);
        match codense_ppc::decode(seq[0]) {
            Insn::Bc { bo: b, bi, .. } => {
                assert_eq!(b, bo::IF_FALSE);
                assert_eq!(bi, 2);
            }
            other => panic!("expected inverted bc, got {other:?}"),
        }
        // Skip displacement covers the whole 5-instruction atom.
        let units = codense_ppc::branch::read_offset_units(seq[0], RelBranchKind::BForm);
        assert_eq!(units as u32 * EncodingKind::Baseline.granule_nibbles(), 5 * 8);
    }

    #[test]
    fn one_byte_scheme_small_dictionary() {
        let mut words = Vec::new();
        for _ in 0..64 {
            words.extend_from_slice(&[addi(3, 1), addi(4, 2)]);
        }
        let m = simple_module(words);
        let c = Compressor::new(CompressionConfig::small_dictionary(8)).compress(&m).unwrap();
        assert!(c.dictionary.len() <= 8);
        assert!(c.dictionary_bytes() <= 128);
        assert!(c.compression_ratio() < 0.5);
    }

    #[test]
    fn nibble_scheme_beats_baseline_on_redundant_code() {
        let mut words = Vec::new();
        for i in 0..64 {
            words.extend_from_slice(&[addi(3, 1), addi(4, 2), addi(5, (i % 4) as i16)]);
        }
        let m = simple_module(words);
        let base = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        let nib = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
        assert!(
            nib.compression_ratio() < base.compression_ratio(),
            "nibble {} vs baseline {}",
            nib.compression_ratio(),
            base.compression_ratio()
        );
    }
}
