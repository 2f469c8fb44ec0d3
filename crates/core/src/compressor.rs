//! The compression pipeline, in two halves.
//!
//! * **Lay-out** (`Compressor::lay_out`): select → rank → Huffman table →
//!   mark addresses → layout fixpoint. Its result, a `LaidOut`, is a size:
//!   the exact size of the finished program (the numerator of the paper's
//!   Eq. 1) and every overflow decision, computed from the selection's head
//!   array and the addresses of the *marks*, the branch sites and targets.
//!   It builds no atom and holds no packed nibble.
//! * **Finish** (`Compressor::finish`): the one place the atom stream and
//!   its addresses are built; then patch branches and jump tables → pack,
//!   building the [`CompressedProgram`].
//!
//! Greedy compression runs both halves in a row. The refinement selector
//! ([`crate::selector`]) scores each trial by its lay-out alone and
//! finishes only the winner. What depends only on the module, its
//! PC-relative branches, their marks and the escape-collision scan, is
//! resolved once per compression into a `Prepared` that every lay-out reads;
//! a branch or jump-table target outside the text is refused there, before
//! any model is built. The program model (per-instruction flags, hot code
//! masked incompressible) is built once per compression too, to mine the
//! candidate index, and dropped before selection: selection returns a
//! per-cell head array, which is all a lay-out and its finish read of it.

use codense_isa::{BranchKind, IsaRef};
use codense_obj::{ModuleError, ObjectModule};

use crate::config::{CompressionConfig, EncodingKind};
use crate::dict::Dictionary;
use crate::encoding::{self, try_write_codeword_coded, write_insn_coded};
use crate::error::CompressError;
use crate::greedy::{
    BanSet, CandidateIndex, CostModel, GreedyParams, MatchfinderKind, PickRecord, NO_ENTRY,
};
use crate::huffcode::HuffCode;
use crate::model::ProgramModel;
use crate::nibbles::NibbleWriter;
use crate::selector::SelectorKind;
use crate::telemetry;

/// Synthetic high half of the overflow jump table's address (a `.data`
/// object created by the compressor for branches whose patched offsets no
/// longer fit; §3.2.2). Re-exported from `codense-isa` so backends can emit
/// matching dispatch sequences.
pub use codense_isa::OVERFLOW_TABLE_HI;

/// One element of the compressed program's logical stream.
///
/// Every field is 32 bits wide, so an atom takes 16 bytes. The compressor
/// indexes a module's cells in 32 bits throughout (mining refuses a
/// program whose cells do not fit, with [`CompressError::ProgramTooLarge`]),
/// so an original index, a length and an overflow slot all fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Atom {
    /// An uncompressed instruction (branches carry their *patched* word).
    Insn {
        /// The (possibly patched) instruction word.
        word: u32,
        /// Original instruction index.
        orig: u32,
    },
    /// A codeword standing for a dictionary entry.
    Codeword {
        /// Dictionary entry index.
        entry: u32,
        /// Original index of the first covered instruction.
        orig: u32,
        /// Instructions covered.
        len: u32,
    },
    /// A branch rewritten to dispatch through the overflow jump table
    /// because its patched offset no longer fits its field.
    ViaTable {
        /// The original branch word.
        word: u32,
        /// Original instruction index.
        orig: u32,
        /// Slot in the overflow table holding the target address.
        slot: u32,
    },
}

impl Atom {
    /// Original index of the first instruction this atom covers.
    pub fn orig(&self) -> usize {
        match *self {
            Atom::Insn { orig, .. } | Atom::Codeword { orig, .. } | Atom::ViaTable { orig, .. } => {
                orig as usize
            }
        }
    }

    /// Original instructions covered.
    pub fn covered(&self) -> usize {
        match *self {
            Atom::Codeword { len, .. } => len as usize,
            _ => 1,
        }
    }
}

/// A compressed program: logical atom stream, dictionary, packed image,
/// patched data tables, and the selection log.
///
/// Addresses are 32-bit nibble addresses, the width [`ProgramImage`] and
/// the container record: the compressor refuses a stream longer than
/// `u32::MAX` nibbles ([`CompressError::StreamTooLong`]), so every address
/// of a finished program fits.
///
/// [`ProgramImage`]: crate::container::ProgramImage
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
    pub addresses: Vec<u32>,
    /// The packed byte image of the compressed text section.
    pub image: Vec<u8>,
    /// Total stream length in nibbles.
    pub total_nibbles: u64,
    /// Jump tables patched to compressed (nibble) addresses.
    pub jump_tables: Vec<Vec<u32>>,
    /// Overflow jump table: target nibble address per rewritten branch.
    pub overflow_table: Vec<u32>,
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

    /// Compressed size in bytes, the numerator of the paper's Eq. 1: text,
    /// dictionary, overflow table and Huffman decode table.
    pub(crate) fn compressed_bytes(&self) -> usize {
        eq1_bytes(
            self.total_nibbles,
            &self.dictionary,
            self.overflow_table.len(),
            self.huffman.as_ref(),
        )
    }

    /// The paper's compression ratio (Eq. 1): compressed size / original
    /// size, where compressed size includes the dictionary (plus any
    /// overflow-table bytes, and the Huffman decode table when that
    /// encoding is in use). Jump tables keep their original size and
    /// cancel out of the ratio.
    pub fn compression_ratio(&self) -> f64 {
        self.compressed_bytes() as f64 / self.original_text_bytes as f64
    }

    /// Nibble address of the original instruction index, if it starts an
    /// atom (branch targets always do).
    pub fn address_of_orig(&self, orig: usize) -> Option<u32> {
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
                Atom::Insn { word, orig } | Atom::ViaTable { word, orig, .. } => {
                    out.push((orig as usize, word))
                }
                Atom::Codeword { entry, orig, len } => {
                    let words = &self.dictionary.entry(entry).words;
                    debug_assert_eq!(words.len(), len as usize);
                    for (k, &w) in words.iter().enumerate() {
                        out.push((orig as usize + k, w));
                    }
                }
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
/// let mut module = ObjectModule::new("demo", codense_obj::IsaId::Ppc);
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
    /// Creates a compressor with the given configuration, targeting PowerPC
    /// (the one backend this crate links; [`with_isa`](Self::with_isa)
    /// retargets it). Compressing a module built for another ISA is an
    /// [`CompressError::IsaMismatch`], never a PowerPC reading of its words.
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
    /// It then compresses only modules built for `isa`.
    pub fn with_isa(mut self, isa: IsaRef) -> Compressor {
        self.isa = isa;
        self
    }

    /// Rejects a module built for another ISA than the target.
    fn check_isa(&self, module: &ObjectModule) -> Result<(), CompressError> {
        if self.isa.id() != module.isa {
            return Err(CompressError::IsaMismatch {
                module: module.isa,
                compressor: self.isa.id(),
            });
        }
        Ok(())
    }

    /// Compresses a module built for the target ISA.
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
        self.check_isa(module)?;
        match self.selector {
            SelectorKind::Greedy => self.compress_greedy(module, &[], Some(index)),
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
        self.check_isa(module)?;
        match self.selector {
            SelectorKind::Greedy => self.compress_greedy(module, exempt, None),
            SelectorKind::Refine => crate::selector::refine(self, module, exempt, None),
        }
    }

    /// Builds the program model with hot (exempt) instructions masked
    /// incompressible — the model state candidate mining runs against.
    pub(crate) fn build_masked_model<'a>(
        &self,
        module: &'a ObjectModule,
        exempt: &[bool],
    ) -> ProgramModel<'a> {
        let _phase = telemetry::phase("model");
        let mut model = ProgramModel::build_isa(module, self.isa);
        if !exempt.is_empty() {
            model.exclude(exempt);
        }
        model
    }

    /// Greedy compression: one lay-out, finished.
    fn compress_greedy(
        &self,
        module: &ObjectModule,
        exempt: &[bool],
        index: Option<&CandidateIndex>,
    ) -> Result<CompressedProgram, CompressError> {
        let _compress = telemetry::phase("compress");
        let prep = Prepared::new(self, module, exempt)?;
        let laid =
            self.lay_out(&prep, |dict| self.select(&prep, index, &BanSet::new(), None, dict))?;
        let _pack = telemetry::phase("pack");
        self.finish(&prep, laid)
    }

    /// The selection limits, and the savings model with codewords priced at
    /// `codeword_bits`, or at the encoding's estimate when `None`.
    pub(crate) fn greedy_params(&self, codeword_bits: Option<u32>) -> GreedyParams {
        let kind = self.config.encoding;
        GreedyParams {
            max_entry_len: self.config.max_entry_len,
            max_codewords: self.config.effective_max_codewords(),
            cost: selection_cost(
                kind,
                codeword_bits.unwrap_or_else(|| kind.codeword_bits_estimate()),
            ),
        }
    }

    /// Greedy dictionary selection from scratch, into `dictionary`: against
    /// `index` minus `bans` when given one, and otherwise mining the masked
    /// model itself (or running the reference engine). `codeword_bits`
    /// overrides the encoding's codeword-price estimate (see
    /// [`greedy_params`](Self::greedy_params)); the refinement selector
    /// probes other prices and lets the exact cost decide. Returns the pick
    /// log and the head array.
    ///
    /// # Errors
    ///
    /// [`CompressError::ProgramTooLarge`] if it mines an index the program
    /// does not fit.
    pub(crate) fn select(
        &self,
        prep: &Prepared,
        index: Option<&CandidateIndex>,
        bans: &BanSet,
        codeword_bits: Option<u32>,
        dictionary: &mut Dictionary,
    ) -> Result<(Vec<PickRecord>, Vec<u32>), CompressError> {
        debug_assert!(index.is_some() || bans.is_empty(), "bans need a shared index");
        let params = self.greedy_params(codeword_bits);
        // Hot (exempt) cells are marked incompressible in the model the
        // index is mined from, so the occurrence index only ever sees
        // eligible code. The model lives only as long as mining: selection
        // returns the head array. The reference engine mines as it selects,
        // so only its model building is timed apart.
        Ok(match (index, self.matchfinder) {
            (Some(index), _) => {
                let _phase = telemetry::phase("select");
                crate::greedy::select(index, dictionary, params, bans)
            }
            (None, MatchfinderKind::Reference) => {
                let mut model = self.build_masked_model(prep.module, prep.exempt);
                let picks = crate::greedy::reference::run_greedy(&mut model, dictionary, params);
                (picks, model.heads)
            }
            (None, MatchfinderKind::Interned) => {
                let index = {
                    let model = self.build_masked_model(prep.module, prep.exempt);
                    let _phase = telemetry::phase("mine");
                    CandidateIndex::build(&model, params.max_entry_len)?
                };
                let _phase = telemetry::phase("select");
                crate::greedy::select_owned(index, dictionary, params)
            }
        })
    }

    /// The first half of a compression: selection, rank assignment, the
    /// Huffman table, the mark addresses and the layout fixpoint. `select`
    /// makes the selection, into the empty dictionary it is handed, under
    /// the `greedy` phase: [`select`](Self::select) from scratch, or a run
    /// the refinement selector resumes from its checkpoint. Everything
    /// after it reads only the dictionary, the pick log and the head array,
    /// under the `layout` phase, and builds nothing per atom.
    ///
    /// # Errors
    ///
    /// See [`CompressError`]; a lay-out that succeeds always finishes. A
    /// stream longer than `u32::MAX` nibbles is refused here, the one place
    /// a nibble count narrows to the 32 bits a finished program's addresses
    /// take ([`CompressError::StreamTooLong`]).
    pub(crate) fn lay_out(
        &self,
        prep: &Prepared,
        select: impl FnOnce(&mut Dictionary) -> Result<(Vec<PickRecord>, Vec<u32>), CompressError>,
    ) -> Result<LaidOut, CompressError> {
        let kind = self.config.encoding;
        telemetry::COMPRESS_RUNS.inc();
        if !prep.exempt.is_empty() {
            telemetry::HYBRID_COMPRESSIONS.inc();
            telemetry::HYBRID_EXEMPT_INSNS.add(prep.exempt_insns);
        }
        if let Some(collision) = &prep.collision {
            return Err(collision.clone());
        }

        // 1. Greedy dictionary selection.
        let greedy_phase = telemetry::phase("greedy");
        let mut dictionary = Dictionary::new();
        let (picks, heads) = select(&mut dictionary)?;
        drop(greedy_phase);
        let _layout = telemetry::phase("layout");
        let code = &prep.module.code;
        debug_assert_eq!(heads.len(), code.len());
        debug_assert!(
            starts_atoms(&heads, &dictionary, &prep.marks),
            "a branch site or target lies inside a codeword"
        );

        // 2. Rank assignment: shortest codewords to the most-used entries.
        dictionary.assign_ranks_by_use();

        // 3. Huffman only: freeze the codeword table from actual usage —
        //    per-rank replacement counts plus the escape count, the cells no
        //    codeword covers. The code stays fixed through the layout
        //    fixpoint even though ViaTable rewrites add escaped instructions;
        //    frequencies are weights, not an exact stream census.
        let huffman = (kind == EncodingKind::Huffman).then(|| {
            telemetry::HUFFMAN_CODES_BUILT.inc();
            let covered: usize = dictionary.entries().iter().map(|e| e.replaced * e.len()).sum();
            let rank_freqs: Vec<u64> = (0..dictionary.len() as u32)
                .map(|rank| dictionary.entry(dictionary.entry_of_rank(rank)).replaced as u64)
                .collect();
            HuffCode::from_frequencies(&rank_freqs, (code.len() - covered) as u64)
        });
        let huff = huffman.as_ref();
        let granule = kind.granule_nibbles();
        let insn_nibbles = encoding::insn_nibbles_coded(kind, huff);

        // 4. Mark addresses, in one branch-free pass over the head array.
        //    Every cell counts as an escaped instruction, and the cell a
        //    codeword heads adds what the codeword changes against the
        //    instructions it covers. The cells inside a codeword hold
        //    `NO_ENTRY`, which `+ 1` wraps to slot 0 of `change`: nothing.
        //    A mark starts an atom, so every codeword headed before it also
        //    ends before it.
        let mut change = vec![0i64; dictionary.len() + 1];
        for (entry, nibbles) in codeword_nibbles(kind, huff, &dictionary).into_iter().enumerate() {
            let replaced = dictionary.entry(entry as u32).len() as i64 * insn_nibbles as i64;
            change[entry + 1] = nibbles as i64 - replaced;
        }
        let size_change = |cells: &[u32]| -> i64 {
            cells.iter().map(|&h| change[h.wrapping_add(1) as usize]).sum()
        };
        let mut addresses = Vec::with_capacity(prep.marks.len());
        let (mut cell, mut changed) = (0usize, 0i64);
        for &mark in &prep.marks {
            let mark = mark as usize;
            changed += size_change(&heads[cell..mark]);
            addresses.push((insn_nibbles as i64 * mark as i64 + changed) as u64);
            cell = mark;
        }
        changed += size_change(&heads[cell..]);
        let mut total_nibbles = (insn_nibbles as i64 * code.len() as i64 + changed) as u64;

        // 5. Layout fixpoint on the mark addresses: rewrite branches whose
        //    patched offsets overflow into overflow-table dispatches, slots
        //    numbered in branch order, round by round. A rewrite grows its
        //    site by the dispatch's extra instructions, which moves every
        //    mark after the site; the moves apply at the round's end, so a
        //    round checks every branch not yet rewritten against the
        //    addresses the previous rounds left. Rewrites only grow the
        //    stream, so the set of rewritten branches grows monotonically
        //    and the loop terminates.
        let mut slots: Vec<Option<u32>> = vec![None; prep.branches.len()];
        let mut overflow_slots = 0usize;
        // This round's rewrites: (site mark, nibbles grown), in mark order.
        let mut grown: Vec<(usize, u64)> = Vec::new();
        let mut rounds = 0;
        loop {
            telemetry::COMPRESS_LAYOUT_ROUNDS.inc();
            for (branch, slot) in prep.branches.iter().zip(&mut slots) {
                if slot.is_some() {
                    continue;
                }
                let (site, target) = (branch.site as usize, branch.target as usize);
                let delta = addresses[target] as i64 - addresses[site] as i64;
                if self.isa.offset_expressible(branch.kind, delta, granule) {
                    continue;
                }
                // Rewrite through the overflow table. Branches the ISA
                // cannot expand into a dispatch sequence (e.g. PowerPC's
                // CTR-decrementing forms, whose dispatch would clobber CTR)
                // are unsupported.
                let at = prep.marks[site] as usize;
                let Some(dispatch) = self.isa.overflow_expansion(
                    code[at],
                    overflow_slots as u32,
                    granule,
                    insn_nibbles,
                ) else {
                    return Err(CompressError::UnsupportedOverflowBranch { at });
                };
                *slot = Some(overflow_slots as u32);
                grown.push((site, (dispatch.len() as u64 - 1) * insn_nibbles as u64));
                telemetry::COMPRESS_OVERFLOW_REWRITES.inc();
                overflow_slots += 1;
            }
            let Some(&(first, _)) = grown.first() else { break };
            let mut moved = 0;
            let mut sites = grown.drain(..).peekable();
            for (mark, address) in addresses.iter_mut().enumerate().skip(first) {
                *address += moved;
                if let Some((_, nibbles)) = sites.next_if(|&(site, _)| site == mark) {
                    moved += nibbles;
                }
            }
            total_nibbles += moved;
            rounds += 1;
            if rounds > 64 {
                return Err(CompressError::LayoutDiverged);
            }
        }
        let total_nibbles = nibble_count(total_nibbles)?;

        Ok(LaidOut { dictionary, heads, slots, total_nibbles, overflow_slots, huffman, picks })
    }

    /// The second half of a compression, and the one place atoms are built:
    /// the atom stream and its addresses from the head array and the
    /// overflow slots, then every branch patched to its target (or its
    /// overflow-table slot filled), the jump tables patched and the image
    /// packed. `laid` must come from [`lay_out`](Self::lay_out) on the same
    /// `prep`.
    ///
    /// # Errors
    ///
    /// Only a codeword the encoding cannot write, which layout has already
    /// sized with the same table (and would have panicked on).
    pub(crate) fn finish(
        &self,
        prep: &Prepared,
        laid: LaidOut,
    ) -> Result<CompressedProgram, CompressError> {
        let kind = self.config.encoding;
        let LaidOut { dictionary, heads, slots, total_nibbles, overflow_slots, huffman, picks } =
            laid;
        let huff = huffman.as_ref();
        let code = &prep.module.code;
        let insn_nibbles = encoding::insn_nibbles_coded(kind, huff);
        let entry_nibbles = codeword_nibbles(kind, huff, &dictionary);

        // 6. The atom stream, from the module's words, the head array (a
        //    cell's flat offset is its original index) and the overflow
        //    slots. Each atom start's head slot is overwritten with the
        //    atom's index once read, which turns the array into an
        //    original-index → atom table for the branch sites and targets
        //    and the jump-table targets: all are atom starts, and the cells
        //    a codeword covers keep `NO_ENTRY`. The table is dropped before
        //    the addresses are allocated, so a finish never holds the head
        //    array and the addresses at once.
        let covered: usize = dictionary.entries().iter().map(|e| e.replaced * (e.len() - 1)).sum();
        let mut atoms = Vec::with_capacity(code.len() - covered);
        let mut rewritten = prep
            .branches
            .iter()
            .zip(&slots)
            .filter_map(|(b, &slot)| Some((prep.marks[b.site as usize] as usize, slot?)))
            .peekable();
        let mut atom_at = heads;
        let mut i = 0;
        while i < code.len() {
            let entry = atom_at[i];
            atom_at[i] = atoms.len() as u32;
            let orig = i as u32;
            let atom = if entry != NO_ENTRY {
                Atom::Codeword { entry, orig, len: dictionary.entry(entry).len() as u32 }
            } else if let Some((_, slot)) = rewritten.next_if(|&(site, _)| site == i) {
                Atom::ViaTable { word: code[i], orig, slot }
            } else {
                Atom::Insn { word: code[i], orig }
            };
            i += atom.covered();
            atoms.push(atom);
        }
        let atom_of = |mark: u32| atom_at[prep.marks[mark as usize] as usize] as usize;
        let branch_atoms: Vec<(usize, usize)> =
            prep.branches.iter().map(|b| (atom_of(b.site), atom_of(b.target))).collect();
        // Each jump-table entry holds its target's atom until step 8.
        let mut jump_tables: Vec<Vec<u32>> = prep
            .module
            .jump_tables
            .iter()
            .map(|t| {
                t.targets
                    .iter()
                    .map(|&idx| {
                        let atom = atom_at[idx];
                        assert_ne!(atom, NO_ENTRY, "jump-table targets start atoms");
                        atom
                    })
                    .collect()
            })
            .collect();
        drop(atom_at);

        // 7. Addresses, from a per-entry nibble table. The lay-out refused
        //    a stream whose length does not fit 32 bits, so none overflows.
        let mut addresses = Vec::with_capacity(atoms.len());
        let mut addr = 0u32;
        for atom in &atoms {
            addresses.push(addr);
            addr += match *atom {
                Atom::Insn { .. } => insn_nibbles,
                Atom::Codeword { entry, .. } => entry_nibbles[entry as usize],
                Atom::ViaTable { word, slot, .. } => {
                    via_table_expansion_coded(self.isa, kind, huff, word, slot).len() as u32
                        * insn_nibbles
                }
            };
        }
        debug_assert_eq!(addr, total_nibbles, "the stream is not the size it was laid out at");

        // 8. Patch branch offsets, collect overflow-table targets and patch
        //    jump tables to compressed addresses.
        let mut overflow_table = vec![0u32; overflow_slots];
        for (branch, &(site, target)) in prep.branches.iter().zip(&branch_atoms) {
            let target = addresses[target];
            match atoms[site] {
                Atom::Insn { word, orig } => {
                    let delta = target as i64 - addresses[site] as i64;
                    let units = delta / kind.granule_nibbles() as i64;
                    let patched = self.isa.patch_offset_units(word, branch.kind, units as i32);
                    atoms[site] = Atom::Insn { word: patched, orig };
                }
                Atom::ViaTable { slot, .. } => overflow_table[slot as usize] = target,
                Atom::Codeword { .. } => unreachable!("branches are never compressed"),
            }
        }
        for entry in jump_tables.iter_mut().flatten() {
            *entry = addresses[*entry as usize];
        }

        // 9. Pack the image.
        let mut w = NibbleWriter::new();
        for (i, atom) in atoms.iter().enumerate() {
            debug_assert_eq!(w.len(), addresses[i] as u64, "layout/pack disagreement at atom {i}");
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
        debug_assert_eq!(w.len(), total_nibbles as u64, "layout/pack disagreement at the end");

        Ok(CompressedProgram {
            name: prep.module.name.clone(),
            encoding: kind,
            isa: self.isa,
            dictionary,
            atoms,
            addresses,
            total_nibbles: w.len(),
            image: w.into_bytes(),
            jump_tables,
            overflow_table,
            picks,
            original_text_bytes: prep.module.text_bytes(),
            huffman,
        })
    }
}

/// What a compression resolves from its module once, before any selection,
/// for every lay-out of it to read: greedy's one, or each refine trial's.
pub(crate) struct Prepared<'a> {
    module: &'a ObjectModule,
    exempt: &'a [bool],
    /// Hot (exempt) instructions, counted once.
    exempt_insns: u64,
    /// The first instruction word that collides with an escape byte, under
    /// the byte-level encodings.
    collision: Option<CompressError>,
    /// Every PC-relative branch of the module, in program order.
    branches: Vec<Branch>,
    /// The marks: the original index of every branch site and target,
    /// ascending and distinct. They are the only cells whose addresses a
    /// lay-out needs, and each is an atom start under every selection.
    marks: Vec<u32>,
}

/// A PC-relative branch, decoded once per compression.
#[derive(Debug, Clone, Copy)]
struct Branch {
    /// Mark of the branch (its index in [`Prepared::marks`]).
    site: u32,
    /// Mark of its target, a basic-block leader.
    target: u32,
    /// The branch form.
    kind: BranchKind,
}

impl<'a> Prepared<'a> {
    /// Scans `module` for `c`'s encoding and ISA.
    ///
    /// # Errors
    ///
    /// [`CompressError::InvalidModule`] if a PC-relative branch or a
    /// jump-table entry targets an instruction outside the text: the
    /// module [`ObjectModule::validate_with`] would reject, caught before
    /// any model is built on it.
    ///
    /// # Panics
    ///
    /// Panics if `exempt` is non-empty and `exempt.len() != module.len()`.
    pub(crate) fn new(
        c: &Compressor,
        module: &'a ObjectModule,
        exempt: &'a [bool],
    ) -> Result<Prepared<'a>, CompressError> {
        let _phase = telemetry::phase("prepare");
        assert!(
            exempt.is_empty() || exempt.len() == module.len(),
            "exemption mask length {} does not match module length {}",
            exempt.len(),
            module.len()
        );
        // Escape opcodes must not occur as real instructions under the
        // byte-level schemes (§4.1: escape bytes are *illegal* opcodes).
        // The nibble-granular schemes have explicit escape codewords and
        // accept any instruction word.
        let collision =
            if matches!(c.config.encoding, EncodingKind::Baseline | EncodingKind::OneByte) {
                module
                    .code
                    .iter()
                    .enumerate()
                    .find(|&(_, &w)| c.isa.escape_index((w >> 24) as u8).is_some())
                    .map(|(at, &word)| CompressError::EscapeCollision { at, word })
            } else {
                None
            };
        // Branches are collected with original indices, which a bitmap over
        // the cells records; each is then renumbered by its mark, the count
        // of set bits before it, in linear time.
        let mut branches = Vec::new();
        let mut bits = vec![0u64; module.len().div_ceil(64)];
        for (site, &word) in module.code.iter().enumerate() {
            let Some(info) = c.isa.rel_branch_info(word) else { continue };
            let target = site as i64 + (info.offset / 4) as i64;
            if !(0..module.len() as i64).contains(&target) {
                let error = ModuleError::BranchOutOfRange { at: site, target };
                return Err(CompressError::InvalidModule(error));
            }
            for cell in [site, target as usize] {
                bits[cell / 64] |= 1 << (cell % 64);
            }
            branches.push(Branch { site: site as u32, target: target as u32, kind: info.kind });
        }
        for (table, t) in module.jump_tables.iter().enumerate() {
            if let Some(entry) = t.targets.iter().position(|&idx| idx >= module.len()) {
                let error = ModuleError::JumpTableOutOfRange { table, entry };
                return Err(CompressError::InvalidModule(error));
            }
        }
        let mut marks = Vec::new();
        let mut marks_before = Vec::with_capacity(bits.len());
        for (w, &word_bits) in bits.iter().enumerate() {
            marks_before.push(marks.len() as u32);
            let mut rest = word_bits;
            while rest != 0 {
                marks.push(64 * w as u32 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        let mark_of = |cell: u32| {
            let (w, bit) = (cell as usize / 64, cell % 64);
            marks_before[w] + (bits[w] & ((1u64 << bit) - 1)).count_ones()
        };
        for branch in &mut branches {
            (branch.site, branch.target) = (mark_of(branch.site), mark_of(branch.target));
        }
        Ok(Prepared {
            module,
            exempt,
            exempt_insns: exempt.iter().filter(|&&hot| hot).count() as u64,
            collision,
            branches,
            marks,
        })
    }
}

/// A laid-out compression: a size and the decisions that make it, which
/// [`Compressor::finish`] turns into atoms, a patched and packed image and
/// patched jump tables.
#[derive(Debug, Clone)]
pub(crate) struct LaidOut {
    /// The dictionary, ranked.
    pub(crate) dictionary: Dictionary,
    /// The selection's head array: per cell, the entry whose codeword
    /// starts there, or `NO_ENTRY`.
    heads: Vec<u32>,
    /// Each branch's overflow-table slot, if it is rewritten through the
    /// table, parallel to [`Prepared::branches`].
    slots: Vec<Option<u32>>,
    /// Stream length in nibbles, which every address of the finished
    /// program fits below.
    total_nibbles: u32,
    /// Branches rewritten through the overflow table.
    overflow_slots: usize,
    /// The Huffman codeword table ([`EncodingKind::Huffman`] only).
    huffman: Option<HuffCode>,
    /// The greedy pick log.
    pub(crate) picks: Vec<PickRecord>,
}

impl LaidOut {
    /// The exact compressed size the finished program will have: the
    /// numerator of Eq. 1, as [`CompressedProgram::compressed_bytes`].
    pub(crate) fn cost(&self) -> usize {
        let total_nibbles = self.total_nibbles as u64;
        eq1_bytes(total_nibbles, &self.dictionary, self.overflow_slots, self.huffman.as_ref())
    }
}

/// The savings model selection prices candidates with under `kind`, with
/// codewords priced at `codeword_bits`.
pub(crate) fn selection_cost(kind: EncodingKind, codeword_bits: u32) -> CostModel {
    CostModel {
        insn_bits: kind.uncompressed_insn_bits(),
        codeword_bits,
        dict_word_bits: 32,
        dict_entry_fixed_bits: 0,
    }
}

/// The numerator of the paper's Eq. 1, in bytes: the text stream (nibbles
/// rounded up), the dictionary, the overflow table and the Huffman decode
/// table. Jump tables keep their original size and cancel out of the ratio.
fn eq1_bytes(
    total_nibbles: u64,
    dictionary: &Dictionary,
    overflow_slots: usize,
    huffman: Option<&HuffCode>,
) -> usize {
    total_nibbles.div_ceil(2) as usize
        + dictionary.size_bytes()
        + overflow_slots * 4
        + huffman.map_or(0, |h| h.nibble_lengths().len().div_ceil(2))
}

/// Each entry's codeword size in nibbles under `kind`, by entry index, at
/// the entry's rank.
///
/// # Panics
///
/// Panics if `kind` is [`EncodingKind::Huffman`] and `huff` is `None`, or a
/// rank has no codeword in the table.
fn codeword_nibbles(kind: EncodingKind, huff: Option<&HuffCode>, dict: &Dictionary) -> Vec<u32> {
    (0..dict.len() as u32)
        .map(|entry| {
            let rank = dict.rank_of(entry);
            encoding::try_codeword_nibbles_coded(kind, huff, rank)
                .unwrap_or_else(|| panic!("rank {rank} has no codeword under {kind:?}"))
        })
        .collect()
}

/// Narrows a stream length to the 32-bit nibble addresses a finished
/// program, its image and its container record.
///
/// # Errors
///
/// [`CompressError::StreamTooLong`] if the stream has more than `u32::MAX`
/// nibbles.
fn nibble_count(total_nibbles: u64) -> Result<u32, CompressError> {
    u32::try_from(total_nibbles).map_err(|_| CompressError::StreamTooLong { total_nibbles })
}

/// Whether every cell of `cells` starts an atom under `heads`: no codeword
/// covers it past its first instruction. Branch sites and targets do under
/// every selection, since branches are never compressed and targets are
/// block leaders.
fn starts_atoms(heads: &[u32], dict: &Dictionary, cells: &[u32]) -> bool {
    let mut inside = vec![false; heads.len()];
    for (i, &entry) in heads.iter().enumerate().filter(|&(_, &entry)| entry != NO_ENTRY) {
        inside[i + 1..i + dict.entry(entry).len()].fill(true);
    }
    cells.iter().all(|&cell| !inside[cell as usize])
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
    slot: u32,
) -> Vec<u32> {
    isa.overflow_expansion(
        word,
        slot,
        kind.granule_nibbles(),
        encoding::insn_nibbles_coded(kind, huff),
    )
    .expect("ViaTable holds a supported relative branch")
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_isa::IsaId;
    use codense_ppc::encode;
    use codense_ppc::insn::{bo, Insn};
    use codense_ppc::reg::*;

    fn addi(rt: u8, si: i16) -> u32 {
        encode(&Insn::Addi { rt: codense_ppc::Gpr::new(rt).unwrap(), ra: R3, si })
    }

    const PPC: IsaRef = IsaRef(&codense_ppc::ISA);

    fn simple_module(words: Vec<u32>) -> ObjectModule {
        let mut m = ObjectModule::new("t", IsaId::Ppc);
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
        let mut m = ObjectModule::new("t", IsaId::Ppc);
        m.code = a.finish().unwrap();

        let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        crate::verify::verify(&m, &c).unwrap();
    }

    #[test]
    fn via_table_expansion_shapes() {
        // Unconditional branch: 4-instruction dispatch, no skip.
        let b = encode(&Insn::B { li: 4096, aa: false, lk: false });
        let seq = via_table_expansion_coded(PPC, EncodingKind::Baseline, None, b, 3);
        assert_eq!(seq.len(), 4);
        assert!(matches!(codense_ppc::decode(seq[3]), Insn::Bcctr { lk: false, .. }));
        // Call keeps LK.
        let bl = encode(&Insn::B { li: 4096, aa: false, lk: true });
        let seq = via_table_expansion_coded(PPC, EncodingKind::Baseline, None, bl, 0);
        assert!(matches!(codense_ppc::decode(seq[3]), Insn::Bcctr { lk: true, .. }));
        // Conditional branch gains an inverted skip.
        let bc = encode(&Insn::Bc { bo: bo::IF_TRUE, bi: 2, bd: 64, aa: false, lk: false });
        let seq = via_table_expansion_coded(PPC, EncodingKind::Baseline, None, bc, 0);
        assert_eq!(seq.len(), 5);
        match codense_ppc::decode(seq[0]) {
            Insn::Bc { bo: b, bi, .. } => {
                assert_eq!(b, bo::IF_FALSE);
                assert_eq!(bi, 2);
            }
            other => panic!("expected inverted bc, got {other:?}"),
        }
        // Skip displacement covers the whole 5-instruction atom.
        let units = codense_ppc::branch::read_offset_units(seq[0], BranchKind::Conditional);
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
    fn foreign_isa_module_is_a_typed_error() {
        let mut m = simple_module(vec![addi(3, 1); 16]);
        m.isa = IsaId::Mips;
        let want = CompressError::IsaMismatch { module: IsaId::Mips, compressor: IsaId::Ppc };
        let c = Compressor::new(CompressionConfig::nibble_aligned());
        assert_eq!(c.compress(&m).unwrap_err(), want);
        assert_eq!(c.compress_masked(&m, &[false; 16]).unwrap_err(), want);
        let c = c.with_selector(SelectorKind::Refine);
        assert_eq!(c.compress(&m).unwrap_err(), want);
        let index = CandidateIndex::build(&ProgramModel::build_isa(&m, PPC), 4).unwrap();
        assert_eq!(c.compress_with_index(&m, &index).unwrap_err(), want);
    }

    #[test]
    fn targets_outside_the_text_are_typed_errors() {
        let b = |li| encode(&Insn::B { li, aa: false, lk: false });
        let mut table = simple_module(vec![addi(3, 1), addi(3, 2)]);
        table.jump_tables.push(codense_obj::JumpTable { targets: vec![0, 5] });
        let cases = [
            (
                simple_module(vec![addi(3, 1), b(0x1000), addi(3, 2)]),
                ModuleError::BranchOutOfRange { at: 1, target: 1 + 0x400 },
            ),
            (
                simple_module(vec![addi(3, 1), b(-0x1000), addi(3, 2)]),
                ModuleError::BranchOutOfRange { at: 1, target: 1 - 0x400 },
            ),
            (table, ModuleError::JumpTableOutOfRange { table: 0, entry: 1 }),
        ];
        for (m, error) in &cases {
            // The compressor refuses exactly what validation rejects.
            assert_eq!(m.validate_with(PPC).as_ref(), Err(error));
            let want = CompressError::InvalidModule(error.clone());
            for selector in [SelectorKind::Greedy, SelectorKind::Refine] {
                let c =
                    Compressor::new(CompressionConfig::nibble_aligned()).with_selector(selector);
                assert_eq!(c.compress(m).as_ref().unwrap_err(), &want, "{selector:?}");
                let hot = vec![true; m.len()];
                assert_eq!(c.compress_masked(m, &hot).as_ref().unwrap_err(), &want, "{selector:?}");
            }
        }
    }

    /// Every atom field is 32 bits wide: a `usize` field would grow an atom
    /// (one per output item, ~790K at 1M instructions) back to 24 bytes.
    #[test]
    fn an_atom_takes_16_bytes() {
        assert_eq!(std::mem::size_of::<Atom>(), 16);
    }

    /// The one place a nibble count narrows to the 32 bits of a finished
    /// program's addresses: `u32::MAX` nibbles fit, one more is refused.
    #[test]
    fn streams_past_32_bit_addresses_are_refused() {
        assert_eq!(nibble_count(u32::MAX as u64), Ok(u32::MAX));
        let total_nibbles = u32::MAX as u64 + 1;
        assert_eq!(
            nibble_count(total_nibbles),
            Err(CompressError::StreamTooLong { total_nibbles })
        );
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
