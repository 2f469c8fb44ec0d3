//! The greedy dictionary-selection pass (§3.1.1 of the paper) with an
//! interned-sequence matchfinder.
//!
//! Choosing the optimum dictionary is NP-complete [Storer77], so — like the
//! paper — "on every iteration of the algorithm, we examine each potential
//! dictionary entry and find the one that results in the largest immediate
//! savings", repeating until the codeword space is exhausted or no candidate
//! saves anything.
//!
//! The naive algorithm rescans the whole program every iteration. This
//! implementation is equivalent but incremental, and allocation-free on the
//! selection hot path:
//!
//! * a **rolling-hash windower** walks every compressible run once, extending
//!   each window's hash by one instruction at a time, and maps each distinct
//!   candidate sequence to a dense [`SeqId`](crate::intern::SeqId) through an
//!   arena-backed [`SeqInterner`] — zero per-window heap allocations;
//! * the **occurrence index** ([`OccLists`]) is one flat position arena in
//!   CSR layout — a span per `SeqId` bracketing that candidate's window
//!   positions in (block, cell) order. Replacements never touch it: a
//!   position is *live* iff its cells are still compressible in the model,
//!   checked (and compacted out of the span, in place) lazily at recount
//!   time. Every window created by a replacement is a sub-window of an
//!   original run, so the candidate set is closed at build time and the
//!   index only ever shrinks;
//! * a **lazy max-heap** seeded with each candidate's exact initial savings
//!   (every position is live before the first replacement, so one
//!   sequential counting pass computes them; candidates that start
//!   non-positive can never recover and are never enqueued). Counts only
//!   ever decrease, so a popped entry whose recomputed savings still equals
//!   its key is the true maximum; stale entries are re-inserted with their
//!   corrected value.
//!
//! Tie-breaking is deterministic (savings, then lexicographic sequence
//! content, materialized as a per-candidate rank so heap items stay three
//! plain words), so compression output is bit-stable across runs, platforms,
//! and worker counts — and byte-identical to the original boxed-slice index,
//! kept in [`reference`] as the executable specification.
//!
//! A [`CandidateIndex`] is immutable once built and can be shared across
//! runs: the sweep engine builds one index at the largest entry length and
//! every sweep point reuses it (cloning only the dense position lists)
//! instead of re-mining the program per point.

use std::collections::BinaryHeap;

use crate::dict::Dictionary;
use crate::error::CompressError;
use crate::intern::{hash_extend, hash_seed, SeqId, SeqInterner};
use crate::model::{Cell, ProgramModel};
use crate::telemetry;

#[path = "greedy_reference.rs"]
pub mod reference;

/// Cost model for the savings function, in bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Size of an uncompressed instruction in the compressed stream
    /// (32, or 36 under the nibble scheme's escape).
    pub insn_bits: u32,
    /// (Estimated) size of one codeword.
    pub codeword_bits: u32,
    /// Storage cost of one dictionary word (32).
    pub dict_word_bits: u32,
    /// Fixed per-entry dictionary overhead in bits (0 for the paper's
    /// schemes; 32 for Liao's software mini-subroutines, whose stored
    /// sequence carries a trailing `blr`).
    pub dict_entry_fixed_bits: u32,
}

impl CostModel {
    /// Savings in bits from replacing `n` non-overlapping occurrences of a
    /// sequence of `len` instructions: stream savings minus dictionary
    /// storage.
    pub fn savings_bits(&self, len: usize, n: usize) -> i64 {
        let per = self.insn_bits as i64 * len as i64 - self.codeword_bits as i64;
        n as i64 * per - self.dict_word_bits as i64 * len as i64 - self.dict_entry_fixed_bits as i64
    }
}

/// Limits for one greedy run.
#[derive(Debug, Clone, Copy)]
pub struct GreedyParams {
    /// Maximum instructions per dictionary entry.
    pub max_entry_len: usize,
    /// Maximum dictionary entries.
    pub max_codewords: usize,
    /// Savings cost model.
    pub cost: CostModel,
}

/// A set of banned candidate *sequences* (matched by instruction content).
/// Banned sequences are excluded at heap seeding, so a run with bans is a
/// greedy run over the remaining candidate universe — the refinement
/// selector's probe: ban a marginal accepted entry, re-select, and keep the
/// result only if the exact layout cost improves.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BanSet {
    /// Banned sequences, sorted for binary-search membership tests.
    seqs: Vec<Vec<u32>>,
}

impl BanSet {
    /// Creates an empty ban set.
    pub fn new() -> BanSet {
        BanSet::default()
    }

    /// Number of banned sequences.
    pub fn len(&self) -> usize {
        self.seqs.len()
    }

    /// Returns `true` when nothing is banned.
    pub fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Bans a sequence (idempotent).
    pub fn insert(&mut self, seq: Vec<u32>) {
        if let Err(at) = self.seqs.binary_search(&seq) {
            self.seqs.insert(at, seq);
        }
    }

    /// Whether the sequence is banned.
    pub fn contains(&self, seq: &[u32]) -> bool {
        self.seqs.binary_search_by(|s| s.as_slice().cmp(seq)).is_ok()
    }
}

/// One accepted dictionary entry, in acceptance order — the "pick log".
///
/// Because the greedy choice at step *k* does not depend on the dictionary
/// size cap, the state after *k* picks equals a full run capped at *k*
/// codewords; sweeps over dictionary size (the paper's Fig 5) read this log
/// instead of recompressing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PickRecord {
    /// Dictionary entry index created by this pick.
    pub entry: u32,
    /// Instructions in the entry.
    pub len: usize,
    /// Occurrences replaced.
    pub replaced: usize,
    /// Savings in bits under the selection cost model.
    pub savings_bits: i64,
}

/// Which matchfinder backs the greedy selector. Output is byte-identical
/// either way; only the cost differs (the `matchfinder_equivalence` suite
/// pins the identity).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MatchfinderKind {
    /// The interned-sequence index (this module): arena interner, dense
    /// `SeqId` occurrence lists, lazy liveness. The production path.
    #[default]
    Interned,
    /// The original `Box<[u32]>`-keyed index ([`reference`]), kept as the
    /// executable specification the equivalence tests compare against.
    Reference,
}

/// Position of a window: (block index, cell index).
type Pos = (u32, u32);

/// Per-candidate occurrence lists packed into one flat arena (CSR layout):
/// `spans[id]` brackets candidate `id`'s live positions in `flat`, in
/// (block, cell) order. Compaction shrinks a span in place, so the
/// selection hot path never allocates and cloning the lists for a shared-
/// index run is two flat memcpys instead of one heap allocation per
/// candidate.
#[derive(Debug, Clone, Default)]
pub(crate) struct OccLists {
    spans: Vec<(u32, u32)>,
    flat: Vec<Pos>,
}

impl OccLists {
    /// Builds the arena from mined `(candidate, position)` pairs by
    /// counting-sort scatter; within each candidate, positions keep their
    /// order of appearance in `pairs`.
    fn from_pairs(candidates: usize, pairs: &[(SeqId, Pos)]) -> OccLists {
        let mut counts = vec![0u32; candidates];
        for &(id, _) in pairs {
            counts[id as usize] += 1;
        }
        let mut spans = Vec::with_capacity(candidates);
        let mut acc = 0u32;
        for &c in &counts {
            spans.push((acc, acc));
            acc += c;
        }
        let mut flat = vec![(0u32, 0u32); pairs.len()];
        for &(id, pos) in pairs {
            let end = &mut spans[id as usize].1;
            flat[*end as usize] = pos;
            *end += 1;
        }
        OccLists { spans, flat }
    }

    /// The live positions of candidate `id`.
    fn list(&self, id: SeqId) -> &[Pos] {
        let (s, e) = self.spans[id as usize];
        &self.flat[s as usize..e as usize]
    }

    /// In-place `retain` over one candidate's span; returns how many
    /// positions were dropped. Each dead position is examined exactly once
    /// across a run.
    fn compact(&mut self, id: SeqId, mut keep: impl FnMut(Pos) -> bool) -> usize {
        let (s, e) = self.spans[id as usize];
        let mut w = s as usize;
        for r in s as usize..e as usize {
            let pos = self.flat[r];
            if keep(pos) {
                self.flat[w] = pos;
                w += 1;
            }
        }
        self.spans[id as usize].1 = w as u32;
        e as usize - w
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapItem {
    savings: i64,
    /// Lexicographic rank of the candidate's sequence content — carries the
    /// reference tie-break (greater sequence first) without touching words.
    lex: u32,
    id: SeqId,
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap by savings; deterministic lexicographic tie-break.
        self.savings.cmp(&other.savings).then_with(|| self.lex.cmp(&other.lex))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The immutable product of window mining: every candidate sequence of the
/// program interned to a dense id, with its occurrence positions and
/// content-lexicographic rank. Build once, run greedy selection against it
/// any number of times (`[run_greedy_with]`) — each run clones only the
/// position lists.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    interner: SeqInterner,
    /// Initial window positions per candidate, sorted by (block, cell).
    occ: OccLists,
    /// The window length cap the index was mined with. Runs may use any
    /// `max_entry_len` ≤ this.
    max_entry_len: usize,
}

impl CandidateIndex {
    /// Mines every candidate window of `model` (runs of compressible cells,
    /// windows up to `max_entry_len` instructions).
    ///
    /// Mining is parallel over disjoint block ranges; per-chunk interners
    /// are merged in block order, so the index is deterministic for a given
    /// model regardless of the worker count.
    ///
    /// # Errors
    ///
    /// [`CompressError::ProgramTooLarge`] if the program exceeds the
    /// matchfinder's 32-bit position space.
    pub fn build(model: &ProgramModel, max_len: usize) -> Result<CandidateIndex, CompressError> {
        let largest_block = model.blocks.iter().map(|b| b.cells.len()).max().unwrap_or(0);
        let total_cells: usize = model.blocks.iter().map(|b| b.cells.len()).sum();
        check_position_space(model.blocks.len(), largest_block, total_cells, max_len)?;

        // One chunk per worker quantum; a single-threaded run mines the
        // whole program in one pass and skips the merge entirely (the
        // merged result is partition-invariant, so this is unobservable).
        let jobs = crate::parallel::jobs();
        let parts = if jobs <= 1 { 1 } else { jobs.saturating_mul(4) };
        let ranges = crate::parallel::chunk_ranges(model.blocks.len(), parts);
        let mut chunks =
            crate::parallel::par_map(ranges, |_, (b0, b1)| mine_range(model, b0, b1, max_len));

        let (interner, pairs) = if chunks.len() == 1 {
            chunks.pop().expect("one chunk")
        } else {
            // Merge chunk interners in block order: re-intern each distinct
            // local sequence once and remap that chunk's pairs through the
            // global ids. Positions stay sorted per candidate because
            // chunks cover ascending block ranges in mining order.
            let seqs: usize = chunks.iter().map(|(li, _)| li.len()).sum();
            let windows: usize = chunks.iter().map(|(_, lp)| lp.len()).sum();
            let mut interner = SeqInterner::with_capacity(seqs, 2);
            let mut pairs: Vec<(SeqId, Pos)> = Vec::with_capacity(windows);
            for (li, lpairs) in chunks {
                let remap: Vec<SeqId> = (0..li.len() as SeqId)
                    .map(|lid| interner.intern(li.words(lid), li.hash(lid)))
                    .collect();
                pairs.extend(lpairs.into_iter().map(|(lid, pos)| (remap[lid as usize], pos)));
            }
            (interner, pairs)
        };
        if pairs.len() > u32::MAX as usize {
            // The flat occurrence arena is u32-indexed too.
            return Err(CompressError::ProgramTooLarge {
                blocks: model.blocks.len(),
                largest_block,
            });
        }

        telemetry::GREEDY_CANDIDATES_SEEDED.add(interner.len() as u64);
        telemetry::GREEDY_INTERNED_SEQS.add(interner.len() as u64);
        telemetry::GREEDY_INTERNED_WORDS.add(interner.arena_words() as u64);
        telemetry::GREEDY_WINDOW_ADDS.add(pairs.len() as u64);

        let occ = OccLists::from_pairs(interner.len(), &pairs);

        Ok(CandidateIndex { interner, occ, max_entry_len: max_len })
    }

    /// Number of distinct candidate sequences.
    pub fn candidates(&self) -> usize {
        self.interner.len()
    }

    /// The window length cap this index was mined with.
    pub fn max_entry_len(&self) -> usize {
        self.max_entry_len
    }
}

/// Runs greedy selection over `model`, filling `dict` and rewriting the
/// model's blocks in place. Returns the pick log.
///
/// # Errors
///
/// [`CompressError::ProgramTooLarge`] if the program exceeds the
/// matchfinder's 32-bit position space.
pub fn run_greedy(
    model: &mut ProgramModel,
    dict: &mut Dictionary,
    params: GreedyParams,
) -> Result<Vec<PickRecord>, CompressError> {
    let mut index = CandidateIndex::build(model, params.max_entry_len)?;
    // The index is owned and dies with this call, so the position lists
    // move into the selector instead of being cloned entry by entry.
    let occ = std::mem::take(&mut index.occ);
    Ok(run_core(&index, occ, model, dict, params, &BanSet::default()))
}

/// Runs greedy selection against a prebuilt (shared) [`CandidateIndex`],
/// cloning only its flat position arena (two memcpys). The index must have
/// been mined
/// from a model with identical cell content, with a window cap ≥
/// `params.max_entry_len`; candidates longer than the run's cap are
/// filtered at heap seeding, so the result is byte-identical to a fresh
/// build at the smaller cap.
///
/// # Panics
///
/// Panics if `params.max_entry_len > index.max_entry_len()`.
pub fn run_greedy_with(
    index: &CandidateIndex,
    model: &mut ProgramModel,
    dict: &mut Dictionary,
    params: GreedyParams,
) -> Vec<PickRecord> {
    assert!(
        params.max_entry_len <= index.max_entry_len,
        "index mined at max_entry_len {} cannot serve a run at {}",
        index.max_entry_len,
        params.max_entry_len
    );
    telemetry::GREEDY_INDEX_REUSES.inc();
    run_core(index, index.occ.clone(), model, dict, params, &BanSet::default())
}

/// [`run_greedy_with`] minus any candidate whose sequence content is in
/// `bans`. Banned candidates are excluded at heap seeding, so the run is an
/// ordinary greedy selection over the remaining universe — the refinement
/// selector's probe primitive.
///
/// # Panics
///
/// Panics if `params.max_entry_len > index.max_entry_len()`.
pub fn run_greedy_banned(
    index: &CandidateIndex,
    model: &mut ProgramModel,
    dict: &mut Dictionary,
    params: GreedyParams,
    bans: &BanSet,
) -> Vec<PickRecord> {
    assert!(
        params.max_entry_len <= index.max_entry_len,
        "index mined at max_entry_len {} cannot serve a run at {}",
        index.max_entry_len,
        params.max_entry_len
    );
    telemetry::GREEDY_INDEX_REUSES.inc();
    run_core(index, index.occ.clone(), model, dict, params, bans)
}

fn run_core(
    index: &CandidateIndex,
    mut occ: OccLists,
    model: &mut ProgramModel,
    dict: &mut Dictionary,
    params: GreedyParams,
    bans: &BanSet,
) -> Vec<PickRecord> {
    let interner = &index.interner;
    // Exact seeding: before any replacement every indexed position is
    // live, so one sequential counting pass yields each candidate's true
    // initial savings. Candidates that start non-positive can never become
    // acceptable (counts only shrink), so they never enter the heap — the
    // tail of hopeless candidates is discarded here, in cache order,
    // instead of one heap pop + recount at a time.
    let mut seeds: Vec<HeapItem> = (0..interner.len() as SeqId)
        .filter_map(|id| {
            let len = interner.seq_len(id);
            if len > params.max_entry_len {
                return None;
            }
            if !bans.is_empty() && bans.contains(interner.words(id)) {
                return None;
            }
            let n = effective_count_sorted(occ.list(id), len);
            let savings = params.cost.savings_bits(len, n);
            (savings > 0).then_some(HeapItem { savings, lex: 0, id })
        })
        .collect();
    // Content-lexicographic ranks among the seeds only: tie-breaking never
    // compares a heap member against a candidate that was filtered out, and
    // the relative order of a subset equals its order under global ranks —
    // so ranking the (much smaller) positive set reproduces the reference
    // index's `Box<[u32]>` comparison without sorting the whole universe.
    // Each entry carries its first two words packed into a u64 so almost
    // every comparison resolves inside the sorted array; the packed order
    // never contradicts slice order (a missing second word packs as 0, and
    // any packed tie falls through to the full compare).
    let mut order: Vec<(u64, u32)> = seeds
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let words = interner.words(s.id);
            let key = (words[0] as u64) << 32 | words.get(1).copied().unwrap_or(0) as u64;
            (key, i as u32)
        })
        .collect();
    order.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0).then_with(|| {
            interner.words(seeds[a.1 as usize].id).cmp(interner.words(seeds[b.1 as usize].id))
        })
    });
    for (rank, &(_, i)) in order.iter().enumerate() {
        seeds[i as usize].lex = rank as u32;
    }
    drop(order);
    let mut heap: BinaryHeap<HeapItem> = BinaryHeap::from(seeds);
    let mut picks = Vec::new();

    while dict.len() < params.max_codewords {
        let Some(top) = heap.pop() else { break };
        telemetry::GREEDY_HEAP_POPS.inc();
        let len = interner.seq_len(top.id);
        // Lazy liveness: drop positions whose window lost a cell to an
        // accepted replacement, then recount.
        let dropped = occ.compact(top.id, |(b, p)| {
            let cells = &model.blocks[b as usize].cells;
            cells[p as usize..p as usize + len].iter().all(|c| c.compressible_word().is_some())
        });
        telemetry::GREEDY_WINDOW_REMOVES.add(dropped as u64);
        let positions = occ.list(top.id);
        let n = effective_count_sorted(positions, len);
        let savings = params.cost.savings_bits(len, n);
        debug_assert!(savings <= top.savings, "counts only decrease");
        if savings <= 0 {
            continue; // candidate dead; others may still be live
        }
        if savings < top.savings {
            telemetry::GREEDY_STALE_REINSERTS.inc();
            heap.push(HeapItem { savings, ..top });
            continue;
        }

        // Accept: replace every non-overlapping occurrence left to right.
        // No index surgery — occurrences overlapping a replacement simply
        // stop being live and are compacted away on their next recount.
        let selected = select_positions_sorted(positions, len);
        debug_assert_eq!(selected.len(), n);
        let entry = dict.push(interner.words(top.id), n);
        for &(b, p) in &selected {
            apply_replacement(model, b as usize, p as usize, entry, len);
        }
        telemetry::GREEDY_PICKS_ACCEPTED.inc();
        telemetry::GREEDY_REPLACEMENTS.add(n as u64);
        picks.push(PickRecord { entry, len, replaced: n, savings_bits: savings });
    }
    picks
}

/// Rejects programs whose (block, cell) positions would not fit the index's
/// packed 32-bit coordinates. `max_len` headroom on the cell bound keeps
/// the non-overlap scan's `p + len` arithmetic from wrapping.
///
/// The `total_cells` bound covers the interner: arena offsets and dense ids
/// are `u32`, and in the worst case every window is a distinct sequence,
/// appending `1 + 2 + … + max_len` words per start cell. Rejecting up front
/// makes [`CompressError::ProgramTooLarge`] the only failure mode — mining
/// can never silently truncate an offset.
fn check_position_space(
    blocks: usize,
    largest_block: usize,
    total_cells: usize,
    max_len: usize,
) -> Result<(), CompressError> {
    if blocks > u32::MAX as usize || largest_block > u32::MAX as usize - max_len {
        return Err(CompressError::ProgramTooLarge { blocks, largest_block });
    }
    let arena_worst = total_cells.saturating_mul(max_len * (max_len + 1) / 2);
    if arena_worst > u32::MAX as usize {
        return Err(CompressError::ProgramTooLarge { blocks, largest_block });
    }
    Ok(())
}

/// Rewrites the window at (`b`, `p`) into codeword `entry` covering `len`
/// instructions: one [`Cell::Code`] plus `len − 1` tombstones.
fn apply_replacement(model: &mut ProgramModel, b: usize, p: usize, entry: u32, len: usize) {
    let block = &mut model.blocks[b];
    let orig = match block.cells[p] {
        Cell::Insn { orig, .. } => orig,
        _ => unreachable!("replacement target must be an instruction"),
    };
    block.cells[p] = Cell::Code { entry, orig, len };
    for cell in &mut block.cells[p + 1..p + len] {
        *cell = Cell::Dead;
    }
}

/// Greedy left-to-right non-overlapping occurrence count over positions
/// sorted by (block, cell).
pub(crate) fn effective_count_sorted(positions: &[Pos], len: usize) -> usize {
    if len == 1 {
        // Single-cell windows occupy distinct cells; none can overlap.
        return positions.len();
    }
    let mut n = 0;
    let mut last: Option<(u32, u32)> = None; // (block, end)
    for &(b, p) in positions {
        if let Some((lb, end)) = last {
            if lb == b && p < end {
                continue;
            }
        }
        n += 1;
        last = Some((b, p + len as u32));
    }
    n
}

/// The positions [`effective_count_sorted`] counted.
pub(crate) fn select_positions_sorted(positions: &[Pos], len: usize) -> Vec<Pos> {
    if len == 1 {
        return positions.to_vec();
    }
    let mut out = Vec::new();
    let mut last: Option<(u32, u32)> = None;
    for &(b, p) in positions {
        if let Some((lb, end)) = last {
            if lb == b && p < end {
                continue;
            }
        }
        out.push((b, p));
        last = Some((b, p + len as u32));
    }
    out
}

/// Mines candidate windows for the block range `b0..b1` into a fresh local
/// interner + a flat `(candidate, position)` pair list. Run on worker
/// threads by [`CandidateIndex::build`]. The run's words are staged in one
/// reusable scratch buffer so every window is a borrowed subslice — no
/// per-window allocation.
fn mine_range(
    model: &ProgramModel,
    b0: usize,
    b1: usize,
    max_len: usize,
) -> (SeqInterner, Vec<(SeqId, Pos)>) {
    // Upper-bound the window count so neither the interner table nor the
    // pair list rehashes/reallocates mid-mine.
    let cells: usize = model.blocks[b0..b1].iter().map(|b| b.cells.len()).sum();
    let windows = cells.saturating_mul(max_len);
    let mut interner = SeqInterner::with_capacity(windows, 2);
    let mut pairs: Vec<(SeqId, Pos)> = Vec::with_capacity(windows);
    let mut scratch: Vec<u32> = Vec::new();
    for (b, block) in model.blocks[b0..b1].iter().enumerate() {
        for (start, end) in runs(&block.cells) {
            scratch.clear();
            scratch.extend(
                block.cells[start..end].iter().map(|c| c.compressible_word().expect("run cell")),
            );
            for s in 0..scratch.len() {
                let limit = max_len.min(scratch.len() - s);
                let mut h = hash_seed();
                for l in 1..=limit {
                    h = hash_extend(h, scratch[s + l - 1]);
                    let id = interner.intern(&scratch[s..s + l], h);
                    pairs.push((id, ((b0 + b) as u32, (start + s) as u32)));
                }
            }
        }
    }
    (interner, pairs)
}

/// Maximal runs of compressible instruction cells.
pub(crate) fn runs(cells: &[Cell]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in cells.iter().enumerate() {
        if c.compressible_word().is_some() {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s) = start.take() {
            out.push((s, i));
        }
    }
    if let Some(s) = start {
        out.push((s, cells.len()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_obj::ObjectModule;
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    fn w(si: i16) -> u32 {
        encode(&Insn::Addi { rt: R3, ra: R3, si })
    }

    fn model_of(words: Vec<u32>) -> ProgramModel {
        let mut m = ObjectModule::new("t");
        m.code = words;
        ProgramModel::build(&m)
    }

    fn baseline_params(max_len: usize, max_cw: usize) -> GreedyParams {
        GreedyParams {
            max_entry_len: max_len,
            max_codewords: max_cw,
            cost: CostModel {
                insn_bits: 32,
                codeword_bits: 16,
                dict_word_bits: 32,
                dict_entry_fixed_bits: 0,
            },
        }
    }

    #[test]
    fn picks_most_saving_sequence_first() {
        // Pattern [1,2] appears 8 times, singleton 9 appears 3 times.
        let mut words = Vec::new();
        for _ in 0..8 {
            words.push(w(1));
            words.push(w(2));
        }
        for _ in 0..3 {
            words.push(w(9));
        }
        let mut model = model_of(words);
        let mut dict = Dictionary::new();
        let picks = run_greedy(&mut model, &mut dict, baseline_params(4, 100)).unwrap();
        assert!(!picks.is_empty());
        // Best first pick is the pair (or a longer repetition of it).
        assert!(picks[0].savings_bits >= picks.last().unwrap().savings_bits);
        let first = dict.entry(picks[0].entry);
        assert!(first.words.contains(&w(1)) || first.words.contains(&w(2)));
        // Everything replaceable got replaced: remaining instructions are
        // unique or unprofitable.
        assert!(model.codewords() > 0);
    }

    #[test]
    fn respects_max_codewords() {
        let mut words = Vec::new();
        for i in 0..50 {
            for _ in 0..4 {
                words.push(w(i));
            }
        }
        let mut model = model_of(words.clone());
        let mut dict = Dictionary::new();
        run_greedy(&mut model, &mut dict, baseline_params(1, 5)).unwrap();
        assert_eq!(dict.len(), 5);

        let mut model = model_of(words);
        let mut dict = Dictionary::new();
        run_greedy(&mut model, &mut dict, baseline_params(1, 1000)).unwrap();
        assert!(dict.len() > 5);
    }

    #[test]
    fn no_negative_savings_accepted() {
        // All-unique program: nothing is worth a dictionary entry.
        let words: Vec<u32> = (0..40).map(w).collect();
        let mut model = model_of(words);
        let mut dict = Dictionary::new();
        let picks = run_greedy(&mut model, &mut dict, baseline_params(4, 100)).unwrap();
        assert!(picks.is_empty(), "unique code must not be compressed: {picks:?}");
        assert_eq!(model.codewords(), 0);
    }

    #[test]
    fn overlapping_occurrences_counted_non_overlapping() {
        // "aaaa": sequence [a,a] has raw occurrences at 0,1,2 but only 2
        // non-overlapping.
        let positions: Vec<Pos> = vec![(0, 0), (0, 1), (0, 2)];
        assert_eq!(effective_count_sorted(&positions, 2), 2);
        assert_eq!(select_positions_sorted(&positions, 2), vec![(0, 0), (0, 2)]);
    }

    #[test]
    fn prefix_stability() {
        // The pick sequence with a large cap starts with the pick sequence
        // of a small cap (Fig 5's sweep relies on this).
        let mut words = Vec::new();
        for i in 0..20 {
            for _ in 0..(20 - i) {
                words.push(w(i));
                words.push(w(100 + i));
            }
        }
        let run = |cap: usize| {
            let mut model = model_of(words.clone());
            let mut dict = Dictionary::new();
            run_greedy(&mut model, &mut dict, baseline_params(4, cap)).unwrap()
        };
        let small = run(3);
        let large = run(12);
        assert_eq!(small.len(), 3);
        assert_eq!(&large[..3], &small[..]);
    }

    #[test]
    fn greedy_is_deterministic() {
        let mut words = Vec::new();
        for i in 0..30 {
            for _ in 0..3 {
                words.push(w(i % 7));
                words.push(w(i % 5));
            }
        }
        let run = || {
            let mut model = model_of(words.clone());
            let mut dict = Dictionary::new();
            let picks = run_greedy(&mut model, &mut dict, baseline_params(4, 100)).unwrap();
            (picks, dict)
        };
        let (p1, d1) = run();
        let (p2, d2) = run();
        assert_eq!(p1, p2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn branches_stay_uncompressed() {
        let mut a = codense_ppc::asm::Assembler::new();
        for _ in 0..4 {
            a.emit(Insn::Addi { rt: R3, ra: R3, si: 1 });
            a.label_pos("x"); // no-op lookup to silence lints
            a.emit(Insn::Addi { rt: R4, ra: R4, si: 1 });
        }
        a.label("end");
        a.b("end");
        let mut m = ObjectModule::new("t");
        m.code = a.finish().unwrap();
        let mut model = ProgramModel::build(&m);
        let mut dict = Dictionary::new();
        run_greedy(&mut model, &mut dict, baseline_params(4, 100)).unwrap();
        for e in dict.entries() {
            for &word in &e.words {
                assert!(codense_ppc::branch::rel_branch_info(word).is_none());
            }
        }
    }

    #[test]
    fn matches_reference_on_small_program() {
        let mut words = Vec::new();
        for i in 0..24 {
            for _ in 0..3 {
                words.push(w(i % 6));
                words.push(w(i % 4 + 50));
            }
        }
        let mut m1 = model_of(words.clone());
        let mut d1 = Dictionary::new();
        let p1 = run_greedy(&mut m1, &mut d1, baseline_params(4, 100)).unwrap();
        let mut m2 = model_of(words);
        let mut d2 = Dictionary::new();
        let p2 = reference::run_greedy(&mut m2, &mut d2, baseline_params(4, 100));
        assert_eq!(p1, p2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn shared_index_matches_fresh_build_at_smaller_cap() {
        let mut words = Vec::new();
        for i in 0..16 {
            for _ in 0..4 {
                words.push(w(i % 5));
                words.push(w(i % 3 + 30));
                words.push(w(7));
            }
        }
        // Index mined at 8; runs at caps 1, 2, 4 must match fresh builds.
        let model0 = model_of(words.clone());
        let index = CandidateIndex::build(&model0, 8).unwrap();
        for cap in [1usize, 2, 4, 8] {
            let mut shared_model = model0.clone();
            let mut shared_dict = Dictionary::new();
            let shared = run_greedy_with(
                &index,
                &mut shared_model,
                &mut shared_dict,
                baseline_params(cap, 64),
            );
            let mut fresh_model = model_of(words.clone());
            let mut fresh_dict = Dictionary::new();
            let fresh =
                run_greedy(&mut fresh_model, &mut fresh_dict, baseline_params(cap, 64)).unwrap();
            assert_eq!(shared, fresh, "cap {cap}");
            assert_eq!(shared_dict, fresh_dict, "cap {cap}");
        }
    }

    #[test]
    fn position_space_guard() {
        // The checked conversion surfaces as a typed error instead of a
        // silent `as u32` truncation (the SPEC-scale roadmap item).
        assert!(check_position_space(1 << 20, 1 << 20, 1 << 22, 8).is_ok());
        assert!(check_position_space(u32::MAX as usize, 0, 0, 8).is_ok());
        assert!(check_position_space(u32::MAX as usize - 8, u32::MAX as usize - 8, 0, 8).is_ok());
        let err = check_position_space(u32::MAX as usize + 1, 0, 0, 8).unwrap_err();
        assert!(
            matches!(err, CompressError::ProgramTooLarge { blocks, .. } if blocks > u32::MAX as usize)
        );
        let err = check_position_space(1, u32::MAX as usize - 7, 0, 8).unwrap_err();
        assert!(matches!(err, CompressError::ProgramTooLarge { largest_block, .. }
            if largest_block == u32::MAX as usize - 7));
    }

    #[test]
    fn arena_capacity_guard() {
        // The interner's arena offsets are u32; the worst case appends
        // 1+2+…+max_len words per start cell. The boundary sits exactly at
        // u32::MAX worst-case words.
        let tri = 8 * 9 / 2;
        let fits = u32::MAX as usize / tri;
        assert!(check_position_space(1, fits, fits, 8).is_ok());
        let err = check_position_space(1, fits + 1, fits + 1, 8).unwrap_err();
        assert!(matches!(err, CompressError::ProgramTooLarge { .. }));
        // A SPEC-scale corpus (millions of cells) stays far inside the
        // bound: the guard only rejects programs mining could corrupt.
        assert!(check_position_space(1 << 12, 1 << 12, 16 << 20, 8).is_ok());
        // max_len 1 degenerates to one word per cell.
        assert!(check_position_space(1, u32::MAX as usize - 1, u32::MAX as usize, 1).is_ok());
        let err =
            check_position_space(1, u32::MAX as usize - 1, u32::MAX as usize + 1, 1).unwrap_err();
        assert!(matches!(err, CompressError::ProgramTooLarge { .. }));
    }
}
