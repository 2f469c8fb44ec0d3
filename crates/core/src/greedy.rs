//! The greedy dictionary-selection pass (§3.1.1 of the paper) over a
//! sort-mined candidate index.
//!
//! Choosing the optimum dictionary is NP-complete \[Storer77\], so — like the
//! paper — "on every iteration of the algorithm, we examine each potential
//! dictionary entry and find the one that results in the largest immediate
//! savings", repeating until the codeword space is exhausted or no candidate
//! saves anything.
//!
//! The naive algorithm rescans the whole program every iteration. This
//! implementation is equivalent but incremental, and allocation-free on the
//! selection hot path:
//!
//! * a window is one `u32`: the **flat offset** of its first cell, which is
//!   its original instruction index in the flat [`ProgramModel`]. No window
//!   crosses a block leader, so two windows of one candidate overlap
//!   exactly when `p < prev + len`;
//! * **mining** is prefix refinement, with no hashing: a stable radix sort
//!   on the word orders the compressible cells by (word, offset), and each
//!   group is split, depth first, by the word that extends its windows by
//!   one instruction. Every group is one candidate and its occurrence list
//!   comes out ascending. The walk visits candidates in slice order of their
//!   words, so a candidate's id *is* its lexicographic rank;
//! * only candidates that can pay are emitted: a sequence of up to four
//!   instructions that occurs once saves nothing under any cost model
//!   selection runs with (`LONE_PAYS_FROM` says why; selection asserts it
//!   for every run), so the index omits it, and ids keep their relative
//!   order;
//! * the **occurrence index** is one flat offset arena in id order.
//!   Replacements never touch it: a window is *live* while all its cells
//!   are, checked against a per-cell flag array (and compacted out of the
//!   list, in place) lazily at recount time. Every window created by a
//!   replacement is a sub-window of an original run, so the candidate set is
//!   closed at build time and the index only ever shrinks;
//! * a **lazy max-heap** of `(savings, id)` seeded with each candidate's
//!   exact initial savings (the counts are taken once, at build time;
//!   candidates that start non-positive can never recover and are never
//!   enqueued). Counts only ever decrease, so a popped entry whose
//!   recomputed savings still equals its key is the true maximum; stale
//!   entries are re-inserted with their corrected value.
//!
//! Selection reads and writes only flat per-cell arrays, and its result is
//! one of them: the *head array*, naming the entry whose codeword starts at
//! each cell. The compressor builds its atom stream from that array and the
//! module's words; the public [`run_greedy`] and [`run_greedy_with`] store
//! it in the [`ProgramModel`].
//!
//! Tie-breaking is deterministic (savings, then the greater sequence, which
//! is the greater id), so compression output is bit-stable across runs,
//! platforms, and worker counts — and byte-identical to the original
//! boxed-slice index, kept in [`reference`](mod@reference) as the executable
//! specification.
//!
//! A [`CandidateIndex`] is immutable once built and can be shared across
//! runs: the sweep engine builds one index at the largest entry length and
//! every sweep point reuses it (cloning only the flat arrays a run mutates)
//! instead of re-mining the program per point. A run's own state is one
//! cloneable `Selection`, whose loop can stop after a given number of picks
//! and resume, skipping one candidate if asked: the refinement selector
//! selects each round's shared prefix once and resumes copies of it.

use std::collections::BinaryHeap;

use crate::container::MAX_ENTRY_LEN;
use crate::dict::Dictionary;
use crate::error::CompressError;
use crate::model::ProgramModel;
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
/// greedy run over the remaining candidate universe: the refinement
/// selector's accepted swaps, each a marginal entry whose ban made the exact
/// layout cost fall.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BanSet {
    /// Banned sequences, sorted for binary-search membership tests.
    seqs: Vec<Vec<u32>>,
}

impl BanSet {
    /// Creates an empty ban set.
    pub(crate) fn new() -> BanSet {
        BanSet::default()
    }

    /// Returns `true` when nothing is banned.
    pub(crate) fn is_empty(&self) -> bool {
        self.seqs.is_empty()
    }

    /// Bans a sequence (idempotent).
    pub(crate) fn insert(&mut self, seq: Vec<u32>) {
        if let Err(at) = self.seqs.binary_search(&seq) {
            self.seqs.insert(at, seq);
        }
    }

    /// Whether the sequence is banned.
    pub(crate) fn contains(&self, seq: &[u32]) -> bool {
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
    /// The sort-mined index (this module): candidates ranked by content,
    /// flat-offset occurrence lists, lazy liveness. The production path.
    #[default]
    Interned,
    /// The original `Box<[u32]>`-keyed index ([`reference`](mod@reference)),
    /// kept as the executable specification the equivalence tests compare
    /// against.
    Reference,
}

/// Dense candidate id: the rank of the candidate's words in slice order.
type SeqId = u32;

/// A heap entry, `(savings, id)`. Max-heap by savings; on a tie the greater
/// id, which is the greater sequence, pops first.
type HeapItem = (i64, SeqId);

/// A run's head-array value for a cell that heads no replaced occurrence.
pub(crate) const NO_ENTRY: u32 = u32::MAX;

/// The shortest candidate one occurrence of which can pay for its
/// dictionary words, under every cost model selection runs with; the index
/// omits shorter candidates that occur only once.
///
/// One occurrence of `len` instructions saves
/// `(insn_bits - dict_word_bits) * len - codeword_bits`. The 32-bit-escape
/// schemes (baseline, one-byte, Liao's) store what they escape, so that is
/// never positive. The 36-bit-escape schemes (nibble, Huffman) price a
/// codeword at 16 bits or more, refine's probes included, so it is at most
/// `4 * 4 - 16 = 0` up to four instructions; at five it is 4 bits, which
/// pays. [`select`] asserts the bound for every run.
const LONE_PAYS_FROM: usize = 5;

/// The immutable product of window mining: every candidate sequence of the
/// program that could pay for its dictionary words, ranked by content,
/// with its occurrence offsets and initial count. Build once, run greedy
/// selection against it any number of times ([`run_greedy_with`]) — each
/// run clones only the arrays it mutates.
#[derive(Debug, Clone)]
pub struct CandidateIndex<'a> {
    /// Each cell's instruction word by flat offset: the module's words,
    /// borrowed.
    words: &'a [u32],
    /// Whether each cell is compressible.
    compressible: Vec<bool>,
    /// Window start offsets, grouped by candidate in id order, ascending
    /// within each group.
    occ: Vec<u32>,
    /// Candidate `id`'s windows are `occ[starts[id]..starts[id + 1]]`.
    starts: Vec<u32>,
    /// Length of each candidate, in instructions.
    lens: Vec<u32>,
    /// Non-overlapping occurrence count of each candidate before any
    /// replacement.
    counts: Vec<u32>,
    /// The window length cap the index was requested with. Runs may use any
    /// `max_entry_len` ≤ this.
    max_entry_len: usize,
}

impl<'a> CandidateIndex<'a> {
    /// Mines every candidate window of `model` (runs of compressible cells,
    /// windows up to `max_len` instructions), except sequences of up to four
    /// instructions that occur only once: no cost model selection accepts
    /// lets one of those pay. A cap above the longest block
    /// mines the same windows as the longest block's length, and is
    /// checked as that; a cap above [`MAX_ENTRY_LEN`], the longest entry a
    /// container can record, mines as that.
    ///
    /// # Errors
    ///
    /// [`CompressError::ProgramTooLarge`] if the program exceeds the
    /// matchfinder's 32-bit position space.
    pub fn build(
        model: &ProgramModel<'a>,
        max_len: usize,
    ) -> Result<CandidateIndex<'a>, CompressError> {
        // rem[p]: how many windows start at p, i.e. the compressible cells
        // from p to the end of its run, capped at `max_len` (a run ends at
        // an incompressible cell or a block's end). The cap is at most
        // `MAX_ENTRY_LEN`, a `u8`, so one byte per cell holds it and the
        // walk's random reads of it stay in cache. The same backward pass
        // measures the blocks.
        let n = model.words.len();
        let limit = max_len.min(MAX_ENTRY_LEN) as u8;
        let mut rem = vec![0u8; n];
        let (mut blocks, mut largest_block, mut block_end, mut run) = (0, 0, n, 0u8);
        for p in (0..n).rev() {
            run = if model.compressible[p] { run.saturating_add(1).min(limit) } else { 0 };
            rem[p] = run;
            if model.leaders[p] {
                blocks += 1;
                largest_block = largest_block.max(block_end - p);
                block_end = p;
                run = 0;
            }
        }
        let cap = max_len.min(largest_block).min(MAX_ENTRY_LEN);
        check_position_space(blocks, largest_block, n, cap)?;

        let mut index = CandidateIndex {
            words: model.words,
            compressible: model.compressible.clone(),
            occ: Vec::new(),
            starts: vec![0],
            lens: Vec::new(),
            counts: Vec::new(),
            max_entry_len: max_len,
        };

        // Depth-first prefix refinement. `pending` holds sibling groups not
        // yet visited, each a range of `buf` plus its window length, pushed
        // greatest word first so the least pops first: the visit order is
        // slice order. A popped group's range is the top of `buf`, since
        // every group above it has been visited; its children are split
        // off behind it once it is consumed. A group is emitted unless one
        // occurrence is all it has and that cannot pay (see
        // `LONE_PAYS_FROM`); its children have no more occurrences, so
        // with a cap below that length the walk does not descend either.
        let mut buf: Vec<u32> = Vec::new();
        let mut pending: Vec<(usize, usize, usize)> = Vec::new();
        let mut keys: Vec<u64> =
            (0..n).filter(|&p| rem[p] > 0).map(|p| group_key(index.words[p], p)).collect();
        radix_sort_by_word(&mut keys);
        push_groups(&keys, &mut buf, &mut pending, 1);
        while let Some((s, e, len)) = pending.pop() {
            if e - s == 1 {
                // A lone window's extensions are lone windows: a chain.
                let p = buf[s];
                for l in len.max(LONE_PAYS_FROM)..=rem[p as usize] as usize {
                    index.push_candidate(&[p], l, 1);
                }
                buf.truncate(s);
                continue;
            }
            let count = effective_count(&buf[s..e], len);
            let descend = len < cap && (count > 1 || cap >= LONE_PAYS_FROM);
            if descend {
                keys.clear();
                keys.extend(
                    buf[s..e]
                        .iter()
                        .filter(|&&p| rem[p as usize] as usize > len)
                        .map(|&p| group_key(index.words[p as usize + len], p as usize)),
                );
            }
            if count > 1 || len >= LONE_PAYS_FROM {
                index.push_candidate(&buf[s..e], len, count);
            }
            buf.truncate(s);
            if descend {
                keys.sort_unstable();
                push_groups(&keys, &mut buf, &mut pending, len + 1);
            }
        }

        let candidates = index.candidates() as u64;
        telemetry::GREEDY_CANDIDATES_SEEDED.add(candidates);
        telemetry::GREEDY_INTERNED_SEQS.add(candidates);
        telemetry::GREEDY_INTERNED_WORDS.add(index.lens.iter().map(|&l| l as u64).sum());
        telemetry::GREEDY_WINDOW_ADDS.add(index.occ.len() as u64);
        Ok(index)
    }

    /// Appends the next candidate in id order: windows of `len` at
    /// `positions`, `count` of them non-overlapping.
    fn push_candidate(&mut self, positions: &[u32], len: usize, count: usize) {
        self.occ.extend_from_slice(positions);
        self.starts.push(self.occ.len() as u32);
        self.lens.push(len as u32);
        self.counts.push(count as u32);
    }

    /// Number of distinct candidate sequences.
    pub fn candidates(&self) -> usize {
        self.lens.len()
    }

    /// The window length cap this index was mined with.
    pub fn max_entry_len(&self) -> usize {
        self.max_entry_len
    }

    /// The instruction words of candidate `id`, read at its first window in
    /// `occ`: the index's arena, or a run's copy of it before any pick.
    fn words_of(&self, occ: &[u32], id: SeqId) -> &[u32] {
        let p = occ[self.starts[id as usize] as usize] as usize;
        &self.words[p..p + self.lens[id as usize] as usize]
    }

    /// The id of the candidate whose words are `seq`, if there is one. Ids
    /// rank candidates by their words, so this is a binary search.
    pub(crate) fn id_of(&self, seq: &[u32]) -> Option<SeqId> {
        let mut ids = 0..self.candidates() as SeqId;
        while !ids.is_empty() {
            let mid = ids.start + (ids.end - ids.start) / 2;
            match self.words_of(&self.occ, mid).cmp(seq) {
                std::cmp::Ordering::Less => ids.start = mid + 1,
                std::cmp::Ordering::Greater => ids.end = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }
}

/// Sort key grouping the window at `p` by its next word: ascending keys
/// put the greatest word first and keep offsets ascending within a word.
fn group_key(word: u32, p: usize) -> u64 {
    (!word as u64) << 32 | p as u64
}

/// Stable LSD radix sort of `keys` by their word half (see [`group_key`]),
/// one byte per pass: equal words keep their input order. The first level's
/// keys arrive in offset order, so this gives the order `sort_unstable`
/// would, in four linear passes instead of a comparison sort.
fn radix_sort_by_word(keys: &mut Vec<u64>) {
    let digit = |k: u64, d: usize| (k >> (32 + 8 * d)) as usize & 0xff;
    let mut histograms = [[0usize; 256]; 4];
    for &k in keys.iter() {
        for (d, h) in histograms.iter_mut().enumerate() {
            h[digit(k, d)] += 1;
        }
    }
    let mut out = vec![0u64; keys.len()];
    for (d, h) in histograms.iter().enumerate() {
        if h.contains(&keys.len()) {
            continue; // every key has this digit: the pass would move nothing
        }
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (slot, &n) in next.iter_mut().zip(h) {
            *slot = sum;
            sum += n;
        }
        for &k in keys.iter() {
            let b = digit(k, d);
            out[next[b]] = k;
            next[b] += 1;
        }
        std::mem::swap(keys, &mut out);
    }
}

/// Pushes one pending group of window length `len` per distinct word of
/// the sorted `keys` (see [`group_key`]), its offsets appended to `buf`.
fn push_groups(
    keys: &[u64],
    buf: &mut Vec<u32>,
    pending: &mut Vec<(usize, usize, usize)>,
    len: usize,
) {
    for group in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
        let start = buf.len();
        buf.extend(group.iter().map(|&k| k as u32));
        pending.push((start, buf.len(), len));
    }
}

/// Runs greedy selection over `model`, filling `dict` and storing the
/// run's head array in the model. Returns the pick log.
///
/// # Errors
///
/// [`CompressError::ProgramTooLarge`] if the program exceeds the
/// matchfinder's 32-bit position space.
///
/// # Panics
///
/// Panics if `params.cost` lets one occurrence of up to four instructions
/// save bits: the index omits such candidates (no encoding's, refine's or
/// Liao's cost model does).
pub fn run_greedy(
    model: &mut ProgramModel,
    dict: &mut Dictionary,
    params: GreedyParams,
) -> Result<Vec<PickRecord>, CompressError> {
    let index = CandidateIndex::build(model, params.max_entry_len)?;
    let (picks, heads) = select_owned(index, dict, params);
    model.heads = heads;
    Ok(picks)
}

/// Runs greedy selection against a prebuilt (shared) [`CandidateIndex`],
/// cloning only the flat arrays a run mutates, and stores the run's head
/// array in `model`. The index must have been mined from a model with the
/// same words and flags, with a window cap ≥ `params.max_entry_len`;
/// candidates longer than the run's cap are filtered at heap seeding, so the
/// result is byte-identical to a fresh build at the smaller cap.
///
/// # Panics
///
/// Panics if `params.max_entry_len > index.max_entry_len()`, or if
/// `params.cost` lets one occurrence of up to four instructions save bits
/// (see [`run_greedy`]).
pub fn run_greedy_with(
    index: &CandidateIndex,
    model: &mut ProgramModel,
    dict: &mut Dictionary,
    params: GreedyParams,
) -> Vec<PickRecord> {
    let (picks, heads) = select(index, dict, params, &BanSet::default());
    model.heads = heads;
    picks
}

/// Greedy selection against a shared index, minus any candidate whose
/// sequence content is in `bans`: banned candidates are excluded at heap
/// seeding, so the run is an ordinary greedy selection over the remaining
/// universe. Returns the pick log and the run's head array: per cell, by
/// flat offset (the original instruction index), the entry whose codeword
/// starts there, or [`NO_ENTRY`].
///
/// # Panics
///
/// Panics if `params.max_entry_len > index.max_entry_len()`, or if
/// `params.cost` lets one occurrence of up to four instructions save bits
/// (see [`run_greedy`]).
pub(crate) fn select(
    index: &CandidateIndex,
    dict: &mut Dictionary,
    params: GreedyParams,
    bans: &BanSet,
) -> (Vec<PickRecord>, Vec<u32>) {
    let mut run = Selection::start(index, std::mem::take(dict), params, bans);
    run.run(index, usize::MAX, None);
    run.finish(dict)
}

/// [`select`] with no bans against an index the caller built for this run
/// alone: its arrays move into the selector instead of being cloned.
pub(crate) fn select_owned(
    mut index: CandidateIndex,
    dict: &mut Dictionary,
    params: GreedyParams,
) -> (Vec<PickRecord>, Vec<u32>) {
    let occ = std::mem::take(&mut index.occ);
    let live = std::mem::take(&mut index.compressible);
    let mut run = Selection::new(&index, occ, live, std::mem::take(dict), params, &BanSet::new());
    run.run(&index, usize::MAX, None);
    run.finish(dict)
}

/// One greedy run's state: everything the selection loop reads and writes
/// besides the immutable [`CandidateIndex`] it runs against. A run can stop
/// after some picks and resume, and a stopped run can be cloned and resumed
/// along different paths: the refinement selector's checkpoint.
#[derive(Debug, Clone)]
pub(crate) struct Selection {
    /// The run's limits and cost model.
    params: GreedyParams,
    /// Window start offsets, grouped by candidate: the run's copy of the
    /// index's arena, or after [`keep_queued`](Selection::keep_queued) the
    /// queued candidates' windows alone.
    occ: Vec<u32>,
    /// Candidate `id`'s windows are `occ[spans[id].0..spans[id].1]`; the
    /// ones that lost a cell are compacted out when it pops.
    spans: Vec<(u32, u32)>,
    /// Whether each cell is compressible and not yet replaced.
    live: Vec<bool>,
    /// The entry whose codeword heads each cell, or [`NO_ENTRY`].
    heads: Vec<u32>,
    /// Every candidate that may still be accepted, at most once each, keyed
    /// by an upper bound of its savings.
    heap: BinaryHeap<HeapItem>,
    /// The picks accepted so far.
    picks: Vec<PickRecord>,
    /// The dictionary they built.
    dict: Dictionary,
}

impl Selection {
    /// A run of `params` against the shared `index`, minus `bans`, before
    /// its first pick, appending to `dict`: it clones the arrays it mutates.
    ///
    /// # Panics
    ///
    /// See [`select`].
    pub(crate) fn start(
        index: &CandidateIndex,
        dict: Dictionary,
        params: GreedyParams,
        bans: &BanSet,
    ) -> Selection {
        assert!(
            params.max_entry_len <= index.max_entry_len,
            "index mined at max_entry_len {} cannot serve a run at {}",
            index.max_entry_len,
            params.max_entry_len
        );
        telemetry::GREEDY_INDEX_REUSES.inc();
        Selection::new(index, index.occ.clone(), index.compressible.clone(), dict, params, bans)
    }

    /// A run before its first pick. `occ` and `live` are the run's own
    /// copies of the index's arena and per-cell compressible flags.
    fn new(
        index: &CandidateIndex,
        occ: Vec<u32>,
        live: Vec<bool>,
        dict: Dictionary,
        params: GreedyParams,
        bans: &BanSet,
    ) -> Selection {
        for len in 1..=params.max_entry_len.min(LONE_PAYS_FROM - 1) {
            assert!(
                params.cost.savings_bits(len, 1) <= 0,
                "{:?} lets one occurrence of {len} instructions pay, but the index omits those",
                params.cost
            );
        }
        // Exact seeding: before any replacement every window is live, so the
        // build-time counts are each candidate's true initial savings.
        // Candidates that start non-positive can never become acceptable
        // (counts only shrink), so they never enter the heap.
        let seeds: Vec<HeapItem> = (0..index.candidates())
            .filter_map(|i| {
                let len = index.lens[i] as usize;
                if len > params.max_entry_len {
                    return None;
                }
                let savings = params.cost.savings_bits(len, index.counts[i] as usize);
                let id = i as SeqId;
                (savings > 0 && !bans.contains(index.words_of(&occ, id))).then_some((savings, id))
            })
            .collect();
        Selection {
            params,
            spans: index.starts.windows(2).map(|s| (s[0], s[1])).collect(),
            heads: vec![NO_ENTRY; live.len()],
            heap: BinaryHeap::from(seeds),
            picks: Vec::new(),
            occ,
            live,
            dict,
        }
    }

    /// Selects until the dictionary holds `stop` entries (at most
    /// `max_codewords`) or no candidate saves anything, never accepting
    /// candidate `skip`.
    ///
    /// Each step accepts the greatest (true savings, id) among the
    /// candidates still queued, whatever stale keys the lazy heap holds, and
    /// ids are unique. So a run stopped after `k` picks is the prefix of the
    /// uninterrupted run, and skipping a candidate as it pops selects
    /// exactly what banning it at seeding would.
    pub(crate) fn run(&mut self, index: &CandidateIndex, stop: usize, skip: Option<SeqId>) {
        let Selection { params, occ, spans, live, heads, heap, picks, dict } = self;
        let stop = stop.min(params.max_codewords);
        while dict.len() < stop {
            let Some((top, id)) = heap.pop() else { break };
            telemetry::GREEDY_HEAP_POPS.inc();
            if Some(id) == skip {
                continue;
            }
            let len = index.lens[id as usize] as usize;
            // Lazy liveness: drop windows that lost a cell to an accepted
            // replacement, then recount.
            let (s, e) = spans[id as usize];
            let (s, e) = (s as usize, e as usize);
            let mut w = s;
            for r in s..e {
                let p = occ[r] as usize;
                if live[p..p + len].iter().all(|&l| l) {
                    occ[w] = p as u32;
                    w += 1;
                }
            }
            spans[id as usize].1 = w as u32;
            telemetry::GREEDY_WINDOW_REMOVES.add((e - w) as u64);
            let positions = &occ[s..w];
            let n = effective_count(positions, len);
            let savings = params.cost.savings_bits(len, n);
            debug_assert!(savings <= top, "counts only decrease");
            if savings <= 0 {
                continue; // candidate dead; others may still be live
            }
            if savings < top {
                telemetry::GREEDY_STALE_REINSERTS.inc();
                heap.push((savings, id));
                continue;
            }

            // Accept: replace every non-overlapping occurrence left to right.
            // No index surgery — windows overlapping a replacement simply stop
            // being live and are compacted away on their next recount.
            let first = positions[0] as usize;
            let entry = dict.push(&index.words[first..first + len], n);
            let mut next = 0;
            for &p in positions {
                let p = p as usize;
                if p >= next {
                    live[p..p + len].fill(false);
                    heads[p] = entry;
                    next = p + len;
                }
            }
            debug_assert_eq!(positions.iter().filter(|&&p| heads[p as usize] == entry).count(), n);
            telemetry::GREEDY_PICKS_ACCEPTED.inc();
            telemetry::GREEDY_REPLACEMENTS.add(n as u64);
            picks.push(PickRecord { entry, len, replaced: n, savings_bits: savings });
        }
    }

    /// Drops the windows of every candidate no longer queued: none of them
    /// pops again, so a checkpoint keeps only what a resumed run reads.
    /// The spans of the dropped candidates are left dangling.
    pub(crate) fn keep_queued(&mut self) {
        let mut occ = Vec::new();
        for &(_, id) in self.heap.iter() {
            let (s, e) = self.spans[id as usize];
            let start = occ.len() as u32;
            occ.extend_from_slice(&self.occ[s as usize..e as usize]);
            self.spans[id as usize] = (start, occ.len() as u32);
        }
        self.occ = occ;
    }

    /// Ends the run: moves its dictionary into `dict` and returns the pick
    /// log and the head array.
    pub(crate) fn finish(self, dict: &mut Dictionary) -> (Vec<PickRecord>, Vec<u32>) {
        *dict = self.dict;
        (self.picks, self.heads)
    }
}

/// Rejects programs too large for the index's 32-bit fields: window
/// offsets, arena indices, candidate ids and lengths are `u32`.
///
/// The `total_cells` bound covers them: in the worst case every window is a
/// distinct sequence, so the candidates' summed lengths reach
/// `1 + 2 + … + max_len` words per start cell, which bounds the window and
/// candidate counts and, whenever there is a window at all, the cell count.
/// The block bounds keep a (block, cell) coordinate within `u32` too, with
/// `max_len` headroom so a cell index plus a window length cannot wrap.
/// Rejecting up front makes [`CompressError::ProgramTooLarge`] the only
/// failure mode — mining can never silently truncate an offset.
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

/// Greedy left-to-right non-overlapping occurrence count over ascending
/// window offsets.
fn effective_count(positions: &[u32], len: usize) -> usize {
    if len == 1 {
        // Single-cell windows occupy distinct cells; none can overlap.
        return positions.len();
    }
    let mut n = 0;
    let mut next = 0; // first offset a new occurrence may start at
    for &p in positions {
        if p as usize >= next {
            n += 1;
            next = p as usize + len;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use codense_isa::IsaRef;

    use codense_obj::ObjectModule;
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    fn w(si: i16) -> u32 {
        encode(&Insn::Addi { rt: R3, ra: R3, si })
    }

    const PPC: IsaRef = IsaRef(&codense_ppc::ISA);

    fn module_of(words: Vec<u32>) -> ObjectModule {
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        m.code = words;
        m
    }

    /// A fresh greedy run over `words`: its pick log, dictionary and heads.
    fn greedy(words: &[u32], params: GreedyParams) -> (Vec<PickRecord>, Dictionary, Vec<u32>) {
        let m = module_of(words.to_vec());
        let mut model = ProgramModel::build_isa(&m, PPC);
        let mut dict = Dictionary::new();
        let picks = run_greedy(&mut model, &mut dict, params).unwrap();
        (picks, dict, model.heads)
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
        let (picks, dict, heads) = greedy(&words, baseline_params(4, 100));
        assert!(!picks.is_empty());
        // Best first pick is the pair (or a longer repetition of it).
        assert!(picks[0].savings_bits >= picks.last().unwrap().savings_bits);
        let first = dict.entry(picks[0].entry);
        assert!(first.words.contains(&w(1)) || first.words.contains(&w(2)));
        // Everything replaceable got replaced: remaining instructions are
        // unique or unprofitable.
        assert!(heads.iter().any(|&h| h != NO_ENTRY));
    }

    #[test]
    fn respects_max_codewords() {
        let mut words = Vec::new();
        for i in 0..50 {
            for _ in 0..4 {
                words.push(w(i));
            }
        }
        assert_eq!(greedy(&words, baseline_params(1, 5)).1.len(), 5);
        assert!(greedy(&words, baseline_params(1, 1000)).1.len() > 5);
    }

    #[test]
    fn no_negative_savings_accepted() {
        // All-unique program: nothing is worth a dictionary entry.
        let words: Vec<u32> = (0..40).map(w).collect();
        let (picks, _, heads) = greedy(&words, baseline_params(4, 100));
        assert!(picks.is_empty(), "unique code must not be compressed: {picks:?}");
        assert!(heads.iter().all(|&h| h == NO_ENTRY));
    }

    #[test]
    fn overlapping_occurrences_counted_non_overlapping() {
        // "aaaa": sequence [a,a] has raw occurrences at 0,1,2 but only 2
        // non-overlapping.
        assert_eq!(effective_count(&[0, 1, 2], 2), 2);
        assert_eq!(effective_count(&[0, 1, 2, 3], 2), 2);
        assert_eq!(effective_count(&[0, 2, 3, 5], 2), 3);
        assert_eq!(effective_count(&[0, 1, 2], 1), 3);
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
        let small = greedy(&words, baseline_params(4, 3)).0;
        let large = greedy(&words, baseline_params(4, 12)).0;
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
        let (p1, d1, _) = greedy(&words, baseline_params(4, 100));
        let (p2, d2, _) = greedy(&words, baseline_params(4, 100));
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
        let (_, dict, _) = greedy(&a.finish().unwrap(), baseline_params(4, 100));
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
        let (p1, d1, h1) = greedy(&words, baseline_params(4, 100));
        let m = module_of(words);
        let mut model = ProgramModel::build_isa(&m, PPC);
        let mut d2 = Dictionary::new();
        let p2 = reference::run_greedy(&mut model, &mut d2, baseline_params(4, 100));
        assert_eq!(p1, p2);
        assert_eq!(d1, d2);
        assert_eq!(h1, model.heads);
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
        let m = module_of(words.clone());
        let model0 = ProgramModel::build_isa(&m, PPC);
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
            let fresh = greedy(&words, baseline_params(cap, 64));
            assert_eq!((shared, shared_dict, shared_model.heads), fresh, "cap {cap}");
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
        // The index's arena offsets and ids are u32; in the worst case the
        // candidates sum to 1+2+…+max_len words per start cell. The boundary
        // sits exactly at u32::MAX worst-case words.
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

    /// A seeded random module over a three-word alphabet, with a few
    /// backward branches that cut it into blocks, and an exclusion mask: for
    /// half the modules a hotness mask that makes about one cell in five
    /// incompressible, for the rest nothing.
    fn random_module(rng: &mut codense_codegen::Rng) -> (ObjectModule, Vec<bool>) {
        let len = rng.range(8, 120);
        let mut code: Vec<u32> = (0..len).map(|_| w(rng.below(3) as i16)).collect();
        for _ in 0..rng.below(6) {
            let at = rng.below(len);
            let target = rng.below(at + 1);
            let li = ((target as i64 - at as i64) * 4) as i32;
            code[at] = encode(&Insn::B { li, aa: false, lk: false });
        }
        let masked = rng.below(2) == 1;
        let mask = (0..len).map(|_| masked && rng.below(5) == 0).collect();
        (module_of(code), mask)
    }

    /// Every window of every compressible run up to `cap` long, by content:
    /// each window's flat offset plus its (block, cell) position.
    fn brute_force_windows(
        model: &ProgramModel,
        cap: usize,
    ) -> BTreeMap<Vec<u32>, Vec<(u32, usize, usize)>> {
        let mut out: BTreeMap<Vec<u32>, Vec<(u32, usize, usize)>> = BTreeMap::new();
        let n = model.words.len();
        let mut block = (0, 0); // index and start of p's block
        for p in 0..n {
            if p > 0 && model.leaders[p] {
                block = (block.0 + 1, p);
            }
            let mut seq = Vec::new();
            for q in (p..n).take(cap) {
                if !model.compressible[q] || (q > p && model.leaders[q]) {
                    break;
                }
                seq.push(model.words[q]);
                out.entry(seq.clone()).or_default().push((p as u32, block.0, p - block.1));
            }
        }
        out
    }

    /// The non-overlapping count over (block, cell) positions: windows
    /// overlap only inside one block.
    fn block_cell_count(positions: &[(u32, usize, usize)], len: usize) -> usize {
        let mut n = 0;
        let mut last: Option<(usize, usize)> = None;
        for &(_, b, c) in positions {
            if last.is_some_and(|(lb, end)| lb == b && c < end) {
                continue;
            }
            n += 1;
            last = Some((b, c + len));
        }
        n
    }

    /// The index mines every window brute force finds, except exactly the
    /// candidates one occurrence of which cannot pay: a count of 1 at fewer
    /// than [`LONE_PAYS_FROM`] instructions.
    #[test]
    fn index_matches_brute_force_on_random_models() {
        let mut rng = codense_codegen::Rng::new(0x51DE_C0DE);
        for case in 0..64 {
            let (m, mask) = random_module(&mut rng);
            let mut model = ProgramModel::build_isa(&m, PPC);
            model.exclude(&mask);
            for cap in 1..=8 {
                let ctx = format!("case {case}, cap {cap}");
                let index = CandidateIndex::build(&model, cap).unwrap();
                let mut expected = brute_force_windows(&model, cap);
                let list = |id: usize| {
                    &index.occ[index.starts[id] as usize..index.starts[id + 1] as usize]
                };
                let words = |id: usize| index.words_of(&index.occ, id as SeqId);

                // Ids ascend strictly in slice order of their words.
                for id in 1..index.candidates() {
                    assert!(words(id - 1) < words(id), "{ctx}: ids {} and {id}", id - 1);
                }
                // Every list ascends strictly, and every window appears
                // exactly once, under its own content, counted as the
                // (block, cell) overlap rule counts it.
                let mut mined = BTreeMap::new();
                for id in 0..index.candidates() {
                    let positions = list(id);
                    assert!(positions.windows(2).all(|p| p[0] < p[1]), "{ctx}: id {id}");
                    let brute = &expected[words(id)];
                    let len = index.lens[id] as usize;
                    assert_eq!(len, words(id).len(), "{ctx}: id {id}");
                    assert_eq!(index.counts[id] as usize, block_cell_count(brute, len), "{ctx}");
                    mined.insert(words(id).to_vec(), positions.to_vec());
                }
                // What the index omits is exactly what cannot pay alone.
                expected.retain(|seq, ps| {
                    let lone = block_cell_count(ps, seq.len()) == 1 && seq.len() < LONE_PAYS_FROM;
                    assert_eq!(mined.contains_key(seq), !lone, "{ctx}: {seq:x?}");
                    !lone
                });
                let flat: BTreeMap<Vec<u32>, Vec<u32>> = expected
                    .iter()
                    .map(|(seq, ps)| (seq.clone(), ps.iter().map(|p| p.0).collect()))
                    .collect();
                assert_eq!(mined, flat, "{ctx}");
                // Candidate, word and window totals.
                assert_eq!(index.candidates(), expected.len(), "{ctx}");
                let words_total: usize = index.lens.iter().map(|&l| l as usize).sum();
                assert_eq!(words_total, expected.keys().map(Vec::len).sum::<usize>(), "{ctx}");
                assert_eq!(index.occ.len(), expected.values().map(Vec::len).sum::<usize>());
            }
        }
    }

    /// Every cost model the compressor selects with, once each: each
    /// encoding's, and refine's probe prices under the variable-length
    /// encodings.
    fn compressor_cost_models() -> Vec<CostModel> {
        use crate::compressor::selection_cost;
        use crate::config::EncodingKind::*;
        let mut models: Vec<CostModel> = [Baseline, OneByte, NibbleAligned, Huffman]
            .into_iter()
            .map(|kind| selection_cost(kind, kind.codeword_bits_estimate()))
            .collect();
        for kind in [NibbleAligned, Huffman] {
            models.extend(crate::selector::PROBE_PRICES.map(|price| selection_cost(kind, price)));
        }
        let mut unique = Vec::new();
        for cost in models {
            if !unique.contains(&cost) {
                unique.push(cost);
            }
        }
        unique
    }

    /// The bound [`select`]'s guard checks, under every cost model the
    /// compressor selects with (`codense-liao` checks Liao's). At
    /// [`LONE_PAYS_FROM`] one occurrence pays under the nibble-granular
    /// schemes, so the bound is tight.
    #[test]
    fn one_occurrence_pays_only_from_five_instructions() {
        use crate::config::EncodingKind::NibbleAligned;
        for cost in &compressor_cost_models() {
            for len in 1..LONE_PAYS_FROM {
                assert!(cost.savings_bits(len, 1) <= 0, "{cost:?} at {len}");
            }
        }
        let nibble = crate::compressor::selection_cost(NibbleAligned, 16);
        assert!(nibble.savings_bits(LONE_PAYS_FROM, 1) > 0);
    }

    /// A run's pick log, dictionary and head array.
    type Outcome = (Vec<PickRecord>, Dictionary, Vec<u32>);

    fn outcome(run: Selection) -> Outcome {
        let mut dict = Dictionary::new();
        let (picks, heads) = run.finish(&mut dict);
        (picks, dict, heads)
    }

    /// The resume property the refinement selector's checkpoint rests on,
    /// under every cost model the compressor selects with and at caps 1 to
    /// 8: a run stopped after `k` picks, with only its queued candidates'
    /// windows kept, resumes to the uninterrupted run; and resumed with the
    /// candidate of pick `j >= k` skipped, it selects what a from-scratch
    /// run with that sequence banned does.
    #[test]
    fn resumed_runs_match_from_scratch_runs() {
        let mut rng = codense_codegen::Rng::new(0x2E5_03E5);
        let (mut resumed, mut capped) = (0, 0);
        for case in 0..32 {
            let (m, mask) = random_module(&mut rng);
            let mut model = ProgramModel::build_isa(&m, PPC);
            model.exclude(&mask);
            let index = CandidateIndex::build(&model, 8).unwrap();
            for cost in compressor_cost_models() {
                for cap in 1..=8 {
                    // Some runs stop at the codeword cap, not for want of
                    // candidates.
                    let max_codewords = if (case + cap) % 5 == 0 { 3 } else { 64 };
                    let params = GreedyParams { max_entry_len: cap, max_codewords, cost };
                    let ctx =
                        format!("case {case}, {cost:?}, cap {cap}, {max_codewords} codewords");
                    let fresh =
                        || Selection::start(&index, Dictionary::new(), params, &BanSet::new());
                    let mut run = fresh();
                    run.run(&index, usize::MAX, None);
                    let full = outcome(run);
                    capped += usize::from(full.0.len() == max_codewords);
                    for k in 0..=full.0.len() {
                        let mut checkpoint = fresh();
                        checkpoint.run(&index, k, None);
                        checkpoint.keep_queued();
                        let mut run = checkpoint.clone();
                        run.run(&index, usize::MAX, None);
                        assert_eq!(outcome(run), full, "{ctx}: resumed after {k} picks");
                        for pick in &full.0[k..] {
                            let seq = &full.1.entry(pick.entry).words;
                            let mut bans = BanSet::new();
                            bans.insert(seq.clone());
                            let mut dict = Dictionary::new();
                            let (picks, heads) = select(&index, &mut dict, params, &bans);
                            let mut run = checkpoint.clone();
                            run.run(&index, usize::MAX, index.id_of(seq));
                            let ctx = format!("{ctx}: entry {} skipped after {k}", pick.entry);
                            assert_eq!(outcome(run), (picks, dict, heads), "{ctx}");
                            resumed += 1;
                        }
                    }
                }
            }
        }
        assert!(resumed > 5000 && capped > 0, "{resumed} skipping runs, {capped} capped");
    }

    #[test]
    #[should_panic(expected = "lets one occurrence of 3 instructions pay")]
    fn selection_refuses_a_cost_model_the_index_cannot_serve() {
        let mut params = baseline_params(4, 8);
        params.cost.insn_bits = 36;
        params.cost.codeword_bits = 8;
        greedy(&[w(1), w(2), w(3)], params);
    }

    #[test]
    fn equal_windows_meeting_at_a_block_boundary_both_count() {
        // [a b | a b br]: the branch back to offset 2 starts a block there,
        // so the two [a b] windows touch without overlapping, and no window
        // spans the boundary.
        let (a, b) = (w(1), w(2));
        let br = encode(&Insn::B { li: -8, aa: false, lk: false });
        let m = module_of(vec![a, b, a, b, br]);
        let model = ProgramModel::build_isa(&m, PPC);
        assert_eq!(model.leaders, [true, false, true, false, false]);
        let index = CandidateIndex::build(&model, 4).unwrap();
        let find = |seq: &[u32]| {
            (0..index.candidates()).find(|&id| index.words_of(&index.occ, id as SeqId) == seq)
        };
        assert_eq!(index.counts[find(&[a, b]).unwrap()], 2);
        assert_eq!(find(&[b, a]), None);

        let mut m1 = model.clone();
        let mut d1 = Dictionary::new();
        let p1 = run_greedy_with(&index, &mut m1, &mut d1, baseline_params(4, 8));
        assert_eq!(p1[0].replaced, 2);
        let mut m2 = model;
        let mut d2 = Dictionary::new();
        let p2 = reference::run_greedy(&mut m2, &mut d2, baseline_params(4, 8));
        assert_eq!(p1, p2);
        assert_eq!(d1, d2);
        assert_eq!(m1.heads, m2.heads);
    }

    #[test]
    fn caps_above_the_largest_block_mine_the_largest_block() {
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        for i in 0..40 {
            m.code.extend([w(i % 5), w(7), w(i % 3 + 20)]);
            if i % 9 == 8 {
                m.code.push(encode(&Insn::B { li: -8, aa: false, lk: false }));
            }
        }
        let model = ProgramModel::build_isa(&m, PPC);
        let mut starts: Vec<usize> = (0..m.code.len()).filter(|&i| model.leaders[i]).collect();
        starts.push(m.code.len());
        let largest = starts.windows(2).map(|b| b[1] - b[0]).max().unwrap();
        // Unclamped, the guard would refuse this small program at 100000.
        assert!(check_position_space(starts.len() - 1, largest, m.code.len(), 100_000).is_err());
        let compress = |cap: usize| {
            let config = crate::CompressionConfig {
                max_entry_len: cap,
                ..crate::CompressionConfig::nibble_aligned()
            };
            let c = crate::Compressor::new(config).compress(&m).unwrap();
            (c.picks.clone(), crate::container::serialize(&c))
        };
        let at_largest = compress(largest);
        assert!(!at_largest.0.is_empty());
        for cap in [100_000, usize::MAX] {
            assert_eq!(compress(cap), at_largest, "cap {cap}");
        }
    }
}
