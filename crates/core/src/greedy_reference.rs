//! The original `Box<[u32]>`-keyed occurrence index, kept verbatim as an
//! executable specification of the greedy selector.
//!
//! This is the matchfinder the sort-mined index (the parent module)
//! replaced: it allocates a fresh boxed-slice HashMap key for every window
//! on build, replacement, *and removal lookups*, and pays a `BTreeSet` node
//! per occurrence. It survives for two reasons:
//!
//! * the `matchfinder_equivalence` property suite asserts the production
//!   matchfinder produces a byte-identical pick log, dictionary, and
//!   compressed image against it, across all encodings and hotness masks;
//! * the `interner_telemetry` test runs it to show that
//!   [`telemetry::GREEDY_REMOVAL_ALLOCS`] is live, so the production
//!   index's zero on that counter means something.
//!
//! Its removal path increments [`telemetry::GREEDY_REMOVAL_ALLOCS`] once
//! per boxed lookup key — the counter the production index never touches.
//! It names positions by (block, cell) and keeps its own overlap helpers,
//! independent of the parent's flat offsets: it copies the flat model into
//! blocks of cells, rewrites those with codewords and tombstones as it
//! selects, and reads the head array back off them at the end.

use std::collections::{BTreeSet, BinaryHeap, HashMap};

use super::{GreedyParams, PickRecord, NO_ENTRY};
use crate::dict::Dictionary;
use crate::model::ProgramModel;
use crate::telemetry;

/// One slot of the rewrite model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// An (as yet) uncompressed instruction.
    Insn { word: u32, compressible: bool },
    /// A codeword standing for dictionary entry `entry`.
    Code { entry: u32 },
    /// An instruction slot consumed by a preceding [`Cell::Code`].
    Dead,
}

impl Cell {
    /// Returns the instruction word if this is a compressible instruction.
    fn compressible_word(&self) -> Option<u32> {
        match *self {
            Cell::Insn { word, compressible: true } => Some(word),
            _ => None,
        }
    }
}

/// A basic block: a run of cells, positionally stable under replacement
/// (replacements tombstone cells rather than splice them out).
struct Block {
    /// The cells, one per original instruction of the block.
    cells: Vec<Cell>,
    /// Original index of the block's first instruction.
    start: usize,
}

/// The flat model's instructions, one block of cells per basic block.
fn blocks_of(model: &ProgramModel) -> Vec<Block> {
    let mut blocks: Vec<Block> = Vec::new();
    for (i, (&word, &compressible)) in model.words.iter().zip(&model.compressible).enumerate() {
        if model.leaders[i] {
            blocks.push(Block { cells: Vec::new(), start: i });
        }
        let block = blocks.last_mut().expect("instruction 0 leads a block");
        block.cells.push(Cell::Insn { word, compressible });
    }
    blocks
}

type Seq = Box<[u32]>;
/// Position of a window: (block index, cell index).
type Pos = (u32, u32);

#[derive(Debug, PartialEq, Eq)]
struct HeapItem {
    savings: i64,
    seq: Seq,
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap by savings; deterministic lexicographic tie-break.
        self.savings.cmp(&other.savings).then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Runs greedy selection with the original allocation-heavy index. The
/// observable output (pick log, dictionary, the model's head array) is
/// identical to [`super::run_greedy`]; only the cost differs.
pub fn run_greedy(
    model: &mut ProgramModel,
    dict: &mut Dictionary,
    params: GreedyParams,
) -> Vec<PickRecord> {
    // Mining caps entries at what a container can record, as the
    // production index does.
    let cap = params.max_entry_len.min(crate::container::MAX_ENTRY_LEN);
    let params = GreedyParams { max_entry_len: cap, ..params };
    let mut blocks = blocks_of(model);
    let mut index = Index::build(&blocks, params.max_entry_len);
    let mut picks = Vec::new();

    while dict.len() < params.max_codewords {
        let Some(top) = index.heap.pop() else { break };
        telemetry::GREEDY_HEAP_POPS.inc();
        let len = top.seq.len();
        let Some(set) = index.occ.get(&top.seq) else { continue };
        let n = effective_count(set, len);
        let savings = params.cost.savings_bits(len, n);
        debug_assert!(savings <= top.savings, "counts only decrease");
        if savings <= 0 {
            continue; // candidate dead; others may still be live
        }
        if savings < top.savings {
            telemetry::GREEDY_STALE_REINSERTS.inc();
            index.heap.push(HeapItem { savings, seq: top.seq });
            continue;
        }

        // Accept: replace every non-overlapping occurrence left to right.
        let positions = select_positions(set, len);
        debug_assert_eq!(positions.len(), n);
        let entry = dict.push(top.seq.to_vec(), n);
        for &(b, p) in &positions {
            index.replace(&mut blocks, b as usize, p as usize, entry, len, params.max_entry_len);
        }
        telemetry::GREEDY_PICKS_ACCEPTED.inc();
        telemetry::GREEDY_REPLACEMENTS.add(n as u64);
        picks.push(PickRecord { entry, len, replaced: n, savings_bits: savings });
    }
    model.heads = vec![NO_ENTRY; model.words.len()];
    for block in &blocks {
        for (c, cell) in block.cells.iter().enumerate() {
            if let Cell::Code { entry } = *cell {
                model.heads[block.start + c] = entry;
            }
        }
    }
    picks
}

/// Greedy left-to-right non-overlapping occurrence count.
fn effective_count(set: &BTreeSet<Pos>, len: usize) -> usize {
    select_positions(set, len).len()
}

/// The positions [`effective_count`] counted: left to right, skipping any
/// that overlaps the last one taken in the same block.
fn select_positions(set: &BTreeSet<Pos>, len: usize) -> Vec<Pos> {
    let mut out: Vec<Pos> = Vec::new();
    for &(b, p) in set {
        if let Some(&(lb, lp)) = out.last() {
            if lb == b && (p as usize) < lp as usize + len {
                continue;
            }
        }
        out.push((b, p));
    }
    out
}

struct Index {
    occ: HashMap<Seq, BTreeSet<Pos>>,
    heap: BinaryHeap<HeapItem>,
}

impl Index {
    fn build(blocks: &[Block], max_len: usize) -> Index {
        // Window mining is embarrassingly parallel over disjoint block
        // ranges; merging unions per-chunk maps. Positions from different
        // chunks never collide (they carry the block index), so the merged
        // map — and everything downstream — is bit-identical to a
        // sequential scan regardless of the worker count.
        let ranges =
            crate::parallel::chunk_ranges(blocks.len(), crate::parallel::jobs().saturating_mul(4));
        let chunks = crate::parallel::par_map(ranges, |_, (b0, b1)| {
            build_occ_range(blocks, b0, b1, max_len)
        });
        let mut occ: HashMap<Seq, BTreeSet<Pos>> = HashMap::new();
        for chunk in chunks {
            if occ.is_empty() {
                occ = chunk;
                continue;
            }
            for (seq, set) in chunk {
                occ.entry(seq).or_default().extend(set);
            }
        }
        telemetry::GREEDY_CANDIDATES_SEEDED.add(occ.len() as u64);
        // Heap seeding is the only place HashMap iteration order is
        // observed; the heap's total order makes pops deterministic anyway.
        let heap = occ
            .iter()
            .map(|(seq, set)| HeapItem {
                savings: upper_bound_savings(seq, set.len()),
                seq: seq.clone(),
            })
            .collect();
        Index { occ, heap }
    }

    /// Replaces the window at (`b`, `p`) with codeword `entry` of `len`
    /// instructions, updating the occurrence index locally.
    fn replace(
        &mut self,
        blocks: &mut [Block],
        b: usize,
        p: usize,
        entry: u32,
        len: usize,
        max_len: usize,
    ) {
        let block = &mut blocks[b];
        // The run containing p.
        let (rs, re) = run_around(&block.cells, p);
        debug_assert!(p + len <= re);
        remove_windows(&mut self.occ, &block.cells, b as u32, rs, re, max_len);
        debug_assert!(
            matches!(block.cells[p], Cell::Insn { .. }),
            "replacement target must be an instruction"
        );
        block.cells[p] = Cell::Code { entry };
        for cell in &mut block.cells[p + 1..p + len] {
            *cell = Cell::Dead;
        }
        add_windows(&mut self.occ, &block.cells, b as u32, rs, p, max_len);
        add_windows(&mut self.occ, &block.cells, b as u32, p + len, re, max_len);
    }
}

/// Mines candidate windows for the block range `b0..b1` into a fresh map.
/// Run on worker threads by [`Index::build`].
fn build_occ_range(
    blocks: &[Block],
    b0: usize,
    b1: usize,
    max_len: usize,
) -> HashMap<Seq, BTreeSet<Pos>> {
    let mut occ: HashMap<Seq, BTreeSet<Pos>> = HashMap::new();
    for (b, block) in blocks[b0..b1].iter().enumerate() {
        for (start, end) in runs(&block.cells) {
            add_windows(&mut occ, &block.cells, (b0 + b) as u32, start, end, max_len);
        }
    }
    occ
}

/// Maximal runs of compressible instruction cells.
fn runs(cells: &[Cell]) -> Vec<(usize, usize)> {
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

/// Initial savings upper bound for a fresh candidate. Seeding only needs a
/// value ≥ the real savings under any cost model; a count-proportional bound
/// keeps early pops useful (few lazy re-insertions).
fn upper_bound_savings(seq: &[u32], raw_count: usize) -> i64 {
    // 36 bits/insn is the largest stream cost in any scheme; codeword ≥ 4
    // bits; this dominates every cost model's savings.
    raw_count as i64 * (36 * seq.len() as i64 - 4)
}

/// The maximal compressible run containing `p`.
fn run_around(cells: &[Cell], p: usize) -> (usize, usize) {
    debug_assert!(cells[p].compressible_word().is_some());
    let mut s = p;
    while s > 0 && cells[s - 1].compressible_word().is_some() {
        s -= 1;
    }
    let mut e = p + 1;
    while e < cells.len() && cells[e].compressible_word().is_some() {
        e += 1;
    }
    (s, e)
}

fn add_windows(
    occ: &mut HashMap<Seq, BTreeSet<Pos>>,
    cells: &[Cell],
    b: u32,
    start: usize,
    end: usize,
    max_len: usize,
) {
    let mut added = 0u64;
    for s in start..end {
        let limit = max_len.min(end - s);
        let mut words = Vec::with_capacity(limit);
        for l in 1..=limit {
            words.push(cells[s + l - 1].compressible_word().expect("run cell"));
            occ.entry(words.clone().into_boxed_slice()).or_default().insert((b, s as u32));
            added += 1;
        }
    }
    telemetry::GREEDY_WINDOW_ADDS.add(added);
}

fn remove_windows(
    occ: &mut HashMap<Seq, BTreeSet<Pos>>,
    cells: &[Cell],
    b: u32,
    start: usize,
    end: usize,
    max_len: usize,
) {
    let mut removed = 0u64;
    for s in start..end {
        let limit = max_len.min(end - s);
        let mut words = Vec::with_capacity(limit);
        for l in 1..=limit {
            words.push(cells[s + l - 1].compressible_word().expect("run cell"));
            // The removal-path allocation the production index never
            // makes: a boxed key built just to *look up* an entry.
            let key: Seq = words.clone().into_boxed_slice();
            telemetry::GREEDY_REMOVAL_ALLOCS.inc();
            if let Some(set) = occ.get_mut(&key) {
                set.remove(&(b, s as u32));
                removed += 1;
                if set.is_empty() {
                    occ.remove(&key);
                }
            }
        }
    }
    telemetry::GREEDY_WINDOW_REMOVES.add(removed);
}
