//! The original `Box<[u32]>`-keyed occurrence index, kept verbatim as an
//! executable specification of the greedy selector.
//!
//! This is the matchfinder the interned index (the parent module) replaced:
//! it allocates a fresh boxed-slice HashMap key for every window on build,
//! replacement, *and removal lookups*, and pays a `BTreeSet` node per
//! occurrence. It survives for two reasons:
//!
//! * the `matchfinder_equivalence` property suite asserts the interned
//!   matchfinder produces a byte-identical pick log, dictionary, and
//!   compressed image against it, across all encodings and hotness masks;
//! * the `interner_telemetry` test runs it to show that
//!   [`telemetry::GREEDY_REMOVAL_ALLOCS`] is live, so the interned index's
//!   zero on that counter means something.
//!
//! Its removal path increments [`telemetry::GREEDY_REMOVAL_ALLOCS`] once
//! per boxed lookup key — the counter the interned index proves it never
//! touches.

use std::collections::{BTreeSet, BinaryHeap, HashMap};

use super::{effective_count_sorted, select_positions_sorted, GreedyParams, PickRecord};
use crate::dict::Dictionary;
use crate::model::{Cell, ProgramModel};
use crate::telemetry;

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
/// observable output (pick log, dictionary, model rewrite) is identical to
/// [`super::run_greedy`]; only the cost differs.
pub fn run_greedy(
    model: &mut ProgramModel,
    dict: &mut Dictionary,
    params: GreedyParams,
) -> Vec<PickRecord> {
    let mut index = Index::build(model, params.max_entry_len);
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
            index.replace(model, b as usize, p as usize, entry, len, params.max_entry_len);
        }
        telemetry::GREEDY_PICKS_ACCEPTED.inc();
        telemetry::GREEDY_REPLACEMENTS.add(n as u64);
        picks.push(PickRecord { entry, len, replaced: n, savings_bits: savings });
    }
    picks
}

/// Greedy left-to-right non-overlapping occurrence count.
fn effective_count(set: &BTreeSet<Pos>, len: usize) -> usize {
    let positions: Vec<Pos> = set.iter().copied().collect();
    effective_count_sorted(&positions, len)
}

/// The positions [`effective_count`] counted.
fn select_positions(set: &BTreeSet<Pos>, len: usize) -> Vec<Pos> {
    let positions: Vec<Pos> = set.iter().copied().collect();
    select_positions_sorted(&positions, len)
}

struct Index {
    occ: HashMap<Seq, BTreeSet<Pos>>,
    heap: BinaryHeap<HeapItem>,
}

impl Index {
    fn build(model: &ProgramModel, max_len: usize) -> Index {
        // Window mining is embarrassingly parallel over disjoint block
        // ranges; merging unions per-chunk maps. Positions from different
        // chunks never collide (they carry the block index), so the merged
        // map — and everything downstream — is bit-identical to a
        // sequential scan regardless of the worker count.
        let ranges = crate::parallel::chunk_ranges(
            model.blocks.len(),
            crate::parallel::jobs().saturating_mul(4),
        );
        let chunks =
            crate::parallel::par_map(ranges, |_, (b0, b1)| build_occ_range(model, b0, b1, max_len));
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
        model: &mut ProgramModel,
        b: usize,
        p: usize,
        entry: u32,
        len: usize,
        max_len: usize,
    ) {
        let block = &mut model.blocks[b];
        // The run containing p.
        let (rs, re) = run_around(&block.cells, p);
        debug_assert!(p + len <= re);
        remove_windows(&mut self.occ, &block.cells, b as u32, rs, re, max_len);
        let orig = match block.cells[p] {
            Cell::Insn { orig, .. } => orig,
            _ => unreachable!("replacement target must be an instruction"),
        };
        block.cells[p] = Cell::Code { entry, orig, len };
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
    model: &ProgramModel,
    b0: usize,
    b1: usize,
    max_len: usize,
) -> HashMap<Seq, BTreeSet<Pos>> {
    let mut occ: HashMap<Seq, BTreeSet<Pos>> = HashMap::new();
    for (b, block) in model.blocks[b0..b1].iter().enumerate() {
        for (start, end) in super::runs(&block.cells) {
            add_windows(&mut occ, &block.cells, (b0 + b) as u32, start, end, max_len);
        }
    }
    occ
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
            // The removal-path allocation the interned index eliminates: a
            // boxed key built just to *look up* an entry.
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
