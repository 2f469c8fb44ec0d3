//! Instruction fetch engines: the two paths of the paper's Fig 3.
//!
//! [`LinearFetcher`] is the ordinary processor front end: the PC advances 8
//! nibbles (one word) per instruction. [`PredecodedFetcher`] is the
//! modified front end: escape detection plus a dictionary expansion buffer
//! that feeds the core one instruction at a time, behind a decoded-item
//! cache keyed by compressed-stream (nibble) offset. The first fetch of an
//! item parses it from the packed image and caches the outcome — the
//! delivered words, the item kind, and the nibbles it consumes; every later
//! fetch of that offset replays the cache with no parsing, no dictionary
//! copy, and no allocation. Faults are never cached.
//!
//! The engine is byte-exact with the re-parsing specification in
//! [`crate::fetch_reference`], which parses the stream on every fetch: same
//! delivered stream, same [`FetchStats`], same telemetry counters
//! (`vm.fetch.*`), so the cycle model and `BENCH_hybrid.json` read the same
//! numbers. Its [`Fetch`] impl serves the generic loop
//! ([`crate::run::run`]); [`crate::run::run_predecoded`] drives the same
//! cache with a threaded dispatch loop that also hoists instruction
//! *decode* out of the step cycle (see [`codense_isa::PredecodeCore`]).
//!
//! Fetch engines deliver raw instruction *words* — decode belongs to the
//! target core ([`codense_isa::Core::step_word`]), which keeps the fetch
//! path ISA-independent.
//!
//! All engines report [`FetchStats`], making the fetch-bandwidth effect of
//! compression measurable (the I-cache angle of \[Chen97\]).

use codense_core::container::ProgramImage;
use codense_core::encoding::{read_item_coded, Item};
use codense_core::nibbles::NibbleReader;
use codense_core::{telemetry, CompressedProgram, HuffCode};
use codense_isa::IsaRef;

use crate::machine::MachineError;

/// Counters maintained by a fetch engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Instructions delivered to the core.
    pub insns: u64,
    /// Nibbles consumed from program memory.
    pub nibbles_fetched: u64,
    /// Codewords expanded.
    pub codewords: u64,
    /// Instructions delivered out of dictionary expansions.
    pub expanded_insns: u64,
    /// Nibble-PC realignments: control transfers into the packed stream at
    /// an address that is not word-aligned, forcing the fetch unit to
    /// realign mid-word (sequential flow streams and never realigns).
    pub realigns: u64,
}

impl FetchStats {
    /// Mean program-memory bits fetched per delivered instruction (32 for
    /// an uncompressed program; lower when codewords do their job).
    pub fn bits_per_insn(&self) -> f64 {
        if self.insns == 0 {
            return 0.0;
        }
        4.0 * self.nibbles_fetched as f64 / self.insns as f64
    }
}

/// One fetched instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fetched {
    /// The raw instruction word (the core decodes it).
    pub word: u32,
    /// Fetch-domain address of the following instruction (what sequential
    /// flow and `lk` should use).
    pub next_pc: u64,
}

/// An instruction-fetch engine with a nibble-granular PC.
pub trait Fetch {
    /// Fetches the instruction at `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::FetchFault`] if `pc` does not address an
    /// instruction boundary in this engine's program.
    fn fetch(&mut self, pc: u64) -> Result<Fetched, MachineError>;

    /// Branch-offset unit in nibbles (8 uncompressed; the smallest-codeword
    /// size for compressed programs).
    fn granule(&self) -> u32;

    /// Fetch counters so far.
    fn stats(&self) -> FetchStats;
}

/// The conventional fetch path over an uncompressed text image.
#[derive(Debug, Clone)]
pub struct LinearFetcher {
    code: Vec<u32>,
    stats: FetchStats,
}

impl LinearFetcher {
    /// Creates a fetcher over instruction words (instruction `i` lives at
    /// nibble address `8 * i`).
    pub fn new(code: Vec<u32>) -> LinearFetcher {
        LinearFetcher { code, stats: FetchStats::default() }
    }
}

impl Fetch for LinearFetcher {
    fn fetch(&mut self, pc: u64) -> Result<Fetched, MachineError> {
        if !pc.is_multiple_of(8) {
            return Err(MachineError::FetchFault { pc });
        }
        let idx = (pc / 8) as usize;
        let word = *self.code.get(idx).ok_or(MachineError::FetchFault { pc })?;
        self.stats.insns += 1;
        self.stats.nibbles_fetched += 8;
        telemetry::VM_FETCH_LINEAR_INSNS.inc();
        telemetry::VM_FETCH_NIBBLES.add(8);
        Ok(Fetched { word, next_pc: pc + 8 })
    }

    fn granule(&self) -> u32 {
        8
    }

    fn stats(&self) -> FetchStats {
        self.stats
    }
}

// ---- compressed fetch engine ----------------------------------------------

/// Cache-entry tag: offset holds an escaped (uncompressed) instruction.
pub(crate) const TAG_INSN: u64 = 1;
/// Cache-entry tag: offset holds a codeword.
const TAG_CODEWORD: u64 = 2;
/// Cache-entry tag: the entry overflows the packed form; the payload is an
/// index into the side table of wide entries.
const TAG_SIDE: u64 = 3;

/// Packs a decode-cache entry into one table word: tag in bits 30–31,
/// consumed nibbles in bits 26–29, delivered-word count in bits 22–25,
/// pool start index in bits 0–21. The all-zero word means "not cached" (a
/// real entry always has a nonzero tag). The table is deliberately 32-bit:
/// the hot loop streams roughly one entry per executed instruction, so
/// halving the slot halves the table's cache traffic.
///
/// Returns `None` when a field overflows the packed form — a pool past
/// 4Mi words, a dictionary entry longer than 15 instructions, or an item
/// wider than 15 nibbles. Such entries go to the side table under
/// [`TAG_SIDE`].
fn pack_entry(tag: u64, consumed: u64, len: usize, start: usize) -> Option<u32> {
    if consumed < 1 << 4 && len < 1 << 4 && start < 1 << 22 {
        Some((tag as u32) << 30 | (consumed as u32) << 26 | (len as u32) << 22 | start as u32)
    } else {
        None
    }
}

/// Packs a wide (side-table) entry: tag in bits 62–63, consumed nibbles in
/// bits 48–61, delivered-word count in bits 32–47, pool start index in bits
/// 0–31.
fn pack_wide(tag: u64, consumed: u64, len: usize, start: usize) -> u64 {
    debug_assert!(consumed < 1 << 14 && len < 1 << 16 && start < 1 << 32);
    (tag << 62) | (consumed << 48) | ((len as u64) << 32) | start as u64
}

/// The `(tag, consumed_nibbles, delivered_len, pool_start)` of a table
/// entry, chasing [`TAG_SIDE`] indirections through `side`.
#[inline(always)]
pub(crate) fn unpack_entry(e: u32, side: &[u64]) -> (u64, u64, usize, usize) {
    let tag = (e >> 30) as u64;
    if tag == TAG_SIDE {
        let w = side[(e & 0x3fff_ffff) as usize];
        (w >> 62, (w >> 48) & 0x3fff, ((w >> 32) & 0xffff) as usize, (w & 0xffff_ffff) as usize)
    } else {
        (tag, ((e >> 26) & 0xf) as u64, ((e >> 22) & 0xf) as usize, (e & 0x3f_ffff) as usize)
    }
}

/// Counters a predecoded run loop accumulates locally and flushes in bulk —
/// the batched form of the per-fetch bookkeeping. Final [`FetchStats`] and
/// telemetry values are identical to per-fetch updates (the counters are
/// plain sums), only the update granularity differs.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct RunCounters {
    pub insns: u64,
    pub nibbles: u64,
    pub codewords: u64,
    pub expanded: u64,
    pub realigns: u64,
}

/// The compressed-program fetch engine: escape detection and dictionary
/// expansion behind a decoded-item cache keyed by compressed-stream offset.
///
/// Every nibble offset of the image has a cache slot. A miss parses the
/// item at that offset (escape detection, dictionary expansion, Huffman
/// decode) and caches the delivered words in a shared pool; a hit replays
/// the pool with no parsing and no allocation. Offsets that do not parse
/// (mid-item PCs, truncated streams) fault without being cached, so a bad
/// branch target faults on every attempt. The cache is never evicted: it
/// grows to the program's executed working set.
///
/// Sequential flow inside an expanded codeword keeps the PC at the
/// codeword's address while the expansion drains; branches always target
/// codeword boundaries (guaranteed by the compressor).
///
/// Delivered words, [`FetchStats`] and telemetry are byte-exact with the
/// re-parsing specification in [`crate::fetch_reference`].
#[derive(Debug, Clone)]
pub struct PredecodedFetcher {
    image: Vec<u8>,
    encoding: codense_core::EncodingKind,
    isa: IsaRef,
    /// Canonical Huffman decode table; `None` for other encodings, or when
    /// a container carried unusable lengths (every Huffman fetch then
    /// faults instead of panicking).
    huffman: Option<HuffCode>,
    /// Dictionary entries by codeword rank.
    by_rank: Vec<Vec<u32>>,
    /// One slot per nibble offset of the image; packed with [`pack_entry`],
    /// zero = empty.
    entries: Vec<u32>,
    /// Wide entries that overflow the packed table form ([`TAG_SIDE`]).
    side: Vec<u64>,
    /// Delivered instruction words of every cached item, contiguous per
    /// item.
    pool: Vec<u32>,
    /// Cached items (not pool words).
    filled: usize,
    // Expansion-drain state for the `Fetch` impl (start/len/pos index into
    // `pool`), the codeword's PC, and the address after it.
    drain_start: usize,
    drain_len: usize,
    drain_pos: usize,
    buffer_pc: u64,
    after_buffer: u64,
    /// `next_pc` of the previous delivery, for realignment detection.
    expect_pc: u64,
    stats: FetchStats,
}

impl PredecodedFetcher {
    /// Builds the engine from a compressed program, through its container
    /// image ([`CompressedProgram::to_image`]) and its ISA.
    pub fn new(program: &CompressedProgram) -> PredecodedFetcher {
        PredecodedFetcher::from_image_with(&program.to_image(), program.isa)
    }

    /// Builds the engine from a deserialized container image (see
    /// `codense_core::container`) and the backend for the ISA it records
    /// (`image.isa`; resolving a tag needs a crate that links every
    /// backend). The cache starts empty.
    pub fn from_image_with(image: &ProgramImage, isa: IsaRef) -> PredecodedFetcher {
        debug_assert_eq!(image.isa, isa.id(), "fetch engine built for another ISA");
        PredecodedFetcher {
            image: image.image.clone(),
            encoding: image.encoding,
            isa,
            huffman: HuffCode::from_nibble_lengths(image.huffman_lengths.clone()),
            by_rank: image.dictionary_by_rank.clone(),
            entries: vec![0; image.image.len() * 2],
            side: Vec::new(),
            pool: Vec::new(),
            filled: 0,
            drain_start: 0,
            drain_len: 0,
            drain_pos: 0,
            buffer_pc: u64::MAX,
            after_buffer: 0,
            expect_pc: u64::MAX,
            stats: FetchStats::default(),
        }
    }

    /// Cached items currently resident.
    pub fn cached_items(&self) -> usize {
        self.filled
    }

    /// The cache entry for `pc`, parsing and filling on a miss.
    ///
    /// # Errors
    ///
    /// [`MachineError::FetchFault`] if `pc` does not address a parseable
    /// item; the fault is not cached.
    fn lookup_or_fill(&mut self, pc: u64) -> Result<u32, MachineError> {
        match self.entries.get(pc as usize) {
            Some(0) => self.fill(pc),
            Some(&e) => Ok(e),
            None => Err(MachineError::FetchFault { pc }),
        }
    }

    /// The `(tag, consumed, len, start)` of a table entry, chasing side
    /// indirections.
    #[inline(always)]
    fn resolve(&self, e: u32) -> (u64, u64, usize, usize) {
        unpack_entry(e, &self.side)
    }

    #[cold]
    fn fill(&mut self, pc: u64) -> Result<u32, MachineError> {
        let (mut entries, mut side, mut pool) = self.take_storage();
        let r = self.fill_detached(pc, &mut entries, &mut side, &mut pool);
        self.restore_storage(entries, side, pool);
        r
    }

    /// Detaches the entry table and word pool for a run loop's exclusive
    /// use. [`crate::run::run_predecoded`] keeps them in locals so the hot
    /// path reads them through loop-invariant pointers instead of reloading
    /// `self`'s fields every iteration; [`Self::restore_storage`] puts them
    /// back before the loop's counters are absorbed. While detached, the
    /// fetcher's own storage is empty (every lookup misses), so the two
    /// calls must bracket the loop tightly.
    pub(crate) fn take_storage(&mut self) -> (Vec<u32>, Vec<u64>, Vec<u32>) {
        (
            std::mem::take(&mut self.entries),
            std::mem::take(&mut self.side),
            std::mem::take(&mut self.pool),
        )
    }

    /// Reattaches storage detached by [`Self::take_storage`].
    pub(crate) fn restore_storage(&mut self, entries: Vec<u32>, side: Vec<u64>, pool: Vec<u32>) {
        self.entries = entries;
        self.side = side;
        self.pool = pool;
    }

    /// [`Self::fill`] against detached storage.
    ///
    /// # Errors
    ///
    /// [`MachineError::FetchFault`] if `pc` does not address a parseable
    /// item; the fault is not cached.
    #[cold]
    pub(crate) fn fill_detached(
        &mut self,
        pc: u64,
        entries: &mut [u32],
        side: &mut Vec<u64>,
        pool: &mut Vec<u32>,
    ) -> Result<u32, MachineError> {
        let mut r = NibbleReader::new(&self.image);
        r.seek(pc);
        let before = r.pos();
        let (tag, words) =
            match read_item_coded(self.encoding, self.isa, self.huffman.as_ref(), &mut r) {
                Some(Item::Insn(word)) => (TAG_INSN, vec![word]),
                Some(Item::Codeword(rank)) => {
                    let seq = self
                        .by_rank
                        .get(rank as usize)
                        .ok_or(MachineError::FetchFault { pc })?
                        .clone();
                    if seq.is_empty() {
                        return Err(MachineError::FetchFault { pc });
                    }
                    (TAG_CODEWORD, seq)
                }
                None => return Err(MachineError::FetchFault { pc }),
            };
        let consumed = r.pos() - before;
        let start = pool.len();
        let entry = match pack_entry(tag, consumed, words.len(), start) {
            Some(e) => e,
            None => {
                // Overflows the packed form: park the wide record in the
                // side table and point at it.
                side.push(pack_wide(tag, consumed, words.len(), start));
                (TAG_SIDE as u32) << 30 | (side.len() - 1) as u32
            }
        };
        pool.extend_from_slice(&words);
        entries[pc as usize] = entry;
        self.filled += 1;
        Ok(entry)
    }

    /// Folds a run loop's batched counters into stats and telemetry, and
    /// adopts its final drain state so interleaved [`Fetch`] use stays
    /// coherent.
    pub(crate) fn absorb(
        &mut self,
        c: &RunCounters,
        expect_pc: u64,
        drain: (usize, usize, usize, u64, u64),
    ) {
        self.stats.insns += c.insns;
        self.stats.nibbles_fetched += c.nibbles;
        self.stats.codewords += c.codewords;
        self.stats.expanded_insns += c.expanded;
        self.stats.realigns += c.realigns;
        // Every delivered instruction is either an escaped one or an
        // expansion word, so the escape count needs no counter of its own.
        telemetry::VM_FETCH_ESCAPES.add(c.insns - c.expanded);
        telemetry::VM_FETCH_CODEWORDS.add(c.codewords);
        telemetry::VM_FETCH_BUFFERED_INSNS.add(c.expanded);
        telemetry::VM_FETCH_NIBBLES.add(c.nibbles);
        telemetry::VM_FETCH_REALIGNS.add(c.realigns);
        self.expect_pc = expect_pc;
        (self.drain_start, self.drain_len, self.drain_pos, self.buffer_pc, self.after_buffer) =
            drain;
    }

    fn deliver_pooled(&mut self) -> Fetched {
        let word = self.pool[self.drain_start + self.drain_pos];
        self.drain_pos += 1;
        self.stats.insns += 1;
        self.stats.expanded_insns += 1;
        telemetry::VM_FETCH_BUFFERED_INSNS.inc();
        let next_pc =
            if self.drain_pos < self.drain_len { self.buffer_pc } else { self.after_buffer };
        self.expect_pc = next_pc;
        Fetched { word, next_pc }
    }
}

impl Fetch for PredecodedFetcher {
    fn fetch(&mut self, pc: u64) -> Result<Fetched, MachineError> {
        if pc != self.expect_pc && !pc.is_multiple_of(8) {
            self.stats.realigns += 1;
            telemetry::VM_FETCH_REALIGNS.inc();
        }
        if pc == self.buffer_pc && self.drain_pos < self.drain_len {
            return Ok(self.deliver_pooled());
        }
        let e = self.lookup_or_fill(pc)?;
        let (tag, consumed, len, start) = self.resolve(e);
        self.stats.nibbles_fetched += consumed;
        telemetry::VM_FETCH_NIBBLES.add(consumed);
        if tag == TAG_INSN {
            self.stats.insns += 1;
            telemetry::VM_FETCH_ESCAPES.inc();
            self.buffer_pc = u64::MAX;
            self.expect_pc = pc + consumed;
            Ok(Fetched { word: self.pool[start], next_pc: pc + consumed })
        } else {
            self.stats.codewords += 1;
            telemetry::VM_FETCH_CODEWORDS.inc();
            self.drain_start = start;
            self.drain_len = len;
            self.drain_pos = 0;
            self.buffer_pc = pc;
            self.after_buffer = pc + consumed;
            Ok(self.deliver_pooled())
        }
    }

    fn granule(&self) -> u32 {
        self.encoding.granule_nibbles()
    }

    fn stats(&self) -> FetchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_core::{CompressionConfig, Compressor};
    use codense_obj::ObjectModule;
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    fn module() -> ObjectModule {
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        for _ in 0..10 {
            m.code.push(encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }));
            m.code.push(encode(&Insn::Addi { rt: R4, ra: R4, si: 2 }));
        }
        m.code.push(encode(&Insn::Sc));
        m
    }

    #[test]
    fn linear_fetch_walks_words() {
        let m = module();
        let mut f = LinearFetcher::new(m.code.clone());
        let f0 = f.fetch(0).unwrap();
        assert_eq!(f0.next_pc, 8);
        assert_eq!(f0.word, encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }));
        assert!(f.fetch(4).is_err(), "misaligned fetch must fault");
        assert!(f.fetch(8 * 100).is_err());
        assert_eq!(f.stats().insns, 1);
    }

    /// Every encoding, booted from the program and from its serialized
    /// container, delivers the original instruction stream.
    #[test]
    fn compressed_fetch_delivers_same_stream() {
        use codense_core::container::{deserialize, serialize};
        let m = module();
        for config in [
            CompressionConfig::baseline(),
            CompressionConfig::small_dictionary(16),
            CompressionConfig::nibble_aligned(),
            CompressionConfig::huffman(),
        ] {
            let c = Compressor::new(config).compress(&m).unwrap();
            let image = deserialize(&serialize(&c)).unwrap();
            for mut f in
                [PredecodedFetcher::new(&c), PredecodedFetcher::from_image_with(&image, c.isa)]
            {
                let mut pc = 0;
                let mut got = Vec::new();
                for _ in 0..m.len() {
                    let fetched = f.fetch(pc).unwrap();
                    got.push(fetched.word);
                    pc = fetched.next_pc;
                }
                assert_eq!(got, m.code);
            }
        }
    }

    #[test]
    fn huffman_fetch_with_hostile_lengths_faults_instead_of_panicking() {
        let m = module();
        let c = Compressor::new(CompressionConfig::huffman()).compress(&m).unwrap();
        let mut image =
            codense_core::container::deserialize(&codense_core::container::serialize(&c)).unwrap();
        // Kraft-violating table: more length-1 codes than nibble values.
        image.huffman_lengths = vec![1; 17];
        let mut f = PredecodedFetcher::from_image_with(&image, c.isa);
        assert!(f.fetch(0).is_err());
    }

    #[test]
    fn compressed_fetch_uses_less_bandwidth() {
        let m = module();
        let c = Compressor::new(CompressionConfig::baseline()).compress(&m).unwrap();
        let mut lf = LinearFetcher::new(m.code.clone());
        let mut cf = PredecodedFetcher::new(&c);
        let (mut lp, mut cp) = (0u64, 0u64);
        for _ in 0..m.len() {
            lp = lf.fetch(lp).unwrap().next_pc;
            cp = cf.fetch(cp).unwrap().next_pc;
        }
        assert!(cf.stats().nibbles_fetched < lf.stats().nibbles_fetched);
        assert_eq!(cf.stats().insns, lf.stats().insns);
        assert!(cf.stats().codewords > 0);
    }

    #[test]
    fn fetch_fault_on_garbage_pc() {
        let m = module();
        let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&m).unwrap();
        let mut f = PredecodedFetcher::new(&c);
        assert!(f.fetch(c.total_nibbles + 10).is_err());
    }
}
