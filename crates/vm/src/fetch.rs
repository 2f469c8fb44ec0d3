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
//! Engines deliver raw instruction *words*, which keeps the fetch path
//! ISA-independent, and name each word's index in their pool
//! ([`Fetched::slot`]), so the run loop ([`crate::run::run_traced`])
//! decodes each pooled word once.
//!
//! All engines count [`FetchStats`], making the fetch-bandwidth effect of
//! compression measurable (the I-cache angle of \[Chen97\]), and add them
//! to the `vm.fetch.*` telemetry counters in bulk ([`Fetch::publish`]): the
//! run loop publishes when it exits, and an engine publishes what is left
//! when it is dropped. The compressed engine is byte-exact with the
//! re-parsing specification in [`crate::fetch_reference`]: same delivered
//! stream, same [`FetchStats`], same telemetry, so the cycle model and
//! `BENCH_hybrid.json` read the same numbers.

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
    /// The word's index in the engine's [`Fetch::pool`].
    pub slot: usize,
    /// Program-memory nibbles this delivery read: 8 for a native word, the
    /// item's width for an escaped word or a codeword's first word, and 0
    /// while an expansion drains.
    pub nibbles: u64,
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

    /// Every word delivered so far, at its [`Fetched::slot`]. The pool only
    /// grows, so a slot keeps its word.
    fn pool(&self) -> &[u32];

    /// Adds the `vm.fetch.*` telemetry counts since the last call.
    fn publish(&mut self);

    /// Starts a new instruction stream: the next fetch is a control
    /// transfer, not the successor of the previous delivery, and an
    /// expansion left draining is dropped. The cache, the pool and the
    /// counters stay. The run loop calls this on entry.
    fn restart(&mut self);
}

/// The conventional fetch path over an uncompressed text image.
#[derive(Debug)]
pub struct LinearFetcher {
    code: Vec<u32>,
    stats: FetchStats,
    /// `stats` as of the last [`Fetch::publish`].
    published: FetchStats,
}

impl LinearFetcher {
    /// Creates a fetcher over instruction words (instruction `i` lives at
    /// nibble address `8 * i`).
    pub fn new(code: Vec<u32>) -> LinearFetcher {
        LinearFetcher { code, stats: FetchStats::default(), published: FetchStats::default() }
    }
}

impl Fetch for LinearFetcher {
    #[inline(always)]
    fn fetch(&mut self, pc: u64) -> Result<Fetched, MachineError> {
        if !pc.is_multiple_of(8) {
            return Err(MachineError::FetchFault { pc });
        }
        let slot = (pc / 8) as usize;
        let word = *self.code.get(slot).ok_or(MachineError::FetchFault { pc })?;
        self.stats.insns += 1;
        self.stats.nibbles_fetched += 8;
        Ok(Fetched { word, next_pc: pc + 8, slot, nibbles: 8 })
    }

    fn granule(&self) -> u32 {
        8
    }

    fn stats(&self) -> FetchStats {
        self.stats
    }

    fn pool(&self) -> &[u32] {
        &self.code
    }

    fn publish(&mut self) {
        let (now, then) = (self.stats, std::mem::replace(&mut self.published, self.stats));
        telemetry::VM_FETCH_LINEAR_INSNS.add(now.insns - then.insns);
        telemetry::VM_FETCH_NIBBLES.add(now.nibbles_fetched - then.nibbles_fetched);
    }

    /// Nothing to forget: every fetch stands alone.
    fn restart(&mut self) {}
}

impl Drop for LinearFetcher {
    fn drop(&mut self) {
        self.publish();
    }
}

// ---- compressed fetch engine ----------------------------------------------

/// Cache-entry tag: offset holds an escaped (uncompressed) instruction.
const TAG_INSN: u64 = 1;
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
fn unpack_entry(e: u32, side: &[u64]) -> (u64, u64, usize, usize) {
    let tag = (e >> 30) as u64;
    if tag == TAG_SIDE {
        let w = side[(e & 0x3fff_ffff) as usize];
        (w >> 62, (w >> 48) & 0x3fff, ((w >> 32) & 0xffff) as usize, (w & 0xffff_ffff) as usize)
    } else {
        (tag, ((e >> 26) & 0xf) as u64, ((e >> 22) & 0xf) as usize, (e & 0x3f_ffff) as usize)
    }
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
#[derive(Debug)]
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
    /// Expansion-drain state: the pool index of the next word to deliver,
    /// one past the last, and the address after the codeword.
    drain_pos: usize,
    drain_end: usize,
    after_buffer: u64,
    /// `next_pc` of the previous delivery: sequential flow, which drains
    /// an expansion and never realigns.
    expect_pc: u64,
    /// Every counter but `insns`, which is `escapes` plus the expansion
    /// words.
    stats: FetchStats,
    /// Escaped instructions delivered.
    escapes: u64,
    /// [`Fetch::stats`] as of the last [`Fetch::publish`].
    published: FetchStats,
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
            drain_pos: 0,
            drain_end: 0,
            after_buffer: 0,
            expect_pc: u64::MAX,
            stats: FetchStats::default(),
            escapes: 0,
            published: FetchStats::default(),
        }
    }

    /// Cached items currently resident.
    pub fn cached_items(&self) -> usize {
        self.filled
    }

    /// Parses the item at `pc`, caches it and returns its table entry.
    ///
    /// # Errors
    ///
    /// [`MachineError::FetchFault`] if `pc` does not address a parseable
    /// item; the fault is not cached.
    #[cold]
    fn fill(&mut self, pc: u64) -> Result<u32, MachineError> {
        let fault = MachineError::FetchFault { pc };
        let mut r = NibbleReader::new(&self.image);
        r.seek(pc);
        let before = r.pos();
        let start = self.pool.len();
        let tag = match read_item_coded(self.encoding, self.isa, self.huffman.as_ref(), &mut r) {
            Some(Item::Insn(word)) => {
                self.pool.push(word);
                TAG_INSN
            }
            Some(Item::Codeword(rank)) => {
                let seq = self.by_rank.get(rank as usize).filter(|s| !s.is_empty()).ok_or(fault)?;
                self.pool.extend_from_slice(seq);
                TAG_CODEWORD
            }
            None => return Err(fault),
        };
        let (consumed, len) = (r.pos() - before, self.pool.len() - start);
        let entry = pack_entry(tag, consumed, len, start).unwrap_or_else(|| {
            // Overflows the packed form: park the wide record in the side
            // table and point at it.
            self.side.push(pack_wide(tag, consumed, len, start));
            (TAG_SIDE as u32) << 30 | (self.side.len() - 1) as u32
        });
        self.entries[pc as usize] = entry;
        self.filled += 1;
        Ok(entry)
    }
}

impl Fetch for PredecodedFetcher {
    // Always inlined: the run loop is instantiated in its callers' crates,
    // and a call per step costs it about a fifth of its speed.
    #[inline(always)]
    fn fetch(&mut self, pc: u64) -> Result<Fetched, MachineError> {
        let sequential = pc == self.expect_pc;
        if !sequential && !pc.is_multiple_of(8) {
            self.stats.realigns += 1;
        }
        let mut nibbles = 0;
        // Sequential flow inside an expansion stays on the codeword's PC,
        // where the previous delivery pointed.
        if !sequential || self.drain_pos == self.drain_end {
            let e = match self.entries.get(pc as usize) {
                Some(0) => self.fill(pc)?,
                Some(&e) => e,
                None => return Err(MachineError::FetchFault { pc }),
            };
            let (tag, consumed, len, start) = unpack_entry(e, &self.side);
            self.stats.nibbles_fetched += consumed;
            nibbles = consumed;
            if tag == TAG_INSN {
                self.escapes += 1;
                if !sequential {
                    // A branch leaves any expansion behind (a sequential
                    // lookup means it had drained).
                    self.drain_end = self.drain_pos;
                }
                self.expect_pc = pc + consumed;
                // A fill has pooled the slot. `get` cannot panic, so a run
                // loop that reads only the slot drops the read.
                let word = self.pool.get(start).copied().unwrap_or(0);
                return Ok(Fetched { word, next_pc: pc + consumed, slot: start, nibbles });
            }
            self.stats.codewords += 1;
            (self.drain_pos, self.drain_end) = (start, start + len);
            self.after_buffer = pc + consumed;
        }
        // Deliver the expansion's next word.
        let slot = self.drain_pos;
        self.drain_pos += 1;
        self.stats.expanded_insns += 1;
        let next_pc = if self.drain_pos < self.drain_end { pc } else { self.after_buffer };
        self.expect_pc = next_pc;
        let word = self.pool.get(slot).copied().unwrap_or(0);
        Ok(Fetched { word, next_pc, slot, nibbles })
    }

    fn granule(&self) -> u32 {
        self.encoding.granule_nibbles()
    }

    fn stats(&self) -> FetchStats {
        FetchStats { insns: self.escapes + self.stats.expanded_insns, ..self.stats }
    }

    fn pool(&self) -> &[u32] {
        &self.pool
    }

    fn publish(&mut self) {
        let now = self.stats();
        let then = std::mem::replace(&mut self.published, now);
        let escapes = |s: FetchStats| s.insns - s.expanded_insns;
        telemetry::VM_FETCH_ESCAPES.add(escapes(now) - escapes(then));
        telemetry::VM_FETCH_CODEWORDS.add(now.codewords - then.codewords);
        telemetry::VM_FETCH_BUFFERED_INSNS.add(now.expanded_insns - then.expanded_insns);
        telemetry::VM_FETCH_NIBBLES.add(now.nibbles_fetched - then.nibbles_fetched);
        telemetry::VM_FETCH_REALIGNS.add(now.realigns - then.realigns);
    }

    fn restart(&mut self) {
        self.expect_pc = u64::MAX;
        self.drain_end = self.drain_pos;
    }
}

impl Drop for PredecodedFetcher {
    fn drop(&mut self) {
        self.publish();
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
