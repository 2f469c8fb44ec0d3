//! The re-parsing compressed fetch engine, kept as the executable
//! specification of [`crate::fetch::PredecodedFetcher`].
//!
//! [`CompressedFetcher`] is the paper's Fig 3 front end taken literally: on
//! every fetch it seeks the packed image to the PC, parses one item nibble
//! by nibble (escape detection, Huffman decode), and expands a codeword
//! through the on-chip dictionary into an expansion buffer that feeds the
//! core one instruction at a time. It is too slow for corpus-scale runs
//! and no production path uses it. It survives because the production
//! engine is checked against it:
//!
//! * `vm/tests/predecode.rs` and `corpus/tests/lockstep.rs` require
//!   identical run results, final machines and [`FetchStats`];
//! * `vm/tests/telemetry_parity.rs` requires identical `vm.fetch.*`
//!   telemetry deltas.
//!
//! It keeps per-fetch telemetry, because it is the reference the engines'
//! batched [`Fetch::publish`] is checked against.
//!
//! It is test-only: not re-exported at the crate root, and not used by any
//! library, binary or example.

use codense_core::container::ProgramImage;
use codense_core::encoding::{read_item_coded, Item};
use codense_core::nibbles::NibbleReader;
use codense_core::{telemetry, CompressedProgram, EncodingKind, HuffCode};
use codense_isa::IsaRef;

use crate::fetch::{Fetch, FetchStats, Fetched};
use crate::machine::MachineError;

/// The compressed-program fetch path: escape detection, dictionary
/// expansion buffer, nibble-granular PC.
///
/// Sequential flow inside an expanded codeword keeps the PC at the
/// codeword's address while the buffer drains; branches always target
/// codeword boundaries (guaranteed by the compressor), which flush the
/// buffer.
#[derive(Debug, Clone)]
pub struct CompressedFetcher {
    image: Vec<u8>,
    encoding: EncodingKind,
    /// The ISA whose escape bytes introduce stream items.
    isa: IsaRef,
    /// Dictionary entries by codeword rank.
    by_rank: Vec<Vec<u32>>,
    /// Canonical Huffman decode table, rebuilt from codeword lengths
    /// ([`EncodingKind::Huffman`] programs only). `None` for other
    /// encodings — or when a container carried unusable lengths, in which
    /// case every fetch faults instead of panicking.
    huffman: Option<HuffCode>,
    /// Every delivered word, each in a fresh slot: an escaped word as it is
    /// delivered, a codeword's expansion whole as it is parsed. The
    /// expansion buffer is the pool from `buffer_pos` on.
    pool: Vec<u32>,
    /// Pool index of the draining codeword's next word.
    buffer_pos: usize,
    /// PC the buffer belongs to.
    buffer_pc: u64,
    /// Address of the atom following the buffered codeword.
    after_buffer: u64,
    /// `next_pc` of the previous delivery, for realignment detection:
    /// a fetch anywhere else is a control transfer. `u64::MAX` before the
    /// first fetch (entry is conventionally aligned at 0).
    expect_pc: u64,
    stats: FetchStats,
}

impl CompressedFetcher {
    /// Builds the fetch engine from a compressed program (the image and the
    /// dictionary; atoms/addresses are not consulted — the engine parses
    /// the byte image exactly as hardware would). The program's ISA is used
    /// for escape detection.
    pub fn new(program: &CompressedProgram) -> CompressedFetcher {
        CompressedFetcher::from_image_with(&program.to_image(), program.isa)
    }

    /// Builds the fetch engine from a deserialized container image (see
    /// `codense_core::container`) and the backend for the ISA it records.
    pub fn from_image_with(image: &ProgramImage, isa: IsaRef) -> CompressedFetcher {
        debug_assert_eq!(image.isa, isa.id(), "fetch engine built for another ISA");
        CompressedFetcher {
            image: image.image.clone(),
            encoding: image.encoding,
            isa,
            by_rank: image.dictionary_by_rank.clone(),
            // Hostile or absent lengths yield `None`; Huffman fetches then
            // fault rather than panic.
            huffman: HuffCode::from_nibble_lengths(image.huffman_lengths.clone()),
            pool: Vec::new(),
            buffer_pos: 0,
            buffer_pc: u64::MAX,
            after_buffer: 0,
            expect_pc: u64::MAX,
            stats: FetchStats::default(),
        }
    }

    fn deliver_buffered(&mut self, nibbles: u64) -> Fetched {
        let slot = self.buffer_pos;
        self.buffer_pos += 1;
        self.stats.insns += 1;
        self.stats.expanded_insns += 1;
        telemetry::VM_FETCH_BUFFERED_INSNS.inc();
        let next_pc =
            if self.buffer_pos < self.pool.len() { self.buffer_pc } else { self.after_buffer };
        self.expect_pc = next_pc;
        Fetched { word: self.pool[slot], next_pc, slot, nibbles }
    }
}

impl Fetch for CompressedFetcher {
    fn fetch(&mut self, pc: u64) -> Result<Fetched, MachineError> {
        // A fetch anywhere but the previous delivery's `next_pc` is a
        // control transfer; when it lands mid-word the fetch unit must
        // realign its nibble pointer (the cost model charges this).
        if pc != self.expect_pc && !pc.is_multiple_of(8) {
            self.stats.realigns += 1;
            telemetry::VM_FETCH_REALIGNS.inc();
        }
        // Drain the expansion buffer while sequential flow stays on it.
        if pc == self.buffer_pc && self.buffer_pos < self.pool.len() {
            return Ok(self.deliver_buffered(0));
        }
        let mut r = NibbleReader::new(&self.image);
        r.seek(pc);
        let before = r.pos();
        match read_item_coded(self.encoding, self.isa, self.huffman.as_ref(), &mut r) {
            Some(Item::Insn(word)) => {
                let nibbles = r.pos() - before;
                self.stats.insns += 1;
                self.stats.nibbles_fetched += nibbles;
                // Under every encoding an uncompressed instruction in the
                // stream is introduced by an escape prefix.
                telemetry::VM_FETCH_ESCAPES.inc();
                telemetry::VM_FETCH_NIBBLES.add(nibbles);
                // Leaving any previous codeword behind.
                self.buffer_pc = u64::MAX;
                self.expect_pc = r.pos();
                self.pool.push(word);
                Ok(Fetched { word, next_pc: r.pos(), slot: self.pool.len() - 1, nibbles })
            }
            Some(Item::Codeword(rank)) => {
                let seq = self.by_rank.get(rank as usize).filter(|s| !s.is_empty());
                let seq = seq.ok_or(MachineError::FetchFault { pc })?;
                let nibbles = r.pos() - before;
                self.stats.codewords += 1;
                self.stats.nibbles_fetched += nibbles;
                telemetry::VM_FETCH_CODEWORDS.inc();
                telemetry::VM_FETCH_NIBBLES.add(nibbles);
                self.buffer_pos = self.pool.len();
                self.pool.extend_from_slice(seq);
                self.buffer_pc = pc;
                self.after_buffer = r.pos();
                Ok(self.deliver_buffered(nibbles))
            }
            None => Err(MachineError::FetchFault { pc }),
        }
    }

    fn granule(&self) -> u32 {
        self.encoding.granule_nibbles()
    }

    fn stats(&self) -> FetchStats {
        self.stats
    }

    fn pool(&self) -> &[u32] {
        &self.pool
    }

    /// Nothing to add: every fetch already updated telemetry.
    fn publish(&mut self) {}

    fn restart(&mut self) {
        self.expect_pc = u64::MAX;
        self.buffer_pc = u64::MAX;
    }
}
