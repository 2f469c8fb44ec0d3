#![warn(missing_docs)]

//! Instruction-cache simulation: the performance side of code compression.
//!
//! The reproduced paper motivates compression partly through the memory
//! system ("Reducing program size is one way to reduce instruction cache
//! misses and achieve higher performance", §1, citing \[Chen97b\]) and lists
//! performance exploration as future work (§5). This crate provides that
//! substrate: a set-associative I-cache model ([`Cache`]) and a replay of
//! the program-memory references a run makes ([`FetchRef`], [`replay`]),
//! so compressed and uncompressed executions of the same kernel can be
//! compared miss-for-miss. A caller records the trace from the VM's run
//! loop: `codense_vm::run_traced` hands its observer each delivery's PC and
//! the nibbles it read. The same trace also drives the paper's §3.3
//! dictionary-cache model ([`replay_dict_cache`]).
//!
//! A compressed program touches fewer distinct bytes for the same executed
//! instructions, so at equal cache size its miss count can only shrink —
//! measured, not assumed, by `codense-experiments`' `cache` exhibit.
//!
//! # Example
//!
//! ```
//! use codense_cache::{Cache, CacheConfig};
//!
//! let mut cache = Cache::new(CacheConfig { size_bytes: 256, line_bytes: 16, ways: 2 });
//! assert!(!cache.access(0));       // cold miss
//! assert!(cache.access(4));        // same line: hit
//! assert!(!cache.access(1 << 20)); // different line: miss
//! assert_eq!(cache.stats().misses, 2);
//! ```

use codense_core::{telemetry, Atom, CompressedProgram};

/// Cache geometry. All three parameters must be powers of two and
/// `size_bytes >= line_bytes * ways`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (1 = direct-mapped).
    pub ways: usize,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Line-granular accesses.
    pub accesses: u64,
    /// Misses (including cold misses).
    pub misses: u64,
}

/// A set-associative cache with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets[s]` holds up to `ways` tags, most recently used last.
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not power-of-two or the capacity is smaller
    /// than one line per way.
    pub fn new(config: CacheConfig) -> Cache {
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(config.size_bytes.is_power_of_two(), "capacity must be a power of two");
        assert!(config.ways >= 1 && config.ways.is_power_of_two(), "ways must be a power of two");
        assert!(
            config.size_bytes >= config.line_bytes * config.ways,
            "capacity below one line per way"
        );
        Cache { config, sets: vec![Vec::new(); config.sets()], stats: CacheStats::default() }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses the line containing byte `addr`. Returns `true` on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.config.line_bytes as u64;
        let set = (line as usize) % self.config.sets();
        let tags = &mut self.sets[set];
        self.stats.accesses += 1;
        telemetry::CACHE_ACCESSES.inc();
        if let Some(pos) = tags.iter().position(|&t| t == line) {
            let tag = tags.remove(pos);
            tags.push(tag);
            telemetry::CACHE_HITS.inc();
            true
        } else {
            self.stats.misses += 1;
            telemetry::CACHE_MISSES.inc();
            if tags.len() == self.config.ways {
                tags.remove(0);
                telemetry::CACHE_EVICTIONS.inc();
            }
            tags.push(line);
            false
        }
    }

    /// Accesses every line overlapping the byte range `[addr, addr + len)`.
    pub fn access_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let lb = self.config.line_bytes as u64;
        let first = addr / lb;
        let last = (addr + len - 1) / lb;
        for line in first..=last {
            self.access(line * lb);
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.stats = CacheStats::default();
    }
}

/// A program-memory reference: starting *nibble* address and nibble length
/// (the fetch domain's units; divide by two for bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchRef {
    /// Starting nibble address.
    pub nibble_addr: u64,
    /// Nibbles consumed from program memory (0 for instructions delivered
    /// out of the dictionary expansion buffer).
    pub nibbles: u64,
}

/// Replays a reference trace against a cache (nibble addresses halved to
/// bytes, lengths rounded out to whole bytes).
pub fn replay(trace: &[FetchRef], cache: &mut Cache) {
    telemetry::CACHE_REPLAYS.inc();
    for r in trace {
        if r.nibbles == 0 {
            continue;
        }
        let start = r.nibble_addr / 2;
        let end = (r.nibble_addr + r.nibbles).div_ceil(2);
        cache.access_range(start, end - start);
    }
}

/// Counters of a dictionary-cache replay ([`replay_dict_cache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DictCacheStats {
    /// Expansions whose dictionary entry was resident.
    pub hits: u64,
    /// Expansions that loaded their entry from data memory.
    pub misses: u64,
    /// Bytes of dictionary entries loaded on misses (4 per word).
    pub bytes_loaded: u64,
}

/// Replays a compressed run's reference trace against the paper's §3.3
/// dictionary cache: "if the dictionary is larger, it might be kept as a
/// data segment of the compressed program and each dictionary entry could
/// be loaded as needed".
///
/// Every traced fetch that read program memory at a codeword's address is
/// one expansion of that codeword's entry (buffered deliveries read none).
/// The cache holds `entries` dictionary entries (at least one) under LRU;
/// a miss loads the whole entry.
pub fn replay_dict_cache(
    trace: &[FetchRef],
    program: &CompressedProgram,
    entries: usize,
) -> DictCacheStats {
    let capacity = entries.max(1);
    // Resident entries, least recently used first.
    let mut resident: Vec<u32> = Vec::new();
    let mut stats = DictCacheStats::default();
    for r in trace.iter().filter(|r| r.nibbles > 0) {
        let Ok(i) = program.addresses.binary_search(&r.nibble_addr) else { continue };
        let Atom::Codeword { entry, .. } = program.atoms[i] else { continue };
        if let Some(pos) = resident.iter().position(|&e| e == entry) {
            resident.remove(pos);
            stats.hits += 1;
        } else {
            stats.misses += 1;
            stats.bytes_loaded += 4 * program.dictionary.entry(entry).words.len() as u64;
            if resident.len() == capacity {
                resident.remove(0);
            }
        }
        resident.push(entry);
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct(size: usize, line: usize) -> Cache {
        Cache::new(CacheConfig { size_bytes: size, line_bytes: line, ways: 1 })
    }

    #[test]
    fn hits_within_line() {
        let mut c = direct(256, 16);
        assert!(!c.access(32));
        for a in 32..48 {
            assert!(c.access(a), "offset {a}");
        }
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().accesses, 17);
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = direct(64, 16); // 4 sets
        assert!(!c.access(0));
        assert!(!c.access(64)); // same set, different tag -> evicts
        assert!(!c.access(0)); // conflict miss
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn associativity_absorbs_conflicts() {
        let mut c = Cache::new(CacheConfig { size_bytes: 64, line_bytes: 16, ways: 2 });
        assert!(!c.access(0));
        assert!(!c.access(64));
        assert!(c.access(0), "2-way keeps both lines");
        assert!(c.access(64));
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = Cache::new(CacheConfig { size_bytes: 32, line_bytes: 16, ways: 2 });
        c.access(0); // A
        c.access(16); // B
        c.access(0); // touch A -> B is LRU
        c.access(32); // C evicts B
        assert!(c.access(0), "A still resident");
        assert!(!c.access(16), "B evicted");
    }

    #[test]
    fn access_range_touches_all_lines() {
        let mut c = direct(256, 16);
        c.access_range(8, 24); // spans lines 0 and 1
        assert_eq!(c.stats().accesses, 2);
        c.access_range(100, 0);
        assert_eq!(c.stats().accesses, 2, "empty range is free");
    }

    #[test]
    fn replay_skips_buffered_fetches() {
        let trace = vec![
            FetchRef { nibble_addr: 0, nibbles: 4 },
            FetchRef { nibble_addr: 0, nibbles: 0 }, // buffered expansion
            FetchRef { nibble_addr: 4, nibbles: 9 },
        ];
        let mut c = direct(256, 16);
        replay(&trace, &mut c);
        // 0..2 bytes and 2..7 bytes: both in line 0.
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        Cache::new(CacheConfig { size_bytes: 100, line_bytes: 16, ways: 1 });
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = direct(64, 16);
        c.access(0);
        c.reset();
        assert_eq!(c.stats(), CacheStats::default());
        assert!(!c.access(0), "cold again after reset");
    }
}
