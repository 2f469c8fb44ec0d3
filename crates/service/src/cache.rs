//! The content-addressed result cache: module bytes + compression
//! parameters → compressed container, bounded by a byte budget with LRU
//! eviction.
//!
//! Repeat-heavy serve traffic (the access-pattern skew the embedded-
//! compression literature leans on) makes the same modules arrive over and
//! over; a hit turns a multi-millisecond compression into a hash lookup.
//! Keys are *content-addressed*: an FNV-1a 64 hash of the raw module bytes
//! plus every parameter that changes the output (encoding and selector
//! tags, entry-length cap, codeword cap) and the module length as a cheap
//! second check. The cached value is the exact `.cdns` container a fresh
//! compression would produce, so a hit is byte-identical to a miss — the
//! cache property suite pins this against in-process compression.
//!
//! All cache operations happen on the reactor thread, which is what makes
//! the `serve.cache.{hits,misses,evictions}` counters deterministic for a
//! sequential client at any worker count: lookup order is arrival order,
//! never worker-scheduling order. The methods therefore take `&mut self`
//! and stay lock-free; they return what happened and the *caller* bumps
//! the global counters.

use std::collections::HashMap;

/// FNV-1a 64-bit over a byte slice — the content half of a [`CacheKey`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// What a compression result is addressed by: the content hash plus every
/// request parameter that changes the output bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// FNV-1a 64 of the serialized module bytes.
    pub content: u64,
    /// Length of the module bytes (cheap collision backstop).
    pub len: u32,
    /// Encoding tag ([`EncodingKind::tag`](codense_core::EncodingKind::tag)).
    pub codec: u8,
    /// Selector tag ([`SelectorKind::tag`](codense_core::SelectorKind::tag))
    /// — the two selectors produce different containers for the same
    /// module, so they must not share an entry.
    pub selector: u8,
    /// Maximum instructions per dictionary entry.
    pub max_entry_len: u16,
    /// Dictionary size cap (0 = the encoding's full space).
    pub max_codewords: u32,
}

impl CacheKey {
    /// Builds the key for one request.
    pub fn new(
        codec: u8,
        selector: u8,
        max_entry_len: u16,
        max_codewords: u32,
        module: &[u8],
    ) -> CacheKey {
        CacheKey {
            content: fnv1a(module),
            len: module.len() as u32,
            codec,
            selector,
            max_entry_len,
            max_codewords,
        }
    }
}

/// What [`ResultCache::insert`] did, for the caller's telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Entries evicted to make room (0 when none).
    pub evicted: usize,
    /// Whether the value was stored (false: larger than the whole budget,
    /// or the budget is 0 — the cache is disabled).
    pub stored: bool,
}

const NONE: usize = usize::MAX;

#[derive(Debug)]
struct Entry {
    key: CacheKey,
    data: Vec<u8>,
    prev: usize,
    next: usize,
}

/// A bounded-byte LRU map from [`CacheKey`] to compressed container bytes.
///
/// Implemented as a slab of entries threaded on an intrusive doubly-linked
/// recency list (head = most recent) plus a `HashMap` index, so lookup,
/// touch, insert, and evict are all O(1). The byte budget counts cached
/// *values* only; an over-budget insert evicts from the tail until it
/// fits, and a value bigger than the entire budget is simply not cached.
#[derive(Debug)]
pub struct ResultCache {
    map: HashMap<CacheKey, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    bytes: usize,
    budget: usize,
}

impl ResultCache {
    /// An empty cache with the given byte budget (0 disables caching).
    pub fn new(budget: usize) -> ResultCache {
        ResultCache {
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            bytes: 0,
            budget,
        }
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Bytes of cached values currently held.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Looks up a key; a hit moves the entry to the front of the recency
    /// list and returns the cached container bytes.
    pub fn get(&mut self, key: &CacheKey) -> Option<&[u8]> {
        let &slot = self.map.get(key)?;
        self.unlink(slot);
        self.push_front(slot);
        Some(&self.slab[slot].data)
    }

    /// Inserts (or refreshes) a key. Evicts least-recently-used entries
    /// until the value fits the budget; a value larger than the whole
    /// budget is not cached at all.
    pub fn insert(&mut self, key: CacheKey, data: Vec<u8>) -> InsertOutcome {
        let mut evicted = 0;
        // Refresh: drop the old value first so its bytes don't count
        // against the budget while making room for the new one.
        if let Some(&slot) = self.map.get(&key) {
            self.remove_slot(slot);
        }
        if self.budget == 0 || data.len() > self.budget {
            return InsertOutcome { evicted, stored: false };
        }
        while self.bytes + data.len() > self.budget {
            let lru = self.tail;
            debug_assert_ne!(lru, NONE, "bytes > 0 implies a tail entry");
            self.remove_slot(lru);
            evicted += 1;
        }
        self.bytes += data.len();
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = Entry { key, data, prev: NONE, next: NONE };
                slot
            }
            None => {
                self.slab.push(Entry { key, data, prev: NONE, next: NONE });
                self.slab.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.push_front(slot);
        InsertOutcome { evicted, stored: true }
    }

    /// Keys from most- to least-recently used (test observability).
    pub fn recency_order(&self) -> Vec<CacheKey> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut at = self.head;
        while at != NONE {
            out.push(self.slab[at].key);
            at = self.slab[at].next;
        }
        out
    }

    fn remove_slot(&mut self, slot: usize) {
        self.unlink(slot);
        let entry = &mut self.slab[slot];
        self.bytes -= entry.data.len();
        entry.data = Vec::new();
        self.map.remove(&entry.key);
        self.free.push(slot);
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        if prev != NONE {
            self.slab[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NONE {
            self.slab[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slab[slot].prev = NONE;
        self.slab[slot].next = NONE;
    }

    fn push_front(&mut self, slot: usize) {
        self.slab[slot].prev = NONE;
        self.slab[slot].next = self.head;
        if self.head != NONE {
            self.slab[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> CacheKey {
        CacheKey::new(0, 0, 4, 0, &[n])
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hit_returns_inserted_bytes() {
        let mut c = ResultCache::new(1024);
        assert!(c.get(&key(1)).is_none());
        assert!(c.insert(key(1), vec![1, 2, 3]).stored);
        assert_eq!(c.get(&key(1)), Some(&[1, 2, 3][..]));
        assert_eq!(c.bytes(), 3);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_oldest_first_and_get_refreshes() {
        let mut c = ResultCache::new(30);
        for n in 0..3 {
            c.insert(key(n), vec![0; 10]);
        }
        // Touch key 0 so key 1 becomes LRU.
        assert!(c.get(&key(0)).is_some());
        let out = c.insert(key(3), vec![0; 10]);
        assert_eq!(out.evicted, 1);
        assert!(c.get(&key(1)).is_none(), "key 1 was LRU and must be gone");
        assert!(c.get(&key(0)).is_some());
        assert!(c.get(&key(2)).is_some());
        assert!(c.get(&key(3)).is_some());
        assert!(c.bytes() <= 30);
    }

    #[test]
    fn oversized_value_is_not_cached() {
        let mut c = ResultCache::new(8);
        let out = c.insert(key(1), vec![0; 9]);
        assert!(!out.stored);
        assert_eq!(out.evicted, 0);
        assert!(c.is_empty());
        // A zero-budget cache stores nothing (cache disabled), even
        // zero-length values.
        let mut off = ResultCache::new(0);
        assert!(!off.insert(key(1), vec![]).stored);
        assert!(off.get(&key(1)).is_none());
    }

    #[test]
    fn refresh_replaces_value_without_double_counting() {
        let mut c = ResultCache::new(100);
        c.insert(key(1), vec![0; 40]);
        c.insert(key(2), vec![0; 40]);
        // Refreshing key 1 with a bigger value must not evict key 2:
        // 60 + 40 = 100 fits once key 1's old 40 bytes are released.
        let out = c.insert(key(1), vec![1; 60]);
        assert_eq!(out.evicted, 0);
        assert_eq!(c.bytes(), 100);
        assert_eq!(c.get(&key(1)), Some(&vec![1; 60][..]));
        assert!(c.get(&key(2)).is_some());
    }

    #[test]
    fn recency_order_is_mru_first() {
        let mut c = ResultCache::new(1024);
        for n in 0..4 {
            c.insert(key(n), vec![n]);
        }
        c.get(&key(1));
        let order = c.recency_order();
        assert_eq!(order[0], key(1));
        assert_eq!(order.last(), Some(&key(0)));
    }
}
