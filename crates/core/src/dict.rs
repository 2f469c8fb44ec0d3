//! The instruction dictionary produced by compression.

/// One dictionary entry: the instruction sequence a codeword expands to,
/// plus bookkeeping from the selection pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictEntry {
    /// The instruction words, in program order.
    pub words: Vec<u32>,
    /// How many occurrences were replaced by this entry's codeword.
    pub replaced: usize,
}

impl DictEntry {
    /// Instructions in the entry.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Never true for a well-formed dictionary.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Storage the entry occupies in the dictionary (4 bytes/instruction).
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 4
    }
}

/// The dictionary: entries indexed by the order the greedy pass accepted
/// them, with an encoding-assigned rank permutation (shortest codewords to
/// the most-used entries, §4.1.3).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dictionary {
    entries: Vec<DictEntry>,
    /// `rank_of[e]` = codeword rank assigned to entry `e` (identity until
    /// [`assign_ranks_by_use`](Dictionary::assign_ranks_by_use) runs).
    rank_of: Vec<u32>,
    /// Inverse permutation: `entry_of[r]` = entry holding rank `r`.
    entry_of: Vec<u32>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Appends an entry, returning its index, with an identity rank.
    ///
    /// Accepts anything convertible into the stored `Vec<u32>` — an owned
    /// vector by move, or a borrowed slice (e.g. a window of the
    /// matchfinder's word array), so each accepted entry is materialized
    /// exactly once.
    pub fn push(&mut self, words: impl Into<Vec<u32>>, replaced: usize) -> u32 {
        let words = words.into();
        debug_assert!(!words.is_empty());
        let id = self.entries.len() as u32;
        self.entries.push(DictEntry { words, replaced });
        self.rank_of.push(id);
        self.entry_of.push(id);
        id
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry with the given index.
    pub fn entry(&self, id: u32) -> &DictEntry {
        &self.entries[id as usize]
    }

    /// All entries in acceptance order.
    pub fn entries(&self) -> &[DictEntry] {
        &self.entries
    }

    /// Codeword rank of an entry.
    pub fn rank_of(&self, id: u32) -> u32 {
        self.rank_of[id as usize]
    }

    /// Entry holding a codeword rank.
    pub fn entry_of_rank(&self, rank: u32) -> u32 {
        self.entry_of[rank as usize]
    }

    /// Total dictionary storage in bytes.
    pub fn size_bytes(&self) -> usize {
        self.entries.iter().map(DictEntry::size_bytes).sum()
    }

    /// Re-ranks entries so the most-replaced entries get the lowest ranks —
    /// i.e. the shortest codewords under a variable-length encoding
    /// ("the shortest codewords encode the most frequent dictionary entries
    /// to maximize the savings", §3.1.3). Ties break toward longer entries
    /// (they save more per occurrence), then acceptance order.
    pub fn assign_ranks_by_use(&mut self) {
        let mut order: Vec<u32> = (0..self.entries.len() as u32).collect();
        order.sort_by(|&a, &b| {
            let ea = &self.entries[a as usize];
            let eb = &self.entries[b as usize];
            eb.replaced.cmp(&ea.replaced).then(eb.words.len().cmp(&ea.words.len())).then(a.cmp(&b))
        });
        for (rank, &id) in order.iter().enumerate() {
            self.rank_of[id as usize] = rank as u32;
            self.entry_of[rank] = id;
        }
    }

    /// Distribution of entry lengths: `hist[l]` = number of entries with
    /// exactly `l` instructions (index 0 unused).
    pub fn length_histogram(&self, max_len: usize) -> Vec<usize> {
        let mut hist = vec![0usize; max_len + 1];
        for e in &self.entries {
            hist[e.words.len().min(max_len)] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_lookup() {
        let mut d = Dictionary::new();
        let a = d.push(vec![1, 2], 10);
        let b = d.push(vec![3], 50);
        assert_eq!(d.len(), 2);
        assert_eq!(d.entry(a).words, vec![1, 2]);
        assert_eq!(d.entry(b).replaced, 50);
        assert_eq!(d.size_bytes(), 12);
    }

    #[test]
    fn rank_by_use_puts_hot_entries_first() {
        let mut d = Dictionary::new();
        let cold = d.push(vec![1, 2], 3);
        let hot = d.push(vec![3], 100);
        let warm = d.push(vec![4, 5, 6], 10);
        d.assign_ranks_by_use();
        assert_eq!(d.rank_of(hot), 0);
        assert_eq!(d.rank_of(warm), 1);
        assert_eq!(d.rank_of(cold), 2);
        assert_eq!(d.entry_of_rank(0), hot);
        assert_eq!(d.entry_of_rank(2), cold);
    }

    #[test]
    fn rank_ties_prefer_longer_entries() {
        let mut d = Dictionary::new();
        let short = d.push(vec![1], 5);
        let long = d.push(vec![2, 3, 4], 5);
        d.assign_ranks_by_use();
        assert_eq!(d.rank_of(long), 0);
        assert_eq!(d.rank_of(short), 1);
    }

    #[test]
    fn length_histogram() {
        let mut d = Dictionary::new();
        d.push(vec![1], 1);
        d.push(vec![1, 2], 1);
        d.push(vec![9], 1);
        assert_eq!(d.length_histogram(4), vec![0, 2, 1, 0, 0]);
    }
}
