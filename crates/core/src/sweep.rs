//! Parameter sweeps for the paper's Figures 4–8.
//!
//! The greedy pick order does not depend on the dictionary-size cap (the
//! choice at step *k* is made from the program state after *k−1* picks), so
//! sweeps over *dictionary size* are read off one full run's pick log
//! instead of recompressing per point. Sweeps over *entry length* change the
//! candidate set and therefore recompress.
//!
//! Sweeps whose points need independent full compression runs
//! ([`entry_len_sweep_with_isa`], [`small_dictionary_sweep_with_isa`]) evaluate their points
//! on the [`crate::parallel`] worker pool; each point is an independent
//! compression of the same immutable module, so results are identical to
//! the sequential loop and arrive in point order. These sweeps mine the
//! program's candidate windows **once**, into a shared [`CandidateIndex`]
//! built at the largest entry length in the sweep; every point then reuses
//! the shared index (candidates above the point's cap are filtered at heap
//! seeding) instead of re-scanning the program, which is byte-identical to
//! a fresh build.

use codense_isa::IsaRef;
use codense_obj::ObjectModule;

use crate::compressor::{CompressedProgram, Compressor};
use crate::config::{CompressionConfig, EncodingKind};
use crate::error::CompressError;
use crate::greedy::CandidateIndex;
use crate::model::ProgramModel;

/// Compression ratio at each requested codeword-count point (Fig 5),
/// computed from one baseline run under `isa` to the largest point.
///
/// Ratios at interior points are exact for the baseline encoding up to
/// branch-overflow rewrites (which add a handful of bytes and affect all
/// points equally).
///
/// # Errors
///
/// Propagates [`CompressError`] from the underlying run.
pub fn codeword_count_sweep_with_isa(
    module: &ObjectModule,
    isa: IsaRef,
    max_entry_len: usize,
    points: &[usize],
) -> Result<Vec<(usize, f64)>, CompressError> {
    let cap = points.iter().copied().max().unwrap_or(0).min(EncodingKind::Baseline.capacity());
    crate::telemetry::SWEEP_POINTS.add(points.len() as u64);
    crate::telemetry::SWEEP_FULL_COMPRESSIONS.inc();
    let config =
        CompressionConfig { max_entry_len, max_codewords: cap, encoding: EncodingKind::Baseline };
    let c = Compressor::new(config).with_isa(isa).compress(module)?;
    Ok(crate::parallel::par_map(points.to_vec(), |_, k| (k, ratio_at_prefix(&c, k))))
}

/// The baseline-encoding compression ratio after only the first `k` greedy
/// picks, reconstructed from the pick log.
pub fn ratio_at_prefix(c: &CompressedProgram, k: usize) -> f64 {
    crate::telemetry::SWEEP_PREFIX_POINTS.inc();
    let orig = c.original_text_bytes as f64;
    let mut text = orig;
    let mut dict = 0.0;
    for p in c.picks.iter().take(k) {
        // Each replacement turns `len` instructions into one 2-byte codeword.
        text -= p.replaced as f64 * (4.0 * p.len as f64 - 2.0);
        dict += 4.0 * p.len as f64;
    }
    (text + dict) / orig
}

/// Compression ratio for each maximum entry length (Fig 4), each a full
/// baseline run under `isa` with the whole 8192-codeword space.
///
/// # Errors
///
/// Propagates [`CompressError`] from the underlying runs.
pub fn entry_len_sweep_with_isa(
    module: &ObjectModule,
    isa: IsaRef,
    lens: &[usize],
) -> Result<Vec<(usize, f64)>, CompressError> {
    crate::telemetry::SWEEP_POINTS.add(lens.len() as u64);
    crate::telemetry::SWEEP_FULL_COMPRESSIONS.add(lens.len() as u64);
    let max_len = lens.iter().copied().max().unwrap_or(1);
    let index = CandidateIndex::build(&ProgramModel::build_isa(module, isa), max_len)?;
    crate::parallel::par_map(lens.to_vec(), |_, l| {
        let config = CompressionConfig {
            max_entry_len: l,
            max_codewords: EncodingKind::Baseline.capacity(),
            encoding: EncodingKind::Baseline,
        };
        let c = Compressor::new(config).with_isa(isa).compress_with_index(module, &index)?;
        Ok((l, c.compression_ratio()))
    })
    .into_iter()
    .collect()
}

/// Dictionary composition by entry length at several dictionary sizes
/// (Fig 6), from one baseline run under `isa`: for each size `k`, a
/// histogram `hist[l]` of entries with `l` instructions among the first `k`
/// picks.
///
/// # Errors
///
/// Propagates [`CompressError`] from the underlying run.
pub fn dict_composition_sweep_with_isa(
    module: &ObjectModule,
    isa: IsaRef,
    max_entry_len: usize,
    sizes: &[usize],
) -> Result<Vec<(usize, Vec<usize>)>, CompressError> {
    crate::telemetry::SWEEP_POINTS.add(sizes.len() as u64);
    crate::telemetry::SWEEP_FULL_COMPRESSIONS.inc();
    let cap = sizes.iter().copied().max().unwrap_or(0).min(EncodingKind::Baseline.capacity());
    let config =
        CompressionConfig { max_entry_len, max_codewords: cap, encoding: EncodingKind::Baseline };
    let c = Compressor::new(config).with_isa(isa).compress(module)?;
    Ok(sizes
        .iter()
        .map(|&k| {
            let mut hist = vec![0usize; max_entry_len + 1];
            for p in c.picks.iter().take(k) {
                hist[p.len.min(max_entry_len)] += 1;
            }
            (k, hist)
        })
        .collect())
}

/// Bytes saved, by entry length, at several dictionary sizes (Fig 7), as a
/// fraction of the original program size, from one baseline (2-byte
/// codeword) run under `isa`.
///
/// # Errors
///
/// Propagates [`CompressError`] from the underlying run.
pub fn savings_by_length_sweep_with_isa(
    module: &ObjectModule,
    isa: IsaRef,
    max_entry_len: usize,
    sizes: &[usize],
) -> Result<Vec<(usize, Vec<f64>)>, CompressError> {
    crate::telemetry::SWEEP_POINTS.add(sizes.len() as u64);
    crate::telemetry::SWEEP_FULL_COMPRESSIONS.inc();
    let cap = sizes.iter().copied().max().unwrap_or(0).min(EncodingKind::Baseline.capacity());
    let config =
        CompressionConfig { max_entry_len, max_codewords: cap, encoding: EncodingKind::Baseline };
    let c = Compressor::new(config).with_isa(isa).compress(module)?;
    let orig = c.original_text_bytes as f64;
    Ok(sizes
        .iter()
        .map(|&k| {
            let mut by_len = vec![0.0f64; max_entry_len + 1];
            for p in c.picks.iter().take(k) {
                let saved = p.replaced as f64 * (4.0 * p.len as f64 - 2.0) - 4.0 * p.len as f64;
                by_len[p.len.min(max_entry_len)] += saved / orig;
            }
            (k, by_len)
        })
        .collect())
}

/// Small-dictionary ratios (Fig 8): 1-byte codewords under `isa` at each
/// entry count.
///
/// # Errors
///
/// Propagates [`CompressError`] from the underlying runs.
pub fn small_dictionary_sweep_with_isa(
    module: &ObjectModule,
    isa: IsaRef,
    entry_counts: &[usize],
) -> Result<Vec<(usize, f64)>, CompressError> {
    crate::telemetry::SWEEP_POINTS.add(entry_counts.len() as u64);
    crate::telemetry::SWEEP_FULL_COMPRESSIONS.add(entry_counts.len() as u64);
    // Every point uses the same entry-length cap; mine the window set once.
    let max_len = CompressionConfig::small_dictionary(0).max_entry_len;
    let index = CandidateIndex::build(&ProgramModel::build_isa(module, isa), max_len)?;
    crate::parallel::par_map(entry_counts.to_vec(), |_, n| {
        let compressor = Compressor::new(CompressionConfig::small_dictionary(n)).with_isa(isa);
        let c = compressor.compress_with_index(module, &index)?;
        Ok((n, c.compression_ratio()))
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    const PPC: IsaRef = IsaRef(&codense_ppc::ISA);

    fn module() -> ObjectModule {
        let mut words = Vec::new();
        for i in 0..40 {
            for _ in 0..(40 - i) / 6 + 1 {
                words.push(encode(&Insn::Addi { rt: R3, ra: R3, si: i as i16 }));
                words.push(encode(&Insn::Addi { rt: R4, ra: R4, si: (i * 2) as i16 }));
            }
        }
        let mut m = ObjectModule::new("t", codense_isa::IsaId::Ppc);
        m.code = words;
        m
    }

    #[test]
    fn more_codewords_never_hurt() {
        let m = module();
        let sweep = codeword_count_sweep_with_isa(&m, PPC, 4, &[2, 8, 32, 128, 512]).unwrap();
        for pair in sweep.windows(2) {
            assert!(pair[1].1 <= pair[0].1 + 1e-9, "{sweep:?}");
        }
    }

    #[test]
    fn prefix_ratio_matches_full_run_at_cap() {
        let m = module();
        let cap = 64;
        let sweep = codeword_count_sweep_with_isa(&m, PPC, 4, &[cap]).unwrap();
        let full = Compressor::new(CompressionConfig {
            max_entry_len: 4,
            max_codewords: cap,
            encoding: EncodingKind::Baseline,
        })
        .compress(&m)
        .unwrap();
        assert!((sweep[0].1 - full.compression_ratio()).abs() < 1e-6);
    }

    #[test]
    fn entry_len_sweep_runs_all_points() {
        let m = module();
        let sweep = entry_len_sweep_with_isa(&m, PPC, &[1, 2, 4]).unwrap();
        assert_eq!(sweep.len(), 3);
        // Longer entries can only help or match on this simple input.
        assert!(sweep[2].1 <= sweep[0].1 + 1e-9);
    }

    #[test]
    fn dict_composition_histogram_counts_picks() {
        let m = module();
        let comp = dict_composition_sweep_with_isa(&m, PPC, 8, &[4, 16]).unwrap();
        assert_eq!(comp[0].0, 4);
        assert_eq!(comp[0].1.iter().sum::<usize>(), 4.min(comp[0].1.iter().sum()));
        let total16: usize = comp[1].1.iter().sum();
        assert!(total16 <= 16);
    }

    /// Fig 6 and 7 read the pick log of a compression under the module's
    /// own ISA, as the other sweeps do.
    #[test]
    fn pick_log_sweeps_take_the_module_isa() {
        let m = codense_codegen::benchmark("compress", codense_isa::IsaId::Mips).unwrap();
        let isa = codense_codegen::isa_ref(m.isa);
        let sizes = [16, 256, 8192];
        let comp = dict_composition_sweep_with_isa(&m, isa, 8, &sizes).unwrap();
        let saved = savings_by_length_sweep_with_isa(&m, isa, 8, &sizes).unwrap();
        let config = CompressionConfig {
            max_entry_len: 8,
            max_codewords: 8192,
            encoding: EncodingKind::Baseline,
        };
        let c = Compressor::new(config).with_isa(isa).compress(&m).unwrap();
        let orig = m.text_bytes() as f64;
        for (i, &k) in sizes.iter().enumerate() {
            let (mut hist, mut by_len) = (vec![0usize; 9], vec![0.0f64; 9]);
            for p in c.picks.iter().take(k) {
                hist[p.len] += 1;
                let words = p.len as f64;
                by_len[p.len] += (p.replaced as f64 * (4.0 * words - 2.0) - 4.0 * words) / orig;
            }
            assert_eq!(comp[i], (k, hist), "size {k}");
            assert_eq!(saved[i], (k, by_len), "size {k}");
        }
    }

    #[test]
    fn rank_space_guard() {
        assert_eq!(check_rank_space(0).unwrap(), 0);
        assert_eq!(check_rank_space(u32::MAX as usize).unwrap(), u32::MAX);
        assert!(matches!(
            check_rank_space(u32::MAX as usize + 1),
            Err(CompressError::ProgramTooLarge { blocks, largest_block: 0 })
                if blocks == u32::MAX as usize + 1
        ));
    }

    #[test]
    fn small_dictionary_sweep_improves_with_entries() {
        let m = module();
        let sweep = small_dictionary_sweep_with_isa(&m, PPC, &[8, 16, 32]).unwrap();
        assert!(sweep[2].1 <= sweep[0].1 + 1e-9);
    }

    #[test]
    fn shared_index_points_match_fresh_compressions() {
        // The sweep reuses one CandidateIndex across points; every point
        // must equal an independent full compression bit-for-bit (here via
        // the exact ratio).
        let m = module();
        for (l, ratio) in entry_len_sweep_with_isa(&m, PPC, &[1, 2, 4, 8]).unwrap() {
            let fresh = Compressor::new(CompressionConfig {
                max_entry_len: l,
                max_codewords: EncodingKind::Baseline.capacity(),
                encoding: EncodingKind::Baseline,
            })
            .compress(&m)
            .unwrap();
            assert_eq!(ratio, fresh.compression_ratio(), "entry len {l}");
        }
        for (n, ratio) in small_dictionary_sweep_with_isa(&m, PPC, &[4, 16, 32]).unwrap() {
            let fresh =
                Compressor::new(CompressionConfig::small_dictionary(n)).compress(&m).unwrap();
            assert_eq!(ratio, fresh.compression_ratio(), "entry count {n}");
        }
    }
}

/// A nibble-codeword space allocation: how many of the 15 non-escape first
/// nibbles introduce 4/8/12/16-bit codewords.
///
/// The shipped encoding is `{8, 3, 2, 2}` (see [`crate::encoding::nibble`]).
/// The paper (§4.1.3) notes "other programs may benefit from different
/// encodings. For example, if many codewords are not necessary for good
/// compression, then more 4-bit and 8-bit code words could be used" — this
/// type lets that trade-off be evaluated analytically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NibbleSplit {
    /// First-nibble values assigned to 4-bit codewords.
    pub n4: u32,
    /// First-nibble values prefixing 8-bit codewords.
    pub n8: u32,
    /// First-nibble values prefixing 12-bit codewords.
    pub n12: u32,
    /// First-nibble values prefixing 16-bit codewords.
    pub n16: u32,
}

impl NibbleSplit {
    /// The encoding shipped by [`crate::encoding::nibble`].
    pub const SHIPPED: NibbleSplit = NibbleSplit { n4: 8, n8: 3, n12: 2, n16: 2 };

    /// Total codewords this split can index.
    pub fn capacity(&self) -> u64 {
        self.n4 as u64 + self.n8 as u64 * 16 + self.n12 as u64 * 256 + self.n16 as u64 * 4096
    }

    /// Returns `true` if the split uses exactly the 15 non-escape nibbles.
    pub fn is_valid(&self) -> bool {
        self.n4 + self.n8 + self.n12 + self.n16 == 15
    }

    /// Codeword length in nibbles for a rank under this split, or `None` if
    /// the rank exceeds the split's capacity.
    pub fn codeword_nibbles(&self, rank: u64) -> Option<u64> {
        let b4 = self.n4 as u64;
        let b8 = b4 + self.n8 as u64 * 16;
        let b12 = b8 + self.n12 as u64 * 256;
        if rank < b4 {
            Some(1)
        } else if rank < b8 {
            Some(2)
        } else if rank < b12 {
            Some(3)
        } else if rank < self.capacity() {
            Some(4)
        } else {
            None
        }
    }
}

/// Evaluates what a nibble-compressed program's *text* size would be under a
/// different codeword-space split, analytically from the dictionary's
/// occurrence counts (entries are re-ranked by frequency; entries beyond the
/// split's capacity fall back to escaped uncompressed instructions).
///
/// Returns total text nibbles. Dictionary bytes are unchanged by the split
/// except for dropped entries, which this conservative model keeps.
///
/// # Errors
///
/// [`CompressError::ProgramTooLarge`] if the dictionary exceeds the 32-bit
/// rank space — the same overflow contract as the matchfinder's position
/// space, instead of a silently truncating `as u32` cast.
pub fn text_nibbles_under_split(
    c: &CompressedProgram,
    split: NibbleSplit,
) -> Result<u64, CompressError> {
    assert!(split.is_valid(), "split must use exactly 15 nibbles");
    let entries = check_rank_space(c.dictionary.len())?;
    // Occurrence counts by rank (already sorted: rank order is by use).
    let mut total: u64 = 0;
    for rank in 0..entries {
        let entry = c.dictionary.entry_of_rank(rank);
        let e = c.dictionary.entry(entry);
        match split.codeword_nibbles(rank as u64) {
            Some(n) => total += n * e.replaced as u64,
            // Beyond capacity: occurrences revert to escaped instructions.
            None => total += 9 * (e.len() as u64) * e.replaced as u64,
        }
    }
    // Uncompressed instructions keep their 9-nibble cost.
    let uncompressed: u64 = c
        .atoms
        .iter()
        .map(|a| match *a {
            crate::compressor::Atom::Insn { .. } => 9,
            crate::compressor::Atom::ViaTable { word, slot, .. } => {
                let expansion = crate::compressor::via_table_expansion_coded(
                    c.isa, c.encoding, None, word, slot,
                );
                9 * expansion.len() as u64
            }
            crate::compressor::Atom::Codeword { .. } => 0,
        })
        .sum();
    Ok(total + uncompressed)
}

/// Rejects dictionaries whose entry count would not fit the u32 rank
/// arithmetic — the same typed-overflow contract as the matchfinder's
/// position-space guard, instead of a silently truncating `as u32` cast.
fn check_rank_space(entries: usize) -> Result<u32, CompressError> {
    entries
        .try_into()
        .map_err(|_| CompressError::ProgramTooLarge { blocks: entries, largest_block: 0 })
}
