//! The hybrid sweep: the size-vs-cycles Pareto frontier of profile-guided
//! hybrid compression, rendered as the checked-in `BENCH_hybrid.json`.
//!
//! For each benchmark the sweep walks the hotness-coverage knob from 0.0
//! (fully compressed) to 1.0 (all executed code exempt), compresses under
//! the corresponding exemption mask, verifies the hybrid image, and scores
//! it under the cycle model. Two derived axes summarize each point:
//!
//! * `recovered_pct` — how much of full compression's modeled cycle
//!   overhead the hybrid point wins back, relative to native.
//! * `retained_pct` — how much of full compression's size reduction the
//!   hybrid point keeps.

use codense_core::parallel::par_map;
use codense_core::verify::verify;
use codense_core::{telemetry, CompressionConfig, Compressor, EncodingKind};

use crate::artifact::Profile;
use crate::collect::{collect, ProfileError};
use crate::cost::{score_compressed, score_native, CostParams, Score};
use crate::hotness::{hot_mask, HotnessPolicy};
use crate::subject::Subject;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct HybridOptions {
    /// Codeword encoding under test.
    pub encoding: EncodingKind,
    /// Hotness-coverage fractions to sweep, in `[0, 1]`.
    pub coverages: Vec<f64>,
    /// Cycle-model parameters.
    pub cost: CostParams,
    /// Step budget per VM run.
    pub max_steps: u64,
}

impl Default for HybridOptions {
    fn default() -> HybridOptions {
        HybridOptions {
            encoding: EncodingKind::NibbleAligned,
            coverages: vec![0.0, 0.10, 0.25, 0.50, 0.75, 0.90, 1.0],
            cost: CostParams::default(),
            max_steps: 10_000_000,
        }
    }
}

/// One point on a benchmark's size-vs-cycles frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridPoint {
    /// Hotness coverage fraction this point was built with.
    pub coverage: f64,
    /// Blocks exempted from compression.
    pub hot_blocks: usize,
    /// Instructions exempted from compression.
    pub exempt_insns: usize,
    /// Compression ratio of the hybrid image (Eq. 1).
    pub ratio: f64,
    /// Modeled cycles of the hybrid run.
    pub cycles: u64,
    /// Percentage of full compression's cycle overhead recovered
    /// (`100` = native speed, `0` = no better than fully compressed).
    pub recovered_pct: f64,
    /// Percentage of full compression's size reduction retained
    /// (`100` = as small as fully compressed, `0` = no smaller than native).
    pub retained_pct: f64,
}

/// A benchmark's reference data and swept frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridBenchResult {
    /// Benchmark name.
    pub bench: String,
    /// Static instruction count.
    pub insns: usize,
    /// Modeled cycles of the native run.
    pub native_cycles: u64,
    /// Modeled cycles of the fully compressed run.
    pub full_cycles: u64,
    /// Compression ratio of the fully compressed image.
    pub full_ratio: f64,
    /// Frontier points, one per requested coverage, in input order.
    pub points: Vec<HybridPoint>,
}

struct BenchRef {
    profile: Profile,
    native: Score,
    full: Score,
    full_ratio: f64,
}

fn config_for(encoding: EncodingKind) -> CompressionConfig {
    CompressionConfig { max_entry_len: 4, max_codewords: encoding.capacity(), encoding }
}

fn bench_ref(subject: &Subject, options: &HybridOptions) -> Result<BenchRef, ProfileError> {
    let profile = collect(subject, options.encoding, options.max_steps)?;
    let native = score_native(subject, &options.cost, options.max_steps)?;
    let full = Compressor::new(config_for(options.encoding)).compress(&subject.module)?;
    let full_ratio = full.compression_ratio();
    let full_score = score_compressed(subject, &full, &options.cost, options.max_steps)?;
    Ok(BenchRef { profile, native, full: full_score, full_ratio })
}

fn sweep_point(
    subject: &Subject,
    r: &BenchRef,
    coverage: f64,
    options: &HybridOptions,
) -> Result<HybridPoint, ProfileError> {
    telemetry::HYBRID_SWEEP_POINTS.inc();
    let mask = hot_mask(&r.profile, HotnessPolicy::TopCoverage(coverage));
    let hybrid = Compressor::new(config_for(options.encoding))
        .compress_masked(&subject.module, &mask.exempt)?;
    verify(&subject.module, &hybrid)?;
    let score = score_compressed(subject, &hybrid, &options.cost, options.max_steps)?;
    let ratio = hybrid.compression_ratio();
    let overhead = r.full.cycles.saturating_sub(r.native.cycles);
    let recovered_pct = if overhead == 0 {
        100.0
    } else {
        100.0 * r.full.cycles.saturating_sub(score.cycles) as f64 / overhead as f64
    };
    let reduction = 1.0 - r.full_ratio;
    let retained_pct = if reduction <= 0.0 { 100.0 } else { 100.0 * (1.0 - ratio) / reduction };
    Ok(HybridPoint {
        coverage,
        hot_blocks: mask.hot_block_count(),
        exempt_insns: mask.exempt_insn_count(),
        ratio,
        cycles: score.cycles,
        recovered_pct,
        retained_pct,
    })
}

/// Runs the sweep over `subjects` (the padded [`bench`](crate::bench)
/// suite, optionally plus a SPEC-scale corpus program), parallelized over
/// `codense_core::parallel` (results are identical at any `--jobs`).
///
/// # Errors
///
/// The first [`ProfileError`] from any subject (profiling, compression,
/// verification, or a scored run going wrong).
pub fn hybrid_sweep(
    subjects: &[Subject],
    options: &HybridOptions,
) -> Result<Vec<HybridBenchResult>, ProfileError> {
    let _phase = telemetry::phase("hybrid-sweep");

    // Per-bench reference data first (profile, native score, full score)…
    let refs = par_map(subjects.iter().collect(), |_, s: &Subject| bench_ref(s, options));
    let mut bench_refs = Vec::with_capacity(subjects.len());
    for r in refs {
        bench_refs.push(r?);
    }

    // …then every (bench, coverage) point as one flat parallel batch.
    let jobs: Vec<(usize, f64)> =
        (0..subjects.len()).flat_map(|b| options.coverages.iter().map(move |&c| (b, c))).collect();
    let points = par_map(jobs, |_, (b, coverage)| {
        sweep_point(&subjects[b], &bench_refs[b], coverage, options).map(|p| (b, p))
    });

    let mut results: Vec<HybridBenchResult> = subjects
        .iter()
        .zip(&bench_refs)
        .map(|(s, r)| HybridBenchResult {
            bench: s.name.clone(),
            insns: s.module.len(),
            native_cycles: r.native.cycles,
            full_cycles: r.full.cycles,
            full_ratio: r.full_ratio,
            points: Vec::with_capacity(options.coverages.len()),
        })
        .collect();
    for p in points {
        let (b, point) = p?;
        results[b].points.push(point);
    }
    Ok(results)
}

/// Renders sweep results as the schema-1 `BENCH_hybrid.json` artifact:
/// sorted keys, fixed float precision, byte-identical at any `--jobs`.
pub fn render_bench_json(
    results: &[HybridBenchResult],
    encoding: &str,
    cost: &CostParams,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"benches\": [\n");
    for (ri, r) in results.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"bench\": \"{}\",\n", r.bench));
        out.push_str(&format!("      \"full_cycles\": {},\n", r.full_cycles));
        out.push_str(&format!("      \"full_ratio\": {:.6},\n", r.full_ratio));
        out.push_str(&format!("      \"insns\": {},\n", r.insns));
        out.push_str(&format!("      \"native_cycles\": {},\n", r.native_cycles));
        out.push_str("      \"points\": [\n");
        for (pi, p) in r.points.iter().enumerate() {
            out.push_str(&format!(
                "        {{ \"coverage\": {:.2}, \"cycles\": {}, \"exempt_insns\": {}, \
                 \"hot_blocks\": {}, \"ratio\": {:.6}, \"recovered_pct\": {:.1}, \
                 \"retained_pct\": {:.1} }}{}\n",
                p.coverage,
                p.cycles,
                p.exempt_insns,
                p.hot_blocks,
                p.ratio,
                p.recovered_pct,
                p.retained_pct,
                if pi + 1 < r.points.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(&format!("    }}{}\n", if ri + 1 < results.len() { "," } else { "" }));
    }
    out.push_str("  ],\n");
    let c = cost;
    out.push_str(&format!(
        "  \"cost\": {{ \"escape_cycles\": {}, \"expand_cycles\": {}, \"icache_bytes\": {}, \
         \"icache_line\": {}, \"icache_ways\": {}, \"miss_penalty\": {}, \"native_cycles\": {}, \
         \"realign_cycles\": {} }},\n",
        c.escape_cycles,
        c.expand_cycles,
        c.cache.size_bytes,
        c.cache.line_bytes,
        c.cache.ways,
        c.miss_penalty,
        c.native_cycles,
        c.realign_cycles
    ));
    out.push_str(&format!("  \"encoding\": \"{encoding}\",\n"));
    out.push_str("  \"schema\": 1\n");
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_sorted_and_stable() {
        let results = vec![HybridBenchResult {
            bench: "t".into(),
            insns: 10,
            native_cycles: 100,
            full_cycles: 160,
            full_ratio: 0.5,
            points: vec![HybridPoint {
                coverage: 0.5,
                hot_blocks: 1,
                exempt_insns: 4,
                ratio: 0.625,
                cycles: 120,
                recovered_pct: 66.6667,
                retained_pct: 75.0,
            }],
        }];
        let a = render_bench_json(&results, "nibble", &CostParams::default());
        assert_eq!(a, render_bench_json(&results, "nibble", &CostParams::default()));
        assert!(a.contains("\"schema\": 1"));
        assert!(a.contains("\"recovered_pct\": 66.7"));
        assert!(a.contains("\"full_ratio\": 0.500000"));
    }
}
