//! Dictionary-selection strategies: the greedy fast path and an
//! iterative-refinement hill climb.
//!
//! Greedy selection (the sort-mined matchfinder) maximizes *immediate*
//! savings under an estimated codeword size, but the estimate diverges from
//! reality in two ways: variable-length codewords are priced at a worst
//! practical case, and the layout pass adds branch-patching and
//! overflow-table costs greedy never sees. The refinement selector closes
//! that gap by treating the full compression pipeline as the objective
//! function:
//!
//! 1. Run greedy and take its pick log as the incumbent solution. Every
//!    trial below is scored with the **exact** cost — `text_bytes +
//!    dictionary_bytes + overflow_table_bytes + huffman_table_bytes`, the
//!    numerator of the paper's compression ratio (Eq. 1) — and the
//!    incumbent is replaced only on strict improvement.
//! 2. *Re-price probes:* re-run selection with the codeword price nudged
//!    off the flat 16-bit estimate. Slightly higher prices act as a proxy
//!    penalty for the overflow-table and branch-patch bytes greedy never
//!    models, trimming marginal picks that bloat the layout.
//! 3. *Ban-and-reselect climb:* ban the sequence of one *marginal*
//!    accepted entry (smallest recorded savings) and re-run the pipeline
//!    over the remaining candidate universe. Banning an entry redirects
//!    its occurrences to other candidates, which greedy then re-selects —
//!    the "swap". Keep the trial only if it improves; otherwise lift the
//!    ban. A round probes up to eight marginal entries
//!    (`MARGINALS_PER_ROUND`) and ends at the first accepted swap.
//! 4. Repeat until no marginal ban improves, or the trial budget runs out.
//!
//! The incumbent only ever changes to a strictly cheaper solution, so the
//! refined result is **never worse than greedy** under the exact cost; a
//! fixed probe order and budget make it deterministic for a given input.
//!
//! The program model is built and mined once per refinement, into one
//! [`CandidateIndex`] every selection runs against, and the module's
//! branches are resolved once, into the `Prepared` every lay-out reads. A
//! trial is scored by its `LaidOut::cost`, which is exact: a lay-out sizes
//! the stream from the selection's head array and the addresses of the
//! branch sites and targets, and builds no atom. Only the winner is
//! finished: its atoms built, patched and packed. An index refine mined
//! itself is dropped when the climb ends, before that finish, so the
//! winner's atoms and image never share the heap with it.
//!
//! A re-price probe selects from scratch, since a price change reorders the
//! picks from the first one on. A ban trial does not. Each greedy step
//! accepts the greatest (true savings, candidate id) among the unbanned
//! candidates, so a run that also bans the sequence of pick `j` makes the
//! incumbent's first `j` picks and reaches the incumbent's state after
//! them. Each round therefore re-runs the incumbent's selection once, with
//! its bans and price, up to `k` picks, `k` the round's earliest marginal
//! entry, and keeps that state, with only the windows of the candidates
//! still queued, as the round's checkpoint. Every ban trial of the round
//! clones it and selects only the tail, skipping the banned candidate when
//! it pops, which selects what banning it from the start would. A trial is
//! that tail plus one layout.

use codense_obj::ObjectModule;

use crate::compressor::{CompressedProgram, Compressor, LaidOut, Prepared};
use crate::config::EncodingKind;
use crate::dict::Dictionary;
use crate::error::CompressError;
use crate::greedy::{BanSet, CandidateIndex, Selection};
use crate::telemetry;

/// Which dictionary-selection strategy a [`Compressor`] runs.
///
/// This is the one tag ↔ name table for selectors: a serve `REQ_COMPRESS`
/// frame and its cache key carry the [`tag`](SelectorKind::tag), the CLI's
/// `--selector` and `BENCH_ratio.json` the [`name`](SelectorKind::name).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SelectorKind {
    /// Plain greedy selection — one pass, maximum immediate savings; tag 0.
    #[default]
    Greedy = 0,
    /// Greedy plus the ban-and-reselect hill climb described in this
    /// module, re-scored with the exact layout cost; tag 1.
    Refine = 1,
}

impl SelectorKind {
    /// Every selector, in tag order.
    pub const ALL: [SelectorKind; 2] = [SelectorKind::Greedy, SelectorKind::Refine];

    /// The tag frames and cache keys record.
    pub const fn tag(self) -> u8 {
        self as u8
    }

    /// The selector a tag names, or `None` for an unknown tag.
    pub fn from_tag(tag: u8) -> Option<SelectorKind> {
        SelectorKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Short lowercase name (`"greedy"`, `"refine"`).
    pub const fn name(self) -> &'static str {
        match self {
            SelectorKind::Greedy => "greedy",
            SelectorKind::Refine => "refine",
        }
    }

    /// The selector a [`name`](SelectorKind::name) names.
    pub fn from_name(name: &str) -> Option<SelectorKind> {
        SelectorKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Marginal entries probed per round: the bottom of the pick log by
/// recorded savings. Small because bans compound — after an accepted swap
/// the log is re-ranked and probing starts over.
const MARGINALS_PER_ROUND: usize = 8;

/// Total trial budget: re-price probes plus ban trials. A probe selects
/// from scratch; a ban trial selects only the tail its checkpoint leaves,
/// and each round of ban trials costs one partial selection for the
/// checkpoint. Every trial is laid out in full.
const MAX_TRIALS: usize = 24;

/// The codeword prices (bits) phase 1 re-prices selection at under the
/// variable-length encodings.
pub(crate) const PROBE_PRICES: [u32; 4] = [17, 18, 19, 22];

/// Runs refinement selection for `c` (see the module docs). Called by the
/// compressor's entry points when [`SelectorKind::Refine`] is configured.
/// Debug builds finish a copy of every lay-out the climb scores and check
/// that its packed size is the cost it was scored at.
pub(crate) fn refine(
    c: &Compressor,
    module: &ObjectModule,
    exempt: &[bool],
    shared_index: Option<&CandidateIndex>,
) -> Result<CompressedProgram, CompressError> {
    refine_observed(c, module, exempt, shared_index, |prep, trial, _| {
        debug_assert_eq!(packed_bytes(c, prep, trial), trial.cost(), "trial cost != packed size");
    })
}

/// The packed size of a finished copy of `trial`.
fn packed_bytes(c: &Compressor, prep: &Prepared, trial: &LaidOut) -> usize {
    c.finish(prep, trial.clone()).expect("a laid-out trial finishes").compressed_bytes()
}

/// A ban trial as the climb ran it: the incumbent's bans, the sequence of
/// the marginal entry the trial bans, and the incumbent's codeword price.
/// Resumed from the round's checkpoint of the incumbent's selection, the
/// trial selects what a from-scratch selection at that price, minus both
/// the bans and the banned sequence, does.
type BanTrial<'a> = (&'a BanSet, &'a [u32], Option<u32>);

/// [`refine`], handing `observe` every lay-out it scores: greedy's, then
/// each trial's that lays out, with the ban trials' [`BanTrial`].
fn refine_observed(
    c: &Compressor,
    module: &ObjectModule,
    exempt: &[bool],
    shared_index: Option<&CandidateIndex>,
    observe: impl FnMut(&Prepared, &LaidOut, Option<BanTrial>),
) -> Result<CompressedProgram, CompressError> {
    telemetry::REFINE_RUNS.inc();
    let _refine = telemetry::phase("refine");
    let prep = Prepared::new(c, module, exempt)?;

    // Every trial selects against one index. Mine it from the masked
    // model when the caller didn't supply one, exactly as a fresh greedy
    // run would; the model is dropped once mined, and the index once the
    // climb ends, before the winner's atoms and image are built. A
    // caller's index is the caller's to drop.
    let best = match shared_index {
        Some(index) => climb(c, &prep, index, observe)?,
        None => {
            let index = {
                let model = c.build_masked_model(module, exempt);
                let _phase = telemetry::phase("mine");
                CandidateIndex::build(&model, c.config().max_entry_len)?
            };
            climb(c, &prep, &index, observe)?
        }
    };
    let _pack = telemetry::phase("pack");
    c.finish(&prep, best)
}

/// The climb of the module docs, against `index`: greedy's lay-out, the
/// re-price probes, then ban trials until none improves or the budget runs
/// out. Returns the cheapest lay-out, unfinished.
fn climb(
    c: &Compressor,
    prep: &Prepared,
    index: &CandidateIndex,
    mut observe: impl FnMut(&Prepared, &LaidOut, Option<BanTrial>),
) -> Result<LaidOut, CompressError> {
    // A lay-out of a from-scratch selection at `price`, minus `bans`.
    let from_scratch = |bans: &BanSet, price: Option<u32>| {
        let _phase = telemetry::phase("compress");
        c.lay_out(prep, |dict| c.select(prep, Some(index), bans, price, dict))
    };
    let mut scored = |laid: Result<LaidOut, CompressError>, ban: Option<BanTrial>| {
        if let Ok(laid) = &laid {
            observe(prep, laid, ban);
        }
        laid
    };

    let mut bans = BanSet::new();
    let mut best = scored(from_scratch(&bans, None), None)?;
    let mut best_cost = best.cost();
    let mut trials = 0usize;

    // Phase 1 — re-price probes. Greedy prices every codeword at a flat
    // 16-bit estimate and never sees the overflow-table and branch-patch
    // bytes the layout pass adds; a slightly *higher* price acts as a proxy
    // penalty for those unmodeled costs and steers selection away from
    // marginal picks that bloat them. The probe points were chosen
    // empirically over the benchmark suite; the exact layout cost
    // arbitrates, so a probe that doesn't pan out costs one trial and
    // changes nothing. A price change reorders the picks from the first
    // one on, so each probe selects from scratch.
    let mut price: Option<u32> = None;
    let probe_prices: &[u32] = match c.config().encoding {
        EncodingKind::NibbleAligned | EncodingKind::Huffman => &PROBE_PRICES,
        _ => &[], // fixed-width codewords: the estimate is already exact
    };
    for &p in probe_prices {
        if trials >= MAX_TRIALS {
            break;
        }
        trials += 1;
        telemetry::REFINE_TRIALS.inc();
        let Ok(trial) = scored(from_scratch(&bans, Some(p)), None) else {
            continue;
        };
        let cost = trial.cost();
        if cost < best_cost {
            telemetry::REFINE_SWAPS_ACCEPTED.inc();
            best = trial;
            best_cost = cost;
            price = Some(p);
        }
    }

    // Phase 2 — ban-and-reselect hill climb from the winning price.
    'climb: while trials < MAX_TRIALS {
        // Probe the marginal picks: ascending recorded savings, entry index
        // as the deterministic tie-break.
        let mut order: Vec<(i64, u32)> =
            best.picks.iter().map(|p| (p.savings_bits, p.entry)).collect();
        order.sort_unstable();
        order.truncate(MARGINALS_PER_ROUND.min(MAX_TRIALS - trials));

        // A trial that bans pick `j` repeats the incumbent's first `j`
        // picks, so every trial of the round starts from the incumbent's
        // state after its `k` picks, `k` the earliest marginal entry:
        // select those once, into the checkpoint each trial resumes from.
        let Some(k) = order.iter().map(|&(_, entry)| entry as usize).min() else {
            break;
        };
        let checkpoint = {
            let _phase = telemetry::phase("checkpoint");
            let mut run = Selection::start(index, Dictionary::new(), c.greedy_params(price), &bans);
            run.run(index, k, None);
            run.keep_queued();
            run
        };

        for &(_, entry) in &order {
            let banned = &best.dictionary.entry(entry).words;
            let skip = index.id_of(banned).expect("every dictionary entry is a candidate");
            trials += 1;
            telemetry::REFINE_TRIALS.inc();
            let laid = {
                let _phase = telemetry::phase("compress");
                c.lay_out(prep, |dict| {
                    let _phase = telemetry::phase("select");
                    let mut run = checkpoint.clone();
                    run.run(index, usize::MAX, Some(skip));
                    Ok(run.finish(dict))
                })
            };
            // A trial that fails to lay out (e.g. the alternative layout
            // hits an unsupported overflow branch) is simply not an
            // improvement; the incumbent stands.
            let Ok(trial) = scored(laid, Some((&bans, banned, price))) else {
                continue;
            };
            let cost = trial.cost();
            if cost < best_cost {
                telemetry::REFINE_SWAPS_ACCEPTED.inc();
                bans.insert(banned.clone());
                best = trial;
                best_cost = cost;
                // The pick log changed; re-rank the marginals against the
                // new incumbent, from a fresh checkpoint.
                continue 'climb;
            }
        }
        break; // fixpoint: no marginal ban improves
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CompressionConfig;
    use crate::verify::verify;
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::R3;

    fn addi(rt: u8, si: i16) -> u32 {
        encode(&Insn::Addi { rt: codense_ppc::Gpr::new(rt).unwrap(), ra: R3, si })
    }

    /// A module where greedy's estimated savings and the exact layout cost
    /// disagree enough that refinement has room to move: overlapping
    /// repeated phrases of different lengths.
    fn overlapping_module() -> ObjectModule {
        let mut words = Vec::new();
        for i in 0..48 {
            words.extend_from_slice(&[addi(3, 1), addi(4, 2), addi(5, 3)]);
            if i % 3 == 0 {
                words.extend_from_slice(&[addi(4, 2), addi(5, 3), addi(6, 4), addi(7, 5)]);
            }
            words.push(addi(8, (i % 7) as i16));
        }
        let mut m = ObjectModule::new("overlap", codense_obj::IsaId::Ppc);
        m.code = words;
        m
    }

    #[test]
    fn refine_never_worse_than_greedy() {
        let m = overlapping_module();
        for config in [
            CompressionConfig::baseline(),
            CompressionConfig::nibble_aligned(),
            CompressionConfig::huffman(),
        ] {
            let greedy = Compressor::new(config.clone()).compress(&m).unwrap();
            let refined = Compressor::new(config.clone())
                .with_selector(SelectorKind::Refine)
                .compress(&m)
                .unwrap();
            assert!(
                refined.compressed_bytes() <= greedy.compressed_bytes(),
                "{:?}: refined {} > greedy {}",
                config.encoding,
                refined.compressed_bytes(),
                greedy.compressed_bytes(),
            );
            verify(&m, &refined).unwrap();
        }
    }

    #[test]
    fn refine_is_deterministic() {
        let m = overlapping_module();
        let c = Compressor::new(CompressionConfig::nibble_aligned())
            .with_selector(SelectorKind::Refine);
        let a = c.compress(&m).unwrap();
        let b = c.compress(&m).unwrap();
        assert_eq!(a.image, b.image);
        assert_eq!(a.addresses, b.addresses);
    }

    #[test]
    fn refine_with_shared_index_matches_fresh() {
        let m = overlapping_module();
        let config = CompressionConfig::nibble_aligned();
        let c = Compressor::new(config.clone()).with_selector(SelectorKind::Refine);
        let model = c.build_masked_model(&m, &[]);
        let index = CandidateIndex::build(&model, config.max_entry_len).unwrap();
        let fresh = c.compress(&m).unwrap();
        let shared = c.compress_with_index(&m, &index).unwrap();
        assert_eq!(fresh.image, shared.image);
    }

    /// Refines every case of the battery, handing `check` each lay-out
    /// refine scores, with its ban trial if it is one, the compressor, the
    /// shared index and a context string. The battery: both ISAs' suites
    /// (PPC `gcc` under huffman rewrites branches through the overflow
    /// table on every trial), under all four encodings, and under huffman
    /// once more with every fourth instruction hot. Returns the number of
    /// lay-outs each refinement scored.
    fn over_the_battery(
        check: impl Fn(&Compressor, &CandidateIndex, &Prepared, &LaidOut, Option<BanTrial>, &str) + Sync,
    ) -> Vec<usize> {
        use codense_codegen::{generate_suite, isa_ref};
        let configs = [
            CompressionConfig::baseline(),
            CompressionConfig::small_dictionary(256),
            CompressionConfig::nibble_aligned(),
            CompressionConfig::huffman(),
        ];
        let cases: Vec<(ObjectModule, CompressionConfig, Vec<bool>)> = codense_isa::IsaId::ALL
            .into_iter()
            .flat_map(generate_suite)
            .flat_map(|m| configs.iter().map(move |config| (m.clone(), config.clone())))
            .flat_map(|(m, config)| {
                let hot = (0..m.len()).map(|i| i % 4 == 0).collect();
                let masks = match config.encoding {
                    EncodingKind::Huffman => vec![Vec::new(), hot],
                    _ => vec![Vec::new()],
                };
                masks.into_iter().map(move |exempt| (m.clone(), config.clone(), exempt))
            })
            .collect();
        crate::parallel::par_map(cases, |_, (m, config, exempt)| {
            let c = Compressor::new(config).with_isa(isa_ref(m.isa));
            let ctx =
                format!("{} {} {:?} mask {}", m.isa, m.name, c.config().encoding, exempt.len());
            let model = c.build_masked_model(&m, &exempt);
            let index = CandidateIndex::build(&model, c.config().max_entry_len).unwrap();
            let mut scored = 0;
            refine_observed(&c, &m, &exempt, Some(&index), |prep, laid, ban| {
                check(&c, &index, prep, laid, ban, &ctx);
                scored += 1;
            })
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            scored
        })
    }

    /// Every lay-out refine scores costs exactly what its packed image
    /// does, summed part by part, over the battery.
    #[test]
    fn every_scored_layout_costs_what_it_packs_to() {
        let scored = over_the_battery(|c, _, prep, laid, _, ctx| {
            let p = c.finish(prep, laid.clone()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let packed = p.text_bytes()
                + p.dictionary_bytes()
                + p.overflow_table_bytes()
                + p.huffman_table_bytes();
            assert_eq!(laid.cost(), packed, "{ctx}");
        });
        // Greedy plus at least one trial per refinement.
        assert!(scored.iter().all(|&n| n >= 2), "{scored:?}");
    }

    /// The executable specification of a ban trial: a from-scratch
    /// selection over the whole candidate universe at the incumbent's
    /// price, minus its bans and the banned sequence, laid out.
    fn ban_trial_from_scratch(
        c: &Compressor,
        index: &CandidateIndex,
        prep: &Prepared,
        (bans, banned, price): BanTrial,
    ) -> Result<LaidOut, CompressError> {
        let mut bans = bans.clone();
        bans.insert(banned.to_vec());
        c.lay_out(prep, |dict| c.select(prep, Some(index), &bans, price, dict))
    }

    /// Every ban trial, resumed from its round's checkpoint, finishes to the
    /// program its from-scratch specification does, over the battery.
    #[test]
    fn resumed_ban_trials_match_from_scratch_trials() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let compared = AtomicUsize::new(0);
        let refinements = over_the_battery(|c, index, prep, laid, ban, ctx| {
            let Some(ban) = ban else { return };
            compared.fetch_add(1, Relaxed);
            let spec = ban_trial_from_scratch(c, index, prep, ban).unwrap_or_else(|e| {
                panic!("{ctx}: the spec fails where the resumed trial does not: {e}")
            });
            let (resumed, spec) = (c.finish(prep, laid.clone()), c.finish(prep, spec));
            let (resumed, spec) = (resumed.unwrap(), spec.unwrap());
            assert_eq!(resumed.picks, spec.picks, "{ctx}");
            assert_eq!(resumed.dictionary, spec.dictionary, "{ctx}");
            assert_eq!(resumed.atoms, spec.atoms, "{ctx}");
            assert_eq!(resumed.overflow_table, spec.overflow_table, "{ctx}");
            assert_eq!(resumed.image, spec.image, "{ctx}");
        });
        // Most refinements run several ban trials.
        assert!(compared.into_inner() > 2 * refinements.len(), "{refinements:?}");
    }

    #[test]
    fn selector_kind_default_is_greedy() {
        assert_eq!(SelectorKind::default(), SelectorKind::Greedy);
        assert_eq!(Compressor::default().selector(), SelectorKind::Greedy);
    }

    #[test]
    fn selectors_round_trip_through_tags_and_names() {
        for kind in SelectorKind::ALL {
            assert_eq!(SelectorKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(SelectorKind::from_name(kind.name()), Some(kind));
        }
        // Serve frames and cache keys record these values.
        let tags = SelectorKind::ALL.map(|k| (k.tag(), k.name()));
        assert_eq!(tags, [(0, "greedy"), (1, "refine")]);
        assert_eq!(SelectorKind::from_tag(2), None);
        assert_eq!(SelectorKind::from_name("anneal"), None);
    }
}
