//! One benchmark run: set up, run rounds of the batch paths and a
//! fixed-rate serve segment, and reduce everything to the metrics.
//!
//! Every workload runs all three user paths, so every run reports every
//! metric; the workload picks the batch programs, and with them how the
//! run's time is split between the batch paths and serve:
//!
//! * `scale-1m` — batch on ~1M-insn PPC and MIPS corpus programs, where
//!   candidate mining dominates compression and each parsed VM item runs
//!   only ~18 times;
//! * `scale-10k` — batch on ~10K-insn programs with the same ~4M-insn
//!   dynamic length, where compression is small and VM time is dispatch;
//! * `serve-mix` — mostly serve, with the batch paths on the serve bases.

use std::collections::BTreeMap;
use std::time::Instant;

use codense_codegen::Rng;
use codense_core::EncodingKind;
use codense_corpus::{build, CorpusIsa, CorpusSpec};

use crate::batch::{self, Counts, Program, StageTimes, VmTimes};
use crate::serve::{self, Base, Phase, Server};
use crate::stats::{geomean, median, percentile_sorted, summarize};
use crate::trace::Tracer;

/// The workloads, by the names claims refer to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Scale1m,
    Scale10k,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Scale1m, Workload::Scale10k, Workload::ServeMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scale1m => "scale-1m",
            Workload::Scale10k => "scale-10k",
            Workload::ServeMix => "serve-mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Programs refined in a round: all of them, except at 1M, where
    /// refinement takes seconds per program and one program per round, in
    /// rotation, is refined.
    fn refined(self, round: usize, programs: usize) -> Vec<usize> {
        match self {
            Workload::Scale1m => vec![round % programs],
            Workload::Scale10k | Workload::ServeMix => (0..programs).collect(),
        }
    }

    /// VM runs per program per round: a VM run is short next to the
    /// compressions of a 1M program, so it repeats there; serve-mix spends
    /// its rounds on serve.
    fn vm_runs_per_round(self) -> usize {
        match self {
            Workload::Scale1m => 8,
            Workload::Scale10k => 2,
            Workload::ServeMix => 1,
        }
    }
}

/// Input sizes and load settings; [`Sizes::full`] is the benchmark, the
/// toy sizes keep the tests fast.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Static size of the batch programs (`None`: the serve bases).
    pub batch_insns: Option<usize>,
    /// Batch programs per ISA.
    pub programs_per_isa: usize,
    /// Dynamic length every corpus program is built for.
    pub dynamic_insns: u64,
    /// Seeded corpus modules behind the serve traffic.
    pub bases: usize,
    pub base_insns: usize,
    /// Setups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Offered load of the fixed-rate serve segments.
    pub fixed_rps: f64,
    /// Requests per fixed-rate segment (one segment per round).
    pub segment_requests: usize,
    /// Length of one ladder rung.
    pub rung_seconds: f64,
}

/// Ladder rungs grow by this factor until one fails.
const LADDER_STEP: f64 = 1.25;
/// Rounds every run completes, however long they take.
const MIN_ROUNDS: usize = 2;
/// Most rungs a ladder runs.
const LADDER_MAX_RUNGS: usize = 10;
/// Bisection between a passing and a failing rung stops at this ratio.
const LADDER_RESOLUTION: f64 = 1.04;

impl Sizes {
    pub fn full(w: Workload) -> Sizes {
        Sizes {
            batch_insns: match w {
                Workload::Scale1m => Some(1_000_000),
                Workload::Scale10k => Some(10_000),
                Workload::ServeMix => None,
            },
            // One 1M program is already an average over hundreds of
            // modules; 10K programs differ more, so more of them are run.
            programs_per_isa: if w == Workload::Scale1m { 1 } else { 8 },
            dynamic_insns: 4_000_000,
            bases: 8,
            base_insns: 10_000,
            setup_reps: 3,
            fixed_rps: 300.0,
            // 1000 requests put ten samples beyond the p99.
            segment_requests: 1_000,
            rung_seconds: 1.5,
        }
    }

    /// A few-second version of `w` for tests.
    pub fn toy(w: Workload) -> Sizes {
        Sizes {
            batch_insns: (w != Workload::ServeMix).then_some(2_000),
            programs_per_isa: 1,
            dynamic_insns: 200_000,
            bases: 2,
            base_insns: 2_000,
            setup_reps: 2,
            fixed_rps: 200.0,
            segment_requests: 40,
            rung_seconds: 0.2,
        }
    }
}

/// Deliberate faults, for the tests that prove failures are counted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Plant {
    /// Expect a wrong exit code from every VM run.
    pub wrong_exit: bool,
    /// Expect a wrong container from every serve request.
    pub wrong_container: bool,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub plant: Plant,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run produced.
#[derive(Debug)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (timing summaries, failures).
    pub report: Vec<String>,
    /// Hash of the run's deterministic values: ratios, step counts, fetch
    /// bandwidth and telemetry counts. Equal seeds give equal digests,
    /// traced or not.
    pub digest: u64,
    pub tracer: Tracer,
}

/// Checked-operation bookkeeping.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    report: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failed <= 20 {
                    self.report.push(format!("FAILED {what}: {e}"));
                }
                false
            }
        }
    }
}

struct Setup {
    programs: Vec<Program>,
    bases: Vec<Base>,
    server: Server,
}

fn corpus(isa: CorpusIsa, insns: usize, dynamic: u64, seed: u64) -> Result<Program, String> {
    let spec = CorpusSpec { insns, seed, dynamic_target: dynamic, ..CorpusSpec::default() };
    let p = build(&spec, isa).map_err(|e| e.to_string())?;
    Ok(Program::from_corpus(format!("{}-{insns}-{seed:x}", isa.name()), &p))
}

/// Builds every input from the seed and starts the server.
fn setup(sizes: &Sizes, seed: u64) -> Result<Setup, String> {
    let mut rng = Rng::new(seed ^ 0x5E70_0000_0000_0001);
    let mut specs = Vec::new();
    if let Some(insns) = sizes.batch_insns {
        for isa in [CorpusIsa::Ppc, CorpusIsa::Mips] {
            specs.extend((0..sizes.programs_per_isa).map(|_| (isa, insns, rng.next_u64())));
        }
    }
    // Serve bases are PPC programs of `base_insns`; batch programs of that
    // size double as bases.
    let reuse = sizes.batch_insns == Some(sizes.base_insns);
    if !reuse {
        specs.extend((0..sizes.bases).map(|_| (CorpusIsa::Ppc, sizes.base_insns, rng.next_u64())));
    }
    let mut programs = specs
        .into_iter()
        .map(|(isa, insns, seed)| corpus(isa, insns, sizes.dynamic_insns, seed))
        .collect::<Result<Vec<_>, _>>()?;
    let base_programs: Vec<Program> = if reuse {
        programs.iter().filter(|p| p.isa == CorpusIsa::Ppc).take(sizes.bases).cloned().collect()
    } else {
        programs.split_off(programs.len() - sizes.bases)
    };
    let bases = base_programs
        .iter()
        .map(|p| Base::new(codense_obj::deserialize(&p.module_bytes).map_err(|e| e.to_string())?))
        .collect::<Result<Vec<_>, _>>()?;
    if sizes.batch_insns.is_none() {
        programs = base_programs;
    }
    let server = Server::start(&bases)?;
    Ok(Setup { programs, bases, server })
}

/// Per-item deterministic values, compared across rounds and hashed.
#[derive(Debug, Default)]
struct Determinism {
    seen: BTreeMap<String, Vec<u64>>,
}

impl Determinism {
    /// Records `values` under `key`; later records must match the first.
    fn check(&mut self, key: String, values: Vec<u64>) -> Result<(), String> {
        match self.seen.get(&key) {
            Some(first) if *first != values => {
                Err(format!("{key}: {values:?} differs from the first round's {first:?}"))
            }
            Some(_) => Ok(()),
            None => {
                self.seen.insert(key, values);
                Ok(())
            }
        }
    }

    fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, values) in &self.seen {
            for b in k.bytes().chain(values.iter().flat_map(|v| v.to_le_bytes())) {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }
}

/// Everything a run measured.
#[derive(Debug, Default)]
struct Measured {
    /// Per-segment latency percentiles of the valid serve segments.
    serve_p50_ms: Vec<f64>,
    serve_p99_ms: Vec<f64>,
    /// Seconds per item and sample; the throughputs use each item's
    /// median.
    compress_s: BTreeMap<(usize, usize), Vec<f64>>,
    vm_s: BTreeMap<usize, Vec<f64>>,
    refine_s: BTreeMap<usize, Vec<f64>>,
    ratios: BTreeMap<(usize, usize), f64>,
    /// Traced measurements.
    stages: Vec<StageTimes>,
    /// Plain compress-path ms of the traced images, summed.
    stage_plain_ms: f64,
    vm: Vec<VmTimes>,
    refine_counts: Counts,
    refine_ms: f64,
    refine_ops: usize,
    traced_ms: f64,
    plain_ms: f64,
    /// Valid serve segments, and server counter deltas over them.
    segments: Vec<Phase>,
    cache_hits: u64,
    cache_misses: u64,
    busy: u64,
}

const ENCODINGS: [EncodingKind; 2] = [EncodingKind::NibbleAligned, EncodingKind::Huffman];

struct Ctx<'a> {
    opts: &'a Options,
    tally: Tally,
    det: Determinism,
    /// Values checked across rounds but kept out of the digest: refine
    /// results (which programs get refined depends on how many rounds fit)
    /// and the traced stages' counters (which only a traced run has).
    unhashed: Determinism,
    t: Tracer,
    m: Measured,
    item: u64,
}

impl Ctx<'_> {
    fn next_item(&mut self) -> u64 {
        self.item += 1;
        self.item
    }

    /// One greedy compression of program `pi` under encoding `ei`, plain
    /// and (traced) stage by stage. Returns the container when it checks.
    fn compress(&mut self, s: &Setup, pi: usize, ei: usize) -> Option<Vec<u8>> {
        let (p, enc) = (&s.programs[pi], ENCODINGS[ei]);
        let item = self.next_item();
        let key = format!("{}/{enc:?}", p.label);
        let before = counts_now();
        let t0 = Instant::now();
        let out = batch::compress_path(p, enc, codense_core::SelectorKind::Greedy);
        let secs = t0.elapsed().as_secs_f64();
        let counts = counts_since(before);
        let checked = out.and_then(|(c, bytes)| {
            let ratio = batch::check_round_trip(&c, &bytes)?;
            self.det.check(key.clone(), [vec![ratio.to_bits()], counts].concat())?;
            Ok((ratio, bytes))
        });
        let (ratio, bytes) = match checked {
            Ok(v) => v,
            Err(e) => {
                self.tally.check(&key, Err(e));
                return None;
            }
        };
        self.tally.check(&key, Ok(()));
        self.m.ratios.insert((pi, ei), ratio);
        self.m.compress_s.entry((pi, ei)).or_default().push(secs);

        if self.t.enabled() {
            let t = &mut self.t;
            let id = t.open("image", item, None);
            let traced =
                batch::traced_compress(t, item, Some(id), p, enc).and_then(|(c, b, st)| {
                    let rt = t.span("core.container", item, Some(id), |_, _| {
                        batch::check_round_trip(&c, &b)
                    })?;
                    if rt.to_bits() != ratio.to_bits() {
                        return Err("traced ratio differs from the plain path's".to_string());
                    }
                    self.unhashed.check(format!("{key} traced"), st.counts.0.to_vec())?;
                    Ok(st)
                });
            t.close(id);
            let wall = t.ms(id);
            if let Ok(st) = &traced {
                self.m.stages.push(*st);
                self.m.stage_plain_ms += secs * 1e3;
                self.m.traced_ms += wall;
                self.m.plain_ms += secs * 1e3;
            }
            self.tally.check(&format!("{key} traced"), traced.map(|_| ()));
        }
        Some(bytes)
    }

    /// VM runs of program `pi`'s nibble container.
    fn vm(&mut self, s: &Setup, pi: usize, bytes: &[u8]) {
        let expect = planted(&s.programs[pi], self.opts.plant);
        let key = format!("{}/vm", expect.label);
        let mut secs = 0.0;
        for _ in 0..self.opts.workload.vm_runs_per_round() {
            self.next_item();
            let t0 = Instant::now();
            let run = batch::vm_path(&expect, bytes);
            secs = t0.elapsed().as_secs_f64();
            let checked = run.and_then(|r| {
                batch::check_run(&expect, &r)?;
                self.det.check(key.clone(), vec![r.steps, r.stats.bits_per_insn().to_bits()])
            });
            if self.tally.check(&key, checked) {
                self.m.vm_s.entry(pi).or_default().push(secs);
            }
        }
        if self.t.enabled() {
            let item = self.next_item();
            let t = &mut self.t;
            let id = t.open("vm.run", item, None);
            let traced = batch::traced_vm(t, item, Some(id), &expect, bytes);
            t.close(id);
            let wall = t.ms(id);
            let checked = traced.and_then(|vt| {
                self.det.check(key.clone(), vec![vt.steps, vt.bits_per_insn.to_bits()])?;
                self.m.vm.push(vt);
                self.m.traced_ms += wall;
                self.m.plain_ms += secs * 1e3;
                Ok(())
            });
            self.tally.check(&format!("{key} traced"), checked);
        }
    }

    /// One refine × huffman compression of program `pi`.
    fn refine(&mut self, s: &Setup, pi: usize) {
        let p = &s.programs[pi];
        let key = format!("{}/refine", p.label);
        let t0 = Instant::now();
        let out = batch::refine_path(p);
        let secs = t0.elapsed().as_secs_f64();
        let checked = out.and_then(|(c, bytes, counts)| {
            let ratio = batch::check_round_trip(&c, &bytes)?;
            self.unhashed
                .check(key.clone(), [vec![ratio.to_bits()], counts.0.to_vec()].concat())?;
            Ok(counts)
        });
        let ok = checked.map(|counts| {
            self.m.refine_counts.add(counts);
            self.m.refine_s.entry(pi).or_default().push(secs);
            self.m.refine_ms += secs * 1e3;
            self.m.refine_ops += 1;
        });
        self.tally.check(&key, ok);
    }

    /// The batch part of a round: every program through the greedy
    /// compress path under both encodings, through the VM, and through
    /// refine (see [`Workload::refined`]).
    fn batch_round(&mut self, s: &Setup, round: usize) {
        for pi in 0..s.programs.len() {
            let mut nibble = None;
            for (ei, &enc) in ENCODINGS.iter().enumerate() {
                let bytes = self.compress(s, pi, ei);
                if enc == EncodingKind::NibbleAligned {
                    nibble = bytes;
                }
            }
            if let Some(bytes) = nibble {
                self.vm(s, pi, &bytes);
            }
        }
        for pi in self.opts.workload.refined(round, s.programs.len()) {
            self.refine(s, pi);
        }
    }

    /// The serve part of a round: one fixed-rate segment. An invalid
    /// segment is reported as such and contributes no numbers.
    fn serve_segment(
        &mut self,
        s: &mut Setup,
        bases: &[Base],
        rng: &mut Rng,
    ) -> Result<(), String> {
        let sizes = &self.opts.sizes;
        let plan =
            serve::plan(&mut s.server, bases.len(), sizes.fixed_rps, sizes.segment_requests, rng);
        let names = ["serve.cache.hits", "serve.cache.misses", "serve.requests_busy"];
        let before = s.server.counters(&names)?;
        let seg = serve::run_phase(&mut s.server, bases, &plan)?;
        let after = s.server.counters(&names)?;
        // BUSY is the server's documented backpressure answer, not a wrong
        // output: it is counted in `serve.busy`, not as a failure.
        for r in &seg.records {
            self.tally.check(
                "serve request",
                match r.outcome {
                    serve::Outcome::Ok | serve::Outcome::Busy => Ok(()),
                    serve::Outcome::Failed => Err("wrong or missing response".into()),
                },
            );
        }
        if let Some(why) = seg.invalid_reason() {
            self.tally.report.push(format!("serve segment invalid: {why}"));
            return Ok(());
        }
        let lat = seg.latencies_ms(None);
        if !lat.is_empty() {
            self.m.serve_p50_ms.push(median(&lat));
            self.m.serve_p99_ms.push(percentile_sorted(&lat, 99.0));
        }
        self.m.cache_hits += after[0] - before[0];
        self.m.cache_misses += after[1] - before[1];
        self.m.busy += after[2] - before[2];
        if self.t.enabled() {
            for r in &seg.records {
                let item = self.next_item();
                let name = if r.planned.first_seen { "serve.miss" } else { "serve.hit" };
                let id = self.t.spans_len();
                self.t.record(name, item, None, r.scheduled, r.answered);
                self.t.record("loadgen.late", item, Some(id), r.scheduled, r.sent);
            }
        }
        self.m.segments.push(seg);
        Ok(())
    }
}

/// The program with its expected exit code replaced, when a wrong one is
/// planted.
fn planted(p: &Program, plant: Plant) -> Program {
    let mut p = p.clone();
    if plant.wrong_exit {
        p.exit_code ^= 1;
    }
    p
}

/// Every telemetry counter, for determinism checks of the plain paths.
fn counts_now() -> Vec<u64> {
    codense_core::telemetry::counter_snapshot().into_iter().map(|(_, v)| v).collect()
}

/// Deltas of the compression counters (the serve and VM counters move
/// on other threads and are left out).
fn counts_since(before: Vec<u64>) -> Vec<u64> {
    codense_core::telemetry::counter_snapshot()
        .into_iter()
        .zip(before)
        .filter(|((name, _), _)| {
            ["greedy.", "compress.", "huffman."].iter().any(|p| name.starts_with(p))
        })
        .map(|((_, now), then)| now - then)
        .collect()
}

/// Units per second over items: total units over the sum of each item's
/// median seconds, so a round a host hiccup slowed does not count.
fn throughput<K>(samples: &BTreeMap<K, Vec<f64>>, units: impl Fn(&K) -> f64) -> f64 {
    let (num, den) =
        samples.iter().fold((0.0, 0.0), |(num, den), (k, v)| (num + units(k), den + median(v)));
    ratio_of(num, den)
}

/// What the traced run measures of serve beyond the segments.
#[derive(Debug, Default)]
struct ServeLayers {
    max_rps: Option<f64>,
    process_ms: f64,
    parse_frame_us: f64,
    queue_high_water: u64,
}

/// The ladder: from [`LADDER_STEP`]² × the fixed rate (the knee is well
/// above the fixed rate), up by [`LADDER_STEP`] until a rung fails (or
/// down until one passes), then bisect between the highest pass and the
/// lowest failure.
/// A rung passes when it is valid, every request is answered correctly
/// without BUSY, and p99 stays within [`serve::RUNG_P99_MS`].
fn ladder(
    ctx: &mut Ctx,
    s: &mut Setup,
    bases: &[Base],
    rng: &mut Rng,
) -> Result<Option<f64>, String> {
    let sizes = &ctx.opts.sizes;
    let (mut lo, mut hi): (Option<f64>, Option<f64>) = (None, None);
    for _ in 0..LADDER_MAX_RUNGS {
        let rate = match (lo, hi) {
            (Some(l), Some(h)) if h / l < LADDER_RESOLUTION => break,
            (Some(l), Some(h)) => (l * h).sqrt(),
            (Some(l), None) => l * LADDER_STEP,
            (None, Some(h)) => h / LADDER_STEP,
            (None, None) => sizes.fixed_rps * LADDER_STEP * LADDER_STEP,
        };
        let n = ((rate * sizes.rung_seconds) as usize).max(1);
        let plan = serve::plan(&mut s.server, bases.len(), rate, n, rng);
        let rung = serve::run_phase(&mut s.server, bases, &plan)?;
        let wrong = rung.records.iter().filter(|r| r.outcome == serve::Outcome::Failed).count();
        ctx.tally.check(
            &format!("rung {rate:.0} req/s"),
            match wrong {
                0 => Ok(()),
                n => Err(format!("{n} requests failed")),
            },
        );
        let verdict = match (rung.invalid_reason(), rung.passes()) {
            (Some(why), _) => format!("invalid ({why})"),
            (None, true) => "pass".to_string(),
            (None, false) => {
                format!(
                    "fail (busy {}, p99 {:.1} ms)",
                    rung.busy,
                    rung.p99_ms().unwrap_or(f64::NAN)
                )
            }
        };
        ctx.tally.report.push(format!("ladder rung {rate:.0} req/s × {n}: {verdict}"));
        if rung.passes() {
            lo = Some(rate);
        } else {
            hi = Some(rate);
        }
    }
    Ok(lo)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload: repeated set-up, then rounds of batch work and a
/// fixed-rate serve segment until `--seconds` are spent (at least
/// [`MIN_ROUNDS`]); a traced run then adds the ladder and the in-process
/// serve layers.
///
/// # Errors
///
/// Set-up and server-connection failures; everything else is counted in
/// the output.
pub fn run(opts: &Options) -> Result<RunOutput, String> {
    let mut setup_s = Vec::new();
    let mut s = None;
    for _ in 0..opts.sizes.setup_reps.max(1) {
        drop(s.take());
        let t0 = Instant::now();
        s = Some(setup(&opts.sizes, opts.seed)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut s = s.expect("at least one setup");
    let bases: Vec<Base> = s
        .bases
        .iter()
        .cloned()
        .map(|mut b| {
            if opts.plant.wrong_container {
                b.expected[0] ^= 0xFF;
            }
            b
        })
        .collect();

    let mut ctx = Ctx {
        opts,
        tally: Tally::default(),
        det: Determinism::default(),
        unhashed: Determinism::default(),
        t: Tracer::new(opts.trace),
        m: Measured::default(),
        item: 0,
    };
    let mut rng = Rng::new(opts.seed ^ 0x5E7E_0000_0000_0002);
    let start = Instant::now();
    let mut peak_rss = 0.0;
    for round in 0.. {
        let r0 = Instant::now();
        ctx.batch_round(&s, round);
        ctx.serve_segment(&mut s, &bases, &mut rng)?;
        // Memory is read after the same work in every run: how many more
        // rounds fit depends on the host's speed.
        if round + 1 == MIN_ROUNDS {
            peak_rss = peak_rss_mb();
        }
        // Stop before a round that would overrun by more than a tenth.
        let elapsed = start.elapsed().as_secs_f64();
        if round + 1 >= MIN_ROUNDS && elapsed + r0.elapsed().as_secs_f64() > opts.seconds * 1.1 {
            break;
        }
    }
    if ctx.m.segments.is_empty() {
        ctx.tally.report.push("no valid fixed-rate segment: serve latencies not reported".into());
    }

    let mut layers = ServeLayers::default();
    if opts.trace {
        layers.queue_high_water = s.server.counters(&["serve.queue_high_water"])?[0];
        layers.max_rps = ladder(&mut ctx, &mut s, &bases, &mut rng)?;
        if layers.max_rps.is_none() {
            ctx.tally.report.push("no ladder rung passed: serve.max_rps not reported".into());
        }
        // The worker-side codec on fresh (never served) copies of each base.
        let mut total = 0.0;
        for (i, base) in bases.iter().enumerate() {
            let req = serve::request_for(&serve::variant(&base.module, u64::MAX - 1 - i as u64));
            let t0 = Instant::now();
            let out = serve::process(&req);
            total += t0.elapsed().as_secs_f64() * 1e3;
            ctx.tally.check(
                "codec::process",
                out.and_then(|got| match got == base.expected {
                    true => Ok(()),
                    false => Err("in-process container differs from the expected one".into()),
                }),
            );
        }
        layers.process_ms = total / bases.len() as f64;
        let sample: Vec<serve::Planned> = ctx
            .m
            .segments
            .first()
            .map_or(Vec::new(), |p| p.records.iter().take(200).map(|r| r.planned).collect());
        layers.parse_frame_us = serve::parse_frame_us(&bases, &sample)?;
    }

    let (m, mut tally) = (&ctx.m, std::mem::take(&mut ctx.tally));
    let mut report = std::mem::take(&mut tally.report);
    let progs = &s.programs;
    report.push(format!("setup_s: {}", summarize(&setup_s)));
    for ((pi, ei), v) in &m.compress_s {
        report.push(format!(
            "compress {} {:?} s: {}",
            progs[*pi].label,
            ENCODINGS[*ei],
            summarize(v)
        ));
    }
    for (what, samples) in [("vm", &m.vm_s), ("refine", &m.refine_s)] {
        for (pi, v) in samples {
            report.push(format!("{what} {} s: {}", progs[*pi].label, summarize(v)));
        }
    }
    let pooled: Vec<f64> = {
        let mut v: Vec<f64> = m.segments.iter().flat_map(|p| p.latencies_ms(None)).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    if !pooled.is_empty() {
        report.push(format!(
            "serve latency ms at {} req/s: {}",
            opts.sizes.fixed_rps,
            summarize(&pooled)
        ));
    }

    let ratio_values: Vec<f64> = m.ratios.values().copied().collect();
    let mut metrics = Vec::new();
    let mut put = |name, unit, value| metrics.push(Metric { name, unit, value });
    if !opts.trace {
        put("setup_s", "s", median(&setup_s));
        let insns = |pi: &usize| progs[*pi].insns as f64;
        put("compress_insns_per_s", "insn/s", throughput(&m.compress_s, |(pi, _)| insns(pi)));
        put("refine_insns_per_s", "insn/s", throughput(&m.refine_s, insns));
        put(
            "ratio",
            "fraction",
            if ratio_values.is_empty() { 0.0 } else { geomean(&ratio_values) },
        );
        put("peak_rss_mb", "MiB", peak_rss);
    } else {
        let vm_ips = throughput(&m.vm_s, |pi| progs[*pi].steps as f64);
        layer_metrics(m, vm_ips, &layers, &ctx.t, &mut put);
    }
    report.push(format!(
        "failed_frac: {} / {} = {:.6}",
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    ));
    Ok(RunOutput {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
        digest: ctx.det.digest(),
        tracer: ctx.t,
    })
}

fn mean_of(v: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio_of(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run. Stage times are span self
/// times averaged per traced image or VM run.
fn layer_metrics(
    m: &Measured,
    vm_insns_per_s: f64,
    sv: &ServeLayers,
    t: &Tracer,
    put: &mut impl FnMut(&'static str, &'static str, f64),
) {
    let selfs = t.self_times();
    let per = |name: &str| selfs.get(name).map_or(0.0, |&(ms, n)| ms / n as f64);
    let images = m.stages.len().max(1) as f64;
    let count = |i: usize| m.stages.iter().map(|s| s.counts.0[i] as f64).sum::<f64>();
    let select_pops = count(Counts::HEAP_POPS);

    put("core.model.ms", "ms", per("core.model"));
    put("core.mine.ms", "ms", per("core.mine"));
    put("core.mine.seqs", "count", count(Counts::MINE_SEQS) / images);
    put("core.mine.windows", "count", count(Counts::MINE_WINDOWS) / images);
    put("core.select.ms", "ms", per("core.select"));
    put("core.select.heap_pops", "count", select_pops / images);
    put("core.select.useful_pop_ratio", "fraction", ratio_of(count(Counts::PICKS), select_pops));
    put("core.select.stale_reinserts", "count", count(Counts::STALE) / images);
    put("core.layout_pack.ms", "ms", mean_of(m.stages.iter().map(|s| s.layout_pack_ms)));
    put("core.layout.rounds", "count", count(Counts::LAYOUT_ROUNDS) / images);
    let trials = m.refine_counts.0[Counts::REFINE_TRIALS] as f64;
    put("core.refine.trials", "count", ratio_of(trials, m.refine_ops as f64));
    put("core.refine.ms_per_trial", "ms", ratio_of(m.refine_ms, trials));
    put(
        "core.refine.accept_ratio",
        "fraction",
        ratio_of(m.refine_counts.0[Counts::REFINE_SWAPS] as f64, trials),
    );
    put("core.verify.ms", "ms", per("core.verify"));
    // Serialize plus the round-trip deserialize, per image.
    put("core.container.ms", "ms", selfs.get("core.container").map_or(0.0, |&(ms, _)| ms / images));
    put("obj.deserialize.ms", "ms", per("obj.deserialize"));
    let stage_sum: f64 = m.stages.iter().map(StageTimes::path_sum_ms).sum();
    put("core.unattributed_frac", "fraction", 1.0 - ratio_of(stage_sum, m.stage_plain_ms));

    put("vm.construct.ms", "ms", per("vm.construct"));
    put("vm.cold.ms", "ms", per("vm.cold"));
    put("vm.warm.ms", "ms", per("vm.warm"));
    put("vm.parse_fill.ms", "ms", per("vm.cold") - per("vm.warm"));
    let steps: f64 = m.vm.iter().map(|v| v.steps as f64).sum();
    let items: f64 = m.vm.iter().map(|v| v.cached_items as f64).sum();
    put("vm.steps", "count", mean_of(m.vm.iter().map(|v| v.steps as f64)));
    put("vm.cached_items", "count", mean_of(m.vm.iter().map(|v| v.cached_items as f64)));
    put("vm.reuse", "insn/item", ratio_of(steps, items));
    put("vm.bits_per_insn", "bit/insn", mean_of(m.vm.iter().map(|v| v.bits_per_insn)));
    put("vm.insns_per_s", "insn/s", vm_insns_per_s);

    let pool = |first_seen: Option<bool>| {
        let mut v: Vec<f64> = m.segments.iter().flat_map(|p| p.latencies_ms(first_seen)).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let (hits, misses) = (pool(Some(false)), pool(Some(true)));
    let pct = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { percentile_sorted(v, p) };
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    put("serve.p50_ms", "ms", or_zero(&m.serve_p50_ms));
    put("serve.p99_ms", "ms", or_zero(&m.serve_p99_ms));
    put("service.process.ms", "ms", sv.process_ms);
    put("service.parse_frame.us", "us", sv.parse_frame_us);
    put("serve.hit.p50_ms", "ms", pct(&hits, 50.0));
    put("serve.hit.p99_ms", "ms", pct(&hits, 99.0));
    put("serve.miss.p50_ms", "ms", pct(&misses, 50.0));
    put("serve.miss.p99_ms", "ms", pct(&misses, 99.0));
    put("serve.miss.wait_ms", "ms", pct(&misses, 50.0) - sv.process_ms);
    put(
        "serve.cache.hit_ratio",
        "fraction",
        ratio_of(m.cache_hits as f64, (m.cache_hits + m.cache_misses) as f64),
    );
    put("serve.busy", "count", m.busy as f64);
    put("serve.queue_high_water", "count", sv.queue_high_water as f64);
    put("serve.max_rps", "req/s", sv.max_rps.unwrap_or(0.0));
    let mut late: Vec<f64> = m.segments.iter().flat_map(|p| p.late_ms()).collect();
    late.sort_by(f64::total_cmp);
    put("loadgen.late.p99_ms", "ms", pct(&late, 99.0));
    put("loadgen.late.max_ms", "ms", late.last().copied().unwrap_or(0.0));
    put("trace.overhead_frac", "fraction", ratio_of(m.traced_ms, m.plain_ms) - 1.0);
}
