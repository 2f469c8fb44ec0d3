//! The two batch user paths: module bytes → verified container (the CLI
//! `compress` path) and container bytes → completed VM run.
//!
//! Each path has a plain form, timed as a whole for the end-to-end
//! metrics, and a traced form that calls the same public stages one by
//! one so each can be timed and its telemetry counters read.

use codense_core::compressor::OVERFLOW_TABLE_HI;
use codense_core::greedy::{run_greedy_with, CostModel, GreedyParams};
use codense_core::model::ProgramModel;
use codense_core::{container, telemetry, verify::verify};
use codense_core::{CandidateIndex, CompressedProgram, CompressionConfig, Compressor, Dictionary};
use codense_core::{EncodingKind, SelectorKind};
use codense_corpus::{CorpusIsa, CorpusProgram, MEM_BYTES};
use codense_isa::PredecodeCore;
use codense_vm::{run_predecoded, PredecodedFetcher, RunResult};

use crate::trace::{SpanId, Tracer};

/// One benchmark input: a serialized corpus module plus the reference
/// results of its native run.
#[derive(Debug, Clone)]
pub struct Program {
    pub label: String,
    pub isa: CorpusIsa,
    pub module_bytes: Vec<u8>,
    pub insns: usize,
    pub table_addrs: Vec<u32>,
    /// Exit code of the native run at build time.
    pub exit_code: u32,
    /// Instructions the native run executed.
    pub steps: u64,
}

impl Program {
    pub fn from_corpus(label: String, p: &CorpusProgram) -> Program {
        Program {
            label,
            isa: p.isa,
            module_bytes: codense_obj::serialize(&p.module),
            insns: p.stats.insns,
            table_addrs: p.table_addrs.clone(),
            exit_code: p.stats.exit_code,
            steps: p.stats.dynamic_insns,
        }
    }
}

/// The compression settings the CLI `compress` command uses.
pub fn cli_config(encoding: EncodingKind) -> CompressionConfig {
    CompressionConfig { max_entry_len: 4, max_codewords: encoding.capacity(), encoding }
}

fn compressor(p: &Program, encoding: EncodingKind, selector: SelectorKind) -> Compressor {
    Compressor::new(cli_config(encoding)).with_isa(p.isa.isa_ref()).with_selector(selector)
}

fn load(p: &Program) -> Result<codense_obj::ObjectModule, String> {
    let m = codense_obj::deserialize(&p.module_bytes).map_err(|e| format!("deserialize: {e}"))?;
    m.validate_with(p.isa.isa_ref()).map_err(|e| format!("validate: {e}"))?;
    Ok(m)
}

/// The CLI `compress` path: `obj::deserialize` + `validate` →
/// `Compressor::compress` → `verify` → `container::serialize`.
pub fn compress_path(
    p: &Program,
    encoding: EncodingKind,
    selector: SelectorKind,
) -> Result<(CompressedProgram, Vec<u8>), String> {
    let m = load(p)?;
    let c = compressor(p, encoding, selector).compress(&m).map_err(|e| e.to_string())?;
    verify(&m, &c).map_err(|e| format!("verify: {e}"))?;
    let bytes = container::serialize(&c);
    Ok((c, bytes))
}

/// Checks that `bytes` deserializes back to `c`'s image, and returns the
/// image's size ratio (container footprint over original text bytes).
pub fn check_round_trip(c: &CompressedProgram, bytes: &[u8]) -> Result<f64, String> {
    let image = container::deserialize(bytes).map_err(|e| format!("container: {e}"))?;
    if image != c.to_image() {
        return Err("container round trip changed the image".into());
    }
    Ok(image_ratio(&image))
}

/// Compressed over original size of a container image.
pub fn image_ratio(image: &container::ProgramImage) -> f64 {
    image.footprint_bytes() as f64 / image.original_text_bytes as f64
}

/// Telemetry counters read around traced stages.
const COUNTERS: [&telemetry::Counter; 8] = [
    &telemetry::GREEDY_INTERNED_SEQS,
    &telemetry::GREEDY_WINDOW_ADDS,
    &telemetry::GREEDY_HEAP_POPS,
    &telemetry::GREEDY_PICKS_ACCEPTED,
    &telemetry::GREEDY_STALE_REINSERTS,
    &telemetry::COMPRESS_LAYOUT_ROUNDS,
    &telemetry::REFINE_TRIALS,
    &telemetry::REFINE_SWAPS_ACCEPTED,
];

/// Counter deltas over a stretch of work, indexed like [`COUNTERS`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts(pub [u64; 8]);

impl Counts {
    pub const MINE_SEQS: usize = 0;
    pub const MINE_WINDOWS: usize = 1;
    pub const HEAP_POPS: usize = 2;
    pub const PICKS: usize = 3;
    pub const STALE: usize = 4;
    pub const LAYOUT_ROUNDS: usize = 5;
    pub const REFINE_TRIALS: usize = 6;
    pub const REFINE_SWAPS: usize = 7;

    fn now() -> Counts {
        Counts(COUNTERS.map(|c| c.get()))
    }

    fn since(before: Counts) -> Counts {
        let now = Counts::now();
        Counts(std::array::from_fn(|i| now.0[i] - before.0[i]))
    }

    pub fn add(&mut self, other: Counts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// What one traced compression measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub deserialize_ms: f64,
    pub model_ms: f64,
    pub mine_ms: f64,
    pub select_ms: f64,
    /// `Compressor::compress_with_index` minus the model and select times.
    pub layout_pack_ms: f64,
    pub verify_ms: f64,
    pub serialize_ms: f64,
    pub counts: Counts,
}

impl StageTimes {
    /// Sum of the stages that make up the plain compress path.
    pub fn path_sum_ms(&self) -> f64 {
        self.deserialize_ms
            + self.model_ms
            + self.mine_ms
            + self.select_ms
            + self.layout_pack_ms
            + self.verify_ms
            + self.serialize_ms
    }
}

/// The greedy parameters `Compressor::compress` derives from a config.
fn greedy_params(config: &CompressionConfig) -> GreedyParams {
    let kind = config.encoding;
    GreedyParams {
        max_entry_len: config.max_entry_len,
        max_codewords: config.effective_max_codewords(),
        cost: CostModel {
            insn_bits: kind.uncompressed_insn_bits(),
            codeword_bits: kind.codeword_bits_estimate(),
            dict_word_bits: 32,
            dict_entry_fixed_bits: 0,
        },
    }
}

/// The greedy compress path, stage by stage, under span `parent`.
///
/// Selection is timed by running `run_greedy_with` on a clone of the
/// model; `compress_with_index` then repeats model building and selection
/// internally, so its layout-and-pack share is what is left after
/// subtracting both.
pub fn traced_compress(
    t: &mut Tracer,
    item: u64,
    parent: Option<SpanId>,
    p: &Program,
    encoding: EncodingKind,
) -> Result<(CompressedProgram, Vec<u8>, StageTimes), String> {
    let mut st = StageTimes::default();
    let isa = p.isa.isa_ref();
    let c = compressor(p, encoding, SelectorKind::Greedy);

    let id = t.open("obj.deserialize", item, parent);
    let m = load(p);
    t.close(id);
    st.deserialize_ms = t.ms(id);
    let m = m?;

    let id = t.open("core.model", item, parent);
    let model = ProgramModel::build_isa(&m, isa);
    t.close(id);
    st.model_ms = t.ms(id);

    let before = Counts::now();
    let id = t.open("core.mine", item, parent);
    let index = CandidateIndex::build(&model, c.config().max_entry_len);
    t.close(id);
    st.mine_ms = t.ms(id);
    let index = index.map_err(|e| e.to_string())?;
    let mut counts = Counts::since(before);

    let mut scratch = model.clone();
    let mut dict = Dictionary::new();
    let before = Counts::now();
    let id = t.open("core.select", item, parent);
    run_greedy_with(&index, &mut scratch, &mut dict, greedy_params(c.config()));
    t.close(id);
    st.select_ms = t.ms(id);
    counts.add(Counts::since(before));
    drop(scratch);

    let before = Counts::now();
    let id = t.open("core.compress_with_index", item, parent);
    let compressed = c.compress_with_index(&m, &index);
    t.close(id);
    st.layout_pack_ms = t.ms(id) - st.model_ms - st.select_ms;
    counts.0[Counts::LAYOUT_ROUNDS] += Counts::since(before).0[Counts::LAYOUT_ROUNDS];
    st.counts = counts;
    let compressed = compressed.map_err(|e| e.to_string())?;

    let id = t.open("core.verify", item, parent);
    let verified = verify(&m, &compressed);
    t.close(id);
    st.verify_ms = t.ms(id);
    verified.map_err(|e| format!("verify: {e}"))?;

    let id = t.open("core.container", item, parent);
    let bytes = container::serialize(&compressed);
    t.close(id);
    st.serialize_ms = t.ms(id);
    Ok((compressed, bytes, st))
}

/// The plain refine path with the refine counters it moved.
pub fn refine_path(p: &Program) -> Result<(CompressedProgram, Vec<u8>, Counts), String> {
    let before = Counts::now();
    let (c, bytes) = compress_path(p, EncodingKind::Huffman, SelectorKind::Refine)?;
    Ok((c, bytes, Counts::since(before)))
}

/// Step budget for a VM run: generous, but finite so a broken image that
/// loops fails instead of hanging.
fn step_limit(p: &Program) -> u64 {
    p.steps.saturating_mul(2) + 1_000
}

/// Runs `fetch` from PC 0 to halt on a fresh machine of `p`'s ISA, with
/// the jump tables and (if any) overflow table seeded from `image`.
pub fn run_fresh(
    p: &Program,
    image: &container::ProgramImage,
    fetch: &mut PredecodedFetcher,
) -> Result<RunResult, String> {
    match p.isa {
        CorpusIsa::Ppc => run_on(codense_ppc::machine::Machine::new(MEM_BYTES), p, image, fetch),
        CorpusIsa::Mips => run_on(codense_mips::Machine::new(MEM_BYTES), p, image, fetch),
    }
}

fn run_on<C: PredecodeCore>(
    mut core: C,
    p: &Program,
    image: &container::ProgramImage,
    fetch: &mut PredecodedFetcher,
) -> Result<RunResult, String> {
    let err = |e: codense_isa::MachineError| e.to_string();
    for (t, table) in image.jump_tables.iter().enumerate() {
        let base = *p.table_addrs.get(t).ok_or("image has more jump tables than the module")?;
        for (e, &target) in table.iter().enumerate() {
            core.write32(base + 4 * e as u32, target).map_err(err)?;
        }
    }
    // Overflow-table dispatches load their target from the architected
    // `.data` slot `(OVERFLOW_TABLE_HI << 16) + 4 * slot`.
    let overflow_base = (OVERFLOW_TABLE_HI as u32) << 16;
    for (slot, &addr) in image.overflow_table.iter().enumerate() {
        core.write32(overflow_base + 4 * slot as u32, addr).map_err(err)?;
    }
    run_predecoded(&mut core, fetch, 0, step_limit(p)).map_err(err)
}

/// Checks a run against the native reference.
pub fn check_run(p: &Program, r: &RunResult) -> Result<(), String> {
    if r.exit_code != p.exit_code || r.steps != p.steps {
        return Err(format!(
            "{}: run exited {:#x} after {} steps, native run exited {:#x} after {}",
            p.label, r.exit_code, r.steps, p.exit_code, p.steps
        ));
    }
    Ok(())
}

/// The VM path: `container::deserialize` → `PredecodedFetcher::from_image_with`
/// → `run_predecoded` on a fresh machine.
pub fn vm_path(p: &Program, bytes: &[u8]) -> Result<RunResult, String> {
    let image = container::deserialize(bytes).map_err(|e| format!("container: {e}"))?;
    let mut fetch = PredecodedFetcher::from_image_with(&image, p.isa.isa_ref());
    run_fresh(p, &image, &mut fetch)
}

/// What one traced VM run measured (its stage times are in its spans).
#[derive(Debug, Clone, Copy, Default)]
pub struct VmTimes {
    pub cached_items: usize,
    pub steps: u64,
    pub bits_per_insn: f64,
}

/// The VM path stage by stage: construct, a cold run that parses and
/// fills the predecode cache, then a warm run on the same fetcher (fresh
/// machine) that replays cached items and parses nothing.
pub fn traced_vm(
    t: &mut Tracer,
    item: u64,
    parent: Option<SpanId>,
    p: &Program,
    bytes: &[u8],
) -> Result<VmTimes, String> {
    let image = t.span("vm.deserialize", item, parent, |_, _| container::deserialize(bytes));
    let image = image.map_err(|e| format!("container: {e}"))?;
    let mut fetch = t.span("vm.construct", item, parent, |_, _| {
        PredecodedFetcher::from_image_with(&image, p.isa.isa_ref())
    });
    let cold = t.span("vm.cold", item, parent, |_, _| run_fresh(p, &image, &mut fetch))?;
    check_run(p, &cold)?;
    let cached_items = fetch.cached_items();
    let warm = t.span("vm.warm", item, parent, |_, _| run_fresh(p, &image, &mut fetch))?;
    check_run(p, &warm)?;
    Ok(VmTimes { cached_items, steps: cold.steps, bits_per_insn: cold.stats.bits_per_insn() })
}
