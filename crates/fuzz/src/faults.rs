//! Fault injection: corrupted-input batteries for every decoder path.
//!
//! The contract under test is the *no-panic decoder policy*: feeding any
//! byte soup to `codense_core::container::deserialize`,
//! `codense_obj::deserialize`, the nibble-stream parser, or a
//! [`PredecodedFetcher`] booted from a corrupt-but-checksummed image must
//! produce a typed error (or a well-formed value) — never a panic, a hang,
//! or an out-of-bounds read. Each battery mutates a valid artifact (bit
//! flips, truncations, splices, extensions, and flips with the trailing
//! CRC re-fixed so corruption *passes* the integrity check), then drives
//! the decoder under `catch_unwind` with a bounded execution budget. Both
//! file batteries also rewrite the ISA tag (CRC re-fixed): an unknown tag
//! is a typed error, and a flip to the other ISA decodes and, for
//! containers, boots and runs on that ISA's core.

use std::panic::{catch_unwind, AssertUnwindSafe};

use codense_codegen::{isa_ref, with_core, Rng};
use codense_core::container;
use codense_core::encoding::read_item_coded;
use codense_core::nibbles::NibbleReader;
use codense_core::{CompressedProgram, CompressionConfig, Compressor, EncodingKind, HuffCode};
use codense_isa::{CoreVisitor, IsaRef, PredecodeCore};
use codense_obj::ObjectModule;
use codense_vm::fetch::PredecodedFetcher;

/// `.cdm` tags tried: both known ones, then unknown ones at the byte and
/// word boundaries.
const MODULE_TAGS: [u16; 8] = [0, 1, 2, 0x00ff, 0x0100, 0x0101, 0x8000, 0xffff];

/// Tally of one fault-injection battery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Corrupted inputs fed to a decoder.
    pub checks: u64,
    /// Inputs rejected with a typed error.
    pub typed_errors: u64,
    /// Inputs the decoder accepted (corruption missed the checked bytes, or
    /// was CRC-fixed on purpose).
    pub accepted: u64,
    /// Accepted images additionally driven through bounded execution.
    pub executed: u64,
    /// Panics caught — must be zero; anything else is a bug.
    pub panics: u64,
}

impl FaultReport {
    /// Accumulates another report into this one.
    pub fn absorb(&mut self, other: FaultReport) {
        self.checks += other.checks;
        self.typed_errors += other.typed_errors;
        self.accepted += other.accepted;
        self.executed += other.executed;
        self.panics += other.panics;
    }
}

/// One corruption of a byte string. Mutations that leave the input
/// unchanged (flipping a bit back, zero-length splice) are fine: the
/// decoder must accept the valid form too.
///
/// Public so other robustness batteries (e.g. the serve-protocol
/// malformed-frame tests in `codense-service`) corrupt their inputs with
/// exactly the patterns this crate's decoders are hardened against.
pub fn corrupt(bytes: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.below(5) {
        // Single or multi bit flip.
        0 => {
            for _ in 0..rng.range(1, 4) {
                if out.is_empty() {
                    break;
                }
                let i = rng.below(out.len());
                out[i] ^= 1 << rng.below(8);
            }
        }
        // Truncation (uniform over lengths, biased to field boundaries by
        // the dedicated loop in each battery).
        1 => {
            out.truncate(rng.below(out.len().max(1)));
        }
        // Splice: copy a random slice over another position.
        2 => {
            if out.len() >= 2 {
                let len = rng.range(1, (out.len() / 2).max(1));
                let src = rng.below(out.len() - len + 1);
                let dst = rng.below(out.len() - len + 1);
                let chunk = out[src..src + len].to_vec();
                out[dst..dst + len].copy_from_slice(&chunk);
            }
        }
        // Extension with junk.
        3 => {
            for _ in 0..rng.range(1, 16) {
                out.push(rng.next_u64() as u8);
            }
        }
        // Flip payload bits, then re-fix the trailing CRC-32 so the
        // corruption survives the integrity check and reaches the parser.
        _ => {
            if out.len() > 8 {
                let i = rng.below(out.len() - 4);
                out[i] ^= 1 << rng.below(8);
                refix_crc(&mut out);
            }
        }
    }
    out
}

/// Re-stamps the trailing CRC-32 (both formats end in one) so a mutation
/// passes the integrity check and reaches the parser.
fn refix_crc(bytes: &mut [u8]) {
    let (payload, crc) = bytes.split_at_mut(bytes.len() - 4);
    crc.copy_from_slice(&codense_obj::crc32::crc32(payload).to_be_bytes());
}

/// `bytes` with the `width`-byte big-endian field at `at` set to `tag` and
/// the CRC re-fixed.
fn with_tag(bytes: &[u8], at: usize, width: usize, tag: u16) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[at..at + width].copy_from_slice(&tag.to_be_bytes()[2 - width..]);
    refix_crc(&mut out);
    out
}

/// Drives a fetcher booted from an accepted (possibly corrupt) image for a
/// bounded number of steps on a fresh core of the ISA the image records.
/// Every outcome — clean halt, typed fault, budget exhaustion — is
/// acceptable; only a panic is not.
fn bounded_run(image: &container::ProgramImage, max_steps: u64) {
    with_core(image.isa, 1 << 16, BoundedRun { image, max_steps });
}

/// [`bounded_run`]'s run, on the concrete machine [`with_core`] boots.
struct BoundedRun<'a> {
    image: &'a container::ProgramImage,
    max_steps: u64,
}

impl CoreVisitor for BoundedRun<'_> {
    type Output = ();

    fn visit<C: PredecodeCore + 'static>(self, mut core: C) {
        let mut fetcher = PredecodedFetcher::from_image_with(self.image, isa_ref(self.image.isa));
        let _ = codense_vm::run(&mut core, &mut fetcher, 0, self.max_steps);
    }
}

/// Corrupts the `.cdns` container of a compressed program `tries` times and
/// checks the decode-and-execute path end to end, booting each accepted
/// image on the ISA it records. Every tag value is tried too.
pub fn container_battery(
    compressed: &CompressedProgram,
    rng: &mut Rng,
    tries: usize,
) -> FaultReport {
    let bytes = container::serialize(compressed);
    let mut report = FaultReport::default();

    // Deterministic boundary truncations of the valid container, then the
    // randomized mutation battery, then every ISA tag.
    let boundary_lens =
        (0..bytes.len().min(32)).chain((bytes.len().saturating_sub(8)..bytes.len()).rev());
    let mut inputs: Vec<Vec<u8>> = boundary_lens.map(|n| bytes[..n].to_vec()).collect();
    for _ in 0..tries {
        inputs.push(corrupt(&bytes, rng));
    }
    inputs.extend((0..=u8::MAX).map(|tag| with_tag(&bytes, container::ISA_TAG_AT, 1, tag.into())));

    for input in inputs {
        report.checks += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| match container::deserialize(&input) {
            Ok(image) => {
                bounded_run(&image, 50_000);
                (false, true)
            }
            Err(_) => (true, false),
        }));
        match outcome {
            Ok((typed, executed)) => {
                report.typed_errors += typed as u64;
                report.accepted += executed as u64;
                report.executed += executed as u64;
            }
            Err(_) => report.panics += 1,
        }
    }
    report
}

/// Corrupts the `.cdm` serialized form of an object module `tries` times;
/// accepted modules are validated and, when still valid, compressed for
/// the ISA they record — the compressor must also return typed errors,
/// never panic. The known tags and a spread of unknown ones are tried too.
pub fn module_battery(module: &ObjectModule, rng: &mut Rng, tries: usize) -> FaultReport {
    let bytes = codense_obj::serialize(module);
    let mut report = FaultReport::default();

    let boundary_lens =
        (0..bytes.len().min(32)).chain((bytes.len().saturating_sub(8)..bytes.len()).rev());
    let mut inputs: Vec<Vec<u8>> = boundary_lens.map(|n| bytes[..n].to_vec()).collect();
    for _ in 0..tries {
        inputs.push(corrupt(&bytes, rng));
    }
    inputs.extend(
        MODULE_TAGS.map(|tag| with_tag(&bytes, codense_obj::serialize::ISA_TAG_AT, 2, tag)),
    );

    for input in inputs {
        report.checks += 1;
        let config = match rng.below(3) {
            0 => CompressionConfig::baseline(),
            1 => CompressionConfig::small_dictionary(32),
            _ => CompressionConfig::nibble_aligned(),
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| match codense_obj::deserialize(&input) {
            Ok(m) => {
                let mut exercised = false;
                let isa = isa_ref(m.isa);
                if m.validate_with(isa).is_ok() && m.len() <= 4 * module.len() + 64 {
                    // Typed CompressError or success — both fine; the size
                    // bound keeps spliced-length monsters cheap.
                    let _ = Compressor::new(config).with_isa(isa).compress(&m);
                    exercised = true;
                }
                (false, exercised)
            }
            Err(_) => (true, false),
        }));
        match outcome {
            Ok((typed, executed)) => {
                report.typed_errors += typed as u64;
                report.accepted += (!typed) as u64;
                report.executed += executed as u64;
            }
            Err(_) => report.panics += 1,
        }
    }
    report
}

/// Feeds random nibble soup to the stream parser under every encoding, with
/// `isa`'s escape bytes, and asserts it terminates with monotonic progress —
/// the decoder loop of the paper's fetch hardware must never live-lock on
/// garbage. The Huffman scheme parses against a fixed small code table
/// (soup decodes to random symbols; the parser must still terminate and
/// make progress).
pub fn nibble_soup_battery(isa: IsaRef, rng: &mut Rng, tries: usize) -> FaultReport {
    let mut report = FaultReport::default();
    let huff = HuffCode::from_frequencies(&[40, 20, 10, 5, 2, 1, 1], 80);
    for _ in 0..tries {
        let len = rng.range(1, 96);
        let soup: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        for kind in [
            EncodingKind::Baseline,
            EncodingKind::OneByte,
            EncodingKind::NibbleAligned,
            EncodingKind::Huffman,
        ] {
            report.checks += 1;
            let table = (kind == EncodingKind::Huffman).then_some(&huff);
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                let mut r = NibbleReader::new(&soup);
                let mut last = r.pos();
                let mut items = 0u64;
                while let Some(_item) = read_item_coded(kind, isa, table, &mut r) {
                    assert!(r.pos() > last, "parser made no progress at nibble {last}");
                    last = r.pos();
                    items += 1;
                    assert!(items <= 2 * soup.len() as u64 + 2, "parser over-ran the stream");
                }
                items
            }));
            match outcome {
                Ok(_) => report.typed_errors += 1,
                Err(_) => report.panics += 1,
            }
        }
    }
    report
}

/// Hostile-input battery for the two standalone entropy decoders the
/// comparison models use: `codense_huffman::decode_checked` (CCRP's
/// line-oriented Huffman) and `codense_lzw::decompress_checked` (the Unix
/// Compress model). Both must return typed errors on truncated streams,
/// invalid codes, and claimed lengths larger than the bit supply — never
/// panic, and never allocate past the caller's bound.
pub fn entropy_decoder_battery(rng: &mut Rng, tries: usize) -> FaultReport {
    let mut report = FaultReport::default();

    // A small skewed corpus both coders compress well.
    let data: Vec<u8> = (0..1024u32).map(|i| (i % 7 + i % 3) as u8).collect();
    let hcode =
        codense_huffman::HuffmanCode::from_frequencies(&codense_huffman::byte_frequencies(&data));
    let hbits = codense_huffman::encode(&hcode, &data);

    for _ in 0..tries {
        // Huffman: corrupted bits with an honest count, then a forged count
        // exceeding the bit supply (must be rejected before allocating).
        let bad_bits = corrupt(&hbits, rng);
        let forged_count = bad_bits.len().saturating_mul(8) + 1 + rng.below(1 << 20);
        for (bits, count) in [(&bad_bits, data.len()), (&bad_bits, forged_count)] {
            report.checks += 1;
            match catch_unwind(AssertUnwindSafe(|| {
                codense_huffman::decode_checked(&hcode, bits, count).map(|out| out.len())
            })) {
                Ok(Ok(n)) => {
                    assert_eq!(n, count);
                    report.accepted += 1;
                }
                Ok(Err(_)) => report.typed_errors += 1,
                Err(_) => report.panics += 1,
            }
        }

        // LZW: corrupted compressed stream under a hard output bound — the
        // bound caps allocation no matter what the stream claims.
        let max_out = 4 * data.len();
        let bad = corrupt(&codense_lzw::compress(&data), rng);
        report.checks += 1;
        match catch_unwind(AssertUnwindSafe(|| {
            codense_lzw::decompress_checked(&bad, max_out).map(|out| out.len())
        })) {
            Ok(Ok(n)) => {
                assert!(n <= max_out, "LZW output {n} exceeds the {max_out}-byte bound");
                report.accepted += 1;
            }
            Ok(Err(_)) => report.typed_errors += 1,
            Err(_) => report.panics += 1,
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::{R3, R4};

    fn module() -> ObjectModule {
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        for _ in 0..24 {
            m.code.push(encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }));
            m.code.push(encode(&Insn::Addi { rt: R4, ra: R4, si: 2 }));
        }
        m.code.push(encode(&Insn::Sc));
        m
    }

    #[test]
    fn container_battery_never_panics() {
        let c = Compressor::new(CompressionConfig::nibble_aligned()).compress(&module()).unwrap();
        let mut rng = Rng::new(7);
        let report = container_battery(&c, &mut rng, 150);
        assert_eq!(report.panics, 0, "{report:?}");
        assert!(report.typed_errors > 0);
        assert!(report.checks >= 150);
    }

    #[test]
    fn module_battery_never_panics() {
        let mut rng = Rng::new(8);
        let report = module_battery(&module(), &mut rng, 150);
        assert_eq!(report.panics, 0, "{report:?}");
        assert!(report.typed_errors > 0);
    }

    /// With no random tries, each battery runs only its boundary
    /// truncations (all rejected) and its tag sweep: every unknown tag is a
    /// typed error, and each known tag decodes (a container then boots and
    /// runs on that ISA's core).
    #[test]
    fn isa_tag_sweeps_reject_unknown_tags_and_run_known_ones() {
        use codense_isa::IsaId;
        use codense_mips::insn::MInsn;
        use codense_mips::reg::V0;
        let mut mips = ObjectModule::new("t", IsaId::Mips);
        mips.code = vec![codense_mips::encode(&MInsn::Addiu { rt: V0, rs: V0, imm: 1 }); 24];
        mips.code.push(codense_mips::encode(&MInsn::Syscall));
        for m in [module(), mips] {
            let isa = isa_ref(m.isa);
            let config = CompressionConfig::nibble_aligned();
            let c = Compressor::new(config).with_isa(isa).compress(&m).unwrap();
            for report in [
                container_battery(&c, &mut Rng::new(11), 0),
                module_battery(&m, &mut Rng::new(12), 0),
            ] {
                assert_eq!(report.panics, 0, "{} {report:?}", m.isa);
                assert_eq!(report.accepted, IsaId::ALL.len() as u64, "{} {report:?}", m.isa);
                assert_eq!(report.typed_errors, report.checks - report.accepted);
            }
        }
    }

    #[test]
    fn nibble_soup_never_hangs_or_panics() {
        let mut rng = Rng::new(9);
        let report = nibble_soup_battery(IsaRef(&codense_ppc::ISA), &mut rng, 120);
        assert_eq!(report.panics, 0, "{report:?}");
        assert_eq!(report.checks, 4 * 120);
    }

    #[test]
    fn entropy_decoders_never_panic_and_reject_forged_lengths() {
        let mut rng = Rng::new(10);
        let report = entropy_decoder_battery(&mut rng, 100);
        assert_eq!(report.panics, 0, "{report:?}");
        // Every forged-count huffman probe must be a typed rejection, so at
        // least a third of all checks are typed errors.
        assert!(report.typed_errors >= 100, "{report:?}");
    }

    #[test]
    fn huffman_container_battery_never_panics() {
        let c = Compressor::new(CompressionConfig::huffman()).compress(&module()).unwrap();
        let mut rng = Rng::new(11);
        let report = container_battery(&c, &mut rng, 150);
        assert_eq!(report.panics, 0, "{report:?}");
        assert!(report.typed_errors > 0);
    }
}
