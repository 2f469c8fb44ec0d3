#![warn(missing_docs)]

//! CCRP baseline: the Compressed Code RISC Processor of Wolfe & Chanin
//! (MICRO-25, 1992), as described in §2.3 of the reproduced paper.
//!
//! CCRP Huffman-compresses each instruction-cache line independently at
//! compile time; at run time, missed lines are fetched from main memory,
//! decompressed, and installed in the cache at their *uncompressed*
//! addresses. Because compressed lines land at unpredictable main-memory
//! addresses, a Line Address Table (LAT) maps line numbers to compressed
//! locations.
//!
//! The reproduced paper contrasts its scheme with CCRP on two axes this
//! model captures:
//!
//! * CCRP "compresses on the granularity of bytes rather than full
//!   instructions", so it pays per-byte decode work and achieves byte-level
//!   (statistical) compression;
//! * CCRP needs the LAT, whereas the dictionary scheme patches branches
//!   instead.
//!
//! # Example
//!
//! ```
//! let module = codense_codegen::benchmark("compress", codense_obj::IsaId::Ppc).unwrap();
//! let c = codense_ccrp::compress(&module, codense_ccrp::CcrpConfig::default());
//! assert!(c.compression_ratio() < 1.0);
//! let line0 = c.decompress_line(0).unwrap();
//! assert_eq!(line0, &module.text_image()[..c.config().line_bytes]);
//! ```

use codense_huffman::{byte_frequencies, HuffmanCode};
use codense_obj::ObjectModule;

/// CCRP parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CcrpConfig {
    /// Cache line size in bytes (Wolfe & Chanin evaluate 32-byte lines).
    pub line_bytes: usize,
    /// Bytes per Line Address Table entry. A full pointer is 4; Wolfe's
    /// compacted LAT stores one base pointer plus packed offsets per line
    /// group, averaging closer to 1 — configurable so both ends can be
    /// studied.
    pub lat_entry_bytes: usize,
}

impl Default for CcrpConfig {
    fn default() -> CcrpConfig {
        CcrpConfig { line_bytes: 32, lat_entry_bytes: 4 }
    }
}

/// A CCRP-compressed program image.
#[derive(Debug, Clone)]
pub struct CcrpCompressed {
    config: CcrpConfig,
    /// The byte-Huffman code (built from whole-program byte frequencies).
    code: HuffmanCode,
    /// Each line's compressed bytes (byte-aligned, as the hardware requires
    /// random access per line).
    lines: Vec<Vec<u8>>,
    /// Uncompressed byte length of each line (the final line may be short).
    line_lens: Vec<usize>,
    /// Original text size in bytes.
    original_bytes: usize,
}

/// Compresses a module's text image line by line.
pub fn compress(module: &ObjectModule, config: CcrpConfig) -> CcrpCompressed {
    let image = module.text_image();
    let code = HuffmanCode::from_frequencies(&byte_frequencies(&image));
    let mut lines = Vec::new();
    let mut line_lens = Vec::new();
    for chunk in image.chunks(config.line_bytes.max(1)) {
        lines.push(codense_huffman::encode(&code, chunk));
        line_lens.push(chunk.len());
    }
    CcrpCompressed { config, code, lines, line_lens, original_bytes: image.len() }
}

impl CcrpCompressed {
    /// The configuration used.
    pub fn config(&self) -> &CcrpConfig {
        &self.config
    }

    /// Number of cache lines.
    pub fn line_count(&self) -> usize {
        self.lines.len()
    }

    /// Total compressed text bytes (every line byte-aligned).
    pub fn compressed_text_bytes(&self) -> usize {
        self.lines.iter().map(Vec::len).sum()
    }

    /// Line Address Table size in bytes.
    pub fn lat_bytes(&self) -> usize {
        self.lines.len() * self.config.lat_entry_bytes
    }

    /// Size of the transmissible Huffman model (canonical code lengths).
    pub fn model_bytes(&self) -> usize {
        256
    }

    /// Compression ratio including LAT and model overhead (comparable to
    /// the dictionary scheme's ratio, which includes its dictionary).
    pub fn compression_ratio(&self) -> f64 {
        (self.compressed_text_bytes() + self.lat_bytes() + self.model_bytes()) as f64
            / self.original_bytes as f64
    }

    /// Decompresses one line (what the cache-miss path does).
    ///
    /// Returns `None` for an out-of-range line or a corrupt stream.
    pub fn decompress_line(&self, line: usize) -> Option<Vec<u8>> {
        let bits = self.lines.get(line)?;
        codense_huffman::decode(&self.code, bits, self.line_lens[line])
    }

    /// Decompresses the whole image (for verification).
    pub fn decompress_all(&self) -> Option<Vec<u8>> {
        let mut out = Vec::with_capacity(self.original_bytes);
        for i in 0..self.lines.len() {
            out.extend_from_slice(&self.decompress_line(i)?);
        }
        Some(out)
    }
}

/// Compression ratio across cache-line sizes — Wolfe & Chanin's central
/// trade-off: longer lines amortize Huffman padding (better ratio) but cost
/// more per-miss decompression latency.
pub fn line_size_sweep(module: &ObjectModule, line_sizes: &[usize]) -> Vec<(usize, f64)> {
    line_sizes
        .iter()
        .map(|&line_bytes| {
            let c = compress(module, CcrpConfig { line_bytes, lat_entry_bytes: 4 });
            (line_bytes, c.compression_ratio())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_ppc::encode as enc;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    fn module() -> ObjectModule {
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        for i in 0..200 {
            m.code.push(enc(&Insn::Addi { rt: R3, ra: R3, si: (i % 5) as i16 }));
            m.code.push(enc(&Insn::Lwz { rt: R9, ra: R1, d: 8 }));
        }
        m
    }

    #[test]
    fn roundtrip_whole_image() {
        let m = module();
        let c = compress(&m, CcrpConfig::default());
        assert_eq!(c.decompress_all().unwrap(), m.text_image());
    }

    #[test]
    fn lines_are_independent() {
        let m = module();
        let c = compress(&m, CcrpConfig::default());
        let img = m.text_image();
        let line = c.line_count() / 2;
        let got = c.decompress_line(line).unwrap();
        assert_eq!(got, &img[line * 32..line * 32 + 32]);
        assert_eq!(c.decompress_line(c.line_count()), None);
    }

    #[test]
    fn ratio_includes_lat_and_model() {
        let m = module();
        let c = compress(&m, CcrpConfig::default());
        let ratio = c.compression_ratio();
        let text_only = c.compressed_text_bytes() as f64 / m.text_bytes() as f64;
        assert!(ratio > text_only);
        assert!(ratio < 1.0, "redundant code should compress: {ratio}");
    }

    #[test]
    fn smaller_lat_entries_improve_ratio() {
        let m = module();
        let fat = compress(&m, CcrpConfig { line_bytes: 32, lat_entry_bytes: 4 });
        let thin = compress(&m, CcrpConfig { line_bytes: 32, lat_entry_bytes: 1 });
        assert!(thin.compression_ratio() < fat.compression_ratio());
    }

    #[test]
    fn longer_lines_compress_better() {
        let m = module();
        let sweep = line_size_sweep(&m, &[8, 16, 32, 64, 128]);
        for pair in sweep.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 + 0.01,
                "padding + LAT amortization should improve with line size: {sweep:?}"
            );
        }
    }

    #[test]
    fn short_final_line_handled() {
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        m.code = vec![enc(&Insn::Sc); 9]; // 36 bytes: one full + one short line
        let c = compress(&m, CcrpConfig::default());
        assert_eq!(c.line_count(), 2);
        assert_eq!(c.decompress_all().unwrap(), m.text_image());
    }
}
