//! Quickstart: compress a benchmark program, inspect the result, and verify
//! the round trip.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use codense::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A deterministic synthetic stand-in for SPEC CINT95 `ijpeg` compiled
    // with GCC -O2 for PowerPC (statically linked).
    let module = codense::codegen::benchmark("ijpeg", IsaId::Ppc).expect("known benchmark");
    println!(
        "program `{}`: {} instructions, {} bytes of text, {} functions",
        module.name,
        module.len(),
        module.text_bytes(),
        module.functions.len()
    );

    for (label, config) in [
        ("baseline (2-byte codewords)", CompressionConfig::baseline()),
        ("small dictionary (1-byte codewords)", CompressionConfig::small_dictionary(32)),
        ("nibble-aligned (4/8/12/16-bit codewords)", CompressionConfig::nibble_aligned()),
    ] {
        let compressed = Compressor::new(config).compress(&module)?;
        // Prove the compressed program expands back to the original.
        verify(&module, &compressed)?;
        println!(
            "\n{label}\n  text {} -> {} bytes, dictionary {} entries / {} bytes",
            module.text_bytes(),
            compressed.text_bytes(),
            compressed.dictionary.len(),
            compressed.dictionary_bytes(),
        );
        println!(
            "  compression ratio {:.1}% ({:.1}% smaller)",
            100.0 * compressed.compression_ratio(),
            100.0 * (1.0 - compressed.compression_ratio()),
        );
    }

    // Peek at the hottest dictionary entries of the aggressive scheme.
    let compressed = Compressor::new(CompressionConfig::nibble_aligned()).compress(&module)?;
    println!("\nhottest dictionary entries (shortest codewords):");
    for rank in 0..5 {
        let entry = compressed.dictionary.entry_of_rank(rank);
        let e = compressed.dictionary.entry(entry);
        println!("  rank {rank} (replaced {} occurrences):", e.replaced);
        for &w in &e.words {
            println!("    {}", codense::ppc::disasm::disassemble(w, 0));
        }
    }
    Ok(())
}
