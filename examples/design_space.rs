//! Explore the compression design space programmatically: the sweep APIs
//! behind the paper's Figures 4–8 plus the encoding-split study, on one
//! benchmark.
//!
//! ```sh
//! cargo run --release --example design_space [benchmark]
//! ```

use codense::core::sweep::{
    codeword_count_sweep_with_isa, entry_len_sweep_with_isa, small_dictionary_sweep_with_isa,
    text_nibbles_under_split, NibbleSplit,
};
use codense::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "m88ksim".to_owned());
    let module = codense::codegen::benchmark(&name, IsaId::Ppc)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    println!("design space for `{}` ({} bytes of text)\n", module.name, module.text_bytes());
    let isa = codense::codegen::isa_ref(module.isa);

    println!("dictionary entry length (baseline codewords):");
    for (len, ratio) in entry_len_sweep_with_isa(&module, isa, &[1, 2, 4, 8])? {
        println!("  entries <= {len} insns: {:.1}%", 100.0 * ratio);
    }

    println!("\nnumber of codewords (baseline, one greedy run, prefix-exact):");
    for (k, ratio) in codeword_count_sweep_with_isa(&module, isa, 4, &[16, 128, 1024, 8192])? {
        println!("  {k:5} codewords: {:.1}%", 100.0 * ratio);
    }

    println!("\nsmall dictionaries (1-byte codewords):");
    for (n, ratio) in small_dictionary_sweep_with_isa(&module, isa, &[8, 16, 32])? {
        println!("  {n:2} entries ({:3} B): {:.1}%", n * 16, 100.0 * ratio);
    }

    println!("\nnibble codeword-space splits (analytic, text nibbles):");
    let compressed = Compressor::new(CompressionConfig::nibble_aligned()).compress(&module)?;
    verify(&module, &compressed)?;
    let base = text_nibbles_under_split(&compressed, NibbleSplit::SHIPPED)?;
    for (label, split) in [
        ("shipped  8/3/2/2", NibbleSplit::SHIPPED),
        ("balanced 6/4/3/2", NibbleSplit { n4: 6, n8: 4, n12: 3, n16: 2 }),
        ("mid      4/7/2/2", NibbleSplit { n4: 4, n8: 7, n12: 2, n16: 2 }),
    ] {
        let n = text_nibbles_under_split(&compressed, split)?;
        println!(
            "  {label}: {n} nibbles ({:+.2}% vs shipped)",
            100.0 * (n as f64 - base as f64) / base as f64
        );
    }

    println!(
        "\nchosen operating point (nibble, entries <= 4, full codeword space): {:.1}%",
        100.0 * compressed.compression_ratio()
    );
    Ok(())
}
