//! Embedded-firmware scenario: a cost-constrained controller whose ROM
//! budget forces a *small* on-chip dictionary (the paper's §4.1.2: "some
//! implementations of a compressed code processor may be constrained to use
//! small dictionaries").
//!
//! This example builds a firmware-like control program with the synthetic
//! compiler, then explores the ROM/dictionary trade-off: how much instruction
//! ROM a 128/256/512-byte dictionary saves, and what the break-even
//! dictionary size is.
//!
//! ```sh
//! cargo run --release --example embedded_firmware
//! ```

use codense::codegen::{BenchProfile, LowerOptions};
use codense::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small control-oriented firmware: many tiny handler functions, heavy
    // byte I/O, dense switch dispatch — the "control oriented embedded
    // applications" of the paper's introduction.
    let profile = BenchProfile {
        name: "firmware",
        seed: 0xF1A3_0001,
        functions: 40,
        stmts: (4, 10),
        locals: (2, 6),
        expr_depth: 3,
        globals: 48,
        byte_ops: 0.6,
        stmt_weights: [10, 8, 3, 4, 4, 4, 6],
        cr1_bias: 0.3,
        else_prob: 0.35,
        switch_cases: (4, 10),
        giant_funcs: 0,
    };
    let module = codense::codegen::generate_module(&profile, IsaId::Ppc, LowerOptions::default());
    println!(
        "firmware image: {} instructions = {} bytes of instruction ROM\n",
        module.len(),
        module.text_bytes()
    );

    println!("dictionary entries | dict ROM | text ROM | total | saved");
    println!("-------------------+----------+----------+-------+------");
    let mut best: Option<(usize, usize)> = None;
    for entries in [4usize, 8, 16, 32] {
        let compressed =
            Compressor::new(CompressionConfig::small_dictionary(entries)).compress(&module)?;
        verify(&module, &compressed)?;
        let total = compressed.text_bytes() + compressed.dictionary_bytes();
        let saved = module.text_bytes() as i64 - total as i64;
        println!(
            "{:18} | {:8} | {:8} | {:5} | {:5}",
            compressed.dictionary.len(),
            compressed.dictionary_bytes(),
            compressed.text_bytes(),
            total,
            saved,
        );
        if best.is_none_or(|(_, t)| total < t) {
            best = Some((entries, total));
        }
    }
    let (best_entries, best_total) = best.expect("at least one configuration");
    println!(
        "\nbest small-dictionary config: {best_entries} entries -> {best_total} bytes \
         ({:.1}% of the original ROM)",
        100.0 * best_total as f64 / module.text_bytes() as f64
    );

    // For contrast: what the unconstrained nibble-aligned scheme would do if
    // the decoder budget allowed it.
    let aggressive = Compressor::new(CompressionConfig::nibble_aligned()).compress(&module)?;
    verify(&module, &aggressive)?;
    println!(
        "unconstrained nibble-aligned scheme: {:.1}% of original ROM ({} dictionary entries)",
        100.0 * aggressive.compression_ratio(),
        aggressive.dictionary.len(),
    );
    Ok(())
}
