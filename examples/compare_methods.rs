//! Compare every implemented code-compression method on one benchmark: the
//! paper's dictionary schemes against CCRP (Huffman-compressed cache lines),
//! Liao's call-dictionary / mini-subroutines, and Unix-compress LZW.
//!
//! ```sh
//! cargo run --release --example compare_methods [benchmark]
//! ```

use codense::ccrp::{self, CcrpConfig};
use codense::liao::{self, LiaoMethod};
use codense::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "go".to_owned());
    let module = codense::codegen::benchmark(&name, IsaId::Ppc)
        .unwrap_or_else(|| panic!("unknown benchmark `{name}` (try compress/gcc/go/…)"));
    println!("benchmark `{}`: {} bytes of text\n", module.name, module.text_bytes());
    println!("method                     ratio    notes");
    println!("--------------------------------------------------------------");

    let print = |method: &str, ratio: f64, notes: String| {
        println!("{method:25}  {:5.1}%   {notes}", 100.0 * ratio);
    };

    for (label, config) in [
        ("dictionary, 2-byte cw", CompressionConfig::baseline()),
        ("dictionary, 1-byte cw/32", CompressionConfig::small_dictionary(32)),
        ("dictionary, nibble cw", CompressionConfig::nibble_aligned()),
    ] {
        let c = Compressor::new(config).compress(&module)?;
        verify(&module, &c)?;
        print(
            label,
            c.compression_ratio(),
            format!("{} entries, {} B dictionary", c.dictionary.len(), c.dictionary_bytes()),
        );
    }

    let c = ccrp::compress(&module, CcrpConfig::default());
    assert_eq!(c.decompress_all().as_deref(), Some(&module.text_image()[..]));
    print(
        "CCRP (Huffman lines)",
        c.compression_ratio(),
        format!("{} lines, {} B LAT", c.line_count(), c.lat_bytes()),
    );

    let hw = liao::compress(&module, LiaoMethod::CallDictionary, 4);
    print(
        "Liao call-dictionary",
        hw.compression_ratio(),
        format!("{} sequences (>=2 insns each)", hw.dictionary.len()),
    );
    let sw = liao::compress(&module, LiaoMethod::MiniSubroutine, 4);
    print(
        "Liao mini-subroutines",
        sw.compression_ratio(),
        "software-only; call overhead at run time".to_owned(),
    );

    let image = module.text_image();
    let packed = codense::lzw::compress(&image);
    assert_eq!(codense::lzw::decompress(&packed).as_deref(), Some(&image[..]));
    print(
        "Unix compress (LZW)",
        packed.len() as f64 / image.len() as f64,
        "not executable in place; whole-image decompression".to_owned(),
    );

    println!(
        "\nthe nibble-aligned dictionary scheme keeps random access + in-place execution\n\
         while staying within a few points of LZW — the paper's headline result"
    );
    Ok(())
}
