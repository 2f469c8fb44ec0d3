//! Execute a compressed program on the compressed-program processor model
//! (the paper's Fig 3): fetch codewords from compressed instruction memory,
//! expand them through the dictionary, and issue the original instruction
//! stream — then prove the run is bit-identical to the uncompressed one.
//!
//! ```sh
//! cargo run --release --example run_compressed
//! ```

use codense::prelude::*;
use codense::vm::{kernels, run::run};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("kernel        encoding   exit     steps    bits/insn fetched");
    println!("-------------------------------------------------------------");
    for kernel in kernels::all() {
        // Reference: uncompressed execution.
        let mut machine = kernel.machine();
        let mut fetch = LinearFetcher::new(kernel.module.code.clone());
        let reference = run(&mut machine, &mut fetch, 0, 10_000_000)?;
        println!(
            "{:12}  {:9}  {:7}  {:7}  {:.2}",
            kernel.name,
            "none",
            reference.exit_code,
            reference.steps,
            reference.stats.bits_per_insn()
        );
        assert_eq!(reference.exit_code, kernel.expected);

        for (tag, config) in [
            ("baseline", CompressionConfig::baseline()),
            ("nibble", CompressionConfig::nibble_aligned()),
        ] {
            let compressed = Compressor::new(config).compress(&kernel.module)?;
            verify(&kernel.module, &compressed)?;

            let mut machine = kernel.machine();
            let mut fetch = PredecodedFetcher::new(&compressed);
            let result = run(&mut machine, &mut fetch, 0, 10_000_000)?;
            assert_eq!(result.exit_code, reference.exit_code, "{} {tag}", kernel.name);
            assert_eq!(result.steps, reference.steps, "{} {tag}", kernel.name);
            println!(
                "{:12}  {:9}  {:7}  {:7}  {:.2}",
                "",
                tag,
                result.exit_code,
                result.steps,
                result.stats.bits_per_insn()
            );
        }
    }
    println!("\nall kernels executed identically under compression");
    Ok(())
}
