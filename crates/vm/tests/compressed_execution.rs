//! End-to-end equivalence: every kernel, compressed under every encoding,
//! must execute to the same result and the same final memory/register state
//! as its uncompressed original.

use codense_core::{verify::verify, CompressionConfig, Compressor};
use codense_vm::{kernels, machine::Machine, run::run, LinearFetcher, PredecodedFetcher};

fn configs() -> Vec<(&'static str, CompressionConfig)> {
    vec![
        ("baseline", CompressionConfig::baseline()),
        ("one-byte", CompressionConfig::small_dictionary(32)),
        ("nibble", CompressionConfig::nibble_aligned()),
    ]
}

#[test]
fn compressed_kernels_match_uncompressed() {
    for kernel in kernels::all() {
        // Reference run.
        let mut ref_machine = Machine::new(1 << 20);
        kernel.apply_init(&mut ref_machine);
        let mut ref_fetch = LinearFetcher::new(kernel.module.code.clone());
        let reference = run(&mut ref_machine, &mut ref_fetch, 0, 1_000_000)
            .unwrap_or_else(|e| panic!("{} uncompressed: {e}", kernel.name));
        assert_eq!(reference.exit_code, kernel.expected, "{}", kernel.name);

        for (tag, config) in configs() {
            let compressed = Compressor::new(config)
                .compress(&kernel.module)
                .unwrap_or_else(|e| panic!("{} {tag}: {e}", kernel.name));
            verify(&kernel.module, &compressed)
                .unwrap_or_else(|e| panic!("{} {tag}: {e}", kernel.name));

            let mut machine = Machine::new(1 << 20);
            kernel.apply_init(&mut machine);
            let mut fetch = PredecodedFetcher::new(&compressed);
            let result = run(&mut machine, &mut fetch, 0, 1_000_000)
                .unwrap_or_else(|e| panic!("{} {tag}: {e}", kernel.name));

            assert_eq!(result.exit_code, reference.exit_code, "{} {tag}", kernel.name);
            assert_eq!(result.steps, reference.steps, "{} {tag}: same dynamic path", kernel.name);
            // r0 and LR may hold code addresses, which legitimately differ
            // between the compressed and uncompressed PC domains; everything
            // else must match.
            assert_eq!(machine.gpr[2..], ref_machine.gpr[2..], "{} {tag}", kernel.name);
            assert_eq!(machine.cr, ref_machine.cr, "{} {tag}", kernel.name);
            // Data memory must match outside the stack region (stale spilled
            // return addresses below the restored SP differ by domain).
            let data_top = 0xE0000;
            assert_eq!(
                machine.mem[..data_top],
                ref_machine.mem[..data_top],
                "{} {tag}",
                kernel.name
            );
        }
    }
}

/// Stronger form of [`compressed_kernels_match_uncompressed`]: instead of
/// comparing final states, run every kernel through the differential oracle,
/// which checks the *whole trace* — per-step PC correspondence against the
/// atom map, fetched instructions, every unmasked register, the CR/CA
/// flags, and the control-flow outcome — under all three encodings.
#[test]
fn kernels_lockstep_full_trace_under_all_encodings() {
    use codense_fuzz::oracle::{lockstep, LockstepOk, TraceMask};

    // r0 legitimately differs: call-heavy kernels stage LR (a fetch-domain
    // address) through it. The stack region likewise holds spilled return
    // addresses, which are domain-specific.
    let mask =
        TraceMask { skip_gprs: 1 << 0, mem_skip: std::iter::once(0xE0000..1 << 20).collect() };

    for kernel in kernels::all() {
        assert!(
            kernel.module.jump_tables.is_empty(),
            "{}: kernels are table-free; extend table_addrs handling if this changes",
            kernel.name
        );
        // Reference step count, for the cross-encoding agreement check.
        let mut ref_machine = Machine::new(1 << 20);
        kernel.apply_init(&mut ref_machine);
        let mut ref_fetch = LinearFetcher::new(kernel.module.code.clone());
        let reference = run(&mut ref_machine, &mut ref_fetch, 0, 1_000_000).unwrap();

        for (tag, config) in configs() {
            let compressed = Compressor::new(config)
                .compress(&kernel.module)
                .unwrap_or_else(|e| panic!("{} {tag}: {e}", kernel.name));
            let boot = || {
                let mut machine = Machine::new(1 << 20);
                kernel.apply_init(&mut machine);
                Box::new(machine)
            };
            let got = lockstep(&kernel.module, &compressed, &[], &boot, &mask, 1_000_000)
                .unwrap_or_else(|d| panic!("{} {tag}: trace divergence: {d}", kernel.name));
            assert_eq!(
                got,
                LockstepOk::Completed { steps: reference.steps, exit: kernel.expected },
                "{} {tag}",
                kernel.name
            );
        }
    }
}

#[test]
fn compressed_fetch_bandwidth_not_worse() {
    // Dictionary expansion means fewer program-memory bits per delivered
    // instruction on compressible kernels.
    let kernel = kernels::bubble_sort();
    let compressed =
        Compressor::new(CompressionConfig::nibble_aligned()).compress(&kernel.module).unwrap();

    let mut m1 = Machine::new(1 << 20);
    kernel.apply_init(&mut m1);
    let mut lf = LinearFetcher::new(kernel.module.code.clone());
    let r1 = run(&mut m1, &mut lf, 0, 1_000_000).unwrap();

    let mut m2 = Machine::new(1 << 20);
    kernel.apply_init(&mut m2);
    let mut cf = PredecodedFetcher::new(&compressed);
    let r2 = run(&mut m2, &mut cf, 0, 1_000_000).unwrap();

    assert_eq!(r1.exit_code, r2.exit_code);
    assert!(
        r2.stats.bits_per_insn() <= r1.stats.bits_per_insn(),
        "compressed {} vs linear {}",
        r2.stats.bits_per_insn(),
        r1.stats.bits_per_insn()
    );
}

#[test]
fn container_roundtrip_executes_identically() {
    // Flash-image path: compress -> serialize -> deserialize -> boot.
    use codense_core::container::{deserialize, serialize};
    for kernel in kernels::all() {
        let compressed =
            Compressor::new(CompressionConfig::nibble_aligned()).compress(&kernel.module).unwrap();
        let image = deserialize(&serialize(&compressed)).unwrap();
        assert_eq!(image, compressed.to_image());

        let mut machine = Machine::new(1 << 20);
        kernel.apply_init(&mut machine);
        let mut fetch = PredecodedFetcher::from_image_with(&image, compressed.isa);
        let result = run(&mut machine, &mut fetch, 0, 1_000_000)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
        assert_eq!(result.exit_code, kernel.expected, "{}", kernel.name);
    }
}
