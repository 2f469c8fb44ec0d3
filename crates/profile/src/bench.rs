//! The hybrid-compression benchmark suite: every runnable VM kernel,
//! extended with a large deterministic **cold section** that is reachable
//! code but never executes (the kernel halts first).
//!
//! Real firmware images look like this: a small set of hot loops plus a
//! long tail of error handlers, configuration paths, and generated feature
//! code that rarely or never runs. The raw kernels alone cannot exhibit the
//! hybrid trade-off — in a 30-instruction loop, *all* static code is hot —
//! so each benchmark grafts on a cold tail of repetitive straight-line
//! chunks (drawn from a small per-bench vocabulary, the compressor's
//! favorite diet) with occasional forward branches for block structure.

use codense_codegen::Rng;
use codense_ppc::asm::Assembler;
use codense_ppc::insn::Insn;
use codense_ppc::reg::*;
use codense_vm::kernels::{self, Kernel};

/// Cold chunks appended per benchmark (each 3–6 instructions).
const COLD_CHUNKS: usize = 96;

/// Per-suite salt so each benchmark gets a distinct but fixed cold section.
const COLD_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Assembles one deterministic cold section. Offsets are relative, so the
/// words can be appended verbatim after any kernel.
fn cold_section(seed: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed);
    let regs = [R3, R4, R5, R6, R7, R8, R9, R10];
    // A fixed vocabulary of short sequences; chunks repeat vocabulary
    // entries, so the cold tail is highly compressible.
    let mut vocab: Vec<Vec<Insn>> = Vec::new();
    for _ in 0..6 {
        let n = rng.range(3, 6);
        let mut seq = Vec::with_capacity(n);
        for _ in 0..n {
            let rt = *rng.pick(&regs);
            let ra = *rng.pick(&regs);
            seq.push(match rng.below(4) {
                0 => Insn::Addi { rt, ra, si: rng.range(0, 31) as i16 },
                1 => Insn::Add { rt, ra, rb: *rng.pick(&regs), rc: false },
                2 => Insn::Or { ra: rt, rs: ra, rb: *rng.pick(&regs), rc: false },
                _ => Insn::Rlwinm {
                    ra: rt,
                    rs: ra,
                    sh: rng.below(8) as u8,
                    mb: 0,
                    me: 31,
                    rc: false,
                },
            });
        }
        vocab.push(seq);
    }
    let mut a = Assembler::new();
    for c in 0..COLD_CHUNKS {
        a.label(&format!("chunk{c}"));
        for insn in rng.pick(&vocab).clone() {
            a.emit(insn);
        }
        // Occasional forward branch: block leaders, like real control flow.
        if c % 7 == 3 {
            a.b(&format!("chunk{}", c + 1));
        }
    }
    // Terminal landing pad for the last possible forward branch.
    a.label(&format!("chunk{COLD_CHUNKS}"));
    a.emit(Insn::Sc);
    a.finish().expect("cold section assembles")
}

/// Appends the cold section to a kernel's module. The kernel halts at its
/// own `sc` before control can ever reach the tail, so execution (and the
/// profile) is unchanged while the static image grows severalfold.
fn pad(mut kernel: Kernel, index: u64) -> Kernel {
    let cold = cold_section(0xC01D_0000_0000_0000 ^ (index + 1).wrapping_mul(COLD_SALT));
    kernel.module.code.extend_from_slice(&cold);
    let isa = codense_codegen::isa_ref(kernel.module.isa);
    kernel.module.validate_with(isa).expect("padded kernel validates");
    kernel
}

/// The full benchmark suite: every VM kernel plus its cold section.
pub fn benches() -> Vec<Kernel> {
    kernels::all().into_iter().enumerate().map(|(i, k)| pad(k, i as u64)).collect()
}

/// One benchmark by kernel name.
pub fn bench(name: &str) -> Option<Kernel> {
    kernels::all()
        .into_iter()
        .enumerate()
        .find(|(_, k)| k.name == name)
        .map(|(i, k)| pad(k, i as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_vm::{run::run, LinearFetcher};

    #[test]
    fn padded_kernels_still_pass() {
        for kernel in benches() {
            let plain = kernels::all().into_iter().find(|k| k.name == kernel.name).unwrap();
            assert!(
                kernel.module.len() >= plain.module.len() + 300,
                "{}: cold section too small",
                kernel.name
            );
            let mut fetch = LinearFetcher::new(kernel.module.code.clone());
            let result = run(&mut kernel.machine(), &mut fetch, 0, 10_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            assert_eq!(result.exit_code, kernel.expected, "{}", kernel.name);
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = benches();
        let b = benches();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.module.code, y.module.code, "{}", x.name);
        }
        assert_eq!(bench("fib").unwrap().module.code, a[0].module.code);
        assert!(bench("no-such-kernel").is_none());
    }
}
