//! Hand-written runnable kernels: real programs (loops, calls, memory,
//! sorting, hashing) used to prove that compressed programs execute
//! identically to their originals on the [`crate::machine::Machine`].

use crate::machine::Machine;
use codense_obj::ObjectModule;
use codense_ppc::asm::Assembler;
use codense_ppc::insn::Insn;
use codense_ppc::reg::*;

/// A runnable test program with its input memory image and expected result.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// Kernel name.
    pub name: &'static str,
    /// The program.
    pub module: ObjectModule,
    /// Initial memory contents as (address, bytes) pairs.
    pub init_mem: Vec<(u32, Vec<u8>)>,
    /// Expected `r3` at halt.
    pub expected: u32,
}

impl Kernel {
    /// A fresh machine with 1 MiB of memory holding the kernel's input
    /// data: the machine every kernel runs on.
    pub fn machine(&self) -> Machine {
        let mut machine = Machine::new(1 << 20);
        for (addr, bytes) in &self.init_mem {
            let a = *addr as usize;
            machine.mem[a..a + bytes.len()].copy_from_slice(bytes);
        }
        machine
    }
}

fn finish(
    name: &'static str,
    a: Assembler,
    init_mem: Vec<(u32, Vec<u8>)>,
    expected: u32,
) -> Kernel {
    let mut module = ObjectModule::new(name, codense_obj::IsaId::Ppc);
    module.code = a.finish().expect("kernel assembles");
    module.validate_with(codense_isa::IsaRef(&codense_ppc::ISA)).expect("kernel validates");
    Kernel { name, module, init_mem, expected }
}

/// Iterative Fibonacci: `fib(20) = 6765`.
pub fn fib() -> Kernel {
    let mut a = Assembler::new();
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 0 });
    a.emit(Insn::Addi { rt: R4, ra: R0, si: 1 });
    a.emit(Insn::Addi { rt: R5, ra: R0, si: 20 });
    a.label("loop");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R5, si: 0 });
    a.beq(CR0, "done");
    a.emit(Insn::Add { rt: R6, ra: R3, rb: R4, rc: false });
    a.emit(Insn::Or { ra: R3, rs: R4, rb: R4, rc: false });
    a.emit(Insn::Or { ra: R4, rs: R6, rb: R6, rc: false });
    a.emit(Insn::Addi { rt: R5, ra: R5, si: -1 });
    a.b("loop");
    a.label("done");
    a.emit(Insn::Sc);
    finish("fib", a, vec![], 6765)
}

/// Sums 32 words `i²` stored at `0x1000`: Σ i² for i in 0..32 = 10416.
pub fn sum_array() -> Kernel {
    let mut a = Assembler::new();
    a.emit(Insn::Addi { rt: R9, ra: R0, si: 0x1000 });
    a.emit(Insn::Addi { rt: R10, ra: R0, si: 32 });
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 0 });
    a.label("loop");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R10, si: 0 });
    a.beq(CR0, "done");
    a.emit(Insn::Lwz { rt: R12, ra: R9, d: 0 });
    a.emit(Insn::Add { rt: R3, ra: R3, rb: R12, rc: false });
    a.emit(Insn::Addi { rt: R9, ra: R9, si: 4 });
    a.emit(Insn::Addi { rt: R10, ra: R10, si: -1 });
    a.b("loop");
    a.label("done");
    a.emit(Insn::Sc);

    let mut bytes = Vec::new();
    let mut expected = 0u32;
    for i in 0..32u32 {
        bytes.extend_from_slice(&(i * i).to_be_bytes());
        expected += i * i;
    }
    finish("sum_array", a, vec![(0x1000, bytes)], expected)
}

/// Bubble-sorts 16 descending words at `0x2000`, then returns the
/// position-weighted checksum Σ (i+1)·a\[i\] = Σ k² for k = 1..=16 = 1496.
pub fn bubble_sort() -> Kernel {
    let mut a = Assembler::new();
    a.emit(Insn::Addi { rt: R9, ra: R0, si: 0x2000 });
    a.emit(Insn::Addi { rt: R10, ra: R0, si: 16 });
    a.emit(Insn::Addi { rt: R14, ra: R10, si: -1 });
    a.label("outer");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R14, si: 0 });
    a.ble(CR0, "sorted");
    a.emit(Insn::Addi { rt: R15, ra: R0, si: 0 });
    a.label("inner");
    a.emit(Insn::Cmpw { bf: CR0, ra: R15, rb: R14 });
    a.bge(CR0, "inner_done");
    a.emit(Insn::Rlwinm { ra: R16, rs: R15, sh: 2, mb: 0, me: 29, rc: false });
    a.emit(Insn::Lwzx { rt: R17, ra: R9, rb: R16 });
    a.emit(Insn::Addi { rt: R18, ra: R16, si: 4 });
    a.emit(Insn::Lwzx { rt: R19, ra: R9, rb: R18 });
    a.emit(Insn::Cmpw { bf: CR0, ra: R17, rb: R19 });
    a.ble(CR0, "noswap");
    a.emit(Insn::Stwx { rs: R19, ra: R9, rb: R16 });
    a.emit(Insn::Stwx { rs: R17, ra: R9, rb: R18 });
    a.label("noswap");
    a.emit(Insn::Addi { rt: R15, ra: R15, si: 1 });
    a.b("inner");
    a.label("inner_done");
    a.emit(Insn::Addi { rt: R14, ra: R14, si: -1 });
    a.b("outer");
    a.label("sorted");
    // Checksum.
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 0 });
    a.emit(Insn::Addi { rt: R15, ra: R0, si: 0 });
    a.label("ck");
    a.emit(Insn::Cmpw { bf: CR0, ra: R15, rb: R10 });
    a.bge(CR0, "done");
    a.emit(Insn::Rlwinm { ra: R16, rs: R15, sh: 2, mb: 0, me: 29, rc: false });
    a.emit(Insn::Lwzx { rt: R17, ra: R9, rb: R16 });
    a.emit(Insn::Addi { rt: R18, ra: R15, si: 1 });
    a.emit(Insn::Mullw { rt: R17, ra: R17, rb: R18, rc: false });
    a.emit(Insn::Add { rt: R3, ra: R3, rb: R17, rc: false });
    a.emit(Insn::Addi { rt: R15, ra: R15, si: 1 });
    a.b("ck");
    a.label("done");
    a.emit(Insn::Sc);

    let mut bytes = Vec::new();
    for k in (1..=16u32).rev() {
        bytes.extend_from_slice(&k.to_be_bytes());
    }
    let expected: u32 = (1..=16u32).map(|k| k * k).sum();
    finish("bubble_sort", a, vec![(0x2000, bytes)], expected)
}

const TEST_STRING: &[u8] = b"hello, embedded world\0";

/// `strlen` of a NUL-terminated string at `0x3000` (21).
pub fn strlen() -> Kernel {
    let mut a = Assembler::new();
    a.emit(Insn::Addi { rt: R9, ra: R0, si: 0x3000 });
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 0 });
    a.label("loop");
    a.emit(Insn::Lbzx { rt: R11, ra: R9, rb: R3 });
    a.emit(Insn::Cmpwi { bf: CR0, ra: R11, si: 0 });
    a.beq(CR0, "done");
    a.emit(Insn::Addi { rt: R3, ra: R3, si: 1 });
    a.b("loop");
    a.label("done");
    a.emit(Insn::Sc);
    finish("strlen", a, vec![(0x3000, TEST_STRING.to_vec())], TEST_STRING.len() as u32 - 1)
}

/// djb2 hash of the test string — exercises shifts and byte loads.
pub fn hash_string() -> Kernel {
    let mut a = Assembler::new();
    a.emit(Insn::Addi { rt: R9, ra: R0, si: 0x3000 });
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 5381 });
    a.emit(Insn::Addi { rt: R10, ra: R0, si: 0 });
    a.label("loop");
    a.emit(Insn::Lbzx { rt: R11, ra: R9, rb: R10 });
    a.emit(Insn::Cmpwi { bf: CR0, ra: R11, si: 0 });
    a.beq(CR0, "done");
    a.emit(Insn::Rlwinm { ra: R12, rs: R3, sh: 5, mb: 0, me: 26, rc: false });
    a.emit(Insn::Add { rt: R3, ra: R3, rb: R12, rc: false });
    a.emit(Insn::Add { rt: R3, ra: R3, rb: R11, rc: false });
    a.emit(Insn::Addi { rt: R10, ra: R10, si: 1 });
    a.b("loop");
    a.label("done");
    a.emit(Insn::Sc);

    let mut h = 5381u32;
    for &b in &TEST_STRING[..TEST_STRING.len() - 1] {
        h = h.wrapping_add(h << 5).wrapping_add(b as u32);
    }
    finish("hash_string", a, vec![(0x3000, TEST_STRING.to_vec())], h)
}

/// Euclid's GCD through a real call/return: `gcd(1071, 462) = 21`.
pub fn gcd() -> Kernel {
    let mut a = Assembler::new();
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 1071 });
    a.emit(Insn::Addi { rt: R4, ra: R0, si: 462 });
    a.bl("gcd");
    a.emit(Insn::Sc);
    a.label("gcd");
    a.label("loop");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R4, si: 0 });
    a.beq(CR0, "ret");
    a.emit(Insn::Divw { rt: R9, ra: R3, rb: R4, rc: false });
    a.emit(Insn::Mullw { rt: R9, ra: R9, rb: R4, rc: false });
    a.emit(Insn::Subf { rt: R9, ra: R9, rb: R3, rc: false });
    a.emit(Insn::Or { ra: R3, rs: R4, rb: R4, rc: false });
    a.emit(Insn::Or { ra: R4, rs: R9, rb: R9, rc: false });
    a.b("loop");
    a.label("ret");
    a.blr();
    finish("gcd", a, vec![], 21)
}

/// Sieve of Eratosthenes: primes below 100 (25), via a byte array at
/// `0x4000`.
pub fn sieve() -> Kernel {
    let mut a = Assembler::new();
    a.emit(Insn::Addi { rt: R9, ra: R0, si: 0x4000 });
    a.emit(Insn::Addi { rt: R14, ra: R0, si: 2 });
    a.label("outer");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R14, si: 100 });
    a.bge(CR0, "count");
    a.emit(Insn::Lbzx { rt: R11, ra: R9, rb: R14 });
    a.emit(Insn::Cmpwi { bf: CR0, ra: R11, si: 0 });
    a.bne(CR0, "next");
    a.emit(Insn::Add { rt: R15, ra: R14, rb: R14, rc: false });
    a.label("mark");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R15, si: 100 });
    a.bge(CR0, "next");
    a.emit(Insn::Addi { rt: R12, ra: R0, si: 1 });
    a.emit(Insn::Stbx { rs: R12, ra: R9, rb: R15 });
    a.emit(Insn::Add { rt: R15, ra: R15, rb: R14, rc: false });
    a.b("mark");
    a.label("next");
    a.emit(Insn::Addi { rt: R14, ra: R14, si: 1 });
    a.b("outer");
    a.label("count");
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 0 });
    a.emit(Insn::Addi { rt: R14, ra: R0, si: 2 });
    a.label("cl");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R14, si: 100 });
    a.bge(CR0, "done");
    a.emit(Insn::Lbzx { rt: R11, ra: R9, rb: R14 });
    a.emit(Insn::Cmpwi { bf: CR0, ra: R11, si: 0 });
    a.bne(CR0, "skip");
    a.emit(Insn::Addi { rt: R3, ra: R3, si: 1 });
    a.label("skip");
    a.emit(Insn::Addi { rt: R14, ra: R14, si: 1 });
    a.b("cl");
    a.label("done");
    a.emit(Insn::Sc);
    finish("sieve", a, vec![(0x4000, vec![0; 128])], 25)
}

/// Sum of squares 0..10 through a callee with a real stack frame —
/// exercises `stwu`/`blr` prologue/epilogue mechanics (Σ = 285).
pub fn call_frames() -> Kernel {
    let mut a = Assembler::new();
    a.emit(Insn::Addi { rt: R14, ra: R0, si: 0 });
    a.emit(Insn::Addi { rt: R15, ra: R0, si: 0 });
    a.label("loop");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R14, si: 10 });
    a.bge(CR0, "done");
    a.emit(Insn::Or { ra: R3, rs: R14, rb: R14, rc: false });
    a.bl("square");
    a.emit(Insn::Add { rt: R15, ra: R15, rb: R3, rc: false });
    a.emit(Insn::Addi { rt: R14, ra: R14, si: 1 });
    a.b("loop");
    a.label("done");
    a.emit(Insn::Or { ra: R3, rs: R15, rb: R15, rc: false });
    a.emit(Insn::Sc);
    a.label("square");
    a.emit(Insn::Stwu { rs: R1, ra: R1, d: -16 });
    a.emit(Insn::Stw { rs: R14, ra: R1, d: 8 });
    a.emit(Insn::Mullw { rt: R3, ra: R3, rb: R3, rc: false });
    a.emit(Insn::Lwz { rt: R14, ra: R1, d: 8 });
    a.emit(Insn::Addi { rt: R1, ra: R1, si: 16 });
    a.blr();
    finish("call_frames", a, vec![], 285)
}

/// Recursive quicksort over 24 words at `0x5000` — deep call stacks, frame
/// traffic, and multiple return paths. Returns the sorted array's
/// position-weighted checksum.
pub fn quicksort() -> Kernel {
    let mut a = Assembler::new();
    // main: r3 = lo index (0), r4 = hi index (n-1)
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 0 });
    a.emit(Insn::Addi { rt: R4, ra: R0, si: 23 });
    a.bl("qsort");
    // checksum
    a.emit(Insn::Addi { rt: R9, ra: R0, si: 0x5000 });
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 0 });
    a.emit(Insn::Addi { rt: R15, ra: R0, si: 0 });
    a.label("ck");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R15, si: 24 });
    a.bge(CR0, "done");
    a.emit(Insn::Rlwinm { ra: R16, rs: R15, sh: 2, mb: 0, me: 29, rc: false });
    a.emit(Insn::Lwzx { rt: R17, ra: R9, rb: R16 });
    a.emit(Insn::Addi { rt: R18, ra: R15, si: 1 });
    a.emit(Insn::Mullw { rt: R17, ra: R17, rb: R18, rc: false });
    a.emit(Insn::Add { rt: R3, ra: R3, rb: R17, rc: false });
    a.emit(Insn::Addi { rt: R15, ra: R15, si: 1 });
    a.b("ck");
    a.label("done");
    a.emit(Insn::Sc);

    // qsort(lo=r3, hi=r4): recursive, Lomuto partition.
    a.label("qsort");
    a.emit(Insn::Cmpw { bf: CR0, ra: R3, rb: R4 });
    a.bge(CR0, "qret0"); // lo >= hi
                         // prologue: save lr, r29 (lo), r30 (hi), r28 (pivot index)
    a.emit(Insn::Stwu { rs: R1, ra: R1, d: -32 });
    a.emit(Insn::Mfspr { rt: R0, spr: Spr::Lr });
    a.emit(Insn::Stw { rs: R0, ra: R1, d: 36 });
    a.emit(Insn::Stmw { rs: R28, ra: R1, d: 16 });
    a.emit(Insn::Or { ra: R29, rs: R3, rb: R3, rc: false }); // lo
    a.emit(Insn::Or { ra: R30, rs: R4, rb: R4, rc: false }); // hi
                                                             // partition: pivot = a[hi]; i = lo-1; for j in lo..hi
    a.emit(Insn::Addi { rt: R9, ra: R0, si: 0x5000 });
    a.emit(Insn::Rlwinm { ra: R11, rs: R30, sh: 2, mb: 0, me: 29, rc: false });
    a.emit(Insn::Lwzx { rt: R12, ra: R9, rb: R11 }); // pivot value
    a.emit(Insn::Addi { rt: R28, ra: R29, si: -1 }); // i
    a.emit(Insn::Or { ra: R10, rs: R29, rb: R29, rc: false }); // j
    a.label("part");
    a.emit(Insn::Cmpw { bf: CR0, ra: R10, rb: R30 });
    a.bge(CR0, "part_done");
    a.emit(Insn::Rlwinm { ra: R11, rs: R10, sh: 2, mb: 0, me: 29, rc: false });
    a.emit(Insn::Lwzx { rt: R8, ra: R9, rb: R11 }); // a[j]
    a.emit(Insn::Cmpw { bf: CR0, ra: R8, rb: R12 });
    a.bgt(CR0, "part_next");
    // i += 1; swap a[i], a[j]
    a.emit(Insn::Addi { rt: R28, ra: R28, si: 1 });
    a.emit(Insn::Rlwinm { ra: R7, rs: R28, sh: 2, mb: 0, me: 29, rc: false });
    a.emit(Insn::Lwzx { rt: R6, ra: R9, rb: R7 }); // a[i]
    a.emit(Insn::Stwx { rs: R8, ra: R9, rb: R7 });
    a.emit(Insn::Stwx { rs: R6, ra: R9, rb: R11 });
    a.label("part_next");
    a.emit(Insn::Addi { rt: R10, ra: R10, si: 1 });
    a.b("part");
    a.label("part_done");
    // place pivot: i += 1; swap a[i], a[hi]
    a.emit(Insn::Addi { rt: R28, ra: R28, si: 1 });
    a.emit(Insn::Rlwinm { ra: R7, rs: R28, sh: 2, mb: 0, me: 29, rc: false });
    a.emit(Insn::Lwzx { rt: R6, ra: R9, rb: R7 });
    a.emit(Insn::Rlwinm { ra: R11, rs: R30, sh: 2, mb: 0, me: 29, rc: false });
    a.emit(Insn::Stwx { rs: R6, ra: R9, rb: R11 });
    a.emit(Insn::Stwx { rs: R12, ra: R9, rb: R7 });
    // recurse left: qsort(lo, i-1)
    a.emit(Insn::Or { ra: R3, rs: R29, rb: R29, rc: false });
    a.emit(Insn::Addi { rt: R4, ra: R28, si: -1 });
    a.bl("qsort");
    // recurse right: qsort(i+1, hi)
    a.emit(Insn::Addi { rt: R3, ra: R28, si: 1 });
    a.emit(Insn::Or { ra: R4, rs: R30, rb: R30, rc: false });
    a.bl("qsort");
    // epilogue
    a.emit(Insn::Lmw { rt: R28, ra: R1, d: 16 });
    a.emit(Insn::Lwz { rt: R0, ra: R1, d: 36 });
    a.emit(Insn::Mtspr { spr: Spr::Lr, rs: R0 });
    a.emit(Insn::Addi { rt: R1, ra: R1, si: 32 });
    a.blr();
    a.label("qret0");
    a.blr();

    // Input: a scrambled permutation of 1..=24.
    let mut values: Vec<u32> = (1..=24).collect();
    // Deterministic shuffle.
    let mut x = 0x9e3779b9u32;
    for i in (1..values.len()).rev() {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        values.swap(i, (x as usize) % (i + 1));
    }
    let mut bytes = Vec::new();
    for v in &values {
        bytes.extend_from_slice(&v.to_be_bytes());
    }
    let expected: u32 = (1..=24u32).map(|k| k * k).sum();
    finish("quicksort", a, vec![(0x5000, bytes)], expected)
}

/// Word-wise memcpy of 64 words from `0x6000` to `0x6800`, then checksum of
/// the destination.
pub fn memcpy() -> Kernel {
    let mut a = Assembler::new();
    a.emit(Insn::Addi { rt: R9, ra: R0, si: 0x6000 });
    a.emit(Insn::Addi { rt: R10, ra: R0, si: 0x6800 });
    a.emit(Insn::Addi { rt: R11, ra: R0, si: 64 });
    a.label("copy");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R11, si: 0 });
    a.beq(CR0, "sum");
    a.emit(Insn::Lwz { rt: R12, ra: R9, d: 0 });
    a.emit(Insn::Stw { rs: R12, ra: R10, d: 0 });
    a.emit(Insn::Addi { rt: R9, ra: R9, si: 4 });
    a.emit(Insn::Addi { rt: R10, ra: R10, si: 4 });
    a.emit(Insn::Addi { rt: R11, ra: R11, si: -1 });
    a.b("copy");
    a.label("sum");
    a.emit(Insn::Addi { rt: R10, ra: R0, si: 0x6800 });
    a.emit(Insn::Addi { rt: R11, ra: R0, si: 64 });
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 0 });
    a.label("sl");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R11, si: 0 });
    a.beq(CR0, "done");
    a.emit(Insn::Lwz { rt: R12, ra: R10, d: 0 });
    a.emit(Insn::Xor { ra: R3, rs: R3, rb: R12, rc: false });
    a.emit(Insn::Addi { rt: R10, ra: R10, si: 4 });
    a.emit(Insn::Addi { rt: R11, ra: R11, si: -1 });
    a.b("sl");
    a.label("done");
    a.emit(Insn::Sc);

    let mut bytes = Vec::new();
    let mut expected = 0u32;
    for i in 0..64u32 {
        let v = i.wrapping_mul(0x0101_0101) ^ 0x5a5a;
        bytes.extend_from_slice(&v.to_be_bytes());
        expected ^= v;
    }
    finish("memcpy", a, vec![(0x6000, bytes)], expected)
}

/// Binary search over 32 sorted words at `0x7000`; returns the index of 77
/// (which is at position 19 given the generator below).
pub fn binsearch() -> Kernel {
    let mut a = Assembler::new();
    a.emit(Insn::Addi { rt: R9, ra: R0, si: 0x7000 });
    a.emit(Insn::Addi { rt: R4, ra: R0, si: 0 }); // lo
    a.emit(Insn::Addi { rt: R5, ra: R0, si: 31 }); // hi
    a.emit(Insn::Addi { rt: R6, ra: R0, si: 77 }); // needle
    a.emit(Insn::Addi { rt: R3, ra: R0, si: -1 }); // result
    a.label("loop");
    a.emit(Insn::Cmpw { bf: CR0, ra: R4, rb: R5 });
    a.bgt(CR0, "done");
    a.emit(Insn::Add { rt: R7, ra: R4, rb: R5, rc: false });
    a.emit(Insn::Srawi { ra: R7, rs: R7, sh: 1, rc: false }); // mid
    a.emit(Insn::Rlwinm { ra: R8, rs: R7, sh: 2, mb: 0, me: 29, rc: false });
    a.emit(Insn::Lwzx { rt: R10, ra: R9, rb: R8 });
    a.emit(Insn::Cmpw { bf: CR0, ra: R10, rb: R6 });
    a.beq(CR0, "found");
    a.blt(CR0, "go_right");
    a.emit(Insn::Addi { rt: R5, ra: R7, si: -1 });
    a.b("loop");
    a.label("go_right");
    a.emit(Insn::Addi { rt: R4, ra: R7, si: 1 });
    a.b("loop");
    a.label("found");
    a.emit(Insn::Or { ra: R3, rs: R7, rb: R7, rc: false });
    a.label("done");
    a.emit(Insn::Sc);

    // Sorted array: a[i] = 4i + 1 -> a[19] = 77.
    let mut bytes = Vec::new();
    for i in 0..32u32 {
        bytes.extend_from_slice(&(4 * i + 1).to_be_bytes());
    }
    finish("binsearch", a, vec![(0x7000, bytes)], 19)
}

/// 4×4 integer matrix multiply at `0x7800`/`0x7840` into `0x7880`, checksum
/// of the product.
pub fn matmul() -> Kernel {
    let mut a = Assembler::new();
    a.emit(Insn::Addi { rt: R20, ra: R0, si: 0 }); // i
    a.label("li_");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R20, si: 4 });
    a.bge(CR0, "sum");
    a.emit(Insn::Addi { rt: R21, ra: R0, si: 0 }); // j
    a.label("lj");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R21, si: 4 });
    a.bge(CR0, "nexti");
    a.emit(Insn::Addi { rt: R22, ra: R0, si: 0 }); // k
    a.emit(Insn::Addi { rt: R23, ra: R0, si: 0 }); // acc
    a.label("lk");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R22, si: 4 });
    a.bge(CR0, "store");
    // acc += A[i][k] * B[k][j]
    a.emit(Insn::Rlwinm { ra: R9, rs: R20, sh: 4, mb: 0, me: 27, rc: false }); // 16*i
    a.emit(Insn::Rlwinm { ra: R10, rs: R22, sh: 2, mb: 0, me: 29, rc: false }); // 4*k
    a.emit(Insn::Add { rt: R9, ra: R9, rb: R10, rc: false });
    a.emit(Insn::Addi { rt: R9, ra: R9, si: 0x7800 }); // A base
    a.emit(Insn::Lwz { rt: R11, ra: R9, d: 0 });
    a.emit(Insn::Rlwinm { ra: R9, rs: R22, sh: 4, mb: 0, me: 27, rc: false }); // 16*k
    a.emit(Insn::Rlwinm { ra: R10, rs: R21, sh: 2, mb: 0, me: 29, rc: false }); // 4*j
    a.emit(Insn::Add { rt: R9, ra: R9, rb: R10, rc: false });
    a.emit(Insn::Addi { rt: R9, ra: R9, si: 0x7840 }); // B base
    a.emit(Insn::Lwz { rt: R12, ra: R9, d: 0 });
    a.emit(Insn::Mullw { rt: R11, ra: R11, rb: R12, rc: false });
    a.emit(Insn::Add { rt: R23, ra: R23, rb: R11, rc: false });
    a.emit(Insn::Addi { rt: R22, ra: R22, si: 1 });
    a.b("lk");
    a.label("store");
    a.emit(Insn::Rlwinm { ra: R9, rs: R20, sh: 4, mb: 0, me: 27, rc: false });
    a.emit(Insn::Rlwinm { ra: R10, rs: R21, sh: 2, mb: 0, me: 29, rc: false });
    a.emit(Insn::Add { rt: R9, ra: R9, rb: R10, rc: false });
    a.emit(Insn::Addi { rt: R9, ra: R9, si: 0x7880 }); // C base
    a.emit(Insn::Stw { rs: R23, ra: R9, d: 0 });
    a.emit(Insn::Addi { rt: R21, ra: R21, si: 1 });
    a.b("lj");
    a.label("nexti");
    a.emit(Insn::Addi { rt: R20, ra: R20, si: 1 });
    a.b("li_");
    a.label("sum");
    a.emit(Insn::Addi { rt: R9, ra: R0, si: 0x7880 });
    a.emit(Insn::Addi { rt: R10, ra: R0, si: 16 });
    a.emit(Insn::Addi { rt: R3, ra: R0, si: 0 });
    a.label("sl");
    a.emit(Insn::Cmpwi { bf: CR0, ra: R10, si: 0 });
    a.beq(CR0, "done");
    a.emit(Insn::Lwz { rt: R12, ra: R9, d: 0 });
    a.emit(Insn::Add { rt: R3, ra: R3, rb: R12, rc: false });
    a.emit(Insn::Addi { rt: R9, ra: R9, si: 4 });
    a.emit(Insn::Addi { rt: R10, ra: R10, si: -1 });
    a.b("sl");
    a.label("done");
    a.emit(Insn::Sc);

    // A[i][j] = i + j, B[i][j] = i * j + 1, computed expectation in host.
    let a_mat: Vec<u32> = (0..16).map(|x| (x / 4 + x % 4) as u32).collect();
    let b_mat: Vec<u32> = (0..16).map(|x| ((x / 4) * (x % 4) + 1) as u32).collect();
    let mut expected = 0u32;
    for i in 0..4 {
        for j in 0..4 {
            let mut acc = 0u32;
            for k in 0..4 {
                acc = acc.wrapping_add(a_mat[i * 4 + k].wrapping_mul(b_mat[k * 4 + j]));
            }
            expected = expected.wrapping_add(acc);
        }
    }
    let mut bytes_a = Vec::new();
    for v in &a_mat {
        bytes_a.extend_from_slice(&v.to_be_bytes());
    }
    let mut bytes_b = Vec::new();
    for v in &b_mat {
        bytes_b.extend_from_slice(&v.to_be_bytes());
    }
    finish("matmul", a, vec![(0x7800, bytes_a), (0x7840, bytes_b)], expected)
}

/// Every kernel, for exhaustive compressed-execution tests.
pub fn all() -> Vec<Kernel> {
    vec![
        fib(),
        sum_array(),
        bubble_sort(),
        strlen(),
        hash_string(),
        gcd(),
        sieve(),
        call_frames(),
        quicksort(),
        memcpy(),
        binsearch(),
        matmul(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fetch::LinearFetcher;
    use crate::run::run;

    #[test]
    fn kernels_produce_expected_results_uncompressed() {
        for k in all() {
            let mut fetch = LinearFetcher::new(k.module.code.clone());
            let result = run(&mut k.machine(), &mut fetch, 0, 1_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", k.name));
            assert_eq!(result.exit_code, k.expected, "kernel {}", k.name);
        }
    }

    #[test]
    fn kernels_are_distinct_programs() {
        let kernels = all();
        assert_eq!(kernels.len(), 12);
        for pair in kernels.windows(2) {
            assert_ne!(pair[0].module.code, pair[1].module.code);
        }
    }
}
