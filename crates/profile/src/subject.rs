//! A profiling subject: everything [`crate::collect()`] and [`crate::cost`]
//! need to run one program in both fetch domains.
//!
//! [`Kernel`]s are subjects with no jump tables. SPEC-scale corpus programs
//! (`codense-corpus`) add table seeding, and the seed values differ between
//! domains: a jump-table entry holds a fetch-domain code address, which is
//! `8 × insn` under linear fetch but the compressor's patched nibble
//! address under a compressed image. A plain `(address, bytes)` init list
//! cannot express that, so the subject carries the table bases and derives
//! each domain's entries from the image being run.

use codense_core::compressor::OVERFLOW_TABLE_HI;
use codense_core::CompressedProgram;
use codense_obj::ObjectModule;
use codense_vm::kernels::Kernel;
use codense_vm::Machine;

/// A runnable profiling subject with per-fetch-domain memory initialization.
#[derive(Debug, Clone)]
pub struct Subject {
    /// Display name (the artifact's bench key).
    pub name: String,
    /// The program.
    pub module: ObjectModule,
    /// Static initial memory contents as (address, bytes) pairs, identical
    /// in both domains.
    pub init_mem: Vec<(u32, Vec<u8>)>,
    /// Byte address of each of the module's jump tables (empty for
    /// table-free programs).
    pub table_addrs: Vec<u32>,
    /// Expected exit register value at halt.
    pub expected: u32,
    /// Data-memory size for runs.
    pub mem_bytes: usize,
}

impl Subject {
    /// Wraps a kernel (no jump tables, the standard 1 MiB profiling
    /// memory).
    pub fn from_kernel(kernel: &Kernel) -> Subject {
        Subject {
            name: kernel.name.to_string(),
            module: kernel.module.clone(),
            init_mem: kernel.init_mem.clone(),
            table_addrs: Vec::new(),
            expected: kernel.expected,
            mem_bytes: crate::collect::MEM_BYTES,
        }
    }

    /// A fresh machine seeded for native (word-granular) execution: jump
    /// table entry *e* of table *t* holds `8 × target`.
    ///
    /// # Panics
    ///
    /// Panics if an init region or table lies outside the machine's memory.
    pub fn machine_native(&self) -> Machine {
        let mut m = self.machine_base();
        for (t, table) in self.module.jump_tables.iter().enumerate() {
            for (e, &target) in table.targets.iter().enumerate() {
                m.store32(self.table_addrs[t] + 4 * e as u32, 8 * target as u32)
                    .expect("jump table within subject memory");
            }
        }
        m
    }

    /// A fresh machine seeded for compressed execution: jump table entries
    /// hold the image's patched nibble-domain values, and the overflow
    /// table at `OVERFLOW_TABLE_HI << 16` holds the targets of the branches
    /// the compressor routed through it. A memory that ends below the
    /// overflow table leaves it unseeded, so a dispatch through it faults.
    ///
    /// # Panics
    ///
    /// Panics if an init region or jump table lies outside the machine's
    /// memory.
    pub fn machine_compressed(&self, compressed: &CompressedProgram) -> Machine {
        let mut m = self.machine_base();
        for (t, table) in compressed.jump_tables.iter().enumerate() {
            for (e, &target) in table.iter().enumerate() {
                m.store32(self.table_addrs[t] + 4 * e as u32, target)
                    .expect("jump table within subject memory");
            }
        }
        let overflow_base = (OVERFLOW_TABLE_HI as u32) << 16;
        if overflow_base as usize + 4 * compressed.overflow_table.len() <= self.mem_bytes {
            for (slot, &target) in compressed.overflow_table.iter().enumerate() {
                m.store32(overflow_base + 4 * slot as u32, target)
                    .expect("overflow table within subject memory");
            }
        }
        m
    }

    fn machine_base(&self) -> Machine {
        let mut m = Machine::new(self.mem_bytes);
        for (addr, bytes) in &self.init_mem {
            let a = *addr as usize;
            m.mem[a..a + bytes.len()].copy_from_slice(bytes);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{score_compressed, score_native, CostParams, ProfileError};
    use codense_core::{CompressionConfig, Compressor};
    use codense_ppc::asm::Assembler;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::{Gpr, CR0, R0, R3, R4};
    use codense_vm::MachineError;

    /// A `beq` over 1,200 unique instructions: under the nibble encoding its
    /// 14-bit field cannot reach, so the compressor routes it through the
    /// overflow table. Taken (exit 222) with `r4 == 0`, as on a fresh
    /// machine.
    fn overflow_subject(mem_bytes: usize) -> Subject {
        let mut a = Assembler::new();
        a.emit(Insn::Cmpwi { bf: CR0, ra: R4, si: 0 });
        a.beq(CR0, "far");
        for i in 0..1200i32 {
            let rt = Gpr::new(3 + (i % 4) as u8).unwrap();
            a.emit(Insn::Addi { rt, ra: rt, si: (i % 3000) as i16 + 1 });
        }
        a.emit(Insn::Addi { rt: R3, ra: R0, si: 111 });
        a.emit(Insn::Sc);
        a.label("far");
        a.emit(Insn::Addi { rt: R3, ra: R0, si: 222 });
        a.emit(Insn::Sc);
        let mut module = ObjectModule::new("overflow", codense_obj::IsaId::Ppc);
        module.code = a.finish().unwrap();
        Subject {
            name: "overflow".into(),
            module,
            init_mem: Vec::new(),
            table_addrs: Vec::new(),
            expected: 222,
            mem_bytes,
        }
    }

    #[test]
    fn overflow_slots_are_seeded() {
        let subject = overflow_subject(8 << 20);
        let program =
            Compressor::new(CompressionConfig::nibble_aligned()).compress(&subject.module).unwrap();
        assert!(!program.overflow_table.is_empty());
        let params = CostParams::default();
        let native = score_native(&subject, &params, 100_000).unwrap();
        let s = score_compressed(&subject, &program, &params, 100_000).unwrap();
        // The taken `beq` runs as its trampoline: the inverted skip falls
        // through to `addis`, `lwz`, `mtctr`, `bcctr`, four steps more.
        assert_eq!((s.exit, s.steps), (222, native.steps + 4));
    }

    #[test]
    fn a_memory_below_the_overflow_table_faults() {
        let subject = overflow_subject(crate::MEM_BYTES);
        let program =
            Compressor::new(CompressionConfig::nibble_aligned()).compress(&subject.module).unwrap();
        let params = CostParams::default();
        match score_compressed(&subject, &program, &params, 100_000) {
            Err(ProfileError::Machine(MachineError::MemoryFault { .. })) => {}
            other => panic!("expected a memory fault, got {other:?}"),
        }
    }
}
