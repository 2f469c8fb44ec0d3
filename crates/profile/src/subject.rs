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
    /// hold the image's patched nibble-domain values.
    ///
    /// # Panics
    ///
    /// Panics if an init region or table lies outside the machine's memory.
    pub fn machine_compressed(&self, compressed: &CompressedProgram) -> Machine {
        let mut m = self.machine_base();
        for (t, table) in compressed.jump_tables.iter().enumerate() {
            for (e, &target) in table.iter().enumerate() {
                m.store32(self.table_addrs[t] + 4 * e as u32, target as u32)
                    .expect("jump table within subject memory");
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
