//! The per-ISA leaves of the generated program tree.
//!
//! The tree in [`crate::spec`] is ISA-neutral: straight-line code and
//! branch templates are raw instruction words, registers are GPR numbers.
//! A [`Target`] supplies everything else: which registers are plain data,
//! which hold loop counters, which carry fetch-domain code addresses; the
//! random draws of straight-line ops and if-conditions; and the instruction
//! templates for loops, ifs, dispatches, calls, prologues and exits.
//!
//! Templates that transfer control end in a relative branch whose
//! displacement is left zero; [`crate::spec::build`] aims it with
//! [`codense_isa::asm::patch_branch`] once labels are placed.
//!
//! Register discipline is the same on every target: only the registers in
//! [`Target::code_addr_regs`] (and the link state the core keeps outside
//! its GPRs) ever hold code addresses, so every other register must match
//! bit-for-bit between the native and compressed runs at every step.

use codense_codegen::Rng;
use codense_isa::{IsaId, IsaRef};
use codense_mips::reg::{Reg, GP, RA, S0, S1, S2, S3, SP, T8, T9, V0, ZERO};
use codense_mips::MInsn;
use codense_ppc::insn::{bo, Insn};
use codense_ppc::reg::{CrField, Gpr, Spr, CR0, R0, R1, R10, R11, R24, R25, R26, R27, R29, R3, R8};

use crate::spec::{DATA_BASE, DATA_MASK};

/// One backend's vocabulary and templates for the fuzz generator.
pub trait Target {
    /// The backend the words are encoded for.
    fn isa(&self) -> IsaRef;

    /// Registers straight-line code may read and write.
    fn data_regs(&self) -> &'static [u8];

    /// Loop counter registers by nesting depth, never written by
    /// straight-line ops. The entry function indexes from 0, callees from
    /// [`crate::spec::CALLEE_LOOP_BASE`], so a callee's loops can never
    /// clobber a counter of the loop its call site sits in.
    fn loop_regs(&self) -> [u8; 4];

    /// GPRs that legitimately hold fetch-domain code addresses; the oracle
    /// does not compare them.
    fn code_addr_regs(&self) -> &'static [u8];

    /// Draws one fresh straight-line instruction over the data registers.
    /// Memory accesses stay inside the scratch data region.
    fn fresh_op(&self, rng: &mut Rng) -> u32;

    /// A load (or store) of `val` at a bounds-masked offset taken from `src`.
    fn indexed_access(&self, src: u8, val: u8, load: bool) -> Vec<u32>;

    /// Draws an if-condition: setup words, then a relative branch that
    /// skips the guarded region when taken.
    fn condition(&self, rng: &mut Rng) -> Vec<u32>;

    /// Sets `counter` to `trips` before a loop head.
    fn loop_init(&self, counter: u8, trips: u8) -> u32;

    /// Decrements `counter` and branches back to the head while nonzero.
    fn loop_back(&self, counter: u8) -> Vec<u32>;

    /// Masks `index` to a `width`-entry table at data address `table`,
    /// loads the entry and jumps through it.
    fn dispatch(&self, index: u8, width: usize, table: u32) -> Vec<u32>;

    /// Emitted at the head of every dispatch arm (each is an entry point).
    fn arm_entry(&self) -> Vec<u32>;

    /// An unconditional relative branch.
    fn jump(&self) -> u32;

    /// A relative call that links the return address.
    fn call(&self) -> u32;

    /// A return through the link.
    fn ret(&self) -> u32;

    /// Entry preamble: the data base pointer and initial register values.
    fn entry_prologue(&self, reg_init: &[(u8, u32)]) -> Vec<u32>;

    /// A callee stack-frame prologue and its matching epilogue.
    fn frame(&self) -> (Vec<u32>, Vec<u32>);

    /// Moves `result` into the exit-code register and halts.
    fn exit(&self, result: u8) -> Vec<u32>;
}

/// The fuzz target for an ISA handle.
pub fn for_isa(isa: IsaRef) -> &'static dyn Target {
    match isa.id() {
        IsaId::Ppc => &Ppc,
        IsaId::Mips => &Mips,
    }
}

/// The PowerPC target: `r10` is the data base, `r8` the index scratch,
/// `r11` carries jump-table entries into CTR.
#[derive(Debug, Clone, Copy)]
pub struct Ppc;

/// `r3`–`r7` and `r14`–`r18`.
const PPC_DATA_REGS: [u8; 10] = [3, 4, 5, 6, 7, 14, 15, 16, 17, 18];

fn gpr(n: u8) -> Gpr {
    Gpr::new(n).expect("target registers are GPRs")
}

fn ppc_data_reg(rng: &mut Rng) -> Gpr {
    gpr(*rng.pick(&PPC_DATA_REGS))
}

fn cr_field(rng: &mut Rng) -> CrField {
    CrField::new(rng.below(8) as u8).expect("0..8 is a CR field")
}

fn ppc(insns: &[Insn]) -> Vec<u32> {
    insns.iter().map(codense_ppc::encode).collect()
}

impl Target for Ppc {
    fn isa(&self) -> IsaRef {
        codense_codegen::isa_ref(IsaId::Ppc)
    }

    fn data_regs(&self) -> &'static [u8] {
        &PPC_DATA_REGS
    }

    fn loop_regs(&self) -> [u8; 4] {
        [R24, R25, R26, R27].map(Gpr::number)
    }

    fn code_addr_regs(&self) -> &'static [u8] {
        const { &[R11.number()] }
    }

    fn fresh_op(&self, rng: &mut Rng) -> u32 {
        let rt = ppc_data_reg(rng);
        let ra = ppc_data_reg(rng);
        let rb = ppc_data_reg(rng);
        let si = rng.next_u64() as i16;
        let ui = rng.next_u64() as u16;
        let rc = rng.chance(0.25);
        let d = (rng.below(0x7FF8) & !3) as i16;
        let sh = rng.below(32) as u8;
        let bf = cr_field(rng);
        let insn = match rng.weighted(&[
            18, // D-form arithmetic
            10, // D-form logical
            6,  // compares
            8,  // loads
            6,  // stores
            14, // XO-form arithmetic
            10, // X-form logical / shifts
            6,  // rotates
            3,  // CR ops
        ]) {
            0 => match rng.below(6) {
                0 => Insn::Addi { rt, ra, si },
                1 => Insn::Addis { rt, ra, si },
                2 => Insn::Addic { rt, ra, si },
                3 => Insn::AddicRc { rt, ra, si },
                4 => Insn::Subfic { rt, ra, si },
                _ => Insn::Mulli { rt, ra, si },
            },
            1 => match rng.below(6) {
                0 => Insn::Ori { ra, rs: rt, ui },
                1 => Insn::Oris { ra, rs: rt, ui },
                2 => Insn::Xori { ra, rs: rt, ui },
                3 => Insn::Xoris { ra, rs: rt, ui },
                4 => Insn::AndiRc { ra, rs: rt, ui },
                _ => Insn::AndisRc { ra, rs: rt, ui },
            },
            2 => match rng.below(4) {
                0 => Insn::Cmpwi { bf, ra, si },
                1 => Insn::Cmplwi { bf, ra, ui },
                2 => Insn::Cmpw { bf, ra, rb },
                _ => Insn::Cmplw { bf, ra, rb },
            },
            3 => match rng.below(5) {
                0 => Insn::Lwz { rt, ra: R10, d },
                1 => Insn::Lbz { rt, ra: R10, d },
                2 => Insn::Lhz { rt, ra: R10, d },
                3 => Insn::Lha { rt, ra: R10, d },
                _ => Insn::Lwz { rt, ra: R10, d },
            },
            4 => match rng.below(3) {
                0 => Insn::Stw { rs: rt, ra: R10, d },
                1 => Insn::Stb { rs: rt, ra: R10, d },
                _ => Insn::Sth { rs: rt, ra: R10, d },
            },
            5 => match rng.below(7) {
                0 => Insn::Add { rt, ra, rb, rc },
                1 => Insn::Subf { rt, ra, rb, rc },
                2 => Insn::Mullw { rt, ra, rb, rc },
                3 => Insn::Mulhw { rt, ra, rb, rc },
                4 => Insn::Divw { rt, ra, rb, rc },
                5 => Insn::Divwu { rt, ra, rb, rc },
                _ => Insn::Neg { rt, ra, rc },
            },
            6 => match rng.below(10) {
                0 => Insn::And { ra, rs: rt, rb, rc },
                1 => Insn::Or { ra, rs: rt, rb, rc },
                2 => Insn::Xor { ra, rs: rt, rb, rc },
                3 => Insn::Nand { ra, rs: rt, rb, rc },
                4 => Insn::Nor { ra, rs: rt, rb, rc },
                5 => Insn::Slw { ra, rs: rt, rb, rc },
                6 => Insn::Srw { ra, rs: rt, rb, rc },
                7 => Insn::Sraw { ra, rs: rt, rb, rc },
                8 => Insn::Srawi { ra, rs: rt, sh, rc },
                _ => Insn::Cntlzw { ra, rs: rt, rc },
            },
            7 => {
                let mb = rng.below(32) as u8;
                let me = rng.below(32) as u8;
                if rng.chance(0.5) {
                    Insn::Rlwinm { ra, rs: rt, sh, mb, me, rc }
                } else {
                    Insn::Rlwimi { ra, rs: rt, sh, mb, me, rc }
                }
            }
            _ => match rng.below(3) {
                0 => Insn::Crxor {
                    bt: rng.below(32) as u8,
                    ba: rng.below(32) as u8,
                    bb: rng.below(32) as u8,
                },
                1 => Insn::Mfcr { rt },
                _ => Insn::Extsh { ra, rs: rt, rc },
            },
        };
        codense_ppc::encode(&insn)
    }

    fn indexed_access(&self, src: u8, val: u8, load: bool) -> Vec<u32> {
        let val = gpr(val);
        ppc(&[
            Insn::AndiRc { ra: R8, rs: gpr(src), ui: DATA_MASK },
            if load {
                Insn::Lwzx { rt: val, ra: R10, rb: R8 }
            } else {
                Insn::Stwx { rs: val, ra: R10, rb: R8 }
            },
        ])
    }

    fn condition(&self, rng: &mut Rng) -> Vec<u32> {
        let bf = cr_field(rng);
        let ra = ppc_data_reg(rng);
        let cmp = if rng.chance(0.5) {
            Insn::Cmpwi { bf, ra, si: rng.next_u64() as i16 }
        } else {
            Insn::Cmplwi { bf, ra, ui: rng.next_u64() as u16 }
        };
        let bi = match rng.below(3) {
            0 => bf.lt_bit(),
            1 => bf.gt_bit(),
            _ => bf.eq_bit(),
        };
        let bo = if rng.chance(0.5) { bo::IF_TRUE } else { bo::IF_FALSE };
        ppc(&[cmp, Insn::Bc { bo, bi, bd: 0, aa: false, lk: false }])
    }

    fn loop_init(&self, counter: u8, trips: u8) -> u32 {
        codense_ppc::encode(&Insn::Addi { rt: gpr(counter), ra: R0, si: trips as i16 })
    }

    fn loop_back(&self, counter: u8) -> Vec<u32> {
        let counter = gpr(counter);
        ppc(&[
            Insn::AddicRc { rt: counter, ra: counter, si: -1 },
            Insn::Bc { bo: bo::IF_FALSE, bi: CR0.eq_bit(), bd: 0, aa: false, lk: false },
        ])
    }

    fn dispatch(&self, index: u8, width: usize, table: u32) -> Vec<u32> {
        ppc(&[
            Insn::AndiRc { ra: R11, rs: gpr(index), ui: (width - 1) as u16 },
            Insn::Rlwinm { ra: R11, rs: R11, sh: 2, mb: 0, me: 29, rc: false },
            Insn::Addis { rt: R10, ra: R0, si: (table >> 16) as i16 },
            Insn::Ori { ra: R10, rs: R10, ui: (table & 0xFFFF) as u16 },
            Insn::Lwzx { rt: R11, ra: R10, rb: R11 },
            Insn::Mtspr { spr: Spr::Ctr, rs: R11 },
            Insn::Bcctr { bo: bo::ALWAYS, bi: 0, lk: false },
        ])
    }

    fn arm_entry(&self) -> Vec<u32> {
        // The table address clobbered the data base pointer; restore it.
        ppc(&[Insn::Addis { rt: R10, ra: R0, si: (DATA_BASE >> 16) as i16 }])
    }

    fn jump(&self) -> u32 {
        codense_ppc::encode(&Insn::B { li: 0, aa: false, lk: false })
    }

    fn call(&self) -> u32 {
        codense_ppc::encode(&Insn::B { li: 0, aa: false, lk: true })
    }

    fn ret(&self) -> u32 {
        codense_ppc::encode(&Insn::Bclr { bo: bo::ALWAYS, bi: 0, lk: false })
    }

    fn entry_prologue(&self, reg_init: &[(u8, u32)]) -> Vec<u32> {
        let mut insns = vec![Insn::Addis { rt: R10, ra: R0, si: (DATA_BASE >> 16) as i16 }];
        for &(reg, value) in reg_init {
            let reg = gpr(reg);
            insns.push(Insn::Addis { rt: reg, ra: R0, si: (value >> 16) as i16 });
            insns.push(Insn::Ori { ra: reg, rs: reg, ui: (value & 0xFFFF) as u16 });
        }
        ppc(&insns)
    }

    fn frame(&self) -> (Vec<u32>, Vec<u32>) {
        (
            ppc(&[Insn::Stwu { rs: R1, ra: R1, d: -32 }, Insn::Stmw { rs: R29, ra: R1, d: 8 }]),
            ppc(&[Insn::Lmw { rt: R29, ra: R1, d: 8 }, Insn::Addi { rt: R1, ra: R1, si: 32 }]),
        )
    }

    fn exit(&self, result: u8) -> Vec<u32> {
        let result = gpr(result);
        ppc(&[Insn::Or { ra: R3, rs: result, rb: result, rc: false }, Insn::Sc])
    }
}

/// The MIPS target: `$gp` is the data base, `$t8` the index scratch, `$t9`
/// carries jump-table entries and `$ra` link values. Excluded from the data
/// registers by role: `$zero`/`$at`, `$v0` (exit code), `$s0`–`$s3` (loop
/// counters), `$t8`/`$t9`, `$gp`, `$sp`/`$fp` and `$ra`.
#[derive(Debug, Clone, Copy)]
pub struct Mips;

/// `$v1`, `$a0`–`$a3` and `$t0`–`$t7`.
const MIPS_DATA_REGS: [u8; 13] = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

fn mreg(n: u8) -> Reg {
    Reg::new(n).expect("target registers are GPRs")
}

fn mips_data_reg(rng: &mut Rng) -> Reg {
    mreg(*rng.pick(&MIPS_DATA_REGS))
}

fn mips(insns: &[MInsn]) -> Vec<u32> {
    insns.iter().map(codense_mips::encode).collect()
}

impl Target for Mips {
    fn isa(&self) -> IsaRef {
        codense_codegen::isa_ref(IsaId::Mips)
    }

    fn data_regs(&self) -> &'static [u8] {
        &MIPS_DATA_REGS
    }

    fn loop_regs(&self) -> [u8; 4] {
        [S0, S1, S2, S3].map(Reg::number)
    }

    fn code_addr_regs(&self) -> &'static [u8] {
        const { &[T9.number(), RA.number()] }
    }

    fn fresh_op(&self, rng: &mut Rng) -> u32 {
        let rd = mips_data_reg(rng);
        let rs = mips_data_reg(rng);
        let rt = mips_data_reg(rng);
        let imm = rng.next_u64() as i16;
        let uimm = rng.next_u64() as u16;
        let offset = (rng.below(0x7FF8) & !3) as i16;
        let sa = rng.range(1, 31) as u8;
        let insn = match rng.weighted(&[
            16, // I-format arithmetic
            10, // I-format logical
            8,  // loads
            6,  // stores
            14, // R-format arithmetic
            10, // R-format logic / shifts
        ]) {
            0 => match rng.below(3) {
                0 => MInsn::Addiu { rt: rd, rs, imm },
                1 => MInsn::Slti { rt: rd, rs, imm },
                _ => MInsn::Sltiu { rt: rd, rs, imm },
            },
            1 => match rng.below(4) {
                0 => MInsn::Andi { rt: rd, rs, imm: uimm },
                1 => MInsn::Ori { rt: rd, rs, imm: uimm },
                2 => MInsn::Xori { rt: rd, rs, imm: uimm },
                _ => MInsn::Lui { rt: rd, imm: uimm },
            },
            2 => match rng.below(5) {
                0 => MInsn::Lw { rt: rd, base: GP, offset },
                1 => MInsn::Lh { rt: rd, base: GP, offset },
                2 => MInsn::Lhu { rt: rd, base: GP, offset },
                3 => MInsn::Lb { rt: rd, base: GP, offset },
                _ => MInsn::Lbu { rt: rd, base: GP, offset },
            },
            3 => match rng.below(3) {
                0 => MInsn::Sw { rt: rd, base: GP, offset },
                1 => MInsn::Sh { rt: rd, base: GP, offset },
                _ => MInsn::Sb { rt: rd, base: GP, offset },
            },
            4 => match rng.below(5) {
                0 => MInsn::Addu { rd, rs, rt },
                1 => MInsn::Subu { rd, rs, rt },
                2 => MInsn::Mul { rd, rs, rt },
                3 => MInsn::Div { rd, rs, rt },
                _ => MInsn::Divu { rd, rs, rt },
            },
            _ => match rng.below(9) {
                0 => MInsn::And { rd, rs, rt },
                1 => MInsn::Or { rd, rs, rt },
                2 => MInsn::Xor { rd, rs, rt },
                3 => MInsn::Nor { rd, rs, rt },
                4 => MInsn::Slt { rd, rs, rt },
                5 => MInsn::Sltu { rd, rs, rt },
                6 => MInsn::Sll { rd, rt, sa },
                7 => MInsn::Srl { rd, rt, sa },
                _ => MInsn::Sra { rd, rt, sa },
            },
        };
        codense_mips::encode(&insn)
    }

    fn indexed_access(&self, src: u8, val: u8, load: bool) -> Vec<u32> {
        let val = mreg(val);
        mips(&[
            MInsn::Andi { rt: T8, rs: mreg(src), imm: DATA_MASK },
            MInsn::Addu { rd: T8, rs: GP, rt: T8 },
            if load {
                MInsn::Lw { rt: val, base: T8, offset: 0 }
            } else {
                MInsn::Sw { rt: val, base: T8, offset: 0 }
            },
        ])
    }

    fn condition(&self, rng: &mut Rng) -> Vec<u32> {
        let rs = mips_data_reg(rng);
        let branch = match rng.below(4) {
            0 => MInsn::Beq { rs, rt: mips_data_reg(rng), offset: 0 },
            1 => MInsn::Bne { rs, rt: mips_data_reg(rng), offset: 0 },
            2 => MInsn::Blez { rs, offset: 0 },
            _ => MInsn::Bltz { rs, offset: 0 },
        };
        mips(&[branch])
    }

    fn loop_init(&self, counter: u8, trips: u8) -> u32 {
        codense_mips::encode(&MInsn::Addiu { rt: mreg(counter), rs: ZERO, imm: trips as i16 })
    }

    fn loop_back(&self, counter: u8) -> Vec<u32> {
        let counter = mreg(counter);
        mips(&[
            MInsn::Addiu { rt: counter, rs: counter, imm: -1 },
            MInsn::Bgtz { rs: counter, offset: 0 },
        ])
    }

    fn dispatch(&self, index: u8, width: usize, table: u32) -> Vec<u32> {
        // `$t8` holds the scaled index (plain data); only `$t9` ever holds
        // the fetch-domain address.
        mips(&[
            MInsn::Andi { rt: T8, rs: mreg(index), imm: (width - 1) as u16 },
            MInsn::Sll { rd: T8, rt: T8, sa: 2 },
            MInsn::Lui { rt: T9, imm: (table >> 16) as u16 },
            MInsn::Ori { rt: T9, rs: T9, imm: (table & 0xFFFF) as u16 },
            MInsn::Addu { rd: T9, rs: T9, rt: T8 },
            MInsn::Lw { rt: T9, base: T9, offset: 0 },
            MInsn::Jr { rs: T9 },
        ])
    }

    fn arm_entry(&self) -> Vec<u32> {
        Vec::new()
    }

    fn jump(&self) -> u32 {
        codense_mips::encode(&MInsn::J { offset: 0 })
    }

    fn call(&self) -> u32 {
        codense_mips::encode(&MInsn::Jal { offset: 0 })
    }

    fn ret(&self) -> u32 {
        codense_mips::encode(&MInsn::Jr { rs: RA })
    }

    fn entry_prologue(&self, reg_init: &[(u8, u32)]) -> Vec<u32> {
        let mut insns = vec![MInsn::Lui { rt: GP, imm: (DATA_BASE >> 16) as u16 }];
        for &(reg, value) in reg_init {
            let reg = mreg(reg);
            insns.push(MInsn::Lui { rt: reg, imm: (value >> 16) as u16 });
            insns.push(MInsn::Ori { rt: reg, rs: reg, imm: (value & 0xFFFF) as u16 });
        }
        mips(&insns)
    }

    fn frame(&self) -> (Vec<u32>, Vec<u32>) {
        // Callees save nothing (their loop bank is caller-disjoint), but a
        // balanced frame adjust reproduces common prologue shapes.
        (
            mips(&[MInsn::Addiu { rt: SP, rs: SP, imm: -24 }]),
            mips(&[MInsn::Addiu { rt: SP, rs: SP, imm: 24 }]),
        )
    }

    fn exit(&self, result: u8) -> Vec<u32> {
        mips(&[MInsn::Addu { rd: V0, rs: mreg(result), rt: ZERO }, MInsn::Syscall])
    }
}
