//! Architectural state and instruction semantics for the PowerPC subset.
//!
//! The machine is deliberately PC-less: the program counter lives in the
//! fetch engine (`codense-vm`), because a compressed-program processor's PC
//! is nibble-granular while an ordinary one is word-granular. All code
//! addresses the machine ever sees (LR, CTR, branch targets) are in the
//! *fetch domain* — nibble addresses — so the same semantics run both
//! program forms.

pub use codense_isa::{MachineError, Outcome};

use crate::insn::Insn;
use crate::reg::{CrField, Gpr, Spr};

/// Architectural state: GPRs, LR/CTR/CR/CA, and a flat big-endian data
/// memory.
#[derive(Debug, Clone)]
pub struct Machine {
    /// General-purpose registers.
    pub gpr: [u32; 32],
    /// Link register (fetch-domain address).
    pub lr: u32,
    /// Count register.
    pub ctr: u32,
    /// Condition register (bit 0 = CR0's LT, numbered big-endian as in the
    /// architecture books; bit *i* is `0x8000_0000 >> i`).
    pub cr: u32,
    /// Carry bit (`XER[CA]`).
    pub ca: bool,
    /// Data memory, byte-addressed, big-endian multi-byte accesses.
    pub mem: Vec<u8>,
}

impl Machine {
    /// Creates a machine with the given data-memory size in bytes, with the
    /// stack pointer (`r1`) parked near the top of memory.
    pub fn new(mem_bytes: usize) -> Machine {
        let mut m =
            Machine { gpr: [0; 32], lr: 0, ctr: 0, cr: 0, ca: false, mem: vec![0; mem_bytes] };
        m.gpr[1] = (mem_bytes as u32).saturating_sub(64) & !15;
        m
    }

    #[inline(always)]
    fn reg(&self, r: Gpr) -> u32 {
        // The mask restates `Gpr`'s `< 32` invariant where the optimizer
        // can see it, so hot register accesses carry no bounds check.
        self.gpr[(r.number() & 31) as usize]
    }

    #[inline(always)]
    fn set_reg(&mut self, r: Gpr, v: u32) {
        self.gpr[(r.number() & 31) as usize] = v;
    }

    /// Reads a CR bit (0 = CR0's LT … 31 = CR7's SO).
    pub fn cr_bit(&self, bit: u8) -> bool {
        self.cr & (0x8000_0000u32 >> bit) != 0
    }

    fn set_cr_bit(&mut self, bit: u8, v: bool) {
        let mask = 0x8000_0000u32 >> bit;
        if v {
            self.cr |= mask;
        } else {
            self.cr &= !mask;
        }
    }

    fn set_cr_field(&mut self, bf: CrField, lt: bool, gt: bool, eq: bool) {
        self.set_cr_bit(bf.lt_bit(), lt);
        self.set_cr_bit(bf.gt_bit(), gt);
        self.set_cr_bit(bf.eq_bit(), eq);
        self.set_cr_bit(bf.so_bit(), false);
    }

    fn record(&mut self, value: u32) {
        let v = value as i32;
        self.set_cr_field(crate::reg::CR0, v < 0, v > 0, v == 0);
    }

    fn record_if(&mut self, rc: bool, value: u32) -> u32 {
        if rc {
            self.record(value);
        }
        value
    }

    // ---- memory -----------------------------------------------------------

    #[inline(always)]
    fn check(&self, addr: u32, len: u32) -> Result<usize, MachineError> {
        let end = addr as u64 + len as u64;
        if end <= self.mem.len() as u64 {
            Ok(addr as usize)
        } else {
            Err(MachineError::MemoryFault { addr })
        }
    }

    /// Reads a big-endian 32-bit word.
    #[inline]
    pub fn load32(&self, addr: u32) -> Result<u32, MachineError> {
        let i = self.check(addr, 4)?;
        // Slice-then-convert compiles to one 4-byte load + byte swap; the
        // element-wise form is four separate byte loads.
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.mem[i..i + 4]);
        Ok(u32::from_be_bytes(b))
    }

    /// Reads a big-endian 16-bit halfword.
    pub fn load16(&self, addr: u32) -> Result<u16, MachineError> {
        let i = self.check(addr, 2)?;
        Ok(u16::from_be_bytes([self.mem[i], self.mem[i + 1]]))
    }

    /// Reads a byte.
    pub fn load8(&self, addr: u32) -> Result<u8, MachineError> {
        let i = self.check(addr, 1)?;
        Ok(self.mem[i])
    }

    /// Writes a big-endian 32-bit word.
    #[inline]
    pub fn store32(&mut self, addr: u32, v: u32) -> Result<(), MachineError> {
        let i = self.check(addr, 4)?;
        self.mem[i..i + 4].copy_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Writes a big-endian 16-bit halfword.
    pub fn store16(&mut self, addr: u32, v: u16) -> Result<(), MachineError> {
        let i = self.check(addr, 2)?;
        self.mem[i..i + 2].copy_from_slice(&v.to_be_bytes());
        Ok(())
    }

    /// Writes a byte.
    pub fn store8(&mut self, addr: u32, v: u8) -> Result<(), MachineError> {
        let i = self.check(addr, 1)?;
        self.mem[i] = v;
        Ok(())
    }

    fn ea(&self, ra: Gpr, d: i16) -> u32 {
        let base = if ra.number() == 0 { 0 } else { self.reg(ra) };
        base.wrapping_add(d as i32 as u32)
    }

    fn ea_x(&self, ra: Gpr, rb: Gpr) -> u32 {
        let base = if ra.number() == 0 { 0 } else { self.reg(ra) };
        base.wrapping_add(self.reg(rb))
    }

    // ---- branches ---------------------------------------------------------

    /// Evaluates the BO/BI condition, decrementing CTR as the BO field
    /// dictates. Returns whether the branch is taken.
    fn branch_taken(&mut self, bo: u8, bi: u8) -> bool {
        if bo & 0b00100 == 0 {
            self.ctr = self.ctr.wrapping_sub(1);
        }
        let ctr_ok = bo & 0b00100 != 0 || ((self.ctr != 0) ^ (bo & 0b00010 != 0));
        let cond_ok = bo & 0b10000 != 0 || (self.cr_bit(bi) == (bo & 0b01000 != 0));
        ctr_ok && cond_ok
    }

    // ---- shared op bodies ----------------------------------------------
    // The forms that dominate compiled code (§ D/X-form ALU, word
    // loads/stores, conditional branches) live in `#[inline(always)]`
    // helpers so the full interpreter ([`step`]) and the predecoded hot
    // dispatch ([`codense_isa::PredecodeCore::step_insn`]) execute the
    // same body — one inlined into the VM's run loop, one behind the
    // interpreter's match.

    #[inline(always)]
    fn op_addi(&mut self, rt: Gpr, ra: Gpr, si: i16) {
        let base = if ra.number() == 0 { 0 } else { self.reg(ra) };
        self.set_reg(rt, base.wrapping_add(si as i32 as u32));
    }

    #[inline(always)]
    fn op_addis(&mut self, rt: Gpr, ra: Gpr, si: i16) {
        let base = if ra.number() == 0 { 0 } else { self.reg(ra) };
        self.set_reg(rt, base.wrapping_add((si as i32 as u32) << 16));
    }

    #[inline(always)]
    fn op_cmpwi(&mut self, bf: CrField, ra: Gpr, si: i16) {
        let a = self.reg(ra) as i32;
        let b = si as i32;
        self.set_cr_field(bf, a < b, a > b, a == b);
    }

    #[inline(always)]
    fn op_cmplwi(&mut self, bf: CrField, ra: Gpr, ui: u16) {
        let a = self.reg(ra);
        let b = ui as u32;
        self.set_cr_field(bf, a < b, a > b, a == b);
    }

    #[inline(always)]
    fn op_cmpw(&mut self, bf: CrField, ra: Gpr, rb: Gpr) {
        let a = self.reg(ra) as i32;
        let b = self.reg(rb) as i32;
        self.set_cr_field(bf, a < b, a > b, a == b);
    }

    #[inline(always)]
    fn op_cmplw(&mut self, bf: CrField, ra: Gpr, rb: Gpr) {
        let a = self.reg(ra);
        let b = self.reg(rb);
        self.set_cr_field(bf, a < b, a > b, a == b);
    }

    #[inline(always)]
    fn op_lwz(&mut self, rt: Gpr, ra: Gpr, d: i16) -> Result<(), MachineError> {
        let v = self.load32(self.ea(ra, d))?;
        self.set_reg(rt, v);
        Ok(())
    }

    #[inline(always)]
    fn op_stw(&mut self, rs: Gpr, ra: Gpr, d: i16) -> Result<(), MachineError> {
        self.store32(self.ea(ra, d), self.reg(rs))
    }

    #[inline(always)]
    fn op_stwu(&mut self, rs: Gpr, ra: Gpr, d: i16) -> Result<(), MachineError> {
        let ea = self.ea(ra, d);
        self.store32(ea, self.reg(rs))?;
        self.set_reg(ra, ea);
        Ok(())
    }

    #[inline(always)]
    fn op_add(&mut self, rt: Gpr, ra: Gpr, rb: Gpr, rc: bool) {
        let v = self.reg(ra).wrapping_add(self.reg(rb));
        let v = self.record_if(rc, v);
        self.set_reg(rt, v);
    }

    #[inline(always)]
    fn op_subf(&mut self, rt: Gpr, ra: Gpr, rb: Gpr, rc: bool) {
        let v = self.reg(rb).wrapping_sub(self.reg(ra));
        let v = self.record_if(rc, v);
        self.set_reg(rt, v);
    }

    #[inline(always)]
    fn op_and(&mut self, ra: Gpr, rs: Gpr, rb: Gpr, rc: bool) {
        let v = self.reg(rs) & self.reg(rb);
        let v = self.record_if(rc, v);
        self.set_reg(ra, v);
    }

    #[inline(always)]
    fn op_or(&mut self, ra: Gpr, rs: Gpr, rb: Gpr, rc: bool) {
        let v = self.reg(rs) | self.reg(rb);
        let v = self.record_if(rc, v);
        self.set_reg(ra, v);
    }

    #[inline(always)]
    fn op_xor(&mut self, ra: Gpr, rs: Gpr, rb: Gpr, rc: bool) {
        let v = self.reg(rs) ^ self.reg(rb);
        let v = self.record_if(rc, v);
        self.set_reg(ra, v);
    }

    #[inline(always)]
    fn op_rlwinm(&mut self, ra: Gpr, rs: Gpr, sh: u8, mb: u8, me: u8, rc: bool) {
        let rotated = self.reg(rs).rotate_left(sh as u32);
        let v = rotated & mask32(mb, me);
        let v = self.record_if(rc, v);
        self.set_reg(ra, v);
    }

    #[inline(always)]
    fn op_b(&mut self, li: i32, aa: bool, lk: bool, cur_pc: u64, next_pc: u64, g: i64) -> Outcome {
        if lk {
            self.lr = next_pc as u32;
        }
        let units = (li / 4) as i64;
        let target = if aa { units * g } else { cur_pc as i64 + units * g };
        Outcome::Branch(target as u64)
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn op_bc(
        &mut self,
        bo: u8,
        bi: u8,
        bd: i16,
        aa: bool,
        lk: bool,
        cur_pc: u64,
        next_pc: u64,
        g: i64,
    ) -> Outcome {
        if lk {
            self.lr = next_pc as u32;
        }
        if self.branch_taken(bo, bi) {
            let units = (bd / 4) as i64;
            let target = if aa { units * g } else { cur_pc as i64 + units * g };
            Outcome::Branch(target as u64)
        } else {
            Outcome::Next
        }
    }

    #[inline(always)]
    fn op_bclr(&mut self, bo: u8, bi: u8, lk: bool, next_pc: u64) -> Outcome {
        let target = self.lr;
        if lk {
            self.lr = next_pc as u32;
        }
        if self.branch_taken(bo, bi) {
            Outcome::Branch(target as u64)
        } else {
            Outcome::Next
        }
    }

    /// Executes one instruction.
    ///
    /// `cur_pc`/`next_pc` are the instruction's own and successor addresses
    /// in the fetch domain; `granule` is the fetch domain's branch-offset
    /// unit in nibbles (8 uncompressed, 4/2/1 compressed). Branch offset
    /// fields are interpreted as raw units scaled by `granule`, exactly as
    /// the paper's modified control unit does (§3.2.2).
    ///
    /// # Errors
    ///
    /// Returns a [`MachineError`] on faults; the machine state reflects the
    /// partial execution (registers already written stay written).
    pub fn step(
        &mut self,
        insn: &Insn,
        cur_pc: u64,
        next_pc: u64,
        granule: u32,
    ) -> Result<Outcome, MachineError> {
        use Insn::*;
        let g = granule as i64;
        match *insn {
            // ---- D-form arithmetic ---------------------------------------
            Addi { rt, ra, si } => self.op_addi(rt, ra, si),
            Addis { rt, ra, si } => self.op_addis(rt, ra, si),
            Addic { rt, ra, si } | AddicRc { rt, ra, si } => {
                let (v, c) = self.reg(ra).overflowing_add(si as i32 as u32);
                self.ca = c;
                self.set_reg(rt, v);
                if matches!(insn, AddicRc { .. }) {
                    self.record(v);
                }
            }
            Subfic { rt, ra, si } => {
                let (v, borrow) = (si as i32 as u32).overflowing_sub(self.reg(ra));
                self.ca = !borrow;
                self.set_reg(rt, v);
            }
            Mulli { rt, ra, si } => {
                self.set_reg(rt, self.reg(ra).wrapping_mul(si as i32 as u32));
            }

            // ---- D-form logical ------------------------------------------
            Ori { ra, rs, ui } => self.set_reg(ra, self.reg(rs) | ui as u32),
            Oris { ra, rs, ui } => self.set_reg(ra, self.reg(rs) | ((ui as u32) << 16)),
            Xori { ra, rs, ui } => self.set_reg(ra, self.reg(rs) ^ ui as u32),
            Xoris { ra, rs, ui } => self.set_reg(ra, self.reg(rs) ^ ((ui as u32) << 16)),
            AndiRc { ra, rs, ui } => {
                let v = self.reg(rs) & ui as u32;
                self.set_reg(ra, v);
                self.record(v);
            }
            AndisRc { ra, rs, ui } => {
                let v = self.reg(rs) & ((ui as u32) << 16);
                self.set_reg(ra, v);
                self.record(v);
            }

            // ---- compares ------------------------------------------------
            Cmpwi { bf, ra, si } => self.op_cmpwi(bf, ra, si),
            Cmplwi { bf, ra, ui } => self.op_cmplwi(bf, ra, ui),
            Cmpw { bf, ra, rb } => self.op_cmpw(bf, ra, rb),
            Cmplw { bf, ra, rb } => self.op_cmplw(bf, ra, rb),

            // ---- loads and stores ----------------------------------------
            Lwz { rt, ra, d } => self.op_lwz(rt, ra, d)?,
            Lwzu { rt, ra, d } => {
                let ea = self.ea(ra, d);
                let v = self.load32(ea)?;
                self.set_reg(rt, v);
                self.set_reg(ra, ea);
            }
            Lbz { rt, ra, d } => {
                let v = self.load8(self.ea(ra, d))?;
                self.set_reg(rt, v as u32);
            }
            Lbzu { rt, ra, d } => {
                let ea = self.ea(ra, d);
                let v = self.load8(ea)?;
                self.set_reg(rt, v as u32);
                self.set_reg(ra, ea);
            }
            Lhz { rt, ra, d } => {
                let v = self.load16(self.ea(ra, d))?;
                self.set_reg(rt, v as u32);
            }
            Lhzu { rt, ra, d } => {
                let ea = self.ea(ra, d);
                let v = self.load16(ea)?;
                self.set_reg(rt, v as u32);
                self.set_reg(ra, ea);
            }
            Lha { rt, ra, d } => {
                let v = self.load16(self.ea(ra, d))? as i16;
                self.set_reg(rt, v as i32 as u32);
            }
            Lhau { rt, ra, d } => {
                let ea = self.ea(ra, d);
                let v = self.load16(ea)? as i16;
                self.set_reg(rt, v as i32 as u32);
                self.set_reg(ra, ea);
            }
            Stw { rs, ra, d } => self.op_stw(rs, ra, d)?,
            Stwu { rs, ra, d } => self.op_stwu(rs, ra, d)?,
            Stb { rs, ra, d } => self.store8(self.ea(ra, d), self.reg(rs) as u8)?,
            Stbu { rs, ra, d } => {
                let ea = self.ea(ra, d);
                self.store8(ea, self.reg(rs) as u8)?;
                self.set_reg(ra, ea);
            }
            Sth { rs, ra, d } => self.store16(self.ea(ra, d), self.reg(rs) as u16)?,
            Sthu { rs, ra, d } => {
                let ea = self.ea(ra, d);
                self.store16(ea, self.reg(rs) as u16)?;
                self.set_reg(ra, ea);
            }
            Lmw { rt, ra, d } => {
                let mut ea = self.ea(ra, d);
                for r in rt.number()..32 {
                    let v = self.load32(ea)?;
                    self.gpr[r as usize] = v;
                    ea = ea.wrapping_add(4);
                }
            }
            Stmw { rs, ra, d } => {
                let mut ea = self.ea(ra, d);
                for r in rs.number()..32 {
                    self.store32(ea, self.gpr[r as usize])?;
                    ea = ea.wrapping_add(4);
                }
            }
            Lwzx { rt, ra, rb } => {
                let v = self.load32(self.ea_x(ra, rb))?;
                self.set_reg(rt, v);
            }
            Lbzx { rt, ra, rb } => {
                let v = self.load8(self.ea_x(ra, rb))?;
                self.set_reg(rt, v as u32);
            }
            Lhzx { rt, ra, rb } => {
                let v = self.load16(self.ea_x(ra, rb))?;
                self.set_reg(rt, v as u32);
            }
            Stwx { rs, ra, rb } => self.store32(self.ea_x(ra, rb), self.reg(rs))?,
            Stbx { rs, ra, rb } => self.store8(self.ea_x(ra, rb), self.reg(rs) as u8)?,
            Sthx { rs, ra, rb } => self.store16(self.ea_x(ra, rb), self.reg(rs) as u16)?,

            // ---- XO-form arithmetic --------------------------------------
            Add { rt, ra, rb, rc } => self.op_add(rt, ra, rb, rc),
            Subf { rt, ra, rb, rc } => self.op_subf(rt, ra, rb, rc),
            Mullw { rt, ra, rb, rc } => {
                let v = self.reg(ra).wrapping_mul(self.reg(rb));
                let v = self.record_if(rc, v);
                self.set_reg(rt, v);
            }
            Mulhw { rt, ra, rb, rc } => {
                let v = ((self.reg(ra) as i32 as i64 * self.reg(rb) as i32 as i64) >> 32) as u32;
                let v = self.record_if(rc, v);
                self.set_reg(rt, v);
            }
            Divw { rt, ra, rb, rc } => {
                let a = self.reg(ra) as i32;
                let b = self.reg(rb) as i32;
                // Architecturally undefined for /0 and MIN/-1; we define 0.
                let v = if b == 0 || (a == i32::MIN && b == -1) { 0 } else { a / b } as u32;
                let v = self.record_if(rc, v);
                self.set_reg(rt, v);
            }
            Divwu { rt, ra, rb, rc } => {
                let b = self.reg(rb);
                let v = self.reg(ra).checked_div(b).unwrap_or(0);
                let v = self.record_if(rc, v);
                self.set_reg(rt, v);
            }
            Neg { rt, ra, rc } => {
                let v = (self.reg(ra) as i32).wrapping_neg() as u32;
                let v = self.record_if(rc, v);
                self.set_reg(rt, v);
            }

            // ---- X-form logical ------------------------------------------
            And { ra, rs, rb, rc } => self.op_and(ra, rs, rb, rc),
            Or { ra, rs, rb, rc } => self.op_or(ra, rs, rb, rc),
            Xor { ra, rs, rb, rc } => self.op_xor(ra, rs, rb, rc),
            Nand { ra, rs, rb, rc } => {
                let v = !(self.reg(rs) & self.reg(rb));
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }
            Nor { ra, rs, rb, rc } => {
                let v = !(self.reg(rs) | self.reg(rb));
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }
            Andc { ra, rs, rb, rc } => {
                let v = self.reg(rs) & !self.reg(rb);
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }
            Orc { ra, rs, rb, rc } => {
                let v = self.reg(rs) | !self.reg(rb);
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }
            Slw { ra, rs, rb, rc } => {
                let sh = self.reg(rb) & 0x3f;
                let v = if sh > 31 { 0 } else { self.reg(rs) << sh };
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }
            Srw { ra, rs, rb, rc } => {
                let sh = self.reg(rb) & 0x3f;
                let v = if sh > 31 { 0 } else { self.reg(rs) >> sh };
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }
            Sraw { ra, rs, rb, rc } => {
                let sh = self.reg(rb) & 0x3f;
                let s = self.reg(rs) as i32;
                let v = if sh > 31 { (s >> 31) as u32 } else { (s >> sh) as u32 };
                self.ca = s < 0 && (sh > 31 || (s as u32) << (32 - sh.max(1)) != 0) && sh != 0;
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }
            Srawi { ra, rs, sh, rc } => {
                let s = self.reg(rs) as i32;
                let v = (s >> sh) as u32;
                self.ca = s < 0 && sh != 0 && (s as u32) << (32 - sh as u32) != 0;
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }
            Extsb { ra, rs, rc } => {
                let v = self.reg(rs) as u8 as i8 as i32 as u32;
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }
            Extsh { ra, rs, rc } => {
                let v = self.reg(rs) as u16 as i16 as i32 as u32;
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }
            Cntlzw { ra, rs, rc } => {
                let v = self.reg(rs).leading_zeros();
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }

            // ---- rotates -------------------------------------------------
            Rlwinm { ra, rs, sh, mb, me, rc } => self.op_rlwinm(ra, rs, sh, mb, me, rc),
            Rlwimi { ra, rs, sh, mb, me, rc } => {
                let m = mask32(mb, me);
                let rotated = self.reg(rs).rotate_left(sh as u32);
                let v = (rotated & m) | (self.reg(ra) & !m);
                let v = self.record_if(rc, v);
                self.set_reg(ra, v);
            }

            // ---- branches ------------------------------------------------
            B { li, aa, lk } => return Ok(self.op_b(li, aa, lk, cur_pc, next_pc, g)),
            Bc { bo, bi, bd, aa, lk } => {
                return Ok(self.op_bc(bo, bi, bd, aa, lk, cur_pc, next_pc, g))
            }
            Bclr { bo, bi, lk } => return Ok(self.op_bclr(bo, bi, lk, next_pc)),
            Bcctr { bo, bi, lk } => {
                if lk {
                    self.lr = next_pc as u32;
                }
                // CTR-decrementing forms are invalid for bcctr; treat BO
                // literally but never decrement (as hardware does).
                let cond_ok = bo & 0b10000 != 0 || (self.cr_bit(bi) == (bo & 0b01000 != 0));
                if cond_ok {
                    return Ok(Outcome::Branch(self.ctr as u64));
                }
            }

            // ---- CR and SPRs ---------------------------------------------
            Crxor { bt, ba, bb } => {
                let v = self.cr_bit(ba) ^ self.cr_bit(bb);
                self.set_cr_bit(bt, v);
            }
            Mfcr { rt } => self.set_reg(rt, self.cr),
            Mtcrf { fxm, rs } => {
                let v = self.reg(rs);
                for field in 0..8 {
                    if fxm & (0x80 >> field) != 0 {
                        let mask = 0xf000_0000u32 >> (4 * field);
                        self.cr = (self.cr & !mask) | (v & mask);
                    }
                }
            }
            Mfspr { rt, spr } => {
                let v = match spr {
                    Spr::Lr => self.lr,
                    Spr::Ctr => self.ctr,
                    Spr::Xer => u32::from(self.ca) << 29,
                };
                self.set_reg(rt, v);
            }
            Mtspr { spr, rs } => {
                let v = self.reg(rs);
                match spr {
                    Spr::Lr => self.lr = v,
                    Spr::Ctr => self.ctr = v,
                    Spr::Xer => self.ca = v & (1 << 29) != 0,
                }
            }

            // ---- traps and system ----------------------------------------
            Twi { to, ra, si } => {
                let a = self.reg(ra) as i32;
                let b = si as i32;
                let fire = (to & 0b10000 != 0 && a < b)
                    || (to & 0b01000 != 0 && a > b)
                    || (to & 0b00100 != 0 && a == b)
                    || (to & 0b00010 != 0 && (a as u32) < (b as u32))
                    || (to & 0b00001 != 0 && (a as u32) > (b as u32));
                if fire {
                    return Err(MachineError::Trap);
                }
            }
            Sc => return Ok(Outcome::Halt),
            Illegal(word) => return Err(MachineError::IllegalInstruction { word }),
        }
        Ok(Outcome::Next)
    }
}

impl codense_isa::Core for Machine {
    fn step_word(
        &mut self,
        word: u32,
        cur_pc: u64,
        next_pc: u64,
        granule: u32,
    ) -> Result<Outcome, MachineError> {
        self.step(&crate::decode(word), cur_pc, next_pc, granule)
    }

    fn gpr(&self, r: usize) -> u32 {
        self.gpr[r]
    }

    fn set_gpr(&mut self, r: usize, v: u32) {
        self.gpr[r] = v;
    }

    fn write32(&mut self, addr: u32, v: u32) -> Result<(), MachineError> {
        self.store32(addr, v)
    }

    fn mem_bytes(&self) -> &[u8] {
        &self.mem
    }

    fn exit_code(&self) -> u32 {
        self.gpr[3]
    }

    fn flags(&self) -> u64 {
        self.cr as u64 | (u64::from(self.ca) << 32)
    }
}

impl codense_isa::PredecodeCore for Machine {
    type Insn = Insn;

    fn predecode(word: u32) -> Insn {
        crate::decode(word)
    }

    #[inline(always)]
    fn step_insn(
        &mut self,
        insn: &Insn,
        cur_pc: u64,
        next_pc: u64,
        granule: u32,
    ) -> Result<Outcome, MachineError> {
        use Insn::*;
        // Hot dispatch: the forms dominating compiled code run through the
        // shared `op_*` bodies inlined into the caller's loop; everything
        // else falls back to the full interpreter.
        match *insn {
            Addi { rt, ra, si } => self.op_addi(rt, ra, si),
            Addis { rt, ra, si } => self.op_addis(rt, ra, si),
            Cmpwi { bf, ra, si } => self.op_cmpwi(bf, ra, si),
            Cmplwi { bf, ra, ui } => self.op_cmplwi(bf, ra, ui),
            Cmpw { bf, ra, rb } => self.op_cmpw(bf, ra, rb),
            Cmplw { bf, ra, rb } => self.op_cmplw(bf, ra, rb),
            Lwz { rt, ra, d } => self.op_lwz(rt, ra, d)?,
            Stw { rs, ra, d } => self.op_stw(rs, ra, d)?,
            Stwu { rs, ra, d } => self.op_stwu(rs, ra, d)?,
            Add { rt, ra, rb, rc } => self.op_add(rt, ra, rb, rc),
            Subf { rt, ra, rb, rc } => self.op_subf(rt, ra, rb, rc),
            And { ra, rs, rb, rc } => self.op_and(ra, rs, rb, rc),
            Or { ra, rs, rb, rc } => self.op_or(ra, rs, rb, rc),
            Xor { ra, rs, rb, rc } => self.op_xor(ra, rs, rb, rc),
            Rlwinm { ra, rs, sh, mb, me, rc } => self.op_rlwinm(ra, rs, sh, mb, me, rc),
            B { li, aa, lk } => return Ok(self.op_b(li, aa, lk, cur_pc, next_pc, granule as i64)),
            Bc { bo, bi, bd, aa, lk } => {
                return Ok(self.op_bc(bo, bi, bd, aa, lk, cur_pc, next_pc, granule as i64))
            }
            Bclr { bo, bi, lk } => return Ok(self.op_bclr(bo, bi, lk, next_pc)),
            _ => return self.step(insn, cur_pc, next_pc, granule),
        }
        Ok(Outcome::Next)
    }
}

/// PowerPC rotate mask: bits `mb..=me` set (big-endian bit numbering), with
/// the wrap-around case when `mb > me`.
fn mask32(mb: u8, me: u8) -> u32 {
    let mb = mb as u32;
    let me = me as u32;
    let x = 0xffff_ffffu32;
    if mb <= me {
        (x >> mb) & (x << (31 - me))
    } else {
        (x >> mb) | (x << (31 - me))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::*;

    fn m() -> Machine {
        Machine::new(64 * 1024)
    }

    fn exec(mach: &mut Machine, insn: Insn) -> Outcome {
        mach.step(&insn, 0, 8, 8).unwrap()
    }

    #[test]
    fn arithmetic_basics() {
        let mut mach = m();
        exec(&mut mach, Insn::Addi { rt: R3, ra: R0, si: -5 });
        assert_eq!(mach.gpr[3], (-5i32) as u32);
        exec(&mut mach, Insn::Addis { rt: R4, ra: R0, si: 1 });
        assert_eq!(mach.gpr[4], 0x0001_0000);
        exec(&mut mach, Insn::Add { rt: R5, ra: R3, rb: R4, rc: false });
        assert_eq!(mach.gpr[5], 0x0000_fffb);
        exec(&mut mach, Insn::Neg { rt: R6, ra: R3, rc: false });
        assert_eq!(mach.gpr[6], 5);
    }

    #[test]
    fn record_forms_set_cr0() {
        let mut mach = m();
        exec(&mut mach, Insn::Addi { rt: R3, ra: R0, si: -1 });
        exec(&mut mach, Insn::Add { rt: R4, ra: R3, rb: R3, rc: true });
        assert!(mach.cr_bit(CR0.lt_bit()));
        assert!(!mach.cr_bit(CR0.eq_bit()));
        exec(&mut mach, Insn::Subf { rt: R5, ra: R3, rb: R3, rc: true });
        assert!(mach.cr_bit(CR0.eq_bit()));
    }

    #[test]
    fn compare_signed_vs_unsigned() {
        let mut mach = m();
        exec(&mut mach, Insn::Addi { rt: R3, ra: R0, si: -1 });
        exec(&mut mach, Insn::Cmpwi { bf: CR1, ra: R3, si: 0 });
        assert!(mach.cr_bit(CR1.lt_bit()));
        exec(&mut mach, Insn::Cmplwi { bf: CR2, ra: R3, ui: 0 });
        assert!(mach.cr_bit(CR2.gt_bit())); // 0xffffffff unsigned-> huge
    }

    #[test]
    fn memory_roundtrip_and_endianness() {
        let mut mach = m();
        mach.gpr[9] = 0x100;
        mach.gpr[3] = 0xdead_beef;
        exec(&mut mach, Insn::Stw { rs: R3, ra: R9, d: 4 });
        assert_eq!(&mach.mem[0x104..0x108], &[0xde, 0xad, 0xbe, 0xef]);
        exec(&mut mach, Insn::Lbz { rt: R4, ra: R9, d: 5 });
        assert_eq!(mach.gpr[4], 0xad);
        exec(&mut mach, Insn::Lhz { rt: R5, ra: R9, d: 6 });
        assert_eq!(mach.gpr[5], 0xbeef);
        exec(&mut mach, Insn::Lha { rt: R6, ra: R9, d: 6 });
        assert_eq!(mach.gpr[6], 0xffff_beef);
    }

    #[test]
    fn stmw_lmw_roundtrip() {
        let mut mach = m();
        for r in 29..32 {
            mach.gpr[r] = 0x1000 + r as u32;
        }
        mach.gpr[1] = 0x200;
        exec(&mut mach, Insn::Stmw { rs: R29, ra: R1, d: 16 });
        for r in 29..32 {
            mach.gpr[r] = 0;
        }
        exec(&mut mach, Insn::Lmw { rt: R29, ra: R1, d: 16 });
        for r in 29..32 {
            assert_eq!(mach.gpr[r], 0x1000 + r as u32);
        }
    }

    #[test]
    fn memory_fault_detected() {
        let mut mach = m();
        mach.gpr[9] = mach.mem.len() as u32;
        let err = mach.step(&Insn::Lwz { rt: R3, ra: R9, d: 0 }, 0, 8, 8).unwrap_err();
        assert!(matches!(err, MachineError::MemoryFault { .. }));
    }

    #[test]
    fn rotates_and_shifts() {
        let mut mach = m();
        mach.gpr[3] = 0x0000_01ff;
        // clrlwi r4,r3,24 keeps the low byte.
        exec(&mut mach, Insn::Rlwinm { ra: R4, rs: R3, sh: 0, mb: 24, me: 31, rc: false });
        assert_eq!(mach.gpr[4], 0xff);
        // slwi r5,r3,4
        exec(&mut mach, Insn::Rlwinm { ra: R5, rs: R3, sh: 4, mb: 0, me: 27, rc: false });
        assert_eq!(mach.gpr[5], 0x1ff0);
        mach.gpr[6] = 0x8000_0000;
        exec(&mut mach, Insn::Srawi { ra: R7, rs: R6, sh: 4, rc: false });
        assert_eq!(mach.gpr[7], 0xf800_0000);
        assert!(!mach.ca); // no 1-bits shifted out
        mach.gpr[6] = 0x8000_0001;
        exec(&mut mach, Insn::Srawi { ra: R7, rs: R6, sh: 1, rc: false });
        assert!(mach.ca);
    }

    #[test]
    fn branch_granule_scaling() {
        let mut mach = m();
        // b .+16 bytes = 4 units. At granule 8 (uncompressed): +32 nibbles.
        let out = mach.step(&Insn::B { li: 16, aa: false, lk: false }, 100, 108, 8).unwrap();
        assert_eq!(out, Outcome::Branch(100 + 4 * 8));
        // Same instruction in a nibble-compressed program (granule 1).
        let out = mach.step(&Insn::B { li: 16, aa: false, lk: false }, 100, 109, 1).unwrap();
        assert_eq!(out, Outcome::Branch(104));
    }

    #[test]
    fn call_and_return() {
        let mut mach = m();
        let out = mach.step(&Insn::B { li: 40, aa: false, lk: true }, 64, 72, 8).unwrap();
        assert_eq!(out, Outcome::Branch(64 + 10 * 8));
        assert_eq!(mach.lr, 72);
        let out = mach
            .step(&Insn::Bclr { bo: crate::insn::bo::ALWAYS, bi: 0, lk: false }, 200, 208, 8)
            .unwrap();
        assert_eq!(out, Outcome::Branch(72));
    }

    #[test]
    fn bdnz_decrements_ctr() {
        let mut mach = m();
        mach.ctr = 2;
        let taken = |mach: &mut Machine| {
            mach.step(
                &Insn::Bc { bo: crate::insn::bo::DNZ, bi: 0, bd: -8, aa: false, lk: false },
                100,
                108,
                8,
            )
            .unwrap()
        };
        assert_eq!(taken(&mut mach), Outcome::Branch(100 - 2 * 8));
        assert_eq!(mach.ctr, 1);
        assert_eq!(taken(&mut mach), Outcome::Next);
        assert_eq!(mach.ctr, 0);
    }

    #[test]
    fn trap_and_halt() {
        let mut mach = m();
        mach.gpr[3] = 5;
        // twi eq, r3, 5 fires.
        let err = mach.step(&Insn::Twi { to: 0b00100, ra: R3, si: 5 }, 0, 8, 8).unwrap_err();
        assert_eq!(err, MachineError::Trap);
        assert_eq!(exec(&mut mach, Insn::Sc), Outcome::Halt);
    }

    #[test]
    fn mask32_wraparound() {
        assert_eq!(mask32(24, 31), 0xff);
        assert_eq!(mask32(0, 31), 0xffff_ffff);
        assert_eq!(mask32(0, 7), 0xff00_0000);
        // Wrap: mb=30, me=1 → bits 30,31,0,1.
        assert_eq!(mask32(30, 1), 0xc000_0003);
    }
}

#[cfg(test)]
mod semantics_edge_tests {
    use super::*;
    use crate::insn::Insn;
    use crate::reg::*;

    fn m() -> Machine {
        Machine::new(4096)
    }

    fn exec(mach: &mut Machine, insn: Insn) {
        mach.step(&insn, 0, 8, 8).unwrap();
    }

    #[test]
    fn addic_carry_semantics() {
        let mut mach = m();
        mach.gpr[4] = 0xffff_ffff;
        exec(&mut mach, Insn::Addic { rt: R3, ra: R4, si: 1 });
        assert_eq!(mach.gpr[3], 0);
        assert!(mach.ca, "wraparound sets CA");
        mach.gpr[4] = 5;
        exec(&mut mach, Insn::Addic { rt: R3, ra: R4, si: 1 });
        assert!(!mach.ca, "no carry clears CA");
    }

    #[test]
    fn subfic_borrow_semantics() {
        let mut mach = m();
        mach.gpr[4] = 3;
        exec(&mut mach, Insn::Subfic { rt: R3, ra: R4, si: 10 });
        assert_eq!(mach.gpr[3], 7);
        assert!(mach.ca, "no borrow sets CA");
        mach.gpr[4] = 10;
        exec(&mut mach, Insn::Subfic { rt: R3, ra: R4, si: 3 });
        assert_eq!(mach.gpr[3], (-7i32) as u32);
        assert!(!mach.ca, "borrow clears CA");
    }

    #[test]
    fn division_edge_cases_defined() {
        let mut mach = m();
        mach.gpr[4] = 7;
        mach.gpr[5] = 0;
        exec(&mut mach, Insn::Divw { rt: R3, ra: R4, rb: R5, rc: false });
        assert_eq!(mach.gpr[3], 0, "divide by zero yields 0 in this model");
        mach.gpr[4] = 0x8000_0000;
        mach.gpr[5] = 0xffff_ffff;
        exec(&mut mach, Insn::Divw { rt: R3, ra: R4, rb: R5, rc: false });
        assert_eq!(mach.gpr[3], 0, "MIN / -1 yields 0 in this model");
        mach.gpr[4] = 100;
        mach.gpr[5] = 7;
        exec(&mut mach, Insn::Divwu { rt: R3, ra: R4, rb: R5, rc: false });
        assert_eq!(mach.gpr[3], 14);
    }

    #[test]
    fn mulhw_high_bits() {
        let mut mach = m();
        mach.gpr[4] = 0x4000_0000;
        mach.gpr[5] = 4;
        exec(&mut mach, Insn::Mulhw { rt: R3, ra: R4, rb: R5, rc: false });
        assert_eq!(mach.gpr[3], 1); // 2^30 * 4 = 2^32
        mach.gpr[4] = (-3i32) as u32;
        mach.gpr[5] = 2;
        exec(&mut mach, Insn::Mulhw { rt: R3, ra: R4, rb: R5, rc: false });
        assert_eq!(mach.gpr[3], 0xffff_ffff, "signed high half");
    }

    #[test]
    fn shift_amounts_beyond_31() {
        let mut mach = m();
        mach.gpr[4] = 0xdead_beef;
        mach.gpr[5] = 32;
        exec(&mut mach, Insn::Slw { ra: R3, rs: R4, rb: R5, rc: false });
        assert_eq!(mach.gpr[3], 0);
        exec(&mut mach, Insn::Srw { ra: R3, rs: R4, rb: R5, rc: false });
        assert_eq!(mach.gpr[3], 0);
        exec(&mut mach, Insn::Sraw { ra: R3, rs: R4, rb: R5, rc: false });
        assert_eq!(mach.gpr[3], 0xffff_ffff, "algebraic fills with sign");
    }

    #[test]
    fn cntlzw_and_extends() {
        let mut mach = m();
        mach.gpr[4] = 0;
        exec(&mut mach, Insn::Cntlzw { ra: R3, rs: R4, rc: false });
        assert_eq!(mach.gpr[3], 32);
        mach.gpr[4] = 0x0000_8000;
        exec(&mut mach, Insn::Cntlzw { ra: R3, rs: R4, rc: false });
        assert_eq!(mach.gpr[3], 16);
        mach.gpr[4] = 0x80;
        exec(&mut mach, Insn::Extsb { ra: R3, rs: R4, rc: false });
        assert_eq!(mach.gpr[3], 0xffff_ff80);
        mach.gpr[4] = 0x8000;
        exec(&mut mach, Insn::Extsh { ra: R3, rs: R4, rc: false });
        assert_eq!(mach.gpr[3], 0xffff_8000);
    }

    #[test]
    fn rlwimi_inserts_under_mask() {
        let mut mach = m();
        mach.gpr[3] = 0xaaaa_aaaa; // destination keeps bits outside mask
        mach.gpr[4] = 0x0000_00ff;
        exec(&mut mach, Insn::Rlwimi { ra: R3, rs: R4, sh: 8, mb: 16, me: 23, rc: false });
        // rs rotated left 8 = 0x0000ff00; mask bits 16..=23 = 0x0000ff00.
        assert_eq!(mach.gpr[3], 0xaaaa_ffaa);
    }

    #[test]
    fn mtcrf_partial_update() {
        let mut mach = m();
        mach.cr = 0xffff_ffff;
        mach.gpr[4] = 0;
        // Update only CR field 0 (mask bit 0x80).
        exec(&mut mach, Insn::Mtcrf { fxm: 0x80, rs: R4 });
        assert_eq!(mach.cr, 0x0fff_ffff);
        // And only field 7.
        mach.cr = 0;
        mach.gpr[4] = 0xffff_ffff;
        exec(&mut mach, Insn::Mtcrf { fxm: 0x01, rs: R4 });
        assert_eq!(mach.cr, 0x0000_000f);
    }

    #[test]
    fn ea_with_r0_base_reads_zero() {
        let mut mach = m();
        mach.gpr[0] = 0xdead_0000; // must be ignored as a base
        mach.store32(0x40, 0x1234_5678).unwrap();
        exec(&mut mach, Insn::Lwz { rt: R3, ra: R0, d: 0x40 });
        assert_eq!(mach.gpr[3], 0x1234_5678);
    }
}
