#![warn(missing_docs)]

//! A Thumb/MIPS16-style *static ISA subsetting* baseline (§2.2 of the
//! reproduced paper).
//!
//! Thumb and MIPS16 shrink programs by re-encoding a fixed, statically
//! chosen subset of the base ISA into 16-bit instructions, at the cost of
//! reaching only 8 registers and reduced immediate ranges, with mode
//! switches between 16- and 32-bit code. The paper contrasts its
//! program-specific dictionary against this program-independent subsetting
//! ("we derive our codewords and dictionary from the specific
//! characteristics of the program under execution") and reports Thumb ≈ 30 %
//! / MIPS16 ≈ 40 % smaller code.
//!
//! This crate models that approach for the PowerPC subset with a per-
//! instruction *cost function* ([`thumb_cost_bytes`]):
//!
//! * **2 bytes** — the instruction's shape fits a Thumb-1-like 16-bit form
//!   (2-address or 3-address-with-imm3 ALU, 8-bit move/compare immediates,
//!   5-bit scaled load/store offsets or SP-relative imm8, short branches,
//!   `push`/`pop` multiple, hi-reg moves for LR/CTR);
//! * **4 bytes** — directly expressible as a 32-bit pair (`bl`, long `b`);
//! * **expansion** — everything else (wide immediates, general rotates,
//!   divides, wide compares): materialized with several 16-bit
//!   instructions, at [`ThumbModel::expansion_bytes`] each.
//!
//! Register *numbers* are ignored (a Thumb compiler allocates into the low
//! registers); instead each function whose body touches more than 8 GPRs
//! pays [`ThumbModel::pressure_bytes`] per extra register, approximating
//! the spill traffic the 8-register limit induces ("this confines Thumb and
//! MIPS16 programs to 8 registers of the base architecture"). The model is
//! deliberately *generous* to Thumb — an upper bound on what static
//! subsetting achieves here — which only strengthens the comparison when
//! the dictionary still wins.

use std::collections::HashSet;

use codense_obj::ObjectModule;
use codense_ppc::{decode, Insn};

/// Cost parameters of the 16-bit mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThumbModel {
    /// Bytes a non-re-encodable instruction costs inside a 16-bit-mode
    /// function (expansion into several 16-bit instructions / literal-pool
    /// loads). Thumb practice averages ~3 halfwords.
    pub expansion_bytes: u32,
    /// Per-function mode-switch veneer bytes (`bx`-style trampoline).
    pub veneer_bytes: u32,
    /// Spill-traffic bytes charged per distinct GPR beyond 8 used by a
    /// 16-bit-mode function.
    pub pressure_bytes: u32,
}

impl Default for ThumbModel {
    fn default() -> ThumbModel {
        ThumbModel { expansion_bytes: 6, veneer_bytes: 4, pressure_bytes: 8 }
    }
}

/// Result of the per-function mode assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThumbReport {
    /// Total instructions analyzed.
    pub insns: usize,
    /// Instructions whose shape fits a 16-bit form.
    pub narrow: usize,
    /// Instructions expressible as a direct 32-bit pair (`bl`, long `b`).
    pub paired: usize,
    /// Functions compiled in 16-bit mode.
    pub thumb_functions: usize,
    /// Functions kept in 32-bit mode.
    pub arm_functions: usize,
    /// Modeled program size in bytes.
    pub size_bytes: usize,
    /// Original program size in bytes.
    pub original_bytes: usize,
}

impl ThumbReport {
    /// Modeled compression ratio (size/original).
    pub fn compression_ratio(&self) -> f64 {
        self.size_bytes as f64 / self.original_bytes as f64
    }

    /// Fraction of instructions with a 16-bit form.
    pub fn coverage(&self) -> f64 {
        self.narrow as f64 / self.insns as f64
    }
}

/// Bytes this instruction costs in 16-bit mode under `model` (register
/// numbers ignored; see the crate docs for the renaming assumption).
pub fn thumb_cost_bytes(insn: &Insn, model: ThumbModel) -> u32 {
    use Insn::*;
    let narrow = 2;
    let pair = 4;
    let wide = model.expansion_bytes;
    match *insn {
        // Moves/ALU immediates: mov/add/sub imm8, add 3-address imm3.
        Addi { rt, ra, si } => {
            let mov_imm8 = ra.number() == 0 && (0..256).contains(&si);
            let add_sub_imm8 = rt == ra && (-255..256).contains(&si);
            let add_imm3 = (-7..8).contains(&si);
            if mov_imm8 || add_sub_imm8 || add_imm3 {
                narrow
            } else {
                wide
            }
        }
        Addis { .. } | Oris { .. } | Xoris { .. } | AndisRc { .. } => wide,
        Mulli { .. } => wide,
        Addic { .. } | AddicRc { .. } | Subfic { .. } => wide,

        Cmpwi { si, .. } => {
            if (0..256).contains(&si) {
                narrow
            } else {
                wide
            }
        }
        Cmplwi { ui, .. } => {
            if ui < 256 {
                narrow
            } else {
                wide
            }
        }
        Cmpw { .. } | Cmplw { .. } => narrow,

        // Register ALU: Thumb ADD/SUB are 3-address; the rest 2-address.
        Add { .. } | Subf { .. } | Neg { .. } => narrow,
        Mullw { rt, ra, rb, .. } => {
            if rt == ra || rt == rb {
                narrow
            } else {
                wide
            }
        }
        And { ra, rs, rb, .. } | Xor { ra, rs, rb, .. } | Andc { ra, rs, rb, .. } => {
            if ra == rs || ra == rb {
                narrow
            } else {
                wide
            }
        }
        Or { ra, rs, rb, .. } => {
            if rs == rb || ra == rs || ra == rb {
                narrow
            } else {
                wide
            } // mr or 2-address orr
        }
        Nor { rs, rb, .. } => {
            if rs == rb {
                narrow
            } else {
                wide
            }
        } // mvn
        Nand { .. } | Orc { .. } => wide,
        // D-form logical immediates: 8-bit values fit and-/orr-/eor-with-
        // mov-imm8 pairs poorly; only tiny masks stay narrow via lsls/lsrs.
        Ori { rs, ra, ui } => {
            // nop (ui == 0) and orr-imm8 both stay narrow.
            if ui < 256 && rs == ra {
                narrow
            } else {
                wide
            }
        }
        Xori { rs, ra, ui } | AndiRc { rs, ra, ui } => {
            if ui < 256 && rs == ra {
                narrow
            } else {
                wide
            }
        }
        Slw { .. } | Srw { .. } | Sraw { .. } | Srawi { .. } => narrow,
        Extsb { .. } | Extsh { .. } => wide, // no sxtb/sxth in Thumb-1
        Cntlzw { .. } => wide,
        Mulhw { .. } | Divw { .. } | Divwu { .. } => wide, // runtime helpers

        // Rotates: only the plain shift idioms have Thumb forms.
        Rlwinm { sh, mb, me, .. } => {
            if (mb == 0 && me == 31 - sh) || (me == 31 && mb == 32 - sh) || (sh == 0 && me == 31) {
                narrow // lsl / lsr / 8-bit mask via lsls+lsrs counts once
            } else {
                wide
            }
        }
        Rlwimi { .. } => wide,

        // Loads/stores: SP-relative word imm8*4, otherwise imm5 scaled;
        // indexed forms exist.
        Lwz { ra, d, .. } | Stw { ra, d, .. } => {
            // SP-relative imm8*4, or general-base imm5*4.
            let in_range =
                if ra.number() == 1 { (0..1024).contains(&d) } else { (0..128).contains(&d) };
            if in_range && d % 4 == 0 {
                narrow
            } else {
                wide
            }
        }
        Lbz { d, .. } | Stb { d, .. } => {
            if (0..32).contains(&d) {
                narrow
            } else {
                wide
            }
        }
        Lhz { d, .. } | Sth { d, .. } => {
            if (0..64).contains(&d) && d % 2 == 0 {
                narrow
            } else {
                wide
            }
        }
        Lha { .. } => wide,
        Lwzu { .. }
        | Lbzu { .. }
        | Lhzu { .. }
        | Lhau { .. }
        | Stwu { .. }
        | Stbu { .. }
        | Sthu { .. } => wide,
        Lwzx { .. } | Lbzx { .. } | Lhzx { .. } | Stwx { .. } | Stbx { .. } | Sthx { .. } => narrow,
        Lmw { .. } | Stmw { .. } => narrow, // push/pop register list

        // Branches.
        B { li, aa: false, lk: false } => {
            if (-2048..2048).contains(&li) {
                narrow
            } else {
                pair
            }
        }
        B { lk: true, .. } => pair, // Thumb BL is two halfwords
        B { .. } => pair,
        Bc { bd, aa: false, lk: false, .. } => {
            if (-256..256).contains(&bd) {
                narrow
            } else {
                wide
            }
        }
        Bc { .. } => wide,
        Bclr { .. } => narrow,                 // bx lr
        Bcctr { .. } => narrow,                // bx/mov pc, reg
        Mfspr { .. } | Mtspr { .. } => narrow, // hi-register mov
        Mfcr { .. } | Mtcrf { .. } | Crxor { .. } => wide,
        Twi { .. } => wide,
        Sc => narrow, // swi
        Illegal(_) => wide,
    }
}

/// Analyzes a module under the default cost model.
pub fn analyze(module: &ObjectModule) -> ThumbReport {
    analyze_with(module, ThumbModel::default())
}

/// Analyzes a module, choosing per function between 32-bit mode and 16-bit
/// mode. Text outside any function is charged at 32 bits per instruction.
pub fn analyze_with(module: &ObjectModule, model: ThumbModel) -> ThumbReport {
    let mut report = ThumbReport {
        insns: module.len(),
        narrow: 0,
        paired: 0,
        thumb_functions: 0,
        arm_functions: 0,
        size_bytes: 0,
        original_bytes: module.text_bytes(),
    };
    let mut covered = vec![false; module.len()];
    for func in &module.functions {
        let mut thumb_cost = model.veneer_bytes as usize;
        let mut regs: HashSet<u8> = HashSet::new();
        for (flag, &word) in
            covered[func.start..func.end].iter_mut().zip(&module.code[func.start..func.end])
        {
            *flag = true;
            let insn = decode(word);
            let cost = thumb_cost_bytes(&insn, model);
            match cost {
                2 => report.narrow += 1,
                4 => report.paired += 1,
                _ => {}
            }
            thumb_cost += cost as usize;
            track_regs(&insn, &mut regs);
        }
        // 8-register pressure penalty.
        let pressure = regs.len().saturating_sub(8);
        thumb_cost += pressure * model.pressure_bytes as usize;

        let arm_cost = 4 * func.len();
        if thumb_cost < arm_cost {
            report.thumb_functions += 1;
            report.size_bytes += thumb_cost;
        } else {
            report.arm_functions += 1;
            report.size_bytes += arm_cost;
        }
    }
    report.size_bytes += 4 * covered.iter().filter(|&&c| !c).count();
    report
}

/// Records the GPRs an instruction names (r0/r1 excluded: zero/SP).
fn track_regs(insn: &Insn, regs: &mut HashSet<u8>) {
    use Insn::*;
    let mut push = |r: codense_ppc::Gpr| {
        if r.number() > 1 {
            regs.insert(r.number());
        }
    };
    match *insn {
        Addi { rt, ra, .. }
        | Addis { rt, ra, .. }
        | Addic { rt, ra, .. }
        | AddicRc { rt, ra, .. }
        | Subfic { rt, ra, .. }
        | Mulli { rt, ra, .. }
        | Lwz { rt, ra, .. }
        | Lwzu { rt, ra, .. }
        | Lbz { rt, ra, .. }
        | Lbzu { rt, ra, .. }
        | Lhz { rt, ra, .. }
        | Lhzu { rt, ra, .. }
        | Lha { rt, ra, .. }
        | Lhau { rt, ra, .. }
        | Lmw { rt, ra, .. } => {
            push(rt);
            push(ra);
        }
        Ori { ra, rs, .. }
        | Oris { ra, rs, .. }
        | Xori { ra, rs, .. }
        | Xoris { ra, rs, .. }
        | AndiRc { ra, rs, .. }
        | AndisRc { ra, rs, .. }
        | Srawi { ra, rs, .. }
        | Extsb { ra, rs, .. }
        | Extsh { ra, rs, .. }
        | Cntlzw { ra, rs, .. }
        | Rlwinm { ra, rs, .. }
        | Rlwimi { ra, rs, .. } => {
            push(ra);
            push(rs);
        }
        Stw { rs, ra, .. }
        | Stwu { rs, ra, .. }
        | Stb { rs, ra, .. }
        | Stbu { rs, ra, .. }
        | Sth { rs, ra, .. }
        | Sthu { rs, ra, .. }
        | Stmw { rs, ra, .. } => {
            push(rs);
            push(ra);
        }
        Add { rt, ra, rb, .. }
        | Subf { rt, ra, rb, .. }
        | Mullw { rt, ra, rb, .. }
        | Mulhw { rt, ra, rb, .. }
        | Divw { rt, ra, rb, .. }
        | Divwu { rt, ra, rb, .. }
        | Lwzx { rt, ra, rb }
        | Lbzx { rt, ra, rb }
        | Lhzx { rt, ra, rb } => {
            push(rt);
            push(ra);
            push(rb);
        }
        And { ra, rs, rb, .. }
        | Or { ra, rs, rb, .. }
        | Xor { ra, rs, rb, .. }
        | Nand { ra, rs, rb, .. }
        | Nor { ra, rs, rb, .. }
        | Andc { ra, rs, rb, .. }
        | Orc { ra, rs, rb, .. }
        | Slw { ra, rs, rb, .. }
        | Srw { ra, rs, rb, .. }
        | Sraw { ra, rs, rb, .. } => {
            push(ra);
            push(rs);
            push(rb);
        }
        Stwx { rs, ra, rb } | Stbx { rs, ra, rb } | Sthx { rs, ra, rb } => {
            push(rs);
            push(ra);
            push(rb);
        }
        Neg { rt, ra, .. } => {
            push(rt);
            push(ra);
        }
        Cmpwi { ra, .. } | Cmplwi { ra, .. } | Twi { ra, .. } => push(ra),
        Cmpw { ra, rb, .. } | Cmplw { ra, rb, .. } => {
            push(ra);
            push(rb);
        }
        Mfspr { rt, .. } => push(rt),
        Mtspr { rs, .. } => push(rs),
        Mfcr { rt } => push(rt),
        Mtcrf { rs, .. } => push(rs),
        B { .. } | Bc { .. } | Bclr { .. } | Bcctr { .. } | Crxor { .. } | Sc | Illegal(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_ppc::encode;
    use codense_ppc::insn::bo;
    use codense_ppc::reg::*;

    fn cost(insn: &Insn) -> u32 {
        thumb_cost_bytes(insn, ThumbModel::default())
    }

    #[test]
    fn alu_shapes() {
        assert_eq!(cost(&Insn::Add { rt: R9, ra: R11, rb: R4, rc: false }), 2);
        assert_eq!(cost(&Insn::Mullw { rt: R9, ra: R9, rb: R4, rc: false }), 2);
        assert_eq!(cost(&Insn::Mullw { rt: R9, ra: R10, rb: R4, rc: false }), 6);
        assert_eq!(cost(&Insn::Divw { rt: R3, ra: R3, rb: R4, rc: false }), 6);
    }

    #[test]
    fn immediate_ranges() {
        assert_eq!(cost(&Insn::Addi { rt: R3, ra: R0, si: 255 }), 2);
        assert_eq!(cost(&Insn::Addi { rt: R3, ra: R3, si: -200 }), 2);
        assert_eq!(cost(&Insn::Addi { rt: R3, ra: R4, si: 5 }), 2);
        assert_eq!(cost(&Insn::Addi { rt: R3, ra: R4, si: 100 }), 6);
        assert_eq!(cost(&Insn::Addis { rt: R9, ra: R0, si: 64 }), 6);
    }

    #[test]
    fn memory_offsets() {
        assert_eq!(cost(&Insn::Lwz { rt: R9, ra: R1, d: 512 }), 2, "sp-relative imm8*4");
        assert_eq!(cost(&Insn::Lwz { rt: R9, ra: R30, d: 64 }), 2, "imm5*4");
        assert_eq!(cost(&Insn::Lwz { rt: R9, ra: R30, d: 256 }), 6);
        assert_eq!(cost(&Insn::Lbz { rt: R9, ra: R30, d: 40 }), 6);
        assert_eq!(cost(&Insn::Stwu { rs: R1, ra: R1, d: -32 }), 6, "writeback form");
    }

    #[test]
    fn branches() {
        assert_eq!(cost(&Insn::B { li: 1000, aa: false, lk: false }), 2);
        assert_eq!(cost(&Insn::B { li: 100_000, aa: false, lk: false }), 4);
        assert_eq!(cost(&Insn::B { li: 64, aa: false, lk: true }), 4, "bl pair");
        assert_eq!(cost(&Insn::Bc { bo: bo::IF_TRUE, bi: 0, bd: 128, aa: false, lk: false }), 2);
        assert_eq!(cost(&Insn::Bclr { bo: bo::ALWAYS, bi: 0, lk: false }), 2);
    }

    #[test]
    fn pressure_penalty_applies() {
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        // 12 distinct registers named: 4 over the Thumb limit.
        for r in 3..15u8 {
            let reg = Gpr::new(r).unwrap();
            m.code.push(encode(&Insn::Addi { rt: reg, ra: reg, si: 1 }));
        }
        m.functions.push(codense_obj::FunctionInfo {
            name: "f".into(),
            start: 0,
            end: 12,
            prologue_len: 0,
            epilogues: vec![],
        });
        let loose = analyze_with(&m, ThumbModel { pressure_bytes: 0, ..Default::default() });
        let tight = analyze_with(&m, ThumbModel::default());
        // Without the penalty the function profits from 16-bit mode
        // (4 + 12*2 = 28 bytes); with 4 over-limit registers at 8 bytes the
        // 16-bit cost (60) exceeds ARM (48), so it stays 32-bit.
        assert_eq!(loose.thumb_functions, 1);
        assert_eq!(loose.size_bytes, 28);
        assert_eq!(tight.arm_functions, 1);
        assert_eq!(tight.size_bytes, 48);
    }

    #[test]
    fn mode_choice_prefers_thumb_when_coverage_high() {
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        m.code = vec![encode(&Insn::Addi { rt: R3, ra: R3, si: 1 }); 20];
        m.functions.push(codense_obj::FunctionInfo {
            name: "f".into(),
            start: 0,
            end: 20,
            prologue_len: 0,
            epilogues: vec![],
        });
        let r = analyze(&m);
        assert_eq!(r.thumb_functions, 1);
        assert_eq!(r.size_bytes, 2 * 20 + 4);
        assert!(r.compression_ratio() < 0.6);
    }

    #[test]
    fn mode_choice_keeps_arm_when_coverage_low() {
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        m.code = vec![encode(&Insn::Divw { rt: R3, ra: R4, rb: R5, rc: false }); 20];
        m.functions.push(codense_obj::FunctionInfo {
            name: "f".into(),
            start: 0,
            end: 20,
            prologue_len: 0,
            epilogues: vec![],
        });
        let r = analyze(&m);
        assert_eq!(r.arm_functions, 1);
        assert_eq!(r.size_bytes, 80);
    }

    #[test]
    fn benchmark_lands_near_paper_band() {
        // Thumb reports ~30% reduction on real code; the model should land
        // in a broadly similar band on the stand-ins (0.6..0.9 ratio).
        let m = codense_codegen::benchmark("compress", codense_obj::IsaId::Ppc).unwrap();
        let r = analyze(&m);
        assert!(r.coverage() > 0.35, "coverage {:.2}", r.coverage());
        assert!(
            (0.55..0.95).contains(&r.compression_ratio()),
            "ratio {:.2}",
            r.compression_ratio()
        );
    }

    #[test]
    fn orphan_text_counted_at_full_width() {
        let mut m = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        m.code = vec![encode(&Insn::Sc); 4];
        let r = analyze(&m);
        assert_eq!(r.size_bytes, 16);
    }
}
