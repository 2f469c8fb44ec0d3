//! Static program analyses motivating the compression method: instruction-
//! encoding redundancy (Fig 1), branch-offset field usage (Table 1), and
//! prologue/epilogue weight (Table 3).

use std::collections::HashMap;

use codense_isa::IsaRef;
use codense_obj::ObjectModule;

/// Instruction-encoding redundancy profile of a program (Fig 1).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodingProfile {
    /// Total static instructions.
    pub total_insns: usize,
    /// Distinct 32-bit encodings.
    pub distinct: usize,
    /// Instructions whose encoding appears exactly once in the program.
    pub used_once_insns: usize,
    /// Instructions whose encoding appears more than once.
    pub used_multiple_insns: usize,
}

impl EncodingProfile {
    /// Fraction of the program that is single-use encodings (the paper finds
    /// < 20 % on average).
    pub fn used_once_fraction(&self) -> f64 {
        self.used_once_insns as f64 / self.total_insns as f64
    }

    /// Fraction of the program that repeats some other instruction.
    pub fn used_multiple_fraction(&self) -> f64 {
        self.used_multiple_insns as f64 / self.total_insns as f64
    }
}

/// Computes the encoding redundancy profile.
pub fn encoding_profile(module: &ObjectModule) -> EncodingProfile {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for &w in &module.code {
        *counts.entry(w).or_insert(0) += 1;
    }
    let used_once = counts.values().filter(|&&c| c == 1).count();
    EncodingProfile {
        total_insns: module.len(),
        distinct: counts.len(),
        used_once_insns: used_once,
        used_multiple_insns: module.len() - used_once,
    }
}

/// Fraction of the program covered by the most frequent `frac` of distinct
/// instruction encodings (the paper: in go, the top 1 % of encodings cover
/// 30 % of the program).
pub fn top_encoding_coverage(module: &ObjectModule, frac: f64) -> f64 {
    let mut counts: HashMap<u32, usize> = HashMap::new();
    for &w in &module.code {
        *counts.entry(w).or_insert(0) += 1;
    }
    let mut freqs: Vec<usize> = counts.into_values().collect();
    freqs.sort_unstable_by(|a, b| b.cmp(a));
    let take = ((freqs.len() as f64 * frac).ceil() as usize).max(1);
    let covered: usize = freqs.iter().take(take).sum();
    covered as f64 / module.len() as f64
}

/// Branch-offset field usage (Table 1): how many PC-relative branches could
/// *not* express their current displacement if the offset field were
/// reinterpreted at finer granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchOffsetUsage {
    /// Static PC-relative branch count.
    pub total: usize,
    /// Branches too narrow for 2-byte target resolution.
    pub too_narrow_2byte: usize,
    /// Branches too narrow for 1-byte target resolution.
    pub too_narrow_1byte: usize,
    /// Branches too narrow for 4-bit target resolution.
    pub too_narrow_4bit: usize,
}

impl BranchOffsetUsage {
    /// Percentages in Table 1's column order (2-byte, 1-byte, 4-bit).
    pub fn percentages(&self) -> [f64; 3] {
        let t = self.total.max(1) as f64;
        [
            100.0 * self.too_narrow_2byte as f64 / t,
            100.0 * self.too_narrow_1byte as f64 / t,
            100.0 * self.too_narrow_4bit as f64 / t,
        ]
    }
}

/// Computes Table 1's row for a module, decoding its branches under `isa`.
pub fn branch_offset_usage(module: &ObjectModule, isa: IsaRef) -> BranchOffsetUsage {
    let mut usage = BranchOffsetUsage {
        total: 0,
        too_narrow_2byte: 0,
        too_narrow_1byte: 0,
        too_narrow_4bit: 0,
    };
    for &w in &module.code {
        let Some(info) = isa.rel_branch_info(w) else { continue };
        usage.total += 1;
        let nibbles = info.offset as i64 * 2;
        if !isa.offset_expressible(info.kind, nibbles, 4) {
            usage.too_narrow_2byte += 1;
        }
        if !isa.offset_expressible(info.kind, nibbles, 2) {
            usage.too_narrow_1byte += 1;
        }
        if !isa.offset_expressible(info.kind, nibbles, 1) {
            usage.too_narrow_4bit += 1;
        }
    }
    usage
}

/// Prologue/epilogue weight (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrologueEpilogue {
    /// Static prologue instructions across all functions.
    pub prologue_insns: usize,
    /// Static epilogue instructions across all functions.
    pub epilogue_insns: usize,
    /// Total static instructions.
    pub total_insns: usize,
}

impl PrologueEpilogue {
    /// Prologue percentage of the program.
    pub fn prologue_pct(&self) -> f64 {
        100.0 * self.prologue_insns as f64 / self.total_insns as f64
    }

    /// Epilogue percentage of the program.
    pub fn epilogue_pct(&self) -> f64 {
        100.0 * self.epilogue_insns as f64 / self.total_insns as f64
    }
}

/// Computes Table 3's row from the module's function metadata.
pub fn prologue_epilogue(module: &ObjectModule) -> PrologueEpilogue {
    PrologueEpilogue {
        prologue_insns: module.functions.iter().map(|f| f.prologue_len).sum(),
        epilogue_insns: module.functions.iter().map(|f| f.epilogue_insns()).sum(),
        total_insns: module.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_obj::FunctionInfo;
    use codense_ppc::encode;
    use codense_ppc::insn::{bo, Insn};
    use codense_ppc::reg::*;

    #[test]
    fn profile_counts_singletons() {
        let mut m = ObjectModule::new("t", codense_isa::IsaId::Ppc);
        let a = encode(&Insn::Addi { rt: R3, ra: R3, si: 1 });
        let b = encode(&Insn::Addi { rt: R4, ra: R4, si: 2 });
        let c = encode(&Insn::Addi { rt: R5, ra: R5, si: 3 });
        m.code = vec![a, a, a, b, b, c];
        let p = encoding_profile(&m);
        assert_eq!(p.total_insns, 6);
        assert_eq!(p.distinct, 3);
        assert_eq!(p.used_once_insns, 1);
        assert_eq!(p.used_multiple_insns, 5);
        assert!((p.used_once_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn top_coverage_monotone() {
        let mut m = ObjectModule::new("t", codense_isa::IsaId::Ppc);
        m.code =
            (0..100).map(|i| encode(&Insn::Addi { rt: R3, ra: R3, si: (i % 10) as i16 })).collect();
        let c1 = top_encoding_coverage(&m, 0.01);
        let c10 = top_encoding_coverage(&m, 0.10);
        let c100 = top_encoding_coverage(&m, 1.0);
        assert!(c1 <= c10 + 1e-12 && c10 <= c100 + 1e-12);
        assert!((c100 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn branch_usage_detects_narrow_fields() {
        let mut m = ObjectModule::new("t", codense_isa::IsaId::Ppc);
        // bc with bd near the 14-bit limit: 16380 bytes displacement fits at
        // 4-byte granularity (4095 words) but not at 2-byte resolution as
        // 8190 > 8191? It does fit (8190 < 8192); 1-byte needs 16380 ≥ 2^13 → too narrow.
        m.code = vec![
            encode(&Insn::Bc { bo: bo::IF_TRUE, bi: 0, bd: 16380, aa: false, lk: false }),
            encode(&Insn::Bc { bo: bo::IF_TRUE, bi: 0, bd: 16, aa: false, lk: false }),
            encode(&Insn::B { li: 32, aa: false, lk: false }),
        ];
        let u = branch_offset_usage(&m, IsaRef(&codense_ppc::ISA));
        assert_eq!(u.total, 3);
        assert_eq!(u.too_narrow_2byte, 0);
        assert_eq!(u.too_narrow_1byte, 1);
        assert_eq!(u.too_narrow_4bit, 1);
        let pct = u.percentages();
        assert!((pct[2] - 100.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn prologue_epilogue_sums_functions() {
        let mut m = ObjectModule::new("t", codense_isa::IsaId::Ppc);
        m.code = vec![0x6000_0000; 20];
        m.functions.push(FunctionInfo {
            name: "a".into(),
            start: 0,
            end: 10,
            prologue_len: 3,
            epilogues: std::iter::once(8..10).collect(),
        });
        m.functions.push(FunctionInfo {
            name: "b".into(),
            start: 10,
            end: 20,
            prologue_len: 2,
            epilogues: vec![15..16, 18..20],
        });
        let pe = prologue_epilogue(&m);
        assert_eq!(pe.prologue_insns, 5);
        assert_eq!(pe.epilogue_insns, 5);
        assert!((pe.prologue_pct() - 25.0).abs() < 1e-12);
    }
}

/// Static instruction-class mix of a program — the realism check for the
/// synthetic benchmarks (compiled RISC integer code typically runs ~20–30 %
/// loads/stores, ~15–20 % branches, the rest ALU).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InstructionMix {
    /// Loads (any width, displacement or indexed, incl. `lmw`).
    pub loads: usize,
    /// Stores (incl. `stmw`, `stwu`).
    pub stores: usize,
    /// Control transfers (`b`, `bc`, `bclr`, `bcctr`, `sc`).
    pub branches: usize,
    /// Compares.
    pub compares: usize,
    /// Everything else (ALU, rotates, SPR moves).
    pub alu: usize,
}

impl InstructionMix {
    /// Total classified instructions.
    pub fn total(&self) -> usize {
        self.loads + self.stores + self.branches + self.compares + self.alu
    }

    /// Class fractions in `[loads, stores, branches, compares, alu]` order.
    pub fn fractions(&self) -> [f64; 5] {
        let t = self.total().max(1) as f64;
        [
            self.loads as f64 / t,
            self.stores as f64 / t,
            self.branches as f64 / t,
            self.compares as f64 / t,
            self.alu as f64 / t,
        ]
    }
}

/// Classifies every instruction of a module.
pub fn instruction_mix(module: &ObjectModule) -> InstructionMix {
    use codense_ppc::Insn::*;
    let mut mix = InstructionMix::default();
    for &w in &module.code {
        match codense_ppc::decode(w) {
            Lwz { .. }
            | Lwzu { .. }
            | Lbz { .. }
            | Lbzu { .. }
            | Lhz { .. }
            | Lhzu { .. }
            | Lha { .. }
            | Lhau { .. }
            | Lmw { .. }
            | Lwzx { .. }
            | Lbzx { .. }
            | Lhzx { .. } => mix.loads += 1,
            Stw { .. }
            | Stwu { .. }
            | Stb { .. }
            | Stbu { .. }
            | Sth { .. }
            | Sthu { .. }
            | Stmw { .. }
            | Stwx { .. }
            | Stbx { .. }
            | Sthx { .. } => mix.stores += 1,
            B { .. } | Bc { .. } | Bclr { .. } | Bcctr { .. } | Sc => mix.branches += 1,
            Cmpwi { .. } | Cmplwi { .. } | Cmpw { .. } | Cmplw { .. } => mix.compares += 1,
            _ => mix.alu += 1,
        }
    }
    mix
}

#[cfg(test)]
mod mix_tests {
    use super::*;
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    #[test]
    fn classifies_each_class() {
        let mut m = ObjectModule::new("t", codense_isa::IsaId::Ppc);
        m.code = vec![
            encode(&Insn::Lwz { rt: R3, ra: R1, d: 0 }),
            encode(&Insn::Stw { rs: R3, ra: R1, d: 0 }),
            encode(&Insn::B { li: 4, aa: false, lk: false }),
            encode(&Insn::Cmpwi { bf: CR0, ra: R3, si: 0 }),
            encode(&Insn::Add { rt: R3, ra: R3, rb: R3, rc: false }),
        ];
        let mix = instruction_mix(&m);
        assert_eq!((mix.loads, mix.stores, mix.branches, mix.compares, mix.alu), (1, 1, 1, 1, 1));
        assert_eq!(mix.total(), 5);
        assert!((mix.fractions().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn benchmark_mix_is_risc_like() {
        let m = codense_codegen_stub();
        let mix = instruction_mix(&m);
        let f = mix.fractions();
        // Memory traffic and branch density in realistic RISC bands.
        assert!((0.15..0.50).contains(&(f[0] + f[1])), "mem {:.2}", f[0] + f[1]);
        assert!((0.05..0.30).contains(&f[2]), "branches {:.2}", f[2]);
    }

    // analysis lives below codegen in the crate graph; synthesize a small
    // template-shaped module by hand instead of depending upward.
    fn codense_codegen_stub() -> ObjectModule {
        let mut m = ObjectModule::new("stub", codense_obj::IsaId::Ppc);
        for i in 0..50i16 {
            m.code.push(encode(&Insn::Lwz { rt: R9, ra: R1, d: 8 + (i % 6) * 4 }));
            m.code.push(encode(&Insn::Addi { rt: R9, ra: R9, si: i % 7 }));
            m.code.push(encode(&Insn::Stw { rs: R9, ra: R1, d: 8 }));
            m.code.push(encode(&Insn::Cmpwi { bf: CR0, ra: R9, si: 3 }));
            m.code.push(encode(&Insn::Bc {
                bo: codense_ppc::insn::bo::IF_FALSE,
                bi: 2,
                bd: -16,
                aa: false,
                lk: false,
            }));
        }
        m
    }
}
