//! Disassembly to paper-style assembly text (`lbz r9,0(r28)`,
//! `ble cr1,000401c8`, `clrlwi r11,r9,24`, …).
//!
//! Simplified mnemonics (`li`, `mr`, `nop`, `blr`, `clrlwi`, `slwi`, `srwi`,
//! `beq`/`bne`/…) are produced where the operands match the idiom, mirroring
//! how GNU `objdump` renders PowerPC and how the paper prints its examples.

use crate::insn::{bo, Insn};
use crate::reg::{CrField, Gpr, Spr};

/// Disassembles an instruction word located at byte address `addr`.
///
/// Branch targets are rendered as absolute 8-digit hex addresses computed
/// from `addr`, matching the paper's figures.
///
/// ```
/// use codense_ppc::disasm::disassemble;
/// assert_eq!(disassemble(0x8921_001c, 0), "lbz r9,28(r1)");
/// assert_eq!(disassemble(0x4e80_0020, 0), "blr");
/// ```
pub fn disassemble(word: u32, addr: u32) -> String {
    disassemble_insn(&crate::decode(word), addr)
}

/// Disassembles a decoded instruction located at byte address `addr`.
pub fn disassemble_insn(insn: &Insn, addr: u32) -> String {
    use Insn::*;
    match *insn {
        Addi { rt, ra, si } if ra.number() == 0 => format!("li {rt},{si}"),
        Addi { rt, ra, si } if si < 0 => format!("subi {rt},{ra},{}", -(si as i32)),
        Addi { rt, ra, si } => format!("addi {rt},{ra},{si}"),
        Addis { rt, ra, si } if ra.number() == 0 => format!("lis {rt},{si}"),
        Addis { rt, ra, si } => format!("addis {rt},{ra},{si}"),
        Addic { rt, ra, si } => format!("addic {rt},{ra},{si}"),
        AddicRc { rt, ra, si } => format!("addic. {rt},{ra},{si}"),
        Subfic { rt, ra, si } => format!("subfic {rt},{ra},{si}"),
        Mulli { rt, ra, si } => format!("mulli {rt},{ra},{si}"),

        Ori { ra, rs, ui } if ra.number() == 0 && rs.number() == 0 && ui == 0 => "nop".into(),
        Ori { ra, rs, ui } => format!("ori {ra},{rs},{ui}"),
        Oris { ra, rs, ui } => format!("oris {ra},{rs},{ui}"),
        Xori { ra, rs, ui } => format!("xori {ra},{rs},{ui}"),
        Xoris { ra, rs, ui } => format!("xoris {ra},{rs},{ui}"),
        AndiRc { ra, rs, ui } => format!("andi. {ra},{rs},{ui}"),
        AndisRc { ra, rs, ui } => format!("andis. {ra},{rs},{ui}"),

        Cmpwi { bf, ra, si } => format!("cmpwi {}{ra},{si}", cr_prefix(bf)),
        Cmplwi { bf, ra, ui } => format!("cmplwi {}{ra},{ui}", cr_prefix(bf)),
        Cmpw { bf, ra, rb } => format!("cmpw {}{ra},{rb}", cr_prefix(bf)),
        Cmplw { bf, ra, rb } => format!("cmplw {}{ra},{rb}", cr_prefix(bf)),

        Lwz { rt, ra, d } => mem("lwz", rt, ra, d),
        Lwzu { rt, ra, d } => mem("lwzu", rt, ra, d),
        Lbz { rt, ra, d } => mem("lbz", rt, ra, d),
        Lbzu { rt, ra, d } => mem("lbzu", rt, ra, d),
        Lhz { rt, ra, d } => mem("lhz", rt, ra, d),
        Lhzu { rt, ra, d } => mem("lhzu", rt, ra, d),
        Lha { rt, ra, d } => mem("lha", rt, ra, d),
        Lhau { rt, ra, d } => mem("lhau", rt, ra, d),
        Stw { rs, ra, d } => mem("stw", rs, ra, d),
        Stwu { rs, ra, d } => mem("stwu", rs, ra, d),
        Stb { rs, ra, d } => mem("stb", rs, ra, d),
        Stbu { rs, ra, d } => mem("stbu", rs, ra, d),
        Sth { rs, ra, d } => mem("sth", rs, ra, d),
        Sthu { rs, ra, d } => mem("sthu", rs, ra, d),
        Lmw { rt, ra, d } => mem("lmw", rt, ra, d),
        Stmw { rs, ra, d } => mem("stmw", rs, ra, d),

        Lwzx { rt, ra, rb } => format!("lwzx {rt},{ra},{rb}"),
        Lbzx { rt, ra, rb } => format!("lbzx {rt},{ra},{rb}"),
        Lhzx { rt, ra, rb } => format!("lhzx {rt},{ra},{rb}"),
        Stwx { rs, ra, rb } => format!("stwx {rs},{ra},{rb}"),
        Stbx { rs, ra, rb } => format!("stbx {rs},{ra},{rb}"),
        Sthx { rs, ra, rb } => format!("sthx {rs},{ra},{rb}"),

        Add { rt, ra, rb, rc } => rrr("add", rt, ra, rb, rc),
        Subf { rt, ra, rb, rc } => rrr("subf", rt, ra, rb, rc),
        Mullw { rt, ra, rb, rc } => rrr("mullw", rt, ra, rb, rc),
        Mulhw { rt, ra, rb, rc } => rrr("mulhw", rt, ra, rb, rc),
        Divw { rt, ra, rb, rc } => rrr("divw", rt, ra, rb, rc),
        Divwu { rt, ra, rb, rc } => rrr("divwu", rt, ra, rb, rc),
        Neg { rt, ra, rc } => format!("neg{} {rt},{ra}", dot(rc)),

        Or { ra, rs, rb, rc } if rs == rb => format!("mr{} {ra},{rs}", dot(rc)),
        Nor { ra, rs, rb, rc } if rs == rb => format!("not{} {ra},{rs}", dot(rc)),
        And { ra, rs, rb, rc } => rrr("and", ra, rs, rb, rc),
        Or { ra, rs, rb, rc } => rrr("or", ra, rs, rb, rc),
        Xor { ra, rs, rb, rc } => rrr("xor", ra, rs, rb, rc),
        Nand { ra, rs, rb, rc } => rrr("nand", ra, rs, rb, rc),
        Nor { ra, rs, rb, rc } => rrr("nor", ra, rs, rb, rc),
        Andc { ra, rs, rb, rc } => rrr("andc", ra, rs, rb, rc),
        Orc { ra, rs, rb, rc } => rrr("orc", ra, rs, rb, rc),
        Slw { ra, rs, rb, rc } => rrr("slw", ra, rs, rb, rc),
        Srw { ra, rs, rb, rc } => rrr("srw", ra, rs, rb, rc),
        Sraw { ra, rs, rb, rc } => rrr("sraw", ra, rs, rb, rc),
        Srawi { ra, rs, sh, rc } => format!("srawi{} {ra},{rs},{sh}", dot(rc)),
        Extsb { ra, rs, rc } => format!("extsb{} {ra},{rs}", dot(rc)),
        Extsh { ra, rs, rc } => format!("extsh{} {ra},{rs}", dot(rc)),
        Cntlzw { ra, rs, rc } => format!("cntlzw{} {ra},{rs}", dot(rc)),

        Rlwinm { ra, rs, sh, mb, me, rc } => rlwinm_alias(ra, rs, sh, mb, me, rc),
        Rlwimi { ra, rs, sh, mb, me, rc } => {
            format!("rlwimi{} {ra},{rs},{sh},{mb},{me}", dot(rc))
        }

        B { li, aa, lk } => {
            let m = match (aa, lk) {
                (false, false) => "b",
                (false, true) => "bl",
                (true, false) => "ba",
                (true, true) => "bla",
            };
            let target = if aa { li as u32 } else { addr.wrapping_add(li as u32) };
            format!("{m} {target:08x}")
        }
        Bc { bo: b, bi, bd, aa: true, lk } => {
            // Absolute conditional branches keep the generic form: the `a`
            // suffix is the only thing that preserves the AA bit in text.
            let m = if lk { "bcla" } else { "bca" };
            format!("{m} {b},{bi},{:08x}", bd as u32)
        }
        Bc { bo: b, bi, bd, aa: false, lk } => {
            let target = addr.wrapping_add(bd as i32 as u32);
            cond_branch(b, bi, lk, &format!("{target:08x}"))
        }
        Bclr { bo: b, bi, lk } => match (b, bi, lk) {
            (bo::ALWAYS, 0, false) => "blr".into(),
            (bo::ALWAYS, 0, true) => "blrl".into(),
            _ => cond_branch(b, bi, lk, "lr"),
        },
        Bcctr { bo: b, bi, lk } => match (b, bi, lk) {
            (bo::ALWAYS, 0, false) => "bctr".into(),
            (bo::ALWAYS, 0, true) => "bctrl".into(),
            _ => cond_branch(b, bi, lk, "ctr"),
        },

        Crxor { bt, ba, bb } if bt == ba && ba == bb => format!("crclr {bt}"),
        Crxor { bt, ba, bb } => format!("crxor {bt},{ba},{bb}"),
        Mfcr { rt } => format!("mfcr {rt}"),
        Mtcrf { fxm, rs } => format!("mtcrf {fxm},{rs}"),
        Mfspr { rt, spr } => match spr {
            Spr::Lr => format!("mflr {rt}"),
            Spr::Ctr => format!("mfctr {rt}"),
            Spr::Xer => format!("mfxer {rt}"),
        },
        Mtspr { spr, rs } => match spr {
            Spr::Lr => format!("mtlr {rs}"),
            Spr::Ctr => format!("mtctr {rs}"),
            Spr::Xer => format!("mtxer {rs}"),
        },

        Twi { to, ra, si } => format!("twi {to},{ra},{si}"),
        Sc => "sc".into(),
        Illegal(w) => format!(".long 0x{w:08x}"),
    }
}

fn dot(rc: bool) -> &'static str {
    if rc {
        "."
    } else {
        ""
    }
}

fn mem(m: &str, r: Gpr, ra: Gpr, d: i16) -> String {
    format!("{m} {r},{d}({ra})")
}

fn rrr(m: &str, a: Gpr, b: Gpr, c: Gpr, rc: bool) -> String {
    format!("{m}{} {a},{b},{c}", dot(rc))
}

fn cr_prefix(bf: CrField) -> String {
    if bf.number() == 0 {
        String::new()
    } else {
        format!("{bf},")
    }
}

fn rlwinm_alias(ra: Gpr, rs: Gpr, sh: u8, mb: u8, me: u8, rc: bool) -> String {
    let d = dot(rc);
    if sh == 0 && me == 31 {
        format!("clrlwi{d} {ra},{rs},{mb}")
    } else if mb == 0 && me == 31 - sh && sh != 0 {
        format!("slwi{d} {ra},{rs},{sh}")
    } else if me == 31 && sh != 0 && mb == 32 - sh {
        format!("srwi{d} {ra},{rs},{mb}")
    } else {
        format!("rlwinm{d} {ra},{rs},{sh},{mb},{me}")
    }
}

fn cond_branch(b: u8, bi: u8, lk: bool, target: &str) -> String {
    let crf = bi / 4;
    let bit = bi % 4;
    let l = if lk { "l" } else { "" };
    let name = match (b, bit) {
        (bo::IF_TRUE, 0) => Some("blt"),
        (bo::IF_TRUE, 1) => Some("bgt"),
        (bo::IF_TRUE, 2) => Some("beq"),
        (bo::IF_TRUE, 3) => Some("bso"),
        (bo::IF_FALSE, 0) => Some("bge"),
        (bo::IF_FALSE, 1) => Some("ble"),
        (bo::IF_FALSE, 2) => Some("bne"),
        (bo::IF_FALSE, 3) => Some("bns"),
        _ => None,
    };
    match name {
        Some(n) => {
            let suffix = match target {
                "lr" => "lr",
                "ctr" => "ctr",
                _ => "",
            };
            let cr = if crf == 0 { String::new() } else { format!("cr{crf},") };
            if suffix.is_empty() {
                format!("{n}{l} {cr}{target}")
            } else if crf == 0 {
                format!("{n}{suffix}{l}")
            } else {
                format!("{n}{suffix}{l} cr{crf}")
            }
        }
        // `bdnz lr` would not round-trip, so register-indirect branches with
        // a non-pretty BO always take the generic bclr/bcctr form.
        None => match (target, b, bi) {
            ("lr", _, _) => format!("bclr{l} {b},{bi}"),
            ("ctr", _, _) => format!("bcctr{l} {b},{bi}"),
            (_, bo::DNZ, 0) => format!("bdnz{l} {target}"),
            (_, bo::DZ, 0) => format!("bdz{l} {target}"),
            _ => format!("bc{l} {b},{bi},{target}"),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::reg::*;

    fn dis(i: &Insn, addr: u32) -> String {
        disassemble(encode(i), addr)
    }

    #[test]
    fn paper_figure_two_style() {
        // The exact sequence from Figure 2 of the paper.
        assert_eq!(dis(&Insn::Lbz { rt: R9, ra: R28, d: 0 }, 0), "lbz r9,0(r28)");
        assert_eq!(
            dis(&Insn::Rlwinm { ra: R11, rs: R9, sh: 0, mb: 24, me: 31, rc: false }, 0),
            "clrlwi r11,r9,24"
        );
        assert_eq!(dis(&Insn::Addi { rt: R0, ra: R11, si: 1 }, 0), "addi r0,r11,1");
        assert_eq!(dis(&Insn::Cmplwi { bf: CR1, ra: R0, ui: 8 }, 0), "cmplwi cr1,r0,8");
        assert_eq!(
            dis(
                &Insn::Bc {
                    bo: crate::insn::bo::IF_FALSE,
                    bi: CR1.gt_bit(),
                    bd: 0x1c8,
                    aa: false,
                    lk: false
                },
                0x0004_0000
            ),
            "ble cr1,000401c8"
        );
    }

    #[test]
    fn idioms() {
        assert_eq!(dis(&Insn::Addi { rt: R3, ra: R0, si: 7 }, 0), "li r3,7");
        assert_eq!(dis(&Insn::Ori { ra: R0, rs: R0, ui: 0 }, 0), "nop");
        assert_eq!(dis(&Insn::Or { ra: R4, rs: R3, rb: R3, rc: false }, 0), "mr r4,r3");
        assert_eq!(
            dis(&Insn::Rlwinm { ra: R3, rs: R3, sh: 2, mb: 0, me: 29, rc: false }, 0),
            "slwi r3,r3,2"
        );
        assert_eq!(
            dis(&Insn::Rlwinm { ra: R3, rs: R3, sh: 24, mb: 8, me: 31, rc: false }, 0),
            "srwi r3,r3,8"
        );
        assert_eq!(dis(&Insn::Bclr { bo: crate::insn::bo::ALWAYS, bi: 0, lk: false }, 0), "blr");
        assert_eq!(dis(&Insn::Mfspr { rt: R0, spr: Spr::Lr }, 0), "mflr r0");
        assert_eq!(dis(&Insn::Illegal(0x0123_4567), 0), ".long 0x01234567");
    }

    #[test]
    fn branch_targets_absolute() {
        assert_eq!(dis(&Insn::B { li: 0x38, aa: false, lk: false }, 0x41d00), "b 00041d38");
        assert_eq!(dis(&Insn::B { li: -8, aa: false, lk: true }, 0x100), "bl 000000f8");
    }

    #[test]
    fn dump_formats_lines() {
        let words = [encode(&Insn::Addi { rt: R3, ra: R0, si: 1 }), encode(&Insn::Sc)];
        let text = codense_isa::Isa::dump(&crate::ISA, &words, 0x1000);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("00001000:"));
        assert!(lines[0].ends_with("li r3,1"));
        assert!(lines[1].contains("sc"));
    }
}
