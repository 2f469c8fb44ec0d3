//! Assembly-text parsing: the inverse of [`crate::disasm`].
//!
//! Accepts the disassembler's output syntax — canonical mnemonics and the
//! simplified forms (`li`, `mr`, `nop`, `blr`, `clrlwi`, `slwi`, `srwi`,
//! `beq cr1,LABEL`, …) — so text can round-trip:
//! `parse(disassemble(w)) == decode(w)`.
//!
//! Branch targets are parsed as *absolute byte addresses* (as the
//! disassembler prints them) and require the instruction's own address to
//! recover the relative displacement, hence [`parse_insn`] takes `addr`.

use codense_isa::text::{self, err, parse_i16, parse_int, parse_target, parse_u16};

use crate::insn::{bo, Insn};
use crate::reg::{CrField, Gpr, Spr};

/// Parse errors, with the offending fragment (the one type both backends
/// share).
pub use codense_isa::text::ParseError;

fn parse_gpr(s: &str) -> Result<Gpr, ParseError> {
    let n: u8 = s
        .strip_prefix('r')
        .and_then(|v| v.parse().ok())
        .ok_or(ParseError { message: format!("bad register `{s}`") })?;
    Gpr::new(n).ok_or(ParseError { message: format!("register out of range `{s}`") })
}

fn parse_crf(s: &str) -> Result<CrField, ParseError> {
    let n: u8 = s
        .strip_prefix("cr")
        .and_then(|v| v.parse().ok())
        .ok_or(ParseError { message: format!("bad CR field `{s}`") })?;
    CrField::new(n).ok_or(ParseError { message: format!("CR field out of range `{s}`") })
}

fn parse_u8_field(s: &str, max: u8) -> Result<u8, ParseError> {
    let v = parse_int(s)?;
    match u8::try_from(v) {
        Ok(v) if v < max => Ok(v),
        _ => err(format!("field out of range `{s}`")),
    }
}

/// Parses one instruction of disassembly text located at byte address
/// `addr`.
///
/// # Errors
///
/// Returns a [`ParseError`] for unknown mnemonics, malformed operands, or
/// out-of-range fields.
pub fn parse_insn(line: &str, addr: u32) -> Result<Insn, ParseError> {
    let (mnemonic, ops) = text::split(line);
    let n = |k: usize| text::arity(mnemonic, &ops, k);

    // Record-form suffix.
    let (base, rc) = match mnemonic.strip_suffix('.') {
        Some(b) => (b, true),
        None => (mnemonic, false),
    };

    macro_rules! d_arith {
        ($variant:ident) => {{
            n(3)?;
            Ok(Insn::$variant {
                rt: parse_gpr(ops[0])?,
                ra: parse_gpr(ops[1])?,
                si: parse_i16(ops[2])?,
            })
        }};
    }
    macro_rules! d_logic {
        ($variant:ident) => {{
            n(3)?;
            Ok(Insn::$variant {
                ra: parse_gpr(ops[0])?,
                rs: parse_gpr(ops[1])?,
                ui: parse_u16(ops[2])?,
            })
        }};
    }
    macro_rules! mem_load {
        ($variant:ident) => {{
            n(2)?;
            let (d, ra) = text::parse_mem(ops[1], parse_gpr)?;
            Ok(Insn::$variant { rt: parse_gpr(ops[0])?, ra, d })
        }};
    }
    macro_rules! mem_store {
        ($variant:ident) => {{
            n(2)?;
            let (d, ra) = text::parse_mem(ops[1], parse_gpr)?;
            Ok(Insn::$variant { rs: parse_gpr(ops[0])?, ra, d })
        }};
    }
    macro_rules! x_load {
        ($variant:ident) => {{
            n(3)?;
            Ok(Insn::$variant {
                rt: parse_gpr(ops[0])?,
                ra: parse_gpr(ops[1])?,
                rb: parse_gpr(ops[2])?,
            })
        }};
    }
    macro_rules! x_store {
        ($variant:ident) => {{
            n(3)?;
            Ok(Insn::$variant {
                rs: parse_gpr(ops[0])?,
                ra: parse_gpr(ops[1])?,
                rb: parse_gpr(ops[2])?,
            })
        }};
    }
    macro_rules! xo_arith {
        ($variant:ident) => {{
            n(3)?;
            Ok(Insn::$variant {
                rt: parse_gpr(ops[0])?,
                ra: parse_gpr(ops[1])?,
                rb: parse_gpr(ops[2])?,
                rc,
            })
        }};
    }
    macro_rules! x_logic {
        ($variant:ident) => {{
            n(3)?;
            Ok(Insn::$variant {
                ra: parse_gpr(ops[0])?,
                rs: parse_gpr(ops[1])?,
                rb: parse_gpr(ops[2])?,
                rc,
            })
        }};
    }

    // Conditional-branch helper: `beq[l] [crN,]TARGET`-style. The link bit
    // comes from the mnemonic's trailing `l` (none of the condition names
    // themselves end in `l`).
    let cond_branch =
        |op: &str, bit_fn: fn(CrField) -> u8, sense: u8| -> Result<Insn, ParseError> {
            let (crf, target) = match ops.len() {
                1 => (CrField::new(0).unwrap(), ops[0]),
                2 => (parse_crf(ops[0])?, ops[1]),
                _ => return err(format!("`{op}` expects 1–2 operands")),
            };
            let bd = parse_target(target, addr)?;
            let bd = i16::try_from(bd).map_err(|_| ParseError {
                message: format!("conditional branch target out of range `{target}`"),
            })?;
            Ok(Insn::Bc { bo: sense, bi: bit_fn(crf), bd, aa: false, lk: op.ends_with('l') })
        };

    match base {
        "li" => {
            n(2)?;
            Ok(Insn::Addi {
                rt: parse_gpr(ops[0])?,
                ra: Gpr::new(0).unwrap(),
                si: parse_i16(ops[1])?,
            })
        }
        "lis" => {
            n(2)?;
            Ok(Insn::Addis {
                rt: parse_gpr(ops[0])?,
                ra: Gpr::new(0).unwrap(),
                si: parse_i16(ops[1])?,
            })
        }
        "subi" => {
            n(3)?;
            let v = parse_int(ops[2])?;
            let si =
                i16::try_from(-v).map_err(|_| ParseError { message: "subi immediate".into() })?;
            Ok(Insn::Addi { rt: parse_gpr(ops[0])?, ra: parse_gpr(ops[1])?, si })
        }
        "addi" => d_arith!(Addi),
        "addis" => d_arith!(Addis),
        "addic" if !rc => d_arith!(Addic),
        "addic" => d_arith!(AddicRc),
        "subfic" => d_arith!(Subfic),
        "mulli" => d_arith!(Mulli),
        "nop" => {
            n(0)?;
            let r0 = Gpr::new(0).unwrap();
            Ok(Insn::Ori { ra: r0, rs: r0, ui: 0 })
        }
        "ori" => d_logic!(Ori),
        "oris" => d_logic!(Oris),
        "xori" => d_logic!(Xori),
        "xoris" => d_logic!(Xoris),
        "andi" => d_logic!(AndiRc),
        "andis" => d_logic!(AndisRc),

        "cmpwi" | "cmplwi" | "cmpw" | "cmplw" => {
            let (bf, rest_ops): (CrField, &[&str]) =
                if ops.first().is_some_and(|o| o.starts_with("cr")) {
                    (parse_crf(ops[0])?, &ops[1..])
                } else {
                    (CrField::new(0).unwrap(), &ops[..])
                };
            if rest_ops.len() != 2 {
                return err(format!("`{base}` expects 2 operands after the CR field"));
            }
            let ra = parse_gpr(rest_ops[0])?;
            match base {
                "cmpwi" => Ok(Insn::Cmpwi { bf, ra, si: parse_i16(rest_ops[1])? }),
                "cmplwi" => Ok(Insn::Cmplwi { bf, ra, ui: parse_u16(rest_ops[1])? }),
                "cmpw" => Ok(Insn::Cmpw { bf, ra, rb: parse_gpr(rest_ops[1])? }),
                _ => Ok(Insn::Cmplw { bf, ra, rb: parse_gpr(rest_ops[1])? }),
            }
        }

        "lwz" => mem_load!(Lwz),
        "lwzu" => mem_load!(Lwzu),
        "lbz" => mem_load!(Lbz),
        "lbzu" => mem_load!(Lbzu),
        "lhz" => mem_load!(Lhz),
        "lhzu" => mem_load!(Lhzu),
        "lha" => mem_load!(Lha),
        "lhau" => mem_load!(Lhau),
        "lmw" => mem_load!(Lmw),
        "stw" => mem_store!(Stw),
        "stwu" => mem_store!(Stwu),
        "stb" => mem_store!(Stb),
        "stbu" => mem_store!(Stbu),
        "sth" => mem_store!(Sth),
        "sthu" => mem_store!(Sthu),
        "stmw" => mem_store!(Stmw),
        "lwzx" => x_load!(Lwzx),
        "lbzx" => x_load!(Lbzx),
        "lhzx" => x_load!(Lhzx),
        "stwx" => x_store!(Stwx),
        "stbx" => x_store!(Stbx),
        "sthx" => x_store!(Sthx),

        "add" => xo_arith!(Add),
        "subf" => xo_arith!(Subf),
        "mullw" => xo_arith!(Mullw),
        "mulhw" => xo_arith!(Mulhw),
        "divw" => xo_arith!(Divw),
        "divwu" => xo_arith!(Divwu),
        "neg" => {
            n(2)?;
            Ok(Insn::Neg { rt: parse_gpr(ops[0])?, ra: parse_gpr(ops[1])?, rc })
        }
        "and" => x_logic!(And),
        "or" => x_logic!(Or),
        "xor" => x_logic!(Xor),
        "nand" => x_logic!(Nand),
        "nor" => x_logic!(Nor),
        "andc" => x_logic!(Andc),
        "orc" => x_logic!(Orc),
        "slw" => x_logic!(Slw),
        "srw" => x_logic!(Srw),
        "sraw" => x_logic!(Sraw),
        "mr" => {
            n(2)?;
            let rs = parse_gpr(ops[1])?;
            Ok(Insn::Or { ra: parse_gpr(ops[0])?, rs, rb: rs, rc })
        }
        "not" => {
            n(2)?;
            let rs = parse_gpr(ops[1])?;
            Ok(Insn::Nor { ra: parse_gpr(ops[0])?, rs, rb: rs, rc })
        }
        "srawi" => {
            n(3)?;
            Ok(Insn::Srawi {
                ra: parse_gpr(ops[0])?,
                rs: parse_gpr(ops[1])?,
                sh: parse_u8_field(ops[2], 32)?,
                rc,
            })
        }
        "extsb" => {
            n(2)?;
            Ok(Insn::Extsb { ra: parse_gpr(ops[0])?, rs: parse_gpr(ops[1])?, rc })
        }
        "extsh" => {
            n(2)?;
            Ok(Insn::Extsh { ra: parse_gpr(ops[0])?, rs: parse_gpr(ops[1])?, rc })
        }
        "cntlzw" => {
            n(2)?;
            Ok(Insn::Cntlzw { ra: parse_gpr(ops[0])?, rs: parse_gpr(ops[1])?, rc })
        }

        "rlwinm" | "rlwimi" => {
            n(5)?;
            let (ra, rs) = (parse_gpr(ops[0])?, parse_gpr(ops[1])?);
            let sh = parse_u8_field(ops[2], 32)?;
            let mb = parse_u8_field(ops[3], 32)?;
            let me = parse_u8_field(ops[4], 32)?;
            if base == "rlwinm" {
                Ok(Insn::Rlwinm { ra, rs, sh, mb, me, rc })
            } else {
                Ok(Insn::Rlwimi { ra, rs, sh, mb, me, rc })
            }
        }
        "clrlwi" => {
            n(3)?;
            Ok(Insn::Rlwinm {
                ra: parse_gpr(ops[0])?,
                rs: parse_gpr(ops[1])?,
                sh: 0,
                mb: parse_u8_field(ops[2], 32)?,
                me: 31,
                rc,
            })
        }
        "slwi" => {
            n(3)?;
            let sh = parse_u8_field(ops[2], 32)?;
            Ok(Insn::Rlwinm {
                ra: parse_gpr(ops[0])?,
                rs: parse_gpr(ops[1])?,
                sh,
                mb: 0,
                me: 31 - sh,
                rc,
            })
        }
        "srwi" => {
            n(3)?;
            let nbits = parse_u8_field(ops[2], 32)?;
            Ok(Insn::Rlwinm {
                ra: parse_gpr(ops[0])?,
                rs: parse_gpr(ops[1])?,
                sh: (32 - nbits) % 32,
                mb: nbits,
                me: 31,
                rc,
            })
        }

        "b" | "bl" | "ba" | "bla" => {
            n(1)?;
            let aa = base == "ba" || base == "bla";
            let lk = base == "bl" || base == "bla";
            let li = if aa {
                u32::from_str_radix(ops[0], 16)
                    .map_err(|_| ParseError { message: format!("bad target `{}`", ops[0]) })?
                    as i32
            } else {
                parse_target(ops[0], addr)?
            };
            Ok(Insn::B { li, aa, lk })
        }
        "beq" | "beql" => cond_branch(base, CrField::eq_bit, bo::IF_TRUE),
        "bne" | "bnel" => cond_branch(base, CrField::eq_bit, bo::IF_FALSE),
        "blt" | "bltl" => cond_branch(base, CrField::lt_bit, bo::IF_TRUE),
        "bge" | "bgel" => cond_branch(base, CrField::lt_bit, bo::IF_FALSE),
        "bgt" | "bgtl" => cond_branch(base, CrField::gt_bit, bo::IF_TRUE),
        "ble" | "blel" => cond_branch(base, CrField::gt_bit, bo::IF_FALSE),
        "bso" | "bsol" => cond_branch(base, CrField::so_bit, bo::IF_TRUE),
        "bns" | "bnsl" => cond_branch(base, CrField::so_bit, bo::IF_FALSE),
        "bdnz" | "bdz" | "bdnzl" | "bdzl" => {
            n(1)?;
            let bd = parse_target(ops[0], addr)?;
            let bd = i16::try_from(bd)
                .map_err(|_| ParseError { message: "bdnz/bdz target out of range".into() })?;
            let b = if base.starts_with("bdnz") { bo::DNZ } else { bo::DZ };
            Ok(Insn::Bc { bo: b, bi: 0, bd, aa: false, lk: base.ends_with('l') })
        }
        "bc" | "bcl" => {
            n(3)?;
            let bd = parse_target(ops[2], addr)?;
            Ok(Insn::Bc {
                bo: parse_u8_field(ops[0], 32)?,
                bi: parse_u8_field(ops[1], 32)?,
                bd: i16::try_from(bd)
                    .map_err(|_| ParseError { message: "bc target out of range".into() })?,
                aa: false,
                lk: base == "bcl",
            })
        }
        "bca" | "bcla" => {
            n(3)?;
            // The disassembler prints the raw (sign-extended) displacement as
            // an absolute hex address.
            let target = u32::from_str_radix(ops[2], 16)
                .map_err(|_| ParseError { message: format!("bad branch target `{}`", ops[2]) })?;
            let bd = i16::try_from(target as i32)
                .map_err(|_| ParseError { message: "bca target out of range".into() })?;
            Ok(Insn::Bc {
                bo: parse_u8_field(ops[0], 32)?,
                bi: parse_u8_field(ops[1], 32)?,
                bd,
                aa: true,
                lk: base == "bcla",
            })
        }
        "blr" => Ok(Insn::Bclr { bo: bo::ALWAYS, bi: 0, lk: false }),
        "blrl" => Ok(Insn::Bclr { bo: bo::ALWAYS, bi: 0, lk: true }),
        "bctr" => Ok(Insn::Bcctr { bo: bo::ALWAYS, bi: 0, lk: false }),
        "bctrl" => Ok(Insn::Bcctr { bo: bo::ALWAYS, bi: 0, lk: true }),
        "beqlr" | "bnelr" | "bltlr" | "bgelr" | "bgtlr" | "blelr" | "bsolr" | "bnslr"
        | "beqlrl" | "bnelrl" | "bltlrl" | "bgelrl" | "bgtlrl" | "blelrl" | "bsolrl" | "bnslrl"
        | "beqctr" | "bnectr" | "bltctr" | "bgectr" | "bgtctr" | "blectr" | "bsoctr" | "bnsctr"
        | "beqctrl" | "bnectrl" | "bltctrl" | "bgectrl" | "bgtctrl" | "blectrl" | "bsoctrl"
        | "bnsctrl" => {
            let crf = if ops.len() == 1 { parse_crf(ops[0])? } else { CrField::new(0).unwrap() };
            let (bit, sense) = match &base[1..3] {
                "eq" => (crf.eq_bit(), bo::IF_TRUE),
                "ne" => (crf.eq_bit(), bo::IF_FALSE),
                "lt" => (crf.lt_bit(), bo::IF_TRUE),
                "ge" => (crf.lt_bit(), bo::IF_FALSE),
                "gt" => (crf.gt_bit(), bo::IF_TRUE),
                "so" => (crf.so_bit(), bo::IF_TRUE),
                "ns" => (crf.so_bit(), bo::IF_FALSE),
                _ => (crf.gt_bit(), bo::IF_FALSE),
            };
            let rest = &base[3..]; // "lr", "lrl", "ctr" or "ctrl"
            let lk = rest.ends_with("rl");
            if rest.starts_with("ctr") {
                Ok(Insn::Bcctr { bo: sense, bi: bit, lk })
            } else {
                Ok(Insn::Bclr { bo: sense, bi: bit, lk })
            }
        }
        "bclr" | "bclrl" | "bcctr" | "bcctrl" => {
            n(2)?;
            let b = parse_u8_field(ops[0], 32)?;
            let bi = parse_u8_field(ops[1], 32)?;
            let lk = base.ends_with('l');
            if base.starts_with("bclr") {
                Ok(Insn::Bclr { bo: b, bi, lk })
            } else {
                Ok(Insn::Bcctr { bo: b, bi, lk })
            }
        }

        "crclr" => {
            n(1)?;
            let bit = parse_u8_field(ops[0], 32)?;
            Ok(Insn::Crxor { bt: bit, ba: bit, bb: bit })
        }
        "crxor" => {
            n(3)?;
            Ok(Insn::Crxor {
                bt: parse_u8_field(ops[0], 32)?,
                ba: parse_u8_field(ops[1], 32)?,
                bb: parse_u8_field(ops[2], 32)?,
            })
        }
        "mfcr" => {
            n(1)?;
            Ok(Insn::Mfcr { rt: parse_gpr(ops[0])? })
        }
        "mtcrf" => {
            n(2)?;
            // fxm is a full 8-bit field mask; 255 (all fields) is valid.
            let fxm = u8::try_from(parse_int(ops[0])?)
                .map_err(|_| ParseError { message: format!("fxm out of range `{}`", ops[0]) })?;
            Ok(Insn::Mtcrf { fxm, rs: parse_gpr(ops[1])? })
        }
        "mflr" | "mfctr" | "mfxer" => {
            n(1)?;
            let spr = match base {
                "mflr" => Spr::Lr,
                "mfctr" => Spr::Ctr,
                _ => Spr::Xer,
            };
            Ok(Insn::Mfspr { rt: parse_gpr(ops[0])?, spr })
        }
        "mtlr" | "mtctr" | "mtxer" => {
            n(1)?;
            let spr = match base {
                "mtlr" => Spr::Lr,
                "mtctr" => Spr::Ctr,
                _ => Spr::Xer,
            };
            Ok(Insn::Mtspr { spr, rs: parse_gpr(ops[0])? })
        }
        "twi" => {
            n(3)?;
            Ok(Insn::Twi {
                to: parse_u8_field(ops[0], 32)?,
                ra: parse_gpr(ops[1])?,
                si: parse_i16(ops[2])?,
            })
        }
        "sc" => {
            n(0)?;
            Ok(Insn::Sc)
        }
        ".long" => {
            n(1)?;
            let w = parse_int(ops[0])?;
            Ok(Insn::Illegal(w as u32))
        }
        other => err(format!("unknown mnemonic `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disasm::disassemble;
    use crate::encode;
    use crate::reg::*;

    #[test]
    fn parses_paper_example_lines() {
        assert_eq!(parse_insn("lbz r9,0(r28)", 0).unwrap(), Insn::Lbz { rt: R9, ra: R28, d: 0 });
        assert_eq!(
            parse_insn("clrlwi r11,r9,24", 0).unwrap(),
            Insn::Rlwinm { ra: R11, rs: R9, sh: 0, mb: 24, me: 31, rc: false }
        );
        assert_eq!(
            parse_insn("cmplwi cr1,r0,8", 0).unwrap(),
            Insn::Cmplwi { bf: CR1, ra: R0, ui: 8 }
        );
        assert_eq!(
            parse_insn("ble cr1,000401c8", 0x0004_0000).unwrap(),
            Insn::Bc { bo: bo::IF_FALSE, bi: CR1.gt_bit(), bd: 0x1c8, aa: false, lk: false }
        );
        assert_eq!(
            parse_insn("b 00041d38", 0x41d00).unwrap(),
            Insn::B { li: 0x38, aa: false, lk: false }
        );
    }

    #[test]
    fn idioms_parse() {
        assert_eq!(parse_insn("nop", 0).unwrap(), Insn::Ori { ra: R0, rs: R0, ui: 0 });
        assert_eq!(parse_insn("li r3,7", 0).unwrap(), Insn::Addi { rt: R3, ra: R0, si: 7 });
        assert_eq!(
            parse_insn("mr r4,r3", 0).unwrap(),
            Insn::Or { ra: R4, rs: R3, rb: R3, rc: false }
        );
        assert_eq!(parse_insn("blr", 0).unwrap(), Insn::Bclr { bo: bo::ALWAYS, bi: 0, lk: false });
        assert_eq!(parse_insn("mflr r0", 0).unwrap(), Insn::Mfspr { rt: R0, spr: Spr::Lr });
        assert_eq!(parse_insn(".long 0x12345678", 0).unwrap(), Insn::Illegal(0x1234_5678));
    }

    #[test]
    fn record_forms_parse() {
        assert_eq!(
            parse_insn("add. r3,r4,r5", 0).unwrap(),
            Insn::Add { rt: R3, ra: R4, rb: R5, rc: true }
        );
        assert_eq!(
            parse_insn("andi. r3,r4,255", 0).unwrap(),
            Insn::AndiRc { ra: R3, rs: R4, ui: 255 }
        );
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse_insn("frobnicate r1,r2", 0).is_err());
        assert!(parse_insn("addi r3,r4", 0).is_err());
        assert!(parse_insn("lwz r3,8[r1]", 0).is_err());
        assert!(parse_insn("addi r99,r0,1", 0).is_err());
        assert!(parse_insn("addi r3,r0,99999", 0).is_err());
    }

    /// Full-circle: every instruction the generator/kernels can produce
    /// survives disassemble → parse → encode.
    #[test]
    fn text_roundtrip_over_benchmark_code() {
        // A spread of encodings from the real instruction space.
        let mut words: Vec<u32> = Vec::new();
        for i in 0..6000u32 {
            // Mix opcodes and fields deterministically.
            let op = [14, 15, 24, 31, 32, 36, 34, 38, 40, 44, 46, 47, 21, 11, 10, 16, 18, 19]
                [(i % 18) as usize];
            let w = (op << 26) | (i.wrapping_mul(0x9e37_79b9) & 0x03ff_fffc);
            words.push(w);
        }
        let mut checked = 0;
        for (idx, &w) in words.iter().enumerate() {
            let insn = crate::decode(w);
            if matches!(insn, Insn::Illegal(_)) {
                continue;
            }
            let addr = (idx as u32) * 4;
            let text = disassemble(w, addr);
            let parsed =
                parse_insn(&text, addr).unwrap_or_else(|e| panic!("`{text}` ({w:#010x}): {e}"));
            assert_eq!(encode(&parsed), w, "`{text}`");
            checked += 1;
        }
        assert!(checked > 2000, "only {checked} words exercised");
    }
}
