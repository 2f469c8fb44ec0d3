//! Instruction decoding: 32-bit word → [`Insn`].

use crate::insn::Insn;
use crate::opcode::{primary as op, xo19, xo31};
use crate::reg::{CrField, Gpr, Spr};

#[inline]
fn rt(w: u32) -> Gpr {
    Gpr::from_field(w >> 21)
}
#[inline]
fn ra(w: u32) -> Gpr {
    Gpr::from_field(w >> 16)
}
#[inline]
fn rb(w: u32) -> Gpr {
    Gpr::from_field(w >> 11)
}
#[inline]
fn si(w: u32) -> i16 {
    w as u16 as i16
}
#[inline]
fn ui(w: u32) -> u16 {
    w as u16
}
#[inline]
fn rc(w: u32) -> bool {
    w & 1 != 0
}

/// Decodes a 32-bit word into an [`Insn`].
///
/// This is a total function: any word outside the implemented subset —
/// including the reserved escape opcodes and any word with nonzero
/// must-be-zero fields — decodes to [`Insn::Illegal`], which re-encodes to
/// the identical word. Hence `encode(&decode(w)) == w` for all `w`.
///
/// ```
/// use codense_ppc::{decode, encode};
/// for w in [0x3860_0001u32, 0x4e80_0020, 0x0000_0000, 0xffff_ffff] {
///     assert_eq!(encode(&decode(w)), w);
/// }
/// ```
pub fn decode(w: u32) -> Insn {
    use Insn::*;
    match w >> 26 {
        op::TWI => Twi { to: ((w >> 21) & 31) as u8, ra: ra(w), si: si(w) },
        op::MULLI => Mulli { rt: rt(w), ra: ra(w), si: si(w) },
        op::SUBFIC => Subfic { rt: rt(w), ra: ra(w), si: si(w) },
        op::CMPLWI if cmp_reserved_ok(w) => {
            Cmplwi { bf: CrField::from_field(w >> 23), ra: ra(w), ui: ui(w) }
        }
        op::CMPWI if cmp_reserved_ok(w) => {
            Cmpwi { bf: CrField::from_field(w >> 23), ra: ra(w), si: si(w) }
        }
        op::ADDIC => Addic { rt: rt(w), ra: ra(w), si: si(w) },
        op::ADDIC_RC => AddicRc { rt: rt(w), ra: ra(w), si: si(w) },
        op::ADDI => Addi { rt: rt(w), ra: ra(w), si: si(w) },
        op::ADDIS => Addis { rt: rt(w), ra: ra(w), si: si(w) },
        op::BC => Bc {
            bo: ((w >> 21) & 31) as u8,
            bi: ((w >> 16) & 31) as u8,
            bd: (w & 0xfffc) as u16 as i16,
            aa: w & 2 != 0,
            lk: w & 1 != 0,
        },
        op::SC if w == (op::SC << 26) | 2 => Sc,
        op::B => {
            let mut li = (w & 0x03ff_fffc) as i32;
            if li & 0x0200_0000 != 0 {
                li |= !0x03ff_ffff;
            }
            B { li, aa: w & 2 != 0, lk: w & 1 != 0 }
        }
        op::XL => decode_xl(w),
        op::RLWIMI => Rlwimi {
            ra: ra(w),
            rs: rt(w),
            sh: ((w >> 11) & 31) as u8,
            mb: ((w >> 6) & 31) as u8,
            me: ((w >> 1) & 31) as u8,
            rc: rc(w),
        },
        op::RLWINM => Rlwinm {
            ra: ra(w),
            rs: rt(w),
            sh: ((w >> 11) & 31) as u8,
            mb: ((w >> 6) & 31) as u8,
            me: ((w >> 1) & 31) as u8,
            rc: rc(w),
        },
        op::ORI => Ori { ra: ra(w), rs: rt(w), ui: ui(w) },
        op::ORIS => Oris { ra: ra(w), rs: rt(w), ui: ui(w) },
        op::XORI => Xori { ra: ra(w), rs: rt(w), ui: ui(w) },
        op::XORIS => Xoris { ra: ra(w), rs: rt(w), ui: ui(w) },
        op::ANDI_RC => AndiRc { ra: ra(w), rs: rt(w), ui: ui(w) },
        op::ANDIS_RC => AndisRc { ra: ra(w), rs: rt(w), ui: ui(w) },
        op::X31 => decode_x31(w),
        op::LWZ => Lwz { rt: rt(w), ra: ra(w), d: si(w) },
        op::LWZU => Lwzu { rt: rt(w), ra: ra(w), d: si(w) },
        op::LBZ => Lbz { rt: rt(w), ra: ra(w), d: si(w) },
        op::LBZU => Lbzu { rt: rt(w), ra: ra(w), d: si(w) },
        op::STW => Stw { rs: rt(w), ra: ra(w), d: si(w) },
        op::STWU => Stwu { rs: rt(w), ra: ra(w), d: si(w) },
        op::STB => Stb { rs: rt(w), ra: ra(w), d: si(w) },
        op::STBU => Stbu { rs: rt(w), ra: ra(w), d: si(w) },
        op::LHZ => Lhz { rt: rt(w), ra: ra(w), d: si(w) },
        op::LHZU => Lhzu { rt: rt(w), ra: ra(w), d: si(w) },
        op::LHA => Lha { rt: rt(w), ra: ra(w), d: si(w) },
        op::LHAU => Lhau { rt: rt(w), ra: ra(w), d: si(w) },
        op::STH => Sth { rs: rt(w), ra: ra(w), d: si(w) },
        op::STHU => Sthu { rs: rt(w), ra: ra(w), d: si(w) },
        op::LMW => Lmw { rt: rt(w), ra: ra(w), d: si(w) },
        op::STMW => Stmw { rs: rt(w), ra: ra(w), d: si(w) },
        _ => Illegal(w),
    }
}

/// Compare instructions require the reserved "/" and L bits (22, 21) clear.
fn cmp_reserved_ok(w: u32) -> bool {
    w & 0x0060_0000 == 0
}

fn decode_xl(w: u32) -> Insn {
    use Insn::*;
    let bo = ((w >> 21) & 31) as u8;
    let bi = ((w >> 16) & 31) as u8;
    match (w >> 1) & 0x3ff {
        xo19::BCLR if (w >> 11) & 31 == 0 => Bclr { bo, bi, lk: rc(w) },
        xo19::BCCTR if (w >> 11) & 31 == 0 => Bcctr { bo, bi, lk: rc(w) },
        xo19::CRXOR if w & 1 == 0 => Crxor { bt: bo, ba: bi, bb: ((w >> 11) & 31) as u8 },
        _ => Illegal(w),
    }
}

fn decode_x31(w: u32) -> Insn {
    use Insn::*;
    let xo = (w >> 1) & 0x3ff;
    match xo {
        xo31::CMPW if cmp_reserved_ok(w) && w & 1 == 0 => {
            Cmpw { bf: CrField::from_field(w >> 23), ra: ra(w), rb: rb(w) }
        }
        xo31::CMPLW if cmp_reserved_ok(w) && w & 1 == 0 => {
            Cmplw { bf: CrField::from_field(w >> 23), ra: ra(w), rb: rb(w) }
        }
        xo31::LWZX if w & 1 == 0 => Lwzx { rt: rt(w), ra: ra(w), rb: rb(w) },
        xo31::LBZX if w & 1 == 0 => Lbzx { rt: rt(w), ra: ra(w), rb: rb(w) },
        xo31::LHZX if w & 1 == 0 => Lhzx { rt: rt(w), ra: ra(w), rb: rb(w) },
        xo31::STWX if w & 1 == 0 => Stwx { rs: rt(w), ra: ra(w), rb: rb(w) },
        xo31::STBX if w & 1 == 0 => Stbx { rs: rt(w), ra: ra(w), rb: rb(w) },
        xo31::STHX if w & 1 == 0 => Sthx { rs: rt(w), ra: ra(w), rb: rb(w) },

        xo31::ADD => Add { rt: rt(w), ra: ra(w), rb: rb(w), rc: rc(w) },
        xo31::SUBF => Subf { rt: rt(w), ra: ra(w), rb: rb(w), rc: rc(w) },
        xo31::MULLW => Mullw { rt: rt(w), ra: ra(w), rb: rb(w), rc: rc(w) },
        xo31::MULHW => Mulhw { rt: rt(w), ra: ra(w), rb: rb(w), rc: rc(w) },
        xo31::DIVW => Divw { rt: rt(w), ra: ra(w), rb: rb(w), rc: rc(w) },
        xo31::DIVWU => Divwu { rt: rt(w), ra: ra(w), rb: rb(w), rc: rc(w) },
        xo31::NEG if (w >> 11) & 31 == 0 => Neg { rt: rt(w), ra: ra(w), rc: rc(w) },

        xo31::AND => And { ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) },
        xo31::OR => Or { ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) },
        xo31::XOR => Xor { ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) },
        xo31::NAND => Nand { ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) },
        xo31::NOR => Nor { ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) },
        xo31::ANDC => Andc { ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) },
        xo31::ORC => Orc { ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) },
        xo31::SLW => Slw { ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) },
        xo31::SRW => Srw { ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) },
        xo31::SRAW => Sraw { ra: ra(w), rs: rt(w), rb: rb(w), rc: rc(w) },
        xo31::SRAWI => Srawi { ra: ra(w), rs: rt(w), sh: ((w >> 11) & 31) as u8, rc: rc(w) },
        xo31::EXTSB if (w >> 11) & 31 == 0 => Extsb { ra: ra(w), rs: rt(w), rc: rc(w) },
        xo31::EXTSH if (w >> 11) & 31 == 0 => Extsh { ra: ra(w), rs: rt(w), rc: rc(w) },
        xo31::CNTLZW if (w >> 11) & 31 == 0 => Cntlzw { ra: ra(w), rs: rt(w), rc: rc(w) },

        xo31::MFCR if w & 0x001f_f801 == 0 => Mfcr { rt: rt(w) },
        xo31::MTCRF if w & 0x0010_0801 == 0 => Mtcrf { fxm: ((w >> 12) & 0xff) as u8, rs: rt(w) },
        xo31::MFSPR | xo31::MTSPR if w & 1 == 0 => {
            let split = (w >> 11) & 0x3ff;
            let n = ((split & 0x1f) << 5) | (split >> 5);
            match Spr::from_number(n) {
                Some(spr) if xo == xo31::MFSPR => Mfspr { rt: rt(w), spr },
                Some(spr) => Mtspr { spr, rs: rt(w) },
                None => Illegal(w),
            }
        }
        _ => Illegal(w),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use crate::insn::bo;
    use crate::reg::*;

    #[test]
    fn decode_known_words() {
        assert_eq!(decode(0x3860_0001), Insn::Addi { rt: R3, ra: R0, si: 1 });
        assert_eq!(decode(0x4e80_0020), Insn::Bclr { bo: bo::ALWAYS, bi: 0, lk: false });
        assert_eq!(decode(0x7c08_02a6), Insn::Mfspr { rt: R0, spr: Spr::Lr });
        assert_eq!(decode(0x6000_0000), Insn::Ori { ra: R0, rs: R0, ui: 0 });
        assert_eq!(decode(0x4400_0002), Insn::Sc);
    }

    #[test]
    fn escape_words_decode_illegal() {
        for b in crate::isa::ESCAPE_BYTES {
            let w = (b as u32) << 24 | 0x0012_3456;
            assert!(matches!(decode(w), Insn::Illegal(_)), "escape byte {b:#x}");
        }
    }

    #[test]
    fn negative_branch_displacement() {
        let w = encode(&Insn::B { li: -1024, aa: false, lk: false });
        assert_eq!(decode(w), Insn::B { li: -1024, aa: false, lk: false });
    }

    #[test]
    fn reserved_bits_reject() {
        // cmpwi with L bit set must not decode as Cmpwi.
        let w = encode(&Insn::Cmpwi { bf: CR1, ra: R3, si: 5 }) | (1 << 21);
        assert!(matches!(decode(w), Insn::Illegal(_)));
    }

    /// Exhaustive-ish roundtrip: every instruction constructor over a spread
    /// of field values must satisfy decode(encode(i)) == i.
    #[test]
    fn constructed_roundtrip() {
        let regs = [R0, R1, R3, R9, R15, R28, R31];
        let imms: [i16; 5] = [0, 1, -1, 32767, -32768];
        let mut insns: Vec<Insn> = Vec::new();
        for &a in &regs {
            for &b in &regs {
                for &i in &imms {
                    insns.push(Insn::Addi { rt: a, ra: b, si: i });
                    insns.push(Insn::Lwz { rt: a, ra: b, d: i });
                    insns.push(Insn::Stmw { rs: a, ra: b, d: i });
                    insns.push(Insn::Ori { ra: a, rs: b, ui: i as u16 });
                }
                for &c in &regs {
                    insns.push(Insn::Add { rt: a, ra: b, rb: c, rc: false });
                    insns.push(Insn::Subf { rt: a, ra: b, rb: c, rc: true });
                    insns.push(Insn::Or { ra: a, rs: b, rb: c, rc: false });
                    insns.push(Insn::Lwzx { rt: a, ra: b, rb: c });
                }
            }
        }
        for sh in [0u8, 1, 17, 31] {
            insns.push(Insn::Rlwinm { ra: R9, rs: R11, sh, mb: 24, me: 31, rc: false });
            insns.push(Insn::Srawi { ra: R3, rs: R3, sh, rc: true });
        }
        for spr in [Spr::Lr, Spr::Ctr, Spr::Xer] {
            insns.push(Insn::Mfspr { rt: R0, spr });
            insns.push(Insn::Mtspr { spr, rs: R0 });
        }
        insns.push(Insn::Mfcr { rt: R12 });
        insns.push(Insn::Mtcrf { fxm: 0xff, rs: R12 });
        insns.push(Insn::Crxor { bt: 6, ba: 6, bb: 6 });
        insns.push(Insn::Twi { to: 31, ra: R3, si: 16 });
        for &insn in &insns {
            assert_eq!(decode(encode(&insn)), insn, "{insn:?}");
        }
    }
}
