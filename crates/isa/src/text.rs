//! The assembly-text toolkit every backend's `parse` module reads with: the
//! shared error type, the mnemonic/operand split and the operand parsers
//! common to all syntaxes. The mnemonic tables stay in the backends.

use std::fmt;

/// Parse errors, with the offending fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// A [`ParseError`] carrying `message`, as an `Err`.
pub fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { message: message.into() })
}

/// Splits one instruction of text into its mnemonic and its
/// comma-separated, trimmed operands.
pub fn split(text: &str) -> (&str, Vec<&str>) {
    let text = text.trim();
    let (mnemonic, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
    let rest = rest.trim();
    let ops = if rest.is_empty() { Vec::new() } else { rest.split(',').map(str::trim).collect() };
    (mnemonic, ops)
}

/// Checks that `mnemonic` got exactly `k` operands.
///
/// # Errors
///
/// A [`ParseError`] naming the mnemonic and both counts otherwise.
pub fn arity(mnemonic: &str, ops: &[&str], k: usize) -> Result<(), ParseError> {
    if ops.len() == k {
        Ok(())
    } else {
        err(format!("`{mnemonic}` expects {k} operands, got {}", ops.len()))
    }
}

/// Parses a decimal or `0x`-prefixed hex integer, optionally negated.
///
/// # Errors
///
/// A [`ParseError`] for anything else.
pub fn parse_int(s: &str) -> Result<i64, ParseError> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x") {
        i64::from_str_radix(hex, 16)
    } else {
        body.parse()
    }
    .map_err(|_| ParseError { message: format!("bad integer `{s}`") })?;
    Ok(if neg { -v } else { v })
}

/// Parses a signed 16-bit immediate.
///
/// # Errors
///
/// A [`ParseError`] for a malformed or out-of-range integer.
pub fn parse_i16(s: &str) -> Result<i16, ParseError> {
    let v = parse_int(s)?;
    i16::try_from(v).map_err(|_| ParseError { message: format!("immediate out of range `{s}`") })
}

/// Parses an unsigned 16-bit immediate.
///
/// # Errors
///
/// A [`ParseError`] for a malformed or out-of-range integer.
pub fn parse_u16(s: &str) -> Result<u16, ParseError> {
    let v = parse_int(s)?;
    u16::try_from(v).map_err(|_| ParseError { message: format!("immediate out of range `{s}`") })
}

/// Splits a memory operand `off(reg)` into its 16-bit offset and the
/// register `reg` parses.
///
/// # Errors
///
/// A [`ParseError`] for a malformed operand, offset or register.
pub fn parse_mem<R>(
    s: &str,
    reg: impl Fn(&str) -> Result<R, ParseError>,
) -> Result<(i16, R), ParseError> {
    let open = s.find('(').ok_or(ParseError { message: format!("bad memory operand `{s}`") })?;
    let close = s.len() - 1;
    if !s.ends_with(')') || close <= open {
        return err(format!("bad memory operand `{s}`"));
    }
    Ok((parse_i16(&s[..open])?, reg(&s[open + 1..close])?))
}

/// Parses a branch target as the disassemblers print it, a hex byte
/// address without `0x`, into the displacement from `addr`.
///
/// # Errors
///
/// A [`ParseError`] for a malformed address.
pub fn parse_target(s: &str, addr: u32) -> Result<i32, ParseError> {
    let target = u32::from_str_radix(s, 16)
        .map_err(|_| ParseError { message: format!("bad branch target `{s}`") })?;
    Ok(target.wrapping_sub(addr) as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_and_arity() {
        assert_eq!(split("  addi r3, r4 ,5 "), ("addi", vec!["r3", "r4", "5"]));
        assert_eq!(split("nop"), ("nop", Vec::<&str>::new()));
        assert_eq!(split("blr   "), ("blr", Vec::<&str>::new()));
        assert!(arity("nop", &[], 0).is_ok());
        assert_eq!(
            arity("addi", &["r3", "r4"], 3).unwrap_err().to_string(),
            "parse error: `addi` expects 3 operands, got 2"
        );
    }

    #[test]
    fn operand_parsers() {
        assert_eq!(parse_int("-0x10"), Ok(-16));
        assert_eq!(parse_int(" 42 "), Ok(42));
        assert_eq!(parse_int("4x").unwrap_err().message, "bad integer `4x`");
        assert_eq!(parse_i16("-32768"), Ok(-32768));
        assert_eq!(parse_i16("99999").unwrap_err().message, "immediate out of range `99999`");
        assert_eq!(parse_u16("0xffff"), Ok(0xffff));
        assert!(parse_u16("-1").is_err());
        assert_eq!(parse_target("000000f8", 0x100), Ok(-8));
        assert_eq!(parse_target("zz", 0).unwrap_err().message, "bad branch target `zz`");
    }

    #[test]
    fn memory_operands_take_the_register_parser() {
        let reg = |s: &str| {
            s.strip_prefix('r')
                .and_then(|n| n.parse::<u8>().ok())
                .ok_or_else(|| ParseError { message: format!("bad register `{s}`") })
        };
        assert_eq!(parse_mem("-8(r1)", reg), Ok((-8, 1)));
        assert_eq!(parse_mem("8[r1]", reg).unwrap_err().message, "bad memory operand `8[r1]`");
        assert_eq!(parse_mem("8(x1)", reg).unwrap_err().message, "bad register `x1`");
        assert_eq!(parse_mem(")(", reg).unwrap_err().message, "bad memory operand `)(`");
    }
}
