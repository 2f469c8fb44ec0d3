//! Binary serialization for [`ObjectModule`] — the `.cdm` module format the
//! command-line tools exchange (a minimal stand-in for the ELF objects a
//! real post-compilation compressor would read).
//!
//! Layout (big-endian):
//!
//! ```text
//! "CDNM"         magic
//! u16            version (1)
//! u16            ISA tag (0 = PowerPC, 1 = MIPS; see `codense_isa::IsaId`)
//! u16 + bytes    name
//! u32 + u32×n    text words
//! u32            function count
//!   per function: u16+bytes name, u32 start, u32 end, u32 prologue_len,
//!                 u16 epilogue count, (u32 start, u32 end) per epilogue
//! u32            jump-table count
//!   per table: u32 entry count, u32 targets
//! u32            CRC-32 of everything above
//! ```

use codense_isa::IsaId;

use crate::module::{FunctionInfo, JumpTable, ObjectModule};

/// Magic bytes of the module format.
pub const MAGIC: [u8; 4] = *b"CDNM";
/// Current version.
pub const VERSION: u16 = 1;
/// Byte offset of the `u16` ISA tag: after the magic and version.
pub const ISA_TAG_AT: usize = 6;

use crate::crc32::crc32;

/// Module-format errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SerializeError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// Unknown ISA tag.
    BadIsa(u16),
    /// Shorter than its fields claim.
    Truncated,
    /// Trailing CRC mismatch.
    ChecksumMismatch,
    /// Embedded string is not UTF-8.
    BadString,
}

impl std::fmt::Display for SerializeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerializeError::BadMagic => write!(f, "not a codense module (bad magic)"),
            SerializeError::BadVersion(v) => write!(f, "unsupported module version {v}"),
            SerializeError::BadIsa(t) => write!(f, "unknown ISA tag {t} in module"),
            SerializeError::Truncated => write!(f, "module file truncated"),
            SerializeError::ChecksumMismatch => write!(f, "module checksum mismatch"),
            SerializeError::BadString => write!(f, "malformed string in module"),
        }
    }
}

impl std::error::Error for SerializeError {}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Serializes a module to `.cdm` bytes.
pub fn serialize(module: &ObjectModule) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_be_bytes());
    out.extend_from_slice(&u16::from(module.isa.tag()).to_be_bytes());
    put_str(&mut out, &module.name);
    out.extend_from_slice(&(module.code.len() as u32).to_be_bytes());
    for &w in &module.code {
        out.extend_from_slice(&w.to_be_bytes());
    }
    out.extend_from_slice(&(module.functions.len() as u32).to_be_bytes());
    for f in &module.functions {
        put_str(&mut out, &f.name);
        out.extend_from_slice(&(f.start as u32).to_be_bytes());
        out.extend_from_slice(&(f.end as u32).to_be_bytes());
        out.extend_from_slice(&(f.prologue_len as u32).to_be_bytes());
        out.extend_from_slice(&(f.epilogues.len() as u16).to_be_bytes());
        for e in &f.epilogues {
            out.extend_from_slice(&(e.start as u32).to_be_bytes());
            out.extend_from_slice(&(e.end as u32).to_be_bytes());
        }
    }
    out.extend_from_slice(&(module.jump_tables.len() as u32).to_be_bytes());
    for t in &module.jump_tables {
        out.extend_from_slice(&(t.targets.len() as u32).to_be_bytes());
        for &idx in &t.targets {
            out.extend_from_slice(&(idx as u32).to_be_bytes());
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SerializeError> {
        let end = self.pos.checked_add(n).ok_or(SerializeError::Truncated)?;
        if end > self.data.len() {
            return Err(SerializeError::Truncated);
        }
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, SerializeError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, SerializeError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn string(&mut self) -> Result<String, SerializeError> {
        let n = self.u16()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SerializeError::BadString)
    }
}

/// Deserializes and integrity-checks a `.cdm` module.
///
/// # Errors
///
/// Returns a [`SerializeError`] on structural or checksum failure.
pub fn deserialize(data: &[u8]) -> Result<ObjectModule, SerializeError> {
    if data.len() < 12 {
        return Err(SerializeError::Truncated);
    }
    let (payload, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(payload) != stored {
        return Err(SerializeError::ChecksumMismatch);
    }
    let mut r = Reader { data: payload, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(SerializeError::BadMagic);
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(SerializeError::BadVersion(version));
    }
    let isa_tag = r.u16()?;
    let isa = u8::try_from(isa_tag)
        .ok()
        .and_then(IsaId::from_tag)
        .ok_or(SerializeError::BadIsa(isa_tag))?;
    let name = r.string()?;
    let n = r.u32()? as usize;
    let mut code = Vec::with_capacity(n.min(1 << 22));
    for _ in 0..n {
        code.push(r.u32()?);
    }
    let nf = r.u32()? as usize;
    let mut functions = Vec::with_capacity(nf.min(1 << 16));
    for _ in 0..nf {
        let fname = r.string()?;
        let start = r.u32()? as usize;
        let end = r.u32()? as usize;
        let prologue_len = r.u32()? as usize;
        let ne = r.u16()? as usize;
        let mut epilogues = Vec::with_capacity(ne);
        for _ in 0..ne {
            let s = r.u32()? as usize;
            let e = r.u32()? as usize;
            epilogues.push(s..e);
        }
        functions.push(FunctionInfo { name: fname, start, end, prologue_len, epilogues });
    }
    let nt = r.u32()? as usize;
    let mut jump_tables = Vec::with_capacity(nt.min(1 << 16));
    for _ in 0..nt {
        let ne = r.u32()? as usize;
        let mut targets = Vec::with_capacity(ne.min(1 << 16));
        for _ in 0..ne {
            targets.push(r.u32()? as usize);
        }
        jump_tables.push(JumpTable { targets });
    }
    Ok(ObjectModule { name, isa, code, functions, jump_tables })
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_ppc::encode;
    use codense_ppc::insn::Insn;
    use codense_ppc::reg::*;

    fn module() -> ObjectModule {
        let mut m = ObjectModule::new("demo", IsaId::Ppc);
        m.code = (0..32).map(|i| encode(&Insn::Addi { rt: R3, ra: R3, si: i })).collect();
        m.functions.push(FunctionInfo {
            name: "f0".into(),
            start: 0,
            end: 20,
            prologue_len: 3,
            epilogues: std::iter::once(17..20).collect(),
        });
        m.functions.push(FunctionInfo {
            name: "f1".into(),
            start: 20,
            end: 32,
            prologue_len: 2,
            epilogues: vec![28..30, 30..32],
        });
        m.jump_tables.push(JumpTable { targets: vec![0, 4, 20] });
        m
    }

    #[test]
    fn roundtrip() {
        let m = module();
        let bytes = serialize(&m);
        assert_eq!(deserialize(&bytes).unwrap(), m);
    }

    #[test]
    fn empty_module_roundtrips() {
        for isa in IsaId::ALL {
            let m = ObjectModule::new("", isa);
            assert_eq!(deserialize(&serialize(&m)).unwrap(), m);
        }
    }

    /// PowerPC writes the zero the tag field held before it was a tag, and
    /// an unknown tag (with the CRC re-fixed) is a typed error, not a guess.
    #[test]
    fn isa_tag_is_checked() {
        let at = ISA_TAG_AT..ISA_TAG_AT + 2;
        let mut bytes = serialize(&module());
        assert_eq!(bytes[at.clone()], [0, 0]);
        let mut m = module();
        m.isa = IsaId::Mips;
        assert_eq!(serialize(&m)[at.clone()], [0, 1]);
        for tag in [2u16, 0x00ff, 0x0100, u16::MAX] {
            bytes[at.clone()].copy_from_slice(&tag.to_be_bytes());
            let n = bytes.len() - 4;
            let crc = crc32(&bytes[..n]);
            bytes[n..].copy_from_slice(&crc.to_be_bytes());
            assert_eq!(deserialize(&bytes), Err(SerializeError::BadIsa(tag)));
        }
    }

    #[test]
    fn corruption_detected() {
        let bytes = serialize(&module());
        for at in [0usize, 5, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(deserialize(&bad).is_err(), "flip at {at}");
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = serialize(&module());
        for len in [0usize, 4, 11, bytes.len() - 1] {
            assert!(deserialize(&bytes[..len]).is_err(), "len {len}");
        }
    }

    #[test]
    fn crc_reference() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use codense_isa::IsaId;

    use crate::module::{FunctionInfo, JumpTable, ObjectModule};
    use codense_codegen::Rng;

    const CASES: usize = 256;

    /// Arbitrary well-formed modules survive the .cdm round trip.
    #[test]
    fn roundtrip_arbitrary_modules() {
        let mut rng = Rng::new(0x0B1E_0001);
        for _ in 0..CASES {
            let name: String =
                (0..rng.below(13)).map(|_| (b'a' + rng.below(26) as u8) as char).collect();
            let isa = IsaId::ALL[rng.below(IsaId::ALL.len())];
            let mut m = ObjectModule::new(name, isa);
            m.code = (0..rng.below(300)).map(|_| rng.next_u64() as u32).collect();
            let n = m.code.len();
            let mut cuts: Vec<usize> =
                (0..rng.below(6)).map(|_| rng.below(300)).filter(|&c| c < n).collect();
            cuts.sort_unstable();
            cuts.dedup();
            for pair in cuts.windows(2) {
                m.functions.push(FunctionInfo {
                    name: format!("f{}", pair[0]),
                    start: pair[0],
                    end: pair[1].max(pair[0] + 1),
                    prologue_len: 0,
                    epilogues: vec![],
                });
            }
            if n > 0 {
                let targets: Vec<usize> =
                    (0..rng.below(8)).map(|_| rng.below(300)).filter(|&t| t < n).collect();
                if !targets.is_empty() {
                    m.jump_tables.push(JumpTable { targets });
                }
            }
            let got = deserialize(&serialize(&m));
            assert_eq!(got, Ok(m));
        }
    }

    /// Deserialization never panics on arbitrary bytes.
    #[test]
    fn deserialize_total() {
        let mut rng = Rng::new(0x0B1E_0002);
        for _ in 0..CASES {
            let bytes: Vec<u8> = (0..rng.below(512)).map(|_| rng.next_u64() as u8).collect();
            let _ = deserialize(&bytes);
        }
    }
}
