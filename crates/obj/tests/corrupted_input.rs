//! Corrupted-input round-trips for the `.cdm` module format.
//!
//! The trailing CRC-32 is checked before anything is parsed, so random
//! corruption is normally reported as [`SerializeError::ChecksumMismatch`].
//! These tests go further: they *re-fix* the CRC after corrupting structural
//! fields, proving the structural layer itself returns typed errors (and
//! never panics or over-allocates) even when the checksum is valid.

use std::panic::{catch_unwind, AssertUnwindSafe};

use codense_isa::IsaId;
use codense_obj::crc32::crc32;
use codense_obj::serialize::{deserialize, serialize, SerializeError};
use codense_obj::{FunctionInfo, JumpTable, ObjectModule};
use codense_ppc::encode;
use codense_ppc::insn::Insn;
use codense_ppc::reg::R3;

fn sample_module() -> ObjectModule {
    let mut m = ObjectModule::new("fixture", IsaId::Ppc);
    m.code = (0..48).map(|i| encode(&Insn::Addi { rt: R3, ra: R3, si: i })).collect();
    m.functions.push(FunctionInfo {
        name: "entry".into(),
        start: 0,
        end: 30,
        prologue_len: 4,
        epilogues: std::iter::once(26..30).collect(),
    });
    m.functions.push(FunctionInfo {
        name: "helper".into(),
        start: 30,
        end: 48,
        prologue_len: 2,
        epilogues: vec![40..42, 46..48],
    });
    m.jump_tables.push(JumpTable { targets: vec![0, 8, 30] });
    m.jump_tables.push(JumpTable { targets: vec![4] });
    m
}

/// Byte offsets of interest, mirroring the writer's layout walk.
struct Layout {
    /// Offsets of every length/count field, with the width that field has.
    length_fields: Vec<(usize, usize)>,
    /// Offsets of section boundaries (end of each logical section).
    boundaries: Vec<usize>,
    /// Offset of the module-name payload bytes.
    name_bytes: usize,
    /// Offset of the `u16` ISA tag.
    isa_tag: usize,
}

fn layout_of(m: &ObjectModule) -> Layout {
    let mut length_fields = Vec::new();
    let mut boundaries = Vec::new();
    let isa_tag = 4 + 2; // magic, version
    assert_eq!(isa_tag, codense_obj::serialize::ISA_TAG_AT);
    let mut pos = isa_tag + 2;
    boundaries.push(pos);
    length_fields.push((pos, 2)); // name length
    let name_bytes = pos + 2;
    pos += 2 + m.name.len();
    boundaries.push(pos);
    length_fields.push((pos, 4)); // text word count
    pos += 4 + 4 * m.code.len();
    boundaries.push(pos);
    length_fields.push((pos, 4)); // function count
    pos += 4;
    for f in &m.functions {
        length_fields.push((pos, 2)); // function name length
        pos += 2 + f.name.len() + 4 + 4 + 4;
        length_fields.push((pos, 2)); // epilogue count
        pos += 2 + 8 * f.epilogues.len();
        boundaries.push(pos);
    }
    length_fields.push((pos, 4)); // jump-table count
    pos += 4;
    for t in &m.jump_tables {
        length_fields.push((pos, 4)); // entry count
        pos += 4 + 4 * t.targets.len();
        boundaries.push(pos);
    }
    pos += 4; // CRC
    boundaries.push(pos);
    Layout { length_fields, boundaries, name_bytes, isa_tag }
}

/// Re-stamps the trailing CRC so corruption reaches the structural parser.
fn refix_crc(bytes: &mut [u8]) {
    let (payload, crc) = bytes.split_at_mut(bytes.len() - 4);
    crc.copy_from_slice(&crc32(payload).to_be_bytes());
}

fn assert_no_panic(bytes: &[u8]) -> Result<ObjectModule, SerializeError> {
    catch_unwind(AssertUnwindSafe(|| deserialize(bytes)))
        .unwrap_or_else(|_| panic!("deserialize panicked on {} bytes", bytes.len()))
}

#[test]
fn layout_walk_matches_writer() {
    let m = sample_module();
    let bytes = serialize(&m);
    let layout = layout_of(&m);
    assert_eq!(*layout.boundaries.last().unwrap(), bytes.len());
    // Spot-check a counted field: the text word count sits where we think.
    let at = layout.length_fields[1].0;
    let n = u32::from_be_bytes(bytes[at..at + 4].try_into().unwrap());
    assert_eq!(n as usize, m.code.len());
}

#[test]
fn truncation_at_every_section_boundary() {
    let m = sample_module();
    let bytes = serialize(&m);
    let layout = layout_of(&m);
    for &b in &layout.boundaries {
        for len in [b.saturating_sub(1), b, (b + 1).min(bytes.len())] {
            if len == bytes.len() {
                continue;
            }
            let got = assert_no_panic(&bytes[..len]);
            let expected = if len < 12 {
                SerializeError::Truncated
            } else {
                // The last 4 bytes of the prefix now read as a CRC of the
                // shorter payload, which cannot match.
                SerializeError::ChecksumMismatch
            };
            assert_eq!(got, Err(expected), "truncated to {len}");
        }
    }
}

#[test]
fn every_prefix_is_rejected_without_panicking() {
    let bytes = serialize(&sample_module());
    for len in 0..bytes.len() {
        assert!(assert_no_panic(&bytes[..len]).is_err(), "prefix {len} accepted");
    }
}

#[test]
fn flipped_length_fields_with_valid_crc_give_typed_truncation() {
    let m = sample_module();
    let bytes = serialize(&m);
    let layout = layout_of(&m);
    for &(at, width) in &layout.length_fields {
        let mut bad = bytes.clone();
        // Saturate the field: every count now claims far more payload than
        // the buffer holds, so the structural layer must hit `Truncated` —
        // without first allocating anything near the claimed size.
        for b in &mut bad[at..at + width] {
            *b = 0xFF;
        }
        refix_crc(&mut bad);
        assert_eq!(
            assert_no_panic(&bad),
            Err(SerializeError::Truncated),
            "length field at {at} (width {width})"
        );
    }
}

#[test]
fn non_utf8_name_with_valid_crc_is_a_typed_error() {
    let m = sample_module();
    let mut bad = serialize(&m);
    let layout = layout_of(&m);
    bad[layout.name_bytes] = 0xFF; // invalid UTF-8 lead byte
    refix_crc(&mut bad);
    assert_eq!(assert_no_panic(&bad), Err(SerializeError::BadString));
}

#[test]
fn bad_magic_and_version_are_typed_errors() {
    let m = sample_module();

    let mut bad = serialize(&m);
    bad[0] = b'X';
    refix_crc(&mut bad);
    assert_eq!(assert_no_panic(&bad), Err(SerializeError::BadMagic));

    let mut bad = serialize(&m);
    bad[4..6].copy_from_slice(&2u16.to_be_bytes());
    refix_crc(&mut bad);
    assert_eq!(assert_no_panic(&bad), Err(SerializeError::BadVersion(2)));
}

#[test]
fn isa_tag_with_valid_crc_is_checked() {
    let m = sample_module();
    let at = layout_of(&m).isa_tag;
    let bytes = serialize(&m);
    assert_eq!(bytes[at..at + 2], [0, IsaId::Ppc.tag()]);
    for tag in 0..=u16::MAX {
        let mut bad = bytes.clone();
        bad[at..at + 2].copy_from_slice(&tag.to_be_bytes());
        refix_crc(&mut bad);
        let got = assert_no_panic(&bad);
        match u8::try_from(tag).ok().and_then(IsaId::from_tag) {
            // A known tag decodes to the same module under that ISA.
            Some(isa) => assert_eq!(got, Ok(ObjectModule { isa, ..m.clone() }), "tag {tag}"),
            None => assert_eq!(got, Err(SerializeError::BadIsa(tag))),
        }
    }
}

#[test]
fn every_single_byte_flip_is_caught() {
    let m = sample_module();
    let bytes = serialize(&m);
    for at in 0..bytes.len() {
        for bit in [0x01u8, 0x80] {
            let mut bad = bytes.clone();
            bad[at] ^= bit;
            let got = assert_no_panic(&bad);
            assert!(got.is_err(), "flip {bit:#04x} at byte {at} accepted");
            // Without re-fixing the CRC, the checksum fires first: payload
            // flips mismatch the stored CRC, CRC flips mismatch the payload.
            assert_eq!(got, Err(SerializeError::ChecksumMismatch), "flip at {at}");
        }
    }
}

#[test]
fn splice_of_two_valid_modules_is_rejected() {
    let a = serialize(&sample_module());
    let b = serialize(&ObjectModule::new("other", IsaId::Ppc));
    for cut in [4usize, a.len() / 2, a.len() - 5] {
        let mut spliced = a[..cut].to_vec();
        spliced.extend_from_slice(&b[cut.min(b.len())..]);
        if spliced == a || spliced == b {
            continue;
        }
        assert!(assert_no_panic(&spliced).is_err(), "splice at {cut} accepted");
    }
}
