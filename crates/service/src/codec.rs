//! The per-request codec registry.
//!
//! Frame headers select compression by a one-byte codec tag; the registry
//! maps tags to servable encodings the way ClickHouse's
//! `CompressionCodecFactory` maps codec names to implementations. The
//! registry is deliberately wider than what is servable today: `lzw` holds
//! tag 4 with no [`EncodingKind`] behind it (the Unix Compress comparison
//! model is not randomly accessible, so it may never be), keeping the
//! registered-but-unservable error taxonomy and its conformance tests live.
//! `huffman` rode the same slot discipline at tag 3 until Huffman-coded
//! codewords landed; flipping it servable needed no protocol bump.

use codense_core::{container, Compressor, EncodingKind};
use codense_obj::ObjectModule;

use crate::protocol::{CompressRequest, ErrorCode};

/// One registry entry: a wire tag plus the encoding it routes to (when
/// servable).
#[derive(Debug, Clone, Copy)]
pub struct Codec {
    /// The wire tag carried in a `REQ_COMPRESS` header.
    pub tag: u8,
    /// Stable registry name (CLI `--encoding` values match these).
    pub name: &'static str,
    /// The encoding behind the tag; `None` = registered, not yet servable.
    pub kind: Option<EncodingKind>,
}

/// The closed registry, indexed by tag.
pub const CODECS: [Codec; 5] = [
    Codec { tag: 0, name: "baseline", kind: Some(EncodingKind::Baseline) },
    Codec { tag: 1, name: "onebyte", kind: Some(EncodingKind::OneByte) },
    Codec { tag: 2, name: "nibble", kind: Some(EncodingKind::NibbleAligned) },
    Codec { tag: 3, name: "huffman", kind: Some(EncodingKind::Huffman) },
    Codec { tag: 4, name: "lzw", kind: None },
];

/// Resolves a wire tag; `None` for tags outside the registry.
pub fn by_tag(tag: u8) -> Option<&'static Codec> {
    CODECS.iter().find(|c| c.tag == tag)
}

/// Resolves a registry name; `None` for unknown names.
pub fn by_name(name: &str) -> Option<&'static Codec> {
    CODECS.iter().find(|c| c.name == name)
}

/// The registry entry serving an encoding (every [`EncodingKind`] has one).
pub fn by_kind(kind: EncodingKind) -> &'static Codec {
    CODECS.iter().find(|c| c.kind == Some(kind)).expect("every encoding is registered")
}

/// Runs one decoded request through its codec: deserialize → validate →
/// compress → serialize, every failure a typed error code plus message.
/// The module's recorded ISA picks the backend. This is the worker-side
/// entry point; the reactor never compresses.
pub fn process(req: &CompressRequest) -> Result<Vec<u8>, (ErrorCode, String)> {
    let module =
        codense_obj::deserialize(&req.module).map_err(|e| (ErrorCode::BadModule, e.to_string()))?;
    let isa = codense_codegen::isa_ref(module.isa);
    module.validate_with(isa).map_err(|e| (ErrorCode::BadModule, e.to_string()))?;
    compress_with(by_kind(req.encoding), &module, req)
}

fn compress_with(
    codec: &Codec,
    module: &ObjectModule,
    req: &CompressRequest,
) -> Result<Vec<u8>, (ErrorCode, String)> {
    // Decode already rejects unservable tags, but a registry edit or a new
    // call path must hit a hard typed error here, not undefined behaviour
    // in release builds (this was a `debug_assert!`).
    if codec.kind.is_none() {
        return Err((
            ErrorCode::CompressFailed,
            format!("codec `{}` is registered but not servable", codec.name),
        ));
    }
    let compressed = Compressor::new(req.config())
        .with_isa(codense_codegen::isa_ref(module.isa))
        .with_selector(req.selector)
        .compress(module)
        .map_err(|e| (ErrorCode::CompressFailed, e.to_string()))?;
    Ok(container::serialize(&compressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_tags_are_dense_and_names_unique() {
        for (i, c) in CODECS.iter().enumerate() {
            assert_eq!(c.tag as usize, i, "tags are the array index");
            assert_eq!(by_tag(c.tag).unwrap().name, c.name);
            assert_eq!(by_name(c.name).unwrap().tag, c.tag);
        }
        assert!(by_tag(99).is_none());
        assert!(by_name("arith").is_none());
    }

    #[test]
    fn every_encoding_has_a_codec() {
        for kind in [
            EncodingKind::Baseline,
            EncodingKind::OneByte,
            EncodingKind::NibbleAligned,
            EncodingKind::Huffman,
        ] {
            assert_eq!(by_kind(kind).kind, Some(kind));
        }
    }

    #[test]
    fn huffman_is_servable() {
        let c = by_name("huffman").unwrap();
        assert_eq!(c.tag, 3);
        assert_eq!(c.kind, Some(EncodingKind::Huffman));
    }

    #[test]
    fn any_wire_window_cap_is_servable() {
        // One 300-cell block: a cap past it mines that block's length, so
        // the largest wire value compresses exactly like a cap of 300
        // instead of tripping the matchfinder's 32-bit guard.
        let mut module = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        module.code = (0..300u32).map(|i| 0x3860_0000 | (i % 7)).collect(); // li r3, i % 7
        let req = |module: &ObjectModule, max_entry_len| CompressRequest {
            encoding: EncodingKind::NibbleAligned,
            selector: codense_core::SelectorKind::Greedy,
            max_entry_len,
            max_codewords: 0,
            module: codense_obj::serialize(module),
        };
        let widest = process(&req(&module, u16::MAX)).expect("cap u16::MAX");
        assert_eq!(widest, process(&req(&module, 300)).unwrap());

        // Two equal 300-word halves: the best entry would be a whole half,
        // longer than a container's one-byte entry length can record. The
        // served container must still read back as the compressed image.
        let half = (0..300u32).map(|i| 0x3860_0000 | i); // li r3, i
        module.code = half.clone().chain(half).chain([0x4400_0002]).collect(); // sc
        let req = req(&module, u16::MAX);
        let served = container::deserialize(&process(&req).unwrap()).expect("readable");
        let compressed = Compressor::new(req.config()).compress(&module).unwrap();
        assert_eq!(served, compressed.to_image());
        assert_eq!(served.dictionary_by_rank.iter().map(Vec::len).max(), Some(255));
    }

    #[test]
    fn modules_compress_under_the_isa_they_record() {
        let mut module = ObjectModule::new("t", codense_obj::IsaId::Mips);
        module.code = vec![0x2442_0001; 40]; // addiu $2,$2,1
        let req = CompressRequest {
            encoding: EncodingKind::Baseline,
            selector: codense_core::SelectorKind::Greedy,
            max_entry_len: 4,
            max_codewords: 0,
            module: codense_obj::serialize(&module),
        };
        let served = container::deserialize(&process(&req).unwrap()).unwrap();
        let mips = codense_codegen::isa_ref(module.isa);
        let compressed = Compressor::new(req.config()).with_isa(mips).compress(&module).unwrap();
        assert_eq!(served, compressed.to_image());
        assert_eq!(served.isa, codense_obj::IsaId::Mips);
    }

    #[test]
    fn unservable_codec_is_a_hard_typed_error() {
        let lzw = by_name("lzw").unwrap();
        assert!(lzw.kind.is_none());
        let module = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        let req = CompressRequest {
            encoding: EncodingKind::Baseline, // ignored: the codec gates first
            selector: codense_core::SelectorKind::Greedy,
            max_entry_len: 4,
            max_codewords: 0,
            module: codense_obj::serialize(&module),
        };
        let (code, msg) = compress_with(lzw, &module, &req).unwrap_err();
        assert_eq!(code, ErrorCode::CompressFailed);
        assert!(msg.contains("not servable"), "{msg}");
    }
}
