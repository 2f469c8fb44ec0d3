//! The worker-side compression of one request.
//!
//! A `REQ_COMPRESS` frame names its encoding and selector by the tags of
//! [`EncodingKind`](codense_core::EncodingKind) and
//! [`SelectorKind`](codense_core::SelectorKind), which
//! [`CompressRequest::decode`] resolves; this module runs the decoded
//! request through the same pipeline an in-process caller uses.

use codense_core::{container, Compressor};

use crate::protocol::{CompressRequest, ErrorCode};

/// Runs one decoded request: deserialize → validate → compress →
/// serialize, every failure a typed error code plus message. The module's
/// recorded ISA picks the backend. This is the worker-side entry point;
/// the reactor never compresses.
pub fn process(req: &CompressRequest) -> Result<Vec<u8>, (ErrorCode, String)> {
    let module =
        codense_obj::deserialize(&req.module).map_err(|e| (ErrorCode::BadModule, e.to_string()))?;
    let isa = codense_codegen::isa_ref(module.isa);
    module.validate_with(isa).map_err(|e| (ErrorCode::BadModule, e.to_string()))?;
    let compressed = Compressor::new(req.config())
        .with_isa(isa)
        .with_selector(req.selector)
        .compress(&module)
        .map_err(|e| (ErrorCode::CompressFailed, e.to_string()))?;
    Ok(container::serialize(&compressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use codense_core::{EncodingKind, SelectorKind};
    use codense_obj::ObjectModule;

    #[test]
    fn any_wire_window_cap_is_servable() {
        // One 300-cell block: a cap past it mines that block's length, so
        // the largest wire value compresses exactly like a cap of 300
        // instead of tripping the matchfinder's 32-bit guard.
        let mut module = ObjectModule::new("t", codense_obj::IsaId::Ppc);
        module.code = (0..300u32).map(|i| 0x3860_0000 | (i % 7)).collect(); // li r3, i % 7
        let req = |module: &ObjectModule, max_entry_len| CompressRequest {
            encoding: EncodingKind::NibbleAligned,
            selector: SelectorKind::Greedy,
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
            selector: SelectorKind::Greedy,
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
}
