//! What the service test batteries share: the small repetitive modules
//! they compress, a request for one, and the in-process container a served
//! answer must equal byte for byte.

// Each battery is its own crate and uses only some of these.
#![allow(dead_code)]

use codense_core::{container, Compressor, EncodingKind, SelectorKind};
use codense_obj::{IsaId, ObjectModule};
use codense_service::CompressRequest;

/// A PowerPC module named `name`: for each `i` below `rounds`, the pair
/// `li r3, i` / `li r4, 256+i` three times, then `li r3, tag` when a tag is
/// given, so each tag has its own cache key. Enough repetition for a
/// non-trivial dictionary, cheap enough to compress hundreds of times.
pub fn module(name: &str, rounds: u32, tag: Option<u32>) -> ObjectModule {
    let mut m = ObjectModule::new(name, IsaId::Ppc);
    for i in 0..rounds {
        for _ in 0..3 {
            m.code.push(0x3860_0000 | i); // li r3, i
            m.code.push(0x3880_0100 | i); // li r4, 256+i
        }
    }
    m.code.extend(tag.map(|t| 0x3860_0000 | (t & 0xffff))); // li r3, tag
    m
}

/// A greedy request for `module` under `encoding`: entries of up to four
/// instructions, the encoding's full codeword space.
pub fn request(module: &ObjectModule, encoding: EncodingKind) -> CompressRequest {
    CompressRequest {
        encoding,
        selector: SelectorKind::Greedy,
        max_entry_len: 4,
        max_codewords: 0,
        module: codense_obj::serialize(module),
    }
}

/// The in-process reference result the served bytes must match exactly.
pub fn expected_container(module: &ObjectModule, req: &CompressRequest) -> Vec<u8> {
    let compressed = Compressor::new(req.config()).compress(module).expect("compresses");
    container::serialize(&compressed)
}
