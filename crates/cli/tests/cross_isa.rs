//! The ISA travels with the bytes: a MIPS module is compressed as MIPS by
//! the `compress` binary and by an in-process server, both containers run
//! to the native result, and every file consumer reads the files as MIPS.

use std::path::Path;
use std::process::Command;

use codense_core::container::{self, ProgramImage};
use codense_core::{EncodingKind, SelectorKind};
use codense_corpus::{build, CorpusIsa, CorpusSpec, MEM_BYTES};
use codense_isa::{CoreVisitor, IsaId, PredecodeCore, OVERFLOW_TABLE_HI};
use codense_service::{serve, Client, CompressRequest, ServeOptions};
use codense_vm::{PredecodedFetcher, RunResult};

fn codense(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_codense")).args(args).output().unwrap();
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// Boots `image` on a fresh core of the ISA it records, with its jump and
/// overflow tables in place, and runs it to halt.
fn run_image(image: &ProgramImage, table_addrs: &[u32], max_steps: u64) -> RunResult {
    codense_codegen::with_core(image.isa, MEM_BYTES, ImageRun { image, table_addrs, max_steps })
}

/// [`run_image`]'s run, on the concrete machine `with_core` boots.
struct ImageRun<'a> {
    image: &'a ProgramImage,
    table_addrs: &'a [u32],
    max_steps: u64,
}

impl CoreVisitor for ImageRun<'_> {
    type Output = RunResult;

    fn visit<C: PredecodeCore + 'static>(self, mut core: C) -> RunResult {
        let image = self.image;
        for (table, &base) in image.jump_tables.iter().zip(self.table_addrs) {
            for (e, &target) in table.iter().enumerate() {
                core.write32(base + 4 * e as u32, target).unwrap();
            }
        }
        let overflow_base = (OVERFLOW_TABLE_HI as u32) << 16;
        for (slot, &target) in image.overflow_table.iter().enumerate() {
            core.write32(overflow_base + 4 * slot as u32, target).unwrap();
        }
        let mut fetch =
            PredecodedFetcher::from_image_with(image, codense_codegen::isa_ref(image.isa));
        codense_vm::run(&mut core, &mut fetch, 0, self.max_steps).unwrap()
    }
}

#[test]
fn mips_module_compresses_runs_and_reads_as_mips() {
    let spec = CorpusSpec { insns: 4_000, dynamic_target: 40_000, ..CorpusSpec::default() };
    let p = build(&spec, CorpusIsa::Mips).unwrap();
    let dir = std::env::temp_dir().join(format!("codense-cross-isa-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_owned();
    let module_bytes = codense_obj::serialize(&p.module);
    std::fs::write(path("m.cdm"), &module_bytes).unwrap();

    codense(&["compress", &path("m.cdm"), "-o", &path("m.cdns")]);
    let from_cli = std::fs::read(path("m.cdns")).unwrap();

    let mut server = serve(&ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.addr(), 10_000).unwrap();
    let request = CompressRequest {
        encoding: EncodingKind::NibbleAligned,
        selector: SelectorKind::Greedy,
        max_entry_len: 4,
        max_codewords: 0,
        module: module_bytes,
    };
    let served = client.compress(&request).unwrap();
    drop(client);
    server.shutdown();
    assert!(served == from_cli, "served and CLI containers differ");

    let image = container::deserialize(&from_cli).unwrap();
    for bytes in [&from_cli, &served] {
        let image = container::deserialize(bytes).unwrap();
        assert_eq!(image.isa, IsaId::Mips);
        let r = run_image(&image, &p.table_addrs, p.stats.dynamic_insns + 10);
        assert_eq!((r.exit_code, r.steps), (p.stats.exit_code, p.stats.dynamic_insns));
    }

    for file in ["m.cdm", "m.cdns"] {
        let info = codense(&["info", &path(file)]);
        assert!(info.lines().any(|l| l.split_whitespace().eq(["isa", ":", "mips"])), "{info}");
    }
    let mips = codense_codegen::isa_ref(IsaId::Mips);
    let text = codense(&["disasm", &path("m.cdm"), "0", "16"]);
    assert_eq!(text, mips.dump(&p.module.code[..16], 0));
    // The most used codeword appears in the stream and expands to MIPS.
    let text = codense(&["disasm", &path("m.cdns"), "0", "100000"]);
    let first = mips.disassemble(image.dictionary_by_rank[0][0], 0);
    assert!(text.contains(&format!("CODEWORD #0  => {first}")), "{first}\n{text}");
    let analyze = codense(&["analyze", &path("m.cdm")]);
    let branches: usize = analyze
        .lines()
        .find_map(|l| l.trim().strip_prefix("PC-relative branches :"))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("{analyze}"));
    assert!(branches > 0, "{analyze}");
    std::fs::remove_dir_all(Path::new(&dir)).ok();
}
