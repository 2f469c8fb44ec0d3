//! End-to-end CLI smoke tests driving the real binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_codense"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("codense-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_compress_info_pipeline() {
    let dir = tmpdir("pipe");
    let out = bin().args(["gen", "compress", "-o", dir.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let cdm = dir.join("compress.cdm");
    let cdns = dir.join("compress.cdns");
    let out = bin()
        .args([
            "compress",
            cdm.to_str().unwrap(),
            "-o",
            cdns.to_str().unwrap(),
            "--encoding",
            "nibble",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ratio"), "{text}");

    for file in [&cdm, &cdns] {
        let out = bin().args(["info", file.to_str().unwrap()]).output().unwrap();
        assert!(out.status.success());
        assert!(!out.stdout.is_empty());
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disasm_prints_paper_style_text() {
    let dir = tmpdir("dis");
    bin().args(["gen", "li", "-o", dir.to_str().unwrap()]).status().unwrap();
    let out =
        bin().args(["disasm", dir.join("li.cdm").to_str().unwrap(), "0", "4"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("stwu r1,"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_kernel_checks_result() {
    for encoding in ["none", "baseline", "nibble"] {
        let out = bin().args(["run-kernel", "fib", "--encoding", encoding]).output().unwrap();
        assert!(out.status.success(), "{encoding}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("exit 6765"));
    }
}

#[test]
fn bad_inputs_fail_cleanly() {
    assert!(!bin().args(["info", "/nonexistent.cdm"]).output().unwrap().status.success());
    assert!(!bin().args(["gen", "espresso"]).output().unwrap().status.success());
    assert!(!bin().args(["frobnicate"]).output().unwrap().status.success());
    assert!(bin().args(["run-kernel", "list"]).output().unwrap().status.success());

    // Flags are checked against the command's own list before any work: a
    // misspelled flag, a flag missing its value, and a retired command each
    // exit 2 with a message naming the culprit.
    let dir = tmpdir("badflags");
    bin().args(["gen", "compress", "-o", dir.to_str().unwrap()]).status().unwrap();
    let cdm = dir.join("compress.cdm");
    let cdm = cdm.to_str().unwrap();
    for (args, named) in [
        (&["compress", cdm, "--encodng", "huffman"][..], "unknown flag `--encodng`"),
        (&["repro", "--bench"], "--bench requires a value"),
        (&["compress", cdm, "-o"], "-o requires a value"),
        (&["speed"], "unknown command `speed`"),
        (&["scale"], "unknown command `scale`"),
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} did work: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    // Neither rejected `compress` wrote an image to the default path.
    assert!(!dir.join("compress.cdns").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn asm_assembles_labeled_source() {
    let dir = tmpdir("asm");
    let src = dir.join("prog.s");
    std::fs::write(
        &src,
        "# doubling loop\n\
         li r3,1\n\
         li r4,6\n\
         loop:\n\
         add r3,r3,r3\n\
         addi r4,r4,-1   # decrement\n\
         cmpwi r4,0\n\
         bne loop\n\
         sc\n",
    )
    .unwrap();
    let out = bin().args(["asm", src.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // Disassemble it back and check the branch resolved to the label.
    let out = bin().args(["disasm", dir.join("prog.cdm").to_str().unwrap()]).output().unwrap();
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("bne 00000008"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn asm_assembles_mips_source() {
    // Regression test: `asm` used to hardcode PowerPC parsing and 4-byte
    // branch-target scaling; `--isa mips` must assemble MIPS mnemonics and
    // resolve labels through the MIPS branch encodings.
    let dir = tmpdir("asm-mips");
    let src = dir.join("prog.s");
    std::fs::write(
        &src,
        "# countdown with a call\n\
         start:\n\
         addiu $4,$0,10\n\
         loop:\n\
         jal leaf\n\
         addiu $4,$4,-1   # decrement\n\
         bgtz $4,loop\n\
         addu $2,$4,$0\n\
         syscall\n\
         leaf:\n\
         jr $31\n",
    )
    .unwrap();
    let out = bin().args(["asm", src.to_str().unwrap(), "--isa", "mips"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("7 instructions"), "{text}");

    // The same source is not valid PowerPC assembly; the default ISA must
    // reject it rather than silently mis-assemble.
    let out = bin().args(["asm", src.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "mips source must not assemble as ppc");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn isa_flag_rejects_unknown_backend() {
    for cmd in
        [&["repro", "--isa", "vax"][..], &["fuzz", "--isa", "vax"], &["sweep", "--isa", "vax"]]
    {
        let out = bin().args(cmd).output().unwrap();
        assert!(!out.status.success(), "{cmd:?} accepted unknown isa");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown ISA"), "{cmd:?}: {err}");
    }
}

#[test]
fn fuzz_mips_smoke_is_clean() {
    let out =
        bin().args(["fuzz", "--isa", "mips", "--cases", "3", "--seed", "9"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("isa=mips"), "{text}");
    assert!(text.contains("result: OK (3 cases, 0 divergences, 0 panics)"), "{text}");
    // Hybrid images get the same lockstep battery on MIPS as on PPC.
    let out = bin().args(["fuzz", "--isa", "mips", "--hybrid", "--cases", "3"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hybrid nibble: completed="), "{text}");
}

#[test]
fn asm_rejects_bad_source() {
    let dir = tmpdir("asmbad");
    let src = dir.join("bad.s");
    std::fs::write(&src, "li r3,1\nfrobnicate r3\n").unwrap();
    let out = bin().args(["asm", src.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad.s:2"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disasm_renders_compressed_streams() {
    let dir = tmpdir("dis-cdns");
    bin().args(["gen", "compress", "-o", dir.to_str().unwrap()]).status().unwrap();
    let cdm = dir.join("compress.cdm");
    let cdns = dir.join("compress.cdns");
    bin().args(["compress", cdm.to_str().unwrap(), "-o", cdns.to_str().unwrap()]).status().unwrap();
    let out = bin().args(["disasm", cdns.to_str().unwrap(), "0", "20"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CODEWORD #"), "{text}");
    assert!(text.contains("=>"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}
