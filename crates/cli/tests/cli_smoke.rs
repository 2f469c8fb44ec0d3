//! End-to-end CLI smoke tests driving the real binary.

use std::path::{Path, PathBuf};
use std::process::Command;

use codense_obj::{IsaId, JumpTable, ObjectModule};
use codense_ppc::{encode, Insn};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_codense"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("codense-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a PowerPC module with `code` (and `jump_tables`) as a `.cdm`.
fn write_module(path: &Path, code: Vec<u32>, jump_tables: Vec<JumpTable>) {
    let mut m = ObjectModule::new("t", IsaId::Ppc);
    m.code = code;
    m.jump_tables = jump_tables;
    std::fs::write(path, codense_obj::serialize(&m)).unwrap();
}

/// The names of the files in `dir`, sorted.
fn dir_listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// 601 straight-line instructions: two equal 300-instruction halves, `sc`.
fn two_halves() -> Vec<u32> {
    let half = (0..300)
        .map(|i| encode(&Insn::Addi { rt: codense_ppc::reg::R3, ra: codense_ppc::reg::R3, si: i }));
    half.clone().chain(half).chain([encode(&Insn::Sc)]).collect()
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
fn info_names_the_encoding_as_the_flag_spells_it() {
    let dir = tmpdir("info-encoding");
    bin().args(["gen", "compress", "-o", dir.to_str().unwrap()]).status().unwrap();
    let cdm = dir.join("compress.cdm");
    let cdns = dir.join("compress.cdns");
    let out = bin()
        .args([
            "compress",
            cdm.to_str().unwrap(),
            "-o",
            cdns.to_str().unwrap(),
            "--encoding",
            "onebyte",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = bin().args(["info", cdns.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("compressed program (onebyte)\n"), "{text}");

    let args = ["hybrid", "--bench", "quicksort", "--coverage", "0.5", "--encoding", "onebyte"];
    let out = bin().args(args).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.lines().next().unwrap().ends_with("lockstep ok (onebyte)"), "{text}");

    // `run-kernel` takes `none` as well as every encoding.
    let out = bin().args(["run-kernel", "fib", "--encoding", "bogus"]).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("(baseline|onebyte|nibble|huffman|none)"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_time_the_vm() {
    let dir = tmpdir("vm-phase");
    let metrics = dir.join("m.json");
    let out = bin()
        .args(["--metrics", metrics.to_str().unwrap(), "run-kernel", "quicksort"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains(r#"{ "calls": 1, "name": "vm", "total_us": "#), "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_time_a_corpus_builds_stages() {
    // One build: its IR builds, lowerings and native runs each time under
    // it, so the report shows where the build's time went.
    let dir = tmpdir("corpus-phase");
    let metrics = dir.join("m.json");
    let out = bin()
        .args(["--metrics", metrics.to_str().unwrap(), "corpus", "--insns", "4000"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(phase_calls(&json, "corpus"), Some(1), "{json}");
    for stage in ["corpus/ir", "corpus/lower", "corpus/vm"] {
        assert!(phase_calls(&json, stage).is_some_and(|n| n >= 1), "{stage}: {json}");
    }
    assert_eq!(phase_calls(&json, "vm"), None, "a build's runs time under it: {json}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_name_the_command_and_time_each_exhibit() {
    let dir = tmpdir("exhibit-phase");
    let metrics = dir.join("m.json");
    let out = bin()
        .args(["--metrics", metrics.to_str().unwrap(), "exhibit", "fig10", "table3"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains(r#""command": "exhibit","#), "{json}");
    for phase in ["fig10", "table3"] {
        let timed = format!(r#"{{ "calls": 1, "name": "{phase}", "total_us": "#);
        assert!(json.contains(&timed), "{json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every exhibit's stdout, pinned byte for byte in `tests/golden/exhibits.txt`.
/// An odd `--jobs` also checks that the output does not depend on the
/// job count. To re-bless after an intentional change:
///
/// ```text
/// CODENSE_BLESS=1 cargo test -p codense-cli --test cli_smoke exhibits_match_golden
/// git diff crates/cli/tests/golden/   # review every changed number
/// ```
#[test]
fn exhibits_match_golden() {
    let out = bin().args(["--jobs", "3", "exhibit", "all"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let actual = String::from_utf8(out.stdout).unwrap();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/exhibits.txt");
    if std::env::var("CODENSE_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(actual, expected, "exhibits differ from {}; see this test's doc", path.display());
}

/// The lines of `text` that start with `bench`.
fn rows_of<'a>(text: &'a str, bench: &str) -> Vec<&'a str> {
    text.lines().filter(|l| l.split_whitespace().next() == Some(bench)).collect()
}

#[test]
fn sweep_prints_the_suite_figures_for_one_module() {
    let out = bin().args(["sweep", "--bench", "compress"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let sweep = String::from_utf8(out.stdout).unwrap();
    let out = bin().args(["exhibit", "fig4", "fig5", "fig8"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let suite = String::from_utf8(out.stdout).unwrap();
    let rows = rows_of(&sweep, "compress");
    assert_eq!(rows.len(), 3, "{sweep}");
    assert_eq!(rows, rows_of(&suite, "compress"), "{sweep}\n{suite}");

    let out =
        bin().args(["sweep", "--bench", "compress", "--selector", "refine"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let refine = String::from_utf8(out.stdout).unwrap();
    assert!(refine.lines().any(|l| l == "selector: refine"), "{refine}");
    assert_eq!(rows_of(&refine, "compress").len(), 3, "{refine}");
}

#[test]
fn compress_accepts_a_window_cap_past_every_block() {
    // No window is longer than the longest block, so any larger cap mines
    // the same windows: the largest usize neither overflows nor trips the
    // matchfinder's 32-bit guard.
    let dir = tmpdir("max-entry");
    bin().args(["gen", "compress", "-o", dir.to_str().unwrap()]).status().unwrap();
    let cdm = dir.join("compress.cdm");
    let cdns = dir.join("compress.cdns");
    let out = bin()
        .args([
            "compress",
            cdm.to_str().unwrap(),
            "-o",
            cdns.to_str().unwrap(),
            "--max-entry",
            "18446744073709551615",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ratio"));
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
    // misspelled flag, a flag missing its value, a value out of range, and a
    // retired command or flag each exit 2 with a message naming the culprit.
    // Nothing listens on the discard port, so a loadgen that got past its
    // flags would fail for another reason.
    let dir = tmpdir("badflags");
    bin().args(["gen", "compress", "-o", dir.to_str().unwrap()]).status().unwrap();
    let loadgen =
        |rest: &[&'static str]| [&["loadgen", "--addr", "127.0.0.1:9"][..], rest].concat();
    for (args, named) in [
        (vec!["compress", "compress.cdm", "--encodng", "huffman"], "unknown flag `--encodng`"),
        (vec!["repro", "--bench"], "--bench requires a value"),
        (vec!["repro", "--out", "x.json"], "unknown flag `--out`"),
        (vec!["exhibit", "fig3"], "unknown exhibit `fig3` (all|fig1|table1|fig2|fig4|"),
        (vec!["exhibit"], "missing exhibit name (all|fig1|table1|fig2|fig4|"),
        (vec!["compress", "compress.cdm", "-o"], "-o requires a value"),
        (vec!["compress", "compress.cdm", "--max-entry", "0"], "--max-entry"),
        (loadgen(&["--requests", "2", "--max-entry", "0"]), "--max-entry"),
        (loadgen(&["--out", "x.json"]), "unknown flag `--out`"),
        (loadgen(&["--server-jobs", "1"]), "unknown flag `--server-jobs`"),
        (loadgen(&["--server-queue-depth", "1"]), "unknown flag `--server-queue-depth`"),
        (vec!["speed"], "unknown command `speed`"),
        (vec!["scale"], "unknown command `scale`"),
        (vec!["loadsweep"], "unknown command `loadsweep`"),
    ] {
        let out = bin().current_dir(&dir).args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
        assert!(
            out.stdout.is_empty(),
            "{args:?} did work: {}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
    // No rejected command wrote a file: no image, no report.
    assert_eq!(dir_listing(&dir), ["compress.cdm"]);

    // Modules whose checksum is valid but whose contents are not: every
    // command that loads one exits 2 with the validation error, instead of
    // panicking in the basic-block pass.
    let nop = encode(&Insn::Ori { ra: codense_ppc::reg::R0, rs: codense_ppc::reg::R0, ui: 0 });
    let branch = encode(&Insn::B { li: 0x1000, aa: false, lk: false });
    let sc = encode(&Insn::Sc);
    let jump = dir.join("jump.cdm");
    write_module(&jump, vec![nop, sc], vec![JumpTable { targets: vec![1000] }]);
    let far = dir.join("far.cdm");
    write_module(&far, vec![branch, sc], vec![]);
    for (path, named) in [
        (&jump, "jump table 0 entry 0 is out of range"),
        (&far, "branch at instruction 0 targets out-of-range index 1024"),
    ] {
        for command in ["info", "compress", "disasm", "analyze"] {
            let out = bin().args([command, path.to_str().unwrap()]).output().unwrap();
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{command} {path:?}: {err}");
            assert!(err.contains(named), "{command} {path:?}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loadgen_round_trips_through_serve_and_writes_only_its_metrics() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let dir = tmpdir("serve");
    let mut server =
        bin().args(["serve", "--addr", "127.0.0.1:0"]).stdout(Stdio::piped()).spawn().unwrap();
    let mut lines = BufReader::new(server.stdout.take().unwrap()).lines();
    let first = lines.next().unwrap().unwrap();
    let addr = first.strip_prefix("serving on ").expect(&first).to_owned();

    let out = bin()
        .current_dir(&dir)
        .args(["loadgen", "--addr", &addr, "--requests", "4"])
        .args(["--metrics-out", "m.json", "--shutdown"])
        .output()
        .unwrap();
    if !out.status.success() {
        let _ = server.kill();
    }
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("4 ok, 0 busy, 0 failed"), "{text}");

    // One connection, four identical requests: one compression, then hits.
    let metrics = std::fs::read_to_string(dir.join("m.json")).unwrap();
    assert_eq!(codense_service::counter_value(&metrics, "serve.cache.hits"), Some(3));
    assert_eq!(codense_service::counter_value(&metrics, "serve.cache.misses"), Some(1));

    assert_eq!(lines.next().unwrap().unwrap(), "drained, exiting");
    assert!(server.wait().unwrap().success());
    assert_eq!(dir_listing(&dir), ["m.json"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn entries_are_capped_at_what_a_container_records() {
    // At a window cap of 400 the best entry would be a whole 300-word half,
    // but a container records entry lengths in a byte: mining caps windows
    // at 255, so the image stays readable.
    let dir = tmpdir("long-entry");
    let cdm = dir.join("long.cdm");
    let cdns = dir.join("long.cdns");
    write_module(&cdm, two_halves(), vec![]);
    let (cdm, cdns) = (cdm.to_str().unwrap(), cdns.to_str().unwrap());
    let out = bin().args(["compress", cdm, "-o", cdns, "--max-entry", "400"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    for command in ["info", "disasm"] {
        let out = bin().args([command, cdns]).output().unwrap();
        assert!(out.status.success(), "{command}: {}", String::from_utf8_lossy(&out.stderr));
    }
    let image = codense_core::container::deserialize(&std::fs::read(cdns).unwrap()).unwrap();
    let longest = image.dictionary_by_rank.iter().map(Vec::len).max();
    assert_eq!(longest, Some(255));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disasm_count_past_the_end_of_memory_is_clamped() {
    // START + COUNT overflows usize: the range ends at the program's end.
    let dir = tmpdir("dis-overflow");
    let cdm = dir.join("long.cdm");
    write_module(&cdm, two_halves(), vec![]);
    let out = bin()
        .args(["disasm", cdm.to_str().unwrap(), "1", "18446744073709551615"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 600);
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

/// Runs `codense ARGS | head -1`: the reader takes one line and closes the
/// pipe while output is still pending. The command must end quietly, as any
/// Unix filter does, not panic on the failed write.
fn exits_quietly_when_its_reader_closes_early(args: &[&str]) {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let mut child = bin().args(args).stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().unwrap();
    let mut line = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut line).unwrap();
    assert!(!line.is_empty());
    // The reader is dropped here, closing the pipe.
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert_ne!(out.status.code(), Some(101), "{args:?}: {stderr}");
}

#[test]
fn disasm_exits_quietly_when_its_reader_closes_early() {
    // More than a pipe buffer (64 KiB) of output, so the write that meets
    // the closed pipe comes after the reader's one line.
    let dir = tmpdir("dis-pipe");
    bin().args(["gen", "compress", "-o", dir.to_str().unwrap()]).status().unwrap();
    let cdm = dir.join("compress.cdm");
    let cdns = dir.join("compress.cdns");
    bin().args(["compress", cdm.to_str().unwrap(), "-o", cdns.to_str().unwrap()]).status().unwrap();
    let full = bin().args(["disasm", cdns.to_str().unwrap(), "0", "100000"]).output().unwrap();
    assert!(full.stdout.len() > 64 << 10, "only {} bytes of output", full.stdout.len());
    exits_quietly_when_its_reader_closes_early(&["disasm", cdns.to_str().unwrap(), "0", "100000"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhibits_exit_quietly_when_their_reader_closes_early() {
    // The suite header comes first; the exhibits print after their work.
    exits_quietly_when_its_reader_closes_early(&["exhibit", "all"]);
}

/// The parts `compress` prints, e.g. `… -> 100 text bytes + 40 dictionary
/// bytes (5 entries) + 7 Huffman-table bytes, ratio …`: the number before
/// each `bytes` label between `->` and `, ratio`.
fn printed_parts(line: &str) -> Vec<usize> {
    let parts = &line[line.find("->").unwrap() + 2..line.rfind(", ratio").unwrap()];
    parts.split(" + ").map(|p| p.split_whitespace().next().unwrap().parse().unwrap()).collect()
}

#[test]
fn compress_prints_parts_that_sum_to_the_footprint() {
    // gcc under huffman carries a Huffman table and rewrites branches
    // through the overflow table, so all four parts are nonzero there.
    let dir = tmpdir("parts");
    bin().args(["gen", "gcc", "-o", dir.to_str().unwrap()]).status().unwrap();
    let cdm = dir.join("gcc.cdm");
    let cdns = dir.join("gcc.cdns");
    for encoding in ["baseline", "nibble", "huffman"] {
        let out = bin()
            .args(["compress", cdm.to_str().unwrap(), "-o", cdns.to_str().unwrap()])
            .args(["--encoding", encoding])
            .output()
            .unwrap();
        assert!(out.status.success(), "{encoding}: {}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        let first = text.lines().next().unwrap();
        let parts = printed_parts(first);
        let info = bin().args(["info", cdns.to_str().unwrap()]).output().unwrap();
        let info = String::from_utf8_lossy(&info.stdout);
        let footprint: usize = info
            .lines()
            .find_map(|l| l.trim().strip_prefix("footprint     : "))
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("{encoding}: no footprint in {info}"))
            .parse()
            .unwrap();
        assert_eq!(parts.iter().sum::<usize>(), footprint, "{encoding}: {first}\n{info}");
        if encoding == "huffman" {
            assert_eq!(parts.len(), 4, "{first}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn refine_packs_only_the_winning_trial() {
    // Every refine trial is laid out and scored, but only the winner is
    // patched and packed: `compress.runs` counts the greedy run plus each
    // trial, while the pack phase under `refine` runs once.
    let dir = tmpdir("refine-pack");
    bin().args(["gen", "gcc", "-o", dir.to_str().unwrap()]).status().unwrap();
    let metrics = dir.join("m.json");
    let out = bin()
        .args(["--metrics", metrics.to_str().unwrap(), "compress"])
        .arg(dir.join("gcc.cdm"))
        .args(["--selector", "refine", "--encoding", "huffman"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&metrics).unwrap();
    let trials = codense_service::counter_value(&json, "refine.trials").unwrap();
    assert!(trials > 0, "{json}");
    assert_eq!(codense_service::counter_value(&json, "compress.runs"), Some(trials + 1));
    let pack_calls: Vec<u64> = json
        .lines()
        .filter(|l| l.contains("\"name\": \"refine/") && l.contains("/pack\""))
        .map(|l| {
            let calls = &l[l.find("\"calls\": ").unwrap() + 9..];
            calls[..calls.find(',').unwrap()].parse().unwrap()
        })
        .collect();
    assert_eq!(pack_calls, [1], "{json}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The `calls` count of phase `path` in a metrics report, if it ran.
fn phase_calls(json: &str, path: &str) -> Option<u64> {
    let line = json.lines().find(|l| l.contains(&format!("\"name\": \"{path}\",")))?;
    let calls = &line[line.find("\"calls\": ")? + 9..];
    calls[..calls.find(',')?].parse().ok()
}

#[test]
fn every_layout_runs_under_its_phase() {
    // A lay-out's ranks, Huffman table, mark pass and fixpoint all run
    // under `layout`: once for greedy, and under refine once for greedy's
    // selection and once per trial.
    let dir = tmpdir("layout-phase");
    bin().args(["gen", "gcc", "-o", dir.to_str().unwrap()]).status().unwrap();
    let metrics = dir.join("m.json");
    for (selector, path) in [("greedy", "compress/layout"), ("refine", "refine/compress/layout")] {
        let out = bin()
            .args(["--metrics", metrics.to_str().unwrap(), "compress"])
            .arg(dir.join("gcc.cdm"))
            .args(["--encoding", "nibble", "--selector", selector])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let json = std::fs::read_to_string(&metrics).unwrap();
        let trials = codense_service::counter_value(&json, "refine.trials").unwrap();
        assert_eq!(trials > 0, selector == "refine", "{json}");
        assert_eq!(phase_calls(&json, path), Some(trials + 1), "{selector}: {json}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
