//! The telemetry determinism contract, checked end-to-end on the real
//! binary: the `counters` section of `--metrics` output must be
//! byte-identical between `--jobs 1` and `--jobs 8` for the same workload.
//! (The `timings` section carries wall-clock data and worker counts and is
//! explicitly outside the contract.)
//!
//! Run as subprocesses so each measurement starts from zeroed counters —
//! in-process tests share the global registry and would race.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_codense"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("codense-metrics-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Extracts the `"counters": { ... }` block from a metrics report.
fn counters_section(json: &str) -> String {
    let start = json.find("\"counters\"").expect("counters key present");
    let open = json[start..].find('{').unwrap() + start;
    let close = json[open..].find('}').unwrap() + open;
    json[open..=close].to_string()
}

/// Runs the binary with `--metrics` at a given job count; returns the
/// counters section of the report.
fn run_with_jobs(dir: &Path, tag: &str, jobs: &str, args: &[&str]) -> String {
    let path = dir.join(format!("{tag}-j{jobs}.json"));
    let mut cmd = bin();
    cmd.args(["--jobs", jobs, "--metrics", path.to_str().unwrap()]);
    cmd.args(args);
    let out = cmd.output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // The summary table goes to stderr alongside the JSON file.
    assert!(String::from_utf8_lossy(&out.stderr).contains("telemetry"));
    let json = std::fs::read_to_string(&path).unwrap();
    assert!(json.contains("\"schema\": 1"), "schema marker missing: {json}");
    counters_section(&json)
}

#[test]
fn repro_counters_identical_across_job_counts() {
    let dir = tmpdir("repro");
    // One small benchmark keeps debug-mode runtime reasonable; the full
    // suite goes through the same par_map path.
    let args = ["repro", "--bench", "compress"];
    let seq = run_with_jobs(&dir, "repro", "1", &args);
    let par = run_with_jobs(&dir, "repro", "8", &args);
    assert_eq!(seq, par, "repro counters diverged between --jobs 1 and --jobs 8");
    // The run must actually have exercised the compressor.
    assert!(!seq.contains("\"compress.runs\": 0"), "{seq}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fuzz_counters_identical_across_job_counts() {
    let dir = tmpdir("fuzz");
    let base = ["fuzz", "--cases", "12", "--seed", "0xfeed", "--max-steps", "200"];
    for extra in [&[][..], &["--isa", "mips", "--hybrid"]] {
        let args = [&base[..], extra].concat();
        let seq = run_with_jobs(&dir, "fuzz", "1", &args);
        let par = run_with_jobs(&dir, "fuzz", "8", &args);
        assert_eq!(seq, par, "{extra:?}: fuzz counters diverged between --jobs 1 and --jobs 8");
        assert!(seq.contains("\"fuzz.cases\": 12"), "{extra:?}: {seq}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
