//! The telemetry determinism contract, checked end-to-end on the real
//! binary: the `counters` section of `--metrics` output must be
//! byte-identical between `--jobs 1` and `--jobs 8` for the same workload.
//! (The `timings` section carries wall-clock data and worker counts and is
//! explicitly outside the contract.)
//!
//! The jobs diff cannot see a count that is lost on every path, so each
//! `--jobs 1` section is also pinned in `tests/golden/counters.txt`. To
//! re-bless it after a change that means to move a counter:
//!
//! ```text
//! CODENSE_BLESS=1 cargo test -p codense-cli --test metrics_determinism
//! git diff crates/cli/tests/golden/   # review every changed count
//! ```
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

/// Runs the binary in `dir` with `--metrics` at a given job count; returns
/// the counters section of the report.
fn run_with_jobs(dir: &Path, jobs: &str, args: &[&str]) -> String {
    let path = dir.join(format!("metrics-j{jobs}.json"));
    let mut cmd = bin();
    cmd.current_dir(dir);
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

/// Compares `actual` with `tests/golden/counters.txt`, or rewrites the
/// golden when `CODENSE_BLESS=1` is set.
fn check_golden(actual: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/counters.txt");
    if std::env::var("CODENSE_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(actual, expected, "counters differ from {}; see the module doc", path.display());
}

#[test]
fn counters_identical_across_job_counts() {
    let dir = tmpdir("counters");
    let profile = dir.join("profile.json");
    let fuzz = ["fuzz", "--cases", "12", "--seed", "0xfeed", "--max-steps", "200"];
    let mut pinned = String::new();
    // One small benchmark keeps debug-mode runtime reasonable; the full
    // suite goes through the same par_map path. It runs twice: under the
    // greedy selector, then under refine, whose trials each select again
    // (its selection counters are pinned here). `gcc` under refine rewrites
    // branches through the overflow table over several layout rounds, so
    // its overflow and layout counters are pinned too. The 10K corpus program
    // covers the SPEC-scale path: built, compressed and verified under all
    // four encodings (repro), then run natively and through the compressed
    // fetch path (profile). `hybrid` adds the lockstep oracle and the cycle
    // model's traced runs, and `fuzz` the oracle and fault battery on both
    // ISAs.
    for args in [
        &["repro", "--bench", "compress"][..],
        &["repro", "--bench", "compress", "--selector", "refine"],
        &["repro", "--bench", "gcc", "--selector", "refine"],
        &["repro", "--corpus", "10k", "--bench", "compress"],
        &["profile", "--corpus", "10k", "--out", "profile.json"],
        &["hybrid", "--bench", "quicksort", "--coverage", "0.5"],
        &fuzz,
        &[&fuzz[..], &["--isa", "mips", "--hybrid"]].concat(),
    ] {
        let seq = run_with_jobs(&dir, "1", args);
        let seq_profile = std::fs::read(&profile).ok();
        let par = run_with_jobs(&dir, "8", args);
        assert_eq!(seq, par, "{args:?}: counters diverged between --jobs 1 and --jobs 8");
        // The profile artifact is byte-identical at any job count too.
        assert_eq!(seq_profile, std::fs::read(&profile).ok(), "{args:?}: profile diverged");
        // The run must actually have exercised the compressor.
        assert!(!seq.contains("\"compress.runs\": 0"), "{args:?}: {seq}");
        pinned += &format!("$ {}\n{seq}\n", args.join(" "));
    }
    check_golden(&pinned);
    std::fs::remove_dir_all(&dir).ok();
}
