//! Pins the VM-backed exhibits byte-for-byte: `dictcache` (the §3.3
//! dictionary-cache replay), `bandwidth` (fetch bits per instruction) and
//! `cache` (I-cache misses) all run the kernels through the compressed fetch
//! engine, so any drift in its delivered stream, `FetchStats` or reference
//! trace shows up here as a diff.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! CODENSE_BLESS=1 cargo test -p codense-experiments --test vm_exhibits
//! git diff crates/experiments/tests/golden/   # review every changed number
//! ```

use std::process::Command;

#[test]
fn vm_exhibits_match_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_codense-experiments"))
        .args(["dictcache", "bandwidth", "cache"])
        .output()
        .expect("run codense-experiments");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let actual = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/vm_exhibits.txt");
    if std::env::var("CODENSE_BLESS").as_deref() == Ok("1") {
        std::fs::write(&path, &actual).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nmissing golden; run `CODENSE_BLESS=1 cargo test -p codense-experiments \
             --test vm_exhibits` to generate it, then review the diff",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "VM exhibits drifted; if intentional, re-bless with `CODENSE_BLESS=1 cargo test -p \
         codense-experiments --test vm_exhibits` and review the diff"
    );
}
