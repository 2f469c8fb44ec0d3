#!/bin/sh
# Tier-1 verification gate: offline build, full test suite, formatting.
# Run from anywhere; operates on the repository containing this script.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo build --examples --release"
cargo build --examples --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> golden snapshot suite"
cargo test -q --test golden

echo "==> serve protocol / concurrency / cache batteries"
cargo test -q -p codense-service --test protocol --test concurrency --test cache

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> fuzz smoke (500 cases)"
./target/release/codense fuzz --cases 500 --seed 1

echo "==> cross-ISA fuzz smoke (mips, 500 cases: shrinking self-test + fault injection)"
./target/release/codense fuzz --isa mips --cases 500 --seed 1

echo "==> cross-ISA hybrid fuzz smoke (mips, 200 cases)"
./target/release/codense fuzz --isa mips --hybrid --cases 200 --seed 1

echo "==> metrics determinism smoke (repro, --jobs 1 vs --jobs 8)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
./target/release/codense repro --jobs 1 --metrics "$tmp/j1.json" >/dev/null
./target/release/codense repro --jobs 8 --metrics "$tmp/j8.json" >/dev/null
# Compare only the counters section; timings are wall-clock and may differ.
sed -n '/"counters"/,/}/p' "$tmp/j1.json" > "$tmp/j1.counters"
sed -n '/"counters"/,/}/p' "$tmp/j8.json" > "$tmp/j8.counters"
diff -u "$tmp/j1.counters" "$tmp/j8.counters"

echo "==> per-ISA gate (mips repro + counters --jobs 1 vs --jobs 8)"
./target/release/codense repro --isa mips --jobs 1 --metrics "$tmp/m1.json" >/dev/null
./target/release/codense repro --isa mips --jobs 8 --metrics "$tmp/m8.json" >/dev/null
sed -n '/"counters"/,/}/p' "$tmp/m1.json" > "$tmp/m1.counters"
sed -n '/"counters"/,/}/p' "$tmp/m8.json" > "$tmp/m8.counters"
diff -u "$tmp/m1.counters" "$tmp/m8.counters"
# The checked-in BENCH_isa.json must match a fresh run of both backends.
./target/release/codense repro --isa both --out "$tmp/BENCH_isa.json" >/dev/null
diff -u BENCH_isa.json "$tmp/BENCH_isa.json"

echo "==> cross-ISA CLI gate (a written module compresses under the ISA it records)"
# `compress` takes no --isa: the module's header tag picks the backend. Its
# ratio on a corpus module written to disk must equal the nibble column of
# the in-process repro row for the same program, on both backends.
for isa in ppc mips; do
    ./target/release/codense corpus --isa "$isa" --insns 10000 -o "$tmp/$isa.cdm" >/dev/null
    got="$(./target/release/codense compress "$tmp/$isa.cdm" |
        sed -n 's/.*ratio \([0-9.]*%\).*/\1/p')"
    want="$(./target/release/codense repro --isa "$isa" --corpus 10k --bench compress |
        awk '$1 == "corpus-10k" { print $6 }')"
    if [ -z "$got" ] || [ "$got" != "$want" ]; then
        echo "cross-ISA gate ($isa): compress ratio '$got' != repro nibble '$want'" >&2
        exit 1
    fi
done

echo "==> ratio gate (greedy/refine x nibble/huffman vs checked-in BENCH_ratio.json)"
# Compression is deterministic, so the per-bench ratio artifact must
# reproduce byte-for-byte; any selector or encoding drift shows up as a
# diff here. This also re-asserts the headline claim pinned in the
# artifact: refine+huffman beats greedy+nibble on both ISAs.
./target/release/codense repro --isa both --ratio-out "$tmp/BENCH_ratio.json" >/dev/null
diff -u BENCH_ratio.json "$tmp/BENCH_ratio.json"

echo "==> hybrid gate (hybrid-sweep vs checked-in BENCH_hybrid.json)"
# The cycle model behind the size-vs-cycles frontier reads the compressed
# fetch engine's reference trace and FetchStats, so any drift in the engine
# shows up here as a diff.
./target/release/codense hybrid-sweep --out "$tmp/BENCH_hybrid.json" >/dev/null
diff -u BENCH_hybrid.json "$tmp/BENCH_hybrid.json"

echo "==> hybrid determinism gate (profile + hybrid, --jobs 1 vs --jobs 8)"
for j in 1 8; do
    ./target/release/codense --jobs "$j" --metrics "$tmp/hybrid-$j.metrics.json" \
        profile --bench quicksort --out "$tmp/profile-$j.json" >/dev/null
    ./target/release/codense --jobs "$j" hybrid --bench quicksort --coverage 0.5 \
        > "$tmp/hybrid-$j.out"
    sed -n '/"counters"/,/}/p' "$tmp/hybrid-$j.metrics.json" > "$tmp/hybrid-$j.counters"
done
# The profile artifact and the counters section are byte-identical at any
# --jobs; the hybrid report carries no wall-clock data, so it is too.
diff -u "$tmp/profile-1.json" "$tmp/profile-8.json"
diff -u "$tmp/hybrid-1.counters" "$tmp/hybrid-8.counters"
diff -u "$tmp/hybrid-1.out" "$tmp/hybrid-8.out"

echo "==> serve smoke (loadgen -c 1, zero failures, exact cache hits/misses, counters --jobs 1 vs --jobs 8)"
for j in 1 8; do
    log="$tmp/serve-$j.log"
    : > "$log"
    ./target/release/codense --jobs "$j" serve --addr 127.0.0.1:0 --queue-depth 8 \
        > "$log" 2>&1 &
    serve_pid=$!
    addr=""
    i=0
    while [ "$i" -lt 100 ]; do
        addr="$(sed -n 's/^serving on //p' "$log" || true)"
        if [ -n "$addr" ]; then
            break
        fi
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$addr" ]; then
        echo "serve --jobs $j never reported its address" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    # loadgen byte-compares every response against the in-process result and
    # exits nonzero if any request failed, so set -e enforces zero failures.
    ./target/release/codense loadgen --addr "$addr" --requests 16 --connections 1 \
        --bench compress --encoding nibble --metrics-out "$tmp/serve-$j.metrics.json"
    # Huffman must be servable over the same connection settings: the
    # responses are byte-compared against an in-process huffman+refine
    # compression, covering the codec tag and the selector byte end-to-end.
    ./target/release/codense loadgen --addr "$addr" --requests 8 --connections 1 \
        --bench compress --encoding huffman --selector refine --shutdown
    wait "$serve_pid"
    # Counters only: the timings section carries wall-clock data.
    sed -n '/"counters"/,/}/p' "$tmp/serve-$j.metrics.json" > "$tmp/serve-$j.counters"
done
diff -u "$tmp/serve-1.counters" "$tmp/serve-8.counters"
# The first run sends 16 identical requests on one connection: the first
# is compressed by a worker, the other 15 are answered from the cache.
for want in '"serve.cache.hits": 15' '"serve.cache.misses": 1'; do
    grep -Eq "$want,?\$" "$tmp/serve-1.counters" || {
        echo "serve smoke: counters lack $want" >&2
        exit 1
    }
done

echo "==> corpus smoke (100K insns: generate -> compress -> verify -> run, counters + profile --jobs 1 vs --jobs 8)"
# One deterministic SPEC-scale corpus point end to end: repro builds the
# 100K-insn PPC program and compresses and verifies it under all four
# encodings; profile runs it natively and through the compressed fetch
# path. The telemetry counters (matchfinder work, verify runs, VM
# fetch-path event counts) and the profile artifact must be byte-identical
# at any --jobs, like every other artifact. Throughput at this scale is
# measured by the repo benchmark (BENCHMARK.json), not here.
for j in 1 8; do
    ./target/release/codense --jobs "$j" --metrics "$tmp/corpus-repro-$j.json" \
        repro --corpus 100k --bench compress >/dev/null
    ./target/release/codense --jobs "$j" --metrics "$tmp/corpus-profile-$j.json" \
        profile --corpus 100k --out "$tmp/corpus-profile-$j.out.json" >/dev/null
    for step in repro profile; do
        sed -n '/"counters"/,/}/p' "$tmp/corpus-$step-$j.json" > "$tmp/corpus-$step-$j.counters"
    done
done
diff -u "$tmp/corpus-repro-1.counters" "$tmp/corpus-repro-8.counters"
diff -u "$tmp/corpus-profile-1.counters" "$tmp/corpus-profile-8.counters"
cmp "$tmp/corpus-profile-1.out.json" "$tmp/corpus-profile-8.out.json"

echo "==> matchfinder equivalence at corpus scale (100K insns, both ISAs, nibble + huffman)"
# The production matchfinder must give the reference engine's images, pick
# logs and dictionaries on SPEC-scale programs too. The reference engine
# makes this step release-only; the 10K variant runs in `cargo test`.
cargo test -q --release -p codense-corpus --test matchfinder -- --ignored

echo "==> benchmark toy tests (benchmark/ against the workspace crates it links)"
# The repo benchmark is its own Cargo workspace, so no step above builds
# it: an API change in a crate it links would otherwise surface only when
# the benchmark runs. The toy runs also execute corpus programs on the
# predecoded VM and check exit code and step count against the native run.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "verify: OK"
