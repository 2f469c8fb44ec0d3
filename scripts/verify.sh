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

echo "==> ratio gate (greedy/refine x nibble/huffman vs checked-in BENCH_ratio.json)"
# Compression is deterministic, so the per-bench ratio artifact must
# reproduce byte-for-byte; any selector or encoding drift shows up as a
# diff here. This also re-asserts the headline claim pinned in the
# artifact: refine+huffman beats greedy+nibble on both ISAs.
./target/release/codense repro --isa both --ratio-out "$tmp/BENCH_ratio.json" >/dev/null
diff -u BENCH_ratio.json "$tmp/BENCH_ratio.json"

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

echo "==> serve smoke (loadgen -c 1, zero failures, counters --jobs 1 vs --jobs 8)"
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
        --bench compress --encoding nibble --server-jobs "$j" --server-queue-depth 8 \
        --metrics-out "$tmp/serve-$j.metrics.json" \
        --out "$tmp/BENCH_serve-$j.json"
    # Huffman must be servable over the same connection settings: the
    # responses are byte-compared against an in-process huffman+refine
    # compression, covering the codec tag and the selector byte end-to-end.
    ./target/release/codense loadgen --addr "$addr" --requests 8 --connections 1 \
        --bench compress --encoding huffman --selector refine \
        --server-jobs "$j" --server-queue-depth 8 \
        --out "$tmp/BENCH_serve-huffman-$j.json" --shutdown
    wait "$serve_pid"
    # Counters only: the timings section carries wall-clock data.
    sed -n '/"counters"/,/}/p' "$tmp/serve-$j.metrics.json" > "$tmp/serve-$j.counters"
done
diff -u "$tmp/serve-1.counters" "$tmp/serve-8.counters"

echo "==> loadsweep smoke (open-loop pipelining + cache-hit ratio > 0.9)"
log="$tmp/serve-sweep.log"
: > "$log"
./target/release/codense --jobs 8 serve --addr 127.0.0.1:0 --queue-depth 32 \
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
    echo "serve (loadsweep smoke) never reported its address" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# loadsweep byte-compares every open-loop and cache-sweep response and
# exits nonzero on any failure, so set -e enforces zero failures.
./target/release/codense loadsweep --addr "$addr" --rates 50,200,800 \
    --point-requests 32 --unique 1,4,16 --cache-requests 64 \
    --bench compress --encoding nibble \
    --out "$tmp/BENCH_load.json" --shutdown
wait "$serve_pid"
# The distinct=1 cache point must be nearly all hits: 64 requests for one
# module are 1 miss + 63 hits, a 0.98 ratio; gate at > 0.9.
awk -F'"hit_ratio": ' '/"distinct": 1,/ {
    split($2, a, ","); if (a[1] + 0 > 0.9) found = 1
} END { exit !found }' "$tmp/BENCH_load.json" || {
    echo "loadsweep: distinct=1 cache point hit ratio not > 0.9" >&2
    exit 1
}

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

echo "==> benchmark toy tests (benchmark/ against the workspace crates it links)"
# The repo benchmark is its own Cargo workspace, so no step above builds
# it: an API change in a crate it links would otherwise surface only when
# the benchmark runs. The toy runs also execute corpus programs on the
# predecoded VM and check exit code and step count against the native run.
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "verify: OK"
