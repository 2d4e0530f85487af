#!/usr/bin/env bash
# Tier-1 verification for the dnasim workspace, run fully offline.
#
# 1. Guard: no Cargo manifest may depend on anything outside the tree.
#    Every dependency must be `path = …` (directly or via
#    `workspace = true` resolving to a path entry in the root manifest).
# 2. Guard: non-test library sources must stay panic-free — no unwrap(),
#    expect(), panic!(), unreachable!(), todo!() or unimplemented!()
#    outside test modules (testkit and bench are test infrastructure and
#    exempt). Robustness is DESIGN.md §8's contract: typed errors or
#    quarantine, never a panic.
# 3. Guard: `crates/parallel` (the thread pool everything else trusts for
#    determinism) must itself stay free of registry dependencies — every
#    dependency line in its manifest is `path = …` / `workspace = true`.
# 4. Build the whole workspace in release mode with the network disabled.
# 5. Run the full test suite twice — at DNASIM_THREADS=1 and
#    DNASIM_THREADS=4 — so every pool-backed stage is exercised both
#    serial and parallel; the golden end-to-end snapshot
#    (tests/golden_pipeline.rs → golden_pipeline.txt) is diffed under
#    both thread counts, which is DESIGN.md §9's contract that thread
#    count never changes output.
# 6. Run the chaos fault-injection suite in smoke mode.
# 7. Guard: `crates/metrics` (the edit-distance kernels clustering and
#    evaluation trust) must stay free of registry dependencies too.
# 8. Run the kernel differential suite twice — once with the runtime SIMD
#    dispatch active and once with DNASIM_SIMD=off — so the Myers kernels
#    (single-pattern and the multi-pattern bank tier) agree bit-for-bit
#    with the scalar DP oracle on both sides of the dispatch. A guard also
#    checks that every metrics source using `unsafe` carries
#    `deny(unsafe_op_in_unsafe_fn)` and SAFETY comments.
# 9. Streaming equivalence: the bounded-memory pipeline
#    (tests/streaming_equivalence.rs) must be byte-identical to the
#    in-memory path at DNASIM_THREADS=1 and =4 — including the online
#    streaming clusterer diffed against the materialised greedy pass on
#    seeded pools at batch sizes {1, 7, 64, ∞}, and the fully windowed
#    archive whose peak-resident-reads gauge must stay bounded — and the
#    CLI must write identical files at the default batch size and at
#    `--batch-size 32`, from text or binary input (DESIGN.md §11, §16). The cluster crate
#    suite also re-runs under DNASIM_SIMD=off so lane accounting holds on
#    the portable fallback.
# 10. Serve soak smoke: the multi-tenant batch RPC tier must answer ≥200
#    interleaved requests byte-identically to isolated serial execution
#    (tests/serve_soak.rs in smoke mode), and the `dnasim serve` pipe must
#    honour the exit-code contract (responses + exit 0 on valid JSONL,
#    usage + exit 2 on a malformed line, never a panic).
# 11. Bench smoke: scripts/bench.sh --fast must produce parseable reports
#    (the workspace groups, the cross-format parse group, the
#    multi-pattern clustering group, and the streaming-clusterer group),
#    and the committed BENCH_004.json … BENCH_009.json reports (when
#    present) must still validate.
# 12. Cancellation chaos smoke: the `dnasim chaos --json` grid (including
#    the stalled-source / sink-write-failure / budget-exhaustion
#    streaming faults) must report clean, and a deadline-metered serve
#    pipe must answer with a typed `deadline` response and exit 0
#    (DESIGN.md §13).
# 13. Lint gate: `cargo clippy --all-targets -- -D warnings` must pass.
#
# Usage: scripts/verify.sh

set -euo pipefail

cd "$(dirname "$0")/.."

echo "== hermetic-dependency guard =="

# Scan dependency sections of every manifest. A line introduces a non-path
# dependency if it carries a bare version requirement, or a `version`,
# `git`, or `registry` key. `workspace = true` lines are fine: the
# workspace table itself is scanned by the same rules.
fail=0
while IFS= read -r manifest; do
    bad=$(awk '
        /^\[/ {
            in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies([].]|$)/)
            next
        }
        !in_deps { next }
        /^[[:space:]]*(#|$)/ { next }
        {
            line = $0
            sub(/#.*/, "", line)
            # bare `name = "1.2"` version shorthand
            if (line ~ /^[[:space:]]*[A-Za-z0-9_-]+[[:space:]]*=[[:space:]]*"/) { print; next }
            # inline tables or multi-line entries with registry-ish keys
            if (line ~ /(^|[{,[:space:]])(version|git|registry)[[:space:]]*=/) { print; next }
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "ERROR: non-path dependency in $manifest:" >&2
        echo "$bad" | sed 's/^/    /' >&2
        fail=1
    fi
done < <(find . -name Cargo.toml -not -path './target/*')

if [ "$fail" -ne 0 ]; then
    echo "The workspace must stay hermetic: in-tree path dependencies only." >&2
    exit 1
fi
echo "ok: all dependencies are in-tree path crates"

echo "== panic-guard (library sources) =="

# Library code must degrade with typed errors, never panic. Scan every
# non-test source: cut each file at its first `#[cfg(test)]` (test modules
# sit at the end of files in this workspace), skip comment/doc-comment
# lines, and flag the panicking constructs. testkit and bench are test
# infrastructure and exempt.
fail=0
while IFS= read -r src; do
    case "$src" in
        ./crates/testkit/*|./crates/bench/*) continue ;;
    esac
    bad=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(|todo!\(|unimplemented!\(/ {
            printf "%d:%s\n", NR, $0
        }
    ' "$src")
    if [ -n "$bad" ]; then
        echo "ERROR: panicking construct in non-test library code: $src" >&2
        echo "$bad" | sed 's/^/    /' >&2
        fail=1
    fi
done < <(find ./crates/*/src ./src -name '*.rs')

if [ "$fail" -ne 0 ]; then
    echo "Library code must return typed errors (DnasimError), not panic." >&2
    exit 1
fi
echo "ok: non-test library sources are panic-free"

echo "== parallel-crate dependency guard =="

# The determinism of every pool-backed stage rests on crates/parallel, so
# its manifest gets a belt-and-braces check on top of the workspace-wide
# scan: every dependency line must be an in-tree path or workspace entry.
bad=$(awk '
    /^\[/ { in_deps = ($0 ~ /^\[(dev-|build-)?dependencies([].]|$)/); next }
    !in_deps { next }
    /^[[:space:]]*(#|$)/ { next }
    !/path[[:space:]]*=/ && !/workspace[[:space:]]*=[[:space:]]*true/ {
        printf "%d:%s\n", NR, $0
    }
' crates/parallel/Cargo.toml)
if [ -n "$bad" ]; then
    echo "ERROR: crates/parallel/Cargo.toml has a non-path dependency:" >&2
    echo "$bad" | sed 's/^/    /' >&2
    exit 1
fi
echo "ok: crates/parallel depends only on in-tree path crates"

echo "== metrics-crate dependency guard =="

# The Myers kernels sit on the clustering hot path and in the oracle
# contract; keep crates/metrics free of registry dependencies so the
# kernel code can never silently pick up an external implementation.
bad=$(awk '
    /^\[/ { in_deps = ($0 ~ /^\[(dev-|build-)?dependencies([].]|$)/); next }
    !in_deps { next }
    /^[[:space:]]*(#|$)/ { next }
    !/path[[:space:]]*=/ && !/workspace[[:space:]]*=[[:space:]]*true/ {
        printf "%d:%s\n", NR, $0
    }
' crates/metrics/Cargo.toml)
if [ -n "$bad" ]; then
    echo "ERROR: crates/metrics/Cargo.toml has a non-path dependency:" >&2
    echo "$bad" | sed 's/^/    /' >&2
    exit 1
fi
echo "ok: crates/metrics depends only on in-tree path crates"

echo "== offline release build =="
# --workspace so the dnasim CLI binary is rebuilt too: the root
# manifest is both a workspace and the facade package, and a bare
# `cargo build` would only cover the facade (leaving a stale
# target/release/dnasim for the CLI smoke below).
CARGO_NET_OFFLINE=true cargo build --release --workspace

# The full suite runs under two thread counts. tests/golden_pipeline.rs
# builds its pool with ThreadPool::from_env(), so each run re-diffs the
# checked-in golden_pipeline.txt snapshot under that worker count, and
# tests/parallel_equivalence.rs covers the 1/2/4/8 grid internally.
echo "== test suite (DNASIM_THREADS=1) =="
CARGO_NET_OFFLINE=true DNASIM_THREADS=1 cargo test -q

echo "== test suite (DNASIM_THREADS=4) =="
CARGO_NET_OFFLINE=true DNASIM_THREADS=4 cargo test -q

echo "== chaos suite (smoke) =="
CARGO_NET_OFFLINE=true DNASIM_BENCH_FAST=1 cargo test -q -p dnasim-faults --test chaos

echo "== binary corpus fuzz (smoke, 128 seeded mutations) =="
# Truncations, bit flips, and length lies over an encoded binary corpus
# must yield typed errors or clean prefixes — no panic, no misread
# (crates/faults/src/corpus.rs; DESIGN.md §14).
CARGO_NET_OFFLINE=true cargo test -q -p dnasim-faults --lib smoke_sweep_of_128_mutations

echo "== unsafe-SIMD-module guard (crates/metrics) =="
# Any metrics source reaching for `unsafe` (the AVX2/NEON kernel backends)
# must opt into the strict unsafe-block rules and justify every block.
fail=0
while IFS= read -r src; do
    if grep -q '\bunsafe\b' "$src"; then
        if ! grep -q 'deny(unsafe_op_in_unsafe_fn)' "$src"; then
            echo "ERROR: $src uses unsafe without #![deny(unsafe_op_in_unsafe_fn)]" >&2
            fail=1
        fi
        if ! grep -q 'SAFETY:' "$src"; then
            echo "ERROR: $src uses unsafe without any SAFETY: comments" >&2
            fail=1
        fi
    fi
done < <(find crates/metrics/src -name '*.rs')
if [ "$fail" -ne 0 ]; then
    echo "SIMD modules must deny implicit unsafe and document every block." >&2
    exit 1
fi
echo "ok: metrics unsafe modules deny implicit unsafe and carry SAFETY comments"

echo "== kernel differential suite (Myers vs scalar oracle, SIMD dispatch on) =="
CARGO_NET_OFFLINE=true cargo test -q -p dnasim-metrics --test myers_differential

echo "== kernel differential suite (DNASIM_SIMD=off, portable fallback) =="
CARGO_NET_OFFLINE=true DNASIM_SIMD=off cargo test -q -p dnasim-metrics --test myers_differential

echo "== cluster suite (DNASIM_SIMD=off, scalar lane accounting) =="
# ClusterStats lane accounting and the reference-assignment paths must be
# identical when the multi-pattern bank tier falls back to scalar lanes.
CARGO_NET_OFFLINE=true DNASIM_SIMD=off cargo test -q -p dnasim-cluster

echo "== streaming equivalence suite (DNASIM_THREADS=1 and 4) =="
# Includes the streaming-vs-materialised clusterer diff on seeded pools
# and the windowed-archive batch/thread invariance matrix.
CARGO_NET_OFFLINE=true DNASIM_THREADS=1 cargo test -q --test streaming_equivalence
CARGO_NET_OFFLINE=true DNASIM_THREADS=4 cargo test -q --test streaming_equivalence

echo "== streaming CLI smoke (bounded-memory end to end) =="
dnasim=target/release/dnasim
stream_dir=$(mktemp -d /tmp/dnasim-stream-smoke.XXXXXX)
"$dnasim" generate --out "$stream_dir/twin.txt" --small --clusters 48 --seed 9
"$dnasim" generate --out "$stream_dir/twin-stream.txt" --small --clusters 48 --seed 9 \
    --batch-size 32
cmp "$stream_dir/twin.txt" "$stream_dir/twin-stream.txt"
"$dnasim" simulate --data "$stream_dir/twin.txt" --model keoliya:spatial \
    --out "$stream_dir/sim.txt"
"$dnasim" simulate --data "$stream_dir/twin.txt" --model keoliya:spatial \
    --out "$stream_dir/sim-stream.txt" --batch-size 32
cmp "$stream_dir/sim.txt" "$stream_dir/sim-stream.txt"
"$dnasim" archive --bytes 512 --batch-size 32 | grep -q "round-trip OK"

# Cross-format golden step: the same generation in binary, converted back
# to text, must be byte-identical to the text-path output — and the
# binary-input simulate must reproduce the text-input one.
"$dnasim" generate --out "$stream_dir/twin.dnb" --small --clusters 48 --seed 9 \
    --batch-size 32 --format binary
"$dnasim" convert --in "$stream_dir/twin.dnb" --out "$stream_dir/twin-roundtrip.txt" \
    --format text
cmp "$stream_dir/twin.txt" "$stream_dir/twin-roundtrip.txt"
"$dnasim" simulate --data "$stream_dir/twin.dnb" --model keoliya:spatial \
    --out "$stream_dir/sim-binary-in.txt" --batch-size 32
cmp "$stream_dir/sim.txt" "$stream_dir/sim-binary-in.txt"
rm -rf "$stream_dir"
echo "ok: CLI output is byte-identical across batch sizes and formats; archive decode window bounded"

echo "== serve soak smoke (differential, multi-tenant) =="
# ≥240 interleaved requests across 8 tenants at 1/2/4 workers, every
# response diffed against isolated serial execution, injected faults
# quarantined per tenant (tests/serve_soak.rs, smoke scale).
CARGO_NET_OFFLINE=true DNASIM_BENCH_FAST=1 cargo test -q --test serve_soak

echo "== serve CLI smoke (exit-code contract) =="
serve_out=$(printf '%s\n' \
    '{"tenant":"acme","request_id":"r1","op":"corrupt","count":3,"len":30,"reads":2}' \
    '{"tenant":"beta","request_id":"r2","op":"archive","bytes":48,"reads":4}' \
    | "$dnasim" serve --seed 7)
[ "$(printf '%s\n' "$serve_out" | wc -l)" -eq 2 ]
printf '%s' "$serve_out" | grep -q '"request_id":"r1"'
# A malformed line must exit 2 with a diagnostic on stderr, never panic.
set +e
serve_err=$(printf 'not json\n' | "$dnasim" serve 2>&1 >/dev/null)
serve_code=$?
set -e
[ "$serve_code" -eq 2 ]
printf '%s' "$serve_err" | grep -q "request line 1"
echo "ok: serve answers valid JSONL and rejects malformed lines with exit 2"

echo "== cancellation chaos smoke (budgets, deadlines, shedding) =="
# The machine-readable chaos grid must be clean, including the streaming
# faults that attack budgets mid-flight (DESIGN.md §13).
chaos_json=$("$dnasim" chaos --seeds 2 --json)
printf '%s' "$chaos_json" | grep -q '"clean":true'
printf '%s' "$chaos_json" | grep -q '"budget-exhaustion"'
# A request that cannot meet its work-unit deadline answers with a typed
# deadline response — exit 0, no abort, no panic.
deadline_out=$(printf '%s\n' \
    '{"tenant":"acme","request_id":"d1","op":"generate","clusters":12,"len":30,"deadline":3}' \
    | "$dnasim" serve --seed 5)
printf '%s' "$deadline_out" | grep -q '"status":"deadline"'
printf '%s' "$deadline_out" | grep -q '"spent":3'
# An explicit cluster budget sheds oversized requests as overloaded.
shed_out=$(printf '%s\n' \
    '{"tenant":"acme","request_id":"big","op":"generate","clusters":500,"len":24}' \
    | "$dnasim" serve --cluster-budget 32)
printf '%s' "$shed_out" | grep -q '"reason":"overloaded"'
echo "ok: chaos grid clean; deadlines and shedding answer with typed responses"

echo "== clippy lint gate =="
CARGO_NET_OFFLINE=true cargo clippy --all-targets -q -- -D warnings
echo "ok: clippy is clean at -D warnings"

echo "== bench smoke (fast mode) =="
smoke_report=$(mktemp /tmp/dnasim-bench-smoke.XXXXXX.json)
smoke_parse_report=$(mktemp /tmp/dnasim-bench-parse-smoke.XXXXXX.json)
smoke_mp_report=$(mktemp /tmp/dnasim-bench-mp-smoke.XXXXXX.json)
smoke_stream_report=$(mktemp /tmp/dnasim-bench-stream-smoke.XXXXXX.json)
trap 'rm -f "$smoke_report" "$smoke_parse_report" "$smoke_mp_report" "$smoke_stream_report"' EXIT
scripts/bench.sh --fast --out "$smoke_report" --parse-out "$smoke_parse_report" \
    --multipattern-out "$smoke_mp_report" --stream-out "$smoke_stream_report"
CARGO_NET_OFFLINE=true cargo run -q --release -p dnasim-bench --bin benchreport -- \
    check "$smoke_report"
CARGO_NET_OFFLINE=true cargo run -q --release -p dnasim-bench --bin benchreport -- \
    check "$smoke_parse_report"
CARGO_NET_OFFLINE=true cargo run -q --release -p dnasim-bench --bin benchreport -- \
    check "$smoke_mp_report"
CARGO_NET_OFFLINE=true cargo run -q --release -p dnasim-bench --bin benchreport -- \
    check "$smoke_stream_report"

for report in BENCH_004.json BENCH_005.json BENCH_006.json BENCH_007.json BENCH_008.json \
              BENCH_009.json; do
    if [ -f "$report" ]; then
        echo "== committed benchmark report ($report) =="
        CARGO_NET_OFFLINE=true cargo run -q --release -p dnasim-bench --bin benchreport -- \
            check "$report"
    fi
done

echo "verify: OK"
