#!/usr/bin/env bash
# Local CI gate: formatting, lints, hermetic release build, full test suite.
#
# The workspace is fully hermetic — zero external crates — so every step
# runs with `--offline`. A fresh checkout on a machine with no registry
# cache must pass this script end to end.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

# --all-targets lints (and type-checks) the tests, benches and examples too.
echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc must build warning-free: a doc link to a deleted or private item
# (or an ambiguous one) fails here instead of rotting silently.
echo "==> RUSTDOCFLAGS=-D warnings cargo doc --workspace --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release --offline"
cargo build --release --offline

# The repository benchmark (perfbench/, its own cargo workspace) calls the
# attack, serve and kernel APIs directly; build it and run its tests here so
# a signature change fails CI, not only the benchmark run. `.bench_build` is
# the target directory perfbench/run.py uses.
echo "==> perfbench: cargo test --release (CARGO_TARGET_DIR=.bench_build)"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline --manifest-path perfbench/Cargo.toml

# The parallel kernels promise bit-identical results at any thread count
# (linalg::par determinism contract), so the whole suite must pass both
# single-threaded and at the default thread count.
echo "==> NEURODEANON_THREADS=1 cargo test -q --offline"
NEURODEANON_THREADS=1 cargo test -q --offline

echo "==> cargo test -q --offline (default threads)"
cargo test -q --offline

# The corruption/degradation property suite promises no panics and
# bit-identical outcomes at any thread count; pin it explicitly at both
# counts (the full-suite runs above cover it too, but this is the contract
# the robustness layer ships on, so name it).
echo "==> corruption property suite @ NEURODEANON_THREADS=1 and 8"
NEURODEANON_THREADS=1 cargo test -q --offline -p neurodeanon-core --test robustness_properties
NEURODEANON_THREADS=8 cargo test -q --offline -p neurodeanon-core --test robustness_properties

# The open-world layer promises splits/metrics that are pure functions of
# their seeds and a rate-1.0 split that collapses bitwise onto the
# closed-world path; pin the suite at both thread counts like the others.
echo "==> open-world property suite @ NEURODEANON_THREADS=1 and 8"
NEURODEANON_THREADS=1 cargo test -q --offline -p neurodeanon-core --test openworld_properties
NEURODEANON_THREADS=8 cargo test -q --offline -p neurodeanon-core --test openworld_properties

# The serve layer promises responses that are packing- and parallelism-
# invariant (one batched GEMM per batch, bitwise-identical per column to the
# per-query fused path) plus chaos-tested poison isolation; pin the property
# suite at both thread counts like the other robustness contracts.
echo "==> serve property suite @ NEURODEANON_THREADS=1 and 8"
NEURODEANON_THREADS=1 cargo test -q --offline -p neurodeanon-core --test serve_properties
NEURODEANON_THREADS=8 cargo test -q --offline -p neurodeanon-core --test serve_properties

# Gallery sharing (DESIGN.md §1.2, §1.7): plan clones, serve workers and
# respawns share one prepared gallery. Under the counting allocator a plan
# clone and a 4-worker MatchServer::start must each grow the live heap by
# less than a quarter of one known matrix. The same step runs the obs
# allocation-accountant test, which the default-feature runs compile out.
echo "==> heap accountant: gallery sharing + obs accountant (alloc-stats)"
cargo test -q --offline -p neurodeanon-bench --features alloc-stats --test gallery_sharing
cargo test -q --offline -p neurodeanon-obs --features alloc-stats --test properties

# Observability smoke (DESIGN.md §1.6): a traced demo run must print a span
# tree, emit JSONL that self-parses (the trace_smoke test), and — the hard
# contract — produce byte-identical predictions untraced vs traced, at 1
# and 8 threads.
echo "==> observability smoke: deanon --trace @ NEURODEANON_THREADS=1 and 8"
NEURODEANON_THREADS=1 cargo test -q --offline -p neurodeanon-bench --test trace_smoke
NEURODEANON_THREADS=8 cargo test -q --offline -p neurodeanon-bench --test trace_smoke
TRACE_DIR="$(mktemp -d)"
./target/release/deanon --demo > "$TRACE_DIR/plain.csv"
NEURODEANON_THREADS=1 ./target/release/deanon --demo --trace \
  --metrics-out "$TRACE_DIR/metrics1.jsonl" > "$TRACE_DIR/traced1.csv" 2> "$TRACE_DIR/trace1.log"
NEURODEANON_THREADS=8 ./target/release/deanon --demo --trace \
  --metrics-out "$TRACE_DIR/metrics8.jsonl" > "$TRACE_DIR/traced8.csv" 2> "$TRACE_DIR/trace8.log"
diff "$TRACE_DIR/plain.csv" "$TRACE_DIR/traced1.csv"
diff "$TRACE_DIR/traced1.csv" "$TRACE_DIR/traced8.csv"
grep -q "deanon.run" "$TRACE_DIR/metrics1.jsonl"
grep -q "plan.correlate" "$TRACE_DIR/metrics8.jsonl"
rm -rf "$TRACE_DIR"
echo "    traced output identical to untraced at both thread counts"

# Kernel smoke: the kernels bench at small scale emits kernel_bench GFLOP/s
# records and gates them against crates/bench/benches/kernel_baseline.jsonl —
# >25% below the best committed baseline is a soft warning while a label has
# one baseline record and a hard failure once two exist. It also checks the
# subspace-bank ablation tracking.
echo "==> bench smoke: kernels @ small -> \${NEURODEANON_BENCH_JSON:-bench_results.jsonl}"
NEURODEANON_BENCH_SCALE=small \
  cargo bench -p neurodeanon-bench --bench kernels --offline

# Bench smoke: the sweeps bench at small scale appends its records to the
# JSON trajectory and asserts that a warm plan is bit-identical to
# `DeanonAttack::run` (a fresh one-shot plan per call), the one-SVD-per-plan
# invariant, and that the trajectory parses with testkit::json.
echo "==> bench smoke: sweeps @ small -> \${NEURODEANON_BENCH_JSON:-bench_results.jsonl}"
NEURODEANON_BENCH_SCALE=small \
  cargo bench -p neurodeanon-bench --bench sweeps --offline

# Robustness smoke: the corruption-severity sweep at small scale must emit a
# parseable JSONL curve whose severity-0 points are bit-identical to the
# clean baseline and whose curves decay weakly monotonically.
echo "==> bench smoke: robustness @ small -> \${NEURODEANON_BENCH_JSON:-bench_results.jsonl}"
NEURODEANON_BENCH_SCALE=small \
  cargo bench -p neurodeanon-bench --bench robustness --offline

# Open-world smoke: the enrollment-rate × threshold sweep at small scale
# must append parseable CMC/ROC JSONL, with the rate-1.0 row bit-identical
# to the closed-world baseline and monotone CMC/ROC curves.
echo "==> bench smoke: openworld @ small -> \${NEURODEANON_BENCH_JSON:-bench_results.jsonl}"
NEURODEANON_BENCH_SCALE=small \
  cargo bench -p neurodeanon-bench --bench openworld --offline

# Serve smoke (DESIGN.md §1.7): the demo match server must drain clean and
# print byte-identical responses at 1 thread and at the default count —
# batching, worker scheduling, and the linalg pool must all be invisible in
# the responses. The chaos run (pinned seed) must also drain clean while
# quarantining exactly the injected faults; its response set is timing-
# dependent only in which error a faulted query gets, never in a clean
# query's match, so it gates on exit status + clean drain, not on a diff.
echo "==> serve smoke: deanon serve --demo @ NEURODEANON_THREADS=1 and default"
SERVE_DIR="$(mktemp -d)"
NEURODEANON_THREADS=1 ./target/release/deanon serve --demo --queries 60 \
  > "$SERVE_DIR/serve1.csv" 2> "$SERVE_DIR/serve1.log"
./target/release/deanon serve --demo --queries 60 \
  > "$SERVE_DIR/serve_default.csv" 2> "$SERVE_DIR/serve_default.log"
diff "$SERVE_DIR/serve1.csv" "$SERVE_DIR/serve_default.csv"
NEURODEANON_THREADS=1 ./target/release/deanon serve --demo --queries 60 \
  --chaos-seed 7 --chaos-rate 0.25 > "$SERVE_DIR/chaos.csv" 2> "$SERVE_DIR/chaos.log"
grep -q "quarantined" "$SERVE_DIR/chaos.log"
rm -rf "$SERVE_DIR"
echo "    serve responses identical at both thread counts; chaos run drained clean"

# Serve bench smoke: floods the match server at small scale (20k clean +
# 5k chaos queries), asserts every loaded-server response bitwise-identical
# to a batch-1 reference, that exactly the injected faults fail typed, and
# appends serve_bench JSONL records (p50/p99/qps/shed/quarantine/taxonomy).
echo "==> bench smoke: serve @ small -> \${NEURODEANON_BENCH_JSON:-bench_results.jsonl}"
NEURODEANON_BENCH_SCALE=small \
  cargo bench -p neurodeanon-bench --bench serve --offline

echo "CI green."
