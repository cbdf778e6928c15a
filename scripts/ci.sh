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

# Serve smoke (DESIGN.md §1.7): the demo match server must drain clean and
# print byte-identical responses at 1 thread and at the default count, and
# with every query answered alone (1 worker, batch 1) — batching, worker
# scheduling, and the linalg pool must all be invisible in the responses.
# The chaos runs (pinned seed) must drain clean while quarantining exactly
# the injected faults. Under the mask policy their CSV is diffed across two
# packings, 1 worker × batch 1 against 4 workers × batch 3, which exercises
# the degraded solo path and the quarantine re-run. That schedule does not
# depend on timing: it sets no deadlines, so nothing is shed, and the
# 64-respawn budget per worker is far above the handful of injected panics
# (each costs at most two respawns), so no worker parks.
echo "==> serve smoke: deanon serve --demo across thread counts and packings"
SERVE_DIR="$(mktemp -d)"
NEURODEANON_THREADS=1 ./target/release/deanon serve --demo --queries 60 \
  > "$SERVE_DIR/serve1.csv" 2> "$SERVE_DIR/serve1.log"
./target/release/deanon serve --demo --queries 60 \
  > "$SERVE_DIR/serve_default.csv" 2> "$SERVE_DIR/serve_default.log"
diff "$SERVE_DIR/serve1.csv" "$SERVE_DIR/serve_default.csv"
./target/release/deanon serve --demo --queries 60 --workers 1 --batch 1 \
  > "$SERVE_DIR/serve_solo.csv" 2> "$SERVE_DIR/serve_solo.log"
diff "$SERVE_DIR/serve_solo.csv" "$SERVE_DIR/serve_default.csv"
NEURODEANON_THREADS=1 ./target/release/deanon serve --demo --queries 60 \
  --chaos-seed 7 --chaos-rate 0.25 > "$SERVE_DIR/chaos.csv" 2> "$SERVE_DIR/chaos.log"
grep -q "quarantined" "$SERVE_DIR/chaos.log"
./target/release/deanon serve --demo --queries 60 --degraded-policy mask \
  --chaos-seed 7 --chaos-rate 0.25 --workers 1 --batch 1 \
  > "$SERVE_DIR/chaos_mask_solo.csv" 2> "$SERVE_DIR/chaos_mask_solo.log"
./target/release/deanon serve --demo --queries 60 --degraded-policy mask \
  --chaos-seed 7 --chaos-rate 0.25 --workers 4 --batch 3 \
  > "$SERVE_DIR/chaos_mask_packed.csv" 2> "$SERVE_DIR/chaos_mask_packed.log"
diff "$SERVE_DIR/chaos_mask_solo.csv" "$SERVE_DIR/chaos_mask_packed.csv"
rm -rf "$SERVE_DIR"
echo "    serve responses identical across thread counts and packings, clean and degraded"

# Experiment smoke (DESIGN.md §1.1): HCP and ADHD cohort ingest, the masked
# kernel and the open-world sweep all run on linalg::par, so their JSONL
# records must be byte-identical single-threaded and at the default count.
echo "==> repro smoke: experiment JSONL identical @ NEURODEANON_THREADS=1 and default"
REPRO_DIR="$(mktemp -d)"
NEURODEANON_THREADS=1 ./target/release/repro --scale small --out "$REPRO_DIR/t1.jsonl" \
  fig1 fig7 fig8 fig9 robustness openworld > /dev/null
./target/release/repro --scale small --out "$REPRO_DIR/default.jsonl" \
  fig1 fig7 fig8 fig9 robustness openworld > /dev/null
cmp "$REPRO_DIR/t1.jsonl" "$REPRO_DIR/default.jsonl"
rm -rf "$REPRO_DIR"
echo "    experiment records identical across thread counts"

# Kernel smoke: the kernels bench at small scale emits kernel_bench GFLOP/s
# records and gates them against crates/bench/benches/kernel_baseline.jsonl —
# >25% below the best committed baseline is a soft warning while a label has
# one baseline record and a hard failure once two exist. It also checks the
# subspace-bank ablation tracking. It runs last: its GFLOP/s reading swings
# with host load, and under `set -e` a red gate would skip every step after
# it.
echo "==> bench smoke: kernels @ small -> \${NEURODEANON_BENCH_JSON:-bench_results.jsonl}"
NEURODEANON_BENCH_SCALE=small \
  cargo bench -p neurodeanon-bench --bench kernels --offline

echo "CI green."
