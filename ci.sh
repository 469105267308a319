#!/usr/bin/env sh
# Tier-1 verification: formatting, lints (including the workspace-wide
# clippy print_stdout/print_stderr deny — diagnostics must go through
# m3d-obs), release build, the full test suite, and the perf-regression
# gate (run reports -> BENCH_quick.json -> m3d-obsctl compare against the
# committed baseline in benchmarks/).
#
# Usage: ./ci.sh [--skip-perf]
#   --skip-perf   run everything except the steps that time this machine:
#                 the perf gate and, since they read its output, the SLO
#                 gate, the trend gate and the paper-scale gate (useful on
#                 noisy or throttled machines; the full gate still runs in
#                 real CI). The serve smoke always runs.
set -eu

SKIP_PERF=0
for arg in "$@"; do
    case "$arg" in
        --skip-perf) SKIP_PERF=1 ;;
        *) echo "ci.sh: unknown argument '$arg'" >&2; exit 2 ;;
    esac
done

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo clippy (alloc-profile feature, -D warnings) =="
cargo clippy -p m3d-obs -p m3d-bench -p m3d-gnn --features m3d-obs/alloc-profile --all-targets -- -D warnings

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (default thread budget) =="
cargo test -q

echo "== cargo test -q (M3D_THREADS=1, serial pool) =="
# The exec-pool determinism contract says results are bit-identical at any
# thread count; running the whole suite serially exercises every inline
# fast path and would surface any test that silently depends on the
# parallel schedule.
M3D_THREADS=1 cargo test -q

echo "== cargo test -q (benchmark workspace) =="
# benchmark/ is a cargo workspace of its own, built against the library
# crates as path dependencies; nothing else compiles it, so an API change
# it depends on would otherwise surface only when the benchmark runs.
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "== cargo test -q -p m3d-gnn (M3D_SIMD=scalar, canonical backend) =="
# The scalar backend is the canonical lane-order reference; the gnn suite
# (goldens included) must pass bit-identically with dispatch forced to it.
M3D_SIMD=scalar cargo test -q -p m3d-gnn

echo "== cargo test -q (m3d-obs with alloc-profile) =="
cargo test -q -p m3d-obs --features alloc-profile

echo "== steady-state zero-allocation gate (m3d-gnn alloc-profile) =="
# After one warmup call, a gnn.train call may allocate only its per-call
# bookkeeping (its buffers, shuffle order and loss curve), never anything
# per gradient step: for a GCN model and for a dense head trained on its
# readouts (as the Classifier trains), an 8-epoch call must allocate
# exactly 6 x 8 B (loss-curve slots) more than a 2-epoch call.
cargo test -q -p m3d-gnn --features alloc-profile --test alloc_steady_state

echo "== microbench smoke (M3D_BENCH_SMOKE=1, one sample per bench) =="
# Proves the kernel/backtrace/fault-simulation/partition bench binaries
# stay runnable; timing is not inspected here.
M3D_BENCH_SMOKE=1 cargo bench -q -p m3d-gnn --bench kernels
M3D_BENCH_SMOKE=1 cargo bench -q -p m3d-fault-loc --bench backtrace
M3D_BENCH_SMOKE=1 cargo bench -q -p m3d-sim --bench fsim
M3D_BENCH_SMOKE=1 cargo bench -q -p m3d-part --bench partition

echo "== serve smoke (train once -> m3d-serve batch inference) =="
SERVE_DIR=target/serve-smoke
mkdir -p "$SERVE_DIR"
./target/release/m3d-serve train --profile aes --config syn1 --scale 0.002 \
    --samples 48 --epochs 8 --restarts 1 -o "$SERVE_DIR/aes-syn1.m3da"
./target/release/m3d-serve requests --artifact "$SERVE_DIR/aes-syn1.m3da" \
    -n 24 --seed 9 > "$SERVE_DIR/requests.ndjson"
# One malformed line rides along: the server must answer it with a
# `rejected` record instead of dropping the stream (never-500).
echo 'this is not json' >> "$SERVE_DIR/requests.ndjson"
# So does a never-failing chip (a header-only log): it has no GNN
# evidence, so the server must answer it `degraded`, with the ATPG
# report unchanged.
design=$(head -n 1 "$SERVE_DIR/requests.ndjson" | sed 's/.*"design":"\([^"]*\)".*/\1/')
echo "{\"id\":\"never-failing\",\"design\":\"$design\",\"log\":\"# m3d-failure-log v1\"}" \
    >> "$SERVE_DIR/requests.ndjson"

SERVE_REPORT="$SERVE_DIR/serve-report.ndjson"
SERVE_STREAM="$SERVE_DIR/serve-stream.ndjson"
rm -f "$SERVE_REPORT" "$SERVE_STREAM"
for s in 1 2 3 4 5 6 7 8; do rm -f "$SERVE_STREAM.$s"; done
M3D_OBS_REPORT="$SERVE_REPORT" M3D_OBS_STREAM="$SERVE_STREAM" \
    ./target/release/m3d-serve run --artifact "$SERVE_DIR/aes-syn1.m3da" \
    --stdin --batch 8 \
    < "$SERVE_DIR/requests.ndjson" > "$SERVE_DIR/responses.ndjson"

requests=$(wc -l < "$SERVE_DIR/requests.ndjson")
responses=$(wc -l < "$SERVE_DIR/responses.ndjson")
if [ "$requests" != "$responses" ]; then
    echo "ci.sh: m3d-serve answered $responses of $requests requests — every admitted request must get exactly one record" >&2
    exit 1
fi
# The response totality contract: every record carries the
# degradation provenance keys, even rejected ones.
for key in degrade_reason t_p_fallback status; do
    if [ "$(grep -c "\"$key\":" "$SERVE_DIR/responses.ndjson")" != "$responses" ]; then
        echo "ci.sh: some m3d-serve response records are missing \"$key\"" >&2
        exit 1
    fi
done
if [ "$(grep -c '"status":"rejected"' "$SERVE_DIR/responses.ndjson")" != 1 ]; then
    echo "ci.sh: expected exactly the malformed line to be rejected" >&2
    exit 1
fi
if [ "$(grep -c '"status":"degraded"' "$SERVE_DIR/responses.ndjson")" != 1 ]; then
    echo "ci.sh: expected exactly the never-failing chip to be degraded" >&2
    exit 1
fi
degraded=$(grep '"status":"degraded"' "$SERVE_DIR/responses.ndjson")
resolution=$(echo "$degraded" | sed 's/.*"resolution":\([0-9]*\),.*/\1/')
atpg_resolution=$(echo "$degraded" | sed 's/.*"atpg_resolution":\([0-9]*\),.*/\1/')
if ! echo "$degraded" | grep -q '"degrade_reason":"empty_subgraph"' \
    || ! echo "$degraded" | grep -q '"pruned":0,' \
    || [ "$resolution" != "$atpg_resolution" ]; then
    echo "ci.sh: the degraded answer must be its ATPG report, as empty_subgraph with nothing pruned: $degraded" >&2
    exit 1
fi
# Backend invariance end to end: inference runs the dispatched
# kernels, so the same requests served under the scalar backend must
# answer byte for byte the same (confidence travels as hex f32 bits).
M3D_SIMD=scalar ./target/release/m3d-serve run \
    --artifact "$SERVE_DIR/aes-syn1.m3da" --stdin --batch 8 \
    < "$SERVE_DIR/requests.ndjson" > "$SERVE_DIR/responses-scalar.ndjson"
if ! cmp "$SERVE_DIR/responses.ndjson" "$SERVE_DIR/responses-scalar.ndjson"; then
    echo "ci.sh: m3d-serve answers differ between the vector and scalar backends" >&2
    exit 1
fi

# The server's own telemetry: the flushed report parses strictly, the
# live stream folds back into totals, and the per-design SLO budgets
# hold against the committed baseline (when one exists yet).
./target/release/m3d-obsctl summarize --strict "$SERVE_REPORT" >/dev/null
./target/release/m3d-obsctl top "$SERVE_STREAM" >/dev/null
if [ -f benchmarks/BENCH_quick.json ]; then
    ./target/release/m3d-obsctl slo "$SERVE_REPORT" \
        --baseline benchmarks/BENCH_quick.json \
        --headroom 2.0 --max-degraded-rate 0.1
else
    echo "ci.sh: serve SLO check skipped (no committed baseline yet)"
fi

if [ "$SKIP_PERF" = 1 ]; then
    echo "ci.sh: perf, SLO, trend and paper-scale gates skipped (--skip-perf)"
    echo "ci.sh: all green"
    exit 0
fi

echo "== perf gate =="
# Every harness binary must install the flush-on-unwind report guard;
# a bin that forgets it would silently drop its run report.
for bin_src in crates/bench/src/bin/*.rs; do
    if ! grep -q "ReportGuard::new" "$bin_src"; then
        echo "ci.sh: $bin_src does not install m3d_bench::ReportGuard — its run report would never be flushed" >&2
        exit 1
    fi
done

GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
PERF_DIR=target/perf
mkdir -p "$PERF_DIR"

# Best-of-2 quick-scale deployment pipeline (Fig. 9 workload, aes
# profile): two runs bound the scheduler noise, `m3d-obsctl bench` keeps
# the per-stage minima. Run 1 additionally streams live telemetry so the
# sink path is exercised on every CI pass (and its perf cost is part of
# the measurement the perf gate judges).
STREAM="$PERF_DIR/quick-run1.stream.ndjson"
rm -f "$STREAM"
for s in 1 2 3 4 5 6 7 8; do rm -f "$STREAM.$s"; done
for i in 1 2; do
    report="$PERF_DIR/quick-run$i.ndjson"
    rm -f "$report"
    echo "-- perf run $i/2 (fig09_runtime --scale quick --profile aes)"
    if [ "$i" = 1 ]; then
        M3D_OBS_REPORT="$report" M3D_OBS_STREAM="$STREAM" M3D_GIT_REV="$GIT_REV" \
            ./target/release/fig09_runtime --scale quick --profile aes >/dev/null
        if [ ! -s "$STREAM" ]; then
            echo "ci.sh: fig09_runtime did not stream telemetry to $STREAM although M3D_OBS_STREAM was set" >&2
            exit 1
        fi
        # The rotated stream must parse whole and fold back into totals.
        ./target/release/m3d-obsctl top "$STREAM" >/dev/null
    else
        M3D_OBS_REPORT="$report" M3D_GIT_REV="$GIT_REV" \
            ./target/release/fig09_runtime --scale quick --profile aes >/dev/null
    fi
    if [ ! -s "$report" ]; then
        echo "ci.sh: fig09_runtime did not flush a run report to $report although M3D_OBS_REPORT was set" >&2
        exit 1
    fi
done

echo "== strict telemetry audit (no dropped records) =="
# A full report with drops means the caps or the stream ring were sized
# wrong for this workload; fail loud rather than ship partial telemetry.
./target/release/m3d-obsctl summarize --strict "$PERF_DIR/quick-run1.ndjson" >/dev/null

./target/release/m3d-obsctl bench \
    "$PERF_DIR/quick-run1.ndjson" "$PERF_DIR/quick-run2.ndjson" \
    -o BENCH_quick.json

BASELINE=benchmarks/BENCH_quick.json
if [ ! -f "$BASELINE" ]; then
    # First run on this tree: bootstrap the baseline from the snapshot we
    # just measured and ask for it to be committed.
    mkdir -p benchmarks
    cp BENCH_quick.json "$BASELINE"
    echo "ci.sh: no committed baseline found — bootstrapped $BASELINE from this run; review and commit it"
else
    ./target/release/m3d-obsctl compare "$BASELINE" BENCH_quick.json
fi

echo "== SLO gate =="
# Absolute ceilings, as opposed to the relative perf gate above: every
# design's diagnosis p95 must stay under the committed baseline's
# `framework.diagnose` p95 x 2 headroom, and no design may degrade more
# than 10% of its cases. Checked on the perf runs just produced.
./target/release/m3d-obsctl slo "$PERF_DIR/quick-run1.ndjson" \
    --baseline "$BASELINE" --headroom 2.0 --max-degraded-rate 0.1

echo "== trend gate (cross-run drift over benchmarks/history) =="
# The per-run perf gate tolerates +50% before failing; a +8%/run leak
# sails under it forever. The trend gate archives every CI snapshot
# and fails on sustained monotonic p50 growth across recent runs.
HISTORY=benchmarks/history
mkdir -p "$HISTORY"
if [ -z "$(ls "$HISTORY" 2>/dev/null)" ] && [ -f "$BASELINE" ]; then
    # Empty history: seed it from the committed baseline so the gate
    # has a fixed reference point from run one.
    cp "$BASELINE" "$HISTORY/0000000000-seed-BENCH_quick.json"
    echo "ci.sh: seeded $HISTORY from $BASELINE"
fi
# Timestamp-prefixed names keep filename order == chronological order,
# which is the ordering contract `m3d-obsctl trend` relies on.
cp BENCH_quick.json "$HISTORY/$(date +%s)-$GIT_REV-BENCH_quick.json"
# Cap the archive: drop the oldest entries beyond the newest 24.
excess=$(($(ls "$HISTORY" | wc -l) - 24))
if [ "$excess" -gt 0 ]; then
    for old in $(ls "$HISTORY" | sort | head -n "$excess"); do
        rm -f "$HISTORY/$old"
    done
    echo "ci.sh: trimmed $excess old snapshot(s) from $HISTORY"
fi
./target/release/m3d-obsctl trend "$HISTORY"

echo "== paper-scale gate (>=100k-gate back-trace probe) =="
# The quick gate above never sees paper-scale cones. One netcard run
# at the paper-smoke scale (~110k gates) drives the reference
# back-trace (a graph walk per entry and observer) and the bitmap
# back-trace over the same failure logs — bit-identity is asserted
# inside the probe — and the bitmap path must hold its >=2x win,
# tracked in BENCH_paper.json alongside the quick snapshot.
PAPER_DIR=target/perf-paper
mkdir -p "$PAPER_DIR"
paper_report="$PAPER_DIR/paper-run1.ndjson"
rm -f "$paper_report"
echo "-- paper run (fig09_runtime --scale paper-smoke --profile netcard)"
M3D_OBS_REPORT="$paper_report" M3D_GIT_REV="$GIT_REV" \
    ./target/release/fig09_runtime --scale paper-smoke --profile netcard >/dev/null
if [ ! -s "$paper_report" ]; then
    echo "ci.sh: fig09_runtime did not flush a run report to $paper_report although M3D_OBS_REPORT was set" >&2
    exit 1
fi
./target/release/m3d-obsctl summarize --strict "$paper_report" >/dev/null
./target/release/m3d-obsctl bench "$paper_report" \
    --scale paper-smoke -o BENCH_paper.json
./target/release/m3d-obsctl speedup BENCH_paper.json \
    paper.backtrace.reference paper.backtrace --min 2.0

PAPER_BASELINE=benchmarks/BENCH_paper.json
if [ ! -f "$PAPER_BASELINE" ]; then
    mkdir -p benchmarks
    cp BENCH_paper.json "$PAPER_BASELINE"
    echo "ci.sh: no committed paper baseline found — bootstrapped $PAPER_BASELINE from this run; review and commit it"
else
    # Single-run paper stages carry multi-GB allocation (page-fault)
    # noise the best-of-2 quick gate averages away, so the compare
    # envelope is wider here; the speedup gate above (a same-run
    # ratio, noise cancels) and the trend gate below carry the real
    # paper-scale regression signal.
    ./target/release/m3d-obsctl compare "$PAPER_BASELINE" BENCH_paper.json \
        --tol-rel 1.5 --tol-abs-ms 50
fi

# A separate history directory: `m3d-obsctl trend` has no scale
# grouping, so paper snapshots must not mix into the quick series.
HISTORY_PAPER=benchmarks/history-paper
mkdir -p "$HISTORY_PAPER"
if [ -z "$(ls "$HISTORY_PAPER" 2>/dev/null)" ] && [ -f "$PAPER_BASELINE" ]; then
    cp "$PAPER_BASELINE" "$HISTORY_PAPER/0000000000-seed-BENCH_paper.json"
    echo "ci.sh: seeded $HISTORY_PAPER from $PAPER_BASELINE"
fi
cp BENCH_paper.json "$HISTORY_PAPER/$(date +%s)-$GIT_REV-BENCH_paper.json"
excess=$(($(ls "$HISTORY_PAPER" | wc -l) - 24))
if [ "$excess" -gt 0 ]; then
    for old in $(ls "$HISTORY_PAPER" | sort | head -n "$excess"); do
        rm -f "$HISTORY_PAPER/$old"
    done
    echo "ci.sh: trimmed $excess old snapshot(s) from $HISTORY_PAPER"
fi
./target/release/m3d-obsctl trend "$HISTORY_PAPER"

echo "ci.sh: all green"
