#!/usr/bin/env bash
# Runs every workload REPS times (default 3), each run in its own process,
# and stores each run's output as target/benchmark/<label>/<workload>-<rep>.txt
# for `m3d-benchmark compare`. Rep r uses seed r, so two labels of the same
# commit diagnose the same chips. Workload order alternates between reps.
#
#   benchmark/run.sh <label> [reps] [--trace]
#
# --trace adds one traced run per workload (<workload>-trace.txt); compare
# then reports the tracing overhead.
set -euo pipefail

cd "$(dirname "$0")/.."
label=${1:?usage: benchmark/run.sh <label> [reps] [--trace]}
reps=${2:-3}
trace=${3:-}

export M3D_THREADS=2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin=${CARGO_TARGET_DIR:-benchmark/target}/release/m3d-benchmark

out=target/benchmark/$label
mkdir -p "$out"
{
    echo "nproc $(nproc)"
    echo "cpu $(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2- | sed 's/^ *//')"
    echo "git $(git rev-parse HEAD 2>/dev/null || echo unknown)"
} > "$out/host"

workloads=(train-aes diagnose-bypass serve-compacted paper-netcard)
status=0
for ((rep = 1; rep <= reps; rep++)); do
    order=("${workloads[@]}")
    if ((rep % 2 == 0)); then
        order=(paper-netcard serve-compacted diagnose-bypass train-aes)
    fi
    for w in "${order[@]}"; do
        echo "rep $rep/$reps: $w" >&2
        "$bin" run "$w" --seed "$rep" > "$out/$w-$rep.txt" || status=1
    done
done
if [[ $trace == --trace ]]; then
    for w in "${workloads[@]}"; do
        echo "traced: $w" >&2
        "$bin" run "$w" --seed 1 --trace > "$out/$w-trace.txt" || status=1
    done
fi
echo "simd $(grep -h -m1 ' simd ' "$out"/*.txt | head -1 | cut -d' ' -f3)" >> "$out/host"
exit $status
