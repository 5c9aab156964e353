#!/usr/bin/env bash
# Regenerates every paper artifact (figures + worked examples) into
# results/, then runs the micro-benchmarks. See EXPERIMENTS.md for the
# expected shapes. Total runtime: a few minutes for the experiments plus
# a few more for the micro-benchmarks.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(sec22_example fig2 sec31_example fig4 fig5 fig6 fig7 fig9 wfi_table delay_bound_table complexity_tail)

cargo build --release -p hpfq-bench

for b in "${BINS[@]}"; do
    echo "==================================================================="
    echo "== $b"
    echo "==================================================================="
    cargo run --release -q -p hpfq-bench --bin "$b"
    echo
done

if [[ "${SKIP_BENCH:-0}" != "1" ]]; then
    cargo bench --workspace
fi
