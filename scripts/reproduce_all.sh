#!/usr/bin/env bash
# Regenerates every paper artifact (figures, tables, worked examples and
# the §3.4 work counts) into results/. Every file it writes is
# deterministic. See EXPERIMENTS.md for the expected shapes. Total
# runtime: well under a minute.
set -euo pipefail
cd "$(dirname "$0")/.."

BINS=(sec22_example fig2 sec31_example fig4 fig5 fig6 fig7 fig9 wfi_table delay_bound_table complexity_tail)

cargo build --release -p hpfq-bench

# Each bin writes only its own results/<bin>/, so they run $(nproc) at a
# time; each one's output is kept apart and printed in BINS order.
logs="$(mktemp -d)"
trap 'rm -rf "$logs"' EXIT
status=0
printf '%s\n' "${BINS[@]}" |
    xargs -P "$(nproc)" -I{} sh -c \
        'cargo run --release -q -p hpfq-bench --bin "$1" > "$2/$1.log" 2>&1' sh {} "$logs" ||
    status=$?

for b in "${BINS[@]}"; do
    echo "==================================================================="
    echo "== $b"
    echo "==================================================================="
    cat "$logs/$b.log"
    echo
done
if [[ "$status" != "0" ]]; then
    echo "reproduce_all: a figure binary failed (xargs status $status)" >&2
    exit "$status"
fi
