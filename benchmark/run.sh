#!/usr/bin/env bash
# The benchmark's one entry point (BENCHMARK.json's `command`):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark package from source (release, offline; into
# $CARGO_TARGET_DIR when set, else benchmark/target) and hands the arguments
# to `bench` (--trace 0: end-to-end metrics) or `trace` (--trace 1: the
# per-layer ledger). Run from the repository root; results also land in
# benchmark/out/.
set -euo pipefail

here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins 1>&2

bin=bench
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then
        bin=trace
    fi
    prev="$arg"
done
exec "$target/release/$bin" "$@"
