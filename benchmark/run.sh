#!/usr/bin/env bash
# Builds metabench (release, offline) and runs it, one process per workload
# so each workload's VmHWM is its own.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1]
#                    [--traced] [--smoke]
#
# Without --workload all five run in turn. Each process prints a detail
# object and then the result object ({"correct", "attempted", "failed",
# "metrics"}) as its last line; the exit code is non-zero if the build, a
# workload or any self-check fails. Run it from anywhere: paths are taken
# relative to this script, and CARGO_TARGET_DIR is honoured as given.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/metabench"

METABENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
METABENCH_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export METABENCH_RUSTC METABENCH_REV

for arg in "$@"; do
    if [[ "$arg" == --workload ]]; then
        exec "$bin" --out "$here/out" "$@"
    fi
done

status=0
for workload in $("$bin" --list); do
    "$bin" --out "$here/out" --workload "$workload" "$@" || status=1
done
exit "$status"
