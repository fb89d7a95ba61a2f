#!/usr/bin/env bash
# One-shot quality gate: formatting, lints, the full test suite, and rustdoc
# (broken intra-doc links are errors).
# Usage: scripts/check.sh [--offline]
#
# Pass --offline (or set CARGO_NET_OFFLINE=true) to forbid registry access,
# e.g. on air-gapped CI runners with a pre-warmed cargo cache.
set -euo pipefail

cd "$(dirname "$0")/.."

CARGO_FLAGS=()
for arg in "$@"; do
    case "$arg" in
        --offline) CARGO_FLAGS+=(--offline) ;;
        *)
            echo "unknown argument: $arg" >&2
            exit 2
            ;;
    esac
done

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings
run cargo test --workspace -q "${CARGO_FLAGS[@]}"
run env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace "${CARGO_FLAGS[@]}"

echo "==> all checks passed"
