#!/usr/bin/env sh
# Offline verification gate: warning-free release build, full test suite,
# lint-clean clippy, and one wall-clock benchmark smoke run. Run from
# anywhere; operates on the workspace containing this script.
set -eu

cd "$(dirname "$0")/.."

RUSTFLAGS="-D warnings" cargo build --release --offline --workspace
# --no-fail-fast: one failing test binary must not hide the later suites.
cargo test -q --offline --workspace --no-fail-fast
cargo clippy --offline --workspace --all-targets -- -D warnings

# Static lint gate (plus its injected-violation self-test).
./scripts/check_lint.sh

# Smoke-run a real benchmark binary end to end (quick suite). Quick-mode
# output goes to a scratch directory so it never overwrites the committed
# full-size results/ files.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
PYGKO_BENCH_QUICK=1 PYGKO_RESULTS_DIR="$SMOKE_DIR" \
    cargo run --release --offline -p pygko-bench --bin micro_spmv

# Benchmark regression gate (plus its injected-slowdown and csr-attribution
# self-tests).
./scripts/check_bench.sh

echo "verify: OK"
