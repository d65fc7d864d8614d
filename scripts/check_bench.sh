#!/usr/bin/env sh
# Benchmark regression gate driver: runs bench_gate against the committed
# baseline, then proves the gate still has teeth by injecting a synthetic
# 2x slowdown and demanding a failure, and proves its differential
# attribution has teeth by also injecting one 100x-slow kernel path
# (PROFILE_INJECT=csr) and demanding that a csr span path rank first among
# the attributed regressions. Run from anywhere.
set -eu

cd "$(dirname "$0")/.."

cargo build --release --offline -p pygko-bench --bin bench_gate

# 1. The committed candidate must be within tolerance of the baseline.
./target/release/bench_gate

# 2. Self-test: a uniform 2x slowdown must make the gate exit nonzero.
if BENCH_GATE_INJECT=2.0 ./target/release/bench_gate >/dev/null 2>&1; then
    echo "check_bench: FAIL — gate accepted an injected 2x slowdown" >&2
    exit 1
fi
echo "check_bench: gate rejects injected 2x slowdown (self-test OK)"

# 3. Attribution self-test: with the 2x slowdown forcing regressions, the
#    injected 100x csr path must fail the gate AND rank first among the
#    attributed span paths.
out="$(BENCH_GATE_INJECT=2.0 PROFILE_INJECT=csr ./target/release/bench_gate 2>&1)" && {
    echo "check_bench: FAIL — gate accepted an injected 2x slowdown with PROFILE_INJECT=csr" >&2
    exit 1
}
echo "$out" | grep -q "ATTRIBUTED" || {
    echo "check_bench: FAIL — regressed run printed no ATTRIBUTED paths" >&2
    echo "$out" >&2
    exit 1
}
first_attr="$(echo "$out" | grep "ATTRIBUTED" | head -n 1)"
echo "$first_attr" | grep -q "csr" || {
    echo "check_bench: FAIL — injected 100x csr kernel is not the top attributed path:" >&2
    echo "$first_attr" >&2
    exit 1
}
echo "check_bench: top attribution is the injected csr path (self-test OK)"
