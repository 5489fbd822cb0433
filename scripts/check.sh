#!/usr/bin/env bash
# Repository gate: formatting, lints, build and the full test suite.
# Run before pushing; CI (.github/workflows/ci.yml) runs the same steps.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings
# The sim crate must also lint (and build) with tracing compiled out.
cargo clippy -p seaweed-sim --all-targets --no-default-features -- -D warnings

echo "==> seaweed-lint (determinism & safety audit, <5s budget)"
# Build outside the timed window so the budget measures the audit, not
# the compiler; the flow-sensitive rules (D008+) must stay cheap enough
# to run on every edit.
cargo build -q -p seaweed-lint
lint_start=$(date +%s%N)
./target/debug/seaweed-lint
lint_ms=$(( ($(date +%s%N) - lint_start) / 1000000 ))
echo "    lint wall-clock: ${lint_ms}ms"
if [ "$lint_ms" -ge 5000 ]; then
  echo "seaweed-lint exceeded its 5s budget (${lint_ms}ms)" >&2
  exit 1
fi

echo "==> cargo doc (-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
# --workspace: the smokes below need the bench bins.
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo bench --no-run (Criterion benches must keep compiling)"
cargo bench --workspace --no-run

echo "==> checked-in results (default arguments reproduce results/*.csv byte-for-byte)"
# Each binary exits non-zero on any oracle violation. obs01 runs twice:
# its JSONL trace is not checked in, so it is held to run-to-run
# byte-stability instead.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
./target/release/chaos01_faults --out "$tmp/chaos01.csv"
cmp results/chaos01.csv "$tmp/chaos01.csv"
./target/release/abl07_hedging --out "$tmp/abl07.csv"
cmp results/abl07.csv "$tmp/abl07.csv"
./target/release/obs01_query_timeline --out "$tmp/obs01_a.csv" --trace-out "$tmp/obs01_a.jsonl"
./target/release/obs01_query_timeline --out "$tmp/obs01_b.csv" --trace-out "$tmp/obs01_b.jsonl" >/dev/null
cmp results/obs01.csv "$tmp/obs01_a.csv"
cmp results/obs01.csv "$tmp/obs01_b.csv"
cmp "$tmp/obs01_a.jsonl" "$tmp/obs01_b.jsonl"

echo "==> scale ladder (small points reproduce results/scale.csv; serial == parallel across processes)"
# Every point asserts completeness 1.0 and a clean oracle on each
# overlay. Only the deterministic CSV is compared; the JSON twin holds
# wall time and peak RSS, which depend on the host.
for n in 1000 2000; do
  ./target/release/scale --n "$n" --out "$tmp/scale_$n.csv" --json "$tmp/scale_$n.json"
  cmp <(head -n 1 results/scale.csv; grep "^$n,1," results/scale.csv) "$tmp/scale_$n.csv"
done
# Two points (serial and parallel): each mode runs in its own child
# process, and the parent fails if their rows differ.
./target/release/scale --n 600 --parts 3 --workers 3 --seed 7 --mode both \
  --out "$tmp/scale_fed.csv" --json "$tmp/scale_fed.json"

echo "==> storm01 smoke (fixed seed, small N: oracle-gated, K=1 byte-identity, CSV byte-stable)"
# Asserts internally: every query reaches completeness 1.0, the chaos
# oracle stays clean, and the K=1 storm run is byte-identical to the
# storm-off baseline (exits non-zero otherwise).
./target/release/storm01_query_storm --n 300 --max-k 100 --seed 7 \
  --out results/storm01_smoke_a.csv --json results/storm01_smoke_a.json
./target/release/storm01_query_storm --n 300 --max-k 100 --seed 7 \
  --out results/storm01_smoke_b.csv --json results/storm01_smoke_b.json >/dev/null
cmp results/storm01_smoke_a.csv results/storm01_smoke_b.csv
rm -f results/storm01_smoke_{a,b}.csv results/storm01_smoke_{a,b}.json

echo "OK"
