#!/usr/bin/env bash
# Smoke-check the benchmark itself: build both profiles, run the quick
# untraced and traced passes, then the unit tests. Quick numbers are never
# compared. A later issue wires this into ci.sh.
set -euo pipefail
cd "$(dirname "$0")"

target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline
cargo build --release --offline --features traced --target-dir "$target/traced"

bin="$target/release/sesame-ledger"
"$bin" run --quick --samples 2 --out "$target/quick.json"
"$bin" run --quick --samples 1 --traced \
    --out "$target/quick-traced.json" --trace-out "$target/quick-trace.json"
"$bin" compare "$target/quick.json" "$target/quick.json" >/dev/null

cargo test --offline
echo "benchmark/run.sh: ok"
