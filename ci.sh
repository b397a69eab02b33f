#!/usr/bin/env bash
# Offline CI for sesame-rs: formatting, lints, and the full test suite
# (including the sesame-verify online-checking integration tests).
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ledger builds against these crates unmodified"
# benchmark/ is its own workspace compiled against crates/* by path, so a
# renamed or re-typed item it imports breaks it without breaking anything
# above. Cheap here; the alternative is finding out after the 100k-node
# smokes, when benchmark/run.sh builds it.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

echo "==> cargo test"
# The tier-1 command. (It ran twice back to back while sibling tests
# counted into one shared allocation counter; `sesame-alloc-probe` counts
# per thread, so there is no such race for a second run to catch.)
cargo test -q --workspace

echo "==> heap footprint budgets (release build, as the benchmark measures)"
# Bytes per node of a built 10k-node bigmesh machine, peak heap of a full
# run and what the run adds to the built machine, zero route storage on a
# flood machine, route appends that cost only the odd arena block. The
# debug run above checks the same budgets; this one checks them on the
# code layout users and the ledger actually run.
cargo test -q --release -p sesame-workloads --test footprint

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> telemetry smoke (run -> snapshot -> report)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run -q --release -p sesame-cli -- run --scenario contention \
    --metrics-out "$tmpdir/m.json" --timeline-out "$tmpdir/t.trace.json" \
    >/dev/null
grep -q '"schema":"sesame-telemetry/v1"' "$tmpdir/m.json"
grep -q '"traceEvents"' "$tmpdir/t.trace.json"
# report --metrics-in round-trips through the Snapshot::from_json validator.
cargo run -q --release -p sesame-cli -- report --metrics-in "$tmpdir/m.json" \
    | grep -q "optimism"
# The scenarios that had no collector before the one driver: the pipeline
# and the sharded mesh export the same schemas.
cargo run -q --release -p sesame-cli -- run --scenario pipeline --nodes 8 \
    --visits 128 --metrics-out "$tmpdir/pipeline.json" >/dev/null
grep -q '"schema":"sesame-telemetry/v1"' "$tmpdir/pipeline.json"
grep -q '"scenario":"pipeline"' "$tmpdir/pipeline.json"
cargo run -q --release -p sesame-cli -- run --scenario bigmesh --nodes 400 \
    --series-out "$tmpdir/bigmesh-series.json" >/dev/null
grep -q '"schema":"sesame-series/v1"' "$tmpdir/bigmesh-series.json"

echo "==> online verification smoke (all six scenarios clean, planted fault caught)"
cargo run -q --release -p sesame-cli -- verify --scenario all > "$tmpdir/verify.out"
for group in three-cpu contention task-queue pipeline bigmesh canonical; do
    if ! grep -q "^ok   $group/" "$tmpdir/verify.out"; then
        echo "verify --scenario all printed no ok line for $group" >&2
        exit 1
    fi
done
# One line per model or method each scenario compares (docs/verify.md's
# table): 3 + 2 + 2 + 3 + 1 + 1.
oks=$(grep -c "^ok   " "$tmpdir/verify.out")
if [ "$oks" -ne 12 ]; then
    echo "verify --scenario all printed $oks ok lines, want 12" >&2
    exit 1
fi
if grep -q "^FAIL" "$tmpdir/verify.out"; then
    echo "verify --scenario all reported a violation" >&2
    exit 1
fi
if cargo run -q --release -p sesame-cli -- verify --scenario planted-bad \
    >/dev/null 2>&1; then
    echo "verify --scenario planted-bad exited zero" >&2
    exit 1
fi

echo "==> error-path smoke (bad parameters are error lines, not panics)"
for bad in "bigmesh --nodes 1" "fig2 --sizes 1"; do
    # shellcheck disable=SC2086  # $bad is a command line, split on purpose
    if cargo run -q --release -p sesame-cli -- $bad \
        > /dev/null 2> "$tmpdir/bad.err"; then
        echo "sesame $bad exited zero" >&2
        exit 1
    fi
    if ! grep -q '^error: ' "$tmpdir/bad.err" || grep -q 'panicked' "$tmpdir/bad.err"; then
        echo "sesame $bad did not fail with an error line: $(cat "$tmpdir/bad.err")" >&2
        exit 1
    fi
done

echo "==> examples smoke (the five example programs run; each asserts its own result)"
# Tier-1 builds these and nothing ran them. rollback_demo is also the one
# user-facing program that filters a trace by kind: the stale echo the
# Figure 6 blocking drops must be among the lines it prints.
for example in quickstart task_management pipeline_speedup contention_explorer; do
    cargo run -q --release -p sesame-examples --bin "$example" >/dev/null
done
cargo run -q --release -p sesame-examples --bin rollback_demo > "$tmpdir/rollback_demo.out"
grep -q 'hw-block-drop  *v1=17' "$tmpdir/rollback_demo.out"

echo "==> sweep determinism smoke (fig8 reduced scale, --jobs 2 vs --jobs 1)"
cargo run -q --release -p sesame-cli -- fig8 --sizes 2,4,8 --visits 128 --jobs 1 \
    > "$tmpdir/fig8-serial.txt"
cargo run -q --release -p sesame-cli -- fig8 --sizes 2,4,8 --visits 128 --jobs 2 \
    > "$tmpdir/fig8-parallel.txt"
diff -u "$tmpdir/fig8-serial.txt" "$tmpdir/fig8-parallel.txt"

echo "==> model-checking smoke (exhaustive clean exploration, bounded)"
cargo run -q --release -p sesame-cli -- check \
    | grep -q "complete: every schedule"
# Bigger canonical configs: their spaces exceed the budget, so the
# bounded search must come back clean and honestly incomplete.
cargo run -q --release -p sesame-cli -- check --cpus 3 --work-max 100000 \
    | grep -q "without finding a violation"
cargo run -q --release -p sesame-cli -- check --links relax-roots \
    --work-max 20000 --depth 120 \
    | grep -q "without finding a violation"

echo "==> model-checking planted bug (nonzero exit + replay artifact)"
if cargo run -q --release -p sesame-cli -- check \
    --mutation stale-grant-reuse --out "$tmpdir/cx.replay" \
    > "$tmpdir/check.out" 2>&1; then
    echo "planted stale-grant-reuse mutant was NOT caught" >&2
    exit 1
fi
grep -q "still holds" "$tmpdir/check.out"
grep -q "sesame-check counterexample v1" "$tmpdir/cx.replay"
# The recorded schedule must reproduce the violation deterministically.
if cargo run -q --release -p sesame-cli -- check --replay "$tmpdir/cx.replay" \
    > "$tmpdir/replay.out" 2>&1; then
    echo "replayed counterexample did NOT reproduce the violation" >&2
    exit 1
fi
grep -q "still holds" "$tmpdir/replay.out"

echo "==> causal-tracing smoke (explain, DAG export, flow arrows)"
cargo run -q --release -p sesame-cli -- run --scenario contention \
    --causes-out "$tmpdir/causes.json" --timeline-out "$tmpdir/flow.trace.json" \
    > "$tmpdir/causes.out"
grep -q '"schema":"sesame-causes/v1"' "$tmpdir/causes.json"
grep -q '"op":"rollback"' "$tmpdir/causes.json"
# The export holds the explained set (ancestors of the rollbacks and of the
# critical path), and says how much of the run that is.
grep -q "wrote causal DAG (228 of 2921 recorded events" "$tmpdir/causes.out"
# Flow arrows: paired Chrome flow-event start/finish phases in the timeline.
grep -q '"ph":"s"' "$tmpdir/flow.trace.json"
grep -q '"ph":"f","bp":"e"' "$tmpdir/flow.trace.json"
# explain walks every rollback back to the remote write that caused it and
# ends with the critical-path split.
cargo run -q --release -p sesame-cli -- explain --scenario contention \
    > "$tmpdir/explain.out"
grep -q "rollback #" "$tmpdir/explain.out"
grep -q "invalidated by node" "$tmpdir/explain.out"
grep -q "critical path:" "$tmpdir/explain.out"
# An id outside the explained set (#10: an apply nothing descends from,
# absent from the export above) is still explained when asked for.
if grep -q '"id":10,' "$tmpdir/causes.json"; then
    echo "causes export kept #10, which no rollback or critical path reads" >&2
    exit 1
fi
cargo run -q --release -p sesame-cli -- explain --scenario contention \
    --event 10 > "$tmpdir/explain-event.out"
grep -q "#10 apply" "$tmpdir/explain-event.out"
# Unknown event ids are a hard error.
if cargo run -q --release -p sesame-cli -- explain --scenario contention \
    --event 999999999 >/dev/null 2>&1; then
    echo "explain accepted an unknown event id" >&2
    exit 1
fi

echo "==> time-series determinism smoke (serial vs --jobs 4 byte-identical)"
cargo run -q --release -p sesame-cli -- run --scenario contention \
    --series-out "$tmpdir/series-serial.json" >/dev/null
# --jobs N runs N redundant copies and asserts their exports (including
# the series) are byte-identical before writing; the written file must
# also match the serial run exactly.
cargo run -q --release -p sesame-cli -- run --scenario contention \
    --series-out "$tmpdir/series-jobs.json" --jobs 4 >/dev/null
diff "$tmpdir/series-serial.json" "$tmpdir/series-jobs.json"
grep -q '"schema":"sesame-series/v1"' "$tmpdir/series-serial.json"
# report --series-in round-trips through the SeriesExport::from_json
# validator and renders the per-window table. (To a file, not a pipe:
# grep -q would close the pipe mid-table and kill the CLI with EPIPE.)
cargo run -q --release -p sesame-cli -- report --scenario contention \
    --series-in "$tmpdir/series-serial.json" > "$tmpdir/series-report.out"
grep -q "wait-mean" "$tmpdir/series-report.out"

# Host time and memory are gated end to end, further down, and nowhere per
# micro-bench: the 250k-node throughput floor catches an order-of-magnitude
# kernel slowdown (a smaller one, such as the 2.5x of a calendar-queue
# revert, is for `sesame-ledger compare` to show in `sim.pop_s` and
# `sim.queue.*_ns_per_op`), the ledger's bigmesh_32k and
# observed_contention RSS ceilings and the 250k `peak_rss_kb` ceiling catch
# state that is kept too long, the full-size pins catch a change of
# behaviour, and zero_alloc.rs / no_alloc*.rs (in `cargo test` above)
# count steady-state allocations exactly.

echo "==> benchmark smoke (sesame-ledger builds, quick passes, own tests)"
# The ledger is its own workspace (benchmark/), so nothing above builds
# or tests it. run.sh builds the plain and traced binaries, runs a quick
# capture of all six workloads each way (every workload's own oracle must
# hold: `correct: true`, no failed operation), self-compares, and runs the
# ledger's unit and process-level tests. Quick numbers are never compared.
benchmark/run.sh >/dev/null

echo "==> ledger pins (three full-size workloads against benchmark/pins.txt)"
# run.sh only runs --quick, whose digests are not pinned. One full-size
# contract run each of the static-wave path (bigmesh_32k), the per-member
# fan-out under loss (lossy_mutex) and the observers (observed_contention:
# the collector with its exports and validators, the online verifier),
# with the binary run.sh just built: `correct` compares the run's digest
# with its pin. (To a file, then grep, as above.)
for w in bigmesh_32k lossy_mutex observed_contention; do
    benchmark/target/release/sesame-ledger --workload "$w" --seed 7 \
        --seconds 1 --trace 0 > "$tmpdir/ledger-$w.out"
    tail -n 1 "$tmpdir/ledger-$w.out" > "$tmpdir/ledger-$w.last"
    if ! grep -q '"correct":true' "$tmpdir/ledger-$w.last" ||
        ! grep -q '"failed":0' "$tmpdir/ledger-$w.last"; then
        echo "ledger pin check failed for $w: $(cat "$tmpdir/ledger-$w.last")" >&2
        exit 1
    fi
done
# The same contract line carries bigmesh_32k's peak RSS (whole megabytes
# are enough). It reads 19.9 MB (median of ten contract runs, seed 7;
# 20.0 on seed 11) with per-node records that store only what is read,
# so the ceiling keeps the ~15 % headroom it had over the 23.4 MB the
# wider records read — and now fails a return to them. With the
# grow-only stores (a FIFO floor per path ever used, a doubling route
# buffer, a four-slot history block per root) it read 29.2 MB, and
# scheduling every wave at the send instant read 50.8 MB, so a return to
# either fails here on memory, not only on a hand-run ledger.
rss=$(sed -n 's/.*"peak_rss_mb":{"value":\([0-9]*\).*/\1/p' "$tmpdir/ledger-bigmesh_32k.last")
if [ -n "$rss" ] && [ "$rss" -ge 23 ]; then
    echo "ledger bigmesh_32k memory ceiling: peak RSS ${rss} MB, want < 23" >&2
    exit 1
fi
# observed_contention's reads 30 MB (seeds 7 and 11) when the machine tells
# the collector its cause floor and the DAG collects behind it — the slab
# stays within twice the explained set plus what is in flight — and the
# verifier drops a write's pending key with its last snapshot (31.8 MB
# without that: its run becomes the peak). A collector that fills a 50 MB
# slab until `finish` read 63 MB; keeping and exporting every node (a
# 190 MB causes document) read 247.9 MB.
rss=$(sed -n 's/.*"peak_rss_mb":{"value":\([0-9]*\).*/\1/p' "$tmpdir/ledger-observed_contention.last")
if [ -n "$rss" ] && [ "$rss" -ge 40 ]; then
    echo "ledger observed_contention memory ceiling: peak RSS ${rss} MB, want < 40" >&2
    exit 1
fi

echo "==> docs link check (every crate named in docs/architecture.md exists)"
for c in $(grep -o 'sesame-[a-z]*' docs/architecture.md | sort -u); do
    if [ "$c" = "sesame-rs" ]; then continue; fi  # the repo, not a crate
    if [ ! -d "crates/${c#sesame-}" ]; then
        echo "docs/architecture.md names $c but crates/${c#sesame-} does not exist" >&2
        exit 1
    fi
done
# Every relative link target in the docs index and architecture book
# must resolve (catches renamed or deleted documents).
for doc in docs/README.md docs/architecture.md; do
    for target in $(grep -o '](\([^)#]*\.md\)' "$doc" | sed 's/^](//'); do
        if [ ! -f "docs/$target" ] && [ ! -f "${target#../}" ]; then
            echo "$doc links to $target which does not exist" >&2
            exit 1
        fi
    done
done

echo "==> 100k-node bigmesh smoke (completes under a 60M-event work budget)"
# The full 100000-node scaling scenario: must drain with every token
# visit completed (the command exits nonzero otherwise) without blowing
# the event budget. ~49M events, a few minutes of wall clock. (To a
# file, not a pipe: grep -q would close the pipe after the first line
# and kill the CLI with EPIPE.)
cargo run -q --release -p sesame-cli -- bigmesh --event-limit 60000000 \
    > "$tmpdir/bigmesh.out"
grep -q "nodes 100000 in 316 rows; 100000 token visits" "$tmpdir/bigmesh.out"

echo "==> 250k-node bigmesh smoke (explicit geometry, event budget, throughput floor, memory ceiling)"
# A quarter-million nodes in narrow rows (25000x10): exercises the
# --rows/--cols geometry path and the static-wave dispatch fast path at
# scale, under a hard event budget. The exact-integer `throughput` line
# doubles as a host-speed floor: 100k events/s is ~10x below what the
# flattened dispatch path sustains, so only a genuine hot-path regression
# (or a hopelessly overloaded host) trips it.
cargo run -q --release -p sesame-cli -- bigmesh --rows 25000 --cols 10 \
    --event-limit 40000000 > "$tmpdir/bigmesh250k.out"
grep -q "nodes 250000 in 25000 rows; 250000 token visits" "$tmpdir/bigmesh250k.out"
thr=$(grep -o 'throughput [0-9]*' "$tmpdir/bigmesh250k.out" | cut -d' ' -f2)
if [ "${thr:-0}" -lt 100000 ]; then
    echo "bigmesh 250k throughput floor: got ${thr:-none} events/s, want >= 100000" >&2
    exit 1
fi
# The exact-integer `peak_rss_kb` line (VmHWM; absent off Linux, where the
# check is skipped) is the memory ceiling: this machine has 275 000 groups
# and reads 167 840 kB (two runs of the command above) with flat per-group
# state, one pending event per fan-out in flight, floors, routes and
# histories that hold what is in flight or in use, and per-node records
# that store only what is read, so 200 000 kB (+19 %) absorbs allocator
# and libc drift but neither one reintroduced heap vector per group (the
# struct-of-Vecs layout read 467 348 kB) nor a return to queueing every
# wave and every node's start up front (270 488 kB). (The wider records
# read 195 550 kB, and grow-only floors, route buffer and history blocks
# 213 828 kB on top of them, both inside this ceiling: the footprint
# budgets and the ledger ceiling above are what catch those.)
rss=$(grep -o 'peak_rss_kb [0-9]*' "$tmpdir/bigmesh250k.out" | cut -d' ' -f2 || true)
if [ -n "$rss" ] && [ "$rss" -gt 200000 ]; then
    echo "bigmesh 250k memory ceiling: peak RSS ${rss} kB, want <= 200000" >&2
    exit 1
fi

echo "==> hostprof smoke (feature-gated profiler, sim tests both ways)"
cargo test -q -p sesame-sim --features hostprof >/dev/null
cargo run -q --release -p sesame-cli --features hostprof -- run \
    --scenario contention --hostprof-out "$tmpdir/hostprof.json" >/dev/null
grep -q '"schema":"sesame-hostprof/v1"' "$tmpdir/hostprof.json"
grep -q '"allocations":' "$tmpdir/hostprof.json"
# Without the feature the flag must fail loudly instead of writing nothing.
if cargo run -q --release -p sesame-cli -- run --scenario contention \
    --hostprof-out "$tmpdir/nope.json" >/dev/null 2>&1; then
    echo "--hostprof-out succeeded without the hostprof feature" >&2
    exit 1
fi

echo "CI green."
