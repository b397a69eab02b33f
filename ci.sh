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
test_started=$SECONDS
cargo test -q --workspace
echo "test phase: $((SECONDS - test_started)) s"

echo "==> heap footprint budgets (release build, as the benchmark measures)"
# Bytes per node of a built 10k-node bigmesh machine, peak heap of a full
# run and what the run adds to the built machine, zero route storage on a
# flood machine, route appends that cost only the odd arena block. The
# debug run above checks the same budgets; this one checks them on the
# code layout users and the ledger actually run. The observers' budgets
# (the series export and its validator, the verifier's tables) ride along.
cargo test -q --release -p sesame-workloads --test footprint --test observer_footprint

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

echo "==> help smoke (every command named by \`sesame help\` takes --help)"
cargo run -q --release -p sesame-cli -- help > "$tmpdir/help.out"
commands=$(sed -n '/^COMMANDS:/,/^$/s/^    \([a-z0-9][a-z0-9]*\) .*/\1/p' "$tmpdir/help.out")
if [ -z "$commands" ]; then
    echo "sesame help names no command" >&2
    exit 1
fi
for c in $commands; do
    if ! cargo run -q --release -p sesame-cli -- "$c" --help > /dev/null; then
        echo "sesame $c --help failed" >&2
        exit 1
    fi
done

echo "==> error-path smoke (bad parameters are error lines, not panics)"
for bad in "bigmesh --nodes 1" "fig2 --sizes 1" "fig2 --exec-us 0 --sizes 3" "run --bogus 1"; do
    status=0
    # shellcheck disable=SC2086  # $bad is a command line, split on purpose
    cargo run -q --release -p sesame-cli -- $bad > /dev/null 2> "$tmpdir/bad.err" || status=$?
    if [ "$status" -ne 1 ]; then
        echo "sesame $bad exited $status, want 1" >&2
        exit 1
    fi
    if [ "$(grep -c '^error: ' "$tmpdir/bad.err")" -ne 1 ] || grep -q 'panicked' "$tmpdir/bad.err"; then
        echo "sesame $bad did not fail with one error line: $(cat "$tmpdir/bad.err")" >&2
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
grep -q 'gwc-apply .* v=1 val=17 .*mode=h' "$tmpdir/rollback_demo.out"

echo "==> sweep determinism smoke (fig8 and fig2 reduced scale, --jobs 2 vs --jobs 1)"
cargo run -q --release -p sesame-cli -- fig8 --sizes 2,4,8 --visits 128 --jobs 1 \
    > "$tmpdir/fig8-serial.txt"
cargo run -q --release -p sesame-cli -- fig8 --sizes 2,4,8 --visits 128 --jobs 2 \
    > "$tmpdir/fig8-parallel.txt"
diff -u "$tmpdir/fig8-serial.txt" "$tmpdir/fig8-parallel.txt"
# The task-queue sweep must equal its golden byte for byte at any --jobs.
for jobs in 1 2; do
    cargo run -q --release -p sesame-cli -- fig2 --sizes 3,5,9,17 --tasks 256 \
        --format csv --jobs "$jobs" > "$tmpdir/fig2-jobs$jobs.csv"
    cmp "$tmpdir/fig2-jobs$jobs.csv" tests/golden/fig2_small.csv
done

echo "==> model-checking smoke (exhaustive clean exploration, bounded)"
cargo run -q --release -p sesame-cli -- check > "$tmpdir/check-clean.out"
grep -q "complete: every schedule" "$tmpdir/check-clean.out"
# The exact search: event equality and hashing decide what the explorer
# folds, so a causal id leaking into them would change these counts.
grep -qx "explored 16 schedule(s): 0 truncated, 4097 sleep-blocked, 7582 pruned, max depth 34" \
    "$tmpdir/check-clean.out"
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
# Without Figure 6 hardware blocking a writer applies its own echo.
if cargo run -q --release -p sesame-cli -- check \
    --mutation no-hw-block --out "$tmpdir/cx-hw.replay" \
    > "$tmpdir/check-hw.out" 2>&1; then
    echo "planted no-hw-block mutant was NOT caught" >&2
    exit 1
fi
grep -q "echo of its own mutex-group data write" "$tmpdir/check-hw.out"
if cargo run -q --release -p sesame-cli -- check --replay "$tmpdir/cx-hw.replay" \
    > "$tmpdir/replay-hw.out" 2>&1; then
    echo "replayed no-hw-block counterexample did NOT reproduce the violation" >&2
    exit 1
fi
grep -q "echo of its own mutex-group data write" "$tmpdir/replay-hw.out"

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

echo "==> time-series determinism and snapshot round-trip smoke (every scenario)"
for s in three-cpu contention task-queue pipeline bigmesh canonical; do
    cargo run -q --release -p sesame-cli -- run --scenario "$s" \
        --series-out "$tmpdir/series-$s-serial.json" \
        --metrics-out "$tmpdir/metrics-$s.json" >/dev/null
    # report --metrics-in parses the snapshot through the Snapshot::from_json
    # validator; its report must equal a fresh run's byte for byte.
    cargo run -q --release -p sesame-cli -- report --metrics-in "$tmpdir/metrics-$s.json" \
        > "$tmpdir/report-$s-in.out"
    cargo run -q --release -p sesame-cli -- report --scenario "$s" > "$tmpdir/report-$s.out"
    cmp "$tmpdir/report-$s-in.out" "$tmpdir/report-$s.out"
    # --jobs N runs N redundant copies and asserts their exports (timeline,
    # causes and series) are byte-identical before writing; the written
    # series must also match the serial run exactly.
    cargo run -q --release -p sesame-cli -- run --scenario "$s" --jobs 2 \
        --timeline-out "$tmpdir/timeline-$s.json" --causes-out "$tmpdir/causes-$s.json" \
        --series-out "$tmpdir/series-$s.json" >/dev/null
    diff "$tmpdir/series-$s-serial.json" "$tmpdir/series-$s.json"
    grep -q '"schema":"sesame-series/v1"' "$tmpdir/series-$s.json"
done
# report --series-in round-trips through the SeriesExport::from_json
# validator and renders the per-window table. (To a file, not a pipe:
# grep -q would close the pipe mid-table and kill the CLI with EPIPE.)
cargo run -q --release -p sesame-cli -- report --scenario contention \
    --series-in "$tmpdir/series-contention.json" > "$tmpdir/series-report.out"
grep -q "wait-mean" "$tmpdir/series-report.out"

# Host time and memory are gated end to end, further down, and nowhere per
# micro-bench: the 250k-node throughput floor catches an order-of-magnitude
# kernel slowdown (a smaller one, such as the 2.5x of a calendar-queue
# revert, is for `sesame-ledger compare` to show in `sim.pop_s` and
# `sim.queue.*_ns_per_op`), the ledger's RSS ceilings (bigmesh_32k,
# paper_figs_par, lossy_mutex, observed_contention, check_mutex) and the 250k
# `peak_rss_kb` ceiling catch state that is kept too long, the full-size
# pins catch a change of behaviour, and zero_alloc.rs / no_alloc*.rs (in
# `cargo test` above) count steady-state allocations exactly.

echo "==> benchmark smoke (sesame-ledger builds, quick passes, own tests)"
# The ledger is its own workspace (benchmark/), so nothing above builds
# or tests it. run.sh builds the plain and traced binaries, runs a quick
# capture of all six workloads each way (every workload's own oracle must
# hold: `correct: true`, no failed operation), self-compares, and runs the
# ledger's unit and process-level tests. Quick numbers are never compared.
benchmark/run.sh >/dev/null

echo "==> ledger pins (five full-size workloads against benchmark/pins.txt)"
# run.sh only runs --quick, whose digests are not pinned. One full-size
# contract run each of the static-wave path (bigmesh_32k), the paper's
# figures through the sweep engine and the flood multicast
# (paper_figs_par, pinned to paper_figs's digest), the per-member
# fan-out under loss (lossy_mutex), the observers (observed_contention:
# the collector with its exports and validators, the online verifier) and
# the model checker (check_mutex: its exact search counts are the digest),
# with the binary run.sh just built: `correct` compares the run's digest
# with its pin. (To a file, then grep, as above.) paper_figs_par takes
# two samples of about 3.5 s each, which is what it adds to this loop.
for w in bigmesh_32k paper_figs_par lossy_mutex observed_contention check_mutex; do
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
# are enough). It reads 10.6 MB (ten contract runs, seed 7; 10.5 on seed
# 11): one boxed program per row behind a 4-byte program slot per node,
# 56-byte node memories over one init image, a status byte per node for
# the sharing interface, each route shape stored once, and sequencing
# state held only while a group has a write in flight. Each reading below
# is what the run read when that layout was current; 11 MB fails a
# return to any of them:
#   a boxed program per node with its own pointer and `Rc`: 11.7 MB
#   an `Arc` of the init image in every node memory: 12.2 MB
#   a 40-byte sharing-interface record per node: 14.05 MB
#   a 56-byte root record keeping a history for every group: 16.7 MB
#   one stored route per group: 19.8 MB
#   the wider per-node records: 23.4 MB
#   grow-only floors, route buffer and history blocks: 29.2 MB
#   every wave of a fan-out scheduled at the send instant: 50.8 MB
rss=$(sed -n 's/.*"peak_rss_mb":{"value":\([0-9]*\).*/\1/p' "$tmpdir/ledger-bigmesh_32k.last")
if [ -n "$rss" ] && [ "$rss" -ge 11 ]; then
    echo "ledger bigmesh_32k memory ceiling: peak RSS ${rss} MB, want < 11" >&2
    exit 1
fi
# paper_figs_par's reads ~5.1 MB (seeds 7 and 11, ledger contract runs):
# a cut-through flood reads each member's arrival off its hop distance
# from the root and builds no spanning tree. It read 5.9-6.0 MB while the
# machine cached one 132-position tree per hand-off root at Fig. 8's 128
# nodes (20 B a position), and 7.1-7.4 MB while a tree kept one children
# `Vec` per position. 6 MB fails a return to the latter; the cached trees
# read at this ceiling's edge, so the heap budget on a 128-node Fig. 8
# point (crates/workloads/tests/footprint.rs) is what fails a return to
# them.
rss=$(sed -n 's/.*"peak_rss_mb":{"value":\([0-9]*\).*/\1/p' "$tmpdir/ledger-paper_figs_par.last")
if [ -n "$rss" ] && [ "$rss" -ge 6 ]; then
    echo "ledger paper_figs_par memory ceiling: peak RSS ${rss} MB, want < 6" >&2
    exit 1
fi
# observed_contention's reads 16.2-16.5 MB on seeds 7 and 11 (ledger
# contract runs). Two stores each held it near 20 MB before: the verifier
# kept a payload per sequenced write and a clock per data write until the
# run ended (9.7 MB after `finish`), and the collector's exports phase ran
# beside a series window that owned a map per window, plus one sequencing
# span per write. Now the verifier and the collector retire their per-write
# state at each group's applied floor (`TraceObserver::on_seq_floor`), and
# a window is eight counters with its queue depths in one column. The
# parent read 19.6-19.9 MB; a return of the map per window alone reads
# about 19.5 MB, and a verifier no longer told the floor about 20.3 MB
# (its per-group ring of clock words then only grows), so 19 MB fails a
# return of either. (Before the flat tables and streaming writers it read
# 30 MB; a slab kept to `finish` read 63 MB.)
rss=$(sed -n 's/.*"peak_rss_mb":{"value":\([0-9]*\).*/\1/p' "$tmpdir/ledger-observed_contention.last")
if [ -n "$rss" ] && [ "$rss" -ge 19 ]; then
    echo "ledger observed_contention memory ceiling: peak RSS ${rss} MB, want < 19" >&2
    exit 1
fi

# check_mutex's reads 5.2 MB (seeds 7 and 11, ledger contract runs): the folding
# store keeps a digest in 8 bytes of one sorted run, and a visit reuses
# per-depth scratch. It read 7.4 MB while the store was two
# `HashSet<u64>`s, whose last doubling held the old table and the new
# (3.1 MB) at once; 7 MB fails a return to them.
rss=$(sed -n 's/.*"peak_rss_mb":{"value":\([0-9]*\).*/\1/p' "$tmpdir/ledger-check_mutex.last")
if [ -n "$rss" ] && [ "$rss" -ge 7 ]; then
    echo "ledger check_mutex memory ceiling: peak RSS ${rss} MB, want < 7" >&2
    exit 1
fi

# lossy_mutex's reads ~3.7 MB (seeds 7 and 11, ledger contract runs): a
# group root keeps only the sequenced writes a NACK can still name. It
# read 7.5 MB while the root kept every write it ever sequenced, one
# 16-byte entry each; 5 MB fails a return to that unbounded history.
rss=$(sed -n 's/.*"peak_rss_mb":{"value":\([0-9]*\).*/\1/p' "$tmpdir/ledger-lossy_mutex.last")
if [ -n "$rss" ] && [ "$rss" -ge 5 ]; then
    echo "ledger lossy_mutex memory ceiling: peak RSS ${rss} MB, want < 5" >&2
    exit 1
fi

echo "==> docs link check (every crate named in docs/architecture.md exists)"
for c in $(grep -o 'sesame-[a-z-]*[a-z]' docs/architecture.md | sort -u); do
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
# check is skipped) is the memory ceiling. This machine has 275 000
# groups and reads 93 514 kB (two runs of the command above): one boxed
# program per row behind a 4-byte slot per node, 56-byte node memories
# over one init image, a status byte per node for the sharing interface,
# a 16-byte root record per group with its history pooled while a write
# is in flight, each route shape stored once, one pending event per
# fan-out, and floors that hold what is in flight. 104 700 kB (+12 %)
# absorbs allocator and libc drift; each reading below is what the run
# read when that layout was current, and this ceiling fails a return to:
#   a 40-byte interface record per node with 80-byte memories: 120 640 kB
#   a 56-byte root record keeping a history for every group: 134 340 kB
#   one stored route per group: 157 000 kB
#   the wider per-node records: 195 550 kB
#   grow-only floors, route buffer and history blocks: 213 828 kB
#   queueing every wave and every node's start up front: 270 488 kB
#   a heap vector per group (the struct-of-Vecs layout): 467 348 kB
# A boxed program per node (101 586 kB) and an `Arc` of the init image in
# every node memory (+16 B a node) fit under it; the bigmesh_32k ceiling,
# footprint.rs's allocation budget and machine.rs's size assert catch them.
rss=$(grep -o 'peak_rss_kb [0-9]*' "$tmpdir/bigmesh250k.out" | cut -d' ' -f2 || true)
if [ -n "$rss" ] && [ "$rss" -gt 104700 ]; then
    echo "bigmesh 250k memory ceiling: peak RSS ${rss} kB, want <= 104700" >&2
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
