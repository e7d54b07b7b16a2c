#!/usr/bin/env bash
# Chaos smoke test: SIGKILL the reproduction harness mid-ingest, tear the
# tail of its checkpoint store, resume, and verify the resumed run's JSON
# report is byte-identical to an uninterrupted fault-free run.
#
# This exercises the real recovery path end to end — a separate process,
# a real `kill -9` (no atexit handlers, no Drop), the segment store on
# disk, and the `--resume` flag — rather than the in-process simulation
# the fault-matrix tests use.
set -euo pipefail

cd "$(dirname "$0")/.."

SCALE=0.02
SEED=99
REPRO=target/release/repro

scratch=$(mktemp -d "${TMPDIR:-/tmp}/dox_chaos_smoke.XXXXXX")
trap 'rm -rf "$scratch"' EXIT

step() { printf '\n-- %s --\n' "$*"; }

step "building the release harness"
cargo build -q --release -p dox-bench --bin repro

# A stormy but fully recoverable plan: transient fetch timeouts, 429s and
# slow engine chunks, all within the retry budget. Recovered faults must
# not change a byte, so the fault-free run below stays the baseline.
cat > "$scratch/plan.json" <<'EOF'
{"seed": 3, "transient_ppm": 80000, "slow_chunk_ppm": 50000}
EOF

step "baseline: uninterrupted fault-free run"
"$REPRO" --scale "$SCALE" --seed "$SEED" --quiet --table t1 \
    --json "$scratch/clean.json" > /dev/null

step "store determinism: spilling runs at --workers 1 and --workers 4"
# Spill drains and checkpoint rows are segment bytes: two uninterrupted
# store-backed runs that differ only in worker count must leave
# byte-identical stores behind. Their events go to stderr files for the
# resume check below.
for workers in 1 4; do
    "$REPRO" --scale "$SCALE" --seed "$SEED" --table t1 \
        --workers "$workers" \
        --checkpoint-dir "$scratch/spill_w$workers" --checkpoint-every 5000 \
        --spill-cap 8 --json "$scratch/spill.json" \
        > /dev/null 2> "$scratch/spill_w$workers.err"
done
if diff -r "$scratch/spill_w1/store" "$scratch/spill_w4/store"; then
    echo "identical: $(ls "$scratch/spill_w1/store" | wc -l) store files"
else
    echo "FAIL: store bytes depend on the worker count" >&2
    exit 1
fi

step "store resume over a finished run: same report, same events"
# Everything after the last checkpoint replays, monitoring included, so
# the report and the Info/Warn event lines must match the original run's
# byte for byte.
"$REPRO" --scale "$SCALE" --seed "$SEED" --table t1 --workers 1 \
    --checkpoint-dir "$scratch/spill_w1" --checkpoint-every 5000 \
    --spill-cap 8 --resume --json "$scratch/spill.json" \
    > /dev/null 2> "$scratch/spill_resumed.err"
events() { sed -n '/^\[\(INFO\|WARN\)/p' "$1"; }
if ! cmp -s "$scratch/clean.json" "$scratch/spill.json"; then
    echo "FAIL: a resume over a finished store changed the report" >&2
    exit 1
fi
if diff <(events "$scratch/spill_w1.err") <(events "$scratch/spill_resumed.err"); then
    echo "identical: report and $(events "$scratch/spill_w1.err" | wc -l) event lines"
else
    echo "FAIL: a resume over a finished store changed the event stream" >&2
    exit 1
fi

# The drill: dedup partitions spill to disk, the checkpoint commits inside
# the segment store, and recovery must also survive a *torn segment
# tail* we forge by appending garbage past the committed length — the
# exact on-disk state a crash mid-append leaves behind. It runs twice:
# checkpointing every 200 documents, below the engine's 256-document
# chunk, where each checkpoint waits for the pipeline, and every 1000,
# where the producer keeps ingesting past a pending checkpoint barrier,
# so the SIGKILL most likely lands while one is pending.
store_drill() {
    local every=$1
    local dir="$scratch/store_ckpt_$every"

    step "store victim (every $every): store-backed run, killed with SIGKILL mid-ingest"
    "$REPRO" --scale "$SCALE" --seed "$SEED" --quiet --table t1 \
        --fault-plan "$scratch/plan.json" \
        --checkpoint-dir "$dir" --checkpoint-every "$every" \
        --spill-cap 64 \
        --json "$scratch/store_killed.json" > /dev/null 2>&1 &
    local victim=$!

    # Kill as soon as the first store commit publishes its manifest.
    for _ in $(seq 1 600); do
        [ -f "$dir/store/MANIFEST.json" ] && break
        kill -0 "$victim" 2> /dev/null || break
        sleep 0.05
    done
    if kill -9 "$victim" 2> /dev/null; then
        echo "killed pid $victim after the first store commit"
    else
        echo "note: victim finished before the kill landed (still a valid resume test)"
    fi
    wait "$victim" 2> /dev/null || true

    if [ ! -f "$dir/store/MANIFEST.json" ]; then
        echo "FAIL: no store manifest was committed before the kill" >&2
        exit 1
    fi

    step "store sabotage (every $every): append a torn tail past the committed segment length"
    local seg
    seg=$(ls -t "$dir/store"/*.seg 2> /dev/null | head -n 1)
    if [ -z "$seg" ]; then
        echo "FAIL: no segment file found to sabotage" >&2
        exit 1
    fi
    printf 'torn tail: bytes a crash left past the committed length' >> "$seg"
    echo "appended garbage to $(basename "$seg")"

    step "store resume (every $every): recover the store and continue from its checkpoint"
    "$REPRO" --scale "$SCALE" --seed "$SEED" --quiet --table t1 \
        --fault-plan "$scratch/plan.json" \
        --checkpoint-dir "$dir" --resume \
        --spill-cap 64 \
        --metrics "$scratch/store_metrics.json" \
        --json "$scratch/store_resumed.json" > /dev/null

    step "verify (every $every): store-resumed report is byte-identical to the baseline"
    if cmp -s "$scratch/clean.json" "$scratch/store_resumed.json"; then
        echo "identical: $(wc -c < "$scratch/clean.json") bytes"
    else
        echo "FAIL: store-resumed report differs from the uninterrupted baseline" >&2
        cmp "$scratch/clean.json" "$scratch/store_resumed.json" || true
        exit 1
    fi

    step "verify (every $every): recovery counted the torn tail (store.recovered_truncations)"
    local truncations
    truncations=$(sed -n 's/.*"store\.recovered_truncations": \([0-9][0-9]*\).*/\1/p' \
        "$scratch/store_metrics.json")
    if [ -z "$truncations" ] || [ "$truncations" -lt 1 ]; then
        echo "FAIL: store.recovered_truncations missing or zero in the metrics snapshot" >&2
        grep -n "store\." "$scratch/store_metrics.json" >&2 || true
        exit 1
    fi
    echo "store.recovered_truncations = $truncations"
}

store_drill 200
store_drill 1000

printf '\nChaos smoke test passed.\n'
