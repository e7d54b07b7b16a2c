#!/usr/bin/env bash
# Local quality gate: formatting, lints, build and the tier-1 test suite.
# Fully offline — every dependency is a vendored path crate, so no step
# touches the network. Run from anywhere inside the repository.
#
# Every step runs, whatever an earlier one did: each runs in its own
# subshell under `set -e`, a failing step is recorded by name, and the
# script lists the failed steps at the end and exits 1 if there are any.
set -euo pipefail

cd "$(dirname "$0")/.."

# Two steps rewrite tracked files: the trace-overhead step regenerates
# BENCH_engine.json with this machine's timings (both overhead gates read
# that fresh copy), and building perfbench refreshes its stale
# Cargo.lock. Both are put back on exit, so a check run leaves the tree
# as it found it.
saved=$(mktemp -d)
cp BENCH_engine.json "$saved/BENCH_engine.json"
cp perfbench/Cargo.lock "$saved/Cargo.lock"
trap 'cp "$saved/BENCH_engine.json" BENCH_engine.json
      cp "$saved/Cargo.lock" perfbench/Cargo.lock
      rm -rf "$saved"' EXIT

failed=()

# step NAME COMMAND...: print the banner, run COMMAND (a multi-command
# step is a function) in a subshell that stops at its first failing
# command, and record NAME if it fails.
step() {
    printf '\n== %s ==\n' "$1"
    set +e
    (set -e; "${@:2}")
    local status=$?
    set -e
    if [ "$status" -ne 0 ]; then
        failed+=("$1")
    fi
}

fmt() {
    if command -v rustfmt >/dev/null 2>&1; then
        cargo fmt --all -- --check
    else
        echo "rustfmt not installed; skipping"
    fi
}
step "cargo fmt --check" fmt

clippy() {
    if cargo clippy --version >/dev/null 2>&1; then
        cargo clippy --workspace --all-targets -- -D warnings
    else
        echo "clippy not installed; skipping"
    fi
}
step "cargo clippy --workspace -- -D warnings" clippy

dox_lint() {
    # Exits nonzero on any non-baselined finding and on stale lint.toml
    # baseline entries (entries matching no finding must be removed).
    # The JSON report is kept for CI annotators and drift diffing, and the
    # run is held to a wall-clock budget: the symbol-aware analyzer walks
    # every workspace file, and a pathological parse (fuel bug, fixpoint
    # blowup) shows up as runtime long before it shows up as wrong output.
    cargo build -q -p dox-lint --release
    lint_started=$(date +%s)
    target/release/dox-lint --workspace --format json > lint_findings.json
    lint_elapsed=$(( $(date +%s) - lint_started ))
    echo "dox-lint wrote lint_findings.json in ${lint_elapsed}s"
    if [ "$lint_elapsed" -gt 10 ]; then
        echo "dox-lint took ${lint_elapsed}s (budget: 10s)" >&2
        exit 1
    fi
}
step "dox-lint --workspace (project static analysis)" dox_lint

lint_self() {
    # No findings — baselined or live — are tolerated in crates/lint: the
    # analyzer's own code is the reference for every rule it enforces.
    if grep -E '"file":"crates/lint/' lint_findings.json >/dev/null; then
        grep -E '"file":"crates/lint/' lint_findings.json >&2
        echo "dox-lint findings inside crates/lint itself" >&2
        exit 1
    fi
    echo "crates/lint is clean"
}
step "dox-lint self-lint (the analyzer passes its own gate)" lint_self

step "cargo test -p dox-lint -q" cargo test -p dox-lint -q

step "cargo doc --workspace --no-deps (warnings are errors)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

step "cargo build --release" cargo build --release

step "cargo test -q (tier-1, includes the fault matrix)" cargo test -q

step "cargo test --workspace -q" cargo test --workspace -q

# The rows behind the extraction speed claims (full record, per rule set,
# the dense study mix) run here, not only compile.
step "extractor bench smoke (every bench_extractor row runs once)" \
    cargo bench -p dox-bench --bench bench_extractor -- --test

classifier_bench() {
    # clippy only compiles these benches; here each row runs, and the
    # fused and materialised classify paths are checked to agree.
    cargo bench -p dox-bench --bench bench_classifier -- --test
    cargo bench -p dox-bench --bench bench_tfidf -- --test
}
step "classifier and TF-IDF bench smoke (every row runs once)" classifier_bench

# The corpus generator's rows (one period, Markov prose, every paste kind,
# html_to_text over the chan bodies) run here, not only compile.
step "corpus bench smoke (every bench_corpus row runs once)" \
    cargo bench -p dox-bench --bench bench_corpus -- --test

# perfbench is a workspace of its own that links the library crates by
# path, so no step above builds it; this one does, and runs each workload.
step "perfbench smoke test (every workload on tiny inputs, outputs checked)" \
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

step "chaos smoke test (SIGKILL mid-ingest, resume, byte-compare)" scripts/chaos_smoke.sh

step "serve smoke test (daemon ingest, SIGTERM drain, resume, byte-compare)" scripts/serve_smoke.sh

step "paper-scale gate (repro --scale 1.0: checked-in report bytes, peak RSS <= 80 MiB)" scripts/paper_scale_gate.sh

step "overload gate (10x burst: shed, quota, deadline, recovery, flat RSS)" scripts/overload_gate.sh

trace_overhead() {
    # Best-of-N timer: more samples only sharpen the min, and 7 proved too
    # few to shake off ambient load on a single-hardware-thread box.
    DOX_BENCH_SAMPLES=25 cargo bench -p dox-bench --bench bench_engine -- --test >/dev/null
    scripts/trace_overhead_gate.sh
}
step "trace overhead gate (tracing disabled within 2% of the PR 5 baseline)" trace_overhead

# Reuses the BENCH_engine.json the trace gate just regenerated.
step "store overhead gate (store-backed dedup within 10% of the plain engine)" \
    scripts/store_overhead_gate.sh

if [ "${#failed[@]}" -ne 0 ]; then
    printf '\nFailed steps:\n'
    printf '  - %s\n' "${failed[@]}"
    exit 1
fi
printf '\nAll checks passed.\n'
