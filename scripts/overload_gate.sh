#!/usr/bin/env bash
# Overload-resilience gate: drive the service through a deliberate
# overload and hold it to the DESIGN.md §13 policy. `loadgen overload`
# boots a deliberately small in-process server (2 workers, 16-slot
# backlog, 1 s deadline) behind a quota'd tenant, then fires an
# open-loop burst at ~10x the sustainable rate with slow-client and
# oversized-body adversaries mixed in on a seeded fault-plan schedule,
# plus a 64-connection slow-client wave that overflows the backlog on
# any hardware. The binary itself asserts every clause and exits
# nonzero on a violation:
#
#   * backlog overflow sheds with 503 + Retry-After, never queues
#   * per-tenant quota breaches answer 429 + Retry-After
#   * oversized Content-Length declarations are refused up front
#   * the backlog gauge never exceeds its configured bound
#   * in-quota traffic keeps landing (admitted 200s under overload)
#   * admitted p99 stays within the deadline budget
#   * every slow client is shed at the door or cut at the deadline
#   * the backlog drains to zero once the burst stops
#   * a closed-loop recovery pass returns to 100% goodput
#   * RSS stays flat across burst + recovery (sheds must not queue)
#
# The run writes its results as an "overload" section to a temporary
# file, which the checks below read; the checked-in BENCH_serve.json is
# left as it is (`loadgen overload` with no --out rewrites it).
set -euo pipefail

cd "$(dirname "$0")/.."

printf -- '-- building the release load client --\n'
cargo build -q --release -p dox-bench --bin loadgen

results=$(mktemp)
trap 'rm -f "$results"' EXIT

printf -- '-- overload burst + recovery --\n'
target/release/loadgen overload --out "$results"

printf -- '-- the results have the overload section --\n'
grep -q '"overload"' "$results"
grep -q '"recovery_goodput": 1' "$results"
echo "overload gate passed"
