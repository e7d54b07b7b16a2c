#!/usr/bin/env bash
# Paper-scale gate: the full 1,737,887-document study (`repro --scale
# 1.0`, default seed) must reproduce the checked-in
# report_paper_scale.json byte for byte, with a peak RSS of at most
# 80 MiB.
#
# The peak is exact, not sampled: python3 runs the release binary as
# its only child and reads the child's high-water mark from
# getrusage(RUSAGE_CHILDREN) after it exits. The run pins two stage
# workers: the report is the same at any worker count, but each extra
# worker adds a chunk in flight and a thread, so an unpinned gate would
# measure the machine's core count. The study's memory should grow
# with the number of doxes, not with the corpus; a record per collected
# document costs ~90 MiB at this scale and fails the gate.
set -euo pipefail

cd "$(dirname "$0")/.."

RSS_CAP_MIB=80

cargo build --release -q -p dox-bench

scratch=$(mktemp -d "${TMPDIR:-/tmp}/dox_paper_scale.XXXXXX")
trap 'rm -rf "$scratch"' EXIT

python3 - "$RSS_CAP_MIB" target/release/repro --scale 1.0 --workers 2 --quiet \
    --json "$scratch/report.json" <<'EOF'
import resource
import subprocess
import sys
import time

cap_mib = float(sys.argv[1])
start = time.monotonic()
status = subprocess.call(sys.argv[2:], stdout=subprocess.DEVNULL)
wall = time.monotonic() - start
usage = resource.getrusage(resource.RUSAGE_CHILDREN)
peak_mib = usage.ru_maxrss / 1024  # Linux reports KiB
print(
    f"repro --scale 1.0 --workers 2: exit {status}, {wall:.1f} s wall, "
    f"{usage.ru_utime + usage.ru_stime:.1f} s CPU, peak RSS {peak_mib:.1f} MiB "
    f"(cap {cap_mib:.0f} MiB)"
)
if status != 0:
    sys.exit(f"repro exited with status {status}")
if peak_mib > cap_mib:
    sys.exit(f"peak RSS {peak_mib:.1f} MiB exceeds the {cap_mib:.0f} MiB cap")
EOF

if ! cmp report_paper_scale.json "$scratch/report.json"; then
    echo "repro --scale 1.0 --json differs from report_paper_scale.json" >&2
    exit 1
fi
echo "paper-scale report identical to report_paper_scale.json"
