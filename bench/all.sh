#!/bin/sh
# Every end-to-end metric of all three workloads: bench/all.sh [SEED] [SECONDS] [TRACE]
set -e
for workload in theory scan montecarlo; do
    python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "${1:-1}" --seconds "${2:-33}" --trace "${3:-0}"
done
