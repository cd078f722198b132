#!/bin/sh
# Runs every workload untraced and then traced, printing every
# end-to-end and per-layer metric with its unit (stderr tables, one
# JSON result line per run on stdout). Exits non-zero as soon as a run
# fails a correctness check.
#
# usage: sh perfbench/all.sh [seed] [seconds]   (from the repository root)
set -eu
seed=${1:-1}
seconds=${2:-10}
for workload in kv_ycsb_a alloc_churn pod16_sim; do
    for trace in 0 1; do
        cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
