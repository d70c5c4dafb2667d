#!/bin/sh
# bench_gate.sh BASELINE RESULT — check one repository-benchmark result
# against a tracked baseline. Both files are written by the benchmark's
# --out flag for a single workload, for example
#
#   bash benchmark/run.sh --workload campaign --seconds 5 --trace 0 --out result.json
#   ./scripts/bench_gate.sh BENCH_campaign.json result.json
#
# Exits 1 when the result is not correct (which covers the seed-1 output
# digests), when its failed/attempted share exceeds the baseline's, or when
# its ops_per_s is below 0.75 × the baseline's. Exits 2 on a usage error, an
# unreadable or malformed file, or when the two files name different
# workloads. Needs jq.
set -eu

[ $# -eq 2 ] || { echo "usage: bench_gate.sh BASELINE RESULT" >&2; exit 2; }

# fields FILE prints "workload correct attempted failed ops_per_s", or fails
# unless FILE holds exactly one well-formed workload result.
fields() {
    jq -er 'to_entries | select(length == 1) | .[0]
        | select((.value.correct | type) == "boolean"
            and (.value.attempted | type) == "number"
            and (.value.failed | type) == "number"
            and (.value.metrics.ops_per_s.value | type) == "number")
        | "\(.key) \(.value.correct) \(.value.attempted) \(.value.failed) \(.value.metrics.ops_per_s.value)"' "$1" 2>/dev/null
}

base=$(fields "$1") || { echo "bench_gate: $1 is unreadable or not one benchmark result" >&2; exit 2; }
cur=$(fields "$2") || { echo "bench_gate: $2 is unreadable or not one benchmark result" >&2; exit 2; }

echo "$base $cur" | awk '{
    bw = $1; ba = $3; bf = $4; bo = $5
    w = $6; ok = $7; a = $8; f = $9; o = $10
    if (w != bw) { printf "bench_gate: result is workload %s, baseline is %s\n", w, bw > "/dev/stderr"; exit 2 }
    if (ba <= 0 || bo <= 0) { printf "bench_gate: %s: baseline has no ops\n", w > "/dev/stderr"; exit 2 }
    if (ok != "true") { printf "bench_gate: %s: result is not correct (see the benchmark output)\n", w > "/dev/stderr"; exit 1 }
    if (a <= 0 || f * ba > bf * a) {
        printf "bench_gate: %s: %d of %d ops failed, baseline %d of %d\n", w, f, a, bf, ba > "/dev/stderr"; exit 1
    }
    if (o < 0.75 * bo) {
        printf "bench_gate: %s: ops_per_s %.1f is below 0.75 x baseline %.1f\n", w, o, bo > "/dev/stderr"; exit 1
    }
    printf "bench_gate: %s ok: ops_per_s %.1f (baseline %.1f, %+.1f%%), %d of %d ops failed\n", w, o, bo, (o / bo - 1) * 100, f, a
}'
