#!/usr/bin/env bash
# bench.sh — run the curated benchmark set and record ns/op, B/op, and
# allocs/op to BENCH_<date>.json at the repo root, so the performance
# trajectory lives in-repo and regressions are diffable.
#
# Every benchmark runs three times (-count 3) and the snapshot keeps
# each figure's minimum. allocs/op and B/op count the whole process, so
# a sample can pick up the runtime's own allocations: a new OS thread
# started while the benchmark runs costs ~5 allocations and ~5 KiB,
# which read as +50% on a 10-allocation benchmark measured once.
#
# Usage:
#   scripts/bench.sh                      # full run (benchtime 1s)
#   BENCHTIME=1x scripts/bench.sh         # smoke run (one iteration, CI)
#   OUT=BENCH_foo.json scripts/bench.sh   # custom snapshot name
#
#   scripts/bench.sh --compare OLD.json NEW.json
#       Diff two snapshots; exit nonzero if any benchmark regressed by
#       >25% allocs/op (and by more than 2 allocs) or by >25% B/op (and
#       by more than 4 KiB): the absolute slack keeps jitter on
#       near-zero baselines from failing the gate. ns/op is printed but
#       not gated: single-run timings from different machines are too
#       noisy to judge, and bench/run.sh --compare is the wall-time
#       judge. Benchmarks present on only one side are skipped with a
#       warning, not failed: new scenario benches land before the
#       baseline snapshot is regenerated, and retired ones linger in
#       old baselines.
set -euo pipefail

cd "$(dirname "$0")/.."

compare() {
    python3 - "$1" "$2" <<'PYEOF'
import json, sys

old_path, new_path = sys.argv[1], sys.argv[2]
old = {(b["pkg"], b["name"]): b for b in json.load(open(old_path))["benchmarks"]}
new = {(b["pkg"], b["name"]): b for b in json.load(open(new_path))["benchmarks"]}

# Gated figures: (key, header, absolute slack a regression must exceed
# besides the +25% bound, print format).
GATES = [("allocs_per_op", "allocs/op", 2, "g"), ("bytes_per_op", "B/op", 4096, ".4g")]

failed = False
print(f"{'benchmark':44s} {'ns/op':>26s}" + "".join(f" {h:>26s}" for _, h, _, _ in GATES))
for key in sorted(old):
    if key not in new:
        print(f"{key[1]:44s} WARNING: missing from {new_path}, skipped")
        continue
    o, n = old[key], new[key]
    row = f"{key[1]:44s}"
    ns_o, ns_n = o["ns_per_op"], n["ns_per_op"]
    d = (ns_n - ns_o) / ns_o if ns_o else 0.0
    row += f" {ns_o:>10.4g}->{ns_n:<10.4g}{d:+4.0%}"
    for field, _, slack, fmt in GATES:
        v_o, v_n = o.get(field), n.get(field)
        if v_o is None or v_n is None:
            continue
        dv = (v_n - v_o) / v_o if v_o else (1.0 if v_n else 0.0)
        flag = ""
        if dv > 0.25 and v_n - v_o > slack:
            flag, failed = " REGRESSED", True
        row += f" {v_o:>10{fmt}}->{v_n:<10{fmt}}{dv:+4.0%}{flag}"
    print(row)
for key in sorted(set(new) - set(old)):
    print(f"{key[1]:44s} WARNING: missing from {old_path} baseline, skipped (new benchmark)")
sys.exit(1 if failed else 0)
PYEOF
}

if [ "${1:-}" = "--compare" ]; then
    [ $# -eq 3 ] || { echo "usage: $0 --compare OLD.json NEW.json" >&2; exit 2; }
    compare "$2" "$3"
    exit $?
fi

BENCHTIME="${BENCHTIME:-1s}"
DATE="$(date -u +%Y-%m-%d)"
OUT="${OUT:-BENCH_${DATE}.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# The curated set: artifact-level regenerations at the root (one
# Figure 3 point per panel among them), kernel stress in internal/sim,
# packer scaling in internal/stranding, the rack-scale federation and
# multi-row fleet cycles, fleet construction, the cache's jumbo-buffer
# coherence range operations, one tenant vNIC bind/unbind, one virtual
# SSD bind/unbind, and an 8 KiB interleaved read and write of pod
# memory. Every benchmark runs one fixed input on every iteration, so a
# 1x smoke run and a 1s run measure the same work and their allocs/op
# compare like for like.
bench() {
    go test -run='^$' -bench="$1" -benchmem -benchtime="$BENCHTIME" -count=3 "$2" | tee -a "$RAW"
}
bench 'Figure2Stranding|Figure2XL|SqrtNPooling|Figure3UDP75B|Figure3UDP1500B|Figure3UDP9000B|Figure4PingPong|ToRless|AllExperiments|ClusterFederation|MultiRow|FailuresScenario|FailuresCorrelated|ChurnAdmission|SpineContention|ClusterNew' .
bench . ./internal/sim/
bench 'PackCluster2000|PackCluster20k' ./internal/stranding/
bench 'NTStoreJumbo|ReadStreamJumbo' ./internal/cache/
bench 'VNICBindUnbind|VirtualSSDBindUnbind' ./internal/core/
bench 'Interleave8KRead|Interleave8KWrite' ./internal/cxl/

# One row per benchmark, in first-run order, each figure the minimum of
# its runs.
awk -v date="$DATE" -v benchtime="$BENCHTIME" '
function lower(old, v) { return (old == "" || v + 0 < old + 0) ? v : old }
BEGIN { n = 0 }
/^pkg: / { pkg = $2 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns = $(i-1)
        if ($(i) == "B/op")      bytes = $(i-1)
        if ($(i) == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    k = pkg SUBSEP name
    if (!(k in seen)) { seen[k] = 1; keys[n++] = k; pkgs[k] = pkg; names[k] = name }
    nsmin[k] = lower(nsmin[k], ns)
    if (bytes != "") bmin[k] = lower(bmin[k], bytes)
    if (allocs != "") amin[k] = lower(amin[k], allocs)
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", date, benchtime
    for (i = 0; i < n; i++) {
        k = keys[i]
        printf "    {\"pkg\": \"%s\", \"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n",
               pkgs[k], names[k], nsmin[k], (k in bmin) ? bmin[k] : "null", (k in amin) ? amin[k] : "null", (i < n-1 ? "," : "")
    }
    printf "  ]\n}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"
