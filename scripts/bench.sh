#!/usr/bin/env bash
# bench.sh — run the curated benchmark set and record ns/op, B/op, and
# allocs/op to BENCH_<date>.json at the repo root, so the performance
# trajectory lives in-repo and regressions are diffable.
#
# Usage:
#   scripts/bench.sh                      # full run (benchtime 1s)
#   BENCHTIME=1x scripts/bench.sh         # smoke run (one iteration, CI)
#   OUT=BENCH_foo.json scripts/bench.sh   # custom snapshot name
#
#   scripts/bench.sh --compare OLD.json NEW.json
#       Diff two snapshots; exit nonzero if any benchmark regressed by
#       >25% allocs/op. ns/op is printed but not gated: single-run
#       timings from different machines are too noisy to judge, and
#       bench/run.sh --compare is the wall-time judge. Benchmarks
#       present on only one side are skipped with a warning, not
#       failed: new scenario benches land before the baseline snapshot
#       is regenerated, and retired ones linger in old baselines.
set -euo pipefail

cd "$(dirname "$0")/.."

compare() {
    python3 - "$1" "$2" <<'PYEOF'
import json, sys

old_path, new_path = sys.argv[1], sys.argv[2]
old = {(b["pkg"], b["name"]): b for b in json.load(open(old_path))["benchmarks"]}
new = {(b["pkg"], b["name"]): b for b in json.load(open(new_path))["benchmarks"]}

failed = False
print(f"{'benchmark':44s} {'ns/op':>26s} {'allocs/op':>26s}")
for key in sorted(old):
    if key not in new:
        print(f"{key[1]:44s} WARNING: missing from {new_path}, skipped")
        continue
    o, n = old[key], new[key]
    row = f"{key[1]:44s}"
    ns_o, ns_n = o["ns_per_op"], n["ns_per_op"]
    d = (ns_n - ns_o) / ns_o if ns_o else 0.0
    row += f" {ns_o:>10.4g}->{ns_n:<10.4g}{d:+4.0%}"
    a_o, a_n = o.get("allocs_per_op"), n.get("allocs_per_op")
    if a_o is not None and a_n is not None:
        da = (a_n - a_o) / a_o if a_o else (1.0 if a_n else 0.0)
        flag = ""
        # Allow tiny absolute jitter (<=2 allocs) on near-zero baselines.
        if da > 0.25 and a_n - a_o > 2:
            flag, failed = " REGRESSED", True
        row += f" {a_o:>10g}->{a_n:<10g}{da:+4.0%}{flag}"
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
# coherence range operations, one tenant vNIC bind/unbind, and an 8 KiB
# interleaved read and write of pod memory. Every benchmark runs one
# fixed input on every iteration, so a 1x smoke run and a 1s run measure
# the same work and their allocs/op compare like for like.
go test -run='^$' -bench='Figure2Stranding|Figure2XL|SqrtNPooling|Figure3UDP75B|Figure3UDP1500B|Figure3UDP9000B|Figure4PingPong|ToRless|AllExperiments|ClusterFederation|MultiRow|FailuresScenario|FailuresCorrelated|ChurnAdmission|SpineContention|ClusterNew' \
    -benchmem -benchtime="$BENCHTIME" . | tee -a "$RAW"
go test -run='^$' -bench=. -benchmem -benchtime="$BENCHTIME" ./internal/sim/ | tee -a "$RAW"
go test -run='^$' -bench='PackCluster2000|PackCluster20k' -benchmem -benchtime="$BENCHTIME" ./internal/stranding/ | tee -a "$RAW"
go test -run='^$' -bench='NTStoreJumbo|ReadStreamJumbo' -benchmem -benchtime="$BENCHTIME" ./internal/cache/ | tee -a "$RAW"
go test -run='^$' -bench='VNICBindUnbind' -benchmem -benchtime="$BENCHTIME" ./internal/core/ | tee -a "$RAW"
go test -run='^$' -bench='Interleave8KRead|Interleave8KWrite' -benchmem -benchtime="$BENCHTIME" ./internal/cxl/ | tee -a "$RAW"

awk -v date="$DATE" -v benchtime="$BENCHTIME" '
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
    rows[n++] = sprintf("    {\"pkg\": \"%s\", \"name\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}",
                        pkg, name, ns, bytes == "" ? "null" : bytes, allocs == "" ? "null" : allocs)
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"benchmarks\": [\n", date, benchtime
    for (i = 0; i < n; i++) printf "%s%s\n", rows[i], (i < n-1 ? "," : "")
    printf "  ]\n}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"
